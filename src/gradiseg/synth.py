"""Procedural multi-view datasets with exactly consistent instance masks.

Each object becomes a cluster of Gaussians carrying its group id and a
one-hot identity encoding, so the bundled ground-truth classifier reproduces
the masks bit-for-bit from a rendered scene. Images are rendered with the
engine itself, which keeps the photometric target inside the model class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraView, look_at
from .dataset import Dataset, save_dataset
from .render import render
from .scene import GaussianCloud, GroupTable
from .semantic import MAX_CLASSES, ClassifierHead, segment_mask

RING_RADIUS = 2.5    # camera ring radius and height above the origin
RING_HEIGHT = 0.9
ENCODING_DIM = 16    # object g is one-hot in dimension g, and g <= 8
COLOR_JITTER = 0.02  # per-Gaussian uniform color noise around the object color
OPACITY = 0.9


@dataclass
class ObjectSpec:
    primitive: str                      # sphere | box | ellipsoid
    center: tuple
    size: tuple                         # full extents per axis
    color: tuple
    count: int = 400
    label: str = ""

    def __post_init__(self):
        if self.primitive not in ("sphere", "box", "ellipsoid"):
            raise ValueError(f"unknown primitive {self.primitive!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass
class SceneSpec:
    objects: list[ObjectSpec]
    views: int = 16
    image_size: int = 64
    seed: int = 0
    num_classes: int = 256

    def __post_init__(self):
        if not (2 <= len(self.objects) <= 8):
            raise ValueError("need between 2 and 8 objects")
        if self.views < 2:
            raise ValueError("need at least 2 views")
        # object k carries group id k, and masks store ids as uint8
        lowest = len(self.objects) + 1
        if not lowest <= self.num_classes <= MAX_CLASSES:
            raise ValueError(f"num_classes {self.num_classes} outside "
                             f"[{lowest}, {MAX_CLASSES}]")


def default_scene_spec(seed: int = 0) -> SceneSpec:
    """Bundled 3-object scene: two near-touching objects plus one offset,
    exercising occlusions and shared boundaries from most viewpoints."""
    return SceneSpec(objects=[
        ObjectSpec("sphere", center=(-0.32, 0.0, 0.0), size=(0.62, 0.62, 0.62),
                   color=(0.85, 0.25, 0.2), count=420, label="sphere"),
        ObjectSpec("box", center=(0.33, 0.05, -0.02), size=(0.58, 0.5, 0.55),
                   color=(0.2, 0.55, 0.9), count=420, label="box"),
        ObjectSpec("ellipsoid", center=(0.02, -0.08, 0.52), size=(0.72, 0.4, 0.34),
                   color=(0.35, 0.8, 0.3), count=380, label="ellipsoid"),
    ], seed=seed)


def _sample_points(obj: ObjectSpec, rng: np.random.Generator) -> np.ndarray:
    half = np.asarray(obj.size, dtype=np.float64) / 2.0
    center = np.asarray(obj.center, dtype=np.float64)
    if obj.primitive == "box":
        return center + rng.uniform(-half, half, size=(obj.count, 3))
    # sphere / ellipsoid: uniform in the unit ball, scaled per axis
    pts = np.empty((obj.count, 3))
    got = 0
    while got < obj.count:
        cand = rng.uniform(-1.0, 1.0, size=(2 * (obj.count - got), 3))
        cand = cand[np.einsum("nj,nj->n", cand, cand) <= 1.0]
        take = min(cand.shape[0], obj.count - got)
        pts[got:got + take] = cand[:take]
        got += take
    return center + pts * half


def build_gt_cloud(spec: SceneSpec, rng: np.random.Generator) -> GaussianCloud:
    """Ground-truth cloud: object g's Gaussians carry group id g and a one-hot
    encoding in dimension g (dimension 0 is left for the background class)."""
    positions, scales, colors, encodings, group_ids = [], [], [], [], []
    for g, obj in enumerate(spec.objects, start=1):
        pts = _sample_points(obj, rng)
        # isotropic footprint that tiles the primitive volume; kept tight so
        # silhouettes stay within ~2 px of the rendered masks
        vol = np.prod(np.asarray(obj.size))
        sigma = 0.55 * (vol / obj.count) ** (1.0 / 3.0)
        base = np.asarray(obj.color, dtype=np.float64)
        jit = rng.uniform(-COLOR_JITTER, COLOR_JITTER, size=(obj.count, 3))
        onehot = np.zeros((obj.count, ENCODING_DIM))
        onehot[:, g] = 1.0
        positions.append(pts)
        scales.append(np.full((obj.count, 3), sigma))
        colors.append(np.clip(base + jit, 0.0, 1.0))
        encodings.append(onehot)
        group_ids.append(np.full(obj.count, g, dtype=np.int32))
    n = sum(o.count for o in spec.objects)
    quat = np.zeros((n, 4), dtype=np.float32)
    quat[:, 0] = 1.0
    # float32 throughout so the in-memory cloud is bit-identical to its
    # GSEG round trip (masks regenerate exactly from the saved scene)
    f32 = lambda arrs: np.concatenate(arrs).astype(np.float32)
    return GaussianCloud(
        f32(positions), f32(scales), quat,
        np.full(n, OPACITY, dtype=np.float32), f32(colors),
        f32(encodings), np.concatenate(group_ids))


def gt_classifier(spec: SceneSpec) -> ClassifierHead:
    """Identity-style head: class c reads encoding dimension c (c < D)."""
    w = np.zeros((spec.num_classes, ENCODING_DIM), dtype=np.float32)
    idx = np.arange(min(spec.num_classes, ENCODING_DIM))
    w[idx, idx] = 1.0
    return ClassifierHead(w, np.zeros(spec.num_classes, dtype=np.float32))


def ring_cameras(spec: SceneSpec) -> list[CameraView]:
    """V pinhole cameras on a circle, looking at the origin."""
    size = spec.image_size
    # frame the unit working volume with a small margin
    fov_half = np.arctan(0.85 / RING_RADIUS) * 1.25
    focal = (size / 2.0) / np.tan(fov_half)
    cams = []
    for i in range(spec.views):
        theta = 2.0 * np.pi * i / spec.views
        pos = (RING_RADIUS * np.cos(theta), RING_RADIUS * np.sin(theta), RING_HEIGHT)
        w2c = look_at(pos, (0.0, 0.0, 0.0))
        cams.append(CameraView(world_to_camera=w2c, fx=focal, fy=focal,
                               cx=size / 2.0, cy=size / 2.0,
                               width=size, height=size))
    return cams


def generate(spec: SceneSpec, out_dir=None):
    """Build the ground-truth cloud and render the multi-view dataset.

    Masks come from the blended per-group weights (argmax, background where
    the total foreground weight is below semantic.FOREGROUND_THRESHOLD), so
    they are multi-view consistent by construction. Returns (gt_cloud, head, dataset, group_table);
    with out_dir set, also writes the dataset + gt scene to disk.
    """
    rng = np.random.default_rng(spec.seed)
    cloud = build_gt_cloud(spec, rng)
    head = gt_classifier(spec)
    table = GroupTable(num_classes=spec.num_classes)
    for g, obj in enumerate(spec.objects, start=1):
        table.set_group(g, obj.color, obj.label or f"object_{g}")

    views = []
    lo = cloud.positions.min(axis=0) - cloud.scales.max() * 3
    hi = cloud.positions.max(axis=0) + cloud.scales.max() * 3
    for cam in ring_cameras(spec):
        out = render(cloud, cam)
        # group-weight argmax with the foreground rule; the one-hot
        # encodings make this the classifier path verbatim, so re-segmenting
        # the saved scene reproduces the masks bit-for-bit
        mask = segment_mask(out.identity, out.final_transmittance, head)
        views.append(CameraView(
            world_to_camera=cam.world_to_camera, fx=cam.fx, fy=cam.fy,
            cx=cam.cx, cy=cam.cy, width=cam.width, height=cam.height,
            mode=cam.mode, image=np.clip(out.color, 0.0, 1.0), mask=mask))

    dataset = Dataset(views=views, num_classes=spec.num_classes,
                      scene_bbox=np.stack([lo, hi]))
    if out_dir is not None:
        from .scene import save_scene
        save_dataset(out_dir, views, spec.num_classes, dataset.scene_bbox)
        save_scene(cloud, head, f"{out_dir}/gt_scene.gseg")
    return cloud, head, dataset, table
