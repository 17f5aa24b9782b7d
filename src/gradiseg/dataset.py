"""Multi-view dataset manifest: JSON index + PPM images + PGM masks.

The manifest lists one entry per view, at least one, with finite intrinsics,
a finite row-major 4x4 world_to_camera, and relative paths to the image (P6
PPM) and mask (P5 PGM).
Optional top-level keys: num_classes (1 to 256, default 256) and scene_bbox
([[min x,y,z],[max x,y,z]], max > min on every axis) used to seed training.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .camera import CameraView
from .netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from .semantic import MAX_CLASSES

BOUNDS_RADIUS_FRAC = 0.45  # inferred half-extent per mean camera distance


@dataclass
class Dataset:
    views: list[CameraView]
    num_classes: int = 256
    scene_bbox: np.ndarray | None = None  # (2, 3) min/max corners


def load_dataset(manifest_path) -> Dataset:
    manifest_path = Path(manifest_path)
    with open(manifest_path) as f:
        spec = json.load(f)
    if not isinstance(spec, dict):
        raise ValueError("manifest top level must be a JSON object")
    root = manifest_path.parent
    num_classes = int(spec.get("num_classes", 256))
    if not 1 <= num_classes <= MAX_CLASSES:
        raise ValueError(f"num_classes {num_classes} outside [1, {MAX_CLASSES}]")
    if not spec["views"]:
        raise ValueError("manifest lists no views")
    views = []
    for entry in spec["views"]:
        image = read_ppm(root / entry["image"])
        mask = read_pgm(root / entry["mask"])
        view = CameraView(
            world_to_camera=np.asarray(entry["world_to_camera"], dtype=np.float64),
            fx=float(entry["fx"]), fy=float(entry["fy"]),
            cx=float(entry["cx"]), cy=float(entry["cy"]),
            width=int(entry["width"]), height=int(entry["height"]),
            mode=entry.get("mode", "pinhole"),
            image=image, mask=mask,
        )
        if image.shape[:2] != (view.height, view.width):
            raise ValueError(f"image size mismatch for {entry['image']}")
        if mask.shape != (view.height, view.width):
            raise ValueError(f"mask size mismatch for {entry['mask']}")
        if int(mask.max(initial=0)) >= num_classes:
            raise ValueError(f"mask id >= num_classes in {entry['mask']}")
        views.append(view)
    bbox = spec.get("scene_bbox")
    if bbox is not None:
        bbox = np.asarray(bbox, dtype=np.float64)
        if bbox.shape != (2, 3) or not np.all(np.isfinite(bbox)):
            raise ValueError("scene_bbox must be two corners of 3 finite numbers")
        if not np.all(bbox[1] > bbox[0]):
            raise ValueError("scene_bbox max must exceed min on every axis")
    return Dataset(views=views, num_classes=num_classes, scene_bbox=bbox)


def save_dataset(out_dir, views: list[CameraView], num_classes: int = 256,
                 scene_bbox=None) -> Path:
    """Write images/masks plus manifest.json into out_dir; returns manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, v in enumerate(views):
        img_name, mask_name = f"view_{i:03d}.ppm", f"view_{i:03d}.pgm"
        write_ppm(out_dir / img_name, v.image)
        write_pgm(out_dir / mask_name, v.mask)
        entries.append({
            "image": img_name, "mask": mask_name,
            "width": v.width, "height": v.height,
            "fx": v.fx, "fy": v.fy, "cx": v.cx, "cy": v.cy,
            "mode": v.mode,
            "world_to_camera": [[float(x) for x in row] for row in v.world_to_camera],
        })
    spec = {"num_classes": num_classes, "views": entries}
    if scene_bbox is not None:
        spec["scene_bbox"] = [[float(x) for x in row] for row in np.asarray(scene_bbox)]
    path = out_dir / "manifest.json"
    with open(path, "w") as f:
        json.dump(spec, f, indent=1)
    return path


def infer_scene_bounds(views: list[CameraView]) -> np.ndarray:
    """Fallback working volume when the manifest carries no scene_bbox.

    Center: least-squares intersection point of the views' optical axes;
    half-extent: BOUNDS_RADIUS_FRAC * mean camera distance to that center.
    """
    A = np.zeros((3, 3))
    b = np.zeros(3)
    centers = []
    for v in views:
        c = v.camera_center()
        d = v.rotation.T @ np.array([0.0, 0.0, 1.0])
        P = np.eye(3) - np.outer(d, d)
        A += P
        b += P @ c
        centers.append(c)
    center = np.linalg.lstsq(A, b, rcond=None)[0]
    dist = np.mean([np.linalg.norm(c - center) for c in centers])
    half = max(BOUNDS_RADIUS_FRAC * dist, 1e-3)
    return np.stack([center - half, center + half])
