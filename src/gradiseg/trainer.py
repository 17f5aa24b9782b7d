"""End-to-end optimization: joint loss, Adam updates, phase schedule, checkpoints.

Schedule phases (iteration i, total T):
  i < densify_end:            standard clone/split densification at intervals
  densify_end <= i < igd_end: identity-gradient-guided densification at intervals
  i >= knn_switch:            3D consistency loss switches from global to
                              direction-aware neighbor selection

Each iteration renders one training view (round robin), computes
L = L1 + alpha*L2d + beta*L3d, backpropagates, accumulates monitors, steps
Adam, then applies any scheduled row edit. A densifier returns the new cloud
and `kept`, the old rows that form its prefix; Adam keeps those rows'
moments, new rows start at zero, and DensifyStats restarts. The last
manifest view is held out for PSNR logging and never trained on.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .backward import PER_GAUSSIAN, ParamGrads, accumulate_monitors, backward
from .dataset import Dataset, infer_scene_bounds
from .igd import OPACITY_EPS, SPLIT_SCALE_DIV, igd_step, split_rows
from .laknn import loss_3d
from .metrics import psnr
from .render import render
from .rotation import quat_to_rot
from .scene import GaussianCloud, assign_groups, save_scene, write_atomic
from .semantic import ClassifierHead, loss_2d

OPACITY_LOGIT_CLIP = 1e-6  # opacity clamped into (0,1) before logit
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Adam's rate for positions is LR_POSITION_FRAC * scene extent; the other
# families use LEARNING_RATES. The geometry and colour rates and the densify
# thresholds are 3DGS's published settings (Kerbl et al. 2023).
LR_POSITION_FRAC = 1.6e-4
LEARNING_RATES = {"log_scales": 5e-3, "rotations": 1e-3, "logit_opacities": 5e-2,
                  "colors": 2.5e-3, "encodings": 2.5e-3,
                  "head_weights": 5e-4, "head_biases": 5e-4}
INIT_OPACITY = 0.1
ENCODING_DIM = 16         # identity-encoding width of a trained cloud
DENSIFY_GRAD_FRAC = 2e-4  # of scene extent, per visible iteration
PERCENT_DENSE = 0.01      # of scene extent: clone at or below, split above


@dataclass
class TrainSchedule:
    """Run configuration. Interval fields are iteration counts; *_end and
    knn_switch default to fixed fractions of total_iters when left None."""

    total_iters: int = 3000
    densify_end: int | None = None      # default 0.4 * T
    igd_end: int | None = None          # default 0.5 * T
    knn_switch: int | None = None       # default 0.4 * T
    densify_interval: int = 100
    igd_interval: int = 100
    alpha_2d: float = 1.0
    beta_3d: float = 2.0
    knn_k: int = 5
    knn_samples: int = 1000
    seed: int = 42
    init_count: int = 2000

    use_igd: bool = True
    use_laknn: bool = True              # False: global neighbors throughout

    checkpoint_interval: int = 500
    log_interval: int = 50

    def resolved(self) -> "TrainSchedule":
        s = TrainSchedule(**{f.name: getattr(self, f.name) for f in fields(self)})
        t = s.total_iters
        if s.densify_end is None:
            s.densify_end = int(round(0.4 * t))
        if s.igd_end is None:
            s.igd_end = int(round(0.5 * t))
        if s.knn_switch is None:
            s.knn_switch = int(round(0.4 * t))
        s.validate()
        # the trainer runs IGD at the multiples of igd_interval in this window
        if s.use_igd and t > 0 and not any(
                i % s.igd_interval == 0 for i in range(s.densify_end, s.igd_end)):
            warnings.warn(f"no multiple of igd_interval={s.igd_interval} lies in "
                          f"[densify_end, igd_end) = [{s.densify_end}, {s.igd_end}): "
                          "no IGD pass will run")
        return s

    def validate(self) -> None:
        if self.total_iters < 0:
            raise ValueError("total_iters must be >= 0")
        if self.total_iters > 0 and not (0 < self.densify_end <= self.igd_end <= self.total_iters):
            raise ValueError("need 0 < densify_end <= igd_end <= total_iters")
        if self.knn_switch is not None and self.knn_switch > self.total_iters:
            raise ValueError("knn_switch must be <= total_iters")
        if self.alpha_2d < 0 or self.beta_3d < 0:
            raise ValueError("loss weights must be >= 0")
        if self.densify_interval < 1 or self.igd_interval < 1:
            raise ValueError("densify_interval and igd_interval must be >= 1")


class AdamOptimizer:
    """Bias-corrected Adam over named parameter families.

    Per-Gaussian families follow the cloud's row edits through keep_rows.
    """

    def __init__(self, shapes: dict, lrs: dict, dtype):
        self.lrs = dict(lrs)
        self.m = {k: np.zeros(s, dtype=dtype) for k, s in shapes.items()}
        self.v = {k: np.zeros(s, dtype=dtype) for k, s in shapes.items()}
        self.t = {k: 0 for k in shapes}

    def step(self, params: dict, grads: dict) -> None:
        """Update params in place. Raises on NaN gradients, naming the family."""
        for name, g in grads.items():
            if name not in self.m:
                raise KeyError(f"unknown parameter family {name!r}")
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient in family {name!r}")
            p = params[name]
            if p.shape != g.shape or p.shape != self.m[name].shape:
                raise ValueError(f"shape mismatch in family {name!r}")
            self.t[name] += 1
            t = self.t[name]
            m, v = self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * (g * g)
            m_hat = m / (1 - ADAM_BETA1 ** t)
            v_hat = v / (1 - ADAM_BETA2 ** t)
            p -= self.lrs[name] * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def keep_rows(self, kept: np.ndarray, n: int) -> None:
        """Follow a row edit that made a cloud of n rows whose first
        len(kept) rows are the old rows `kept`: those keep their moments and
        the rows after them start at zero."""
        for name in PER_GAUSSIAN:
            if name in self.m:
                for moments in (self.m, self.v):
                    old = moments[name]
                    moments[name] = np.zeros((n,) + old.shape[1:], dtype=old.dtype)
                    moments[name][:kept.size] = old[kept]


class DensifyStats:
    """Accumulated positional-gradient norms and visible-iteration counts."""

    def __init__(self, n: int, dtype):
        self.grad_accum = np.zeros(n, dtype=dtype)
        self.denom = np.zeros(n, dtype=np.int64)

    def update(self, grads: ParamGrads) -> None:
        self.grad_accum += np.linalg.norm(grads.positions, axis=1)
        self.denom += grads.visible.astype(np.int64)

    def reset(self, n: int) -> None:
        self.grad_accum = np.zeros(n, dtype=self.grad_accum.dtype)
        self.denom = np.zeros(n, dtype=np.int64)


def l1_loss(rendered: np.ndarray, target: np.ndarray):
    """Mean absolute per-channel difference and its gradient w.r.t. rendered."""
    target = np.asarray(target, dtype=rendered.dtype)
    diff = rendered - target
    loss = float(np.abs(diff).mean())
    grad = np.sign(diff) / diff.size
    return loss, grad.astype(rendered.dtype)


def total_loss(cloud: GaussianCloud, cam, out, head: ClassifierHead,
               alpha: float, beta: float, knn_mode: str, knn_k: int,
               knn_samples: int, rng_seed):
    """Joint objective L1 + alpha*L2d + beta*L3d with all gradients.

    Returns (parts dict, ParamGrads, (head_w_grad, head_b_grad)). L3d treats
    the classifier head as a constant, so only L2d reaches the head.
    """
    l1, d_color = l1_loss(out.color, cam.image)
    l2d, d_ident, (hw2, hb2) = loss_2d(out.identity, cam.mask, head)
    l3d, ge3 = loss_3d(cloud, head, knn_samples, knn_k, knn_mode, rng_seed)
    pixel_grads = np.concatenate(
        [d_color, np.asarray(alpha, dtype=out.identity.dtype) * d_ident], axis=2)
    grads = backward(cloud, cam, out, pixel_grads)
    grads.encodings += beta * ge3
    parts = {"l1": l1, "l2d": l2d, "l3d": l3d,
             "total": l1 + alpha * l2d + beta * l3d}
    return parts, grads, (alpha * hw2, alpha * hb2)


def init_cloud(bbox: np.ndarray, count: int, dim: int, rng: np.random.Generator,
               dtype=np.float32) -> GaussianCloud:
    """Seed cloud: uniform positions in bbox, isotropic scales set to the mean
    nearest-neighbor distance, opacity INIT_OPACITY, gray color, small random
    encodings."""
    lo, hi = np.asarray(bbox[0]), np.asarray(bbox[1])
    pos = rng.uniform(lo, hi, size=(count, 3))
    # mean nearest-neighbor distance; each distance is recomputed from the
    # neighbour index so that it does not depend on the tree's arithmetic
    if count > 1:
        nearest = cKDTree(pos).query(pos, k=2)[1][:, 1]
        scale = float(np.mean(np.sqrt(((pos - pos[nearest]) ** 2).sum(-1))))
    else:
        scale = 0.1
    quat = np.zeros((count, 4))
    quat[:, 0] = 1.0
    return GaussianCloud(
        pos.astype(dtype),
        np.full((count, 3), scale, dtype=dtype),
        quat.astype(dtype),
        np.full(count, INIT_OPACITY, dtype=dtype),
        np.full((count, 3), 0.5, dtype=dtype),
        rng.normal(0.0, 0.01, size=(count, dim)).astype(dtype),
    )


def standard_densify(cloud: GaussianCloud, stats: DensifyStats, scene_extent: float,
                     rng: np.random.Generator) -> tuple[GaussianCloud, np.ndarray]:
    """Classic densification: prune rows with opacity below OPACITY_EPS, then
    clone small / split large Gaussians whose mean positional-gradient norm
    exceeds DENSIFY_GRAD_FRAC * scene_extent. Small means no scale component
    above PERCENT_DENSE * scene_extent.

    Returns (new cloud, kept). The new cloud is the rows `kept`, then the
    clones (which keep their source rows' monitors), then two children per
    split row, placed by samples of the parent Gaussian.
    """
    alive = cloud.opacities >= OPACITY_EPS
    hot = alive & (stats.grad_accum / np.maximum(stats.denom, 1)
                   > DENSIFY_GRAD_FRAC * scene_extent)
    small = cloud.scales.max(axis=1) <= PERCENT_DENSE * scene_extent
    split = hot & ~small
    kept = np.nonzero(alive & ~split)[0]
    clone_rows = np.nonzero(hot & small)[0]
    rows = np.nonzero(split)[0]

    k = rows.size
    samples = rng.normal(size=(2 * k, 3)).astype(cloud.dtype)
    local = samples.reshape(k, 2, 3) * cloud.scales[rows][:, None, :]
    world = np.einsum("kij,kcj->kci", quat_to_rot(cloud.rotations[rows]), local)
    children = split_rows(cloud, rows, world.reshape(2 * k, 3),
                          cloud.scales[rows] / cloud.dtype.type(SPLIT_SCALE_DIV))
    cloud = cloud.select(np.concatenate([kept, clone_rows])).append(children)
    return cloud, kept


@dataclass
class TrainResult:
    cloud: GaussianCloud
    head: ClassifierHead
    metrics_path: Path | None
    metrics_rows: list = field(default_factory=list)


def _cloud_params(cloud: GaussianCloud) -> dict:
    op = np.clip(cloud.opacities, OPACITY_LOGIT_CLIP, 1 - OPACITY_LOGIT_CLIP)
    return {
        "positions": cloud.positions,
        "log_scales": np.log(cloud.scales),
        "rotations": cloud.rotations,
        "logit_opacities": np.log(op / (1 - op)),
        "colors": cloud.colors,
        "encodings": cloud.encodings,
    }


def _write_back(cloud: GaussianCloud, params: dict) -> None:
    cloud.positions = params["positions"]
    cloud.scales = np.exp(params["log_scales"])
    q = params["rotations"]
    cloud.rotations = q / np.linalg.norm(q, axis=1, keepdims=True)
    cloud.opacities = 1.0 / (1.0 + np.exp(-params["logit_opacities"]))
    cloud.colors = np.clip(params["colors"], 0.0, 1.0)
    cloud.encodings = params["encodings"]


def train(dataset: Dataset, schedule: TrainSchedule, out_dir) -> TrainResult:
    """Optimize a fresh cloud + head against the dataset; write checkpoints,
    metrics.csv and final scene into out_dir."""
    sched = schedule.resolved()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if len(dataset.views) < 2:
        raise ValueError("need at least 2 views (one is held out)")
    train_views = dataset.views[:-1]
    holdout = dataset.views[-1]
    dt = np.float32

    rng = np.random.default_rng(sched.seed)
    bbox = dataset.scene_bbox
    if bbox is None:
        bbox = infer_scene_bounds(dataset.views)
    cloud = init_cloud(bbox, sched.init_count, ENCODING_DIM, rng, dtype=dt)
    head = ClassifierHead.zeros(dataset.num_classes, ENCODING_DIM, dtype=dt)
    scene_extent = cloud.scene_extent()
    lrs = dict(LEARNING_RATES, positions=LR_POSITION_FRAC * scene_extent)
    shapes = {name: p.shape for name, p in _cloud_params(cloud).items()}
    shapes.update(head_weights=head.weights.shape, head_biases=head.biases.shape)
    opt = AdamOptimizer(shapes, lrs, dt)
    stats = DensifyStats(cloud.n, dt)

    metrics_rows = []

    def log_metrics(it, parts):
        hold = render(cloud, holdout)
        p = psnr(np.clip(hold.color, 0.0, 1.0), holdout.image)
        metrics_rows.append((it, parts["l1"], parts["l2d"], parts["l3d"],
                             cloud.n, p))

    def checkpoint(it):
        snap = assign_groups(cloud, head)
        save_scene(snap, head, out_dir / f"ckpt_{it}.gseg")

    parts = {"l1": 0.0, "l2d": 0.0, "l3d": 0.0, "total": 0.0}
    for it in range(sched.total_iters):
        cam = train_views[it % len(train_views)]
        out = render(cloud, cam)
        knn_mode = ("local-adaptive" if (sched.use_laknn and it >= sched.knn_switch)
                    else "global")
        parts, grads, (hw, hb) = total_loss(
            cloud, cam, out, head, sched.alpha_2d, sched.beta_3d, knn_mode,
            sched.knn_k, min(sched.knn_samples, cloud.n), (sched.seed, it))
        if not np.isfinite(parts["total"]):
            raise FloatingPointError(f"training diverged at iteration {it}")

        accumulate_monitors(cloud, grads)
        stats.update(grads)

        params = dict(_cloud_params(cloud), head_weights=head.weights,
                      head_biases=head.biases)
        step = {name: getattr(grads, name) for name in PER_GAUSSIAN}
        opt.step(params, dict(step, head_weights=hw, head_biases=hb))
        _write_back(cloud, params)
        del out   # its fragment records are not held through the next render

        nxt = it + 1  # row edits take effect for the next iteration
        edit = None
        if nxt < sched.densify_end and nxt % sched.densify_interval == 0:
            edit = standard_densify(cloud, stats, scene_extent, rng)
        elif (sched.use_igd and sched.densify_end <= nxt < sched.igd_end
              and nxt % sched.igd_interval == 0):
            res = igd_step(cloud, scene_extent)
            edit = res.cloud, res.kept
        if edit is not None:
            cloud, kept = edit
            opt.keep_rows(kept, cloud.n)
            stats.reset(cloud.n)

        if nxt % sched.log_interval == 0 or nxt == sched.total_iters:
            log_metrics(nxt, parts)
        if sched.checkpoint_interval and nxt % sched.checkpoint_interval == 0:
            checkpoint(nxt)

    if sched.total_iters == 0:
        log_metrics(0, parts)

    cloud = assign_groups(cloud, head)
    save_scene(cloud, head, out_dir / "final.gseg")
    metrics_path = out_dir / "metrics.csv"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iter", "l1", "l2d", "l3d", "n_gaussians", "psnr_holdout"])
    for row in metrics_rows:
        writer.writerow([row[0], f"{row[1]:.9g}", f"{row[2]:.9g}", f"{row[3]:.9g}",
                         row[4], f"{row[5]:.9g}"])
    write_atomic(metrics_path, [buf.getvalue().encode()])
    return TrainResult(cloud=cloud, head=head, metrics_path=metrics_path,
                       metrics_rows=metrics_rows)
