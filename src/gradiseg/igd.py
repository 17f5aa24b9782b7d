"""Identity-gradient-guided densification.

Each pass over the cloud: prune near-transparent and oversized Gaussians,
find those whose mean accumulated identity-encoding gradient is anomalous
(above a percentile threshold), replace each with two children straddling the
inferred boundary, and reset the gradient monitors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rotation import quat_to_rot
from .scene import MONITORS, Gaussian, GaussianCloud


@dataclass
class IgdConfig:
    tau_percentile: float = 99.0     # anomaly threshold over mean monitor values
    opacity_eps: float = 0.005
    too_large_frac: float = 0.1      # of scene extent
    split_scale_div: float = 1.6
    split_offset_frac: float = 0.5   # of the largest scale component

    def __post_init__(self):
        if not (0 < self.tau_percentile < 100):
            raise ValueError("tau_percentile must be in (0, 100)")
        for name in ("opacity_eps", "too_large_frac", "split_scale_div",
                     "split_offset_frac"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class IgdResult:
    """The new cloud is `cloud` rows `kept` followed by 2 * n_split children."""

    cloud: GaussianCloud
    kept: np.ndarray
    n_pruned: int
    n_split: int
    threshold: float


def _split_axis(scale: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """World-space unit vector of the largest-scale principal axis.

    Equal scales tie-break to the lowest axis index.
    """
    axis = int(np.argmax(scale))
    return quat_to_rot(rotation.astype(np.float64))[:, axis]


def split_gaussian(g: Gaussian, cfg: IgdConfig) -> tuple[Gaussian, Gaussian]:
    """Split one Gaussian into two children on either side of the boundary.

    Children sit at p +- split_offset_frac * s_max * v, v the major principal
    axis, with all scale components divided by split_scale_div; rotation,
    opacity, color and identity encoding are copied. Degenerate scales
    (s_max < 1e-9) clone in place without offset or shrink.
    """
    s_max = float(np.max(g.scale))
    if s_max < 1e-9:
        return (Gaussian(g.position.copy(), g.scale.copy(), g.rotation.copy(),
                         g.opacity, g.color.copy(), g.encoding.copy()),
                Gaussian(g.position.copy(), g.scale.copy(), g.rotation.copy(),
                         g.opacity, g.color.copy(), g.encoding.copy()))
    v = _split_axis(g.scale, g.rotation)
    offset = (cfg.split_offset_frac * s_max * v).astype(g.position.dtype)
    new_scale = (g.scale / cfg.split_scale_div).astype(g.scale.dtype)
    mk = lambda p: Gaussian(p, new_scale.copy(), g.rotation.copy(), g.opacity,
                            g.color.copy(), g.encoding.copy())
    return mk(g.position + offset), mk(g.position - offset)


def split_rows(cloud: GaussianCloud, rows: np.ndarray, offsets: np.ndarray,
               scales: np.ndarray) -> GaussianCloud:
    """Two children per parent in `rows`, parent by parent.

    Child c of the i-th parent sits at the parent's position plus
    offsets[2i + c] with scales[i]; it copies the parent's other scene fields
    and starts with zero gradient monitors.
    """
    children = cloud.select(np.repeat(rows, 2))
    children.positions += offsets
    children.scales = np.repeat(scales, 2, axis=0)
    for name in MONITORS:
        getattr(children, name)[:] = 0
    return children


def igd_step(cloud: GaussianCloud, cfg: IgdConfig,
             scene_extent: float | None = None) -> IgdResult:
    """One densification pass: prune, split anomalous rows, reset monitors.

    Rows whose mean monitor (accumulated identity-gradient norm per visible
    iteration) exceeds the tau_percentile of the surviving visible rows are
    split along their major principal axis, as split_gaussian does.
    """
    if scene_extent is None:
        scene_extent = cloud.scene_extent()

    alive = ~((cloud.opacities < cfg.opacity_eps)
              | (cloud.scales.max(axis=1) > cfg.too_large_frac * scene_extent))
    m = cloud.id_grad_accum / np.maximum(cloud.visible_count, 1)
    seen = alive & (cloud.visible_count > 0)
    if seen.any():
        tau = float(np.percentile(m[seen], cfg.tau_percentile))
        split = alive & (m > tau)
    else:
        tau = 0.0
        split = np.zeros(cloud.n, dtype=bool)
    kept = np.nonzero(alive & ~split)[0]
    rows = np.nonzero(split)[0]

    dt = cloud.dtype
    s = cloud.scales[rows]
    s_max = s.max(axis=1)
    degenerate = s_max < 1e-9
    R = quat_to_rot(cloud.rotations[rows])
    v = R[np.arange(rows.size), :, np.argmax(s, axis=1)]
    offset = cfg.split_offset_frac * s_max[:, None] * v
    offset[degenerate] = 0.0
    new_scale = s / dt.type(cfg.split_scale_div)
    new_scale[degenerate] = s[degenerate]
    offsets = np.stack([offset, -offset], axis=1).reshape(-1, 3)

    cloud = cloud.select(kept).append(split_rows(cloud, rows, offsets, new_scale))
    cloud.reset_monitors()
    return IgdResult(cloud=cloud, kept=kept, n_pruned=int((~alive).sum()),
                     n_split=rows.size, threshold=tau)
