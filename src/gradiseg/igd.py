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
from .scene import MONITORS, GaussianCloud


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
    split in two. The children sit at p +- split_offset_frac * s_max * v, v
    the world-space axis of the largest scale component (ties to the lowest
    axis), with every scale component divided by split_scale_div. A row with
    s_max < 1e-9 gives two unshrunk copies at p.
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
