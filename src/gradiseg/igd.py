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

OPACITY_EPS = 0.005       # rows below this opacity are pruned
TAU_PERCENTILE = 99.0     # anomaly threshold over mean monitor values
TOO_LARGE_FRAC = 0.1      # of scene extent
SPLIT_SCALE_DIV = 1.6
SPLIT_OFFSET_FRAC = 0.5   # of the largest scale component


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


def igd_step(cloud: GaussianCloud, scene_extent: float) -> IgdResult:
    """One densification pass: prune, split anomalous rows, reset monitors.

    Rows with opacity below OPACITY_EPS or a scale component above
    TOO_LARGE_FRAC * scene_extent are pruned. Rows whose mean monitor
    (accumulated identity-gradient norm per visible iteration) exceeds the
    TAU_PERCENTILE of the surviving visible rows are split in two. The
    children sit at p +- SPLIT_OFFSET_FRAC * s_max * v, v the world-space
    axis of the largest scale component (ties to the lowest axis), with every
    scale component divided by SPLIT_SCALE_DIV. A row with s_max < 1e-9 gives
    two unshrunk copies at p.
    """
    alive = ~((cloud.opacities < OPACITY_EPS)
              | (cloud.scales.max(axis=1) > TOO_LARGE_FRAC * scene_extent))
    m = cloud.id_grad_accum / np.maximum(cloud.visible_count, 1)
    seen = alive & (cloud.visible_count > 0)
    if seen.any():
        tau = float(np.percentile(m[seen], TAU_PERCENTILE))
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
    offset = SPLIT_OFFSET_FRAC * s_max[:, None] * v
    offset[degenerate] = 0.0
    new_scale = s / dt.type(SPLIT_SCALE_DIV)
    new_scale[degenerate] = s[degenerate]
    offsets = np.stack([offset, -offset], axis=1).reshape(-1, 3)

    cloud = cloud.select(kept).append(split_rows(cloud, rows, offsets, new_scale))
    cloud.reset_monitors()
    return IgdResult(cloud=cloud, kept=kept, n_pruned=int((~alive).sum()),
                     n_split=rows.size, threshold=tau)
