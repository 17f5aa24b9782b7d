"""Camera models and projection of 3D Gaussians to screen-space 2D Gaussians.

Conventions: world_to_camera is a rigid 4x4 transform, camera looks down +z,
pixel (x, y) samples at integer coordinates with u = fx*tx/tz + cx (pinhole)
or u = fx*tx + cx (orthographic). Depth is camera-space z.

The rasterizer's cutoffs are the constants of 3DGS: supports are truncated
at CULL_SIGMA standard deviations and fragments with alpha below
ALPHA_CUTOFF are dropped, so a splat that could make no fragment in the
image is culled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rotation import quat_to_rot
from .scene import GaussianCloud

NEAR_PLANE = 0.01
COV_DILATION = 0.3   # px^2 added to the cov2d diagonal (anti-aliasing floor)
CULL_SIGMA = 3.0     # support truncation radius, in standard deviations
ALPHA_CUTOFF = 1.0 / 255.0   # fragments with a smaller alpha are dropped


@dataclass
class CameraView:
    """Pinhole or orthographic camera with pose, optionally paired with a
    target image (H, W, 3) and an instance mask (H, W)."""

    world_to_camera: np.ndarray
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    mode: str = "pinhole"
    image: np.ndarray | None = None
    mask: np.ndarray | None = None

    def __post_init__(self):
        self.world_to_camera = np.asarray(self.world_to_camera, dtype=np.float64).reshape(4, 4)
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy]).all():
            raise ValueError("intrinsics fx, fy, cx and cy must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not np.isfinite(self.world_to_camera).all():
            raise ValueError("world_to_camera must be finite")
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        if self.width * self.height >= 2 ** 31:
            raise ValueError("image must have fewer than 2**31 pixels (int32 pixel index)")
        if self.mode not in ("pinhole", "orthographic"):
            raise ValueError(f"unknown camera mode {self.mode!r}")
        R = self.world_to_camera[:3, :3]
        if np.max(np.abs(R @ R.T - np.eye(3))) > 1e-5:
            raise ValueError("rotation block of world_to_camera is not orthonormal")

    @property
    def rotation(self) -> np.ndarray:
        return self.world_to_camera[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.world_to_camera[:3, 3]

    def camera_center(self) -> np.ndarray:
        return -self.rotation.T @ self.translation


def look_at(position, target, up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """world_to_camera for a camera at `position` looking toward `target`.

    Camera axes: x right, y down, z forward (right-handed).
    """
    position = np.asarray(position, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - position
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("camera position coincides with target")
    z = forward / norm
    up = np.asarray(up, dtype=np.float64)
    x = np.cross(z, up)
    # guard against forward parallel to up
    if np.linalg.norm(x) < 1e-9:
        x = np.cross(z, np.array([0.0, 1.0, 0.0]))
    x /= np.linalg.norm(x)
    y = np.cross(z, x)  # image y points away from `up`
    w2c = np.eye(4)
    w2c[0, :3], w2c[1, :3], w2c[2, :3] = x, y, z
    w2c[:3, 3] = -w2c[:3, :3] @ position
    return w2c


class ProjectedSplats:
    """Screen-space Gaussians for one camera, depth-ordered: source index,
    screen mean, covariance and its inverse, depth, camera-space centre and
    pixel bbox. backward recomputes the rest of the geometry (ewa_factors)."""

    __slots__ = ("index", "mean2d", "cov2d", "inv_cov", "depth", "t_cam",
                 "bbox", "n_source")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    @property
    def count(self) -> int:
        return self.index.shape[0]


def ewa_factors(cam: CameraView, t: np.ndarray, rotations: np.ndarray,
                scales: np.ndarray):
    """The per-splat EWA geometry at camera-space centres t (n, 3), written
    component by component: the projection Jacobian's non-zero entries
    (j00, j02, j11, j12) as (n,) arrays, and A = J R_cw, M = R(q) diag(s)
    and B = A M component-major, as (2, 3, n), (3, 3, n) and (2, 3, n)
    arrays, so Sigma2 = B B^T. A centre at or behind NEAR_PLANE gets a zero
    pinhole Jacobian."""
    dt = t.dtype
    fx, fy = dt.type(cam.fx), dt.type(cam.fy)
    if cam.mode == "pinhole":
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_z = np.where(t[:, 2] > NEAR_PLANE, 1.0 / t[:, 2], 0.0)
        jac = (fx * inv_z, -fx * t[:, 0] * inv_z ** 2,
               fy * inv_z, -fy * t[:, 1] * inv_z ** 2)
    else:
        zero = np.zeros(t.shape[0], dtype=dt)
        jac = (zero + fx, zero, zero + fy, zero)
    Rcw = cam.rotation.astype(dt)[:, :, None]
    A = np.stack([jac[0] * Rcw[0] + jac[1] * Rcw[2], jac[2] * Rcw[1] + jac[3] * Rcw[2]])
    M = np.multiply(quat_to_rot(rotations).transpose(1, 2, 0), scales.T, order="C")
    B = A[:, 0, None] * M[0] + A[:, 1, None] * M[1] + A[:, 2, None] * M[2]
    return jac, A, M, B


def project_cloud(cloud: GaussianCloud, cam: CameraView) -> ProjectedSplats:
    """Project every Gaussian, cull, and depth-sort (ties by source index).

    The screen covariance is B B^T from ewa_factors, plus COV_DILATION on
    its diagonal. Each splat's candidate bbox reaches as far as its alpha
    can still reach ALPHA_CUTOFF (opacity-dependent, at most CULL_SIGMA
    standard deviations), clipped to the image. Culling removes Gaussians
    with depth <= NEAR_PLANE and those whose bbox misses the image: they
    could make no fragment. No factor of the covariance is kept: backward
    recomputes them with ewa_factors.
    """
    dt = cloud.dtype
    n = cloud.n
    Rcw = cam.rotation.astype(dt)
    tcw = cam.translation.astype(dt)
    cx, cy = dt.type(cam.cx), dt.type(cam.cy)

    t = cloud.positions @ Rcw.T + tcw  # camera-space centers
    depth = t[:, 2]
    alive = depth > NEAR_PLANE

    jac, _, _, B = ewa_factors(cam, t, cloud.rotations, cloud.scales)
    mean2d = np.stack([jac[0] * t[:, 0] + cx, jac[2] * t[:, 1] + cy], axis=1)
    cov2d = np.empty((n, 2, 2), dtype=dt)
    cov2d[:, 0, 0] = (B[0] * B[0]).sum(axis=0) + COV_DILATION
    cov2d[:, 0, 1] = cov2d[:, 1, 0] = (B[0] * B[1]).sum(axis=0)
    cov2d[:, 1, 1] = (B[1] * B[1]).sum(axis=0) + COV_DILATION

    # the largest screen standard deviation; the bbox reaches as many of
    # them as alpha >= ALPHA_CUTOFF allows, at most CULL_SIGMA
    a, b, c = cov2d[:, 0, 0], cov2d[:, 0, 1], cov2d[:, 1, 1]
    mid = 0.5 * (a + c)
    disc = np.sqrt(np.maximum(mid * mid - (a * c - b * b), 0.0))
    sqrt_lam = np.sqrt(np.maximum(mid + disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        q_max = 2.0 * np.log(np.maximum(cloud.opacities / ALPHA_CUTOFF,
                                        1e-30)) + 1e-4
    radius = np.sqrt(np.clip(q_max, 0.0, CULL_SIGMA * CULL_SIGMA)) * sqrt_lam
    x0 = np.maximum(np.ceil(mean2d[:, 0] - radius), 0)
    x1 = np.minimum(np.floor(mean2d[:, 0] + radius), cam.width - 1)
    y0 = np.maximum(np.ceil(mean2d[:, 1] - radius), 0)
    y1 = np.minimum(np.floor(mean2d[:, 1] + radius), cam.height - 1)
    alive &= (x0 <= x1) & (y0 <= y1)

    idx = np.nonzero(alive)[0]
    order = np.lexsort((idx, depth[idx]))  # ascending depth, ties by index
    idx = idx[order]

    take = lambda a: np.take(a, idx, axis=0)
    cov_sel = take(cov2d)
    det = cov_sel[:, 0, 0] * cov_sel[:, 1, 1] - cov_sel[:, 0, 1] ** 2
    if np.any(det <= 0):
        raise FloatingPointError("singular projected covariance")
    inv = np.empty_like(cov_sel)
    inv[:, 0, 0] = cov_sel[:, 1, 1] / det
    inv[:, 1, 1] = cov_sel[:, 0, 0] / det
    inv[:, 0, 1] = inv[:, 1, 0] = -cov_sel[:, 0, 1] / det

    bbox = np.stack([take(x0), take(x1), take(y0), take(y1)], axis=1).astype(np.int64)
    return ProjectedSplats(
        index=idx.astype(np.int32), mean2d=take(mean2d), cov2d=cov_sel, inv_cov=inv,
        depth=take(depth), t_cam=take(t), bbox=bbox, n_source=n,
    )
