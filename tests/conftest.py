"""Shared test fixtures and independent reference implementations.

The reference renderer here is deliberately scalar and separate from the
engine: its own projection arithmetic, its own sort, its own per-pixel
compositing loop. Engine outputs are validated against it.
"""

import errno

import numpy as np
import pytest

from gradiseg.camera import CameraView, look_at
from gradiseg.scene import GaussianCloud


def random_cloud(rng, n, dim=8, dtype=np.float64, z_range=(-0.4, 0.4),
                 opacity_range=(0.1, 0.85), scale_range=(0.05, 0.35)):
    pos = rng.uniform(-0.6, 0.6, (n, 3))
    pos[:, 2] = rng.uniform(*z_range, n)
    scales = rng.uniform(*scale_range, (n, 3))
    quats = rng.standard_normal((n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    op = rng.uniform(*opacity_range, n)
    col = rng.uniform(0.05, 0.95, (n, 3))
    enc = rng.standard_normal((n, dim)) * 0.5
    return GaussianCloud(pos.astype(dtype), scales.astype(dtype),
                         quats.astype(dtype), op.astype(dtype),
                         col.astype(dtype), enc.astype(dtype))


def make_camera(width=32, height=32, distance=3.0, fov_scale=1.0):
    focal = fov_scale * width * 1.2
    return CameraView(look_at((0.0, 0.0, -distance), (0.0, 0.0, 0.0)),
                      fx=focal, fy=focal, cx=width / 2.0, cy=height / 2.0,
                      width=width, height=height)


def quat_rotation_ref(q):
    """Independent quaternion -> rotation matrix (scalar formula)."""
    w, x, y, z = (float(v) for v in q / np.linalg.norm(q))
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


# the rasterizer's constants, written out rather than read from the engine
ALPHA_CLAMP, ALPHA_CUTOFF, CULL_SIGMA, T_STOP = 0.99, 1.0 / 255.0, 3.0, 1e-5
NEAR_PLANE, COV_DILATION = 0.01, 0.3
# the least relative cutoff margin (cutoff_margins) of a finite-difference scene
CUTOFF_MARGIN = 1e-3


def reference_splats(cloud, cam):
    """Every Gaussian in front of the near plane as (depth, source index,
    screen mean, cov2d), sorted by (depth, index); scalar math throughout."""
    R_cw = cam.world_to_camera[:3, :3]
    t_cw = cam.world_to_camera[:3, 3]
    splats = []
    for i in range(cloud.n):
        t = R_cw @ cloud.positions[i].astype(np.float64) + t_cw
        if t[2] <= NEAR_PLANE:
            continue
        if cam.mode == "pinhole":
            mean = np.array([cam.fx * t[0] / t[2] + cam.cx,
                             cam.fy * t[1] / t[2] + cam.cy])
            J = np.array([[cam.fx / t[2], 0.0, -cam.fx * t[0] / t[2] ** 2],
                          [0.0, cam.fy / t[2], -cam.fy * t[1] / t[2] ** 2]])
        else:
            mean = np.array([cam.fx * t[0] + cam.cx, cam.fy * t[1] + cam.cy])
            J = np.array([[cam.fx, 0.0, 0.0], [0.0, cam.fy, 0.0]])
        Rg = quat_rotation_ref(cloud.rotations[i].astype(np.float64))
        S = np.diag(cloud.scales[i].astype(np.float64))
        cov3 = Rg @ S @ S @ Rg.T
        A = J @ R_cw
        splats.append((float(t[2]), i, mean, A @ cov3 @ A.T + COV_DILATION * np.eye(2)))
    splats.sort(key=lambda s: (s[0], s[1]))
    return splats


def reference_render(cloud, cam):
    """Naive sequential per-pixel compositing, scalar math throughout; a
    pixel's loop breaks once its transmittance falls below 1e-5.

    Returns (color, identity, final_transmittance, per_pixel_fragments) where
    per_pixel_fragments[y][x] is a list of (source, alpha, t_before).
    """
    h, w = cam.height, cam.width
    splats = []
    for depth, i, mean, cov2 in reference_splats(cloud, cam):
        r = CULL_SIGMA * np.sqrt(np.linalg.eigvalsh(cov2).max())
        if (mean[0] + r < 0 or mean[0] - r > w - 1
                or mean[1] + r < 0 or mean[1] - r > h - 1):
            continue
        splats.append((depth, i, mean, np.linalg.inv(cov2)))

    color = np.zeros((h, w, 3))
    ident = np.zeros((h, w, cloud.dim))
    t_final = np.ones((h, w))
    frags = [[[] for _ in range(w)] for _ in range(h)]
    for y in range(h):
        for x in range(w):
            T = 1.0
            px = np.array([float(x), float(y)])
            for depth, i, mean, icov in splats:
                if T < T_STOP:
                    break
                d = px - mean
                q = float(d @ icov @ d)
                alpha = min(ALPHA_CLAMP,
                            float(cloud.opacities[i]) * np.exp(-0.5 * q))
                if alpha < ALPHA_CUTOFF or q > CULL_SIGMA ** 2:
                    continue
                frags[y][x].append((i, alpha, T))
                wgt = alpha * T
                color[y, x] += wgt * cloud.colors[i].astype(np.float64)
                ident[y, x] += wgt * cloud.encodings[i].astype(np.float64)
                T *= 1.0 - alpha
            t_final[y, x] = T
    return color, ident, t_final, frags


def cutoff_margins(cloud, cam):
    """The smallest relative distance to each of the rasterizer's thresholds,
    from the reference projection: over every (Gaussian, pixel) pair, q to
    CULL_SIGMA**2 ("q"), alpha before the clamp to ALPHA_CUTOFF ("cutoff")
    and ALPHA_CLAMP ("clamp"), and each fragment's t_before to T_STOP
    ("stop"); over Gaussians, camera depth to NEAR_PLANE ("near") and to the
    nearest other depth in front of it ("tie"). A finite-difference step that
    moves no value by that much sees a render without a jump."""
    z = cloud.positions.astype(np.float64) @ cam.rotation[2] + cam.translation[2]
    splats = [(depth, i, mean, np.linalg.inv(cov2))
              for depth, i, mean, cov2 in reference_splats(cloud, cam)]
    depths = [s[0] for s in splats]
    m = dict(q=np.inf, cutoff=np.inf, clamp=np.inf, stop=np.inf,
             near=np.abs(z - NEAR_PLANE).min(initial=np.inf) / NEAR_PLANE,
             tie=min(((b - a) / b for a, b in zip(depths, depths[1:])), default=np.inf))
    sig2 = CULL_SIGMA ** 2
    for y in range(cam.height):
        for x in range(cam.width):
            T = 1.0
            for _, i, mean, icov in splats:
                d = np.array([float(x), float(y)]) - mean
                q = float(d @ icov @ d)
                alpha = float(cloud.opacities[i]) * np.exp(-0.5 * q)
                m["q"] = min(m["q"], abs(q - sig2) / sig2)
                m["cutoff"] = min(m["cutoff"], abs(alpha - ALPHA_CUTOFF) / ALPHA_CUTOFF)
                m["clamp"] = min(m["clamp"], abs(alpha - ALPHA_CLAMP) / ALPHA_CLAMP)
                if alpha < ALPHA_CUTOFF or q > sig2:
                    continue
                m["stop"] = min(m["stop"], abs(T - T_STOP) / T_STOP)
                T *= 1.0 - min(alpha, ALPHA_CLAMP)
    return m


class HalfWrite:
    """A file opened for writing whose first write stores half its bytes and
    then fails, as on a full disk."""

    def __init__(self, path, mode):
        self.file = open(path, mode)

    def write(self, data):
        self.file.write(bytes(data)[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
