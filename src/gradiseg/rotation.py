"""Quaternion helpers (w, x, y, z convention), vectorized over leading axes."""

from __future__ import annotations

import numpy as np


def quat_normalize(q: np.ndarray) -> np.ndarray:
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) from unit quaternions (..., 4).

    Inputs are normalized first, so the map is scale-invariant in q.
    """
    q = quat_normalize(np.asarray(q))
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3), dtype=q.dtype)
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - w * z)
    R[..., 0, 2] = 2 * (x * z + w * y)
    R[..., 1, 0] = 2 * (x * y + w * z)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - w * x)
    R[..., 2, 0] = 2 * (x * z - w * y)
    R[..., 2, 1] = 2 * (y * z + w * x)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def rot_grad_to_quat_grad(q_raw: np.ndarray, gR: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. R(q/|q|) back to the raw quaternion.

    q_raw: (..., 4) possibly non-unit quaternions as stored.
    gR:    (..., 3, 3) upstream gradient on the rotation matrix.
    Returns (..., 4). At |q| = 1 the result is tangent to the unit sphere.
    """
    q_raw = np.asarray(q_raw)
    norm = np.linalg.norm(q_raw, axis=-1, keepdims=True)
    q = q_raw / norm
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    g = gR.reshape(gR.shape[:-2] + (9,))
    # <gR, dR/dq_k> in closed form from the symmetric and antisymmetric
    # parts of gR's off-diagonal pairs
    a01, a02, a12 = g[..., 1] + g[..., 3], g[..., 2] + g[..., 6], g[..., 5] + g[..., 7]
    s01, s02, s12 = g[..., 3] - g[..., 1], g[..., 2] - g[..., 6], g[..., 7] - g[..., 5]
    g00, g11, g22 = g[..., 0], g[..., 4], g[..., 8]
    g_unit = np.empty(q.shape, dtype=np.result_type(q, gR))
    g_unit[..., 0] = 2 * (x * s12 + y * s02 + z * s01)
    g_unit[..., 1] = 2 * (y * a01 + z * a02 + w * s12) - 4 * x * (g11 + g22)
    g_unit[..., 2] = 2 * (x * a01 + z * a12 + w * s02) - 4 * y * (g00 + g22)
    g_unit[..., 3] = 2 * (x * a02 + y * a12 + w * s01) - 4 * z * (g00 + g11)
    # chain through q = q_raw / |q_raw|
    proj = g_unit - np.sum(g_unit * q, axis=-1, keepdims=True) * q
    return proj / norm
