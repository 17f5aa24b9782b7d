"""Reverse-mode gradients of the rasterizer, hand-derived for this pipeline.

Given upstream per-pixel gradients dL/dC (3 channels) and dL/dE_id (D
channels), propagates through the compositing weights w_i = alpha_i *
prod_{j<i}(1 - alpha_j), the Gaussian falloff, the EWA covariance projection
and the perspective Jacobian, down to every Gaussian parameter in its
optimizer coordinates (log-scale, logit-opacity, tangent-projected raw
quaternion) plus the monitor quantities consumed by densification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraView
from .render import ALPHA_CLAMP, RenderOutput
from .rotation import rot_grad_to_quat_grad
from .scene import GaussianCloud


@dataclass
class ParamGrads:
    """Per-Gaussian gradients (optimizer coordinates) and per-Gaussian visibility."""

    positions: np.ndarray        # (N, 3)
    log_scales: np.ndarray       # (N, 3)
    rotations: np.ndarray        # (N, 4) tangent-projected
    logit_opacities: np.ndarray  # (N,)
    colors: np.ndarray           # (N, 3)
    encodings: np.ndarray        # (N, D)
    visible: np.ndarray          # (N,) bool: produced >= 1 fragment

    _FIELDS = ("positions", "log_scales", "rotations", "logit_opacities",
               "colors", "encodings")

    @classmethod
    def zeros(cls, n: int, d: int, dtype) -> "ParamGrads":
        return cls(np.zeros((n, 3), dtype=dtype), np.zeros((n, 3), dtype=dtype),
                   np.zeros((n, 4), dtype=dtype), np.zeros(n, dtype=dtype),
                   np.zeros((n, 3), dtype=dtype), np.zeros((n, d), dtype=dtype),
                   np.zeros(n, dtype=bool))


def _segment_suffix_sum(values: np.ndarray, frag_start: np.ndarray,
                        seg_of_frag: np.ndarray) -> np.ndarray:
    """Per-fragment sum of the values strictly after it within its pixel segment.

    values: (F,); frag_start: CSR offsets (P+1,); seg_of_frag: segment id per
    fragment.
    """
    if values.shape[0] == 0:
        return np.zeros_like(values)
    incl = np.cumsum(values, axis=0)
    start_idx = frag_start[:-1][seg_of_frag]
    base = np.zeros_like(values)
    has_prev = start_idx > 0
    base[has_prev] = incl[start_idx[has_prev] - 1]
    prefix_incl = incl - base
    end_idx = frag_start[1:][seg_of_frag] - 1
    totals = incl[end_idx] - base
    return totals - prefix_incl


def backward(cloud: GaussianCloud, cam: CameraView, out: RenderOutput,
             pixel_grads: np.ndarray) -> ParamGrads:
    """Exact gradients of sum(pixel_grads * [C, E_id]) w.r.t. all Gaussian params.

    pixel_grads: (H, W, 3 + D) holding dL/dC and dL/dE_id. `out` must come from
    render() on the same cloud and camera; culled or invisible Gaussians get
    exactly zero gradients.
    """
    dt = cloud.dtype
    n, d_feat = cloud.n, cloud.dim
    h, w = out.shape
    if (h, w) != (cam.height, cam.width):
        raise ValueError("render output does not match camera dimensions")
    if out.splats.n_source != n:
        raise ValueError("render output does not match cloud size")
    pixel_grads = np.asarray(pixel_grads, dtype=dt)
    if pixel_grads.shape != (h, w, 3 + d_feat):
        raise ValueError(f"pixel_grads must have shape {(h, w, 3 + d_feat)}")

    grads = ParamGrads.zeros(n, d_feat, dt)
    F = out.frag_source.shape[0]
    if F == 0:
        return grads
    grads.visible[np.unique(out.frag_source)] = True

    splats = out.splats
    dC = pixel_grads[..., :3].reshape(-1, 3)
    dE = pixel_grads[..., 3:].reshape(-1, d_feat)

    frag_pix = np.repeat(np.arange(h * w), np.diff(out.frag_start))
    src = out.frag_source
    srow = out.frag_splat
    alpha = out.frag_alpha
    t_before = out.frag_t_before
    weight = alpha * t_before

    c_src = cloud.colors[src]
    e_src = cloud.encodings[src]

    # alpha gradient: dL/da_k = <dC, c_k*T_k - B_k/(1-a_k)> + <dE, e_k*T_k - Be_k/(1-a_k)>
    # with B_k = sum_{i>k} w_i c_i + T_final*bg and Be_k = sum_{i>k} w_i e_i.
    # dC/dE are constant within a pixel, so the suffix dot products reduce to
    # scalar suffix sums of per-fragment dotted contributions.
    dot_c = np.einsum("fk,fk->f", dC[frag_pix], c_src)
    dot_e = np.einsum("fk,fk->f", dE[frag_pix], e_src)
    suffix_c = _segment_suffix_sum(weight * dot_c, out.frag_start, frag_pix)
    suffix_e = _segment_suffix_sum(weight * dot_e, out.frag_start, frag_pix)
    t_final_flat = out.final_transmittance.reshape(-1)
    bg_dot = dC @ out.background  # per-pixel <dC, bg>
    B = suffix_c + t_final_flat[frag_pix] * bg_dot[frag_pix]
    one_minus = 1.0 - alpha
    g_alpha = (dot_c + dot_e) * t_before - (B + suffix_e) / one_minus

    # alpha = min(ALPHA_CLAMP, o * G); clamped fragments pass no gradient
    o_src = cloud.opacities[src]
    pix_xy = np.stack([frag_pix % w, frag_pix // w], axis=1).astype(dt)
    dvec = pix_xy - splats.mean2d[srow]
    ic = splats.inv_cov[srow]
    pd0 = ic[:, 0, 0] * dvec[:, 0] + ic[:, 0, 1] * dvec[:, 1]
    pd1 = ic[:, 1, 0] * dvec[:, 0] + ic[:, 1, 1] * dvec[:, 1]
    q = pd0 * dvec[:, 0] + pd1 * dvec[:, 1]
    g_val = np.exp(-0.5 * q)
    unclamped = (o_src * g_val) < ALPHA_CLAMP
    g_pre = np.where(unclamped, g_alpha, dt.type(0.0))
    coef = g_pre * o_src * g_val
    half = 0.5 * coef

    # direct linear terms: dL/dc = w * dL/dC, dL/de = w * dL/dE
    gc_frag = weight[:, None] * dC[frag_pix]
    ge_frag = weight[:, None] * dE[frag_pix]
    for j in range(3):
        grads.colors[:, j] = np.bincount(src, weights=gc_frag[:, j], minlength=n)
    for j in range(d_feat):
        grads.encodings[:, j] = np.bincount(src, weights=ge_frag[:, j], minlength=n)
    grads.logit_opacities[:] = np.bincount(
        src, weights=g_pre * g_val * o_src * (1.0 - o_src), minlength=n)

    # dG/dmu = G * (P d); dG/dSigma2 = (G/2) * (P d)(P d)^T
    S = splats.count
    gmu = np.empty((S, 2), dtype=dt)
    gmu[:, 0] = np.bincount(srow, weights=coef * pd0, minlength=S)
    gmu[:, 1] = np.bincount(srow, weights=coef * pd1, minlength=S)
    gcov = np.empty((S, 2, 2), dtype=dt)
    gcov[:, 0, 0] = np.bincount(srow, weights=half * pd0 * pd0, minlength=S)
    gcov[:, 0, 1] = np.bincount(srow, weights=half * pd0 * pd1, minlength=S)
    gcov[:, 1, 0] = gcov[:, 0, 1]
    gcov[:, 1, 1] = np.bincount(srow, weights=half * pd1 * pd1, minlength=S)

    # geometry chain per splat
    A = splats.A                  # (S, 2, 3) = J @ R_cw
    cov3d = splats.cov3d          # world covariance
    gA = 2.0 * (gcov @ A @ cov3d)
    gX = np.swapaxes(A, 1, 2) @ gcov @ A   # dL/dSigma3_world

    Rcw = cam.rotation.astype(dt)
    gJ = gA @ Rcw.T
    gt = np.einsum("sij,si->sj", splats.J, gmu)  # J^T gmu, projection path

    if cam.mode == "pinhole":
        fx, fy = dt.type(cam.fx), dt.type(cam.fy)
        t_cam = splats.t_cam
        inv_z = 1.0 / t_cam[:, 2]
        inv_z2 = inv_z * inv_z
        gt[:, 0] += gJ[:, 0, 2] * (-fx * inv_z2)
        gt[:, 1] += gJ[:, 1, 2] * (-fy * inv_z2)
        gt[:, 2] += (gJ[:, 0, 0] * (-fx * inv_z2)
                     + gJ[:, 1, 1] * (-fy * inv_z2)
                     + gJ[:, 0, 2] * (2 * fx * t_cam[:, 0] * inv_z2 * inv_z)
                     + gJ[:, 1, 2] * (2 * fy * t_cam[:, 1] * inv_z2 * inv_z))

    gp = gt @ Rcw  # dL/dp = R_cw^T dL/dt

    # Sigma3 = M M^T with M = R diag(s)
    R = splats.R
    s = splats.scales
    M = R * s[:, None, :]
    gM = 2.0 * (gX @ M)
    gs = np.einsum("sij,sij->sj", gM, R)
    gR = gM * s[:, None, :]
    gq = rot_grad_to_quat_grad(cloud.rotations[splats.index], gR)

    idx = splats.index  # unique rows: plain indexed assignment
    grads.positions[idx] = gp
    grads.log_scales[idx] = gs * s
    grads.rotations[idx] = gq
    return grads


def accumulate_monitors(cloud: GaussianCloud, grads: ParamGrads) -> None:
    """Update the per-Gaussian monitors after one backward pass.

    id_grad_accum_i += ||dL/de_i||_2; visible_count increments where the
    Gaussian produced at least one fragment; pos_grad_ema <- 0.9 ema + 0.1 dL/dp.
    """
    cloud.id_grad_accum += np.linalg.norm(grads.encodings, axis=1)
    cloud.visible_count += grads.visible.astype(np.int64)
    cloud.pos_grad_ema *= 0.9
    cloud.pos_grad_ema += 0.1 * grads.positions
