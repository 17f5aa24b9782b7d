"""Reverse-mode gradients of the rasterizer, hand-derived for this pipeline.

Only colour reaches the geometry. The forward pass blends colours through the
sparse operator W of RenderOutput.weights, C = W @ c; given the upstream
gradient G = dL/dC, the colour gradients are W.T @ G, and the encoding
gradients are left at zero (trainer.total_loss gives the identity losses'
W.T product to the encodings alone). The alpha gradient follows the
compositing weights w_i = alpha_i * prod_{j<i}(1 - alpha_j) from one
per-fragment dot <G, c> and its suffix sums within each pixel, formed in
blocks of whole pixels of about render.BLOCK fragments. Below the clamp
render's alpha is exactly o * exp(-q/2), q = d^T P d, so the falloff is not
recomputed: with coef = dL/dalpha * alpha on unclamped fragments, six
per-splat sums of coef * [1, dx, dy, dx^2, dx dy, dy^2] give the opacity,
screen-mean and screen-covariance gradients. These flow per splat through the
EWA covariance projection and the perspective Jacobian, written entry by
entry on camera.ewa_factors recomputed for the kept rows, down to every
Gaussian parameter in its optimizer coordinates (log-scale, logit-opacity,
tangent-projected raw quaternion). backward also reports per-Gaussian
visibility, which densification counts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .camera import CameraView, ewa_factors
from .render import ALPHA_CLAMP, RenderOutput, _blocks
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

    @classmethod
    def zeros(cls, n: int, d: int, dtype) -> "ParamGrads":
        return cls(np.zeros((n, 3), dtype=dtype), np.zeros((n, 3), dtype=dtype),
                   np.zeros((n, 4), dtype=dtype), np.zeros(n, dtype=dtype),
                   np.zeros((n, 3), dtype=dtype), np.zeros((n, d), dtype=dtype),
                   np.zeros(n, dtype=bool))


# the per-Gaussian parameter families, in optimizer coordinates
PER_GAUSSIAN = tuple(f.name for f in fields(ParamGrads) if f.name != "visible")


def _segment_suffix_sum(values: np.ndarray, frag_start: np.ndarray) -> np.ndarray:
    """Per-fragment sum of the values strictly after it within its pixel segment:
    the running sum at the segment's last fragment minus the running sum here.
    The running sum spans the whole image, so it is kept in float64: in
    float32 a pixel's suffix would cancel against totals far larger than it.

    values: (F,) with F >= 1; frag_start: CSR offsets (P+1,).
    """
    incl = np.cumsum(values, dtype=np.float64)
    # an empty segment's end index may be -1: it is repeated zero times
    suffix = np.repeat(incl[frag_start[1:] - 1], np.diff(frag_start)) - incl
    return suffix.astype(values.dtype, copy=False)


def backward(cloud: GaussianCloud, cam: CameraView, out: RenderOutput,
             color_grads: np.ndarray) -> ParamGrads:
    """Exact gradients of sum(color_grads * C) w.r.t. all Gaussian params.

    color_grads: (H, W, 3) holding dL/dC. `out` must come from render() on the
    same cloud and camera; culled or invisible Gaussians get exactly zero
    gradients, and the encoding gradients are zero. Of the projection it
    reads each splat's index, screen mean, inverse covariance and
    camera-space centre; the rest of the EWA geometry is recomputed from the
    cloud's rotations and scales.
    """
    dt = cloud.dtype
    n = cloud.n
    h, w = out.shape
    if (h, w) != (cam.height, cam.width):
        raise ValueError("render output does not match camera dimensions")
    if out.splats.n_source != n:
        raise ValueError("render output does not match cloud size")
    color_grads = np.asarray(color_grads, dtype=dt)
    if color_grads.shape != (h, w, 3):
        raise ValueError(f"color_grads must have shape {(h, w, 3)}")

    grads = ParamGrads.zeros(n, cloud.dim, dt)
    if out.frag_source.size == 0:
        return grads

    splats = out.splats
    S = splats.count
    srow = out.frag_splat.astype(np.intp)   # six bincounts and two gathers
    has_frag = np.zeros(S, dtype=bool)
    has_frag[srow] = True
    grads.visible[splats.index[has_frag]] = True

    G = color_grads.reshape(h * w, 3)
    grads.colors[:] = out.weights.T @ G   # dL/dc = W^T G

    frag_start, counts = out.frag_start, np.diff(out.frag_start)
    alpha, t_before = out.frag_alpha, out.frag_t_before

    # alpha gradient: dL/da_k = <G, c_k> T_k - <G, B_k> / (1 - a_k) with
    # B_k = sum_{i>k} w_i c_i. G is constant within a pixel, so the suffix
    # dot product is a scalar suffix sum of per-fragment dots. The dots are
    # formed in blocks of whole pixels, so no (F, 3) gather exists; each
    # row's einsum reads that row alone, so no dot depends on the blocks.
    dot = np.empty_like(alpha)
    for p0, p1 in _blocks(frag_start[:-1], alpha.size):
        f0, f1 = frag_start[p0], frag_start[p1]
        src = out.frag_source[f0:f1].astype(np.intp)
        np.einsum("fk,fk->f", np.repeat(G[p0:p1], counts[p0:p1], axis=0),
                  np.take(cloud.colors, src, axis=0), out=dot[f0:f1])
    suffix = _segment_suffix_sum(alpha * t_before * dot, frag_start)
    suffix /= 1.0 - alpha

    # alpha = min(ALPHA_CLAMP, o * g) with g = exp(-q/2), q = d^T P d, so
    # below the clamp dalpha/do = g and dalpha/dq = -alpha/2; clamped
    # fragments pass no gradient. coef = dL/dalpha * alpha, formed in the
    # buffer of dot.
    coef = dot
    coef *= t_before
    coef -= suffix
    del suffix
    coef *= alpha
    coef[alpha >= ALPHA_CLAMP] = 0.0
    dx = np.repeat(np.tile(np.arange(w, dtype=dt), h), counts)   # pixel x, y
    dx -= np.take(splats.mean2d[:, 0], srow)
    dy = np.repeat(np.repeat(np.arange(h, dtype=dt), w), counts)
    dy -= np.take(splats.mean2d[:, 1], srow)

    # per-splat sums of coef * [1, dx, dy, dx^2, dx dy, dy^2], each product
    # made just before its sum
    def per_splat(v):
        return np.bincount(srow, weights=v, minlength=S).astype(dt)

    s_c = per_splat(coef)
    cdx = coef * dx
    s_x, s_xy = per_splat(cdx), per_splat(cdx * dy)
    dx *= cdx
    s_xx = per_splat(dx)
    del cdx, dx
    coef *= dy                            # coef * dy
    s_y = per_splat(coef)
    dy *= coef
    s_yy = per_splat(dy)
    del dot, coef, dy, srow               # the per-splat chain needs no F-length array

    # dL/dlogit(o) = o (1 - o) sum g dL/dalpha = (1 - o) sum coef
    idx = splats.index  # unique rows: plain indexed assignment
    grads.logit_opacities[idx] = (1.0 - cloud.opacities[idx]) * s_c

    # dL/dmu = P sum coef d and dL/dSigma2 = (1/2) P D P with D = sum coef
    # d d^T, each entry written out; K = P D P is twice dL/dSigma2
    p00, p01, p11 = splats.inv_cov[:, 0, 0], splats.inv_cov[:, 0, 1], splats.inv_cov[:, 1, 1]
    gmu0, gmu1 = p00 * s_x + p01 * s_y, p01 * s_x + p11 * s_y
    pd00, pd01 = p00 * s_xx + p01 * s_xy, p00 * s_xy + p01 * s_yy
    pd10, pd11 = p01 * s_xx + p11 * s_xy, p01 * s_xy + p11 * s_yy
    k00, k01, k11 = pd00 * p00 + pd01 * p01, pd00 * p01 + pd01 * p11, pd10 * p01 + pd11 * p11

    # Sigma2 = B B^T with B = A M, A = J R_cw, M = R(q) diag(s), so dL/dB =
    # K B, dL/dA = (K B) M^T and dL/dM = A^T (K B); all per splat, by
    # entry, component-major
    t_cam = splats.t_cam
    q, s = np.take(cloud.rotations, idx, axis=0), np.take(cloud.scales, idx, axis=0)
    (j00, j02, j11, j12), A, M, B = ewa_factors(cam, t_cam, q, s)
    gB = np.stack([k00 * B[0] + k01 * B[1], k01 * B[0] + k11 * B[1]])
    gA = gB[:, 0, None] * M[:, 0] + gB[:, 1, None] * M[:, 1] + gB[:, 2, None] * M[:, 2]
    gM = A[0, :, None] * gB[0] + A[1, :, None] * gB[1]

    # J's four entries: dL/dJ = dL/dA R_cw^T; the mean adds J^T dL/dmu
    Rcw = cam.rotation.astype(dt)
    (gj00, gj02), (gj11, gj12) = Rcw[[0, 2]] @ gA[0], Rcw[[1, 2]] @ gA[1]
    gt = np.stack([j00 * gmu0, j11 * gmu1, j02 * gmu0 + j12 * gmu1])
    if cam.mode == "pinhole":
        fx, fy = dt.type(cam.fx), dt.type(cam.fy)
        inv_z = 1.0 / t_cam[:, 2]
        inv_z2 = inv_z * inv_z
        gt[0] += gj02 * (-fx * inv_z2)
        gt[1] += gj12 * (-fy * inv_z2)
        gt[2] += (gj00 * (-fx * inv_z2) + gj11 * (-fy * inv_z2)
                  + gj02 * (2 * fx * t_cam[:, 0] * inv_z2 * inv_z)
                  + gj12 * (2 * fy * t_cam[:, 1] * inv_z2 * inv_z))

    # M = R diag(s): dL/dlog s_k = sum_i gM_ik M_ik, dL/dR = gM diag(s)
    grads.positions[idx] = (Rcw.T @ gt).T   # dL/dp = R_cw^T dL/dt
    grads.log_scales[idx] = (gM * M).sum(axis=0).T
    gM *= s.T
    grads.rotations[idx] = rot_grad_to_quat_grad(q, gM.transpose(2, 0, 1))
    return grads


def accumulate_monitors(cloud: GaussianCloud, grads: ParamGrads) -> None:
    """Update the cloud's position-gradient monitor after one backward pass:
    pos_grad_ema <- 0.9 ema + 0.1 dL/dp. Densification's sums are kept by
    trainer.DensifyStats."""
    cloud.pos_grad_ema *= 0.9
    cloud.pos_grad_ema += 0.1 * grads.positions
