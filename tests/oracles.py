"""Reference implementations that used to live in the engine.

Scalar, one-at-a-time versions of what the engine does for many rows at
once, kept here as test oracles with their bodies unchanged:

- `Gaussian` and `gaussian(cloud, i)`: one Gaussian as a record;
- `Splat2D` and `project_gaussian`: projection of one Gaussian;
- `pixel_alpha`, `Fragment` and `fragments_at`: one pixel of a render;
- `neighbor_direction`, `local_adaptive_neighbors` and `global_neighbors`:
  the neighbour search of one target, and `_smallest_k`, the selection
  they share (the k smallest finite entries, ordered by (value, index));
- `split_gaussian` and `_split_axis`: the IGD split of one Gaussian;
- `pairwise_kl_loss`: the KL consistency loss with one (pairs x classes)
  row per pair, log-probabilities floored at `PROB_FLOOR`, in float64, its
  pair rows scattered by `np.add.at`. It matches the engine's closed form
  except where a probability falls below the floor;
- `tiled_render`: the dense per-tile compositor the engine's bbox-driven
  rasterizer replaced. Every tile evaluates all (splat, pixel) pairs
  densely and composites them with a cumulative product; the per-pixel
  sums then add each pixel's fragments front to back, one pass per depth
  rank, with no background term. A pixel drops the fragments whose
  transmittance is below T_STOP and composites the rest again. `render`
  must match it byte for byte at every tile size;
- `key_order`: the fragment order by one argsort of the int64 key
  `pixel * S + depth rank`, which the engine's radix sort by pixel replaced;
- `full_image_segment_mask`: segmentation with logits for every pixel,
  background forced afterwards, which the engine's foreground-only
  segmentation replaced;
- `recomputing_backward`: the backward pass that recomputes every
  fragment's offset, `q` and falloff `exp(-q/2)`, gates on `o * g <
  ALPHA_CLAMP` and takes five per-splat `bincount`s of `(P d)(P d)^T`
  terms, which the engine's pass from render's alpha replaced. It runs in
  float64 and reads from the render only each splat's index, screen mean
  and inverse covariance and the fragment records. It forms its own
  per-pixel suffix sums, as reversed cumsums, and the EWA chain as stacked
  2x3 and 3x3 matrix products from the cloud and the camera, the form the
  engine's closed form replaced. It keeps a pixel's fragments only until
  its own float64 running transmittance falls below T_STOP;
- `dense_softmax`, `dense_classify`, `dense_loss_2d` and
  `dense_kl_pairs_loss`: the softmax, classification, 2D cross-entropy and
  closed-form KL with one column per class, which the engine's work on
  distinct head rows replaced. On a head without repeated rows the engine
  returns their bytes. `dense_loss_2d` takes one softmax per pixel, as the
  engine does; both have dropped the single classification of all-zero
  feature rows they used to share. `dense_kl_pairs_loss` adds its pair
  rows in pair order, as the engine does; the sort and `np.add.reduceat`
  the engine used before added them in another order, so its bytes differ
  from these in the last bit;
- `stacked_quat_grad`: the rotation-to-quaternion gradient contracted with
  the four stacked matrices dR/dq, which the engine's closed form replaced;
- `boundary_pixels` and `boundary_band`: the boundary and the boundary band
  of one mask, pixel by pixel from their definitions, against which the
  engine's separable square filter is checked. It replaced
  `scipy.ndimage`'s erosion and dilation.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from gradiseg.backward import ParamGrads
from gradiseg.camera import ALPHA_CUTOFF, CULL_SIGMA, CameraView, project_cloud
from gradiseg.igd import SPLIT_OFFSET_FRAC, SPLIT_SCALE_DIV
from gradiseg.laknn import EMA_FLOOR
from gradiseg.render import ALPHA_CLAMP, T_STOP, RenderOutput
from gradiseg.rotation import quat_to_rot
from gradiseg.scene import GaussianCloud
from gradiseg.semantic import FOREGROUND_THRESHOLD, ClassifierHead

DEFAULT_TILE = 16
PROB_FLOOR = 1e-12


@dataclass
class Gaussian:
    """A single Gaussian: position, scale, rotation (wxyz), opacity, color, identity encoding."""

    position: np.ndarray
    scale: np.ndarray
    rotation: np.ndarray
    opacity: float
    color: np.ndarray
    encoding: np.ndarray


def gaussian(cloud: GaussianCloud, i: int) -> Gaussian:
    """Row i of the cloud as a Gaussian record (copies)."""
    return Gaussian(
        position=cloud.positions[i].copy(),
        scale=cloud.scales[i].copy(),
        rotation=cloud.rotations[i].copy(),
        opacity=float(cloud.opacities[i]),
        color=cloud.colors[i].copy(),
        encoding=cloud.encodings[i].copy(),
    )


@dataclass
class Splat2D:
    """A single projected Gaussian (public per-splat view of ProjectedSplats)."""

    mean2d: np.ndarray
    cov2d: np.ndarray
    depth: float
    source_index: int


def project_gaussian(g: Gaussian, cam: CameraView):
    """Project a single Gaussian. Returns a Splat2D, or None when culled."""
    cloud = GaussianCloud(
        g.position[None].astype(np.float64), g.scale[None], g.rotation[None],
        np.array([g.opacity]), g.color[None], g.encoding[None])
    splats = project_cloud(cloud, cam)
    if splats.count == 0:
        return None
    return Splat2D(mean2d=splats.mean2d[0].copy(), cov2d=splats.cov2d[0].copy(),
                   depth=float(splats.depth[0]), source_index=0)


@dataclass
class Fragment:
    """One splat's contribution to one pixel."""

    source_index: int
    alpha: float
    transmittance_before: float


def fragments_at(out: RenderOutput, x: int, y: int) -> list[Fragment]:
    h, w = out.shape
    pix = y * w + x
    lo, hi = out.frag_start[pix], out.frag_start[pix + 1]
    return [Fragment(int(out.frag_source[k]), float(out.frag_alpha[k]),
                     float(out.frag_t_before[k])) for k in range(lo, hi)]


def pixel_alpha(splat: Splat2D, opacity: float, pixel,
                alpha_clamp: float = ALPHA_CLAMP,
                alpha_cutoff: float = ALPHA_CUTOFF) -> float:
    """Blending weight of one splat at one pixel.

    alpha = min(alpha_clamp, opacity * exp(-0.5 d^T cov2d^-1 d)); values below
    alpha_cutoff are dropped (returned as 0).
    """
    cov = np.asarray(splat.cov2d, dtype=np.float64)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    if det <= 0:
        raise FloatingPointError("singular 2D covariance")
    d = np.asarray(pixel, dtype=np.float64) - splat.mean2d
    q = (cov[1, 1] * d[0] * d[0] - 2 * cov[0, 1] * d[0] * d[1]
         + cov[0, 0] * d[1] * d[1]) / det
    alpha = min(alpha_clamp, opacity * np.exp(-0.5 * q))
    return float(alpha) if alpha >= alpha_cutoff else 0.0


def _smallest_k(dist_row: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest finite entries, ties by ascending index."""
    finite = np.isfinite(dist_row)
    avail = int(finite.sum())
    take = min(k, avail)
    if take == 0:
        return np.empty(0, dtype=np.int64)
    part = np.argpartition(dist_row, take - 1)[:take]
    vals = dist_row[part]
    kth = vals.max()
    strict = np.nonzero(dist_row < kth)[0]
    need = take - strict.size
    at_kth = np.nonzero(dist_row == kth)[0][:need]
    out = np.concatenate([strict, at_kth])
    return out[np.lexsort((out, dist_row[out]))]


def neighbor_direction(cloud: GaussianCloud, i: int) -> np.ndarray | None:
    """Unit vector opposite the position-gradient EMA of Gaussian i.

    Returns None when the EMA is (numerically) zero; callers fall back to
    global search for that Gaussian.
    """
    g = cloud.pos_grad_ema[i]
    norm = np.linalg.norm(g)
    if norm < EMA_FLOOR:
        return None
    return -g / norm


def local_adaptive_neighbors(cloud: GaussianCloud, i: int, u: np.ndarray,
                             k: int) -> np.ndarray:
    """K nearest neighbors of i by smallest strictly positive projection distance."""
    if k < 1:
        raise ValueError("K must be >= 1")
    u = np.asarray(u, dtype=np.float64)
    d = (cloud.positions.astype(np.float64) - cloud.positions[i].astype(np.float64)) @ u
    d[i] = -np.inf
    d = np.where(d > 0, d, np.inf)
    return _smallest_k(d, k)


def global_neighbors(cloud: GaussianCloud, i: int, k: int) -> np.ndarray:
    """K nearest neighbors of i by Euclidean distance, ties by ascending index."""
    if k < 1:
        raise ValueError("K must be >= 1")
    diff = cloud.positions.astype(np.float64) - cloud.positions[i].astype(np.float64)
    d = np.einsum("nj,nj->n", diff, diff)
    d[i] = np.inf
    return _smallest_k(d, k)


def pairwise_kl_loss(encodings: np.ndarray, head: ClassifierHead,
                     pair_i: np.ndarray, pair_j: np.ndarray):
    """Mean KL(F(e_i) || F(e_j)) over the given pairs, with encoding gradients,
    in float64. Returns (loss, dL/dencodings)."""
    encodings = encodings.astype(np.float64)
    head = ClassifierHead(head.weights.astype(np.float64), head.biases.astype(np.float64))
    n, d = encodings.shape
    dt = encodings.dtype
    grad_e = np.zeros((n, d), dtype=dt)
    if pair_i.size == 0:
        return 0.0, grad_e

    involved, inv = np.unique(np.concatenate([pair_i, pair_j]), return_inverse=True)
    ii, jj = inv[:pair_i.size], inv[pair_i.size:]
    p = dense_classify(encodings[involved], head)
    logp = np.log(np.maximum(p, PROB_FLOOR))

    pi = p[ii]
    logdiff = logp[ii] - logp[jj]
    kl = np.einsum("pc,pc->p", pi, logdiff)
    m = pair_i.size
    loss = float(kl.sum() / m)

    # d/dz_i KL = P_i * (logdiff - KL);  d/dz_j KL = P_j - P_i.
    w = head.weights.astype(dt)
    pw = p @ w
    ge_i = ((pi * logdiff) @ w - kl[:, None] * pw[ii]) / m
    ge_j = (pw[jj] - pw[ii]) / m
    ge_rows = np.zeros((involved.size, w.shape[1]), dtype=dt)
    np.add.at(ge_rows, ii, ge_i)
    np.add.at(ge_rows, jj, ge_j)
    grad_e[involved] = ge_rows
    return loss, grad_e


def _split_axis(scale: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """World-space unit vector of the largest-scale principal axis.

    Equal scales tie-break to the lowest axis index.
    """
    axis = int(np.argmax(scale))
    return quat_to_rot(rotation.astype(np.float64))[:, axis]


def split_gaussian(g: Gaussian) -> tuple[Gaussian, Gaussian]:
    """Split one Gaussian into two children on either side of the boundary.

    Children sit at p +- SPLIT_OFFSET_FRAC * s_max * v, v the major principal
    axis, with all scale components divided by SPLIT_SCALE_DIV; rotation,
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
    offset = (SPLIT_OFFSET_FRAC * s_max * v).astype(g.position.dtype)
    new_scale = (g.scale / SPLIT_SCALE_DIV).astype(g.scale.dtype)
    mk = lambda p: Gaussian(p, new_scale.copy(), g.rotation.copy(), g.opacity,
                            g.color.copy(), g.encoding.copy())
    return mk(g.position + offset), mk(g.position - offset)


def _tile_ranges(size: int, tile: int):
    return [(lo, min(lo + tile, size)) for lo in range(0, size, tile)]


def _render_tile(x_lo, x_hi, y_lo, y_hi, splats, opac, dt):
    """Composite one pixel tile: per-pixel transmittance and fragment records.

    Images are assembled later from the fragment list in canonical order so
    results are bit-independent of the tiling.
    """
    npix = (x_hi - x_lo) * (y_hi - y_lo)
    t_fin = np.ones(npix, dtype=dt)
    empty = (np.zeros(npix, dtype=np.int64), np.empty(0, dtype=np.int64),
             np.empty(0, dtype=dt), np.empty(0, dtype=dt), np.empty(0, dtype=np.int64))

    bb = splats.bbox
    hit = np.nonzero((bb[:, 0] <= x_hi - 1) & (bb[:, 1] >= x_lo)
                     & (bb[:, 2] <= y_hi - 1) & (bb[:, 3] >= y_lo))[0]
    if hit.size == 0:
        return (t_fin, *empty)

    npx = x_hi - x_lo
    pix_x = np.arange(x_lo, x_hi, dtype=dt)
    pix_y = np.arange(y_lo, y_hi, dtype=dt)
    mean = splats.mean2d[hit]
    d0 = np.tile(pix_x, y_hi - y_lo)[None, :] - mean[:, 0:1]   # (K, P)
    d1 = np.repeat(pix_y, npx)[None, :] - mean[:, 1:2]
    ic = splats.inv_cov[hit]
    q = ic[:, 0, 0, None] * (d0 * d0)
    q += (2.0 * ic[:, 0, 1, None]) * (d0 * d1)
    q += ic[:, 1, 1, None] * (d1 * d1)

    o_hit = opac[hit]
    # coarse superset of admissible fragments in q-space; the exact
    # alpha/support tests below stay bit-identical to the full evaluation
    sig2 = dt.type(CULL_SIGMA ** 2)
    with np.errstate(divide="ignore"):
        q_lim = 2.0 * np.log(o_hit / dt.type(ALPHA_CUTOFF)) + dt.type(1e-5)
    coarse = q <= np.minimum(q_lim, sig2 + dt.type(1e-5))[:, None]

    # compact evaluation, pixel-major with ascending depth inside each pixel
    p_idx, k_idx = np.nonzero(coarse.T)
    qv = q[k_idx, p_idx]
    g = np.exp(-0.5 * qv)
    alpha_v = np.minimum(o_hit[k_idx] * g, dt.type(ALPHA_CLAMP))
    fine = (alpha_v >= ALPHA_CUTOFF) & (qv <= sig2)
    p_idx, k_idx, alpha_v = p_idx[fine], k_idx[fine], alpha_v[fine]

    one_minus = np.ones_like(q)
    one_minus[k_idx, p_idx] = 1.0 - alpha_v
    t_incl = np.cumprod(one_minus, axis=0)
    frag_tb = np.where(k_idx > 0, t_incl[np.maximum(k_idx - 1, 0), p_idx],
                       dt.type(1.0))
    # a pixel stops once its transmittance falls below T_STOP: the fragments
    # behind that leave, and the rest composite again
    stop = frag_tb < T_STOP
    one_minus[k_idx[stop], p_idx[stop]] = 1.0
    t_incl = np.cumprod(one_minus, axis=0)
    p_idx, k_idx, alpha_v, frag_tb = (a[~stop] for a in (p_idx, k_idx, alpha_v, frag_tb))
    t_fin = t_incl[-1]

    counts = np.bincount(p_idx, minlength=npix)
    frag_splat = hit[k_idx]
    frag_source = splats.index[frag_splat]
    return t_fin, counts, frag_source, alpha_v, frag_tb, frag_splat


def _pixel_sums(values: np.ndarray, frag_start: np.ndarray) -> np.ndarray:
    """Per-pixel sums of pixel-sorted fragment rows, added front to back:
    pass r adds the r-th fragment of every pixel that has one, so each
    pixel's sum runs through its fragments in depth order.
    """
    npix = frag_start.size - 1
    out = np.zeros((npix,) + values.shape[1:], dtype=values.dtype)
    counts = np.diff(frag_start)
    for r in range(int(counts.max(initial=0))):
        deep = np.flatnonzero(counts > r)
        out[deep] += values[frag_start[deep] + r]
    return out


def tiled_render(cloud: GaussianCloud, cam, tile: int = DEFAULT_TILE) -> RenderOutput:
    """Rasterize tile by tile with dense per-tile evaluation."""
    dt = cloud.dtype
    h, w = cam.height, cam.width
    splats = project_cloud(cloud, cam)
    opac = cloud.opacities[splats.index]

    tiles = [(xl, xh, yl, yh)
             for yl, yh in _tile_ranges(h, tile)
             for xl, xh in _tile_ranges(w, tile)]
    results = [_render_tile(*t, splats, opac, dt) for t in tiles]

    t_final = np.empty((h, w), dtype=dt)
    counts = np.zeros(h * w, dtype=np.int64)
    for (xl, xh, yl, yh), res in zip(tiles, results):
        t_final[yl:yh, xl:xh] = res[0].reshape(yh - yl, xh - xl)
        pix_rows = (np.arange(yl, yh)[:, None] * w + np.arange(xl, xh)[None, :]).ravel()
        counts[pix_rows] = res[1]

    frag_start = np.zeros(h * w + 1, dtype=np.int32)
    np.cumsum(counts, out=frag_start[1:])
    total = int(frag_start[-1])
    frag_source = np.empty(total, dtype=np.int32)
    frag_alpha = np.empty(total, dtype=dt)
    frag_tb = np.empty(total, dtype=dt)
    frag_splat = np.empty(total, dtype=np.int32)
    for (xl, xh, yl, yh), res in zip(tiles, results):
        t_counts, t_src, t_alpha, t_tb, t_splat = res[1], res[2], res[3], res[4], res[5]
        if t_src.size == 0:
            continue
        pix_rows = (np.arange(yl, yh)[:, None] * w + np.arange(xl, xh)[None, :]).ravel()
        dest = np.repeat(frag_start[pix_rows], t_counts)
        within = np.arange(t_src.size) - np.repeat(
            np.concatenate([[0], np.cumsum(t_counts[:-1])]), t_counts)
        dest = dest + within
        frag_source[dest] = t_src
        frag_alpha[dest] = t_alpha
        frag_tb[dest] = t_tb
        frag_splat[dest] = t_splat

    weights = frag_alpha * frag_tb
    vals = np.empty((total, 3 + cloud.dim), dtype=dt)
    vals[:, :3] = weights[:, None] * cloud.colors[frag_source]
    vals[:, 3:] = weights[:, None] * cloud.encodings[frag_source]
    sums = _pixel_sums(vals, frag_start)
    blend = csr_array((weights, frag_source, frag_start), shape=(h * w, cloud.n))

    return RenderOutput(sums[:, :3].reshape(h, w, 3), sums[:, 3:].reshape(h, w, cloud.dim),
                        t_final, frag_start, frag_source, frag_alpha, frag_tb,
                        frag_splat, splats, blend)


def key_order(pix: np.ndarray, rank: np.ndarray, n_splats: int) -> np.ndarray:
    """Fragment order by (pixel, depth rank), from one argsort of the key."""
    return np.argsort(pix * n_splats + rank)


def full_image_segment_mask(identity_map: np.ndarray, final_transmittance: np.ndarray,
                            head: ClassifierHead) -> np.ndarray:
    logits = head.logits(identity_map)
    mask = np.argmax(logits, axis=-1).astype(np.uint8)
    mask[(1.0 - final_transmittance) < FOREGROUND_THRESHOLD] = 0
    return mask


def _pixel_suffix_sums(values: np.ndarray, frag_start: np.ndarray) -> np.ndarray:
    """Per-fragment sum of the values strictly after it in its pixel: a
    reversed cumsum over each pixel's fragments, shifted by one."""
    suffix = np.zeros_like(values)
    for p in np.flatnonzero(np.diff(frag_start) > 1):
        lo, hi = frag_start[p], frag_start[p + 1]
        suffix[lo:hi - 1] = np.cumsum(values[hi - 1:lo:-1])[::-1]
    return suffix


def _stop_rule(frag_alpha: np.ndarray, frag_start: np.ndarray) -> np.ndarray:
    """Mask of the fragments a pixel composites when its loop breaks once
    the float64 running transmittance falls below T_STOP."""
    kept = np.zeros(frag_alpha.size, dtype=bool)
    for p in np.flatnonzero(np.diff(frag_start)):
        t = 1.0
        for k in range(frag_start[p], frag_start[p + 1]):
            if t < T_STOP:
                break
            kept[k] = True
            t *= 1.0 - float(frag_alpha[k])
    return kept


def recomputing_backward(cloud: GaussianCloud, cam: CameraView, out: RenderOutput,
                         color_grads: np.ndarray) -> ParamGrads:
    """Gradients of sum(color_grads * C) in float64, recomputing each
    fragment's falloff from the splat's mean and inverse covariance. The
    encoding gradients stay zero."""
    dt = np.dtype(np.float64)
    f64 = lambda a: np.asarray(a, dtype=dt)
    cloud = cloud.astype(dt)
    n = cloud.n
    h, w = out.shape
    grads = ParamGrads.zeros(n, cloud.dim, dt)
    kept = _stop_rule(out.frag_alpha, out.frag_start)
    if not kept.any():
        return grads
    frag_pix = np.repeat(np.arange(h * w), np.diff(out.frag_start))[kept]
    frag_start = np.zeros(h * w + 1, dtype=np.int64)
    np.cumsum(np.bincount(frag_pix, minlength=h * w), out=frag_start[1:])
    src, srow = out.frag_source[kept], out.frag_splat[kept]
    alpha, t_before = f64(out.frag_alpha[kept]), f64(out.frag_t_before[kept])
    grads.visible[src] = True

    index, S = out.splats.index, out.splats.count
    mean2d, inv_cov = f64(out.splats.mean2d), f64(out.splats.inv_cov)
    G = f64(color_grads).reshape(h * w, 3)
    weights = csr_array((alpha * t_before, src, frag_start), shape=(h * w, n))
    grads.colors[:] = weights.T @ G

    dot = np.einsum("fk,fk->f", G[frag_pix], cloud.colors[src])
    suffix = _pixel_suffix_sums(alpha * t_before * dot, frag_start)
    g_alpha = dot * t_before - suffix / (1.0 - alpha)

    o_src = cloud.opacities[src]
    pix_xy = np.stack([frag_pix % w, frag_pix // w], axis=1).astype(dt)
    dvec = pix_xy - mean2d[srow]
    ic = inv_cov[srow]
    pd0 = ic[:, 0, 0] * dvec[:, 0] + ic[:, 0, 1] * dvec[:, 1]
    pd1 = ic[:, 1, 0] * dvec[:, 0] + ic[:, 1, 1] * dvec[:, 1]
    q = pd0 * dvec[:, 0] + pd1 * dvec[:, 1]
    g_val = np.exp(-0.5 * q)
    unclamped = (o_src * g_val) < ALPHA_CLAMP
    g_pre = np.where(unclamped, g_alpha, 0.0)
    coef = g_pre * o_src * g_val
    half = 0.5 * coef

    grads.logit_opacities[:] = np.bincount(
        src, weights=g_pre * g_val * o_src * (1.0 - o_src), minlength=n)

    gmu = np.empty((S, 2), dtype=dt)
    gmu[:, 0] = np.bincount(srow, weights=coef * pd0, minlength=S)
    gmu[:, 1] = np.bincount(srow, weights=coef * pd1, minlength=S)
    gcov = np.empty((S, 2, 2), dtype=dt)
    gcov[:, 0, 0] = np.bincount(srow, weights=half * pd0 * pd0, minlength=S)
    gcov[:, 0, 1] = np.bincount(srow, weights=half * pd0 * pd1, minlength=S)
    gcov[:, 1, 0] = gcov[:, 0, 1]
    gcov[:, 1, 1] = np.bincount(srow, weights=half * pd1 * pd1, minlength=S)

    # the stacked-matrix EWA chain, from the cloud and the camera alone
    Rcw = cam.rotation
    t_cam = cloud.positions[index] @ Rcw.T + cam.translation
    J = np.zeros((S, 2, 3))
    if cam.mode == "pinhole":
        inv_z = 1.0 / t_cam[:, 2]
        J[:, 0, 0], J[:, 1, 1] = cam.fx * inv_z, cam.fy * inv_z
        J[:, 0, 2] = -cam.fx * t_cam[:, 0] * inv_z ** 2
        J[:, 1, 2] = -cam.fy * t_cam[:, 1] * inv_z ** 2
    else:
        J[:, 0, 0], J[:, 1, 1] = cam.fx, cam.fy
    A = J @ Rcw
    R, s = quat_to_rot(cloud.rotations[index]), cloud.scales[index]
    M = R * s[:, None, :]
    cov3d = M @ np.swapaxes(M, 1, 2)
    gA = 2.0 * (gcov @ A @ cov3d)
    gX = np.swapaxes(A, 1, 2) @ gcov @ A
    gJ = gA @ Rcw.T
    gt = np.einsum("sij,si->sj", J, gmu)
    if cam.mode == "pinhole":
        fx, fy = cam.fx, cam.fy
        inv_z2 = inv_z * inv_z
        gt[:, 0] += gJ[:, 0, 2] * (-fx * inv_z2)
        gt[:, 1] += gJ[:, 1, 2] * (-fy * inv_z2)
        gt[:, 2] += (gJ[:, 0, 0] * (-fx * inv_z2)
                     + gJ[:, 1, 1] * (-fy * inv_z2)
                     + gJ[:, 0, 2] * (2 * fx * t_cam[:, 0] * inv_z2 * inv_z)
                     + gJ[:, 1, 2] * (2 * fy * t_cam[:, 1] * inv_z2 * inv_z))
    gp = gt @ Rcw

    gM = 2.0 * (gX @ M)
    gs = np.einsum("sij,sij->sj", gM, R)
    gR = gM * s[:, None, :]
    grads.positions[index] = gp
    grads.log_scales[index] = gs * s
    grads.rotations[index] = stacked_quat_grad(cloud.rotations[index], gR)
    return grads


def dense_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over every class of the last axis, in the logits' buffer, and
    the logsumexp of each row."""
    zmax = logits.max(axis=-1, keepdims=True)
    logits -= zmax
    np.exp(logits, out=logits)
    total = logits.sum(axis=-1, keepdims=True)
    logits /= total
    return logits, (zmax + np.log(total))[..., 0]


def dense_classify(features: np.ndarray, head: ClassifierHead) -> np.ndarray:
    """Class probabilities softmax(W f + b) with one column per class."""
    return dense_softmax(head.logits(np.asarray(features)))[0]


def dense_loss_2d(identity_map: np.ndarray, mask: np.ndarray, head: ClassifierHead):
    """loss_2d with every class in its own softmax column, one softmax per
    pixel. Returns (loss, dL/didentity_map, (dL/dW, dL/db))."""
    h, w, d = identity_map.shape
    labels = np.asarray(mask).reshape(-1).astype(np.int64)
    feats = identity_map.reshape(-1, d)
    npix = feats.shape[0]
    p = dense_classify(feats, head)
    eps = np.finfo(p.dtype).tiny
    at = np.arange(npix)
    loss = float(-np.log(np.maximum(p[at, labels], eps)).sum() / npix)

    dlogits = p
    dlogits[at, labels] -= 1.0
    dlogits /= npix
    d_feats = dlogits @ head.weights.astype(p.dtype)
    d_w = dlogits.T @ feats
    d_b = dlogits.sum(axis=0)
    return loss, d_feats.reshape(h, w, d), (d_w, d_b)


def _pair_order_sums(index: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """out[r] = the sum of rows[p] over p with index[p] == r, added in the
    order of p, starting from zero."""
    out = np.zeros((size,) + rows.shape[1:], dtype=rows.dtype)
    np.add.at(out, index, rows)
    return out


def dense_kl_pairs_loss(encodings: np.ndarray, head: ClassifierHead,
                        pair_i: np.ndarray, pair_j: np.ndarray):
    """kl_pairs_loss in closed form with one softmax column per class, its
    pair sums added in pair order. Returns (loss, dL/dencodings)."""
    grad_e = np.zeros(encodings.shape, dtype=encodings.dtype)
    if pair_i.size == 0:
        return 0.0, grad_e

    involved, inv = np.unique(np.concatenate([pair_i, pair_j]), return_inverse=True)
    ii, jj = inv[:pair_i.size], inv[pair_i.size:]
    r = involved.size
    m = pair_i.size
    e = encodings[involved]
    w = head.weights
    z = e @ w.T
    z += head.biases
    p, lse = dense_softmax(z)
    pw = p @ w

    de = e[ii] - e[jj]
    kl = np.einsum("pd,pd->p", pw[ii], de) - (lse[ii] - lse[jj])
    loss = float(kl.sum() / m)

    s = _pair_order_sums(ii, de, r)
    gz = s @ w.T
    gz -= np.einsum("rd,rd->r", pw, s)[:, None]
    gz *= p
    ge_rows = gz @ w
    ge_rows += _pair_order_sums(jj, pw[jj] - pw[ii], r)
    ge_rows /= m
    grad_e[involved] = ge_rows
    return loss, grad_e


def stacked_quat_grad(q_raw: np.ndarray, gR: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the raw quaternion from a gradient w.r.t. R(q/|q|),
    contracting gR with the four stacked matrices dR/dq."""
    q_raw = np.asarray(q_raw)
    norm = np.linalg.norm(q_raw, axis=-1, keepdims=True)
    q = q_raw / norm
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    zero = np.zeros_like(w)

    def mat(rows):
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

    dR_dw = 2 * mat([[zero, -z, y], [z, zero, -x], [-y, x, zero]])
    dR_dx = 2 * mat([[zero, y, z], [y, -2 * x, -w], [z, w, -2 * x]])
    dR_dy = 2 * mat([[-2 * y, x, w], [x, zero, z], [-w, z, -2 * y]])
    dR_dz = 2 * mat([[-2 * z, -w, x], [w, -2 * z, y], [x, y, zero]])

    g_unit = np.stack([
        np.einsum("...ij,...ij->...", gR, d) for d in (dR_dw, dR_dx, dR_dy, dR_dz)
    ], axis=-1)
    proj = g_unit - np.sum(g_unit * q, axis=-1, keepdims=True) * q
    return proj / norm


def boundary_pixels(binary: np.ndarray) -> np.ndarray:
    """Mask pixels one of whose 8 neighbours lies outside the mask or outside
    the image, pixel by pixel."""
    h, w = binary.shape
    out = np.zeros_like(binary)
    for y in range(h):
        for x in range(w):
            if not binary[y, x]:
                continue
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = y + dy, x + dx
                    if ny < 0 or ny >= h or nx < 0 or nx >= w or not binary[ny, nx]:
                        out[y, x] = True
    return out


def boundary_band(binary: np.ndarray, band_px: int) -> np.ndarray:
    """Every pixel within Chebyshev distance band_px of a boundary pixel,
    pixel by pixel."""
    boundary = boundary_pixels(binary)
    h, w = binary.shape
    out = np.zeros_like(binary)
    for y in range(h):
        for x in range(w):
            y0, y1 = max(0, y - band_px), min(h, y + band_px + 1)
            x0, x1 = max(0, x - band_px), min(w, x + band_px + 1)
            out[y, x] = boundary[y0:y1, x0:x1].any()
    return out
