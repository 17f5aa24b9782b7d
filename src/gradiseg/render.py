"""Forward rasterization: alpha-blended color and identity-feature images.

Colors and identity encodings form one (3 + D)-channel feature table
f_i = [c_i | e_i], and per pixel the depth-ordered fragments blend it:

    [C | E_id] = sum_i w_i * f_i,    w_i = alpha_i * prod_{j<i} (1 - alpha_j)

Empty and partly covered pixels blend toward black: there is no background
term. The weights form one sparse operator W (pixels x Gaussians, one entry
per fragment), so the images are W @ [colors | encodings] and the backward
pass takes W.T of the upstream gradients.

A splat contributes a fragment at a pixel when alpha >= ALPHA_CUTOFF and the
pixel lies within the splat's support ellipse (CULL_SIGMA standard
deviations). Alpha is always clamped to ALPHA_CLAMP. The rendered map is
differentiable only away from these cutoffs and the stop at T_STOP, so the
gradient checks draw scenes whose pairs keep a margin from each. Only the
pixels inside a splat's screen bbox are tested, so the cost follows the
fragment count rather than the image size. Fragments are recorded per pixel
in CSR form for the backward pass.

A pixel stops once its transmittance falls below T_STOP = 1e-5: it keeps
the fragments with t_before >= T_STOP, a prefix of its depth-ordered list,
and final_transmittance is the product over those, so the weights and
T_final still sum to 1. The dropped fragments weigh less than T_STOP
together, so a channel moves by less than T_STOP * max|f| up to rounding.
3DGS (Kerbl et al. 2023) stops at 1e-4, whose bound would reach the 1e-4
pixel tolerance of the benchmark's float64 reference compositor.

Candidate (splat, pixel) pairs are tested in blocks of about BLOCK pairs,
visited in depth order, so a per-pixel running transmittance lets later
blocks skip the bbox rows and candidates of pixels already below T_STOP.
Fragments come out in depth-rank order, pixels ascending within a rank, and
one stable sort by pixel puts them in pixel-major order with ascending depth
within each pixel. A sweep over depth rank then carries each pixel's
transmittance front to back, the exact stop rule trims what the skips left,
and the sparse product adds each pixel's fragments one after another, front
to back. Blocks keep temporaries cache-sized; no result depends on the block
size.

Fragment and pixel indices are int32, so a view has fewer than 2**31 pixels
(CameraView checks) and a render fewer than 2**31 fragments (render checks).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array

from .camera import (ALPHA_CUTOFF, CULL_SIGMA, CameraView, ProjectedSplats,
                     project_cloud)
from .scene import GaussianCloud
from .semantic import ClassifierHead, segment_mask

ALPHA_CLAMP = 0.99
T_STOP = 1e-5     # a pixel keeps the fragments with transmittance >= T_STOP
BLOCK = 1 << 14   # candidates per block


class RenderOutput:
    """Rendered images plus the per-pixel fragment records.

    color: (H, W, 3); identity: (H, W, D); final_transmittance: (H, W).
    Fragments are flattened in pixel-major order (within a pixel: ascending
    depth): frag_start (H*W+1,) offsets into frag_source/frag_alpha/
    frag_t_before/frag_splat, where frag_splat indexes rows of `splats`.
    frag_start, frag_source and frag_splat are int32.
    weights: the blend operator, a (H*W, N) CSR array whose indptr and
    indices are frag_start and frag_source themselves (no copies) and whose
    data is frag_alpha * frag_t_before.
    """

    def __init__(self, color, identity, final_transmittance, frag_start,
                 frag_source, frag_alpha, frag_t_before, frag_splat,
                 splats: ProjectedSplats, weights: csr_array):
        self.color = color
        self.identity = identity
        self.final_transmittance = final_transmittance
        self.frag_start = frag_start
        self.frag_source = frag_source
        self.frag_alpha = frag_alpha
        self.frag_t_before = frag_t_before
        self.frag_splat = frag_splat
        self.splats = splats
        self.weights = weights

    @property
    def shape(self):
        return self.color.shape[:2]


def _blocks(starts: np.ndarray, total: int):
    """Group items at ascending offsets `starts` (the first at 0; `total`
    units in all) into blocks of whole items, as (first item, end item)
    pairs. A block starts at each item that holds a multiple of BLOCK, so it
    spans at most its first item plus about BLOCK units."""
    cuts = np.unique(np.searchsorted(starts, np.arange(0, total, BLOCK), side="right") - 1)
    return zip(cuts, np.append(cuts[1:], starts.size))


def _row_runs(bbox: np.ndarray, width: int):
    """One run of pixels per bbox row, in splat (depth) order: the splat
    rank, the first pixel's flat index and its x, the row's y and length."""
    bw = np.maximum(bbox[:, 1] - bbox[:, 0] + 1, 0)
    bh = np.where(bw > 0, np.maximum(bbox[:, 3] - bbox[:, 2] + 1, 0), 0)
    rank = np.repeat(np.arange(bbox.shape[0]), bh)
    first_row = np.cumsum(bh) - bh
    # kept rows lie inside the image, so their coordinates fit int32
    y = (bbox[rank, 2] + (np.arange(rank.size) - first_row[rank])).astype(np.int32)
    x = bbox[rank, 0].astype(np.int32)
    return rank, y * width + x, x, y, bw[rank]


def _fragments(splats: ProjectedSplats, opac: np.ndarray, width: int, dt):
    """Alpha, flat pixel index and splat (depth) rank of every fragment.

    Candidates are the pixels of each splat's bbox, visited in blocks of
    whole bbox rows. A coarse q-space bound picks the pairs worth an exp;
    the exact alpha and support tests then decide. Each pair's arithmetic
    reads that pair alone, so the accepted set and its alphas do not depend
    on the blocks, nor on the bbox as long as it holds every fragment.
    The fragments of pixels already below T_STOP in an earlier block are
    skipped; which of the fragments behind T_STOP remain depends on the
    blocks, and render's stop rule removes them all.
    Fragments are returned sorted by (depth rank, pixel), and a splat
    covers a pixel at most once.
    """
    rank, pix0, x0, y, run_len = _row_runs(splats.bbox, width)
    if rank.size == 0:
        empty = np.empty(0, dtype=np.int32)
        return np.empty(0, dtype=dt), empty, empty
    mean, ic = splats.mean2d, splats.inv_cov
    sig2 = dt.type(CULL_SIGMA ** 2)
    with np.errstate(divide="ignore"):
        q_lim = 2.0 * np.log(opac / dt.type(ALPHA_CUTOFF)) + dt.type(1e-5)
    q_cap = np.minimum(q_lim, sig2 + dt.type(1e-5))
    ic00, ic01x2, ic11 = ic[:, 0, 0], 2.0 * ic[:, 0, 1], ic[:, 1, 1]

    # per-run parts of q: d1 and the d1*d1 term depend only on (splat, row)
    d1_run = y.astype(dt) - mean[rank, 1]
    q11_run = ic11[rank] * (d1_run * d1_run)

    run_start = np.cumsum(run_len) - run_len
    # each pixel's transmittance over the fragments made so far: the factors
    # _transmittance multiplies, in depth order (dt.type, since ufunc.at is
    # fast only on the canonical dtype). Once it is below t_done the pixel is
    # done and its runs and candidates are skipped. The 1% margin holds for
    # any order of the factors: reordering k of them moves a product by a
    # relative 2k * 2**-24 at most, and a product above t_done has
    # k < log(t_done) / log(1 - ALPHA_CUTOFF) < 3000
    t_run = np.ones(int((pix0 + run_len).max()), dtype=dt.type)
    t_done = 0.99 * T_STOP
    done = None
    alphas, pixels, ranks = [], [], []
    for r0, r1 in _blocks(run_start, int(run_start[-1] + run_len[-1])):
        runs, check = slice(r0, r1), False
        if done is not None:
            # drop the runs whose pixels are all done; test single pixels
            # only when a run left holds a done one
            n_done = done_upto[pix0[runs] + run_len[runs]] - done_upto[pix0[runs]]
            live = n_done < run_len[runs]
            check = bool(n_done[live].any())
            if not live.all():
                runs = r0 + np.flatnonzero(live)
                if runs.size == 0:
                    continue
        lens = run_len[runs]
        off = np.cumsum(lens) - lens
        step = (np.arange(off[-1] + lens[-1]) - np.repeat(off, lens)).astype(np.int32)
        s = np.repeat(rank[runs], lens)
        d0 = (np.repeat(x0[runs], lens) + step).astype(dt) - mean[s, 0]
        d1 = np.repeat(d1_run[runs], lens)
        q = ic00[s] * (d0 * d0)
        q += ic01x2[s] * (d0 * d1)
        q += np.repeat(q11_run[runs], lens)
        hit = np.flatnonzero(q <= q_cap[s])
        pix = np.repeat(pix0[runs], lens)[hit] + step[hit]
        if check:
            live = np.flatnonzero(~done[pix])
            hit, pix = hit[live], pix[live]
        qv, sv = q[hit], s[hit]
        g = np.exp(-0.5 * qv)
        alpha = np.minimum(opac[sv] * g, dt.type(ALPHA_CLAMP))
        fine = (alpha >= ALPHA_CUTOFF) & (qv <= sig2)
        alpha, pix = alpha[fine], pix[fine]
        alphas.append(alpha)
        pixels.append(pix)
        ranks.append(sv[fine].astype(np.int32))
        if r1 < rank.size:   # the last block's products have no reader
            np.multiply.at(t_run, pix, 1.0 - alpha)
            if done is not None or t_run.min() < t_done:
                done = t_run < t_done
                done_upto = np.concatenate(([0], np.cumsum(done)))
    # one list at a time: each list's blocks go as soon as they are joined
    for parts in (alphas, pixels, ranks):
        parts[:] = [np.concatenate(parts)]
    return alphas[0], pixels[0], ranks[0]


def _pixel_order(pix: np.ndarray, n_pix: int) -> np.ndarray:
    """Stable order of fragments by pixel: an LSD radix sort over 16-bit
    digits, the high digit only when some pixel index needs it. Fed
    _fragments' (depth rank, pixel) order, it yields (pixel, depth rank)."""
    order = np.argsort(pix.astype(np.uint16), kind="stable")
    if n_pix > 1 << 16:
        high = (pix[order] >> 16).astype(np.uint16)
        order = order[np.argsort(high, kind="stable")]
    return order


def _transmittance(alpha: np.ndarray, frag_start: np.ndarray):
    """Transmittance in front of each fragment and behind each pixel.

    A sweep over depth rank r multiplies every pixel that still has an r-th
    fragment by (1 - alpha): the same products, in the same order, as a
    running product down each pixel's fragment list.
    """
    one_minus = 1.0 - alpha
    t_before = np.empty_like(alpha)
    t_final = np.ones(frag_start.size - 1, dtype=alpha.dtype)
    counts = np.diff(frag_start)
    busy = np.argsort(-counts)[:np.count_nonzero(counts)]
    if busy.size == 0:
        return t_before, t_final
    first = frag_start[busy].astype(np.intp)   # indexes on every sweep step
    depth = counts[busy]                 # descending
    active = np.searchsorted(-depth, -np.arange(int(depth[0])), side="left")
    t = np.ones(busy.size, dtype=alpha.dtype)
    for r, m in enumerate(active):
        at = first[:m] + r
        t_before[at] = t[:m]
        t[:m] *= one_minus[at]
    t_final[busy] = t
    return t_before, t_final


def _stop(frag_start, t_before, t_final):
    """Apply the stop rule: each pixel keeps the fragments with t_before >=
    T_STOP, a prefix of its depth-ordered list. Moves frag_start and t_final
    in place to the kept fragments (t_final takes the t_before of a pixel's
    first dropped fragment) and returns the mask of kept fragments, or None
    when every fragment stays."""
    keep = t_before >= T_STOP
    if keep.all():
        return None
    cut = np.flatnonzero(~keep)
    pix = np.searchsorted(frag_start, cut, side="right") - 1
    first = np.flatnonzero(np.diff(pix, prepend=-1))
    t_final[pix[first]] = t_before[cut[first]]
    frag_start -= np.searchsorted(cut, frag_start).astype(np.int32)
    return keep


def render(cloud: GaussianCloud, cam: CameraView) -> RenderOutput:
    """Rasterize the cloud into color and identity images with fragment records
    (int32 indices; 20 bytes per fragment in float32, the operator included)."""
    dt = cloud.dtype
    h, w = cam.height, cam.width
    splats = project_cloud(cloud, cam)
    opac = cloud.opacities[splats.index]

    alpha, pix, rank = _fragments(splats, opac, w, dt)
    if alpha.size >= 2 ** 31:
        raise ValueError("a render must hold fewer than 2**31 fragments")
    # bincount's intp copy of pix is gone before order exists
    frag_start = np.zeros(h * w + 1, dtype=np.int32)
    np.cumsum(np.bincount(pix, minlength=h * w), out=frag_start[1:])
    order = _pixel_order(pix, h * w)
    # each unsorted array goes as soon as its last reader is done
    del pix
    frag_alpha = alpha[order]
    del alpha
    frag_splat = rank[order]
    del rank, order

    frag_tb, t_final = _transmittance(frag_alpha, frag_start)
    keep = _stop(frag_start, frag_tb, t_final)
    if keep is not None:   # one array at a time, as above
        frag_alpha = frag_alpha[keep]
        frag_tb = frag_tb[keep]
        frag_splat = frag_splat[keep]
        del keep
    frag_source = splats.index[frag_splat]
    # frag_source is unique per splat, so each pixel row holds a source once
    weights = csr_array((frag_alpha * frag_tb, frag_source, frag_start),
                        shape=(h * w, cloud.n))
    feats = weights @ np.concatenate([cloud.colors, cloud.encodings], axis=1)
    color = feats[:, :3].copy()   # a kept image must not pin the identity channels

    return RenderOutput(color.reshape(h, w, 3), feats[:, 3:].reshape(h, w, cloud.dim),
                        t_final.reshape(h, w), frag_start, frag_source, frag_alpha,
                        frag_tb, frag_splat, splats, weights)


def _render_groups(cloud: GaussianCloud, cam: CameraView) -> RenderOutput:
    """Render with one-hot group vectors in place of identity encodings: the
    identity image is each pixel's blended weight per group, (H, W, G) with
    G = max group id + 1, the same sums as regrouping its fragments."""
    if cloud.n and np.any(cloud.group_ids < 0):
        raise ValueError("all Gaussians must have assigned groups")
    n_groups = int(cloud.group_ids.max()) + 1 if cloud.n else 1
    onehot = np.zeros((cloud.n, n_groups), dtype=cloud.dtype)
    onehot[np.arange(cloud.n), cloud.group_ids] = 1.0
    proxy = cloud.copy()
    proxy.encodings = onehot
    return render(proxy, cam)


def group_weight_mask(cloud: GaussianCloud, cam: CameraView) -> np.ndarray:
    """Instance-id mask from group weights: semantic.segment_mask of the
    per-group weight render under an identity head."""
    out = _render_groups(cloud, cam)
    g = out.identity.shape[2]
    head = ClassifierHead(np.eye(g, dtype=cloud.dtype), np.zeros(g, dtype=cloud.dtype))
    return segment_mask(out.identity, out.final_transmittance, head)
