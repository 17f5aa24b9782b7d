"""Forward rasterization: alpha-blended color and identity-feature images.

Colors and identity encodings form one (3 + D)-channel feature table
f_i = [c_i | e_i], and per pixel the depth-ordered fragments blend it:

    [C | E_id] = sum_i w_i * f_i,    w_i = alpha_i * prod_{j<i} (1 - alpha_j)

Empty and partly covered pixels blend toward black: there is no background
term. The weights form one sparse operator W (pixels x Gaussians, one entry
per fragment), so the images are W @ [colors | encodings] and the backward
pass takes W.T of the upstream gradients.

A splat contributes a fragment at a pixel when alpha >= alpha_cutoff and the
pixel lies within the splat's support ellipse (cull_sigma standard deviations;
the same radius used for screen culling). Only the pixels inside a splat's
screen bbox are tested, so the cost follows the fragment count rather than
the image size. Fragments are recorded per pixel in CSR form for the
backward pass.

Candidate (splat, pixel) pairs are tested in blocks of about BLOCK pairs.
Fragments come out in depth-rank order, pixels ascending within a rank, and
one stable sort by pixel puts them in pixel-major order with ascending depth
within each pixel. A sweep over depth rank then carries each pixel's
transmittance front to back, and the sparse product adds each pixel's
fragments one after another, front to back. Blocks keep temporaries
cache-sized; no result depends on the block size.

Fragment and pixel indices are int32, so a view has fewer than 2**31 pixels
(CameraView checks) and a render fewer than 2**31 fragments (render checks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .camera import CULL_SIGMA, CameraView, ProjectedSplats, project_cloud
from .scene import GaussianCloud
from .semantic import FOREGROUND_THRESHOLD

ALPHA_CLAMP = 0.99
ALPHA_CUTOFF = 1.0 / 255.0
BLOCK = 1 << 14   # candidates per block


@dataclass
class RenderOptions:
    """The rasterizer's two discrete cutoffs: fragments with alpha below
    alpha_cutoff are dropped, and with cull_sigma set, splats are culled and
    supports truncated at cull_sigma standard deviations. `smooth()` turns
    both off so the rendered map is differentiable everywhere (used by
    gradient checks). Alpha is always clamped to ALPHA_CLAMP and the near
    plane is camera.NEAR_PLANE."""

    alpha_cutoff: float = ALPHA_CUTOFF
    cull_sigma: float | None = CULL_SIGMA

    @classmethod
    def smooth(cls) -> "RenderOptions":
        return cls(alpha_cutoff=0.0, cull_sigma=None)


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


def _fragments(splats: ProjectedSplats, opac: np.ndarray, width: int,
               opts: RenderOptions, dt):
    """Alpha, flat pixel index and splat (depth) rank of every fragment.

    Candidates are the pixels of each splat's bbox, visited in blocks of
    whole bbox rows. A coarse q-space bound picks the pairs worth an exp;
    the exact alpha and support tests then decide. Each pair's arithmetic
    reads that pair alone, so the accepted set and its alphas do not depend
    on the blocks, nor on the bbox as long as it holds every fragment.
    Fragments are returned sorted by (depth rank, pixel), and a splat
    covers a pixel at most once.
    """
    n_splats = splats.count
    rank, pix0, x0, y, run_len = _row_runs(splats.bbox, width)
    if rank.size == 0:
        empty = np.empty(0, dtype=np.int32)
        return np.empty(0, dtype=dt), empty, empty
    mean, ic = splats.mean2d, splats.inv_cov
    sig2 = np.inf if opts.cull_sigma is None else dt.type(opts.cull_sigma ** 2)
    if opts.alpha_cutoff > 0:
        with np.errstate(divide="ignore"):
            q_lim = 2.0 * np.log(opac / dt.type(opts.alpha_cutoff)) + dt.type(1e-5)
        q_cap = np.minimum(q_lim, sig2 + dt.type(1e-5))
    else:
        q_cap = np.full(n_splats, sig2, dtype=dt)
    ic00, ic01x2, ic11 = ic[:, 0, 0], 2.0 * ic[:, 0, 1], ic[:, 1, 1]

    # per-run parts of q: d1 and the d1*d1 term depend only on (splat, row)
    d1_run = y.astype(dt) - mean[rank, 1]
    q11_run = ic11[rank] * (d1_run * d1_run)

    run_start = np.cumsum(run_len) - run_len
    alphas, pixels, ranks = [], [], []
    for r0, r1 in _blocks(run_start, int(run_start[-1] + run_len[-1])):
        lens = run_len[r0:r1]
        step = (np.arange(run_start[r0], run_start[r0] + lens.sum())
                - np.repeat(run_start[r0:r1], lens)).astype(np.int32)
        s = np.repeat(rank[r0:r1], lens)
        d0 = (np.repeat(x0[r0:r1], lens) + step).astype(dt) - mean[s, 0]
        d1 = np.repeat(d1_run[r0:r1], lens)
        q = ic00[s] * (d0 * d0)
        q += ic01x2[s] * (d0 * d1)
        q += np.repeat(q11_run[r0:r1], lens)
        hit = np.flatnonzero(q <= q_cap[s])
        qv, sv = q[hit], s[hit]
        g = np.exp(-0.5 * qv)
        alpha = np.minimum(opac[sv] * g, dt.type(ALPHA_CLAMP))
        fine = alpha >= opts.alpha_cutoff if opts.alpha_cutoff > 0 else alpha > 0
        if opts.cull_sigma is not None:
            fine &= qv <= sig2
        hit = hit[fine]
        alphas.append(alpha[fine])
        pixels.append(np.repeat(pix0[r0:r1], lens)[hit] + step[hit])
        ranks.append(sv[fine].astype(np.int32))
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


def render(cloud: GaussianCloud, cam: CameraView,
           opts: RenderOptions | None = None) -> RenderOutput:
    """Rasterize the cloud into color and identity images with fragment records
    (int32 indices; 20 bytes per fragment in float32, the operator included)."""
    opts = opts or RenderOptions()
    dt = cloud.dtype
    h, w = cam.height, cam.width
    splats = project_cloud(cloud, cam, cull_sigma=opts.cull_sigma,
                           alpha_cutoff=opts.alpha_cutoff)
    opac = cloud.opacities[splats.index]

    alpha, pix, rank = _fragments(splats, opac, w, opts, dt)
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
    frag_source = splats.index[frag_splat]

    frag_tb, t_final = _transmittance(frag_alpha, frag_start)
    # frag_source is unique per splat, so each pixel row holds a source once
    weights = csr_array((frag_alpha * frag_tb, frag_source, frag_start),
                        shape=(h * w, cloud.n))
    feats = weights @ np.concatenate([cloud.colors, cloud.encodings], axis=1)
    color = feats[:, :3].copy()   # a kept image must not pin the identity channels

    return RenderOutput(color.reshape(h, w, 3), feats[:, 3:].reshape(h, w, cloud.dim),
                        t_final.reshape(h, w), frag_start, frag_source, frag_alpha,
                        frag_tb, frag_splat, splats, weights)


def _render_groups(cloud: GaussianCloud, cam: CameraView) -> RenderOutput:
    """Render with one-hot group vectors in place of identity encodings."""
    if cloud.n and np.any(cloud.group_ids < 0):
        raise ValueError("all Gaussians must have assigned groups")
    n_groups = int(cloud.group_ids.max()) + 1 if cloud.n else 1
    onehot = np.zeros((cloud.n, n_groups), dtype=cloud.dtype)
    onehot[np.arange(cloud.n), cloud.group_ids] = 1.0
    proxy = cloud.copy()
    proxy.encodings = onehot
    return render(proxy, cam)


def render_group_weights(cloud: GaussianCloud, cam: CameraView) -> np.ndarray:
    """Per-pixel blended weight per group: (H, W, G) with G = max group id + 1.

    Computed by blending one-hot group vectors through the standard compositing
    path, so weights match fragment-level regrouping exactly.
    """
    return _render_groups(cloud, cam).identity


def group_weight_mask(cloud: GaussianCloud, cam: CameraView) -> np.ndarray:
    """Instance-id mask from group weights: argmax group per pixel, background
    (id 0) where the total foreground weight 1 - T_final falls below
    semantic.FOREGROUND_THRESHOLD."""
    out = _render_groups(cloud, cam)
    mask = np.argmax(out.identity, axis=2).astype(np.uint8)
    mask[(1.0 - out.final_transmittance) < FOREGROUND_THRESHOLD] = 0
    return mask
