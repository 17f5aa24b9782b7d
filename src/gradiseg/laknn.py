"""Neighbor selection (global and direction-aware) and the 3D consistency loss.

The direction-aware variant keeps only candidates with a strictly positive
projection distance d_j = (p_j - p_i) . u onto the query direction u and takes
the K smallest, so neighbors behind or perpendicular to u are excluded. u is
the target's negated, normalized position-gradient EMA; targets whose EMA is
(numerically) zero fall back to global search. Both search modes are
contractually identical to exhaustive search, including the ascending-index
tie rule (tests/oracles.py holds the scalar reference searches).

Pair order is part of the contract, since the KL loss sums pairs in order:
pairs are grouped by target in sampling order, and each target's neighbors
are ordered by (distance, index). Global distances are float64 squared
distances recomputed from the coordinates, as the oracle forms them: one
cKDTree over all positions proposes candidates, and a row whose candidates
cannot prove its K-th neighbour is asked again with more. The dense
direction-aware search forms projections for _CHUNK targets at a time. It
bounds each row's K-th smallest positive projection by the largest of the
minima of K contiguous column groups, which is exact for any grouping,
keeps the entries at or below that bound with one compare of the float
bits, and orders the candidates of all chunks at once.

The KL loss is taken in closed form: the classifier head is linear, so every
per-pair term is D-wide, and the class-space work (a log-softmax giving each
Gaussian's logsumexp and softmax @ W) runs once per involved Gaussian, never
per pair, and once per distinct head row, never per repeated class. Per-pair
rows are summed per Gaussian through a sparse incidence matrix, in pair
order. Log-softmax is exact, so no probability floor remains; an
underflowing class keeps its true log-probability (tests/oracles.py holds the
floored pairwise form).
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.sparse import csc_array

from .scene import GaussianCloud
from .semantic import ClassifierHead, class_groups, softmax

EMA_FLOOR = 1e-12
_CHUNK = 32
# relative gap by which a row's take-th tree candidate must undercut the
# tree's last distance (float64 rounding of either is ~1e-16 relative)
_TREE_MARGIN = 1e-9


def _projections(pos1: np.ndarray, tgt: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The (targets, N) block d[t, j] = (p_j - p_t) . u_t, inf at each
    target's own column, from pos1 = [pos^T; 1], a contiguous (4, N) array:
    one product [u | -u . p_t] @ pos1. A lone target is computed inside a
    two-row product: BLAS rounds a one-row float32 product (gemv)
    differently from a many-row one (gemm), which rounds a float32 row alike
    at any size."""
    m = tgt.size
    ua = np.empty((max(m, 2), 4), dtype=pos1.dtype)
    ua[:m, :3] = u
    ua[:m, 3] = -np.einsum("tj,jt->t", u, pos1[:3, tgt])
    ua[m:] = ua[:1]
    d = (ua @ pos1)[:m]
    d[np.arange(m), tgt] = np.inf
    return d


def _direction_neighbors(pos: np.ndarray, tgt: np.ndarray, u: np.ndarray,
                         take: int) -> np.ndarray:
    """Direction-aware neighbours of the targets `tgt` along unit directions
    `u`, as a (targets, take) array padded with -1 after a row's last
    neighbour, each row ordered by (distance, index).

    A row admits d > 0. Read as unsigned integers, float bits order +0 <
    positives < inf < NaN < negatives. A row's N columns split into take
    contiguous groups, and its bound tau is the largest of their minima in
    that order. When every minimum is positive and finite, each group holds
    an entry with 0 < d <= tau, so the row's take-th smallest admissible
    value is at most tau; otherwise tau is the largest finite value. One
    unsigned compare against tau keeps every candidate and the +0 entries,
    which are dropped. The candidates of all chunks are ordered once, by
    (row, value, index), and each row is cut to take.
    """
    n = pos.shape[0]
    dt = np.result_type(u, pos)
    uint = np.dtype(f"u{dt.itemsize}")
    top = np.array(np.finfo(dt).max, dtype=dt).view(uint)
    starts = np.arange(take) * n // take   # take <= n - 1: no group is empty
    pos1 = np.ones((4, n), dtype=dt)
    pos1[:3] = pos.T
    rows, cols, vals = [], [], []
    for lo in range(0, tgt.size, _CHUNK):
        d = _projections(pos1, tgt[lo:lo + _CHUNK], u[lo:lo + _CHUNK])
        bits = d.view(uint)
        low = np.minimum.reduceat(bits, starts, axis=1)
        tau = low.max(axis=1)
        tau[((low == 0) | (low > top)).any(axis=1)] = top
        flat = np.flatnonzero(bits <= tau[:, None])
        val = d.ravel()[flat]
        admit = val != 0
        row, col = np.divmod(flat[admit], n)
        rows.append(row + lo)
        cols.append(col)
        vals.append(val[admit])
    row, col, val = (np.concatenate(a) for a in (rows, cols, vals))
    # complex numbers sort by real part, then imaginary part, and the
    # candidates arrive in (row, index) order, so one stable sort of
    # row + i * value orders them by (row, value, index)
    key = np.empty(row.size, dtype=np.complex128)
    key.real, key.imag = row, val
    order = np.argsort(key, kind="stable")
    row, col = row[order], col[order]
    counts = np.bincount(row, minlength=tgt.size)
    slot = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    keep = slot < take
    out = np.full((tgt.size, take), -1, dtype=np.int64)
    out[row[keep], slot[keep]] = col[keep]
    return out


def _tree_neighbors(pos: np.ndarray, tgt: np.ndarray, take: int) -> np.ndarray:
    """Euclidean neighbours of the targets `tgt`, as a (targets, take) array,
    each row ordered by (distance, index) of float64 squared distances.

    One cKDTree proposes kq candidates per row; their distances are
    recomputed from the coordinates, so the tree's arithmetic picks nothing.
    Every point the tree did not return lies at least its kq-th distance
    away, so a row is exact once its take-th recomputed distance lies
    strictly below that by _TREE_MARGIN; other rows (ties at the boundary,
    more than kq coincident points) are asked again with twice the kq.
    """
    from scipy.spatial import cKDTree  # training only: serving never loads it

    n = pos.shape[0]
    pos64 = pos.astype(np.float64)
    tree = cKDTree(pos64)
    out = np.empty((tgt.size, take), dtype=np.int64)
    rows = np.arange(tgt.size)
    kq = min(take + 2, n)  # the target itself, take neighbours and one beyond
    while rows.size:
        t = tgt[rows]
        dist, idx = tree.query(pos64[t], k=kq)
        dist, idx = dist.reshape(t.size, kq), idx.reshape(t.size, kq)
        diff = np.take(pos64, idx, axis=0) - pos64[t][:, None, :]
        d = np.einsum("rkj,rkj->rk", diff, diff)
        d[idx == t[:, None]] = np.inf
        order = np.lexsort((idx, d), axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        d = np.take_along_axis(d, order, axis=1)
        exact = (d[:, take - 1] < dist[:, -1] ** 2 * (1.0 - _TREE_MARGIN)) | (kq == n)
        out[rows[exact]] = idx[exact, :take]
        rows = rows[~exact]
        kq = min(2 * kq, n)
    return out


def _neighbor_pairs(cloud: GaussianCloud, targets: np.ndarray, k: int,
                    mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor selection for many targets. Returns flat (i, j) pairs,
    grouped by target in the order of `targets`, each target's neighbors
    ordered by (distance, index). Direction-aware rows search densely in
    chunks of _CHUNK targets; global and zero-EMA rows query one KD-tree.
    """
    pos = cloud.positions
    take = min(k, max(cloud.n - 1, 0))
    if take == 0 or targets.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    nb = np.empty((targets.size, take), dtype=np.int64)
    fallback = np.ones(targets.size, dtype=bool)
    if mode == "local-adaptive":
        ema = cloud.pos_grad_ema[targets]
        norms = np.linalg.norm(ema, axis=1)
        fallback = norms < EMA_FLOOR
        local = np.flatnonzero(~fallback)
        if local.size:
            u = -ema[local] / norms[local, None]
            nb[local] = _direction_neighbors(pos, targets[local], u, take)
    # zero-EMA targets fall back to global euclidean search
    if fallback.any():
        nb[fallback] = _tree_neighbors(pos, targets[fallback], take)
    kept = nb >= 0
    return np.repeat(targets, kept.sum(axis=1)), nb[kept]


def _pair_sums(index: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """out[r] = the sum of rows[p] over pairs p with index[p] == r, added in
    pair order. The incidence matrix is CSC with one entry per pair column,
    and its product adds each column into its row in column order."""
    incidence = csc_array((np.ones(index.size, dtype=rows.dtype), index,
                           np.arange(index.size + 1)), shape=(size, index.size))
    return incidence @ rows


def kl_pairs_loss(encodings: np.ndarray, head: ClassifierHead,
                  pair_i: np.ndarray, pair_j: np.ndarray):
    """Mean KL(F(e_i) || F(e_j)) over the given pairs, with encoding gradients.

    Returns (loss, dL/dencodings). The classifier head is a constant of this
    loss: L3d trains the encodings only. Pairs may repeat, and a Gaussian may
    appear on both sides.

    The head is linear, so with z = W e + b, lse = logsumexp(z), p =
    softmax(z) and pw = p @ W, every pair term is D-wide:
    KL(i||j) = pw_i . (e_i - e_j) - (lse_i - lse_j),
    dKL/de_j = pw_j - pw_i and
    dKL/de_i = W^T (p_i * W (e_i - e_j)) - pw_i . (e_i - e_j) pw_i.
    Class-space work is done once per involved Gaussian r, on
    S_r = sum over pairs with i = r of (e_r - e_j), and once per distinct
    head row (semantic.class_groups).
    """
    grad_e = np.zeros(encodings.shape, dtype=encodings.dtype)
    if pair_i.size == 0:
        return 0.0, grad_e

    involved, inv = np.unique(np.concatenate([pair_i, pair_j]), return_inverse=True)
    ii, jj = inv[:pair_i.size], inv[pair_i.size:]
    r = involved.size
    m = pair_i.size
    e = encodings[involved]
    if not np.all(np.isfinite(e)):
        raise ValueError("features must be finite")
    groups = class_groups(head)
    w = groups.head.weights
    z = e @ w.T
    z += groups.head.biases
    p, lse = softmax(z, groups.size)
    pw = groups.weigh(p) @ w

    de = e[ii] - e[jj]
    kl = np.einsum("pd,pd->p", pw[ii], de) - (lse[ii] - lse[jj])
    loss = float(kl.sum() / m)

    s = _pair_sums(ii, de, r)
    # gz = p * (S W^T - pw . S): the i-side gradient in class space
    gz = s @ w.T
    gz -= np.einsum("rd,rd->r", pw, s)[:, None]
    gz *= p
    ge_rows = groups.weigh(gz) @ w
    ge_rows += _pair_sums(jj, pw[jj] - pw[ii], r)
    ge_rows /= m
    grad_e[involved] = ge_rows
    return loss, grad_e


def loss_3d(cloud: GaussianCloud, head: ClassifierHead, m: int, k: int,
            mode: str, rng_seed):
    """Neighborhood-consistency loss: sample M targets, pull each toward its
    neighbors' class distributions via KL divergence.

    Missing neighbors (fewer than K candidates) shrink the averaging
    denominator. Returns (loss, dL/dencodings); the head is a constant of
    L3d.
    """
    if mode not in ("global", "local-adaptive"):
        raise ValueError(f"unknown mode {mode!r}")
    n = cloud.n
    if m > n:
        warnings.warn(f"requested {m} samples from {n} Gaussians; clamping")
        m = n
    if n == 0 or m == 0:
        return 0.0, np.zeros_like(cloud.encodings)
    rng = np.random.default_rng(rng_seed)
    targets = rng.choice(n, size=m, replace=False)
    pair_i, pair_j = _neighbor_pairs(cloud, targets, k, mode)
    return kl_pairs_loss(cloud.encodings, head, pair_i, pair_j)
