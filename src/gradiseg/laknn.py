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
are ordered by (distance, index). The batched search bounds each row's K-th
smallest admissible distance by the K-th smallest among every _STRIDE-th
column and sorts only the entries at or below that bound, which is exact for
any stride.

The KL loss is taken in closed form: the classifier head is linear, so every
per-pair term is D-wide, and the class-space work (a log-softmax giving each
Gaussian's logsumexp and softmax @ W) runs once per involved Gaussian, never
per pair. Log-softmax is exact, so no probability floor remains; an
underflowing class keeps its true log-probability (tests/oracles.py holds the
floored pairwise form).
"""

from __future__ import annotations

import warnings

import numpy as np

from .scene import GaussianCloud
from .semantic import ClassifierHead, softmax

EMA_FLOOR = 1e-12
_CHUNK = 128
_STRIDE = 8


def _sq_dists(pos: np.ndarray, sq: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared distances from pos[rows] to every position, built in place."""
    d = pos[rows] @ pos.T
    d *= -2.0
    d += sq
    d += sq[rows][:, None]
    return d


def _neighbor_pairs(cloud: GaussianCloud, targets: np.ndarray, k: int,
                    mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized neighbor selection for many targets. Returns flat (i, j)
    pairs, grouped by target in the order of `targets`, each target's
    neighbors ordered by (distance, index).

    A row admits d > floor: floor is 0 for a direction-aware row and -inf for
    a global or zero-EMA row, and d must be finite. The row's bound tau is
    its take-th smallest admissible value among columns 0, _STRIDE,
    2*_STRIDE, ...; those are admissible entries of the row, so its own
    take-th smallest is at most tau. The entries with floor < d <= tau are
    sorted by (value, index) and cut to take. A row whose sample holds fewer
    than take admissible values is bounded by the largest finite value.
    """
    pos = cloud.positions
    n = cloud.n
    take = min(k, max(n - 1, 0))
    if take == 0 or targets.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    sq = np.einsum("nj,nj->n", pos, pos)
    pair_i, pair_j = [], []
    for lo in range(0, targets.size, _CHUNK):
        tgt = targets[lo:lo + _CHUNK]
        floor = np.full(tgt.size, -np.inf, dtype=pos.dtype)
        if mode == "local-adaptive":
            ema = cloud.pos_grad_ema[tgt]
            norms = np.linalg.norm(ema, axis=1)
            local = norms >= EMA_FLOOR
            u = np.zeros_like(ema)
            u[local] = -ema[local] / norms[local, None]
            d = u @ pos.T
            d -= np.einsum("tj,tj->t", u, pos[tgt])[:, None]
            floor[local] = 0.0
            # zero-EMA targets fall back to global euclidean search
            if not local.all():
                d[~local] = _sq_dists(pos, sq, tgt[~local])
        else:
            d = _sq_dists(pos, sq, tgt)
        d[np.arange(tgt.size), tgt] = np.inf

        # a row's inadmissible sampled values sort before its admissible
        # ones and inf after them, so its bound sits at its own offset
        sample = np.sort(d[:, ::_STRIDE], axis=1)
        at = (sample <= floor[:, None]).sum(axis=1) + take - 1
        sampled = at < sample.shape[1]
        tau = np.full(tgt.size, np.inf, dtype=d.dtype)
        tau[sampled] = sample[sampled, at[sampled]]
        tau = np.minimum(tau, np.finfo(d.dtype).max)

        flat = np.flatnonzero((d > floor[:, None]) & (d <= tau[:, None]))
        row, col = np.divmod(flat, n)
        counts = np.bincount(row, minlength=tgt.size)
        start = np.cumsum(counts) - counts
        slot = np.arange(flat.size) - np.repeat(start, counts)
        # candidates enter each inf-padded row in index order, so a stable
        # sort orders them by (value, index)
        vals = np.full((tgt.size, counts.max(initial=0)), np.inf, dtype=d.dtype)
        vals[row, slot] = d.ravel()[flat]
        first = np.argsort(vals, axis=1, kind="stable")[:, :take]
        kept = np.arange(first.shape[1]) < counts[:, None]
        pair_i.append(np.repeat(tgt, np.minimum(counts, take)))
        pair_j.append(col[(start[:, None] + first)[kept]])
    return np.concatenate(pair_i), np.concatenate(pair_j)


def _scatter_add_rows(out: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """out[index] += rows with duplicate indices, via sort + reduceat
    (deterministic and much faster than np.add.at)."""
    order = np.argsort(index, kind="stable")
    idx_sorted = index[order]
    starts = np.nonzero(np.concatenate([[True], idx_sorted[1:] != idx_sorted[:-1]]))[0]
    sums = np.add.reduceat(rows[order], starts, axis=0)
    out[idx_sorted[starts]] += sums


def kl_pairs_loss(encodings: np.ndarray, head: ClassifierHead,
                  pair_i: np.ndarray, pair_j: np.ndarray,
                  head_grads: bool = False):
    """Mean KL(F(e_i) || F(e_j)) over the given pairs, with encoding gradients.

    Returns (loss, dL/dencodings, (dL/dW, dL/db) or None). The classifier is
    treated as a constant unless head_grads is set. Pairs may repeat, and a
    Gaussian may appear on both sides.

    The head is linear, so with z = W e + b, lse = logsumexp(z), p =
    softmax(z) and pw = p @ W, every pair term is D-wide:
    KL(i||j) = pw_i . (e_i - e_j) - (lse_i - lse_j),
    dKL/de_j = pw_j - pw_i and
    dKL/de_i = W^T (p_i * W (e_i - e_j)) - pw_i . (e_i - e_j) pw_i.
    Class-space work is done once per involved Gaussian r, on
    S_r = sum over pairs with i = r of (e_r - e_j).
    """
    n, d = encodings.shape
    dt = encodings.dtype
    grad_e = np.zeros((n, d), dtype=dt)
    if pair_i.size == 0:
        if head_grads:
            return 0.0, grad_e, (np.zeros_like(head.weights), np.zeros_like(head.biases))
        return 0.0, grad_e, None

    involved, inv = np.unique(np.concatenate([pair_i, pair_j]), return_inverse=True)
    ii, jj = inv[:pair_i.size], inv[pair_i.size:]
    r = involved.size
    m = pair_i.size
    e = encodings[involved]
    if not np.all(np.isfinite(e)):
        raise ValueError("features must be finite")
    w = head.weights
    z = e @ w.T
    z += head.biases
    p, lse = softmax(z)
    pw = p @ w

    de = e[ii] - e[jj]
    kl = np.einsum("pd,pd->p", pw[ii], de) - (lse[ii] - lse[jj])
    loss = float(kl.sum() / m)

    s = np.zeros((r, d), dtype=dt)
    _scatter_add_rows(s, ii, de)
    # gz = p * (S W^T - pw . S): the i-side gradient in class space
    gz = s @ w.T
    gz -= np.einsum("rd,rd->r", pw, s)[:, None]
    gz *= p
    ge_rows = gz @ w
    _scatter_add_rows(ge_rows, jj, pw[jj] - pw[ii])
    ge_rows /= m
    grad_e[involved] = ge_rows

    hg = None
    if head_grads:
        # row r's logits also take p_r - p_i from each pair (i, r). Against
        # the encodings that sums to (cnt_j - cnt_i) p e^T + p^T S, since
        # S_r = cnt_i e_r - (the sum of e_j over pairs (r, j)).
        cnt = (np.bincount(jj, minlength=r) - np.bincount(ii, minlength=r)).astype(dt)
        gz += cnt[:, None] * p
        hg = ((gz.T @ e + p.T @ s) / m, gz.sum(axis=0) / m)
    return loss, grad_e, hg


def loss_3d(cloud: GaussianCloud, head: ClassifierHead, m: int, k: int,
            mode: str, rng_seed, head_grads: bool = False):
    """Neighborhood-consistency loss: sample M targets, pull each toward its
    neighbors' class distributions via KL divergence.

    Missing neighbors (fewer than K candidates) shrink the averaging
    denominator. Returns (loss, dL/dencodings, head grads or None).
    """
    if mode not in ("global", "local-adaptive"):
        raise ValueError(f"unknown mode {mode!r}")
    n = cloud.n
    if m > n:
        warnings.warn(f"requested {m} samples from {n} Gaussians; clamping")
        m = n
    if n == 0 or m == 0:
        empty = np.zeros_like(cloud.encodings)
        return 0.0, empty, ((np.zeros_like(head.weights), np.zeros_like(head.biases))
                            if head_grads else None)
    rng = np.random.default_rng(rng_seed)
    targets = rng.choice(n, size=m, replace=False)
    pair_i, pair_j = _neighbor_pairs(cloud, targets, k, mode)
    return kl_pairs_loss(cloud.encodings, head, pair_i, pair_j, head_grads=head_grads)
