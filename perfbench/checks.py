"""Output checks computed apart from the engine.

Every reference here is written from the documented formulas, not from the
engine's code: its own quaternion, projection, depth sort and per-pixel
front-to-back loop; its own brute-force neighbour search with the
ascending-index tie rule, softmax and KL. A check raises CheckFailed; the
self-test (selftest.py) shows that each one fails on a corrupted output.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

NEAR = 0.01
DILATION = 0.3          # px^2 added to the projected covariance diagonal
SUPPORT_SIGMA = 3.0
ALPHA_CLAMP = 0.99
ALPHA_CUTOFF = 1.0 / 255.0
PROB_FLOOR = 1e-12

# Float32 engine against a float64 reference: a pixel whose fragments all sit
# clear of the support and cutoff thresholds must agree to PIXEL_ATOL. Pixels
# with a fragment within these relative margins of a threshold are skipped
# (counted), since one rounding step may add or drop that fragment.
PIXEL_ATOL = 1e-4
Q_MARGIN = 1e-4
ALPHA_MARGIN = 1e-4
# Neighbour ranks can swap between a float32 expanded-square distance and an
# exact float64 one when two candidates are within ~1e-5 of each other.
LOSS_3D_RTOL = 1e-3
# Stored images are rint(float32(c) * 255): the half-way decision is made on a
# float32 product, so a pixel may sit 0.5/255 plus one float32 rounding step
# (~2e-8 seen) from the value it encodes.
IMAGE_ATOL = 0.5 / 255.0 + 1e-7


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def _quat_matrix(q: np.ndarray) -> np.ndarray:
    """(N, 4) wxyz quaternions -> (N, 3, 3) rotations, float64."""
    q = q.astype(np.float64)
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], 1)


def composite_pixels(cloud, cam, pixels, background=(0.0, 0.0, 0.0)):
    """Reference colour, identity and final transmittance at (x, y) pixels.

    Returns (color (P, 3), identity (P, D), transmittance (P,), ambiguous (P,)
    bool) where `ambiguous` marks pixels with a fragment on a threshold.
    """
    pos = cloud.positions.astype(np.float64)
    w2c = np.asarray(cam.world_to_camera, dtype=np.float64)
    rot_cw, t_cw = w2c[:3, :3], w2c[:3, 3]
    t = pos @ rot_cw.T + t_cw
    z = t[:, 2]
    front = z > NEAR
    zs = np.where(front, z, 1.0)
    if cam.mode == "pinhole":
        mean = np.stack([cam.fx * t[:, 0] / zs + cam.cx, cam.fy * t[:, 1] / zs + cam.cy], 1)
        jac = np.zeros((cloud.n, 2, 3))
        jac[:, 0, 0] = cam.fx / zs
        jac[:, 1, 1] = cam.fy / zs
        jac[:, 0, 2] = -cam.fx * t[:, 0] / zs ** 2
        jac[:, 1, 2] = -cam.fy * t[:, 1] / zs ** 2
    else:
        mean = np.stack([cam.fx * t[:, 0] + cam.cx, cam.fy * t[:, 1] + cam.cy], 1)
        jac = np.zeros((cloud.n, 2, 3))
        jac[:, 0, 0] = cam.fx
        jac[:, 1, 1] = cam.fy
    rg = _quat_matrix(cloud.rotations)
    s2 = cloud.scales.astype(np.float64) ** 2
    cov3 = np.einsum("nij,nj,nkj->nik", rg, s2, rg)
    a = jac @ rot_cw
    cov2 = np.einsum("nij,njk,nlk->nil", a, cov3, a)
    cov2[:, 0, 0] += DILATION
    cov2[:, 1, 1] += DILATION
    det = cov2[:, 0, 0] * cov2[:, 1, 1] - cov2[:, 0, 1] * cov2[:, 1, 0]
    opac = cloud.opacities.astype(np.float64)
    colors = cloud.colors.astype(np.float64)
    enc = cloud.encodings.astype(np.float64)
    bg = np.asarray(background, dtype=np.float64)

    p = len(pixels)
    out_c, out_e = np.zeros((p, 3)), np.zeros((p, cloud.dim))
    out_t, ambiguous = np.ones(p), np.zeros(p, dtype=bool)
    for k, (x, y) in enumerate(pixels):
        dx, dy = x - mean[:, 0], y - mean[:, 1]
        q = (cov2[:, 1, 1] * dx * dx - 2 * cov2[:, 0, 1] * dx * dy
             + cov2[:, 0, 0] * dy * dy) / det
        alpha = np.minimum(ALPHA_CLAMP, opac * np.exp(-0.5 * q))
        limit = SUPPORT_SIGMA ** 2
        near_edge = front & ((np.abs(q - limit) <= Q_MARGIN * limit)
                             | (np.abs(alpha - ALPHA_CUTOFF) <= ALPHA_MARGIN * ALPHA_CUTOFF))
        ambiguous[k] = bool(near_edge.any())
        hit = np.nonzero(front & (q <= limit) & (alpha >= ALPHA_CUTOFF))[0]
        order = hit[np.lexsort((hit, z[hit]))]
        trans, col, ident = 1.0, np.zeros(3), np.zeros(cloud.dim)
        for i in order:
            w = alpha[i] * trans
            col += w * colors[i]
            ident += w * enc[i]
            trans *= 1.0 - alpha[i]
        out_c[k], out_e[k], out_t[k] = col + trans * bg, ident, trans
    return out_c, out_e, out_t, ambiguous


def sample_pixels(rng, out, count: int):
    """Pixels to re-render: half where the engine's image is covered, half
    anywhere. The engine output only steers sampling, it is never trusted."""
    h, w = out.final_transmittance.shape
    covered = np.argwhere(out.final_transmittance < 0.999)
    picks = []
    if len(covered):
        picks += [tuple(covered[i][::-1]) for i in
                  rng.choice(len(covered), size=min(count // 2, len(covered)), replace=False)]
    flat = rng.choice(h * w, size=count - len(picks), replace=False)
    picks += [(int(f % w), int(f // w)) for f in flat]
    return [(int(x), int(y)) for x, y in picks]


def check_render(cloud, cam, out, pixels, background=(0.0, 0.0, 0.0)) -> int:
    """Engine colour, identity and transmittance at `pixels` against the
    scalar compositor. Returns the number of pixels compared."""
    ref_c, ref_e, ref_t, amb = composite_pixels(cloud, cam, pixels, background)
    compared = 0
    for k, (x, y) in enumerate(pixels):
        if amb[k]:
            continue
        compared += 1
        err = max(np.max(np.abs(out.color[y, x] - ref_c[k])),
                  np.max(np.abs(out.identity[y, x] - ref_e[k])),
                  abs(float(out.final_transmittance[y, x]) - ref_t[k]))
        if not err <= PIXEL_ATOL:
            raise CheckFailed("render", f"pixel ({x}, {y}) differs by {err:.3g}")
    if compared < len(pixels) // 2:
        raise CheckFailed("render", f"only {compared} of {len(pixels)} pixels clear of thresholds")
    return compared


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def brute_neighbors(pos, ema, targets, k: int, mode: str, chunk: int = 128):
    """Exhaustive k neighbours per target, ordered by (distance, index).

    Global: squared Euclidean distance. Local-adaptive: projection distance
    onto u = -ema/|ema|, strictly positive only; a target whose EMA norm is
    below 1e-12 uses the global rule. Every candidate's distance is computed;
    all candidates at or below the k-th smallest value are then ordered by
    (distance, index) and the first k kept.
    """
    n = pos.shape[0]
    pairs_i, pairs_j = [], []
    for lo in range(0, len(targets), chunk):
        tgt = np.asarray(targets[lo:lo + chunk])
        diff = pos[None, :, :] - pos[tgt][:, None, :]
        d = np.einsum("tnj,tnj->tn", diff, diff)
        if mode == "local-adaptive":
            g = ema[tgt]
            norm = np.sqrt(np.einsum("tj,tj->t", g, g))
            local = norm >= 1e-12
            u = -g[local] / norm[local, None]
            proj = np.einsum("tnj,tj->tn", diff[local], u)
            d[local] = np.where(proj > 0, proj, np.inf)
        d[np.arange(tgt.size), tgt] = np.inf
        take = min(k, n - 1)
        kth = np.partition(d, take - 1, axis=1)[:, take - 1]
        rows, cols = np.nonzero((d <= kth[:, None]) & np.isfinite(d))
        order = np.lexsort((cols, d[rows, cols], rows))
        rows, cols = rows[order], cols[order]
        first = np.searchsorted(rows, rows, side="left")
        keep = np.arange(rows.size) - first < take
        pairs_i.append(tgt[rows[keep]])
        pairs_j.append(cols[keep])
    return np.concatenate(pairs_i), np.concatenate(pairs_j)


def reference_loss_3d(cloud, head, m: int, k: int, mode: str, rng_seed) -> float:
    """Mean KL(P_i || P_j) over brute-force neighbour pairs of M targets drawn
    as the engine documents: default_rng(seed).choice(N, M, replace=False)."""
    targets = np.random.default_rng(rng_seed).choice(cloud.n, size=m, replace=False)
    pos = cloud.positions.astype(np.float64)
    ema = cloud.pos_grad_ema.astype(np.float64)
    pi, pj = brute_neighbors(pos, ema, targets, k, mode)
    if pi.size == 0:
        return 0.0
    logits = (cloud.encodings.astype(np.float64) @ head.weights.astype(np.float64).T
              + head.biases.astype(np.float64))
    p = _softmax(logits)
    logp = np.log(np.maximum(p, PROB_FLOOR))
    kl = np.einsum("pc,pc->p", p[pi], logp[pi] - logp[pj])
    return float(kl.sum() / pi.size)


def probe_head(encodings: np.ndarray, num_classes: int, rng):
    """(weights, biases) of a seeded random classifier scaled so logits spread by about 2 across the
    cloud. A head trained for a few dozen iterations is nearly uniform: its
    KL terms sit near 1e-8, where float32 cancellation dominates and a wrong
    neighbour would not show. Under this head a wrong neighbour does."""
    d = encodings.shape[1]
    w = rng.standard_normal((num_classes, d))
    spread = float(np.std(encodings.astype(np.float64) @ w.T)) or 1.0
    w *= 2.0 / spread
    return w.astype(encodings.dtype), np.zeros(num_classes, dtype=encodings.dtype)


def check_loss_3d(engine_loss: float, ref_loss: float, mode: str) -> None:
    if not (math.isfinite(engine_loss)
            and abs(engine_loss - ref_loss) <= LOSS_3D_RTOL * abs(ref_loss) + 1e-12):
        raise CheckFailed(f"loss_3d[{mode}]", f"engine {engine_loss!r} vs reference {ref_loss!r}")


def cloud_arrays(cloud, head) -> dict:
    """Everything GSEG1 stores, as raw bytes per field."""
    return {"positions": cloud.positions, "scales": cloud.scales,
            "rotations": cloud.rotations, "opacities": cloud.opacities,
            "colors": cloud.colors, "encodings": cloud.encodings,
            "group_ids": cloud.group_ids, "head_weights": head.weights,
            "head_biases": head.biases}


def check_same_scene(expect, got, what: str) -> None:
    """Bit-for-bit equality of two (cloud, head) pairs, field by field."""
    a, b = cloud_arrays(*expect), cloud_arrays(*got)
    for name in a:
        x, y = np.asarray(a[name]), np.asarray(b[name])
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            raise CheckFailed(what, f"field {name} differs")


def check_metrics_csv(text: str, alpha: float, beta: float) -> int:
    """Every row finite; the total objective L1 + a*L2d + b*L3d ends below
    its first logged value. Returns the number of rows."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) < 2:
        raise CheckFailed("metrics.csv", f"{len(rows)} rows, need at least 2")
    totals = []
    for r in rows:
        vals = {k: float(v) for k, v in r.items()}
        if not all(math.isfinite(v) for v in vals.values()):
            raise CheckFailed("metrics.csv", f"non-finite value at iteration {r['iter']}")
        totals.append(vals["l1"] + alpha * vals["l2d"] + beta * vals["l3d"])
    if not totals[-1] < totals[0]:
        raise CheckFailed("metrics.csv", f"objective {totals[0]:.6g} -> {totals[-1]:.6g}")
    return len(rows)


def check_mask_equal(pred: np.ndarray, gt: np.ndarray) -> None:
    if pred.shape != gt.shape or not np.array_equal(pred, gt):
        bad = int(np.sum(pred != gt)) if pred.shape == gt.shape else -1
        raise CheckFailed("segment", f"{bad} mask pixels differ from the dataset")


def check_image(color: np.ndarray, stored: np.ndarray) -> None:
    err = float(np.max(np.abs(np.clip(color, 0.0, 1.0) - stored)))
    if not err <= IMAGE_ATOL:
        raise CheckFailed("image", f"pixel off the stored 8-bit image by {err * 255:.3f}/255")


def check_removed(mask: np.ndarray, gid: int) -> None:
    if np.any(mask == gid):
        raise CheckFailed("remove_group", f"group {gid} still covers {int(np.sum(mask == gid))} pixels")


def check_extracted(mask: np.ndarray, gid: int) -> None:
    extra = set(np.unique(mask).tolist()) - {0, gid}
    if extra:
        raise CheckFailed("extract_group", f"groups {sorted(extra)} remain after extracting {gid}")


def check_recolored(before, after, gid: int, rgb) -> None:
    """Only group gid's colour rows change, and they become rgb."""
    for name in ("positions", "scales", "rotations", "opacities", "encodings", "group_ids"):
        if getattr(before, name).tobytes() != getattr(after, name).tobytes():
            raise CheckFailed("recolor_group", f"field {name} changed")
    rows = before.group_ids == gid
    want = np.asarray(rgb, dtype=before.colors.dtype)
    if not (np.array_equal(after.colors[~rows], before.colors[~rows])
            and np.all(after.colors[rows] == want)):
        raise CheckFailed("recolor_group", f"colour rows outside group {gid} changed or group not recoloured")
