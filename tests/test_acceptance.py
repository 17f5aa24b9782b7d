"""Acceptance suite. One test per criterion; each prints a PASS line with the
measured numbers when it succeeds (run with -s to see them).

Criteria 1-5: gradient correctness, the forward oracle, the neighbour-search
oracle, KL-loss properties and the densification unit suite. Criteria 1-3
spread independent checks over one worker process per CPU this process may
run on. The end-to-end criteria (the desk run, ablation direction, PSNR
non-degradation, determinism) are not written yet: item 5 of ROADMAP.md.
"""

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import make_camera, random_cloud, reference_render
from gradiseg.backward import backward
from gradiseg.camera import CameraView, look_at
from gradiseg.laknn import _neighbor_pairs, kl_pairs_loss, loss_3d
from gradiseg.render import RenderOptions, render
from gradiseg.scene import GaussianCloud
from gradiseg.semantic import ClassifierHead, loss_2d
from gradiseg.trainer import l1_loss
from oracles import global_neighbors, local_adaptive_neighbors

RNG_BASE = 20260810
WORKERS = len(os.sched_getaffinity(0))


def report(criterion, message):
    print(f"\n[ACCEPTANCE] criterion {criterion}: PASS - {message}")


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness vs central finite differences
# ---------------------------------------------------------------------------

FD_H = 1e-5
N_GAUSS = 8
DIM = 4
NUM_CLASSES = 5
IMG = 8


def _fd_config(seed):
    """A random double-precision configuration kept away from the renderer's
    non-smooth points: opacities off the clamp, depths off the near plane,
    photometric targets with an L1 sign margin, and neighbor sets with a
    distance margin so L3d's discrete selection is locally constant."""
    rng = np.random.default_rng((RNG_BASE, seed))
    cam = CameraView(look_at((0.0, 0.0, -3.0), (0.0, 0.0, 0.0)),
                     fx=26.0, fy=29.0, cx=IMG / 2.0, cy=IMG / 2.0,
                     width=IMG, height=IMG)
    while True:
        cloud = random_cloud(rng, N_GAUSS, dim=DIM, dtype=np.float64,
                             opacity_range=(0.1, 0.85))
        # well-separated depths keep the composite order stable under +-h
        depths = cloud.positions[:, 2]
        if np.diff(np.sort(depths)).min() < 1e-3:
            continue
        # stable neighbor sets: margin between kth and (k+1)th distance
        ok = True
        for i in range(N_GAUSS):
            d = np.linalg.norm(cloud.positions - cloud.positions[i], axis=1)
            d[i] = np.inf
            srt = np.sort(d)
            if srt[2] - srt[1] < 1e-3 or srt[1] < 1e-3:
                ok = False
                break
        if ok:
            break
    head = ClassifierHead(rng.standard_normal((NUM_CLASSES, DIM)) * 0.5,
                          rng.standard_normal(NUM_CLASSES) * 0.5)
    mask = rng.integers(0, NUM_CLASSES, (IMG, IMG)).astype(np.uint8)
    opts = RenderOptions.smooth()
    base = render(cloud, cam, opts=opts)
    target = rng.uniform(0.0, 1.0, (IMG, IMG, 3))
    # L1 sign margin: keep |C - I| >= 1e-3 everywhere
    close = np.abs(base.color - target) < 1e-3
    target[close] = np.clip(base.color[close] + 0.1, 0.0, 1.2)
    return cloud, cam, head, mask, target, opts


def _losses(cloud, cam, head, mask, target, opts):
    out = render(cloud, cam, opts=opts)
    l1, _ = l1_loss(out.color, target)
    l2, _, _ = loss_2d(out.identity, mask, head)
    l3, _ = loss_3d(cloud, head, 5, 2, "global", (RNG_BASE, 33))
    return l1, l2, l3


PERTURB = {
    "positions": lambda c, ix, d: c.positions.__setitem__(ix, c.positions[ix] + d),
    "log_scales": lambda c, ix, d: c.scales.__setitem__(
        ix, np.exp(np.log(c.scales[ix]) + d)),
    "rotations": lambda c, ix, d: c.rotations.__setitem__(ix, c.rotations[ix] + d),
    "logit_opacities": lambda c, ix, d: c.opacities.__setitem__(
        ix, 1.0 / (1.0 + np.exp(-(np.log(c.opacities[ix] / (1 - c.opacities[ix])) + d)))),
    "colors": lambda c, ix, d: c.colors.__setitem__(ix, c.colors[ix] + d),
    "encodings": lambda c, ix, d: c.encodings.__setitem__(ix, c.encodings[ix] + d),
}

SHAPE_OF = {"positions": (N_GAUSS, 3), "log_scales": (N_GAUSS, 3),
            "rotations": (N_GAUSS, 4), "logit_opacities": (N_GAUSS,),
            "colors": (N_GAUSS, 3), "encodings": (N_GAUSS, DIM)}


def _grad_close(analytic, numeric):
    return np.abs(analytic - numeric) <= np.maximum(1e-7, 1e-4 * np.abs(numeric))


def _check_one_config(seed):
    cloud, cam, head, mask, target, opts = _fd_config(seed)
    out = render(cloud, cam, opts=opts)
    _, d_color = l1_loss(out.color, target)
    _, d_ident, (hw2, hb2) = loss_2d(out.identity, mask, head)
    zeros_c = np.zeros_like(d_color)
    zeros_e = np.zeros_like(d_ident)
    g1 = backward(cloud, cam, out, np.concatenate([d_color, zeros_e], axis=2))
    g2 = backward(cloud, cam, out, np.concatenate([zeros_c, d_ident], axis=2))
    _, ge3 = loss_3d(cloud, head, 5, 2, "global", (RNG_BASE, 33))
    analytic = {
        0: g1, 1: g2,
        2: {"encodings": ge3},  # L3d touches only encodings among cloud params
    }

    failures = []
    entries = 0
    for family, shape in SHAPE_OF.items():
        for ix in np.ndindex(*shape):
            cp = cloud.copy()
            PERTURB[family](cp, ix, +FD_H)
            lp = _losses(cp, cam, head, mask, target, opts)
            cm = cloud.copy()
            PERTURB[family](cm, ix, -FD_H)
            lm = _losses(cm, cam, head, mask, target, opts)
            fd = [(a - b) / (2 * FD_H) for a, b in zip(lp, lm)]
            for li in range(3):
                if li < 2:
                    a = getattr(analytic[li], family)[ix]
                else:
                    a = ge3[ix] if family == "encodings" else 0.0
                entries += 1
                if not _grad_close(a, fd[li]):
                    failures.append((seed, family, ix, li, a, fd[li]))

    # head parameters: L2d only, since the head is a constant of L3d
    def l2_of(h):
        return loss_2d(render(cloud, cam, opts=opts).identity, mask, h)[0]

    for ix in np.ndindex(*head.weights.shape):
        hp, hm = head.copy(), head.copy()
        hp.weights[ix] += FD_H
        hm.weights[ix] -= FD_H
        fd2 = (l2_of(hp) - l2_of(hm)) / (2 * FD_H)
        entries += 1
        if not _grad_close(hw2[ix], fd2):
            failures.append((seed, "head_w", ix, 1, hw2[ix], fd2))
    for c in range(NUM_CLASSES):
        hp, hm = head.copy(), head.copy()
        hp.biases[c] += FD_H
        hm.biases[c] -= FD_H
        fd2 = (l2_of(hp) - l2_of(hm)) / (2 * FD_H)
        entries += 1
        if not _grad_close(hb2[c], fd2):
            failures.append((seed, "head_b", c, 1, hb2[c], fd2))
    return entries, failures


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    total_entries = 0
    failures = []
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        for entries, fails in pool.map(_check_one_config, range(100)):
            total_entries += entries
            failures.extend(fails)
    elapsed = time.time() - t0
    assert not failures, f"gradient mismatches: {failures[:5]}"
    assert elapsed <= 120.0, f"criterion 1 exceeded runtime budget: {elapsed:.0f}s"
    report(1, f"{total_entries} gradient entries on 100 configs matched FD "
              f"(rel 1e-4 / abs 1e-7) in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 2: forward oracle + weight conservation
# ---------------------------------------------------------------------------

def _check_forward_scene(seed):
    rng = np.random.default_rng((RNG_BASE, 2, seed))
    cloud = random_cloud(rng, 40, dim=4, dtype=np.float64)
    cam = make_camera(width=24, height=24)
    out = render(cloud, cam)
    ref_color, ref_ident, ref_t, _ = reference_render(cloud, cam)
    color_err = float(np.abs(out.color - ref_color).max())
    ident_err = float(np.abs(out.identity - ref_ident).max())
    total = np.zeros(24 * 24)
    w = out.frag_alpha * out.frag_t_before
    np.add.at(total, np.repeat(np.arange(24 * 24), np.diff(out.frag_start)), w)
    cons_err = float(np.abs(total + out.final_transmittance.ravel() - 1.0).max())
    return color_err, ident_err, cons_err


def test_criterion_2_forward_oracle():
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(_check_forward_scene, range(20)))
    color_err = max(r[0] for r in results)
    ident_err = max(r[1] for r in results)
    cons_err = max(r[2] for r in results)
    assert color_err <= 1e-6, color_err
    assert ident_err <= 1e-6, ident_err
    assert cons_err <= 1e-5, cons_err
    report(2, f"20 scenes: max |render - naive| color {color_err:.2e}, identity "
              f"{ident_err:.2e}; weight conservation {cons_err:.2e}")


# ---------------------------------------------------------------------------
# Criterion 3: neighbor search equals exhaustive search
# ---------------------------------------------------------------------------

def _exhaustive_local(points, i, u, k):
    cands = sorted((float(np.dot(p - points[i], u)), j)
                   for j, p in enumerate(points) if j != i)
    cands = [(d, j) for d, j in cands if d > 0]
    return sorted(j for _, j in cands[:k])


def _exhaustive_global(points, i, k):
    cands = sorted((float(np.dot(p - points[i], p - points[i])), j)
                   for j, p in enumerate(points) if j != i)
    return sorted(j for _, j in cands[:k])


def _check_knn_cloud(seed):
    """Each query is checked four ways: the scalar oracles and the engine's
    batched search (one target, its EMA set to -u), each in both modes."""
    rng = np.random.default_rng((RNG_BASE, 3, seed))
    n = int(rng.integers(50, 2001))
    pts = rng.uniform(-1, 1, (n, 3))
    quat = np.tile([1.0, 0, 0, 0], (n, 1))
    cloud = GaussianCloud(pts, np.full((n, 3), 0.1), quat, np.full(n, 0.5),
                          np.full((n, 3), 0.5), np.zeros((n, 2)))
    oracle_checked = engine_checked = 0
    for _ in range(4):
        i = int(rng.integers(n))
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        cloud.pos_grad_ema[i] = -u
        for k in (1, 5, 20):
            want = _exhaustive_local(pts, i, u, k)
            want_g = _exhaustive_global(pts, i, k)
            got = local_adaptive_neighbors(cloud, i, u, k)
            if sorted(got.tolist()) != want:
                return False, n, i, k, "local"
            assert all((pts[j] - pts[i]) @ u > 0 for j in got)
            got_g = global_neighbors(cloud, i, k)
            if sorted(got_g.tolist()) != want_g:
                return False, n, i, k, "global"
            oracle_checked += 2
            for mode, expect in (("local-adaptive", want), ("global", want_g)):
                pi, pj = _neighbor_pairs(cloud, np.array([i]), k, mode)
                if np.any(pi != i) or sorted(pj.tolist()) != expect:
                    return False, n, i, k, f"engine {mode}"
                engine_checked += 1
        cloud.pos_grad_ema[i] = 0.0
    return True, n, oracle_checked, engine_checked, ""


def test_criterion_3_knn_oracle():
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(_check_knn_cloud, range(50)))
    bad = [r for r in results if not r[0]]
    assert not bad, bad
    oracle_queries = sum(r[2] for r in results)
    engine_queries = sum(r[3] for r in results)
    report(3, f"50 clouds (N up to 2000): {oracle_queries} oracle and "
              f"{engine_queries} engine (_neighbor_pairs) queries over K in "
              f"{{1,5,20}} matched exhaustive search; d<=0 exclusion held")


# ---------------------------------------------------------------------------
# Criterion 4: KL-loss properties
# ---------------------------------------------------------------------------

def test_criterion_4_kl_properties():
    rng = np.random.default_rng((RNG_BASE, 4))
    # identical encodings -> 0
    n = 30
    quat = np.tile([1.0, 0, 0, 0], (n, 1))
    cloud = GaussianCloud(rng.standard_normal((n, 3)), np.full((n, 3), 0.1),
                          quat, np.full(n, 0.5), np.full((n, 3), 0.5),
                          np.tile(rng.standard_normal(4), (n, 1)))
    head = ClassifierHead(rng.standard_normal((6, 4)), rng.standard_normal(6))
    zero_loss, _ = loss_3d(cloud, head, 10, 3, "global", 0)
    assert zero_loss == pytest.approx(0.0, abs=1e-12)

    # two-class scalar example: (0.9, 0.1) vs (0.5, 0.5)
    head2 = ClassifierHead(np.array([[1.0], [0.0]]), np.zeros(2))
    enc = np.array([[np.log(9.0)], [0.0]])
    ex_loss, _ = kl_pairs_loss(enc, head2, np.array([0]), np.array([1]))
    assert ex_loss == pytest.approx(0.3681, abs=1e-4)

    # non-negativity on 1000 random draws
    min_loss = np.inf
    for t in range(1000):
        e = rng.standard_normal((8, 4)) * rng.uniform(0.2, 3.0)
        pi = rng.integers(0, 8, 6)
        pj = (pi + 1 + rng.integers(0, 7, 6)) % 8
        val, _ = kl_pairs_loss(e, head, pi, pj)
        assert val >= 0.0
        min_loss = min(min_loss, val)
    report(4, f"identical-encoding loss {zero_loss:.1e}; scalar example "
              f"{ex_loss:.6f} (target 0.3681); 1000 draws all >= 0 "
              f"(min {min_loss:.2e})")


# ---------------------------------------------------------------------------
# Criterion 5: densification unit suite
# ---------------------------------------------------------------------------

def test_criterion_5_densification_suite():
    from gradiseg.igd import OPACITY_EPS, TOO_LARGE_FRAC, igd_step
    from gradiseg.trainer import PER_GAUSSIAN, AdamOptimizer
    from oracles import Gaussian, split_gaussian

    rng = np.random.default_rng((RNG_BASE, 5))
    n = 120
    cloud = random_cloud(rng, n, dim=4)
    cloud.opacities[:] = 0.5
    cloud.opacities[[5, 6]] = 0.0049   # below eps
    cloud.scales[9] = [5.0, 0.1, 0.1]  # too large
    cloud.visible_count[:] = 1
    cloud.id_grad_accum[:] = 1.0
    cloud.id_grad_accum[40] = 100.0    # exactly one anomalous row

    shapes = {k: (n,) + s for k, s in
              [("positions", (3,)), ("log_scales", (3,)), ("rotations", (4,)),
               ("logit_opacities", ()), ("colors", (3,)), ("encodings", (4,))]}
    opt = AdamOptimizer(shapes, {k: 1e-3 for k in shapes}, np.float64)
    for k in PER_GAUSSIAN:
        opt.m[k][:] = 3.0

    scene_extent = 10.0
    expected_prune = {5, 6, 9}
    parent_pos = cloud.positions[40].copy()
    res = igd_step(cloud, scene_extent)
    opt.keep_rows(res.kept, res.cloud.n)

    # pruning removed exactly {o < 0.005} union {too large}
    assert res.n_pruned == len(expected_prune)
    assert np.all(res.cloud.opacities >= OPACITY_EPS)
    assert np.all(res.cloud.scales.max(axis=1) <= TOO_LARGE_FRAC * scene_extent)
    # one above threshold -> N + 1, monitors zeroed
    assert res.n_split == 1
    assert res.cloud.n == n - 3 + 1
    assert not np.any(res.cloud.id_grad_accum)
    assert not np.any(res.cloud.visible_count)
    # children mirror-symmetric about the parent
    kids = res.cloud.positions[-2:]
    np.testing.assert_allclose(0.5 * (kids[0] + kids[1]), parent_pos, atol=1e-7)
    # optimizer rows synchronized, new rows zeroed
    for k in PER_GAUSSIAN:
        assert opt.m[k].shape[0] == res.cloud.n
        assert np.all(opt.m[k][:-2] == 3.0)
        assert not np.any(opt.m[k][-2:])

    # split arithmetic example
    g = Gaussian(np.zeros(3), np.array([2.0, 1.0, 1.0]),
                 np.array([1.0, 0.0, 0.0, 0.0]), 0.8,
                 np.array([0.5, 0.5, 0.5]), np.zeros(4))
    ga, gb = split_gaussian(g)
    np.testing.assert_allclose(ga.position, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(ga.scale, [1.25, 0.625, 0.625])
    report(5, f"prune set {sorted(expected_prune)} removed, single split gave "
              f"N {n - 3}->{res.cloud.n}, monitors reset, optimizer rows in sync")
