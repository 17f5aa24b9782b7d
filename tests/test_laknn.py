"""Neighbor selection against exhaustive search; KL consistency loss."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import log_softmax

from conftest import random_cloud
from gradiseg import laknn
from gradiseg.laknn import _neighbor_pairs, _pair_sums, kl_pairs_loss, loss_3d
from gradiseg.scene import GaussianCloud
from gradiseg.semantic import ClassifierHead
from oracles import (dense_kl_pairs_loss, global_neighbors, local_adaptive_neighbors,
                     neighbor_direction, pairwise_kl_loss)


def points_cloud(points, dim=4, dtype=np.float64):
    points = np.asarray(points, dtype=dtype)
    n = len(points)
    quat = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return GaussianCloud(points, np.full((n, 3), 0.1), quat,
                         np.full(n, 0.5), np.full((n, 3), 0.5),
                         np.zeros((n, dim)))


def exhaustive_local(points, i, u, k):
    """Reference: all strictly positive projections, k smallest, ties by index."""
    cands = []
    for j, p in enumerate(points):
        if j == i:
            continue
        d = float(np.dot(p - points[i], u))
        if d > 0:
            cands.append((d, j))
    cands.sort()
    return [j for _, j in cands[:k]]


def exhaustive_global(points, i, k):
    cands = sorted((float(np.dot(p - points[i], p - points[i])), j)
                   for j, p in enumerate(points) if j != i)
    return [j for _, j in cands[:k]]


class TestNeighborDirection:
    def test_negates_and_normalizes(self):
        cloud = points_cloud([[0, 0, 0], [1, 1, 1]])
        cloud.pos_grad_ema[0] = [0.0, -2.0, 0.0]
        np.testing.assert_allclose(neighbor_direction(cloud, 0), [0.0, 1.0, 0.0])

    def test_zero_ema_returns_none(self):
        cloud = points_cloud([[0, 0, 0], [1, 1, 1]])
        assert neighbor_direction(cloud, 0) is None

    def test_unit_norm_and_opposition(self, rng):
        cloud = points_cloud(rng.standard_normal((20, 3)))
        cloud.pos_grad_ema[:] = rng.standard_normal((20, 3))
        for i in range(20):
            u = neighbor_direction(cloud, i)
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            assert float(u @ cloud.pos_grad_ema[i]) < 0


class TestLocalAdaptive:
    def test_worked_example(self):
        # target at origin, u = +x; candidates at x=-1, x=1, x=2 and (0,5,0)
        pts = [[0, 0, 0], [-1, 0, 0], [1, 0, 0], [2, 0, 0], [0, 5, 0]]
        cloud = points_cloud(pts)
        got = local_adaptive_neighbors(cloud, 0, np.array([1.0, 0.0, 0.0]), 2)
        assert sorted(got.tolist()) == [2, 3]  # x=1 and x=2 only

    def test_all_behind_empty(self):
        pts = [[0, 0, 0], [-1, 0, 0], [-2, 0.3, 0], [0, 1, 0]]
        cloud = points_cloud(pts)
        got = local_adaptive_neighbors(cloud, 0, np.array([1.0, 0.0, 0.0]), 3)
        assert got.size == 0

    def test_matches_exhaustive_search(self, rng):
        for n in (10, 100, 500):
            pts = rng.uniform(-1, 1, (n, 3))
            cloud = points_cloud(pts)
            for _ in range(10):
                i = int(rng.integers(n))
                u = rng.standard_normal(3)
                u /= np.linalg.norm(u)
                for k in (1, 5, 20):
                    got = local_adaptive_neighbors(cloud, i, u, k)
                    assert sorted(got.tolist()) == sorted(exhaustive_local(pts, i, u, k))

    def test_tie_by_ascending_index(self):
        pts = [[0, 0, 0], [1, 5, 0], [1, -5, 0], [1, 0, 5]]  # equal projections
        cloud = points_cloud(pts)
        got = local_adaptive_neighbors(cloud, 0, np.array([1.0, 0.0, 0.0]), 2)
        assert got.tolist() == [1, 2]

    def test_subset_of_positive_halfspace(self, rng):
        pts = rng.standard_normal((100, 3))
        cloud = points_cloud(pts)
        u = np.array([0.0, 0.0, 1.0])
        got = local_adaptive_neighbors(cloud, 3, u, 10)
        for j in got:
            assert (pts[j] - pts[3]) @ u > 0


class TestGlobal:
    def test_two_points(self):
        cloud = points_cloud([[0, 0, 0], [1, 0, 0]])
        assert global_neighbors(cloud, 0, 1).tolist() == [1]

    def test_grid_matches_exhaustive(self, rng):
        xs = np.linspace(0, 1, 4)
        pts = np.array([[x, y, z] for x in xs for y in xs for z in xs])
        cloud = points_cloud(pts)
        for i in (0, 17, 63):
            for k in (1, 5, 20):
                got = global_neighbors(cloud, i, k)
                assert sorted(got.tolist()) == sorted(exhaustive_global(pts, i, k))

    def test_saturation(self, rng):
        pts = rng.standard_normal((6, 3))
        cloud = points_cloud(pts)
        got = global_neighbors(cloud, 2, 99)
        assert sorted(got.tolist()) == [0, 1, 3, 4, 5]


def oracle_pairs(cloud, targets, k, mode):
    """Scalar-oracle pairs: grouped by target in the given order, each
    target's neighbors ordered by (distance, index)."""
    pair_i, pair_j = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for t in targets:
        u = neighbor_direction(cloud, t) if mode == "local-adaptive" else None
        nb = (global_neighbors(cloud, t, k) if u is None
              else local_adaptive_neighbors(cloud, t, u, k))
        pair_i.append(np.full(nb.size, t, dtype=np.int64))
        pair_j.append(nb)
    return np.concatenate(pair_i), np.concatenate(pair_j)


def assert_same_pairs(got, want):
    assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


def grid_cloud(rng, n, dtype):
    """Positions on a 1/64 grid with some exact duplicates, and EMAs that are
    zero or point along an axis. Every distance and projection the engine
    forms is then exact in float32 and float64, so the float64 oracles see
    the engine's values, ties at the K-th value included."""
    pts = rng.integers(-64, 65, (n, 3)) / 64.0
    dup = rng.choice(n, n // 5, replace=False)
    pts[dup] = pts[rng.choice(n, dup.size)]
    cloud = points_cloud(pts, dtype=dtype)
    axis = rng.integers(0, 3, n)
    cloud.pos_grad_ema[np.arange(n), axis] = rng.choice([-2.0, 3.0], n)
    cloud.pos_grad_ema[rng.random(n) < 0.3] = 0.0
    return cloud


MODES = ("global", "local-adaptive")


class TestNeighborPairs:
    """The engine's batched search against the scalar oracles, pair by pair."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grid_ties_and_fallback_match_oracle(self, rng, dtype):
        cloud = grid_cloud(rng, 300, dtype)
        targets = rng.choice(300, 2 * laknn._CHUNK + 11, replace=False)
        for mode in MODES:
            for k in (1, 5, 12):
                assert_same_pairs(_neighbor_pairs(cloud, targets, k, mode),
                                  oracle_pairs(cloud, targets, k, mode))

    def test_random_directions_match_oracle(self, rng):
        cloud = points_cloud(rng.uniform(-1, 1, (400, 3)))
        cloud.pos_grad_ema[:] = rng.standard_normal((400, 3))
        cloud.pos_grad_ema[::7] = 0.0
        targets = rng.choice(400, 300, replace=False)
        for mode in MODES:
            assert_same_pairs(_neighbor_pairs(cloud, targets, 5, mode),
                              oracle_pairs(cloud, targets, 5, mode))

    def test_every_candidate_behind(self):
        cloud = points_cloud([[x, 0.0, 0.0] for x in range(5)])
        cloud.pos_grad_ema[:] = [-1.0, 0.0, 0.0]  # u = +x for every target
        targets = np.array([4, 0, 3])
        got = _neighbor_pairs(cloud, targets, 2, "local-adaptive")
        assert got[0].tolist() == [0, 0, 3] and got[1].tolist() == [1, 2, 4]
        assert_same_pairs(got, oracle_pairs(cloud, targets, 2, "local-adaptive"))

    @pytest.mark.parametrize("mode", MODES)
    def test_ties_at_kth_by_ascending_index(self, mode):
        pts = [[1, 0, 0], [0, 0, 0], [1, 0, 0], [2, 0, 0], [1, 0, 0], [1, 0, 0]]
        cloud = points_cloud(pts)
        cloud.pos_grad_ema[1] = [-1.0, 0.0, 0.0]
        got = _neighbor_pairs(cloud, np.array([1]), 3, mode)
        assert got[1].tolist() == [0, 2, 4]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fewer_points_than_stride(self, rng, dtype):
        n = 5
        cloud = grid_cloud(rng, n, dtype)
        cloud.pos_grad_ema[0] = 0.0
        cloud.pos_grad_ema[1] = [0.0, 0.0, -1.0]
        targets = rng.permutation(n)
        for mode in MODES:
            for k in (1, 2, n - 1, n, 3 * n):
                assert_same_pairs(_neighbor_pairs(cloud, targets, k, mode),
                                  oracle_pairs(cloud, targets, k, mode))
        got = _neighbor_pairs(cloud, targets, n, "global")
        assert np.bincount(got[0], minlength=n).tolist() == [n - 1] * n

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stride_and_chunk_independence(self, rng, monkeypatch, dtype):
        cloud = points_cloud(rng.uniform(-1, 1, (300, 3)), dtype=dtype)
        cloud.pos_grad_ema[:] = rng.standard_normal((300, 3))
        cloud.pos_grad_ema[::9] = 0.0
        targets = rng.choice(300, 250, replace=False)
        for mode in MODES:
            base = _neighbor_pairs(cloud, targets, 5, mode)
            for value in (1, 7):
                with monkeypatch.context() as m:
                    m.setattr(laknn, "_CHUNK", value)
                    assert_same_pairs(_neighbor_pairs(cloud, targets, 5, mode), base)

    def test_lone_row_rounds_like_its_chunk(self, rng):
        # BLAS rounds a one-row float32 product (gemv) differently from a
        # many-row one (gemm) in about half of these rows. Float64 gemm
        # rounds a row by its place in the kernel's row panels, so float64
        # rows may differ in the last bit with the chunk in any case.
        pos1, tgt, u = projection_inputs(rng, 300, 32)
        block = laknn._projections(pos1, tgt, u)
        for i in range(32):
            lone = laknn._projections(pos1, tgt[i:i + 1], u[i:i + 1])
            assert lone.tobytes() == block[i:i + 1].tobytes()

    @pytest.mark.parametrize("m", [1, 2, 5, 32])
    def test_one_product_rounds_like_two_steps(self, rng, m):
        # In float32, [u | -u.p_t] @ [pos^T; 1] gives the bytes of u @ pos^T
        # followed by subtracting u.p_t from each row.
        pos1, tgt, u = projection_inputs(rng, 2000, m)
        pos = np.ascontiguousarray(pos1[:3].T)
        two = (u if m > 1 else np.repeat(u, 2, axis=0)) @ pos.T
        two = two[:m]
        two -= np.einsum("tj,tj->t", u, pos[tgt])[:, None]
        two[np.arange(m), tgt] = np.inf
        assert laknn._projections(pos1, tgt, u).tobytes() == two.tobytes()


def projection_inputs(rng, n, m):
    """float32 pos1 = [pos^T; 1] (4, n), m distinct targets, unit directions."""
    pos1 = np.ones((4, n), dtype=np.float32)
    pos1[:3] = rng.uniform(-1, 1, (3, n))
    e = rng.standard_normal((m, 3)).astype(np.float32)
    return pos1, rng.choice(n, m, replace=False), -e / np.linalg.norm(e, axis=1)[:, None]


def plane_cloud(dtype):
    """49 points on the plane z = 1/4, three above it and two below, every
    EMA along -z. A plane target's projections onto u = +z are exact +0 at
    the other plane points, so every column group holding one of them has a
    +0 minimum; the top point has no positive projection at all."""
    xs = np.arange(-3, 4) / 4.0
    pts = [[x, y, 0.25] for x in xs for y in xs]
    pts += [[0.5, 0.0, 0.5], [-0.25, 0.5, 0.75], [0.0, 0.0, 1.0], [0.0, 0.25, 0.0],
            [0.75, 0.0, -0.25]]
    cloud = points_cloud(pts, dtype=dtype)
    cloud.pos_grad_ema[:] = [0.0, 0.0, -2.0]
    return cloud


class TestGroupBound:
    """The direction-aware bound, the largest of K column-group minima,
    where those minima are +0, non-finite or negative."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_group_minima_match_oracle(self, dtype):
        cloud = plane_cloud(dtype)
        targets = np.arange(cloud.n)
        for k in (1, 2, 3, 5, 12, 30):
            assert_same_pairs(_neighbor_pairs(cloud, targets, k, "local-adaptive"),
                              oracle_pairs(cloud, targets, k, "local-adaptive"))
        got = _neighbor_pairs(cloud, np.array([0, 51]), 5, "local-adaptive")
        assert got[0].tolist() == [0, 0, 0] and got[1].tolist() == [49, 50, 51]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_groups_without_positive_entries(self, dtype):
        # points along x in index order: looking +x, the low-index groups
        # hold only negatives; looking -x, the high-index groups do
        n = 40
        cloud = points_cloud([[x / 8.0, 0.0, 0.0] for x in range(n)], dtype=dtype)
        cloud.pos_grad_ema[:n // 2] = [-1.0, 0.0, 0.0]
        cloud.pos_grad_ema[n // 2:] = [3.0, 0.0, 0.0]
        targets = np.random.default_rng(3).permutation(n)
        for k in (1, 3, 8, 39):
            assert_same_pairs(_neighbor_pairs(cloud, targets, k, "local-adaptive"),
                              oracle_pairs(cloud, targets, k, "local-adaptive"))
        got = _neighbor_pairs(cloud, np.array([25, 30]), 2, "local-adaptive")
        assert got[1].tolist() == [24, 23, 29, 28]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_k_at_least_n_minus_one(self, rng, dtype):
        # one- and two-column groups, one of them the target's own inf
        n = 23
        cloud = points_cloud(rng.uniform(-1, 1, (n, 3)), dtype=dtype)
        cloud.positions[4] = cloud.positions[9]
        cloud.pos_grad_ema[:] = rng.standard_normal((n, 3))
        targets = rng.permutation(n)
        for k in (n - 2, n - 1, n, 5 * n):
            assert_same_pairs(_neighbor_pairs(cloud, targets, k, "local-adaptive"),
                              oracle_pairs(cloud, targets, k, "local-adaptive"))

    def test_peak_memory_below_sampled_sort(self, rng):
        # the search this one replaced, a stride-8 sampled sort over
        # 128-target chunks, peaked at 6,980,093 bytes on this call
        n, m = 8000, 4000
        cloud = points_cloud(rng.uniform(-1, 1, (n, 3)), dtype=np.float32)
        cloud.pos_grad_ema[:] = rng.standard_normal((n, 3))
        targets = rng.choice(n, m, replace=False)
        tracemalloc.start()
        try:
            _neighbor_pairs(cloud, targets, 5, "local-adaptive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6_980_093


class TestLoss3d:
    def head(self, c=6, d=4, seed=0):
        rng = np.random.default_rng(seed)
        return ClassifierHead(rng.standard_normal((c, d)), rng.standard_normal(c))

    def test_identical_encodings_zero_loss(self, rng):
        cloud = points_cloud(rng.standard_normal((30, 3)))
        cloud.encodings[:] = np.array([0.3, -0.2, 0.5, 0.1])
        loss, grads = loss_3d(cloud, self.head(), 10, 3, "global", 0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grads, 0.0, atol=1e-12)

    def test_two_class_scalar_example(self):
        # F(e_i)=(0.9,0.1), F(e_j)=(0.5,0.5): KL = 0.9 ln(1.8) + 0.1 ln(0.2)
        head = ClassifierHead(np.array([[1.0], [0.0]]), np.zeros(2))
        e_i = np.array([[np.log(9.0)], [0.0]])  # softmax -> (0.9, 0.1), (0.5, 0.5)
        loss, _ = kl_pairs_loss(e_i, head, np.array([0]), np.array([1]))
        expect = 0.9 * np.log(0.9 / 0.5) + 0.1 * np.log(0.1 / 0.5)
        assert loss == pytest.approx(expect, abs=1e-12)
        assert loss == pytest.approx(0.3681, abs=1e-4)

    def test_matches_double_loop_reference(self, rng):
        cloud = points_cloud(rng.uniform(-1, 1, (40, 3)))
        cloud.encodings[:] = rng.standard_normal((40, 4)) * 0.7
        head = self.head()
        m, k, seed = 12, 3, 99
        loss, _ = loss_3d(cloud, head, m, k, "global", seed)

        # naive reference: same sampling, scalar softmax/KL per pair
        targets = np.random.default_rng(seed).choice(40, size=m, replace=False)
        total, pairs = 0.0, 0
        for i in targets:
            for j in exhaustive_global(cloud.positions, i, k):
                zi = head.weights @ cloud.encodings[i] + head.biases
                zj = head.weights @ cloud.encodings[j] + head.biases
                pi = np.exp(zi - zi.max()); pi /= pi.sum()
                pj = np.exp(zj - zj.max()); pj /= pj.sum()
                total += float(np.sum(pi * (np.log(pi) - np.log(pj))))
                pairs += 1
        assert loss == pytest.approx(total / pairs, abs=1e-9)

    def test_nonnegative_on_random_draws(self, rng):
        head = self.head()
        for _ in range(50):
            cloud = points_cloud(rng.uniform(-1, 1, (15, 3)))
            cloud.encodings[:] = rng.standard_normal((15, 4))
            loss, _ = loss_3d(cloud, head, 5, 3, "global", int(rng.integers(1e6)))
            assert loss >= 0.0

    def test_m_clamped_with_warning(self, rng):
        cloud = points_cloud(rng.standard_normal((5, 3)))
        with pytest.warns(UserWarning, match="clamp"):
            loss_3d(cloud, self.head(), 10, 2, "global", 0)

    def test_local_mode_uses_ema_direction(self, rng):
        # a target whose EMA points -x must pick neighbors with +x projection
        pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [-0.5, 0, 0], [1.0, 0, 0]])
        cloud = points_cloud(pts)
        cloud.pos_grad_ema[:] = [-1.0, 0.0, 0.0]  # direction u = +x
        cloud.encodings[:] = rng.standard_normal((4, 4))
        head = self.head()
        loss_local, _ = loss_3d(cloud, head, 4, 2, "local-adaptive", 1)
        # reference with explicit pairs
        pair_i, pair_j = [], []
        for i in range(4):
            for j in exhaustive_local(pts, i, np.array([1.0, 0, 0]), 2):
                pair_i.append(i)
                pair_j.append(j)
        ref, _ = kl_pairs_loss(cloud.encodings, head,
                               np.array(pair_i), np.array(pair_j))
        assert loss_local == pytest.approx(ref, abs=1e-12)

    def test_encoding_gradients_finite_difference(self, rng):
        cloud = points_cloud(rng.uniform(-1, 1, (8, 3)))
        cloud.encodings[:] = rng.standard_normal((8, 4)) * 0.5
        head = self.head(c=5)
        loss, grads = loss_3d(cloud, head, 6, 3, "global", 7)
        h = 1e-6
        for ix in np.ndindex(8, 4):
            cp, cm = cloud.copy(), cloud.copy()
            cp.encodings[ix] += h
            cm.encodings[ix] -= h
            lp, _ = loss_3d(cp, head, 6, 3, "global", 7)
            lm, _ = loss_3d(cm, head, 6, 3, "global", 7)
            fd = (lp - lm) / (2 * h)
            assert grads[ix] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def ungrouped_pairs(rng):
    """Encodings, a head and unsorted pairs with a repeated pair, a self pair
    and rows that appear as both i and j."""
    enc = rng.standard_normal((10, 4)) * 0.7
    head = ClassifierHead(rng.standard_normal((6, 4)), rng.standard_normal(6))
    pair_i = np.array([3, 0, 7, 3, 5, 0, 9, 2, 7, 4, 4, 1])
    pair_j = np.array([8, 3, 0, 8, 3, 9, 0, 7, 2, 4, 6, 3])
    return enc, head, pair_i, pair_j


class TestKlPairsLoss:
    """The closed-form KL against the pairwise float64 oracle."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ungrouped_pairs_match_oracle(self, rng, dtype):
        enc, head, pair_i, pair_j = ungrouped_pairs(rng)
        enc = enc.astype(dtype)
        head = ClassifierHead(head.weights.astype(dtype), head.biases.astype(dtype))
        loss, ge = kl_pairs_loss(enc, head, pair_i, pair_j)
        want_loss, want_ge = pairwise_kl_loss(enc, head, pair_i, pair_j)
        assert ge.dtype == dtype
        tol = dict(rtol=1e-4, atol=1e-6) if dtype == np.float32 else dict(rtol=1e-10, atol=1e-13)
        assert loss == pytest.approx(want_loss, rel=tol["rtol"], abs=tol["atol"])
        np.testing.assert_allclose(ge, want_ge, **tol)

    def test_logit_gaps_beyond_the_old_floor(self):
        # row 1's classes 1 and 2 sit 40 nats below class 0, so their
        # probabilities (~4e-18) fall under the oracle's 1e-12 floor
        head = ClassifierHead(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), np.zeros(3))
        enc = np.array([[0.0, 0.0], [40.0, 0.0], [0.5, -35.0]])
        pair_i, pair_j = np.array([0, 2, 1, 0]), np.array([1, 1, 2, 2])
        logits = enc @ head.weights.T + head.biases
        assert np.ptp(logits, axis=1).max() > 30.0
        logp = log_softmax(logits, axis=1)
        exact = np.mean([np.exp(logp[i]) @ (logp[i] - logp[j])
                         for i, j in zip(pair_i, pair_j)])
        loss, _ = kl_pairs_loss(enc, head, pair_i, pair_j)
        assert loss == pytest.approx(exact, rel=1e-12)
        floored, _ = pairwise_kl_loss(enc, head, pair_i, pair_j)
        assert abs(floored - exact) > 1.0

    def test_encoding_gradients_finite_difference_ungrouped(self, rng):
        enc, head, pair_i, pair_j = ungrouped_pairs(rng)
        _, ge = kl_pairs_loss(enc, head, pair_i, pair_j)
        h = 1e-6
        for ix in np.ndindex(*enc.shape):
            ep, em = enc.copy(), enc.copy()
            ep[ix] += h
            em[ix] -= h
            fd = (kl_pairs_loss(ep, head, pair_i, pair_j)[0]
                  - kl_pairs_loss(em, head, pair_i, pair_j)[0]) / (2 * h)
            assert ge[ix] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_no_pairs_by_classes_array(self, rng):
        # 20,000 pairs over 40 Gaussians and 256 classes: one (pairs, C)
        # float32 array would take 20 MB, so the whole call must peak below it
        n, d, c, pairs = 40, 4, 256, 20_000
        enc = rng.standard_normal((n, d)).astype(np.float32)
        head = ClassifierHead(rng.standard_normal((c, d)).astype(np.float32),
                              np.zeros(c, dtype=np.float32))
        pair_i, pair_j = rng.integers(0, n, pairs), rng.integers(0, n, pairs)
        tracemalloc.start()
        try:
            kl_pairs_loss(enc, head, pair_i, pair_j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pairs * c * 4


class TestTreeSearch:
    """Global and zero-EMA rows come from one KD-tree; the pairs must be the
    float64 oracle's, including where the tree's candidates run out."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_more_coincident_points_than_k(self, rng, dtype):
        pts = rng.uniform(-1, 1, (60, 3))
        pts[5:30] = pts[5]          # 25 copies of one point
        pts[40:44] = pts[41]
        cloud = points_cloud(pts, dtype=dtype)
        targets = np.array([5, 17, 29, 41, 0, 50])
        for k in (1, 3, 12, 24, 30):
            assert_same_pairs(_neighbor_pairs(cloud, targets, k, "global"),
                              oracle_pairs(cloud, targets, k, "global"))
        got = _neighbor_pairs(cloud, np.array([17]), 4, "global")[1]
        assert got.tolist() == [5, 6, 7, 8]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equal_distance_shells(self, dtype):
        # the 6 axis neighbours of a lattice point sit at one distance, the
        # 12 edge neighbours at the next; every K cuts a shell
        xs = np.arange(-2, 3)
        pts = np.array([[x, y, z] for x in xs for y in xs for z in xs], dtype=float)
        cloud = points_cloud(pts, dtype=dtype)
        targets = np.array([62, 0, 31, 124, 57])
        for k in (1, 4, 6, 7, 10, 18, 19, 30):
            assert_same_pairs(_neighbor_pairs(cloud, targets, k, "global"),
                              oracle_pairs(cloud, targets, k, "global"))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_k_at_least_n_minus_one(self, rng, dtype):
        n = 23
        cloud = points_cloud(rng.uniform(-1, 1, (n, 3)), dtype=dtype)
        cloud.positions[4] = cloud.positions[9]
        targets = rng.permutation(n)
        for k in (n - 2, n - 1, n, 5 * n):
            got = _neighbor_pairs(cloud, targets, k, "global")
            assert_same_pairs(got, oracle_pairs(cloud, targets, k, "global"))
        assert np.bincount(got[0], minlength=n).tolist() == [n - 1] * n

    def test_near_tie_float32_expansion_misorders(self):
        # candidates 1 and 2 lie 1.8e-6 apart in squared distance from a
        # target 50 from the origin; the expansion -2 p.q + |p|^2 + |q|^2 in
        # float32 loses that gap and puts 1 first
        pts = np.array([[13.696168899536133, -23.02132797241211, -45.90264892578125],
                        [13.212696075439453, -22.708059310913086, -45.489891052246094],
                        [14.221671104431152, -22.63966178894043, -46.186248779296875],
                        [23.696168899536133, -13.021328926086426, -35.90264892578125]],
                       dtype=np.float32)
        cloud = points_cloud(pts, dtype=np.float32)
        p64 = pts.astype(np.float64)
        d64 = ((p64 - p64[0]) ** 2).sum(axis=1)
        assert d64[2] < d64[1] < d64[2] + 2e-6
        sq = np.einsum("nj,nj->n", pts, pts)
        d32 = (pts @ pts[0]) * np.float32(-2.0) + sq + sq[0]
        assert d32[1] < d32[2]
        got = _neighbor_pairs(cloud, np.array([0]), 1, "global")
        assert got[1].tolist() == [2]
        assert_same_pairs(got, oracle_pairs(cloud, np.array([0]), 1, "global"))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_ema_rows_in_local_mode(self, rng, dtype):
        cloud = points_cloud(rng.uniform(-1, 1, (200, 3)), dtype=dtype)
        cloud.positions[10:20] = cloud.positions[10]
        cloud.pos_grad_ema[:] = rng.standard_normal((200, 3))
        zero = rng.random(200) < 0.4
        zero[10:20] = True
        cloud.pos_grad_ema[zero] = 0.0
        targets = rng.choice(200, 150, replace=False)
        got = _neighbor_pairs(cloud, targets, 6, "local-adaptive")
        assert_same_pairs(got, oracle_pairs(cloud, targets, 6, "local-adaptive"))
        fallback = zero[targets]
        assert 0 < fallback.sum() < targets.size
        glob = _neighbor_pairs(cloud, targets[fallback], 6, "global")
        rows = np.isin(got[0], targets[fallback])
        assert_same_pairs((got[0][rows], got[1][rows]), glob)

    def test_tree_candidates_rechecked(self, rng, monkeypatch):
        # a margin of 0.5 re-asks most rows; the pairs stay the same
        cloud = points_cloud(rng.uniform(-1, 1, (300, 3)), dtype=np.float32)
        targets = rng.choice(300, 120, replace=False)
        base = _neighbor_pairs(cloud, targets, 7, "global")
        monkeypatch.setattr(laknn, "_TREE_MARGIN", 0.5)
        assert_same_pairs(_neighbor_pairs(cloud, targets, 7, "global"), base)
        assert_same_pairs(base, oracle_pairs(cloud, targets, 7, "global"))


def repeated_rows_head(rng, dtype, c=32, d=4):
    """Six distinct rows: class k shares the row of class k % 6, and class
    5's row is all zero."""
    w = rng.standard_normal((6, d))
    b = rng.standard_normal(6)
    w[5], b[5] = 0.0, 0.0
    return ClassifierHead(w[np.arange(c) % 6].astype(dtype), b[np.arange(c) % 6].astype(dtype))


def grouped_pairs(rng, dtype, n=60, k=4):
    cloud = points_cloud(rng.uniform(-1, 1, (n, 3)), dtype=dtype)
    cloud.encodings[:] = rng.standard_normal((n, 4)) * 0.7
    targets = rng.choice(n, 25, replace=False)
    return (cloud.encodings,) + _neighbor_pairs(cloud, targets, k, "global")


class TestKlRepeatedRows:
    """kl_pairs_loss on heads with repeated rows against the float64 pairwise
    oracle, and on heads without them against the per-class form, byte for
    byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pairs", ["grouped", "ungrouped"])
    def test_repeated_rows_match_oracle(self, rng, dtype, pairs):
        if pairs == "grouped":
            enc, pair_i, pair_j = grouped_pairs(rng, dtype)
        else:
            enc, _, pair_i, pair_j = ungrouped_pairs(rng)
            enc = enc.astype(dtype)
        head = repeated_rows_head(rng, dtype)
        tol = dict(rtol=1e-4, atol=1e-6) if dtype == np.float32 else dict(rtol=1e-10, atol=1e-13)
        loss, ge = kl_pairs_loss(enc, head, pair_i, pair_j)
        want_loss, want_ge = pairwise_kl_loss(enc, head, pair_i, pair_j)
        assert ge.dtype == dtype
        assert loss == pytest.approx(want_loss, rel=tol["rtol"], abs=tol["atol"])
        np.testing.assert_allclose(ge, want_ge, **tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pairs", ["grouped", "ungrouped"])
    def test_distinct_rows_parent_bytes(self, rng, dtype, pairs):
        if pairs == "grouped":
            enc, pair_i, pair_j = grouped_pairs(rng, dtype)
        else:
            enc, _, pair_i, pair_j = ungrouped_pairs(rng)
            enc = enc.astype(dtype)
        head = ClassifierHead(rng.standard_normal((32, 4)).astype(dtype),
                              rng.standard_normal(32).astype(dtype))
        got = kl_pairs_loss(enc, head, pair_i, pair_j)
        want = dense_kl_pairs_loss(enc, head, pair_i, pair_j)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pair_sums_in_pair_order(self, rng, dtype):
        index = rng.integers(0, 9, 400)
        rows = rng.standard_normal((400, 5)).astype(dtype)
        got = _pair_sums(index, rows, 11)
        want = np.zeros((11, 5), dtype=dtype)
        np.add.at(want, index, rows)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()
