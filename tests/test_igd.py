"""Gradient-guided densification: pruning and the anomaly split."""

import numpy as np
import pytest

import gradiseg.igd as igd
from conftest import make_camera, random_cloud
from gradiseg.igd import OPACITY_EPS, TAU_PERCENTILE, TOO_LARGE_FRAC, igd_step
from gradiseg.render import render
from gradiseg.scene import GaussianCloud
from gradiseg.trainer import AdamOptimizer, PER_GAUSSIAN
from oracles import Gaussian, gaussian, split_gaussian


def plain_gaussian(scale=(2.0, 1.0, 1.0), rotation=(1.0, 0.0, 0.0, 0.0)):
    return Gaussian(position=np.zeros(3), scale=np.asarray(scale, dtype=np.float64),
                    rotation=np.asarray(rotation, dtype=np.float64), opacity=0.8,
                    color=np.array([0.2, 0.4, 0.6]), encoding=np.arange(4.0))


class TestSplitGaussian:
    def test_major_axis_split_arithmetic(self):
        ga, gb = split_gaussian(plain_gaussian())
        np.testing.assert_allclose(ga.position, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(gb.position, [-1.0, 0.0, 0.0])
        np.testing.assert_allclose(ga.scale, [1.25, 0.625, 0.625])
        np.testing.assert_allclose(gb.scale, ga.scale)

    def test_isotropic_tie_breaks_to_x(self):
        ga, gb = split_gaussian(plain_gaussian(scale=(1.0, 1.0, 1.0)))
        np.testing.assert_allclose(ga.position, [0.5, 0.0, 0.0])
        np.testing.assert_allclose(gb.position, [-0.5, 0.0, 0.0])

    def test_rotated_major_axis(self):
        # 90-degree rotation about z maps local x onto world y
        s = np.sqrt(0.5)
        ga, gb = split_gaussian(plain_gaussian(rotation=(s, 0.0, 0.0, s)))
        np.testing.assert_allclose(ga.position, [0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(gb.position, [0.0, -1.0, 0.0], atol=1e-12)

    def test_children_copy_attributes(self):
        g = plain_gaussian()
        ga, gb = split_gaussian(g)
        for child in (ga, gb):
            np.testing.assert_array_equal(child.rotation, g.rotation)
            assert child.opacity == g.opacity
            np.testing.assert_array_equal(child.color, g.color)
            np.testing.assert_array_equal(child.encoding, g.encoding)

    def test_degenerate_scale_clones(self):
        g = plain_gaussian(scale=(1e-12, 1e-12, 1e-12))
        ga, gb = split_gaussian(g)
        np.testing.assert_array_equal(ga.position, g.position)
        np.testing.assert_array_equal(ga.scale, g.scale)

    def test_mirror_symmetry(self, rng):
        for _ in range(20):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            g = Gaussian(position=rng.standard_normal(3),
                         scale=rng.uniform(0.1, 2.0, 3), rotation=q,
                         opacity=0.5, color=np.full(3, 0.5), encoding=np.zeros(2))
            ga, gb = split_gaussian(g)
            np.testing.assert_allclose(0.5 * (ga.position + gb.position),
                                       g.position, atol=1e-12)


def step(cloud, monitors, visible=None, scene_extent=100.0):
    """igd_step on the identity-gradient sums `monitors` over `visible`
    iterations per row (one each when left out)."""
    visible = np.ones(cloud.n, dtype=np.int64) if visible is None else visible
    return igd_step(cloud, np.asarray(monitors, dtype=cloud.dtype), visible,
                    scene_extent)


class TestIgdStep:
    def test_zero_monitors_prune_only(self, rng):
        cloud = random_cloud(rng, 20, dim=4)
        cloud.opacities[3] = 0.001
        cloud.opacities[7] = 0.004999
        res = step(cloud, np.zeros(20))
        assert res.n_pruned == 2
        assert res.n_split == 0
        assert res.cloud.n == 18

    def test_prunes_exactly_low_opacity_and_too_large(self, rng):
        cloud = random_cloud(rng, 30, dim=4)
        cloud.opacities[:] = 0.5
        cloud.opacities[[2, 11]] = 0.0049
        cloud.scales[5] = [3.0, 0.1, 0.1]   # too large for extent 10, frac 0.1
        res = step(cloud, np.zeros(30), scene_extent=10.0)
        assert res.cloud.n == 27
        assert np.all(res.cloud.opacities >= OPACITY_EPS)
        assert np.all(res.cloud.scales.max(axis=1) <= TOO_LARGE_FRAC * 10.0)

    def test_one_above_percentile_gives_n_plus_one(self, rng):
        monitors = np.full(100, 1.0)
        monitors[42] = 50.0
        cloud = random_cloud(rng, 100, dim=4)
        cloud.opacities[:] = 0.5
        accum, visible = monitors.copy(), np.ones(100, dtype=np.int64)
        res = igd_step(cloud, accum, visible, scene_extent=100.0)
        assert res.n_split == 1
        assert res.cloud.n == 101
        # the sums belong to the trainer, which restarts them after the edit
        np.testing.assert_array_equal(accum, monitors)
        np.testing.assert_array_equal(visible, 1)

    def test_split_set_matches_percentile_oracle(self, rng):
        n = 1000
        monitors = rng.exponential(1.0, n)
        visible = rng.integers(1, 10, n)
        cloud = random_cloud(rng, n, dim=4)
        cloud.opacities[:] = 0.5
        res = step(cloud, monitors, visible)
        # brute-force: mean monitor, then percentile by sorted interpolation
        m = monitors / np.maximum(visible, 1)
        srt = np.sort(m)
        rank = TAU_PERCENTILE / 100 * (n - 1)
        lo, hi = int(np.floor(rank)), int(np.ceil(rank))
        tau = srt[lo] + (rank - lo) * (srt[hi] - srt[lo])
        expect_split = int((m > tau).sum())
        assert expect_split > 5
        assert res.n_split == expect_split
        assert res.cloud.n == n + expect_split

    def test_survivor_count_arithmetic(self, rng):
        n = 50
        monitors = np.zeros(n)
        monitors[[2, 20]] = 10.0
        cloud = random_cloud(rng, n, dim=4)
        cloud.opacities[:] = 0.5
        cloud.opacities[:5] = 0.001  # includes one of the hot rows (index 2)
        res = step(cloud, monitors)
        # pruning happens first; pruned rows cannot split
        assert res.n_pruned == 5
        assert res.n_split == 1  # only index 20 of the hot rows survives pruning
        assert res.cloud.n == n - 5 + 1

    def test_children_mirror_about_parent(self, rng):
        monitors = np.zeros(10)
        monitors[4] = 5.0
        cloud = random_cloud(rng, 10, dim=4)
        cloud.opacities[:] = 0.5
        parent_pos = cloud.positions[4].copy()
        res = step(cloud, monitors)
        kids = res.cloud.positions[-2:]
        np.testing.assert_allclose(0.5 * (kids[0] + kids[1]), parent_pos,
                                   atol=1e-7)

    def test_optimizer_rows_stay_synchronized(self, rng, monkeypatch):
        # at the 90th percentile both hot rows of 39 survivors split
        monkeypatch.setattr(igd, "TAU_PERCENTILE", 90.0)
        n = 40
        monitors = np.zeros(n)
        monitors[[10, 20]] = 9.0
        cloud = random_cloud(rng, n, dim=4)
        cloud.opacities[:] = 0.5
        cloud.opacities[0] = 0.001
        shapes = {k: (n,) + s for k, s in
                  [("positions", (3,)), ("log_scales", (3,)), ("rotations", (4,)),
                   ("logit_opacities", ()), ("colors", (3,)), ("encodings", (4,))]}
        opt = AdamOptimizer(shapes, {k: 1e-3 for k in shapes}, np.float64)
        for k in PER_GAUSSIAN:
            opt.m[k][:] = 1.0
            opt.v[k][:] = 2.0
        res = step(cloud, monitors)
        assert res.n_split == 2
        opt.keep_rows(res.kept, res.cloud.n)
        for k in PER_GAUSSIAN:
            assert opt.m[k].shape[0] == res.cloud.n
            assert not np.any(opt.m[k][-2 * res.n_split:])   # new rows zeroed
            assert np.all(opt.m[k][:res.cloud.n - 2 * res.n_split] == 1.0)

    def test_render_perturbation_bounded(self, rng):
        # splitting one mid-scene Gaussian changes the image by a bounded amount
        cam = make_camera(width=32, height=32)
        deltas = []
        for _ in range(10):
            cloud = random_cloud(rng, 30, dim=4)
            before = render(cloud, cam).color
            target = int(rng.integers(30))
            ga, gb = split_gaussian(gaussian(cloud, target))
            keep = np.ones(30, dtype=bool)
            keep[target] = False
            kids = GaussianCloud(
                np.stack([ga.position, gb.position]),
                np.stack([ga.scale, gb.scale]),
                np.stack([ga.rotation, gb.rotation]),
                np.array([ga.opacity, gb.opacity]),
                np.stack([ga.color, gb.color]),
                np.stack([ga.encoding, gb.encoding]))
            after = render(cloud.select(keep).append(kids), cam).color
            deltas.append(np.abs(after - before).mean())
        assert max(deltas) <= 0.15
