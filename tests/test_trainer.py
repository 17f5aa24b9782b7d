"""Optimizer, joint loss, standard densification, and the training loop."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gradiseg
import gradiseg.scene as scene_module
from conftest import HalfWrite, random_cloud
from gradiseg.backward import ParamGrads, backward
from gradiseg.render import render
from gradiseg.scene import GaussianCloud
from gradiseg.semantic import ClassifierHead, loss_2d
from gradiseg.laknn import loss_3d
from gradiseg.synth import default_scene_spec, generate
from gradiseg.trainer import (AdamOptimizer, DensifyStats, TrainSchedule,
                              init_cloud, l1_loss, standard_densify, total_loss,
                              train)


class TestAdam:
    def make(self, n=4):
        shapes = {"positions": (n, 3), "head_weights": (2, 2)}
        return AdamOptimizer(shapes, {"positions": 0.01, "head_weights": 0.01},
                             np.float64)

    def test_zero_gradient_keeps_parameters(self):
        opt = self.make()
        p = np.ones((4, 3))
        opt.step({"positions": p}, {"positions": np.zeros((4, 3))})
        np.testing.assert_array_equal(p, np.ones((4, 3)))
        assert not np.any(opt.m["positions"])
        assert opt.t["positions"] == 1

    def test_first_step_bias_corrected(self):
        # g = 0.5, lr = 0.01 -> delta = -0.01 * 0.5 / (sqrt(0.25) + 1e-8)
        opt = self.make(1)
        p = np.zeros((1, 3))
        g = np.full((1, 3), 0.5)
        opt.step({"positions": p}, {"positions": g})
        expect = -0.01 * 0.5 / (np.sqrt(0.25) + 1e-8)
        np.testing.assert_allclose(p, expect, rtol=1e-12)

    def test_quadratic_convergence(self):
        # 100 steps on f(x) = x^2 from x=1 with lr 0.1 -> |x| < 0.05
        opt = AdamOptimizer({"x": (1,)}, {"x": 0.1}, np.float64)
        x = np.array([1.0])
        for _ in range(100):
            opt.step({"x": x}, {"x": 2.0 * x})
        assert abs(x[0]) < 0.05

    def test_nan_gradient_names_family(self):
        opt = self.make()
        with pytest.raises(FloatingPointError, match="positions"):
            opt.step({"positions": np.zeros((4, 3))},
                     {"positions": np.full((4, 3), np.nan)})

    def test_row_edits(self):
        opt = self.make(4)
        opt.m["positions"][:] = 7.0
        opt.keep_rows(np.array([0, 2]), 5)
        assert opt.m["positions"].shape == (5, 3)
        assert np.all(opt.m["positions"][:2] == 7.0)
        assert not np.any(opt.m["positions"][2:])
        # head family untouched by row edits
        assert opt.m["head_weights"].shape == (2, 2)


class TestTotalLoss:
    def synth_view(self, seed=0):
        spec = default_scene_spec(seed)
        spec.views = 2
        cloud, head, dataset, _ = generate(spec)
        return cloud, head, dataset.views[0]

    def test_perfect_render_uniform_head(self):
        # L1 = 0 against own render; zero head forces L2d = ln(C); beta = 0
        cloud, _, view = self.synth_view()
        cloud = cloud.astype(np.float64)
        head = ClassifierHead.zeros(256, cloud.dim, dtype=np.float64)
        out = render(cloud, view)
        view.image = out.color.copy()
        parts, _, _ = total_loss(cloud, view, out, head, alpha=1.0, beta=0.0,
                                 knn_mode="global", knn_k=3, knn_samples=10,
                                 rng_seed=0)
        assert parts["l1"] == pytest.approx(0.0, abs=1e-12)
        assert parts["l2d"] == pytest.approx(np.log(256.0), rel=1e-6)
        assert parts["total"] == pytest.approx(np.log(256.0), rel=1e-6)

    def test_zero_in_the_matched_limit(self):
        # identical images -> L1 = 0; identical encodings -> L3d = 0;
        # gt mask = the classifier's own sharp decision -> p[gt] ~ 1
        from gradiseg.semantic import segment_mask
        cloud, _, view = self.synth_view()
        cloud = cloud.astype(np.float64)
        cloud.encodings[:] = 0.0
        cloud.encodings[:, 1] = 1.0
        head = ClassifierHead.zeros(256, cloud.dim, dtype=np.float64)
        head.weights[1, 1] = 2000.0
        head.biases[0] = 1000.0  # decision boundary at blended weight 0.5
        out = render(cloud, view)
        view.image = out.color.copy()
        view.mask = segment_mask(out.identity, out.final_transmittance, head)
        parts, _, _ = total_loss(cloud, view, out, head, alpha=1.0, beta=2.0,
                                 knn_mode="global", knn_k=3, knn_samples=50,
                                 rng_seed=1)
        assert parts["l1"] == 0.0
        assert parts["l3d"] == pytest.approx(0.0, abs=1e-12)
        assert parts["l2d"] < 1e-3
        assert parts["total"] < 1e-3

    def test_additivity_of_gradients(self, rng):
        # total gradient equals the weighted sum of sub-loss gradients
        from conftest import make_camera
        cam = make_camera(width=12, height=12)
        cloud = random_cloud(rng, 8, dim=4)
        cam.image = rng.uniform(0, 1, (12, 12, 3))
        cam.mask = rng.integers(0, 5, (12, 12)).astype(np.uint8)
        head = ClassifierHead(rng.standard_normal((6, 4)),
                              rng.standard_normal(6))
        out = render(cloud, cam)
        alpha, beta = 0.7, 1.3
        parts, grads, (hw, hb) = total_loss(
            cloud, cam, out, head, alpha, beta, "global", 2, 5, rng_seed=3)

        _, d_color = l1_loss(out.color, cam.image)
        _, d_ident, (hw2, hb2) = loss_2d(out.identity, cam.mask, head)
        _, ge3 = loss_3d(cloud, head, 5, 2, "global", 3)
        g1 = backward(cloud, cam, out, d_color)
        g2 = out.weights.T @ d_ident.reshape(-1, cloud.dim)   # L2d's dL/de
        np.testing.assert_allclose(
            grads.encodings, g1.encodings + alpha * g2 + beta * ge3, atol=1e-9)
        # L2d does not reach the geometry
        np.testing.assert_allclose(grads.positions, g1.positions, atol=1e-9)
        np.testing.assert_allclose(hw, alpha * hw2, atol=1e-12)
        np.testing.assert_allclose(hb, alpha * hb2, atol=1e-12)
        assert parts["total"] == pytest.approx(
            parts["l1"] + alpha * parts["l2d"] + beta * parts["l3d"])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_identity_losses_train_only_the_encodings(self, rng, dtype):
        # the decoupling contract: every family but the encodings carries the
        # bytes of backward on the L1 gradient alone, and the encodings get
        # W.T @ (alpha dE) + beta ge3 (float64 reference)
        from conftest import make_camera
        cam = make_camera(width=16, height=12)
        cloud = random_cloud(rng, 40, dim=4, dtype=dtype)
        cam.image = rng.uniform(0, 1, (12, 16, 3))
        cam.mask = rng.integers(0, 5, (12, 16)).astype(np.uint8)
        head = ClassifierHead(rng.standard_normal((6, 4)).astype(dtype),
                              rng.standard_normal(6).astype(dtype))
        out = render(cloud, cam)
        alpha, beta = 0.7, 1.3
        _, grads, _ = total_loss(cloud, cam, out, head, alpha, beta, "global",
                                 2, 10, rng_seed=3)

        _, d_color = l1_loss(out.color, cam.image)
        _, d_ident, _ = loss_2d(out.identity, cam.mask, head)
        _, ge3 = loss_3d(cloud, head, 10, 2, "global", 3)
        g1 = backward(cloud, cam, out, d_color)
        for name in ("positions", "log_scales", "rotations", "logit_opacities",
                     "colors", "visible"):
            got, want = getattr(grads, name), getattr(g1, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert np.any(g1.positions)
        w = out.weights.astype(np.float64)
        want = (w.T @ (alpha * d_ident.astype(np.float64)).reshape(-1, 4)
                + beta * ge3.astype(np.float64))
        assert grads.encodings.dtype == dtype
        tol = {np.float32: 1e-5, np.float64: 1e-12}[dtype] * np.abs(want).max()
        assert np.abs(grads.encodings - want).max() <= tol


class TestDensifyStats:
    def test_zero_grads_leave_accum(self):
        stats = DensifyStats(3, np.float64)
        stats.update(ParamGrads.zeros(3, 4, np.float64))
        for sums in (stats.grad_accum, stats.id_accum, stats.denom):
            assert not np.any(sums)

    def test_norm_accumulation_345(self):
        g = ParamGrads.zeros(1, 4, np.float64)
        g.positions[0] = [0.0, 6.0, 8.0]
        g.encodings[0, :2] = [3.0, 4.0]
        g.visible[0] = True
        stats = DensifyStats(1, np.float64)
        stats.update(g)
        assert stats.grad_accum[0] == pytest.approx(10.0)
        assert stats.id_accum[0] == pytest.approx(5.0)
        assert stats.denom[0] == 1


class TestStandardDensify:
    def stats_for(self, cloud, grads, denom=1):
        stats = DensifyStats(cloud.n, cloud.dtype)
        stats.grad_accum[:] = grads
        stats.denom[:] = denom
        return stats

    def test_zero_accumulators_prune_only(self, rng):
        cloud = random_cloud(rng, 20, dim=4)
        cloud.opacities[(3, 9),] = 0.001
        stats = self.stats_for(cloud, np.zeros(20))
        out, kept = standard_densify(cloud, stats, 1.0, np.random.default_rng(0))
        assert out.n == 18
        np.testing.assert_array_equal(kept, np.delete(np.arange(20), [3, 9]))

    def test_small_hot_gaussian_cloned(self, rng):
        cloud = random_cloud(rng, 10, dim=4, scale_range=(0.001, 0.002))
        grads = np.zeros(10)
        grads[4] = 1.0
        stats = self.stats_for(cloud, grads)
        out, _ = standard_densify(cloud, stats, 1.0, np.random.default_rng(0))
        assert out.n == 11
        np.testing.assert_array_equal(out.positions[10], cloud.positions[4])

    def test_large_hot_gaussian_split(self, rng):
        cloud = random_cloud(rng, 10, dim=4, scale_range=(0.5, 0.6))
        grads = np.zeros(10)
        grads[4] = 1.0
        stats = self.stats_for(cloud, grads)
        out, _ = standard_densify(cloud, stats, 1.0, np.random.default_rng(0))
        assert out.n == 11  # parent replaced by two children
        np.testing.assert_allclose(out.scales[-2:],
                                   np.tile(cloud.scales[4] / 1.6, (2, 1)))

    def test_row_alignment(self, rng):
        # hot rows 1, 2, 3, 5, 7, 9; rows 1 and 9 are pruned; 2 and 7 split;
        # 3 and 5 clone -> kept[~split] ++ clones (3, 5) ++ children (2, 2, 7, 7)
        n = 12
        cloud = random_cloud(rng, n, dim=4, scale_range=(0.001, 0.002))
        cloud.scales[[2, 7, 9]] = 0.5
        cloud.opacities[:] = 0.5
        cloud.opacities[[1, 9]] = 0.001
        cloud.pos_grad_ema[:] = rng.standard_normal((n, 3))
        grads = np.zeros(n)
        grads[[1, 2, 3, 5, 7, 9]] = 1.0
        stats = self.stats_for(cloud, grads)
        opt = AdamOptimizer({"positions": (n, 3), "encodings": (n, 4),
                             "head_weights": (2, 2)},
                            {"positions": 0.1, "encodings": 0.1, "head_weights": 0.1},
                            np.float64)
        for moments in (opt.m, opt.v):
            for name in ("positions", "encodings", "head_weights"):
                moments[name][:] = rng.uniform(1.0, 2.0, moments[name].shape)
        old_m = {k: a.copy() for k, a in opt.m.items()}
        old_v = {k: a.copy() for k, a in opt.v.items()}

        out, kept = standard_densify(cloud, stats, 1.0, np.random.default_rng(0))
        opt.keep_rows(kept, out.n)

        np.testing.assert_array_equal(kept, [0, 3, 4, 5, 6, 8, 10, 11])
        assert out.n == 8 + 2 + 4
        sources = np.concatenate([kept, [3, 5], [2, 2, 7, 7]])
        np.testing.assert_array_equal(out.encodings, cloud.encodings[sources])
        np.testing.assert_array_equal(out.positions[:10], cloud.positions[sources[:10]])
        np.testing.assert_array_equal(out.scales[10:], cloud.scales[sources[10:]] / 1.6)
        # survivors and clones carry their source rows' monitor; children start at zero
        np.testing.assert_array_equal(out.pos_grad_ema[:10],
                                      cloud.pos_grad_ema[sources[:10]])
        assert not np.any(out.pos_grad_ema[10:])
        # survivors keep their Adam moments; clones and children start at zero
        for name in ("positions", "encodings"):
            for new, old in ((opt.m, old_m), (opt.v, old_v)):
                assert new[name].shape[0] == out.n
                np.testing.assert_array_equal(new[name][:8], old[name][kept])
                assert not np.any(new[name][8:])
        np.testing.assert_array_equal(opt.m["head_weights"], old_m["head_weights"])


def nn_scale_brute_force(pos):
    """Mean nearest-neighbour distance by chunked O(N^2) search, self
    excluded: the reference for init_cloud's isotropic scale."""
    nn = np.full(len(pos), np.inf)
    for s in range(0, len(pos), 512):
        block = pos[s:s + 512]
        d2 = ((block[:, None, :] - pos[None, :, :]) ** 2).sum(-1)
        d2[np.arange(block.shape[0]), s + np.arange(block.shape[0])] = np.inf
        nn[s:s + 512] = np.sqrt(d2.min(axis=1))
    return float(np.mean(nn))


class TestInitCloud:
    BBOX = np.array([[-0.8, -0.7, -0.5], [0.8, 0.7, 0.9]])

    @pytest.mark.parametrize("count", [2, 150, 2000])
    @pytest.mark.parametrize("seed", [0, 11, 42])
    def test_scale_bit_equal_to_brute_force(self, count, seed):
        cloud = init_cloud(self.BBOX, count, 4, np.random.default_rng(seed),
                           dtype=np.float64)
        assert np.all(cloud.scales == nn_scale_brute_force(cloud.positions))

    def test_single_gaussian_default_scale(self):
        cloud = init_cloud(self.BBOX, 1, 4, np.random.default_rng(0))
        np.testing.assert_array_equal(cloud.scales, np.float32(0.1))


def tiny_dataset(seed=0, views=4):
    spec = default_scene_spec(seed)
    spec.views = views
    _, _, dataset, _ = generate(spec)
    return dataset


def fast_schedule(**kw):
    defaults = dict(total_iters=40, densify_end=16, igd_end=20, knn_switch=16,
                    densify_interval=8, igd_interval=4, knn_samples=50,
                    init_count=150, checkpoint_interval=20, log_interval=10,
                    seed=11)
    defaults.update(kw)
    return TrainSchedule(**defaults)


class TestTrainLoop:
    def test_zero_iterations_saves_initial_scene(self, tmp_path):
        from gradiseg.scene import load_scene
        dataset = tiny_dataset()
        sched = TrainSchedule(total_iters=0, init_count=150, seed=11)
        result = train(dataset, sched, tmp_path)
        cloud, _ = load_scene(tmp_path / "final.gseg")
        assert cloud.n == 150
        # parameters untouched by any update: opacity still at init value
        np.testing.assert_allclose(cloud.opacities, 0.1, atol=1e-7)

    def test_failed_metrics_write_keeps_old_file(self, tmp_path, monkeypatch):
        dataset = tiny_dataset()
        train(dataset, TrainSchedule(total_iters=0, init_count=150, seed=11), tmp_path)
        old = (tmp_path / "metrics.csv").read_bytes()

        def fail_on_metrics(path, mode):
            return (HalfWrite if "metrics.csv" in str(path) else open)(path, mode)

        monkeypatch.setattr(scene_module, "open", fail_on_metrics, raising=False)
        with pytest.raises(OSError, match="No space left"):
            train(dataset, TrainSchedule(total_iters=0, init_count=160, seed=11), tmp_path)
        assert (tmp_path / "metrics.csv").read_bytes() == old
        assert sorted(os.listdir(tmp_path)) == ["final.gseg", "metrics.csv"]

    def test_same_bytes_with_one_or_two_blas_threads(self, tmp_path):
        # local-adaptive KNN from iteration 8, so the direction-aware search's
        # BLAS product runs on most iterations
        spec = default_scene_spec(5)
        spec.views = 4
        generate(spec, out_dir=tmp_path / "ds")
        cfg = tmp_path / "train.cfg"
        cfg.write_text("total_iters = 24\ndensify_end = 8\nigd_end = 12\n"
                       "knn_switch = 8\ndensify_interval = 4\nigd_interval = 3\n"
                       "init_count = 300\nknn_samples = 200\n"
                       "checkpoint_interval = 24\nlog_interval = 6\n")
        env = dict(os.environ, PYTHONPATH=str(Path(gradiseg.__file__).parents[1]))
        for threads in ("1", "2"):
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "gradiseg.cli", "train",
                            "--data", str(tmp_path / "ds"), "--config", str(cfg),
                            "--out", str(tmp_path / threads)],
                           env=env, check=True, capture_output=True)
        for name in ("final.gseg", "metrics.csv"):
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes()), name

    def test_determinism_byte_identical(self, tmp_path):
        dataset = tiny_dataset()
        r1 = train(dataset, fast_schedule(), tmp_path / "a")
        r2 = train(dataset, fast_schedule(), tmp_path / "b")
        m1 = (tmp_path / "a" / "metrics.csv").read_bytes()
        m2 = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert m1 == m2
        c1 = (tmp_path / "a" / "ckpt_20.gseg").read_bytes()
        c2 = (tmp_path / "b" / "ckpt_20.gseg").read_bytes()
        assert c1 == c2
        f1 = (tmp_path / "a" / "final.gseg").read_bytes()
        f2 = (tmp_path / "b" / "final.gseg").read_bytes()
        assert f1 == f2

    def test_unlabelled_head_rows_stay_byte_identical(self, tmp_path):
        dataset = tiny_dataset()
        result = train(dataset, fast_schedule(total_iters=24, checkpoint_interval=0),
                       tmp_path)
        labels = np.unique(np.concatenate([v.mask.ravel() for v in dataset.views]))
        unlabelled = np.setdiff1d(np.arange(result.head.num_classes), labels)
        assert unlabelled.size > 200
        rows = np.concatenate([result.head.weights, result.head.biases[:, None]], axis=1)
        assert np.abs(rows[unlabelled[0]]).max() > 0.0
        assert (rows[unlabelled] == rows[unlabelled[0]]).all()
        assert np.unique(rows, axis=0).shape[0] == labels.size + 1

    def test_phase_exclusivity_and_knn_switch(self, tmp_path, monkeypatch):
        import gradiseg.trainer as trainer_mod
        events = []  # (kind, call order)
        knn_modes = []
        orig_dens = trainer_mod.standard_densify
        orig_igd = trainer_mod.igd_step
        orig_l3d = trainer_mod.loss_3d

        def spy_dens(*a, **k):
            events.append(("densify", len(knn_modes)))
            return orig_dens(*a, **k)

        def spy_igd(*a, **k):
            events.append(("igd", len(knn_modes)))
            return orig_igd(*a, **k)

        def spy_l3d(cloud, head, m, k, mode, seed, **kw):
            knn_modes.append(mode)
            return orig_l3d(cloud, head, m, k, mode, seed, **kw)

        monkeypatch.setattr(trainer_mod, "standard_densify", spy_dens)
        monkeypatch.setattr(trainer_mod, "igd_step", spy_igd)
        monkeypatch.setattr(trainer_mod, "loss_3d", spy_l3d)

        dataset = tiny_dataset()
        # densify_end=16, igd_end=20, intervals 8/4 -> densify at 8, igd at 16
        sched = fast_schedule(log_interval=1000, checkpoint_interval=0)
        trainer_mod.train(dataset, sched, tmp_path)
        densify_at = [n for kind, n in events if kind == "densify"]
        igd_at = [n for kind, n in events if kind == "igd"]
        assert densify_at == [8]    # only strictly before densify_end
        assert igd_at == [16]       # only inside [densify_end, igd_end)
        # loss_3d call n belongs to iteration n (0-based)
        assert all(m == "global" for m in knn_modes[:16])
        assert all(m == "local-adaptive" for m in knn_modes[16:])

    def test_photometric_only_l1_decreases(self, tmp_path):
        dataset = tiny_dataset()
        sched = fast_schedule(total_iters=120, densify_end=48, igd_end=60,
                              knn_switch=48, alpha_2d=0.0, beta_3d=0.0,
                              log_interval=10)
        result = train(dataset, sched, tmp_path)
        l1 = [row[1] for row in result.metrics_rows]
        assert np.mean(l1[-3:]) < np.mean(l1[:3])

    def test_divergence_guard(self, tmp_path):
        dataset = tiny_dataset()
        dataset.views[0].image = dataset.views[0].image.copy()
        dataset.views[0].image[0, 0, 0] = np.nan  # poisons L1 at iteration 0
        sched = fast_schedule(total_iters=30, densify_end=12, igd_end=15,
                              knn_switch=12)
        with pytest.raises(FloatingPointError, match="diverged"):
            train(dataset, sched, tmp_path)

    def test_densify_stats_reset_after_row_edits(self, tmp_path, monkeypatch):
        import gradiseg.trainer as trainer_mod
        edited, seen = [], []
        for name in ("standard_densify", "igd_step"):
            def spy(*a, _orig=getattr(trainer_mod, name), **k):
                edited.append(True)
                return _orig(*a, **k)
            monkeypatch.setattr(trainer_mod, name, spy)
        orig_update = trainer_mod.DensifyStats.update

        def spy_update(stats, grads):
            if edited:  # first update after a row edit
                edited.clear()
                sums = (stats.grad_accum, stats.id_accum, stats.denom)
                seen.append(([a.shape for a in sums], grads.positions.shape[0],
                             [np.any(a) for a in sums]))
            return orig_update(stats, grads)

        monkeypatch.setattr(trainer_mod.DensifyStats, "update", spy_update)
        train(tiny_dataset(), fast_schedule(log_interval=1000, checkpoint_interval=0),
              tmp_path)
        assert len(seen) == 2  # standard densify at 8, IGD at 16
        for shapes, n, nonzero in seen:
            assert shapes == [(n,)] * 3
            assert not any(nonzero)

    def test_schedule_without_igd_pass_warns(self):
        # phases at 0.4 T and 0.5 T give [120, 150), which holds no multiple of 100
        with pytest.warns(UserWarning, match="no IGD pass"):
            TrainSchedule(total_iters=300).resolved()

    @pytest.mark.parametrize("kw", [
        {},
        dict(total_iters=300, use_igd=False),
        dict(total_iters=80, densify_end=40, igd_end=70, knn_switch=40,
             densify_interval=20, igd_interval=20),
        dict(total_iters=40, knn_switch=4, densify_end=10, igd_end=20,
             densify_interval=5, igd_interval=5),
    ])
    def test_schedules_with_igd_pass_do_not_warn(self, kw):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TrainSchedule(**kw).resolved()

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TrainSchedule(total_iters=100, densify_end=80, igd_end=40).resolved()
        with pytest.raises(ValueError):
            TrainSchedule(alpha_2d=-1.0).resolved()
        with pytest.raises(ValueError, match="interval"):
            TrainSchedule(igd_interval=0).resolved()
