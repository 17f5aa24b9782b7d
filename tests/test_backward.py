"""Hand-derived gradients against central finite differences."""

import tracemalloc

import numpy as np
import pytest

import gradiseg.render as render_module
from conftest import CUTOFF_MARGIN, cutoff_margins, make_camera, random_cloud
from gradiseg.backward import PER_GAUSSIAN, ParamGrads, accumulate_monitors, backward
from gradiseg.camera import CameraView, look_at
from gradiseg.render import ALPHA_CLAMP, render
from gradiseg.rotation import rot_grad_to_quat_grad
from gradiseg.scene import GaussianCloud
from oracles import fragments_at, recomputing_backward, stacked_quat_grad

FD_H = 1e-5
REL_TOL = 1e-4
ABS_TOL = 1e-7


def small_camera(w=8, h=8):
    return CameraView(look_at((0.0, 0.0, -3.0), (0.0, 0.0, 0.0)),
                      fx=28.0, fy=30.0, cx=w / 2.0, cy=h / 2.0, width=w, height=h)


def render_dot(cloud, cam, color_grads):
    """Scalar objective sum(color_grads * C)."""
    return float(np.sum(color_grads * render(cloud, cam).color))


def fd_cloud(rng, cam, n, dim):
    """A random cloud whose every (Gaussian, pixel) pair keeps CUTOFF_MARGIN
    from the rasterizer's thresholds, so no +-FD_H step crosses one."""
    while True:
        cloud = random_cloud(rng, n, dim=dim, opacity_range=(0.1, 0.85))
        if min(cutoff_margins(cloud, cam).values()) >= CUTOFF_MARGIN:
            return cloud


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


def fd_gradient(cloud, family, loss_fn, h=FD_H):
    analytic_shape = getattr(cloud, {
        "positions": "positions", "log_scales": "scales", "rotations": "rotations",
        "logit_opacities": "opacities", "colors": "colors", "encodings": "encodings",
    }[family]).shape
    g = np.zeros(analytic_shape)
    for ix in np.ndindex(*analytic_shape):
        cp = cloud.copy()
        PERTURB[family](cp, ix, +h)
        lp = loss_fn(cp)
        cm = cloud.copy()
        PERTURB[family](cm, ix, -h)
        lm = loss_fn(cm)
        g[ix] = (lp - lm) / (2 * h)
    return g


def assert_gradients_close(analytic, numeric, context=""):
    err = np.abs(analytic - numeric)
    ok = err <= np.maximum(ABS_TOL, REL_TOL * np.abs(numeric))
    assert ok.all(), (f"{context}: worst abs err {err.max():.3e} at "
                      f"{np.unravel_index(err.argmax(), err.shape)}")


class TestBackwardFiniteDifferences:
    def test_all_families_random_configs(self, rng):
        cam = small_camera()
        for trial in range(4):
            cloud = fd_cloud(rng, cam, 6, dim=5)
            pg = rng.standard_normal((8, 8, 3))
            out = render(cloud, cam)
            assert 0 < out.frag_source.size < cloud.n * 64   # supports are cut
            grads = backward(cloud, cam, out, pg)
            loss = lambda c: render_dot(c, cam, pg)
            for family in ("positions", "log_scales", "rotations",
                           "logit_opacities", "colors", "encodings"):
                numeric = fd_gradient(cloud, family, loss)
                analytic = getattr(grads, family)
                assert_gradients_close(analytic, numeric,
                                       f"trial {trial} family {family}")

    def test_orthographic_gradients(self, rng):
        cam = CameraView(look_at((0.0, 0.2, -3.0), (0.0, 0.0, 0.0)),
                         fx=6.0, fy=7.0, cx=4.0, cy=4.0, width=8, height=8,
                         mode="orthographic")
        cloud = fd_cloud(rng, cam, 5, dim=4)
        pg = rng.standard_normal((8, 8, 3))
        out = render(cloud, cam)
        assert 0 < out.frag_source.size < cloud.n * 64   # supports are cut
        grads = backward(cloud, cam, out, pg)
        loss = lambda c: render_dot(c, cam, pg)
        for family in ("positions", "log_scales", "rotations"):
            numeric = fd_gradient(cloud, family, loss)
            assert_gradients_close(getattr(grads, family), numeric, family)


class TestCutoffMargins:
    def test_pair_on_a_threshold_has_zero_margin(self):
        # orthographic, unit focal, identity pose: the screen mean is (x, y).
        # Gaussian 0 has cov2d = 0.7 + 0.3 = I, so pixel (5, 3) sits at q = 9;
        # Gaussian 1's alpha at its own mean pixel (6, 6) is its opacity, 1/255
        cam = CameraView(np.eye(4), fx=1.0, fy=1.0, cx=0.0, cy=0.0,
                         width=8, height=8, mode="orthographic")
        cloud = GaussianCloud(
            np.array([[2.0, 3.0, 1.0], [6.0, 6.0, 2.0]]),
            np.array([[np.sqrt(0.7)] * 3, [0.1] * 3]),
            np.array([[1.0, 0.0, 0.0, 0.0]] * 2), np.array([0.5, 1.0 / 255.0]),
            np.full((2, 3), 0.5), np.zeros((2, 4)))
        margins = cutoff_margins(cloud, cam)
        assert margins["q"] == 0.0 and margins["cutoff"] == 0.0
        assert min(margins[k] for k in ("clamp", "stop", "near", "tie")) > 0.1


class TestBackwardStructure:
    def test_single_fragment_encoding_grad(self):
        # loss = [C, E_id] at one pixel dotted with a fixed vector -> dL/dc and
        # dL/de are w1 * vector: the colour part from backward, which leaves the
        # encodings at zero, the encoding part from the operator's transpose
        cloud = GaussianCloud(
            np.array([[0.0, 0.0, 0.0]]), np.array([[1e-4] * 3]),
            np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([0.6]),
            np.array([[0.5, 0.5, 0.5]]), np.zeros((1, 4)))
        cam = CameraView(look_at((0.0, 0.0, -3.0), (0.0, 0.0, 0.0)),
                         fx=40.0, fy=40.0, cx=4.0, cy=4.0, width=9, height=9)
        out = render(cloud, cam)
        vec = np.array([1.0, -2.0, 3.0, 0.5, -1.5, 2.5, 0.25])
        pg = np.zeros((9, 9, 7))
        pg[4, 4] = vec
        grads = backward(cloud, cam, out, pg[..., :3])
        frag = fragments_at(out, 4, 4)[0]
        w1 = frag.alpha * frag.transmittance_before
        np.testing.assert_allclose(grads.colors[0], w1 * vec[:3], rtol=1e-12)
        assert not np.any(grads.encodings)
        enc = out.weights.T @ pg[..., 3:].reshape(81, 4)
        np.testing.assert_allclose(enc[0], w1 * vec[3:], rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_feature_grads_match_fragment_loop(self, rng, dtype):
        # dL/dc = sum over a Gaussian's fragments of w * dC, here
        # summed in float64 one fragment at a time; the engine accumulates in
        # the cloud's dtype, so each entry may differ by the summation error
        # bound (fragments - 1) * eps * sum |w * g| plus the rounding of w
        cam = make_camera(width=20, height=16)
        cloud = random_cloud(rng, 30, dim=5, dtype=dtype)
        out = render(cloud, cam)
        pg = rng.standard_normal((16, 20, 3)).astype(dtype)
        grads = backward(cloud, cam, out, pg)
        want = np.zeros((30, 3))
        bound = np.zeros((30, 3))
        count = np.zeros(30)
        for y in range(16):
            for x in range(20):
                for f in fragments_at(out, x, y):
                    term = float(f.alpha) * float(f.transmittance_before) * pg[y, x]
                    want[f.source_index] += term
                    bound[f.source_index] += np.abs(term)
                    count[f.source_index] += 1
        assert count.max() > 10
        tol = (count[:, None] + 2) * np.finfo(dtype).eps * bound
        assert np.all(np.abs(grads.colors - want) <= tol)
        assert not np.any(grads.encodings)

    def test_zero_pixel_grads_zero_out(self, rng):
        cam = small_camera()
        cloud = random_cloud(rng, 5, dim=4)
        out = render(cloud, cam)
        grads = backward(cloud, cam, out, np.zeros((8, 8, 3)))
        for f in PER_GAUSSIAN:
            assert not np.any(getattr(grads, f))

    def test_invisible_gaussians_zero_grad(self, rng):
        cam = small_camera()
        cloud = random_cloud(rng, 6, dim=4)
        cloud.positions[2] = [50.0, 50.0, 0.0]   # far off screen
        cloud.positions[4, 2] = -50.0            # behind the camera
        out = render(cloud, cam)
        grads = backward(cloud, cam, out, np.ones((8, 8, 3)))
        for i in (2, 4):
            assert not grads.visible[i]
            for f in PER_GAUSSIAN:
                assert not np.any(getattr(grads, f)[i])

    def test_gradient_linearity(self, rng):
        cam = small_camera()
        cloud = random_cloud(rng, 6, dim=4)
        out = render(cloud, cam)
        a = rng.standard_normal((8, 8, 3))
        b = rng.standard_normal((8, 8, 3))
        ga = backward(cloud, cam, out, a)
        gb = backward(cloud, cam, out, b)
        gab = backward(cloud, cam, out, a + b)
        for f in PER_GAUSSIAN:
            np.testing.assert_allclose(getattr(gab, f),
                                       getattr(ga, f) + getattr(gb, f),
                                       atol=1e-9)

    def test_rotation_grad_tangent(self, rng):
        cam = small_camera()
        cloud = random_cloud(rng, 5, dim=4)
        out = render(cloud, cam)
        grads = backward(cloud, cam, out, rng.standard_normal((8, 8, 3)))
        dots = np.einsum("nj,nj->n", grads.rotations, cloud.rotations)
        np.testing.assert_allclose(dots, 0.0, atol=1e-12)

    def test_mismatched_output_rejected(self, rng):
        cam = small_camera()
        cloud = random_cloud(rng, 5, dim=4)
        out = render(cloud, cam)
        # a colour-and-encoding gradient (3 + D channels) is not accepted
        with pytest.raises(ValueError, match="color_grads"):
            backward(cloud, cam, out, np.zeros((8, 8, 7)))
        bigger = random_cloud(rng, 7, dim=4)
        with pytest.raises(ValueError, match="cloud"):
            backward(bigger, cam, out, np.zeros((8, 8, 3)))


class TestBackwardBlocks:
    """backward forms the per-fragment dots <G, c> in blocks of whole pixels
    of about render.BLOCK fragments."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_independence(self, rng, monkeypatch, dtype):
        cam = make_camera(width=33, height=17)
        cases = []
        for opacity in ((0.1, 0.85), (0.9, 0.99)):   # the second stops at T_STOP
            cloud = random_cloud(rng, 60, dim=4, dtype=dtype, opacity_range=opacity)
            out = render(cloud, cam)
            pg = rng.standard_normal((17, 33, 3)).astype(dtype)
            cases.append((cloud, out, pg, backward(cloud, cam, out, pg)))
        for block in (1, 7, 10 ** 6):
            monkeypatch.setattr(render_module, "BLOCK", block)
            for cloud, out, pg, base in cases:
                grads = backward(cloud, cam, out, pg)
                for f in PER_GAUSSIAN + ("visible",):
                    got, want = getattr(grads, f), getattr(base, f)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (block, f)

    def test_peak_memory_below_one_feature_table(self, rng):
        # the whole call must stay below one (F, 3 + D) float32 table of
        # colours and encodings, D = 16. 140 Gaussians keep at least ten
        # blocks of fragments under the stop rule
        cam = make_camera(width=64, height=64)
        cloud = random_cloud(rng, 140, dim=16, dtype=np.float32, scale_range=(0.2, 0.4))
        out = render(cloud, cam)
        n_frag = out.frag_source.size
        assert n_frag >= 10 * render_module.BLOCK
        channels = 3 + cloud.dim
        pg = rng.standard_normal((64, 64, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            backward(cloud, cam, out, pg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_frag * channels * 4, (peak, n_frag)


# backward against the float64 recomputing oracle, per parameter family,
# relative to the family's largest entry: float64 agrees to rounding; float32
# carries the float32 render's and upstream chain's rounding (about 2e-5 here)
ORACLE_RTOL = {np.float32: 1e-4, np.float64: 1e-12}
GEOMETRY = ("positions", "log_scales", "rotations", "logit_opacities")


def assert_matches_oracle(grads, want, dtype):
    for f in PER_GAUSSIAN:
        got, ref = getattr(grads, f), getattr(want, f)
        assert got.dtype == dtype
        tol = ORACLE_RTOL[dtype] * np.abs(ref).max()
        err = np.abs(got - ref).max()
        assert err <= tol, f"{f}: {err:.3e} > {tol:.3e}"
    np.testing.assert_array_equal(grads.visible, want.visible)


def clamping_scene(dtype):
    """A large splat of opacity 0.999 in front of a random cloud: its
    central fragments reach ALPHA_CLAMP, the rest do not."""
    rng = np.random.default_rng(11)
    cloud = random_cloud(rng, 40, dim=5, dtype=dtype)
    cloud.positions[0] = [0.05, -0.03, -0.5]
    cloud.scales[0] = [0.5, 0.4, 0.45]
    cloud.opacities[0] = 0.999
    return cloud


class TestRecomputingOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_clouds(self, rng, dtype):
        # the last cloud is nearly opaque, so most pixels stop at T_STOP
        cam = make_camera(width=40, height=32)
        for opacity in ((0.1, 0.85),) * 3 + ((0.9, 0.99),):
            cloud = random_cloud(rng, 120, dim=6, dtype=dtype, opacity_range=opacity)
            out = render(cloud, cam)
            pg = rng.standard_normal((32, 40, 3)).astype(dtype)
            assert_matches_oracle(backward(cloud, cam, out, pg),
                                  recomputing_backward(cloud, cam, out, pg), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_partly_clamped_splat(self, rng, dtype):
        cam = make_camera(width=40, height=32)
        cloud = clamping_scene(dtype)
        out = render(cloud, cam)
        own = out.frag_source == 0
        clamped = out.frag_alpha[own] == dtype(ALPHA_CLAMP)
        assert 0 < clamped.sum() < clamped.size
        pg = rng.standard_normal((32, 40, 3)).astype(dtype)
        grads = backward(cloud, cam, out, pg)
        assert_matches_oracle(grads, recomputing_backward(cloud, cam, out, pg), dtype)
        assert np.all(grads.positions[0] != 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fully_clamped_splat_passes_no_geometry_gradient(self, rng, monkeypatch,
                                                              dtype):
        # a point-like splat centred on pixel (4, 4): with the cutoff at 0.5
        # its one fragment is the clamped centre, so only its colour sees a
        # gradient; the Gaussians behind it still get theirs. The
        # camera's binning bbox keeps the 1/255 bound, a superset of these
        # fragments
        cam = CameraView(look_at((0.0, 0.0, -3.0), (0.0, 0.0, 0.0)),
                         fx=12.0, fy=12.0, cx=4.0, cy=4.0, width=9, height=9)
        cloud = random_cloud(rng, 8, dim=4, dtype=dtype, opacity_range=(0.6, 0.9),
                             scale_range=(0.3, 0.5))
        cloud.positions[0] = [0.0, 0.0, -1.0]
        cloud.scales[0] = 1e-4
        cloud.opacities[0] = 0.999
        monkeypatch.setattr(render_module, "ALPHA_CUTOFF", 0.5)
        out = render(cloud, cam)
        own = np.flatnonzero(out.frag_source == 0)
        assert own.size == 1 and out.frag_alpha[own[0]] == dtype(ALPHA_CLAMP)
        pg = rng.standard_normal((9, 9, 3)).astype(dtype)
        grads = backward(cloud, cam, out, pg)
        for f in GEOMETRY:
            assert not np.any(getattr(grads, f)[0]), f
        assert np.any(grads.colors[0]) and not np.any(grads.encodings)
        assert np.any(grads.positions[1:])
        assert_matches_oracle(grads, recomputing_backward(cloud, cam, out, pg), dtype)

    def test_float32_rows_on_a_deep_render(self):
        # every visible row's geometry gradient, relative to that row: a
        # pixel's alpha suffix sum is tiny beside the image's running total,
        # and a sign-valued colour gradient (as L1 gives) makes rows cancel
        rng = np.random.default_rng(5)
        cam = make_camera(width=64, height=64)
        cloud = random_cloud(rng, 600, dim=4, dtype=np.float32)
        out = render(cloud, cam)
        assert out.frag_source.size >= 200_000
        pg = np.sign(rng.standard_normal((64, 64, 3))).astype(np.float32)
        grads = backward(cloud, cam, out, pg)
        want = recomputing_backward(cloud, cam, out, pg)
        rows = np.flatnonzero(want.visible)
        for f in GEOMETRY:
            got, ref = (getattr(g, f)[rows].reshape(rows.size, -1) for g in (grads, want))
            err = np.linalg.norm(got - ref, axis=1)
            assert np.all(err <= 1e-3 * np.linalg.norm(ref, axis=1)), f


class TestQuatGradOracle:
    """The closed-form contraction against the stacked dR/dq matrices."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_stacked_matrices(self, rng, dtype):
        q = (rng.standard_normal((500, 4)) * rng.uniform(0.5, 2.0, (500, 1))).astype(dtype)
        g = rng.standard_normal((500, 3, 3)).astype(dtype)
        got = rot_grad_to_quat_grad(q, g)
        want = stacked_quat_grad(q.astype(np.float64), g.astype(np.float64))
        assert got.dtype == dtype and got.shape == (500, 4)
        scale = np.abs(want).max(axis=1, keepdims=True)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert np.all(np.abs(got - want) <= tol * scale)

    def test_leading_axes(self, rng):
        q = rng.standard_normal((3, 5, 4))
        g = rng.standard_normal((3, 5, 3, 3))
        np.testing.assert_allclose(rot_grad_to_quat_grad(q, g),
                                   stacked_quat_grad(q, g), rtol=1e-12, atol=1e-14)


class TestMonitors:
    def make(self, n=3, dim=4):
        g = ParamGrads.zeros(n, dim, np.float64)
        cloud = GaussianCloud(
            np.zeros((n, 3)), np.ones((n, 3)),
            np.tile([1.0, 0, 0, 0], (n, 1)), np.full(n, 0.5),
            np.full((n, 3), 0.5), np.zeros((n, dim)))
        return cloud, g

    def test_ema_closed_form(self):
        # 10 iterations of constant dL/dp = g -> ema = g * (1 - 0.9^10)
        cloud, g = self.make(1)
        g.positions[0] = [1.0, -2.0, 0.5]
        for _ in range(10):
            accumulate_monitors(cloud, g)
        expect = np.array([1.0, -2.0, 0.5]) * (1 - 0.9 ** 10)
        np.testing.assert_allclose(cloud.pos_grad_ema[0], expect, rtol=1e-12)
