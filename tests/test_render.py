"""Forward rasterization against the naive scalar compositing oracle."""

import numpy as np
import pytest

from conftest import random_cloud, reference_render, test_camera
from gradiseg.camera import Splat2D
from gradiseg.render import (RenderOptions, pixel_alpha, render,
                             render_group_weights)
from gradiseg.scene import GaussianCloud


def make_splat(mean=(0.0, 0.0), cov=np.eye(2)):
    return Splat2D(mean2d=np.asarray(mean, dtype=np.float64),
                   cov2d=np.asarray(cov, dtype=np.float64),
                   depth=1.0, source_index=0)


class TestPixelAlpha:
    def test_at_center_equals_opacity(self):
        assert pixel_alpha(make_splat(), 0.7, (0.0, 0.0)) == pytest.approx(0.7)

    def test_isotropic_falloff(self):
        # o=1, cov=I, |d|=2 -> exp(-2) ~ 0.1353
        a = pixel_alpha(make_splat(), 1.0, (2.0, 0.0))
        assert a == pytest.approx(np.exp(-2.0), rel=1e-12)

    def test_symmetric_in_d(self):
        s = make_splat(cov=np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert pixel_alpha(s, 0.9, (1.3, -0.4)) == pytest.approx(
            pixel_alpha(s, 0.9, (-1.3, 0.4)))

    def test_clamped_at_099(self):
        assert pixel_alpha(make_splat(), 1.0, (0.0, 0.0)) == pytest.approx(0.99)

    def test_cutoff_drops_small(self):
        assert pixel_alpha(make_splat(), 1.0, (10.0, 0.0)) == 0.0

    def test_singular_cov_rejected(self):
        s = make_splat(cov=np.zeros((2, 2)))
        with pytest.raises(FloatingPointError):
            pixel_alpha(s, 0.5, (0.0, 0.0))


def centered_camera():
    # integer principal point so stacked splats land exactly on pixel (4, 4)
    from gradiseg.camera import CameraView, look_at
    return CameraView(look_at((0.0, 0.0, -3.0), (0.0, 0.0, 0.0)),
                      fx=40.0, fy=40.0, cx=4.0, cy=4.0, width=9, height=9)


def stacked_cloud(alphas_colors_encodings, dim=4):
    """Gaussians stacked along +z at one pixel: tiny isotropic splats whose
    center alpha equals the requested opacity."""
    rows = []
    for k, (op, col, enc) in enumerate(alphas_colors_encodings):
        rows.append((op, col, enc, 1.0 + 0.5 * k))
    n = len(rows)
    cloud = GaussianCloud(
        np.array([[0.0, 0.0, r[3] - 3.0] for r in rows]),
        np.full((n, 3), 1e-4),
        np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        np.array([r[0] for r in rows], dtype=np.float64),
        np.array([r[1] for r in rows], dtype=np.float64),
        np.array([r[2] for r in rows], dtype=np.float64),
    )
    return cloud


class TestRenderClosedForm:
    def cam(self):
        return centered_camera()

    def test_single_opaque_fragment_clamped(self):
        cloud = stacked_cloud([(1.0, (0.0, 0.0, 1.0), np.zeros(4))])
        out = render(cloud, self.cam(), background=(0.0, 0.0, 0.0))
        center = out.color[4, 4]  # projection of (0,0,*) is the center pixel
        np.testing.assert_allclose(center, [0.0, 0.0, 0.99], atol=1e-9)

    def test_two_fragment_color(self):
        cloud = stacked_cloud([
            (0.5, (1.0, 0.0, 0.0), np.zeros(4)),
            (0.5, (0.0, 1.0, 0.0), np.zeros(4)),
        ])
        out = render(cloud, self.cam(), background=(0.0, 0.0, 0.0))
        np.testing.assert_allclose(out.color[4, 4], [0.5, 0.25, 0.0], atol=1e-9)

    def test_two_fragment_identity(self):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0, 0.0])
        cloud = stacked_cloud([(0.6, (0.5,) * 3, e1), (1.0, (0.5,) * 3, e2)])
        out = render(cloud, self.cam(), background=(0.0, 0.0, 0.0))
        # w1 = 0.6; w2 = clamp(1.0)=0.99 * (1-0.6) = 0.396... identity has no bg
        np.testing.assert_allclose(out.color.shape, (9, 9, 3))
        np.testing.assert_allclose(out.identity[4, 4],
                                   [0.6, 0.4 * 0.99, 0.0, 0.0], atol=1e-9)

    def test_background_fills_empty(self):
        cloud = GaussianCloud.empty(dim=4, dtype=np.float64)
        out = render(cloud, self.cam(), background=(0.2, 0.4, 0.6))
        assert np.allclose(out.color, [0.2, 0.4, 0.6])
        assert np.allclose(out.identity, 0.0)
        assert np.allclose(out.final_transmittance, 1.0)


class TestRenderOracle:
    def test_matches_naive_compositing(self, rng):
        cam = test_camera(width=32, height=32)
        for trial in range(3):
            cloud = random_cloud(rng, 50, dim=4)
            out = render(cloud, cam, background=(0.1, 0.2, 0.3))
            ref_color, ref_ident, ref_t, _ = reference_render(
                cloud, cam, background=(0.1, 0.2, 0.3))
            np.testing.assert_allclose(out.color, ref_color, atol=1e-6)
            np.testing.assert_allclose(out.identity, ref_ident, atol=1e-6)
            np.testing.assert_allclose(out.final_transmittance, ref_t, atol=1e-6)

    def test_fragment_records_match_oracle(self, rng):
        cam = test_camera(width=16, height=16)
        cloud = random_cloud(rng, 30, dim=4)
        out = render(cloud, cam)
        _, _, _, ref_frags = reference_render(cloud, cam)
        for y in range(16):
            for x in range(16):
                got = out.fragments_at(x, y)
                want = ref_frags[y][x]
                assert len(got) == len(want)
                for f, (i, a, t) in zip(got, want):
                    assert f.source_index == i
                    assert f.alpha == pytest.approx(a, abs=1e-9)
                    assert f.transmittance_before == pytest.approx(t, abs=1e-9)


class TestRenderInvariants:
    def test_weight_conservation(self, rng):
        cam = test_camera(width=24, height=24)
        cloud = random_cloud(rng, 80, dim=4)
        out = render(cloud, cam)
        total = np.zeros(24 * 24)
        w = out.frag_alpha * out.frag_t_before
        np.add.at(total, np.repeat(np.arange(24 * 24), np.diff(out.frag_start)), w)
        np.testing.assert_allclose(
            total + out.final_transmittance.ravel(), 1.0, atol=1e-5)

    def test_transmittance_before_is_running_product(self, rng):
        cam = test_camera(width=12, height=12)
        cloud = random_cloud(rng, 40, dim=4)
        out = render(cloud, cam)
        for y in range(12):
            for x in range(12):
                t = 1.0
                for f in out.fragments_at(x, y):
                    assert f.transmittance_before == pytest.approx(t, abs=1e-6)
                    assert f.alpha <= 0.99
                    t *= 1.0 - f.alpha

    def test_occlusion_by_front_fragment(self, rng):
        cam = test_camera(width=16, height=16)
        cloud = random_cloud(rng, 40, dim=4, opacity_range=(0.99, 1.0))
        out = render(cloud, cam)
        for y in range(16):
            for x in range(16):
                frags = out.fragments_at(x, y)
                if frags and frags[0].alpha >= 0.989:
                    for f in frags[1:]:
                        assert f.alpha * f.transmittance_before < 0.011

    def test_shared_encoding_property(self, rng):
        # every Gaussian carries the same e -> E_id = e * (1 - T_final)
        cam = test_camera(width=16, height=16)
        cloud = random_cloud(rng, 60, dim=4)
        e = np.array([0.3, -0.7, 1.1, 0.05])
        cloud.encodings[:] = e
        out = render(cloud, cam)
        expect = e[None, None, :] * (1.0 - out.final_transmittance)[..., None]
        np.testing.assert_allclose(out.identity, expect, atol=1e-5)

    def test_permutation_invariance(self, rng):
        cam = test_camera(width=16, height=16)
        cloud = random_cloud(rng, 50, dim=4)
        perm = rng.permutation(50)
        shuffled = cloud.select(perm)
        a = render(cloud, cam)
        b = render(shuffled, cam)
        np.testing.assert_allclose(a.color, b.color, atol=1e-12)
        np.testing.assert_allclose(a.identity, b.identity, atol=1e-12)

    def test_tiling_invariance(self, rng):
        cam = test_camera(width=33, height=17)  # non-multiple of tile sizes
        cloud = random_cloud(rng, 60, dim=4)
        base = render(cloud, cam, opts=RenderOptions(tile=16))
        for tile in (4, 8, 64):
            alt = render(cloud, cam, opts=RenderOptions(tile=tile))
            np.testing.assert_array_equal(base.color, alt.color)
            np.testing.assert_array_equal(base.identity, alt.identity)
            np.testing.assert_array_equal(base.frag_source, alt.frag_source)
            np.testing.assert_array_equal(base.frag_alpha, alt.frag_alpha)

    def test_thread_invariance(self, rng):
        cam = test_camera(width=32, height=32)
        cloud = random_cloud(rng, 60, dim=4)
        serial = render(cloud, cam, opts=RenderOptions(threads=1))
        threaded = render(cloud, cam, opts=RenderOptions(threads=4))
        np.testing.assert_array_equal(serial.color, threaded.color)
        np.testing.assert_array_equal(serial.frag_alpha, threaded.frag_alpha)


class TestGroupWeights:
    def test_single_opaque_group(self):
        cloud = stacked_cloud([(1.0, (0.5,) * 3, np.zeros(4))])
        cloud.group_ids[:] = 1
        cam = centered_camera()
        weights = render_group_weights(cloud, cam)
        assert weights.shape == (9, 9, 2)
        assert weights[4, 4, 1] == pytest.approx(0.99)
        assert weights[4, 4, 0] == 0.0

    def test_empty_pixel_all_zero(self):
        cloud = stacked_cloud([(1.0, (0.5,) * 3, np.zeros(4))])
        cloud.group_ids[:] = 1
        cam = centered_camera()
        weights = render_group_weights(cloud, cam)
        assert np.all(weights[0, 0] == 0.0)

    def test_unassigned_rejected(self, rng):
        cloud = random_cloud(rng, 5, dim=4)
        with pytest.raises(ValueError, match="assigned"):
            render_group_weights(cloud, test_camera())

    def test_matches_fragment_regrouping(self, rng):
        # regroup oracle: sum fragment weights per group id per pixel
        cam = test_camera(width=16, height=16)
        cloud = random_cloud(rng, 40, dim=4)
        cloud.group_ids[:] = rng.integers(0, 5, 40)
        weights = render_group_weights(cloud, cam)
        out = render(cloud, cam)
        expect = np.zeros_like(weights)
        for y in range(16):
            for x in range(16):
                for f in out.fragments_at(x, y):
                    g = cloud.group_ids[f.source_index]
                    expect[y, x, g] += f.alpha * f.transmittance_before
        np.testing.assert_allclose(weights, expect, atol=1e-9)


def test_package_attribute_is_the_render_module():
    import importlib

    import gradiseg
    assert gradiseg.render is importlib.import_module("gradiseg.render")
    assert callable(gradiseg.render.render)
