"""Forward rasterization against the naive scalar compositing oracle."""

import dataclasses
import platform
import resource
import tracemalloc

import numpy as np
import pytest

import gradiseg.render as render_module
from conftest import make_camera, random_cloud, reference_render
from gradiseg import synth
from gradiseg.camera import project_cloud
from gradiseg.render import RenderOptions, render, render_group_weights
from gradiseg.scene import GaussianCloud
from gradiseg.semantic import segment_mask
from oracles import Splat2D, fragments_at, key_order, pixel_alpha, tiled_render


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
        out = render(cloud, self.cam())
        center = out.color[4, 4]  # projection of (0,0,*) is the center pixel
        np.testing.assert_allclose(center, [0.0, 0.0, 0.99], atol=1e-9)

    def test_two_fragment_color(self):
        cloud = stacked_cloud([
            (0.5, (1.0, 0.0, 0.0), np.zeros(4)),
            (0.5, (0.0, 1.0, 0.0), np.zeros(4)),
        ])
        out = render(cloud, self.cam())
        np.testing.assert_allclose(out.color[4, 4], [0.5, 0.25, 0.0], atol=1e-9)

    def test_two_fragment_identity(self):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0, 0.0])
        cloud = stacked_cloud([(0.6, (0.5,) * 3, e1), (1.0, (0.5,) * 3, e2)])
        out = render(cloud, self.cam())
        # w1 = 0.6; w2 = clamp(1.0)=0.99 * (1-0.6) = 0.396...
        np.testing.assert_allclose(out.color.shape, (9, 9, 3))
        np.testing.assert_allclose(out.identity[4, 4],
                                   [0.6, 0.4 * 0.99, 0.0, 0.0], atol=1e-9)

    def test_empty_pixels_black(self):
        cloud = stacked_cloud([(0.6, (0.5, 0.7, 0.9), np.ones(4))])
        out = render(cloud, self.cam())
        empty = np.diff(out.frag_start).reshape(9, 9) == 0
        assert empty[0, 0] and not empty[4, 4]
        assert np.all(out.color[empty] == 0.0)
        assert np.all(out.identity[empty] == 0.0)
        assert np.all(out.final_transmittance[empty] == 1.0)


class TestRenderOracle:
    def test_matches_naive_compositing(self, rng):
        cam = make_camera(width=32, height=32)
        for trial in range(3):
            cloud = random_cloud(rng, 50, dim=4)
            out = render(cloud, cam)
            ref_color, ref_ident, ref_t, _ = reference_render(
                cloud, cam)
            np.testing.assert_allclose(out.color, ref_color, atol=1e-6)
            np.testing.assert_allclose(out.identity, ref_ident, atol=1e-6)
            np.testing.assert_allclose(out.final_transmittance, ref_t, atol=1e-6)

    def test_fragment_records_match_oracle(self, rng):
        cam = make_camera(width=16, height=16)
        cloud = random_cloud(rng, 30, dim=4)
        out = render(cloud, cam)
        _, _, _, ref_frags = reference_render(cloud, cam)
        for y in range(16):
            for x in range(16):
                got = fragments_at(out, x, y)
                want = ref_frags[y][x]
                assert len(got) == len(want)
                for f, (i, a, t) in zip(got, want):
                    assert f.source_index == i
                    assert f.alpha == pytest.approx(a, abs=1e-9)
                    assert f.transmittance_before == pytest.approx(t, abs=1e-9)


class TestRenderInvariants:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weights_operator_format(self, rng, dtype):
        cam = make_camera(width=20, height=14)
        cloud = random_cloud(rng, 40, dim=4, dtype=dtype)
        out = render(cloud, cam)
        W = out.weights
        assert W.shape == (20 * 14, 40)
        assert np.array_equal(W.indptr, out.frag_start)
        assert np.array_equal(W.indices, out.frag_source)
        assert W.data.dtype == dtype
        assert W.data.tobytes() == (out.frag_alpha * out.frag_t_before).tobytes()

    def test_index_arrays_are_int32_and_shared(self, rng):
        # the blend operator's indices and indptr are the fragment arrays, not copies
        cam = make_camera(width=20, height=14)
        out = render(random_cloud(rng, 40, dim=4, dtype=np.float32), cam)
        for a in (out.frag_start, out.frag_source, out.frag_splat, out.splats.index):
            assert a.dtype == np.int32
        assert np.shares_memory(out.weights.indices, out.frag_source)
        assert np.shares_memory(out.weights.indptr, out.frag_start)

    def test_peak_memory_per_fragment(self, rng):
        # the outputs take 20 bytes per float32 fragment; render keeps its
        # unsorted fragment arrays only until their last reader is done and
        # _fragments concatenates one block list at a time, so the whole
        # call stays below 24 bytes per fragment
        cam = make_camera(width=64, height=64)
        cloud = random_cloud(rng, 120, dim=16, dtype=np.float32, scale_range=(0.2, 0.4))
        tracemalloc.start()
        try:
            out = render(cloud, cam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_frag = out.frag_source.size
        assert 150_000 <= n_frag <= 250_000
        assert peak < 24 * n_frag, (peak, n_frag)

    def test_weight_conservation(self, rng):
        cam = make_camera(width=24, height=24)
        cloud = random_cloud(rng, 80, dim=4)
        out = render(cloud, cam)
        total = np.zeros(24 * 24)
        w = out.frag_alpha * out.frag_t_before
        np.add.at(total, np.repeat(np.arange(24 * 24), np.diff(out.frag_start)), w)
        np.testing.assert_allclose(
            total + out.final_transmittance.ravel(), 1.0, atol=1e-5)

    def test_transmittance_before_is_running_product(self, rng):
        cam = make_camera(width=12, height=12)
        cloud = random_cloud(rng, 40, dim=4)
        out = render(cloud, cam)
        for y in range(12):
            for x in range(12):
                t = 1.0
                for f in fragments_at(out, x, y):
                    assert f.transmittance_before == pytest.approx(t, abs=1e-6)
                    assert f.alpha <= 0.99
                    t *= 1.0 - f.alpha

    def test_occlusion_by_front_fragment(self, rng):
        cam = make_camera(width=16, height=16)
        cloud = random_cloud(rng, 40, dim=4, opacity_range=(0.99, 1.0))
        out = render(cloud, cam)
        for y in range(16):
            for x in range(16):
                frags = fragments_at(out, x, y)
                if frags and frags[0].alpha >= 0.989:
                    for f in frags[1:]:
                        assert f.alpha * f.transmittance_before < 0.011

    def test_shared_encoding_property(self, rng):
        # every Gaussian carries the same e -> E_id = e * (1 - T_final)
        cam = make_camera(width=16, height=16)
        cloud = random_cloud(rng, 60, dim=4)
        e = np.array([0.3, -0.7, 1.1, 0.05])
        cloud.encodings[:] = e
        out = render(cloud, cam)
        expect = e[None, None, :] * (1.0 - out.final_transmittance)[..., None]
        np.testing.assert_allclose(out.identity, expect, atol=1e-5)

    def test_permutation_invariance(self, rng):
        cam = make_camera(width=16, height=16)
        cloud = random_cloud(rng, 50, dim=4)
        perm = rng.permutation(50)
        shuffled = cloud.select(perm)
        a = render(cloud, cam)
        b = render(shuffled, cam)
        np.testing.assert_allclose(a.color, b.color, atol=1e-12)
        np.testing.assert_allclose(a.identity, b.identity, atol=1e-12)


OUTPUT_ARRAYS = ("color", "identity", "final_transmittance", "frag_start",
                 "frag_source", "frag_alpha", "frag_t_before", "frag_splat")


def assert_same_bytes(got, want):
    for name in OUTPUT_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestTiledOracle:
    """The bbox-driven rasterizer reproduces the dense per-tile compositor
    byte for byte, whatever the tile size and block size."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("smooth", [False, True], ids=["default", "smooth"])
    @pytest.mark.parametrize("size", [(33, 17), (32, 32), (5, 40)],
                             ids=["33x17", "32x32", "5x40"])
    def test_matches_tiled_oracle(self, rng, dtype, smooth, size):
        cam = make_camera(width=size[0], height=size[1])
        opts = RenderOptions.smooth() if smooth else RenderOptions()
        cloud = random_cloud(rng, 60, dim=4, dtype=dtype)
        out = render(cloud, cam, opts=opts)
        assert out.frag_source.size > 0
        for tile in (4, 16, 64):
            assert_same_bytes(out, tiled_render(cloud, cam, opts=opts, tile=tile))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fragments_lie_in_splat_bbox(self, rng, dtype):
        # the dense oracle tests every pixel of a 64-pixel tile, so a fragment
        # outside its splat's bbox would show here and be missed by render
        cam = make_camera(width=48, height=40)
        for _ in range(4):
            cloud = random_cloud(rng, 80, dim=4, dtype=dtype, scale_range=(0.01, 0.5))
            out = tiled_render(cloud, cam, tile=64)
            pix = np.repeat(np.arange(48 * 40), np.diff(out.frag_start))
            x, y = pix % 48, pix // 48
            bb = out.splats.bbox[out.frag_splat]
            assert np.all((bb[:, 0] <= x) & (x <= bb[:, 1])
                          & (bb[:, 2] <= y) & (y <= bb[:, 3]))

    @pytest.mark.parametrize("smooth", [False, True], ids=["default", "smooth"])
    def test_block_independence(self, rng, monkeypatch, smooth):
        cam = make_camera(width=33, height=17)
        opts = RenderOptions.smooth() if smooth else RenderOptions()
        cloud = random_cloud(rng, 60, dim=4, dtype=np.float32)
        base = render(cloud, cam, opts=opts)
        for block in (1, 7, 10 ** 6):
            monkeypatch.setattr(render_module, "BLOCK", block)
            assert_same_bytes(render(cloud, cam, opts=opts), base)


class TestRenderEdgeCases:
    def test_empty_cloud(self):
        cam = make_camera(width=7, height=5)
        cloud = GaussianCloud.empty(dim=4, dtype=np.float32)
        out = render(cloud, cam)
        assert_same_bytes(out, tiled_render(cloud, cam))
        assert out.frag_start.tolist() == [0] * 36
        assert np.all(out.final_transmittance == 1.0)

    def test_every_splat_culled(self, rng):
        cam = make_camera(width=16, height=16)
        cloud = random_cloud(rng, 30, dim=4)
        cloud.positions[:15, 0] += 50.0      # far off screen
        cloud.positions[15:, 2] -= 10.0      # behind the camera
        out = render(cloud, cam)
        assert out.splats.count == 0
        assert out.frag_source.size == 0
        assert_same_bytes(out, tiled_render(cloud, cam))

    @pytest.mark.parametrize("smooth", [False, True], ids=["default", "smooth"])
    def test_single_pixel_camera(self, rng, smooth):
        cam = make_camera(width=1, height=1, fov_scale=20.0)
        opts = RenderOptions.smooth() if smooth else RenderOptions()
        cloud = random_cloud(rng, 40, dim=4)
        out = render(cloud, cam, opts=opts)
        assert out.frag_source.size > 0
        assert_same_bytes(out, tiled_render(cloud, cam, opts=opts))
        if not smooth:
            ref_color, _, ref_t, _ = reference_render(cloud, cam)
            np.testing.assert_allclose(out.color, ref_color, atol=1e-6)
            np.testing.assert_allclose(out.final_transmittance, ref_t, atol=1e-6)

    def test_deep_pixel_stack(self):
        # 320 fragments on one pixel: the depth-rank sweep runs 320 steps
        n = 320
        cloud = stacked_cloud([(0.03, (k / n, 0.5, 1.0 - k / n), np.full(4, k / n))
                               for k in range(n)]).astype(np.float32)
        cam = centered_camera()
        out = render(cloud, cam)
        assert_same_bytes(out, tiled_render(cloud, cam))
        center = 4 * 9 + 4
        assert out.frag_start[center + 1] - out.frag_start[center] == n
        t = np.float32(1.0)
        for f in fragments_at(out, 4, 4):
            assert np.float32(f.transmittance_before) == t
            t = t * (np.float32(1.0) - np.float32(f.alpha))
        assert out.final_transmittance[4, 4] == t

    def test_splat_larger_than_a_block(self, rng):
        cam = make_camera(width=160, height=150)
        cloud = random_cloud(rng, 12, dim=4, dtype=np.float32)
        cloud.scales[0] = 0.8            # one splat covers most of the image
        cloud.opacities[0] = 0.9
        out = render(cloud, cam)
        bb = out.splats.bbox
        area = (bb[:, 1] - bb[:, 0] + 1) * (bb[:, 3] - bb[:, 2] + 1)
        assert area.max() > render_module.BLOCK
        assert_same_bytes(out, tiled_render(cloud, cam))

    def test_more_than_65536_pixels(self, rng):
        cam = make_camera(width=300, height=240)
        cloud = random_cloud(rng, 50, dim=4, dtype=np.float32)
        out = render(cloud, cam)
        assert cam.width * cam.height > 65536
        assert out.frag_start[-1] == out.frag_source.size > 0
        assert_same_bytes(out, tiled_render(cloud, cam))


class TestFragmentOrder:
    """The radix sort by pixel gives the order of the old int64-key argsort."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [(33, 17), (300, 240)], ids=["33x17", "300x240"])
    def test_matches_key_argsort(self, rng, dtype, size):
        cam = make_camera(width=size[0], height=size[1])
        cloud = random_cloud(rng, 60, dim=4, dtype=dtype)
        opts = RenderOptions()
        splats = project_cloud(cloud, cam, cull_sigma=opts.cull_sigma,
                               alpha_cutoff=opts.alpha_cutoff)
        _, pix, rank = render_module._fragments(
            splats, cloud.opacities[splats.index], cam.width, opts, np.dtype(dtype))
        n_pix = cam.width * cam.height
        assert pix.size > 0 and (n_pix > 1 << 16) == (size == (300, 240))
        order = render_module._pixel_order(pix, n_pix)
        assert np.array_equal(order, key_order(pix, rank, splats.count))

    def test_second_digit(self, rng):
        # rank-major, pixels ascending within a rank, straddling 16-bit digits
        n_pix, n_splats = 3 * (1 << 16) + 5, 40
        per_rank = [np.sort(rng.choice(n_pix, size=int(rng.integers(0, 3000)), replace=False))
                    for _ in range(n_splats)]
        per_rank[0] = np.array([0, 65535, 65536, 131071, 131072, n_pix - 1])
        pix = np.concatenate(per_rank)
        rank = np.repeat(np.arange(n_splats), [p.size for p in per_rank])
        order = render_module._pixel_order(pix, n_pix)
        assert np.array_equal(order, key_order(pix, rank, n_splats))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are set on glibc only")
def test_repeat_views_reuse_memory():
    # a serving-size view: ~5k Gaussians at 128x128
    base = synth.default_scene_spec(seed=31)
    spec = dataclasses.replace(
        base, views=2, image_size=128,
        objects=[dataclasses.replace(o, count=4 * o.count) for o in base.objects])
    cloud = synth.build_gt_cloud(spec, np.random.default_rng(spec.seed))
    head = synth.gt_classifier(spec)
    cams = synth.ring_cameras(spec)

    def serve(cam):
        out = render(cloud, cam)
        segment_mask(out.identity, out.final_transmittance, head)

    for cam in cams:
        serve(cam)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    calls = 12
    for i in range(calls):
        serve(cams[i % len(cams)])
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # with glibc's dynamic thresholds a call faults in thousands of pages;
    # what remains here is the odd step of heap growth
    assert faults / calls < 100, faults / calls


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
            render_group_weights(cloud, make_camera())

    def test_matches_fragment_regrouping(self, rng):
        # regroup oracle: sum fragment weights per group id per pixel
        cam = make_camera(width=16, height=16)
        cloud = random_cloud(rng, 40, dim=4)
        cloud.group_ids[:] = rng.integers(0, 5, 40)
        weights = render_group_weights(cloud, cam)
        out = render(cloud, cam)
        expect = np.zeros_like(weights)
        for y in range(16):
            for x in range(16):
                for f in fragments_at(out, x, y):
                    g = cloud.group_ids[f.source_index]
                    expect[y, x, g] += f.alpha * f.transmittance_before
        np.testing.assert_allclose(weights, expect, atol=1e-9)

