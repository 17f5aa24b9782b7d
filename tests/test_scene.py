"""Scene container: GSEG1 persistence, invariants, grouping and edits."""

import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest

import gradiseg.scene as scene_module
from conftest import HalfWrite, make_camera, random_cloud
from gradiseg.render import render
from gradiseg.scene import (GaussianCloud, SceneFormatError, assign_groups,
                            extract_group, load_scene, recolor_group,
                            remove_group, save_scene)
from gradiseg.semantic import ClassifierHead


def one_gaussian_cloud(dtype=np.float32):
    return GaussianCloud(
        np.array([[0.1, -0.2, 0.3]], dtype=dtype),
        np.array([[0.5, 0.25, 0.125]], dtype=dtype),
        np.array([[1.0, 0.0, 0.0, 0.0]], dtype=dtype),
        np.array([0.75], dtype=dtype),
        np.array([[0.25, 0.5, 0.75]], dtype=dtype),
        np.arange(16, dtype=dtype)[None, :] / 16.0,
    )


class TestPersistence:
    def test_empty_cloud_roundtrip(self, tmp_path):
        cloud = GaussianCloud.empty(dim=16)
        head = ClassifierHead.zeros(256, 16)
        path = tmp_path / "empty.gseg"
        save_scene(cloud, head, path)
        loaded, lhead = load_scene(path)
        assert loaded.n == 0
        assert lhead.weights.shape == (256, 16)

    def test_single_gaussian_bit_exact(self, tmp_path):
        cloud = one_gaussian_cloud()
        head = ClassifierHead.zeros(8, 16)
        head.weights[2, 3] = 0.5
        path = tmp_path / "one.gseg"
        save_scene(cloud, head, path)
        loaded, lhead = load_scene(path)
        for name in ("positions", "scales", "rotations", "opacities",
                     "colors", "encodings"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(cloud, name))
        np.testing.assert_array_equal(lhead.weights, head.weights)

    def test_resave_sha256_matches(self, rng, tmp_path):
        # round-trip oracle on random instances: save -> load -> save is identical
        cloud = random_cloud(rng, 1000, dim=16, dtype=np.float32)
        cloud.group_ids[:] = rng.integers(0, 16, cloud.n)
        head = ClassifierHead(rng.standard_normal((32, 16)).astype(np.float32),
                              rng.standard_normal(32).astype(np.float32))
        p1, p2 = tmp_path / "a.gseg", tmp_path / "b.gseg"
        save_scene(cloud, head, p1)
        loaded, lhead = load_scene(p1)
        save_scene(loaded, lhead, p2)
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.gseg"
        path.write_bytes(b"NOPE!" + b"\0" * 40)
        with pytest.raises(SceneFormatError, match="magic"):
            load_scene(path)

    def test_truncated_payload(self, tmp_path):
        cloud = one_gaussian_cloud()
        head = ClassifierHead.zeros(4, 16)
        path = tmp_path / "trunc.gseg"
        save_scene(cloud, head, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(SceneFormatError, match="truncated"):
            load_scene(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.gseg"
        save_scene(one_gaussian_cloud(), ClassifierHead.zeros(4, 16), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(SceneFormatError, match="4 trailing bytes"):
            load_scene(path)

    def test_opacity_out_of_range_rejected(self, tmp_path):
        cloud = one_gaussian_cloud()
        head = ClassifierHead.zeros(4, 16)
        path = tmp_path / "bad_op.gseg"
        save_scene(cloud, head, path)
        blob = bytearray(path.read_bytes())
        # opacity is the first float after positions+scales+rotations
        off = 21 + 4 * (3 + 3 + 4)
        struct.pack_into("<f", blob, off, 1.5)
        path.write_bytes(bytes(blob))
        with pytest.raises(SceneFormatError, match="opacity out of range"):
            load_scene(path)

    def test_quaternion_drift_renormalized(self, tmp_path):
        cloud = one_gaussian_cloud()
        head = ClassifierHead.zeros(4, 16)
        path = tmp_path / "drift.gseg"
        save_scene(cloud, head, path)
        blob = bytearray(path.read_bytes())
        off = 21 + 4 * (3 + 3)  # rotation w component
        struct.pack_into("<f", blob, off, 0.99995)
        path.write_bytes(bytes(blob))
        loaded, _ = load_scene(path)
        assert abs(np.linalg.norm(loaded.rotations[0]) - 1.0) < 1e-6

    def test_quaternion_drift_beyond_tolerance_rejected(self, tmp_path):
        cloud = one_gaussian_cloud()
        head = ClassifierHead.zeros(4, 16)
        path = tmp_path / "baddrift.gseg"
        save_scene(cloud, head, path)
        blob = bytearray(path.read_bytes())
        off = 21 + 4 * (3 + 3)
        struct.pack_into("<f", blob, off, 0.9)
        path.write_bytes(bytes(blob))
        with pytest.raises(SceneFormatError, match="quaternion"):
            load_scene(path)

    @pytest.mark.parametrize("classes", [0, 257])
    def test_class_count_outside_mask_range_rejected(self, tmp_path, classes):
        path = tmp_path / "classes.gseg"
        save_scene(one_gaussian_cloud(), ClassifierHead.zeros(classes, 16), path)
        with pytest.raises(SceneFormatError, match=f"class count {classes} outside"):
            load_scene(path)

    @pytest.mark.parametrize("gid", [-2, 4])
    def test_group_id_outside_class_range_rejected(self, tmp_path, gid):
        path = tmp_path / "groups.gseg"
        cloud = one_gaussian_cloud()
        cloud.group_ids[0] = gid
        save_scene(cloud, ClassifierHead.zeros(4, 16), path)
        with pytest.raises(SceneFormatError, match=r"group id outside \[-1, 4\)"):
            load_scene(path)
        cloud.group_ids[0] = 3 if gid > 0 else -1
        save_scene(cloud, ClassifierHead.zeros(4, 16), path)
        assert load_scene(path)[0].group_ids[0] == cloud.group_ids[0]

    # `offset` counts floats after the header of one_gaussian_cloud's file
    @pytest.mark.parametrize("name, offset, value", [
        ("positions", 1, np.nan), ("scales", 3 + 2, np.inf),
        ("rotations", 6, np.nan), ("opacities", 10, np.nan),
        ("colors", 11 + 1, np.nan), ("encodings", 14 + 5, -np.inf),
    ])
    def test_non_finite_row_rejected(self, tmp_path, name, offset, value):
        path = tmp_path / "nonfinite.gseg"
        save_scene(one_gaussian_cloud(), ClassifierHead.zeros(4, 16), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, 21 + 4 * offset, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(SceneFormatError, match=f"{name} must be finite"):
            load_scene(path)
        cloud = one_gaussian_cloud()
        getattr(cloud, name).reshape(-1)[0] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            save_scene(cloud, ClassifierHead.zeros(4, 16), tmp_path / "x.gseg")

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "scene.gseg"
        save_scene(one_gaussian_cloud(), ClassifierHead.zeros(4, 16), path)
        old = path.read_bytes()
        monkeypatch.setattr(scene_module, "open", HalfWrite, raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_scene(one_gaussian_cloud(), ClassifierHead.zeros(8, 16), path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["scene.gseg"]

    def test_save_refuses_invalid_cloud(self, tmp_path):
        cloud = one_gaussian_cloud()
        cloud.opacities[0] = 1.5
        with pytest.raises(ValueError, match="opacity"):
            save_scene(cloud, ClassifierHead.zeros(4, 16), tmp_path / "x.gseg")


class TestAssignGroups:
    def test_one_hot_identity_head(self):
        cloud = one_gaussian_cloud(np.float64)
        cloud.encodings[0] = 0.0
        cloud.encodings[0, 3] = 1.0
        head = ClassifierHead(np.eye(16), np.zeros(16))
        out = assign_groups(cloud, head)
        assert out.group_ids[0] == 3

    def test_identical_encodings_identical_groups(self, rng):
        cloud = random_cloud(rng, 2, dim=16)
        cloud.encodings[1] = cloud.encodings[0]
        head = ClassifierHead(rng.standard_normal((32, 16)), rng.standard_normal(32))
        out = assign_groups(cloud, head)
        assert out.group_ids[0] == out.group_ids[1]

    def test_matches_bruteforce_argmax(self, rng):
        cloud = random_cloud(rng, 200, dim=16)
        head = ClassifierHead(rng.standard_normal((64, 16)), rng.standard_normal(64))
        out = assign_groups(cloud, head)
        for i in range(cloud.n):
            logits = [float(head.weights[c] @ cloud.encodings[i] + head.biases[c])
                      for c in range(64)]
            best = max(range(64), key=lambda c: (logits[c], -c))
            assert out.group_ids[i] == best

    def test_argmax_invariant_to_logit_shift(self, rng):
        cloud = random_cloud(rng, 50, dim=8)
        head = ClassifierHead(rng.standard_normal((16, 8)), rng.standard_normal(16))
        shifted = ClassifierHead(head.weights, head.biases + 7.5)
        a = assign_groups(cloud, head).group_ids
        b = assign_groups(cloud, shifted).group_ids
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("values", ["real", "integer"])
    def test_repeated_rows_match_per_class_argmax(self, rng, dtype, values):
        # class c repeats row c % 7. Integer rows and encodings give exact
        # logits, so distinct rows tie often and the lowest class must win.
        if values == "real":
            w, b = rng.standard_normal((7, 16)), rng.standard_normal(7)
            enc = rng.standard_normal((300, 16))
        else:
            w, b = rng.integers(-1, 2, (7, 16)), rng.integers(-1, 2, 7)
            enc = rng.integers(-1, 2, (300, 16))
        head = ClassifierHead(w[np.arange(48) % 7].astype(dtype),
                              b[np.arange(48) % 7].astype(dtype))
        cloud = random_cloud(rng, 300, dim=16, dtype=dtype)
        cloud.encodings[:] = enc
        logits = cloud.encodings @ head.weights.T + head.biases
        got = assign_groups(cloud, head).group_ids
        assert got.dtype == np.int32
        assert got.tobytes() == np.argmax(logits, axis=1).astype(np.int32).tobytes()
        if values == "integer":
            ties = (logits == logits.max(axis=1, keepdims=True))[:, :7].sum(axis=1)
            assert (ties > 1).sum() > 30

    def test_peak_memory_below_one_logit_table(self, rng):
        # 256 classes over 6 distinct rows: one (N, C) float32 logit table is
        # 8.2 MB, and the per-class argmax held two
        n, c = 8000, 256
        cloud = random_cloud(rng, n, dim=16, dtype=np.float32)
        w = rng.standard_normal((6, 16)).astype(np.float32)
        head = ClassifierHead(w[np.arange(c) % 6], np.zeros(c, dtype=np.float32))
        tracemalloc.start()
        try:
            assign_groups(cloud, head)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * c * 4


class TestEdits:
    def grouped_cloud(self, rng, groups):
        cloud = random_cloud(rng, len(groups), dim=8)
        cloud.group_ids[:] = groups
        return cloud

    def test_remove_filters_group(self, rng):
        cloud = self.grouped_cloud(rng, [1, 1, 2])
        out = remove_group(cloud, 2)
        assert out.n == 2
        assert set(out.group_ids.tolist()) == {1}

    def test_remove_absent_gid_warns_noop(self, rng):
        cloud = self.grouped_cloud(rng, [1, 1, 2])
        with pytest.warns(UserWarning, match="not present"):
            out = remove_group(cloud, 7)
        np.testing.assert_array_equal(out.positions, cloud.positions)
        assert out.n == cloud.n

    def test_extract_remove_partition(self, rng):
        cloud = self.grouped_cloud(rng, [1, 2, 1, 3, 2, 2])
        kept = extract_group(cloud, 2)
        dropped = remove_group(cloud, 2)
        assert kept.n + dropped.n == cloud.n
        all_pos = np.vstack([kept.positions, dropped.positions])
        orig_sorted = cloud.positions[np.lexsort(cloud.positions.T)]
        recon_sorted = all_pos[np.lexsort(all_pos.T)]
        np.testing.assert_array_equal(orig_sorted, recon_sorted)

    def test_recolor_sets_member_colors(self, rng):
        cloud = self.grouped_cloud(rng, [1, 2, 2])
        out = recolor_group(cloud, 2, (1.0, 0.0, 0.0))
        np.testing.assert_array_equal(out.colors[1], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(out.colors[2], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(out.colors[0], cloud.colors[0])

    @pytest.mark.parametrize("rgb", [(np.nan, 0.0, 0.0), (0.0, -0.1, 0.0)],
                             ids=["nan", "negative"])
    def test_recolor_rejects_components_outside_unit_range(self, rng, rgb):
        cloud = self.grouped_cloud(rng, [1, 2])
        with pytest.raises(ValueError, match=r"rgb must be three components"):
            recolor_group(cloud, 2, rgb)

    def test_accumulators_filtered_consistently(self, rng):
        cloud = self.grouped_cloud(rng, [1, 2, 1])
        cloud.pos_grad_ema[:] = [[10.0, 11.0, 12.0], [20.0, 21.0, 22.0],
                                 [30.0, 31.0, 32.0]]
        out = remove_group(cloud, 2)
        np.testing.assert_array_equal(out.pos_grad_ema,
                                      [[10.0, 11.0, 12.0], [30.0, 31.0, 32.0]])

    def test_edits_require_assignment(self, rng):
        cloud = random_cloud(rng, 3, dim=8)  # group_ids all -1
        with pytest.raises(ValueError, match="assign_groups"):
            remove_group(cloud, 1)


@pytest.fixture(scope="module")
def scene():
    from gradiseg.synth import default_scene_spec, generate
    spec = default_scene_spec(seed=3)
    spec.views = 4
    cloud, head, dataset, _ = generate(spec)
    return cloud, head, dataset


class TestEditRendering:
    """Rendered consequences of edits on a synthetic multi-object scene."""

    def test_remove_matches_scene_built_without_group(self, scene):
        cloud, head, dataset = scene
        # independent construction: plain boolean filter over raw arrays
        keep = cloud.group_ids != 2
        manual = GaussianCloud(cloud.positions[keep], cloud.scales[keep],
                               cloud.rotations[keep], cloud.opacities[keep],
                               cloud.colors[keep], cloud.encodings[keep],
                               cloud.group_ids[keep])
        removed = remove_group(cloud, 2)
        cam = dataset.views[0]
        img_removed = render(removed, cam).color
        img_manual = render(manual, cam).color
        np.testing.assert_allclose(img_removed, img_manual, atol=1e-7)
        # pixels where object 2 was visible now show background/occluded content
        img_full = render(cloud, cam).color
        was_2 = dataset.views[0].mask == 2
        assert was_2.any()
        assert np.abs(img_full[was_2] - img_removed[was_2]).max() > 0.05

    def test_extract_render_inside_dilated_mask(self, scene):
        # oracle: the object's unoccluded silhouette from an independently
        # hand-filtered cloud (the dataset mask only covers visible parts)
        from scipy.ndimage import binary_dilation
        from gradiseg.render import group_weight_mask
        cloud, head, dataset = scene
        keep = cloud.group_ids == 1
        silhouette_src = GaussianCloud(
            cloud.positions[keep], cloud.scales[keep], cloud.rotations[keep],
            cloud.opacities[keep], cloud.colors[keep], cloud.encodings[keep],
            cloud.group_ids[keep])
        only = extract_group(cloud, 1)
        for view in dataset.views[:2]:
            silhouette = group_weight_mask(silhouette_src, view) == 1
            out = render(only, view)
            lit = out.color.sum(axis=2) > 1e-3
            allowed = binary_dilation(silhouette, np.ones((7, 7), dtype=bool))
            assert not (lit & ~allowed).any()

