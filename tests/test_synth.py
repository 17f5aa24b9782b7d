"""Synthetic dataset generator: masks, determinism, multi-view consistency."""

import numpy as np
import pytest

from gradiseg.netpbm import read_pgm, read_ppm
from gradiseg.render import render
from gradiseg.synth import ObjectSpec, SceneSpec, default_scene_spec, generate
from oracles import fragments_at


def single_sphere_spec(seed=0):
    return SceneSpec(objects=[
        ObjectSpec("sphere", center=(0.0, 0.0, 0.0), size=(0.8, 0.8, 0.8),
                   color=(0.9, 0.2, 0.2), count=500),
        ObjectSpec("sphere", center=(5.0, 5.0, 5.0), size=(0.01, 0.01, 0.01),
                   color=(0.2, 0.9, 0.2), count=1),  # far away, off screen
    ], views=4, seed=seed)


class TestGenerate:
    def test_centered_sphere_mask_is_filled_disk(self):
        cloud, head, dataset, _ = generate(single_sphere_spec())
        for view in dataset.views:
            mask = view.mask
            h, w = mask.shape
            # projected center pixel is inside the mask
            assert mask[h // 2, w // 2] == 1
            sphere = mask == 1
            assert sphere.sum() > 100
            # filled: no background holes strictly inside the disk rows
            for y in range(h):
                xs = np.nonzero(sphere[y])[0]
                if xs.size:
                    assert np.all(sphere[y, xs.min():xs.max() + 1])

    def test_two_disjoint_objects_id_closure(self):
        spec = default_scene_spec()
        spec.views = 4
        _, _, dataset, _ = generate(spec)
        for view in dataset.views:
            ids = set(np.unique(view.mask).tolist())
            assert ids <= {0, 1, 2, 3}

    def test_same_seed_byte_identical(self, tmp_path):
        spec = default_scene_spec(seed=5)
        spec.views = 3
        generate(spec, out_dir=tmp_path / "a")
        generate(spec, out_dir=tmp_path / "b")
        for name in ["manifest.json", "view_000.ppm", "view_000.pgm",
                     "view_002.ppm", "gt_scene.gseg"]:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_mask_ids_consistent_across_views(self):
        spec = default_scene_spec(seed=1)
        spec.views = 8
        cloud, head, dataset, _ = generate(spec)
        present = [set(np.unique(v.mask).tolist()) - {0} for v in dataset.views]
        # no id swaps: every view's ids come from the same global id set,
        # and each object appears in at least one view
        union = set().union(*present)
        assert union == {1, 2, 3}

    def test_nonbackground_pixel_backed_by_winning_fragments(self):
        spec = default_scene_spec(seed=2)
        spec.views = 2
        cloud, head, dataset, _ = generate(spec)
        view = dataset.views[0]
        out = render(cloud, view)
        mask = view.mask
        ys, xs = np.nonzero(mask)
        rng = np.random.default_rng(0)
        sel = rng.choice(ys.size, size=min(200, ys.size), replace=False)
        for k in sel:
            y, x = int(ys[k]), int(xs[k])
            weights = {}
            for f in fragments_at(out, x, y):
                g = int(cloud.group_ids[f.source_index])
                weights[g] = weights.get(g, 0.0) + f.alpha * f.transmittance_before
            winner = max(weights.items(), key=lambda kv: (kv[1], -kv[0]))[0]
            assert winner == mask[y, x]
            assert sum(weights.values()) >= 0.5

    def test_background_rule(self):
        spec = default_scene_spec(seed=2)
        spec.views = 2
        cloud, head, dataset, _ = generate(spec)
        view = dataset.views[0]
        out = render(cloud, view)
        fg_weight = 1.0 - out.final_transmittance
        assert np.all(view.mask[fg_weight < 0.5] == 0)

    def test_written_files_roundtrip(self, tmp_path):
        spec = default_scene_spec(seed=7)
        spec.views = 2
        cloud, head, dataset, _ = generate(spec, out_dir=tmp_path)
        img = read_ppm(tmp_path / "view_000.ppm")
        msk = read_pgm(tmp_path / "view_000.pgm")
        assert img.shape == (64, 64, 3)
        np.testing.assert_array_equal(msk, dataset.views[0].mask)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="2 and 8"):
            SceneSpec(objects=[ObjectSpec("sphere", (0, 0, 0), (1, 1, 1), (1, 0, 0))])
        with pytest.raises(ValueError, match="primitive"):
            ObjectSpec("cone", (0, 0, 0), (1, 1, 1), (1, 0, 0))
        two = [ObjectSpec("sphere", (0, 0, 0), (1, 1, 1), (1, 0, 0)),
               ObjectSpec("box", (1, 0, 0), (1, 1, 1), (0, 1, 0))]
        for classes in (2, 257):   # ids run 0..2, and masks are uint8
            with pytest.raises(ValueError, match=f"num_classes {classes} outside"):
                SceneSpec(objects=two, num_classes=classes)
        assert SceneSpec(objects=two, num_classes=3).num_classes == 3
