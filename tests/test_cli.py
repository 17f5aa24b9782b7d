"""CLI wiring: exit codes, run.json echoes, end-to-end smoke."""

import json
import os
import shutil

import numpy as np
import pytest

import gradiseg.scene as scene_module
from conftest import HalfWrite
from gradiseg.cli import main
from gradiseg.netpbm import read_pgm, read_ppm, write_pgm
from gradiseg.scene import load_scene, save_scene
from gradiseg.semantic import ClassifierHead


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    assert main(["gen", "--out", str(out), "--seed", "3"]) == 0
    return out


class TestGen:
    def test_writes_dataset_and_run_json(self, dataset_dir):
        assert (dataset_dir / "manifest.json").exists()
        assert (dataset_dir / "gt_scene.gseg").exists()
        run = json.loads((dataset_dir / "run.json").read_text())
        assert run["command"] == "gen"
        assert run["seed"] == 3

    def test_custom_spec_file(self, tmp_path):
        spec = {
            "objects": [
                {"primitive": "sphere", "center": [0, 0, 0],
                 "size": [0.5, 0.5, 0.5], "color": [1, 0, 0], "count": 50},
                {"primitive": "box", "center": [0.5, 0, 0],
                 "size": [0.3, 0.3, 0.3], "color": [0, 1, 0], "count": 50},
            ],
            "views": 2, "image_size": 32, "seed": 9,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["gen", "--spec", str(spec_path), "--out",
                     str(tmp_path / "d")]) == 0
        img = read_ppm(tmp_path / "d" / "view_000.ppm")
        assert img.shape == (32, 32, 3)


class TestSegmentRenderEval:
    def test_segment_gt_scene_reproduces_mask(self, dataset_dir, tmp_path):
        out = tmp_path / "mask.pgm"
        rc = main(["segment", "--scene", str(dataset_dir / "gt_scene.gseg"),
                   "--data", str(dataset_dir), "--view", "2",
                   "--out", str(out)])
        assert rc == 0
        np.testing.assert_array_equal(read_pgm(out),
                                      read_pgm(dataset_dir / "view_002.pgm"))

    def test_render_gt_scene_close_to_dataset_image(self, dataset_dir, tmp_path):
        out = tmp_path / "img.ppm"
        rc = main(["render", "--scene", str(dataset_dir / "gt_scene.gseg"),
                   "--data", str(dataset_dir), "--view", "1",
                   "--out", str(out)])
        assert rc == 0
        got = read_ppm(out)
        want = read_ppm(dataset_dir / "view_001.ppm")
        assert np.abs(got - want).max() <= 1.0 / 255.0 + 1e-9

    def test_eval_gt_scene_perfect(self, dataset_dir, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main(["eval", "--scene", str(dataset_dir / "gt_scene.gseg"),
                   "--data", str(dataset_dir), "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["miou"] == 1.0
        assert report["mbiou"] == 1.0
        assert report["psnr_mean"] > 45.0  # limited only by 8-bit quantization

    def test_eval_reports_scores_per_view(self, dataset_dir, tmp_path):
        ds = copy_dataset(dataset_dir, tmp_path)
        mask = read_pgm(ds / "view_001.pgm")
        mask[mask != 0] = 0   # view 1 now claims every object is background
        write_pgm(ds / "view_001.pgm", mask)
        report_path = tmp_path / "report.json"
        assert main(["eval", "--scene", str(ds / "gt_scene.gseg"),
                     "--data", str(ds), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        views = len(json.loads((ds / "manifest.json").read_text())["views"])
        for key in ("miou_per_view", "mbiou_per_view", "psnr_per_view"):
            assert len(report[key]) == views, key
        for key in ("miou_per_view", "mbiou_per_view"):
            assert report[key][1] == 0.0
            assert report[key][:1] + report[key][2:] == [1.0] * (views - 1)
        assert report["mbiou"] == pytest.approx(np.mean(report["mbiou_per_view"]))

    def test_failed_run_json_write_keeps_old_file(self, dataset_dir, tmp_path,
                                                  monkeypatch, capsys):
        def render_view(view):
            return main(["render", "--scene", str(dataset_dir / "gt_scene.gseg"),
                         "--data", str(dataset_dir), "--view", str(view),
                         "--out", str(tmp_path / "view.ppm")])

        assert render_view(0) == 0
        old = (tmp_path / "run.json").read_bytes()

        def fail_on_run_json(path, mode):
            return (HalfWrite if "run.json" in str(path) else open)(path, mode)

        monkeypatch.setattr(scene_module, "open", fail_on_run_json, raising=False)
        assert render_view(1) == 1
        assert "No space left" in capsys.readouterr().err
        assert (tmp_path / "run.json").read_bytes() == old
        assert sorted(os.listdir(tmp_path)) == ["run.json", "view.ppm"]

    def test_view_out_of_range(self, dataset_dir, tmp_path):
        rc = main(["segment", "--scene", str(dataset_dir / "gt_scene.gseg"),
                   "--data", str(dataset_dir), "--view", "99",
                   "--out", str(tmp_path / "m.pgm")])
        assert rc == 2


class TestEdit:
    def test_remove_group(self, dataset_dir, tmp_path):
        from gradiseg.scene import load_scene
        out = tmp_path / "removed.gseg"
        rc = main(["edit", "--scene", str(dataset_dir / "gt_scene.gseg"),
                   "--remove", "2", "--out", str(out)])
        assert rc == 0
        cloud, _ = load_scene(out)
        assert 2 not in set(cloud.group_ids.tolist())

    def test_remove_absent_gid_is_noop_exit_zero(self, dataset_dir, tmp_path):
        out = tmp_path / "noop.gseg"
        with pytest.warns(UserWarning, match="group 200 not present"):
            rc = main(["edit", "--scene", str(dataset_dir / "gt_scene.gseg"),
                       "--remove", "200", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (dataset_dir / "gt_scene.gseg").read_bytes()

    def test_recolor(self, dataset_dir, tmp_path):
        from gradiseg.scene import load_scene
        out = tmp_path / "recolored.gseg"
        rc = main(["edit", "--scene", str(dataset_dir / "gt_scene.gseg"),
                   "--recolor", "1:1.0,0.0,0.0", "--out", str(out)])
        assert rc == 0
        cloud, _ = load_scene(out)
        members = cloud.group_ids == 1
        np.testing.assert_array_equal(cloud.colors[members, 0], 1.0)

    def test_bad_recolor_syntax(self, dataset_dir, tmp_path):
        rc = main(["edit", "--scene", str(dataset_dir / "gt_scene.gseg"),
                   "--recolor", "borked", "--out", str(tmp_path / "x.gseg")])
        assert rc == 2

    def test_exactly_one_operation(self, dataset_dir, tmp_path):
        rc = main(["edit", "--scene", str(dataset_dir / "gt_scene.gseg"),
                   "--remove", "1", "--extract", "2",
                   "--out", str(tmp_path / "x.gseg")])
        assert rc == 2


class TestErrors:
    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["segment", "--scene", str(tmp_path / "nope.gseg"),
                   "--data", str(tmp_path), "--view", "0",
                   "--out", str(tmp_path / "m.pgm")])
        assert rc == 2

    def test_bad_flags_exit_2(self, capsys):
        rc = main(["train", "--bogus"])
        assert rc == 2

    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2


def copy_dataset(dataset_dir, tmp_path):
    return shutil.copytree(dataset_dir, tmp_path / "ds",
                           ignore=shutil.ignore_patterns("run.json"))


def assert_input_error(argv, capsys, *words):
    """Exit 2 with one `error: ...` line on stderr naming `words`."""
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for word in words:
        assert word in err


class TestMalformedInput:
    """Errors raised while reading the scene, the dataset or the config, or
    while resolving the schedule, exit 2 rather than 1."""

    def test_edit_non_gseg_scene(self, tmp_path, capsys):
        scene = tmp_path / "bad.gseg"
        scene.write_bytes(b"hello")
        assert_input_error(["edit", "--scene", str(scene), "--remove", "1",
                            "--out", str(tmp_path / "out.gseg")], capsys,
                           "GSEG1")

    def test_edit_trailing_bytes(self, dataset_dir, tmp_path, capsys):
        scene = tmp_path / "long.gseg"
        scene.write_bytes((dataset_dir / "gt_scene.gseg").read_bytes() + b"junk")
        assert_input_error(["edit", "--scene", str(scene), "--remove", "1",
                            "--out", str(tmp_path / "out.gseg")], capsys,
                           "4 trailing bytes")

    def test_edit_scene_is_directory(self, tmp_path, capsys):
        assert_input_error(["edit", "--scene", str(tmp_path), "--remove", "1",
                            "--out", str(tmp_path / "out.gseg")], capsys,
                           "scene file is not a regular file")

    def test_eval_out_is_directory(self, dataset_dir, tmp_path, capsys):
        assert_input_error(["eval", "--scene", str(dataset_dir / "gt_scene.gseg"),
                            "--data", str(dataset_dir), "--out", str(tmp_path)],
                           capsys, "output path is a directory")

    def test_gen_out_is_file(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_bytes(b"")
        assert_input_error(["gen", "--out", str(afile)], capsys,
                           "output path is not a directory")

    def test_train_out_under_file(self, dataset_dir, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_bytes(b"")
        assert_input_error(["train", "--data", str(dataset_dir),
                            "--out", str(afile / "run")], capsys,
                           "output path is not a directory", str(afile))

    def test_train_manifest_too_many_classes(self, dataset_dir, tmp_path, capsys):
        # mask ids are uint8: class 299 would come back from segment_mask as 43
        ds = copy_dataset(dataset_dir, tmp_path)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["num_classes"] = 300
        (ds / "manifest.json").write_text(json.dumps(manifest))
        assert_input_error(["train", "--data", str(ds), "--iters", "0",
                            "--out", str(tmp_path / "run")], capsys,
                           "num_classes 300 outside [1, 256]")

    def test_edit_head_too_many_classes(self, dataset_dir, tmp_path, capsys):
        cloud, head = load_scene(dataset_dir / "gt_scene.gseg")
        scene = tmp_path / "wide.gseg"
        save_scene(cloud, ClassifierHead.zeros(300, head.dim), scene)
        assert_input_error(["edit", "--scene", str(scene), "--remove", "1",
                            "--out", str(tmp_path / "out.gseg")], capsys,
                           "class count 300 outside [1, 256]")

    def test_edit_group_id_beyond_class_count(self, dataset_dir, tmp_path, capsys):
        # group_weight_mask stores group ids as uint8: group 300 would read as 44
        cloud, head = load_scene(dataset_dir / "gt_scene.gseg")
        cloud.group_ids[cloud.group_ids == 1] = 300
        scene = tmp_path / "groups.gseg"
        save_scene(cloud, head, scene)
        assert_input_error(["edit", "--scene", str(scene), "--remove", "2",
                            "--out", str(tmp_path / "out.gseg")], capsys,
                           "group id outside [-1, 256)")

    def test_render_non_finite_scene(self, dataset_dir, tmp_path, capsys):
        scene = tmp_path / "nan.gseg"
        blob = bytearray((dataset_dir / "gt_scene.gseg").read_bytes())
        blob[21:25] = np.float32(np.nan).tobytes()   # positions[0, 0]
        scene.write_bytes(bytes(blob))
        assert_input_error(["render", "--scene", str(scene), "--data", str(dataset_dir),
                            "--view", "0", "--out", str(tmp_path / "img.ppm")], capsys,
                           f"scene file {scene}", "positions must be finite")

    @pytest.mark.parametrize("change, words", [
        (lambda s: s.update(objects=s["objects"][:1]), "need between 2 and 8 objects"),
        (lambda s: s.update(num_classes=300), "num_classes 300 outside [3, 256]"),
        (lambda s: s["objects"][0].update(count=50.5), "count must be an integer >= 1"),
        (lambda s: s["objects"][1].update(size=[0.3, 0.3]), "size must be 3 positive"),
        (lambda s: s["objects"][1].update(size=[0.3, 0.0, 0.3]), "size must be 3 positive"),
        (lambda s: s.update(image_size=0), "image_size must be an integer >= 1"),
        (lambda s: s.update(image_size=46341), "fewer than 2**31 pixels"),
        (lambda s: s.update(views=2.5), "views must be an integer >= 2"),
        (lambda s: s.update(seed=-1), "seed must be an integer >= 0"),
        (lambda s: 5, "top level must be a JSON object"),
    ], ids=["one-object", "300-classes", "fractional-count", "two-element-size",
            "zero-size", "zero-image-size", "huge-image-size", "fractional-views", "negative-seed",
            "top-level-number"])
    def test_gen_invalid_spec(self, tmp_path, capsys, change, words):
        spec = {
            "objects": [
                {"primitive": "sphere", "center": [0, 0, 0],
                 "size": [0.5, 0.5, 0.5], "color": [1, 0, 0], "count": 50},
                {"primitive": "box", "center": [0.5, 0, 0],
                 "size": [0.3, 0.3, 0.3], "color": [0, 1, 0], "count": 50},
            ],
            "views": 2, "image_size": 16,
        }
        spec = change(spec) or spec
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert_input_error(["gen", "--spec", str(path), "--out", str(tmp_path / "ds")],
                           capsys, "scene spec", words)
        assert not (tmp_path / "ds").exists()

    def test_gen_negative_seed(self, tmp_path, capsys):
        assert_input_error(["gen", "--seed", "-1", "--out", str(tmp_path / "ds")],
                           capsys, "--seed: seed must be an integer >= 0")
        assert not (tmp_path / "ds").exists()

    def test_train_negative_seed(self, dataset_dir, tmp_path, capsys):
        assert_input_error(["train", "--data", str(dataset_dir), "--seed", "-1",
                            "--iters", "2", "--out", str(tmp_path / "run")], capsys,
                           "training configuration: seed must be >= 0")
        assert not (tmp_path / "run").exists()

    def test_train_manifest_not_an_object(self, dataset_dir, tmp_path, capsys):
        ds = copy_dataset(dataset_dir, tmp_path)
        manifest = json.loads((ds / "manifest.json").read_text())
        (ds / "manifest.json").write_text(json.dumps(manifest["views"]))
        assert_input_error(["train", "--data", str(ds), "--iters", "0",
                            "--out", str(tmp_path / "run")], capsys,
                           "manifest top level must be a JSON object")
        assert not (tmp_path / "run").exists()

    def test_eval_truncated_ppm(self, dataset_dir, tmp_path, capsys):
        ds = copy_dataset(dataset_dir, tmp_path)
        ppm = ds / "view_000.ppm"
        ppm.write_bytes(ppm.read_bytes()[:-10])
        assert_input_error(["eval", "--scene", str(ds / "gt_scene.gseg"),
                            "--data", str(ds), "--out", str(tmp_path / "r.json")],
                           capsys, "truncated")

    def test_eval_manifest_view_missing_fx(self, dataset_dir, tmp_path, capsys):
        ds = copy_dataset(dataset_dir, tmp_path)
        manifest = json.loads((ds / "manifest.json").read_text())
        del manifest["views"][0]["fx"]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        assert_input_error(["eval", "--scene", str(ds / "gt_scene.gseg"),
                            "--data", str(ds), "--out", str(tmp_path / "r.json")],
                           capsys, "missing key 'fx'")

    @pytest.mark.parametrize("key, value, words", [
        ("fx", float("nan"), "fx, fy, cx and cy must be finite"),
        ("cx", float("inf"), "fx, fy, cx and cy must be finite"),
        ("world_to_camera", None, "world_to_camera must be finite"),
    ], ids=["nan-fx", "infinite-cx", "nan-translation"])
    def test_eval_manifest_view_non_finite(self, dataset_dir, tmp_path, capsys,
                                           key, value, words):
        # json writes these as NaN and Infinity, which json.load reads back
        ds = copy_dataset(dataset_dir, tmp_path)
        manifest = json.loads((ds / "manifest.json").read_text())
        if value is None:
            manifest["views"][0]["world_to_camera"][1][3] = float("nan")
        else:
            manifest["views"][0][key] = value
        (ds / "manifest.json").write_text(json.dumps(manifest))
        assert_input_error(["eval", "--scene", str(ds / "gt_scene.gseg"),
                            "--data", str(ds), "--out", str(tmp_path / "r.json")],
                           capsys, words)
        assert not (tmp_path / "r.json").exists()

    def test_eval_manifest_without_views(self, dataset_dir, tmp_path, capsys):
        ds = copy_dataset(dataset_dir, tmp_path)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["views"] = []
        (ds / "manifest.json").write_text(json.dumps(manifest))
        assert_input_error(["eval", "--scene", str(ds / "gt_scene.gseg"),
                            "--data", str(ds), "--out", str(tmp_path / "r.json")],
                           capsys, "manifest lists no views")
        assert not (tmp_path / "r.json").exists()

    def test_eval_manifest_view_too_many_pixels(self, dataset_dir, tmp_path, capsys):
        # fragment pixel indices are int32: 65536 x 32768 is exactly 2**31
        ds = copy_dataset(dataset_dir, tmp_path)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["views"][0].update(width=65536, height=32768)
        (ds / "manifest.json").write_text(json.dumps(manifest))
        assert_input_error(["eval", "--scene", str(ds / "gt_scene.gseg"),
                            "--data", str(ds), "--out", str(tmp_path / "r.json")],
                           capsys, "fewer than 2**31 pixels")

    def test_train_unknown_config_key(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("total_iters = 2\nbogus_key = 1\n")
        assert_input_error(["train", "--data", str(dataset_dir), "--config",
                            str(cfg), "--out", str(tmp_path / "run")], capsys,
                           "unknown config key 'bogus_key'")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, key", [
        *(("train", key) for key in (
            "lr_position_frac", "lr_scale", "lr_rotation", "lr_opacity", "lr_color",
            "lr_encoding", "lr_head", "init_opacity", "encoding_dim",
            "densify_grad_frac", "densify_percent_dense", "opacity_eps")),
        *(("gen", key) for key in (
            "ring_radius", "ring_height", "encoding_dim", "color_jitter", "opacity")),
    ])
    def test_former_setting_rejected(self, dataset_dir, tmp_path, capsys, command, key):
        # these settings are module constants now; a file that sets one is
        # refused rather than silently ignored
        if command == "train":
            path = tmp_path / "train.cfg"
            path.write_text(f"total_iters = 2\n{key} = 1\n")
            argv = ["train", "--data", str(dataset_dir), "--config", str(path)]
            words = (f"unknown config key {key!r}",)
        else:
            spec = json.loads((dataset_dir / "run.json").read_text())["spec"]
            spec[key] = 1
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            argv = ["gen", "--spec", str(path)]
            words = ("scene spec", key)
        assert_input_error(argv + ["--out", str(tmp_path / "out")], capsys, *words)
        assert not (tmp_path / "out").exists()

    def test_train_boolean_for_int_key(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("knn_k = true\n")
        assert_input_error(["train", "--data", str(dataset_dir), "--config",
                            str(cfg), "--iters", "0", "--out", str(tmp_path / "run")],
                           capsys, "knn_k", "'true'")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line, words", [
        ("log_interval = 0", "log_interval must be >= 1"),
        ("checkpoint_interval = -5", "checkpoint_interval must be >= 0"),
        ("knn_k = -3", "knn_k must be >= 1"),
        ("knn_samples = 0", "knn_samples must be >= 1"),
        ("init_count = 0", "init_count must be >= 1"),
        ("knn_switch = -3", "knn_switch must lie in [0, total_iters]"),
        ("alpha_2d = nan", "loss weights must be finite and >= 0"),
        ("beta_3d = inf", "loss weights must be finite and >= 0"),
    ], ids=["zero-log-interval", "negative-checkpoint-interval", "negative-knn-k",
            "zero-knn-samples", "zero-init-count", "negative-knn-switch", "nan-alpha",
            "infinite-beta"])
    def test_train_malformed_schedule(self, dataset_dir, tmp_path, capsys, line, words):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"total_iters = 4\n{line}\n")
        assert_input_error(["train", "--data", str(dataset_dir), "--config", str(cfg),
                            "--out", str(tmp_path / "run")], capsys,
                           "training configuration", words)
        assert not (tmp_path / "run").exists()

    def test_train_negative_iterations(self, dataset_dir, tmp_path, capsys):
        assert_input_error(["train", "--data", str(dataset_dir), "--iters", "-5",
                            "--out", str(tmp_path / "run")], capsys,
                           "total_iters")
        assert not (tmp_path / "run").exists()

    def test_train_one_view(self, dataset_dir, tmp_path, capsys):
        # the last view is held out, so one view leaves nothing to train on
        ds = copy_dataset(dataset_dir, tmp_path)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["views"] = manifest["views"][:1]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        assert_input_error(["train", "--data", str(ds), "--iters", "0",
                            "--out", str(tmp_path / "run")], capsys,
                           f"dataset {ds}", "need at least 2 views")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("bbox", [[[0, 0], [1, 1]], [[0, 0, float("nan")], [1, 1, 1]]],
                             ids=["two-axis-corners", "nan-corner"])
    def test_train_malformed_scene_bbox(self, dataset_dir, tmp_path, capsys, bbox):
        ds = copy_dataset(dataset_dir, tmp_path)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["scene_bbox"] = bbox   # json writes NaN as the bare word NaN
        (ds / "manifest.json").write_text(json.dumps(manifest))
        assert_input_error(["train", "--data", str(ds), "--iters", "0",
                            "--out", str(tmp_path / "run")], capsys,
                           "scene_bbox must be two corners of 3 finite numbers")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("bbox", [[[0, 0, 0], [0, 0, 0]], [[1, 1, 1], [-1, -1, -1]]],
                             ids=["zero-extent", "inverted"])
    def test_train_scene_bbox_without_extent(self, dataset_dir, tmp_path, capsys, bbox):
        ds = copy_dataset(dataset_dir, tmp_path)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["scene_bbox"] = bbox
        (ds / "manifest.json").write_text(json.dumps(manifest))
        assert_input_error(["train", "--data", str(ds), "--iters", "0",
                            "--out", str(tmp_path / "run")], capsys,
                           "scene_bbox max must exceed min on every axis")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("rgb", ["2,0,0", "nan,0,0"], ids=["above-one", "nan"])
    def test_edit_recolor_out_of_range(self, dataset_dir, tmp_path, capsys, rgb):
        assert_input_error(["edit", "--scene", str(dataset_dir / "gt_scene.gseg"),
                            "--recolor", f"1:{rgb}", "--out", str(tmp_path / "x.gseg")],
                           capsys, "rgb must be three components in [0, 1]")
        assert not (tmp_path / "x.gseg").exists()

    def test_later_errors_stay_internal(self, dataset_dir, tmp_path, capsys,
                                        monkeypatch):
        # a ValueError from training itself, after every input was read and
        # checked, is an internal error rather than malformed input
        import gradiseg.trainer as trainer_mod

        def failing_train(*a, **k):
            raise ValueError("raised inside training")

        monkeypatch.setattr(trainer_mod, "train", failing_train)
        rc = main(["train", "--data", str(dataset_dir), "--iters", "0",
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "internal error: ValueError: raised inside training")


class TestTrainSmoke:
    def test_gen_train_eval_pipeline(self, tmp_path):
        ds = tmp_path / "ds"
        run = tmp_path / "run"
        cfg = tmp_path / "train.cfg"
        cfg.write_text("""
# quick smoke configuration
total_iters = 30
densify_end = 12
igd_end = 15
knn_switch = 12
densify_interval = 6
igd_interval = 3
init_count = 120
knn_samples = 40
checkpoint_interval = 15
log_interval = 10
seed = 7
""")
        assert main(["gen", "--out", str(ds), "--seed", "1"]) == 0
        assert main(["train", "--data", str(ds), "--config", str(cfg),
                     "--out", str(run)]) == 0
        assert (run / "final.gseg").exists()
        assert (run / "ckpt_15.gseg").exists()
        assert (run / "metrics.csv").exists()
        run_meta = json.loads((run / "run.json").read_text())
        assert run_meta["seed"] == 7
        assert run_meta["config"]["total_iters"] == 30
        report = tmp_path / "report.json"
        assert main(["eval", "--scene", str(run / "final.gseg"),
                     "--data", str(ds), "--out", str(report)]) == 0
        assert "miou" in json.loads(report.read_text())
