"""Command-line entry point: gen | train | render | segment | eval | edit.

Every run writes a run.json next to its output echoing the resolved
configuration and seed. Exit codes: 0 success, 2 validation/usage error
(including a malformed scene, dataset or config file, or a schedule that
does not validate), 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class ValidationError(Exception):
    pass


def _write_run_json(dest: Path, command: str, payload: dict) -> None:
    from .scene import write_atomic

    dest.parent.mkdir(parents=True, exist_ok=True)
    record = {"command": command, **payload}
    write_atomic(dest, [json.dumps(record, indent=1, default=str).encode()])


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        problem = "is not a regular file" if p.exists() else "not found"
        raise ValidationError(f"{what} {problem}: {p}")
    return p


def _output_file(path) -> Path:
    """An output file path, checked before any work is done."""
    if Path(path).is_dir():
        raise ValidationError(f"output path is a directory: {path}")
    return Path(path)


def _output_dir(path) -> Path:
    """An output directory path, checked before any work is done."""
    p = Path(path)
    existing = next(q for q in (p, *p.parents) if q.exists())
    if not existing.is_dir():
        raise ValidationError(f"output path is not a directory: {existing}")
    return p


@contextmanager
def _reading(what: str):
    """Report errors raised while reading user input as validation errors."""
    from .netpbm import PnmError
    from .scene import SceneFormatError

    try:
        yield
    except KeyError as e:
        raise ValidationError(f"{what}: missing key {e}") from e
    except (SceneFormatError, PnmError, TypeError, ValueError) as e:
        raise ValidationError(f"{what}: {e}") from e


def _read_scene(path):
    from .scene import load_scene

    path = _require_file(path, "scene file")
    with _reading(f"scene file {path}"):
        return load_scene(path)


def _read_dataset(data_dir):
    from .dataset import load_dataset

    manifest = _require_file(Path(data_dir) / "manifest.json", "dataset manifest")
    with _reading(f"dataset {manifest.parent}"):
        return manifest, load_dataset(manifest)


def _load_scene_spec(path, seed):
    """The bundled spec or the one at `path`, with `seed` in place of its own
    when given; validated before any file is written."""
    from .synth import ObjectSpec, SceneSpec, default_scene_spec

    if path is None:
        spec = default_scene_spec()
    else:
        path = _require_file(path, "scene spec")
        with _reading(f"scene spec {path}"):
            raw = json.loads(path.read_text())
            if not isinstance(raw, dict):
                raise ValueError("top level must be a JSON object")
            objects = [ObjectSpec(**o) for o in raw.pop("objects")]
            spec = SceneSpec(objects=objects, **raw)
    if seed is None:
        return spec
    with _reading("--seed"):
        return dataclasses.replace(spec, seed=seed)


def cmd_gen(args) -> int:
    from .synth import generate

    out = _output_dir(args.out)
    spec = _load_scene_spec(args.spec, args.seed)
    generate(spec, out_dir=out)
    _write_run_json(out / "run.json", "gen",
                    {"seed": spec.seed, "spec": dataclasses.asdict(spec)})
    print(f"wrote dataset + gt scene to {out}")
    return 0


def cmd_train(args) -> int:
    from .config import load_train_config
    from .trainer import train

    out = _output_dir(args.out)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.iters is not None:
        overrides["total_iters"] = args.iters
    with _reading("training configuration"):
        sched = load_train_config(args.config, overrides).resolved()
    manifest, dataset = _read_dataset(args.data)
    if len(dataset.views) < 2:
        raise ValidationError(f"dataset {manifest.parent}: need at least 2 views "
                              "(the last is held out)")
    result = train(dataset, sched, out)
    _write_run_json(out / "run.json", "train",
                    {"seed": sched.seed, "data": str(manifest),
                     "config": dataclasses.asdict(sched)})
    last = result.metrics_rows[-1] if result.metrics_rows else None
    if last:
        print(f"trained {sched.total_iters} iters; N={last[4]} "
              f"holdout PSNR={last[5]:.2f} dB")
    return 0


def _load_scene_and_view(args):
    cloud, head = _read_scene(args.scene)
    _, dataset = _read_dataset(args.data)
    if not (0 <= args.view < len(dataset.views)):
        raise ValidationError(
            f"view {args.view} out of range (dataset has {len(dataset.views)})")
    return cloud, head, dataset.views[args.view]


def cmd_render(args) -> int:
    from .netpbm import write_ppm
    from .render import render

    dest = _output_file(args.out)
    cloud, _, view = _load_scene_and_view(args)
    out = render(cloud, view)
    dest.parent.mkdir(parents=True, exist_ok=True)
    write_ppm(dest, out.color)
    _write_run_json(dest.parent / "run.json", "render",
                    {"scene": args.scene, "view": args.view, "out": str(dest)})
    return 0


def cmd_segment(args) -> int:
    from .netpbm import write_pgm
    from .render import render
    from .semantic import segment_mask

    dest = _output_file(args.out)
    cloud, head, view = _load_scene_and_view(args)
    out = render(cloud, view)
    mask = segment_mask(out.identity, out.final_transmittance, head)
    dest.parent.mkdir(parents=True, exist_ok=True)
    write_pgm(dest, mask)
    _write_run_json(dest.parent / "run.json", "segment",
                    {"scene": args.scene, "view": args.view, "out": str(dest)})
    return 0


def cmd_eval(args) -> int:
    from .metrics import evaluate_masks, psnr
    from .render import render
    from .semantic import segment_mask

    dest = _output_file(args.out)
    cloud, head = _read_scene(args.scene)
    _, dataset = _read_dataset(args.data)
    preds, gts, psnrs = [], [], []
    for view in dataset.views:
        out = render(cloud, view)
        preds.append(segment_mask(out.identity, out.final_transmittance, head))
        gts.append(view.mask)
        psnrs.append(psnr(np.clip(out.color, 0.0, 1.0), view.image))
    report = evaluate_masks(preds, gts)
    report.psnr_per_view = [float(p) for p in psnrs]
    report.psnr_mean = float(np.mean(psnrs))
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(report.to_json())
    _write_run_json(dest.parent / "run.json", "eval",
                    {"scene": args.scene, "data": args.data, "out": str(dest)})
    print(f"mIoU={report.miou:.4f} mBIoU={report.mbiou:.4f} "
          f"PSNR={report.psnr_mean:.2f} dB")
    return 0


def cmd_edit(args) -> int:
    from .scene import extract_group, recolor_group, remove_group, save_scene

    dest = _output_file(args.out)
    cloud, head = _read_scene(args.scene)
    ops = [o for o in (args.remove, args.recolor, args.extract) if o is not None]
    if len(ops) != 1:
        raise ValidationError("exactly one of --remove/--recolor/--extract is required")
    with warnings.catch_warnings(), _reading("edit"):
        warnings.simplefilter("always")
        if args.remove is not None:
            cloud = remove_group(cloud, args.remove)
            action = {"remove": args.remove}
        elif args.extract is not None:
            cloud = extract_group(cloud, args.extract)
            action = {"extract": args.extract}
        else:
            try:
                gid_s, rgb_s = args.recolor.split(":", 1)
                gid = int(gid_s)
                rgb = tuple(float(x) for x in rgb_s.split(","))
                if len(rgb) != 3:
                    raise ValueError
            except ValueError:
                raise ValidationError("--recolor expects GID:R,G,B") from None
            cloud = recolor_group(cloud, gid, rgb)
            action = {"recolor": gid, "rgb": rgb}
    dest.parent.mkdir(parents=True, exist_ok=True)
    save_scene(cloud, head, dest)
    _write_run_json(dest.parent / "run.json", "edit",
                    {"scene": args.scene, "out": str(dest), **action})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradiseg",
        description="Gaussian-splatting segmentation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic multi-view dataset")
    p.add_argument("--spec", help="scene spec JSON (bundled default when omitted)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a scene from a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", default=None, help="key=value run config file")
    p.add_argument("--out", required=True, help="output run directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("render", help="render one dataset view of a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--data", required=True, help="dataset directory (cameras)")
    p.add_argument("--view", type=int, required=True)
    p.add_argument("--out", required=True, help="output PPM path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("segment", help="write the predicted instance mask of a view")
    p.add_argument("--scene", required=True)
    p.add_argument("--data", required=True, help="dataset directory (cameras)")
    p.add_argument("--view", type=int, required=True)
    p.add_argument("--out", required=True, help="output PGM path")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="evaluate a scene against a dataset")
    p.add_argument("--scene", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("edit", help="group-level scene editing")
    p.add_argument("--scene", required=True)
    p.add_argument("--remove", type=int, default=None, metavar="GID")
    p.add_argument("--recolor", default=None, metavar="GID:R,G,B")
    p.add_argument("--extract", type=int, default=None, metavar="GID")
    p.add_argument("--out", required=True, help="output GSEG path")
    p.set_defaults(func=cmd_edit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse uses exit code 2 for usage errors
        return int(e.code) if e.code is not None else 2
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FileNotFoundError,) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal error
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
