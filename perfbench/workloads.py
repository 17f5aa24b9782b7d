"""The three workloads: inputs made from the seed, rounds of operations,
output checks and quality figures.

A workload's `setup()` makes and loads its inputs. `round(clock)` runs one
fixed round of operations, marking their boundaries on the clock; every
round of one run does the same operations on the same inputs, so its
outputs repeat bit for bit. `check(out)` verifies one round's outputs with
the references in checks.py and `quality(out)` scores them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
from pathlib import Path

import numpy as np

import checks
from tracing import patch, unpatch

# The engine modules the benchmark calls into or traces. `gradiseg.render`
# on the package is the function, so modules come from importlib, never from
# attribute access on the package.
G = {name: importlib.import_module(f"gradiseg.{name}") for name in
     ("synth", "dataset", "render", "semantic", "laknn", "trainer", "scene", "metrics")}

# The run configuration is fixed; the seed makes the inputs. Held-out mIoU
# after a short run depends on the trainer's own seed far more than on the
# scene (see README), so the trainer keeps the CLI default.
TRAIN_SEED = 42
RENDER_CHECK_PIXELS = 96


class FirstOp(Exception):
    """Raised at the first operation of a set-up-only pass."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TrainWorkload:
    """One training run of a fixed, shortened schedule on the desk scene.
    An operation is one training iteration."""

    def __init__(self, name: str, seed: int, work: Path, schedule_kw: dict):
        self.name, self.seed, self.work = name, seed, work
        self.schedule = G["trainer"].TrainSchedule(
            checkpoint_interval=0, seed=TRAIN_SEED, **schedule_kw)
        self.rounds = 0

    def setup(self) -> None:
        spec = G["synth"].default_scene_spec(seed=self.seed)
        data = self.work / "data"
        G["synth"].generate(spec, data)
        self.ds = G["dataset"].load_dataset(data / "manifest.json")

    def round(self, clock, setup_only: bool = False):
        """Train once. Iteration i starts when the trainer renders its
        training view and ends when the next one starts; the last ends when
        the trainer groups the final cloud."""
        tr = G["trainer"]
        holdout = self.ds.views[-1]
        self.rounds += 1
        out_dir = self.work / f"run{self.rounds}"
        undo = []

        def on_render(fn):
            def hooked(cloud, cam, *args, **kwargs):
                if cam is not holdout:
                    clock.begin()
                    if setup_only:
                        raise FirstOp
                return fn(cloud, cam, *args, **kwargs)
            return hooked

        def on_group(fn):
            def hooked(*args, **kwargs):
                clock.end()
                return fn(*args, **kwargs)
            return hooked

        patch(tr, "render", on_render, undo)
        patch(tr, "assign_groups", on_group, undo)
        before = len(clock.ops)
        try:
            result = tr.train(self.ds, self.schedule, out_dir)
        except FirstOp:
            return None
        except Exception as exc:  # a failed iteration fails the rest of the round
            clock.abandon()
            done = len(clock.ops) - before
            clock.attempted += self.schedule.total_iters
            clock.failed += self.schedule.total_iters - done
            print(f"round failed after {done} iterations: {exc!r}")
            return None
        finally:
            unpatch(undo)
        clock.attempted += self.schedule.total_iters
        gseg = (out_dir / "final.gseg").read_bytes()
        csv_text = (out_dir / "metrics.csv").read_text()
        return {"result": result, "dir": out_dir, "csv": csv_text,
                "digests": {"final.gseg": sha256(gseg),
                            "metrics.csv": sha256(csv_text.encode())}}

    def _holdout_render(self, out):
        res = out["result"]
        return G["render"].render(res.cloud, self.ds.views[-1])

    def check(self, out) -> list[str]:
        res, sched = out["result"], self.schedule.resolved()
        cloud, head, holdout = res.cloud, res.head, self.ds.views[-1]
        notes = []
        rendered = self._holdout_render(out)
        pixels = checks.sample_pixels(np.random.default_rng(self.seed), rendered,
                                      RENDER_CHECK_PIXELS)
        n = checks.check_render(cloud, holdout, rendered, pixels)
        notes.append(f"render: {n}/{len(pixels)} pixels match the scalar compositor")
        m = min(sched.knn_samples, cloud.n)
        probe = G["semantic"].ClassifierHead(*checks.probe_head(
            cloud.encodings, head.num_classes, np.random.default_rng(self.seed)))
        for mode in ("global", "local-adaptive"):
            seed = (self.seed, sched.total_iters)
            engine = G["laknn"].loss_3d(cloud, probe, m, sched.knn_k, mode, seed)[0]
            ref = checks.reference_loss_3d(cloud, probe, m, sched.knn_k, mode, seed)
            checks.check_loss_3d(engine, ref, mode)
            notes.append(f"loss_3d[{mode}]: engine {engine:.6g}, reference {ref:.6g}")
        loaded = G["scene"].load_scene(out["dir"] / "final.gseg")
        checks.check_same_scene((cloud, head), loaded, "final.gseg")
        rows = checks.check_metrics_csv(out["csv"], sched.alpha_2d, sched.beta_3d)
        notes.append(f"final.gseg round trip exact; metrics.csv {rows} rows finite, objective falls")
        return notes

    def quality(self, out) -> dict:
        res, holdout = out["result"], self.ds.views[-1]
        rendered = self._holdout_render(out)
        mask = G["semantic"].segment_mask(rendered.identity,
                                          rendered.final_transmittance, res.head)
        rep = G["metrics"].evaluate_masks([mask], [holdout.mask])
        return {"holdout_psnr_db": G["metrics"].psnr(np.clip(rendered.color, 0.0, 1.0),
                                                     holdout.image),
                "holdout_miou": rep.miou, "holdout_mbiou": rep.mbiou,
                "gaussians_final": res.cloud.n}


class ServeWorkload:
    """Forward work on a larger ground-truth scene. An operation is one
    request: render and segment a view, or edit a group, save and load the
    edited scene and render a view of it."""

    EDITS = ("remove", "extract", "recolor")

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work

    def setup(self) -> None:
        base = G["synth"].default_scene_spec(seed=self.seed)
        spec = dataclasses.replace(
            base, views=24, image_size=128,
            objects=[dataclasses.replace(o, count=4 * o.count) for o in base.objects])
        data = self.work / "data"
        G["synth"].generate(spec, data)
        self.ds = G["dataset"].load_dataset(data / "manifest.json")
        self.cloud, self.head = G["scene"].load_scene(data / "gt_scene.gseg")
        groups = sorted(set(self.cloud.group_ids.tolist()))
        # A round renders and segments every view once and applies every
        # edit to every group, so all seeds do the same set of operations;
        # the seed sets their order, the view each edit renders and the
        # recolour colours.
        rng = np.random.default_rng(self.seed)
        n_views = len(self.ds.views)
        reqs = [("view", v, None, None) for v in range(n_views)]
        reqs += [(kind, int(rng.integers(n_views)), gid,
                  tuple(float(c) for c in rng.random(3)) if kind == "recolor" else None)
                 for kind in self.EDITS for gid in groups]
        self.requests = [reqs[i] for i in rng.permutation(len(reqs))]

    def _serve(self, req):
        kind, view, gid, rgb = req
        rd, sc, cam = G["render"], G["scene"], self.ds.views[view]
        if kind == "view":
            out = rd.render(self.cloud, cam)
            mask = G["semantic"].segment_mask(out.identity, out.final_transmittance, self.head)
            return {"color": out.color, "mask": mask}
        if kind == "remove":
            edited = sc.remove_group(self.cloud, gid)
        elif kind == "extract":
            edited = sc.extract_group(self.cloud, gid)
        else:
            edited = sc.recolor_group(self.cloud, gid, rgb)
        path = self.work / "edit.gseg"
        sc.save_scene(edited, self.head, path)
        blob = path.read_bytes()
        loaded = sc.load_scene(path)
        out = rd.render(loaded[0], cam)
        return {"color": out.color, "edited": edited, "loaded": loaded, "file": blob}

    def round(self, clock, setup_only: bool = False):
        if setup_only:  # set-up ends where the first request would start
            return None
        outputs = []
        for req in self.requests:
            clock.attempted += 1
            clock.begin()
            try:
                res = self._serve(req)
            except Exception as exc:
                clock.abandon()
                clock.failed += 1
                print(f"request {req} failed: {exc!r}")
                res = None
            else:
                clock.end()
            outputs.append(res)
        digest = hashlib.sha256()
        for res in outputs:
            if res is not None:
                digest.update(np.ascontiguousarray(res["color"]).tobytes())
                digest.update(res["mask"].tobytes() if "mask" in res else res["file"])
        return {"outputs": outputs, "digests": {"outputs": digest.hexdigest()}}

    def check(self, out) -> list[str]:
        counts = dict.fromkeys(("view",) + self.EDITS, 0)
        for req, res in zip(self.requests, out["outputs"]):
            if res is None:
                continue
            kind, view, gid, rgb = req
            cam = self.ds.views[view]
            counts[kind] += 1
            if kind == "view":
                checks.check_mask_equal(res["mask"], cam.mask)
                checks.check_image(res["color"], cam.image)
                continue
            checks.check_same_scene((res["edited"], self.head), res["loaded"], "gseg round trip")
            if kind == "recolor":
                checks.check_recolored(self.cloud, res["edited"], gid, rgb)
                continue
            mask = G["render"].group_weight_mask(res["loaded"][0], cam)
            if kind == "remove":
                checks.check_removed(mask, gid)
            else:
                checks.check_extracted(mask, gid)
        return [f"requests checked: {counts}"]

    def quality(self, out) -> dict:
        """Served views against the stored images and masks."""
        psnrs, preds, gts = [], [], []
        for req, res in zip(self.requests, out["outputs"]):
            if res is None or req[0] != "view":
                continue
            cam = self.ds.views[req[1]]
            psnrs.append(G["metrics"].psnr(np.clip(res["color"], 0.0, 1.0), cam.image))
            preds.append(res["mask"])
            gts.append(cam.mask)
        rep = G["metrics"].evaluate_masks(preds, gts)
        return {"holdout_psnr_db": float(np.mean(psnrs)), "holdout_miou": rep.miou,
                "holdout_mbiou": rep.mbiou, "gaussians_final": self.cloud.n}


def make(name: str, seed: int, work: Path):
    if name == "train-desk":
        # 64^2 desk, 2000 initial Gaussians, default loss weights; the phases
        # are cut so that densification (after iteration 20), IGD (40, 60) and
        # the switch to local-adaptive KNN (40) all happen. About 11 s a
        # round, so a 26 s budget runs two rounds. Held-out logging (which
        # renders an extra view) and the first, warm-up iteration stay well
        # under a tenth of the iterations, so p90 does not sit on their edge.
        return TrainWorkload(name, seed, work, dict(
            total_iters=80, densify_end=40, igd_end=70, knn_switch=40,
            densify_interval=20, igd_interval=20, log_interval=40))
    if name == "train-knn":
        # Same desk images, 8000 initial Gaussians and 4000 L3d samples;
        # local-adaptive KNN from iteration 4, so neighbour search dominates.
        # One round of about 26 s.
        return TrainWorkload(name, seed, work, dict(
            total_iters=40, init_count=8000, knn_samples=4000, knn_switch=4,
            densify_end=10, igd_end=20, densify_interval=5, igd_interval=5,
            log_interval=20))
    if name == "serve-edit":
        return ServeWorkload(name, seed, work)
    raise ValueError(f"unknown workload {name!r}")
