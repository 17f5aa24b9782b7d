"""Operation clock and layer tracer, both attached from outside the program.

The clock records only operation boundaries and is used by every run. The
tracer is installed only for a traced run: it replaces names in the modules
that import them (``gradiseg.trainer.render``, ``gradiseg.laknn.kl_pairs_loss``
and so on) with wrappers that record one span per call, then puts the
originals back.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict


class OpClock:
    """Start and end times of the timed operations, plus failure counts."""

    def __init__(self):
        self.ops: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self._open: float | None = None

    def begin(self) -> float:
        """Close any open operation and open the next one."""
        now = time.perf_counter()
        if self._open is not None:
            self.ops.append((self._open, now))
        self._open = now
        return now

    def end(self) -> None:
        if self._open is not None:
            self.ops.append((self._open, time.perf_counter()))
            self._open = None

    def abandon(self) -> None:
        """Drop an open operation that raised; the caller counts it failed."""
        self._open = None

    def durations(self) -> list[float]:
        return [b - a for a, b in self.ops]

    def busy_seconds(self) -> float:
        return sum(self.durations())


def patch(owner, attr: str, make_wrapper, undo: list) -> None:
    """Replace owner.attr with make_wrapper(original); remember how to undo."""
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    undo.append((owner, attr, original))


def unpatch(undo: list) -> None:
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


class Tracer:
    """In-memory spans: [name, start, end, parent index, counters or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace calls to owner.attr as spans called `name`. `count(args,
        kwargs, result)` may return a dict of counters for the span."""
        def make(fn):
            def traced(*args, **kwargs):
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                span = [name, time.perf_counter(), None, parent, None]
                self.spans.append(span)
                self._stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    span[2] = time.perf_counter()
                if count is not None:
                    span[4] = count(args, kwargs, result)
                return result
            return traced
        patch(owner, attr, make, self._undo)

    def close(self) -> None:
        unpatch(self._undo)

    # -- summaries -----------------------------------------------------------

    def spans_in(self, ops) -> list[list]:
        """Spans that start inside one of the (sorted) operation intervals."""
        out, k = [], 0
        for span in sorted(self.spans, key=lambda s: s[1]):
            while k < len(ops) and ops[k][1] < span[1]:
                k += 1
            if k < len(ops) and ops[k][0] <= span[1]:
                out.append(span)
        return out

    def self_seconds(self, spans) -> dict[str, float]:
        """Per-name self time: duration minus the time its children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        index = {id(s): i for i, s in enumerate(self.spans)}
        out = defaultdict(float)
        for s in spans:
            out[s[0]] += (s[2] - s[1]) - child[index[id(s)]]
        return out

    def coverage(self, ops) -> float:
        """Share of operation time covered by top-level spans (they do not
        overlap: the program is single-threaded)."""
        top = sorted((s[1], s[2]) for s in self.spans if s[3] < 0)
        covered, k = 0.0, 0
        for a, b in ops:
            while k < len(top) and top[k][1] <= a:
                k += 1
            j = k
            while j < len(top) and top[j][0] < b:
                covered += min(b, top[j][1]) - max(a, top[j][0])
                j += 1
        total = sum(b - a for a, b in ops)
        return covered / total if total > 0 else 0.0


def mean_ms(spans, name: str) -> float:
    """Mean span duration in ms over spans called `name` (0 when none)."""
    d = [s[2] - s[1] for s in spans if s[0] == name]
    return 1000.0 * sum(d) / len(d) if d else 0.0


def calls(spans, name: str) -> int:
    return sum(1 for s in spans if s[0] == name)


def counter(spans, key: str) -> list:
    """Values of counter `key` over the spans that carry it."""
    return [s[4][key] for s in spans if s[4] is not None and key in s[4]]


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def install(tracer: Tracer, g) -> None:
    """Trace the public functions of every layer, at the names the engine
    modules (and the benchmark itself) call them by. `g` maps module names to
    the imported ``gradiseg.*`` modules."""
    tr, rd, lk, sc = g["trainer"], g["render"], g["laknn"], g["scene"]

    def on_render(args, kwargs, out):
        return {"fragments": int(out.frag_source.size),
                "splats": int(out.splats.index.size)}

    def on_loss_3d(args, kwargs, result):
        mode = args[4] if len(args) > 4 else kwargs.get("mode")
        return {"local": int(mode == "local-adaptive")}

    def on_kl(args, kwargs, result):
        pair_i = args[2] if len(args) > 2 else kwargs["pair_i"]
        return {"pairs": int(pair_i.size)}

    def on_igd(args, kwargs, res):
        return {"splits": res.n_split, "prunes": res.n_pruned}

    def on_save(args, kwargs, result):
        path = args[2] if len(args) > 2 else kwargs["path"]
        return {"bytes": os.path.getsize(path)}

    # set-up
    tracer.wrap(g["synth"], "generate", "synth.generate")
    tracer.wrap(g["dataset"], "load_dataset", "dataset.load")
    tracer.wrap(tr, "init_cloud", "trainer.init")
    # training iteration
    tracer.wrap(tr, "render", "render", on_render)
    tracer.wrap(rd, "render", "render", on_render)
    tracer.wrap(rd, "project_cloud", "camera.project")
    tracer.wrap(tr, "total_loss", "trainer.total_loss")
    tracer.wrap(tr, "l1_loss", "trainer.l1")
    tracer.wrap(tr, "loss_2d", "semantic.loss_2d")
    tracer.wrap(tr, "loss_3d", "laknn.loss_3d", on_loss_3d)
    tracer.wrap(lk, "kl_pairs_loss", "laknn.kl", on_kl)
    tracer.wrap(tr, "backward", "backward")
    tracer.wrap(tr, "accumulate_monitors", "backward.monitors")
    tracer.wrap(tr.DensifyStats, "update", "trainer.densify_stats")
    tracer.wrap(tr.AdamOptimizer, "step", "trainer.adam")
    tracer.wrap(tr, "standard_densify", "trainer.densify")
    tracer.wrap(tr, "igd_step", "igd.step", on_igd)
    tracer.wrap(tr, "psnr", "metrics.psnr")
    tracer.wrap(tr, "save_scene", "scene.save", on_save)
    # serving
    tracer.wrap(g["semantic"], "segment_mask", "semantic.segment")
    for edit in ("remove_group", "extract_group", "recolor_group"):
        tracer.wrap(sc, edit, "scene.edit")
    tracer.wrap(sc, "save_scene", "scene.save", on_save)
    tracer.wrap(sc, "load_scene", "scene.load")
    # evaluation
    tracer.wrap(g["metrics"], "evaluate_masks", "metrics.eval")


def layer_metrics(tracer: Tracer, ops, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced phase.

    `_ms` values are mean milliseconds per call. Call counts are per
    operation; event counts (densify, IGD, local-adaptive calls) are per
    round; fragment, splat and pair counts are per call; file bytes are per
    save. Set-up, save, load and evaluation layers count every call; the
    others count only calls made inside an operation.
    """
    in_ops = tracer.spans_in(ops)
    n_ops = max(len(ops), 1)
    self_s = tracer.self_seconds(in_ops)
    n_3d = calls(in_ops, "laknn.loss_3d")
    per_round = lambda key: sum(counter(in_ops, key)) / rounds
    return {
        "render.ms": (mean_ms(in_ops, "render"), "ms"),
        "render.calls": (calls(in_ops, "render") / n_ops, "count"),
        "camera.project_ms": (mean_ms(in_ops, "camera.project"), "ms"),
        "render.fragments": (mean(counter(in_ops, "fragments")), "count"),
        "render.splats": (mean(counter(in_ops, "splats")), "count"),
        "backward.ms": (mean_ms(in_ops, "backward"), "ms"),
        "backward.calls": (calls(in_ops, "backward") / n_ops, "count"),
        "backward.monitors_ms": (mean_ms(in_ops, "backward.monitors"), "ms"),
        "semantic.loss_2d_ms": (mean_ms(in_ops, "semantic.loss_2d"), "ms"),
        "semantic.segment_ms": (mean_ms(in_ops, "semantic.segment"), "ms"),
        "laknn.loss_3d_ms": (mean_ms(in_ops, "laknn.loss_3d"), "ms"),
        "laknn.kl_ms": (mean_ms(in_ops, "laknn.kl"), "ms"),
        "laknn.search_ms": (1000.0 * self_s["laknn.loss_3d"] / n_3d if n_3d else 0.0, "ms"),
        "laknn.calls": (n_3d / n_ops, "count"),
        "laknn.pairs": (mean(counter(in_ops, "pairs")), "count"),
        "laknn.local_calls": (per_round("local"), "count"),
        "trainer.init_ms": (mean_ms(tracer.spans, "trainer.init"), "ms"),
        "trainer.adam_ms": (mean_ms(in_ops, "trainer.adam"), "ms"),
        "trainer.adam_calls": (calls(in_ops, "trainer.adam") / n_ops, "count"),
        "trainer.densify_ms": (mean_ms(in_ops, "trainer.densify"), "ms"),
        "trainer.densify_events": (calls(in_ops, "trainer.densify") / rounds, "count"),
        "igd.step_ms": (mean_ms(in_ops, "igd.step"), "ms"),
        "igd.events": (calls(in_ops, "igd.step") / rounds, "count"),
        "igd.splits": (per_round("splits"), "count"),
        "igd.prunes": (per_round("prunes"), "count"),
        "scene.save_ms": (mean_ms(tracer.spans, "scene.save"), "ms"),
        "scene.load_ms": (mean_ms(tracer.spans, "scene.load"), "ms"),
        "scene.edit_ms": (mean_ms(in_ops, "scene.edit"), "ms"),
        "scene.file_bytes": (mean(counter(tracer.spans, "bytes")), "bytes"),
        "synth.generate_ms": (mean_ms(tracer.spans, "synth.generate"), "ms"),
        "dataset.load_ms": (mean_ms(tracer.spans, "dataset.load"), "ms"),
        "metrics.eval_ms": (mean_ms(tracer.spans, "metrics.eval"), "ms"),
        "trace.coverage_pct": (100.0 * tracer.coverage(ops), "%"),
    }


def stage_table(tracer: Tracer, ops) -> list[tuple[str, float, float]]:
    """(span name, self ms per operation, share of operation time) rows,
    largest first."""
    in_ops = tracer.spans_in(ops)
    total = sum(b - a for a, b in ops)
    self_s = tracer.self_seconds(in_ops)
    rows = [(name, 1000.0 * s / max(len(ops), 1), s / total if total else 0.0)
            for name, s in self_s.items()]
    return sorted(rows, key=lambda r: -r[1])
