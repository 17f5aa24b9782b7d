"""Benchmark for gradiseg training and serving.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the engine is imported from ./src.
Each run makes its workload's inputs from --seed, sets up SETUP_REPEATS
times (the last set-up feeds the timed phase), runs whole rounds of
operations for about --seconds of operation time, checks the outputs
against references computed apart from the engine, and prints one JSON
object as its last line. --trace 0 reports the end-to-end metrics; --trace 1
first repeats the untraced timed phase, then traces every layer's public
functions from outside and reports the per-layer metrics. Each run appends a
record (environment, digests, metrics) to perfbench/results/runs.jsonl.
"""

import os
import sys

# One BLAS/OpenMP thread and one rasterizer worker, set before numpy loads:
# on a small shared machine extra threads only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "GRADISEG_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
WORKLOADS = ("train-desk", "train-knn", "serve-edit")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import scipy

    def blas(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (TypeError, KeyError):
            return None

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_openblas": blas(np.show_config),
            "scipy_openblas": blas(scipy.show_config), "git_sha": sha,
            "source_digest": source_digest(SRC / "gradiseg"),
            "bench_digest": source_digest(HERE)}


def timed_phase(wl, clock, seconds: float, t_setup: float):
    """Whole rounds until another round would take the operation time past
    `seconds` (at least one). Returns (round outputs, seconds from `t_setup`
    to the first operation)."""
    outs = [wl.round(clock)]
    first = clock.ops[0][0] if clock.ops else time.perf_counter()
    while True:
        busy = clock.busy_seconds()
        if busy + busy / len(outs) > seconds:
            break
        # later rounds keep only their digests, so that the benchmark's own
        # memory does not grow with the number of rounds
        out = wl.round(clock)
        outs.append(None if out is None else {"digests": out["digests"]})
    return outs, first - t_setup


def setup_pass(wl) -> float:
    """Set up and stop at the first operation; returns the seconds taken."""
    t0 = time.perf_counter()
    wl.setup()
    wl.round(tracing.OpClock(), setup_only=True)
    return time.perf_counter() - t0


def verify(wl, outs) -> tuple[bool, list[str]]:
    """Check the first round's outputs; later rounds must repeat its digests."""
    first = outs[0]
    if first is None:
        return False, ["first round failed"]
    try:
        notes = wl.check(first)
    except checks.CheckFailed as exc:
        return False, [f"CHECK FAILED {exc}"]
    for k, out in enumerate(outs[1:], start=2):
        if out is None or out["digests"] != first["digests"]:
            return False, [f"round {k} outputs differ from round 1"]
    return True, notes + [f"{len(outs)} round(s) with identical digests"]


def check_history(record: dict) -> list[str]:
    """Runs of one seed on the same engine and benchmark sources must produce
    the same digests."""
    path = RESULTS / "runs.jsonl"
    bad = []
    if path.exists():
        for line in path.read_text().splitlines():
            try:
                old = json.loads(line)
            except json.JSONDecodeError:
                continue
            env = old.get("env", {})
            same = (all(old.get(k) == record[k] for k in ("workload", "seed"))
                    and all(env.get(k) == record["env"][k]
                            for k in ("source_digest", "bench_digest")))
            if same and old.get("digests") and old["digests"] != record["digests"]:
                bad.append(f"digests differ from the run at {old.get('time')}")
    return bad


def percentile_ms(durations, q: float) -> float:
    return 1000.0 * float(np.percentile(durations, q))


def run(args, work: Path) -> dict:
    import workloads  # imports the engine, so only after ./src is on the path

    wl = workloads.make(args.workload, args.seed, work)
    if args.trace == 0:
        setups = [setup_pass(wl) for _ in range(SETUP_REPEATS - 1)]
        clock = tracing.OpClock()
        t0 = time.perf_counter()
        wl.setup()
        outs, first_setup = timed_phase(wl, clock, args.seconds, t0)
        setups.append(first_setup)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct, notes = verify(wl, outs)
        quality = wl.quality(outs[0]) if outs[0] is not None else {}
        durations = clock.durations()
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(durations) / clock.busy_seconds(), "1/s"),
            "op_ms_p50": (percentile_ms(durations, 50), "ms"),
            "op_ms_p90": (percentile_ms(durations, 90), "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
            "holdout_psnr_db": (quality.get("holdout_psnr_db", float("nan")), "dB"),
            "holdout_miou": (quality.get("holdout_miou", float("nan")), "1"),
            "holdout_mbiou": (quality.get("holdout_mbiou", float("nan")), "1"),
        }
        notes.append("setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups))
        attempted, failed = clock.attempted, clock.failed
    else:
        plain = tracing.OpClock()
        wl.setup()
        outs_plain, _ = timed_phase(wl, plain, args.seconds, time.perf_counter())
        tracer = tracing.Tracer()
        tracing.install(tracer, workloads.G)
        try:
            clock = tracing.OpClock()
            wl.setup()
            outs, _ = timed_phase(wl, clock, args.seconds, time.perf_counter())
            correct, notes = verify(wl, outs)
            quality = wl.quality(outs[0]) if outs[0] is not None else {}
        finally:
            tracer.close()
        if outs_plain[0] is None or outs[0] is None or \
                outs_plain[0]["digests"] != outs[0]["digests"]:
            correct = False
            notes.append("traced outputs differ from untraced outputs")
        metrics = tracing.layer_metrics(tracer, clock.ops, len(outs))
        plain_rate = len(plain.ops) / plain.busy_seconds()
        traced_rate = len(clock.ops) / clock.busy_seconds()
        metrics.update({
            "trace.ops_per_s_untraced": (plain_rate, "1/s"),
            "trace.ops_per_s_traced": (traced_rate, "1/s"),
            "trace.overhead_pct": (100.0 * (plain_rate / traced_rate - 1.0), "%"),
            "trainer.gaussians_final": (quality.get("gaussians_final", 0), "count"),
        })
        for name, ms, share in tracing.stage_table(tracer, clock.ops):
            notes.append(f"stage {name:24s} {ms:9.2f} ms/op  {100 * share:5.1f}%")
        attempted = plain.attempted + clock.attempted
        failed = plain.failed + clock.failed

    first = outs[0]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
              "env": environment(),
              "digests": first["digests"] if first is not None else None,
              "quality": quality, "notes": notes,
              "op_ms": [round(1000.0 * d, 2) for d in clock.durations()],
              "metrics": {k: v[0] for k, v in metrics.items()}}
    history = check_history(record)
    if history:
        correct = False
        notes.extend(history)
    record["correct"] = correct
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")

    for line in notes:
        print(line)
    print("env " + json.dumps(record["env"]))
    print("digests " + json.dumps(record["digests"]))
    print("quality " + json.dumps(quality))
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gradiseg" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC}; run from a gradiseg checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's inputs are still there
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
