"""The benchmark's hold on the engine: perfbench/ must still run against it.

The traced benchmark run replaces engine names (trainer.igd_step,
trainer.AdamOptimizer.step, ...) with wrappers, and its output checks call
engine functions; a rename here breaks `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
ENGINE_MODULES = ("synth", "dataset", "render", "semantic", "laknn", "trainer",
                  "scene", "metrics")


def test_selftest_checks_behave():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "12/12" in proc.stdout


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    g = {name: importlib.import_module(f"gradiseg.{name}") for name in ENGINE_MODULES}
    return tracing, g


def test_tracer_installs_on_engine_modules():
    tracing, g = load_tracing()
    before = {name: dict(vars(mod)) for name, mod in g.items()}
    tracer = tracing.Tracer()
    tracing.install(tracer, g)
    assert g["trainer"].igd_step is not before["trainer"]["igd_step"]
    tracer.close()
    for name, mod in g.items():
        assert dict(vars(mod)) == before[name]


TRAINING_SPANS = (
    "trainer.init", "render", "camera.project", "trainer.total_loss", "trainer.l1",
    "semantic.loss_2d", "laknn.loss_3d", "laknn.kl",
    "backward", "backward.monitors", "trainer.densify_stats", "trainer.adam",
    "trainer.densify", "igd.step", "metrics.psnr", "scene.save",
)


def test_trace_points_fire_during_training(tmp_path):
    # a trace point the trainer no longer calls through its wrapped name
    # would read 0 in a traced benchmark run instead of failing it
    tracing, g = load_tracing()
    spec = g["synth"].default_scene_spec(0)
    spec.views = 3
    dataset = g["synth"].generate(spec)[2]
    # standard densification at 4, IGD at 8 and 12, local-adaptive KNN from 12
    sched = g["trainer"].TrainSchedule(
        total_iters=16, densify_end=8, igd_end=16, knn_switch=12,
        densify_interval=4, igd_interval=4, knn_samples=50, init_count=150,
        checkpoint_interval=0, log_interval=8, seed=3)
    tracer = tracing.Tracer()
    tracing.install(tracer, g)
    try:
        g["trainer"].train(dataset, sched, tmp_path)
    finally:
        tracer.close()
    missing = [name for name in TRAINING_SPANS if not tracing.calls(tracer.spans, name)]
    assert not missing, f"trace points never called: {missing}"
    assert 1 in tracing.counter(tracer.spans, "local")
