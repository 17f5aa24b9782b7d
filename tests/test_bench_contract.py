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


def test_tracer_installs_on_engine_modules():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    g = {name: importlib.import_module(f"gradiseg.{name}") for name in ENGINE_MODULES}
    before = {name: dict(vars(mod)) for name, mod in g.items()}
    tracer = tracing.Tracer()
    tracing.install(tracer, g)
    assert g["trainer"].igd_step is not before["trainer"]["igd_step"]
    tracer.close()
    for name, mod in g.items():
        assert dict(vars(mod)) == before[name]
