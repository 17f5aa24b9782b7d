"""The package namespace: every submodule is reachable as an attribute, and
serving loads none of SciPy's training-only modules."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gradiseg

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(gradiseg.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_attribute_is_the_submodule(name):
    # a name re-exported from a submodule must not shadow the submodule
    module = importlib.import_module(f"gradiseg.{name}")
    assert getattr(gradiseg, name) is module


def test_every_exported_name_resolves():
    missing = [name for name in gradiseg.__all__ if not hasattr(gradiseg, name)]
    assert missing == []


TRAINING_ONLY = ("scipy.spatial", "scipy.ndimage")

SERVE_SCRIPT = """
import dataclasses, json, sys, tempfile
from pathlib import Path
import gradiseg
from gradiseg import dataset, metrics, render, scene, semantic, synth

out = Path(tempfile.mkdtemp())
spec = dataclasses.replace(synth.default_scene_spec(seed=0), views=2, image_size=16)
synth.generate(spec, out)
ds = dataset.load_dataset(out / "manifest.json")
cloud, head = scene.load_scene(out / "gt_scene.gseg")
preds = []
for view in ds.views:
    r = render.render(cloud, view)
    preds.append(semantic.segment_mask(r.identity, r.final_transmittance, head))
scene.save_scene(scene.remove_group(cloud, 1), head, out / "edit.gseg")
edited, _ = scene.load_scene(out / "edit.gseg")
render.render(edited, ds.views[0])
report = metrics.evaluate_masks(preds, [v.mask for v in ds.views])
print(json.dumps({"loaded": sorted(set(sys.argv[1:]) & set(sys.modules)),
                  "miou": report.miou}))
"""

INIT_SCRIPT = """
import json, sys
import numpy as np
from gradiseg.trainer import init_cloud

before = "scipy.spatial" in sys.modules
pos = np.random.default_rng(4).uniform(-1.0, 1.0, (60, 3))
cloud = init_cloud(np.array([[-1.0] * 3, [1.0] * 3]), 60, 4, np.random.default_rng(4),
                   dtype=np.float64)
d = np.sqrt(((pos[:, None] - pos[None]) ** 2).sum(-1))
np.fill_diagonal(d, np.inf)
print(json.dumps({"before": before, "after": "scipy.spatial" in sys.modules,
                  "scale": float(cloud.scales[0, 0]), "brute": float(d.min(1).mean())}))
"""


def run_script(script: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(gradiseg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *TRAINING_ONLY],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportFootprint:
    def test_serving_loads_no_training_only_scipy(self):
        # render, segment, an edit with a GSEG1 round trip and an evaluation
        result = run_script(SERVE_SCRIPT)
        assert result["loaded"] == []
        assert result["miou"] == 1.0

    def test_init_cloud_loads_the_kd_tree_on_first_use(self):
        result = run_script(INIT_SCRIPT)
        assert not result["before"] and result["after"]
        assert result["scale"] == pytest.approx(result["brute"], rel=1e-12)
