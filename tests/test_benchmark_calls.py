"""The benchmark's calls into the package keep working.

perfbench/workloads.py calls the package through module attributes
(app.run_verify with workers=1, derham.analytic_dims, floer.build_complex,
...), and perfbench/scenes.py generates the scenes.  Both are imported as
they are, not copied: each workload's seed-7 scene is built, and the items
that the benchmark warms up with run through Item.run and must pass
Item.check with no problems.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from torusmirror import app

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # workloads.py imports scenes by its bare name, as perfbench/run.py puts it on the path
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["verify_mixed", "crossing_dense"])
def test_warmup_items_run_and_check_clean(workload, monkeypatch, tmp_path):
    scenes = load("scenes", monkeypatch)
    workloads = load("workloads", monkeypatch)
    scene_dict = scenes.GENERATORS[workload](7)
    scene_path = tmp_path / "scene.json"
    scenes.write_scene(scene_dict, scene_path)
    if workload == "verify_mixed":
        items = workloads.verify_items(app.load_scene(scene_path))
    else:
        items = workloads.crossing_items(scene_dict, tmp_path / "objects")
    by_id = {item.id: item for item in items}
    assert len(items) == len(scene_dict["objects"])
    for name in workloads.WARMUP[workload]:
        item = by_id[name]
        assert item.check(item.run()) == [], name
