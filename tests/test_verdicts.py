"""Golden verdicts: run_verify on the benchmark's seeded scenes keeps every
dimension, check and verdict.

tests/data holds the verify_mixed and crossing_dense scenes at seeds 7 and
13, written by perfbench/scenes.py; edge.json, valid objects at each
route's limit (steep q = 1 lines, far circles, tall harmonic circles),
failures included; and verdicts.json the report fields of each that carry
no float measurement: the floats are dbar_residual_max and
d_route_max_diff, which move within their checks' tolerances.  A change
that means to alter a verdict rewrites verdicts.json with
`python tests/test_verdicts.py` and says why.  The four seeded scenes
must stay byte-identical to what the benchmark's generators write, so the
golden verdicts cover the scenes the benchmark runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from torusmirror.app import load_scene, run_verify

DATA = Path(__file__).parent / "data"
SCENES = ("verify_mixed_7", "verify_mixed_13", "crossing_dense_7", "crossing_dense_13", "edge")
FLOATS = {"dbar_residual_max", "d_route_max_diff"}
SCENES_PY = Path(__file__).parent.parent / "perfbench" / "scenes.py"


def verdicts(name: str) -> dict:
    report = run_verify(load_scene(DATA / f"{name}.json")).to_dict()
    objects = [{key: value for key, value in entry.items() if key not in FLOATS} for entry in report["objects"]]
    return {"objects": objects, "pass": report["pass"]}


# edge's steep and mixed-moduli lines are not quasi-unitary, which Floer warns of
@pytest.mark.filterwarnings("ignore:object line_(steep_t15|mixed_t8). local system is not quasi-unitary:UserWarning")
@pytest.mark.parametrize("name", SCENES)
def test_verdicts_match_the_committed_ones(name):
    want = json.loads((DATA / "verdicts.json").read_text())[name]
    assert verdicts(name) == want


@pytest.mark.parametrize("name", [name for name in SCENES if name != "edge"])
def test_golden_scenes_are_the_benchmark_scenes(name, tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_scenes", SCENES_PY)
    scenes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenes)
    workload, seed = name.rsplit("_", 1)
    scenes.write_scene(scenes.GENERATORS[workload](int(seed)), tmp_path / "scene.json")
    assert (tmp_path / "scene.json").read_bytes() == (DATA / f"{name}.json").read_bytes()


if __name__ == "__main__":
    text = json.dumps({name: verdicts(name) for name in SCENES}, indent=1, sort_keys=True)
    (DATA / "verdicts.json").write_text(text + "\n")
