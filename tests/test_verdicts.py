"""Golden verdicts: run_verify on the benchmark's seeded scenes keeps every
dimension, check and verdict.

tests/data holds the verify_mixed and crossing_dense scenes at seeds 7 and
13, written by perfbench/scenes.py; edge.json, valid objects at each
route's limit (steep q = 1 lines, far circles, tall harmonic circles),
failures included; and verdicts.json the report fields of each that carry
no float measurement: the floats are dbar_residual_max and
d_route_max_diff, which move within their checks' tolerances.  A change
that means to alter a verdict rewrites verdicts.json with
`python tests/test_verdicts.py` and says why.
"""

import json
from pathlib import Path

import pytest

from torusmirror.app import load_scene, run_verify

DATA = Path(__file__).parent / "data"
SCENES = ("verify_mixed_7", "verify_mixed_13", "crossing_dense_7", "crossing_dense_13", "edge")
FLOATS = {"dbar_residual_max", "d_route_max_diff"}


def verdicts(name: str) -> dict:
    report = run_verify(load_scene(DATA / f"{name}.json")).to_dict()
    objects = [{key: value for key, value in entry.items() if key not in FLOATS} for entry in report["objects"]]
    return {"objects": objects, "pass": report["pass"]}


@pytest.mark.parametrize("name", SCENES)
def test_verdicts_match_the_committed_ones(name):
    want = json.loads((DATA / "verdicts.json").read_text())[name]
    assert verdicts(name) == want


if __name__ == "__main__":
    text = json.dumps({name: verdicts(name) for name in SCENES}, indent=1, sort_keys=True)
    (DATA / "verdicts.json").write_text(text + "\n")
