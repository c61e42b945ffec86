"""Items of the workloads and the closed-form checks on their results.

An item is the unit of work that the end-to-end metrics count.  Each item
calls the package through module attributes (``app.run_verify``, ...), so
the tracer's wrappers see the calls.  ``check`` returns a list of problems;
an empty list means the result matches the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import torusmirror.app as app
import torusmirror.derham as derham
import torusmirror.floer as floer
import torusmirror.geometry as geometry

from scenes import write_scene

#: whole untraced passes a run times at least, past its --seconds if need be
MIN_PASSES = {"verify_mixed": 2, "crossing_dense": 10}


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def expected_dims(p: int, rank: int) -> tuple[int, int]:
    """Closed-form cohomology: (n p, 0) for p > 0, (0, n |p|) for p < 0, and
    (0, 0) for p = 0 with a non-integer offset (all scenes here)."""
    if p > 0:
        return rank * p, 0
    return 0, rank * abs(p)


def _check_verify(tt, report) -> list[str]:
    entry = report.objects[0]
    problems = list(entry["errors"])
    want = list(expected_dims(tt.graph.p, tt.rank))
    if not (report.passed and entry["pass"]):
        problems.append(f"verdict fail, checks {entry['checks']}")
    for key in ("floer_dims", "analytic_dims", "discretized_dims"):
        if entry.get(key) != want:
            problems.append(f"{key} {entry.get(key)} != {want}")
    if not entry.get("d_route_max_diff", math.inf) <= app.D_ROUTE_TOL:
        problems.append(f"d-route difference {entry.get('d_route_max_diff')}")
    signed = geometry.signed_crossing_count(tt.graph)  # untimed, after the item
    if signed != tt.graph.p:
        problems.append(f"signed crossing sum {signed} != p = {tt.graph.p}")
    return problems


def verify_items(scene) -> list[Item]:
    """One object through run_verify, single-process."""
    items = []
    for tt in scene.objects:
        one = app.Scene((tt,), scene.params)
        items.append(
            Item(
                tt.id,
                lambda one=one: app.run_verify(one, workers=1),
                lambda report, tt=tt: _check_verify(tt, report),
            )
        )
    return items


def _complex_and_routes(path: Path):
    scene = app.load_scene(path)
    tt = scene.objects[0]
    rank_tol = scene.params.rank_tol
    fc = floer.build_complex(tt)
    dims = floer.cohomology_dims(fc, rank_tol)
    other = floer.boundary_transport_differential(tt)
    analytic = derham.analytic_dims(tt, rank_tol=rank_tol)
    return tt, fc, dims, other, analytic


def _check_complex(result) -> list[str]:
    tt, fc, dims, other, analytic = result
    problems = []
    want = expected_dims(tt.graph.p, tt.rank)
    if dims != want:
        problems.append(f"floer dims {dims} != {want}")
    if analytic != want:
        problems.append(f"analytic dims {analytic} != {want}")
    diff = float(np.max(np.abs(fc.d - other))) if fc.d.size else 0.0
    if fc.d.shape != other.shape or not diff <= app.D_ROUTE_TOL:
        problems.append(f"d-route difference {diff}")
    if len(fc.f0) - len(fc.f1) != tt.graph.p:
        problems.append(f"signed crossing sum {len(fc.f0) - len(fc.f1)} != p = {tt.graph.p}")
    return problems


def crossing_items(scene_dict: dict, directory: Path) -> list[Item]:
    """One object from its own scene file through load_scene, the complex,
    the boundary-transport route and the analytic route."""
    items = []
    for raw in scene_dict["objects"]:
        path = directory / f"{raw['id']}.json"
        write_scene({"objects": [raw], "params": scene_dict["params"]}, path)
        items.append(Item(raw["id"], lambda path=path: _complex_and_routes(path), _check_complex))
    return items


#: items of each workload whose single run warms every code path it uses
WARMUP = {
    "verify_mixed": ("o04_p-1_q1", "o07_p0_q1", "o08_p1_q1"),
    "crossing_dense": ("o04_p-1_q1", "o07_p0_q1", "o08_p1_q1"),
}
