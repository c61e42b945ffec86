"""Span tracing of the package, installed from the benchmark's side.

Timing wrappers replace functions at the names the calling module bound
(``torusmirror.app.discretized_dims``, ``torusmirror.fourier.theta_eval``,
...), so the unmodified package code runs and nested calls are still seen.
A span records its name, start, end, parent span and the index of the item
(object) it belongs to.  Spans stay in memory in flat arrays and are written
once, when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.sparse.linalg

import torusmirror.app
import torusmirror.derham
import torusmirror.floer
import torusmirror.fourier
import torusmirror.localsys

#: (module, attribute) bindings that get a timing wrapper.  A binding that a
#: later version of the package no longer has is skipped, and its counts read 0.
BINDINGS = {
    torusmirror.app: (
        "load_scene", "run_verify",
        "build_complex", "cohomology_dims", "matrix_rank", "boundary_transport_differential",
        "analytic_dims", "discretized_dims",
        "bundle_invariants", "standard_section", "dbar_residual", "theta_eval",
        "zero_crossings",
    ),
    torusmirror.floer: (
        "build_complex", "cohomology_dims", "matrix_rank", "boundary_transport_differential",
        "zero_crossings", "simple_arcs", "arc_area", "transport_flat", "transport_twisted",
    ),
    torusmirror.derham: (
        "analytic_dims", "discretized_dims",
        "build_complex", "cohomology_dims", "matrix_rank", "zero_crossings",
        "_count_small_eigs", "_assemble_line_operator", "eigvals_banded",
    ),
    torusmirror.fourier: (
        "standard_section", "theta_eval",
        "zero_crossings", "transport_twisted",
    ),
    torusmirror.localsys: ("transport_flat", "transport_twisted"),
    # derham reaches ARPACK as spla.eigsh, i.e. through this module object
    scipy.sparse.linalg: ("eigsh",),
}

#: span names for functions defined outside the package
FOREIGN_NAMES = {"eigsh": "derham.eigsh", "eigvals_banded": "derham.eigvals_banded"}

#: spans that also record process CPU time (all threads)
CPU_SPANS = {"derham.discretized_dims"}

LAYERS = ("app", "geometry", "localsys", "floer", "derham", "fourier")


def _span_name(fn, attr: str) -> str:
    if attr in FOREIGN_NAMES:
        return FOREIGN_NAMES[attr]
    module = fn.__module__.rsplit(".", 1)[-1]
    return f"{module}.{fn.__name__}"


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu: dict[int, float] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.active = False
        self.current_item = -1
        self.pass_starts: list[int] = []
        # per-pass data gathered from return values
        self.pass_data: list[dict] = []

    # -- installation ------------------------------------------------

    def install(self) -> None:
        for module, attrs in BINDINGS.items():
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                name = _span_name(fn, attr)
                setattr(module, attr, self._wrap(name, fn))
                self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        hook = _RESULT_HOOKS.get(name)
        with_cpu = name in CPU_SPANS
        perf_counter, process_time = time.perf_counter, time.process_time

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.item.append(self.current_item)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            c0 = process_time() if with_cpu else 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if with_cpu:
                    self.cpu[idx] = process_time() - c0
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(self.pass_data[-1], self.current_item, args, result)
            return result

        return wrapper

    def recording(self, index: int, fn):
        """fn, with its calls recorded as spans of item `index`; the wrappers
        are installed for the call only."""

        def run():
            self.current_item = index
            self.install()
            self.active = True
            try:
                return fn()
            finally:
                self.active = False
                self.uninstall()

        return run

    def begin_pass(self) -> None:
        self.pass_starts.append(len(self.start))
        self.pass_data.append({"components": {}, "grid_unknowns": 0, "generators": {}})

    # -- output --------------------------------------------------------

    def save(self, path: Path, item_ids: list[str]) -> None:
        """All spans of the run, as flat arrays plus the name and item tables."""
        cpu_idx = np.fromiter(self.cpu.keys(), dtype=np.int64, count=len(self.cpu))
        cpu_val = np.fromiter(self.cpu.values(), dtype=float, count=len(self.cpu))
        np.savez(
            path,
            names=np.array(self.names),
            item_ids=np.array(item_ids),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            pass_starts=np.array(self.pass_starts, dtype=np.int64),
            cpu_index=cpu_idx,
            cpu_s=cpu_val,
        )


def _record_crossings(data, item, args, result):
    comp = args[0]
    data["components"][(item, comp.kind, comp.shift)] = len(result)


def _record_grid(data, item, args, result):
    data["grid_unknowns"] += int(result.shape[1])


def _record_generators(data, item, args, result):
    data["generators"][item] = int(result.dim_f0 + result.dim_f1)


_RESULT_HOOKS = {
    "geometry.zero_crossings": _record_crossings,
    "derham._assemble_line_operator": _record_grid,
    "floer.build_complex": _record_generators,
}

#: exact per-pass counts; a given seed and program must repeat them exactly
EXACT_COUNTS = (
    "geometry.zero_crossings_calls",
    "geometry.arc_area_calls",
    "floer.build_complex_calls",
    "fourier.theta_eval_calls",
    "derham.grid_unknowns",
)


def pass_metrics(tracer: Tracer, index: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds)."""
    lo = tracer.pass_starts[index]
    hi = tracer.pass_starts[index + 1] if index + 1 < len(tracer.pass_starts) else len(tracer.start)
    names = np.array(tracer.names)
    nid = np.frombuffer(tracer.name_id, dtype=np.int32)[lo:hi]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[lo:hi]
    dur = np.frombuffer(tracer.end, dtype=float)[lo:hi] - np.frombuffer(tracer.start, dtype=float)[lo:hi]
    span_names = names[nid]
    has_parent = parent >= 0
    parent_local = np.where(has_parent, parent - lo, 0)
    parent_names = np.where(has_parent, span_names[parent_local], "<none>")

    child_time = np.zeros(len(dur))
    np.add.at(child_time, parent_local[has_parent], dur[has_parent])
    self_time = dur - child_time

    def outer(group: tuple[str, ...]) -> np.ndarray:
        """Spans of the group not directly nested in another of the group."""
        return np.isin(span_names, group) & ~np.isin(parent_names, group)

    def seconds(*group: str) -> float:
        return float(dur[outer(group)].sum())

    def calls(*group: str) -> int:
        return int(outer(group).sum())

    layer = np.array([n.split(".", 1)[0] for n in names])
    span_layer = layer[nid]
    parent_layer = np.where(has_parent, span_layer[parent_local], "app")
    top_level = (span_layer != "app") & (parent_layer == "app")

    data = tracer.pass_data[index]
    components = data["components"]
    scans = calls("geometry.zero_crossings")
    cpu = sum(
        tracer.cpu[lo + i] for i in np.nonzero(span_names == "derham.discretized_dims")[0]
    )
    banded = np.nonzero(span_names == "derham.eigvals_banded")[0]
    eigsh_parents = set(parent[span_names == "derham.eigsh"].tolist())
    metrics = {
        "geometry.zero_crossings_s": seconds("geometry.zero_crossings"),
        "geometry.zero_crossings_calls": scans,
        "geometry.crossings": sum(components.values()),
        "geometry.scans_per_component": scans / len(components) if components else 0.0,
        "geometry.arc_area_calls": calls("geometry.arc_area"),
        "localsys.transport_s": seconds("localsys.transport_flat", "localsys.transport_twisted"),
        "localsys.transport_calls": calls("localsys.transport_flat", "localsys.transport_twisted"),
        "floer.build_complex_s": seconds("floer.build_complex"),
        "floer.build_complex_calls": calls("floer.build_complex"),
        "floer.boundary_route_s": seconds("floer.boundary_transport_differential"),
        "floer.matrix_rank_s": seconds("floer.matrix_rank"),
        "floer.generators": sum(data["generators"].values()),
        "derham.analytic_dims_s": seconds("derham.analytic_dims"),
        "derham.discretized_dims_s": seconds("derham.discretized_dims"),
        "derham.discretized_dims_cpu_s": float(cpu),
        "derham.grid_unknowns": data["grid_unknowns"],
        "derham.eigsh_calls": calls("derham.eigsh"),
        # a banded count under the same _count_small_eigs as an eigsh call
        # is the fallback after ARPACK failed or did not bracket
        "derham.eigsh_failures": int(sum(1 for i in banded if parent[i] in eigsh_parents)),
        "derham.banded_count_calls": len(banded),
        "fourier.standard_section_s": seconds("fourier.standard_section"),
        "fourier.dbar_residual_s": seconds("fourier.dbar_residual"),
        "fourier.theta_eval_s": seconds("fourier.theta_eval"),
        "fourier.theta_eval_calls": calls("fourier.theta_eval"),
        "trace.layer_span_s": float(dur[top_level].sum()),
    }
    self_by_layer = defaultdict(float)
    for name, t in zip(span_layer.tolist(), self_time.tolist()):
        self_by_layer[name] += t
    for name in LAYERS:
        metrics[f"{name}.self_s"] = self_by_layer.get(name, 0.0)
    return metrics
