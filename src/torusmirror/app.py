"""Scene files, the cross-verification pipeline, and plot/CSV emission.

A scene is a JSON document listing objects (graph data plus local system)
and numeric parameters.  Loading validates everything eagerly: it builds
each object's crossing record, which checks transversality of every lift
component, so a scene that parses is a scene every pipeline accepts.
run_verify runs the cohomology routes, the differential double-computation,
the holomorphicity samples, and the Euler check per object, and aggregates
deterministically by object id.
"""

from __future__ import annotations

import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .derham import analytic_dims, discretized_dims
from .errors import TorusMirrorError, ValidationError
from .floer import boundary_transport_differential, build_complex, cohomology_dims
from .fourier import MirrorPoint, ThetaSection, bundle_invariants, dbar_residuals, standard_section, theta_eval_batch
from .geometry import Harmonic, LagrangianGraph
from .localsys import LocalSystem, TwistedTransport

#: fixed holomorphicity sample points, clear of the seam margin at t in Z
DBAR_SAMPLE_POINTS = tuple((t, x) for t in (0.15, 0.35, 0.55, 0.75) for x in (0.2, 0.6))
#: coarsest finite-difference step of the dbar check; the check takes DBAR_STEP / 2^k
DBAR_STEP = 1e-3

D_ROUTE_TOL = 1e-9

_OBJECT_KEYS = {"id", "q", "p", "c", "wiggle", "local_system"}


@dataclass(frozen=True)
class SceneParams:
    K: int = 25
    grid_h: float = 1.0 / 512
    window: float = 6.0
    rank_tol: float = 1e-9
    dbar_tol: float = 1e-6

    def __post_init__(self):
        if isinstance(self.K, bool) or not isinstance(self.K, int) or self.K < 1:
            raise ValidationError(f"params: K must be a positive integer, got {self.K!r}")
        for name in ("grid_h", "window", "rank_tol", "dbar_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValidationError(f"params: {name} must be a finite number, got {value!r}")
        if not 0 < self.grid_h <= 1e-2:
            raise ValidationError(f"params: grid_h must lie in (0, 1e-2], got {self.grid_h!r}")
        if self.window <= 0 or self.rank_tol <= 0 or self.dbar_tol <= 0:
            raise ValidationError("params: window and tolerances must be positive")
        if self.rank_tol >= 1:  # a cutoff relative to the top singular value
            raise ValidationError(f"params: rank_tol must lie in (0, 1), got {self.rank_tol!r}")


_PARAM_KEYS = {f.name for f in fields(SceneParams)}


@dataclass(frozen=True)
class Scene:
    objects: tuple[TwistedTransport, ...]
    params: SceneParams = SceneParams()

    def __post_init__(self):
        ids = [tt.id for tt in self.objects]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"scene: duplicate object ids in {ids}")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(tt.id for tt in self.objects)

    def get(self, object_id: str) -> TwistedTransport:
        for tt in self.objects:
            if tt.id == object_id:
                return tt
        raise ValidationError(f"scene has no object {object_id!r}; ids are {list(self.ids)}")


def _monodromy_entry(entry, object_id: str) -> complex:
    if not (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in entry)
    ):
        raise ValidationError(f"object {object_id}: monodromy entries must be [re, im] pairs of numbers, got {entry!r}")
    return complex(*entry)


def _monodromy_from_json(raw, object_id: str) -> np.ndarray:
    try:
        return np.array([[_monodromy_entry(entry, object_id) for entry in row] for row in raw], dtype=complex)
    except (TypeError, ValueError) as err:
        # a matrix or row that is no list, or rows of unequal length
        raise ValidationError(f"object {object_id}: monodromy must be a list of equal-length rows ({err})") from err


def _object_from_dict(raw: dict) -> TwistedTransport:
    if not isinstance(raw, dict) or "id" not in raw:
        raise ValidationError("every scene object needs an 'id' field")
    oid = raw["id"]
    unknown = set(raw) - _OBJECT_KEYS
    if unknown:
        raise ValidationError(f"object {oid}: unknown fields {sorted(unknown)}")
    missing = _OBJECT_KEYS - set(raw)
    if missing:
        raise ValidationError(f"object {oid}: missing fields {sorted(missing)}")
    try:
        try:
            wiggle = tuple(Harmonic(term["m"], term["a"], term["b"]) for term in raw["wiggle"])
            graph = LagrangianGraph(id=oid, q=raw["q"], p=raw["p"], c=raw["c"], wiggle=wiggle)
            system = LocalSystem(_monodromy_from_json(raw["local_system"]["monodromy"], oid))
            rank = raw["local_system"]["rank"]
        except (KeyError, TypeError, OverflowError) as err:
            # a wiggle term or local system without one of its fields, a
            # string where a number belongs, or an integer beyond the double range
            raise ValidationError(f"malformed entry ({type(err).__name__}: {err})") from err
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise ValidationError(f"object {oid}: local_system.rank must be an integer, got {rank!r}")
        if system.rank != rank:
            raise ValidationError(f"object {oid}: declared rank {rank!r} but monodromy is {system.rank}x{system.rank}")
        tt = TwistedTransport(graph, system)
        tt.geometry  # builds the crossing record: transversality and alternation, eagerly
    except TorusMirrorError as err:
        text = str(err)
        # geometry names the object as object 'id', the rest as object id
        named = f"object {oid}" in text or f"object {oid!r}" in text or text.startswith("component")
        raise type(err)(text if named else f"object {oid}: {text}") from err
    return tt


def scene_from_dict(data: dict) -> Scene:
    if not isinstance(data, dict) or "objects" not in data:
        raise ValidationError("scene JSON must be an object with an 'objects' list")
    raw_params = data.get("params", {})
    if not isinstance(raw_params, dict):
        raise ValidationError(f"params: must be a JSON object, got {raw_params!r}")
    unknown = set(raw_params) - _PARAM_KEYS
    if unknown:
        raise ValidationError(f"params: unknown fields {sorted(unknown)}")
    params = SceneParams(**raw_params)
    objects = tuple(_object_from_dict(raw) for raw in data["objects"])
    return Scene(objects, params)


def load_scene(path) -> Scene:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ValidationError(f"scene file {path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError(f"scene file {path}: invalid JSON: {err}") from err
    return scene_from_dict(data)


def scene_to_dict(scene: Scene) -> dict:
    objects = []
    for tt in scene.objects:
        g = tt.graph
        objects.append(
            {
                "id": g.id,
                "q": g.q,
                "p": g.p,
                "c": g.c,
                "wiggle": [{"m": h.m, "a": h.a, "b": h.b} for h in g.wiggle],
                "local_system": {
                    "rank": tt.rank,
                    "monodromy": [
                        [[z.real, z.imag] for z in row] for row in tt.system.monodromy
                    ],
                },
            }
        )
    return {"objects": objects, "params": asdict(scene.params)}


def save_scene(scene: Scene, path) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=2) + "\n")


# -- verification --------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    objects: tuple[dict, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {"objects": [dict(entry) for entry in self.objects], "pass": self.passed}


def dbar_check(section: ThetaSection, tol: float) -> tuple[float, float]:
    """Largest dbar residual over DBAR_SAMPLE_POINTS and the one step it is taken at.

    With S = |p|/q + sum_m (2 pi m / q)(|a_m| + |b_m|) >= |Y'|, a coefficient's
    transform varies at a rate of at most lam = 2 pi (xbar S + sqrt(S)): the
    kernel's phase at 2 pi xdual Y' (xbar the largest sample xdual), the area
    weight exp(-pi S u^2) at 2 pi sqrt(S) across its width.  The stencil errs by
    lam^5 h^4 / 30 on exp(lam z), and h is the largest DBAR_STEP / 2^k that keeps
    that within tol / 10.  On a line, T moves the largest lift up to
    L / (2 pi p) past the vertex, L = max |log sigma(T)|, where the
    log-magnitude drifts at L / q more; lam adds that drift.  The pass rule
    stays residual <= tol, so a model that is too optimistic fails loudly, and
    a real fault reads its size at any step.
    """
    g = section.parent.graph
    slope = abs(g.p) / g.q + sum(2 * math.pi * abs(w.m) / g.q * (abs(w.a) + abs(w.b)) for w in g.wiggle)
    drift = section.parent.system.log_stretch / g.q if g.p > 0 else 0.0
    rate = 2 * math.pi * (max(x for _, x in DBAR_SAMPLE_POINTS) * slope + math.sqrt(slope)) + drift
    h = DBAR_STEP
    while rate**5 * h**4 / 30 > tol / 10:
        h /= 2
    return float(np.max(dbar_residuals(section, [MirrorPoint(t, x) for t, x in DBAR_SAMPLE_POINTS], h))), h


def _verify_object(tt: TwistedTransport, params: SceneParams) -> dict:
    entry = {
        "id": tt.id,
        "p": tt.graph.p,
        "q": tt.graph.q,
        "rank": tt.rank,
        "quasi_unitary": tt.system.is_quasi_unitary(),
        "errors": [],
    }
    checks = {}
    try:
        fc = build_complex(tt)
        dims = cohomology_dims(fc, params.rank_tol)
        entry["floer_dims"] = list(dims)
        entry["d_rank"] = fc.dim_f0 - dims[0]
        other = boundary_transport_differential(tt)
        diff = float(np.max(np.abs(fc.d - other))) if fc.d.size else 0.0
        entry["d_route_max_diff"] = diff
        checks["d_routes_agree"] = diff <= D_ROUTE_TOL

        invariants = bundle_invariants(tt)
        entry["euler"] = dims[0] - dims[1]
        entry["degree"] = invariants.degree
        checks["euler_matches_degree"] = dims[0] - dims[1] == invariants.degree

        analytic = analytic_dims(tt, rank_tol=params.rank_tol)
        entry["analytic_dims"] = list(analytic)
        checks["analytic_agrees"] = analytic == dims

        discretized = discretized_dims(tt, h=params.grid_h, big_t=params.window)
        entry["discretized_dims"] = list(discretized)
        checks["discretized_agrees"] = discretized == dims

        if tt.graph.p > 0:
            residual, step = dbar_check(standard_section(tt, params.K), params.dbar_tol)
            entry["dbar_residual_max"] = residual
            entry["dbar_step"] = step
            checks["dbar_ok"] = residual <= params.dbar_tol
        else:
            entry["dbar_residual_max"] = None  # no decaying section to sample
            entry["dbar_step"] = None
    except Exception as err:  # one object's failure of any kind fails only that object
        entry["errors"].append(f"{type(err).__name__}: {err}")
    entry["checks"] = checks
    entry["pass"] = not entry["errors"] and all(checks.values())
    return entry


def run_verify(scene: Scene, workers: int = 1) -> VerificationReport:
    items = sorted(scene.objects, key=lambda tt: tt.id)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda tt: _verify_object(tt, scene.params), items))
    else:
        results = [_verify_object(tt, scene.params) for tt in items]
    return VerificationReport(tuple(results), all(r["pass"] for r in results))


# -- sampling and plots --------------------------------------------------


def sample_section(tt: TwistedTransport, n_t: int, n_x: int, K: int = 25) -> list[dict]:
    """Theta samples on the n_t x n_x grid of the fundamental domain.

    One row per (t, xdual, branch) for rank 1; higher rank adds a component
    column."""
    if n_t < 1 or n_x < 1:
        raise ValidationError(f"grid must be at least 1x1, got {n_t}x{n_x}")
    ts = np.repeat(np.arange(n_t) / n_t, n_x)
    xs = np.tile(np.arange(n_x) / n_x, n_t)
    values, bounds = theta_eval_batch(standard_section(tt, K), ts, xs)
    rows = []
    for t, x, value, bound in zip(ts.tolist(), xs.tolist(), values, bounds.tolist()):
        for branch in range(value.shape[0]):
            for comp in range(value.shape[1]):
                row = {"t": t, "xdual": x, "branch": branch}
                if tt.rank > 1:
                    row["component"] = comp
                z = value[branch, comp]
                row.update(re=z.real, im=z.imag, trunc_bound=bound)
                rows.append(row)
    return rows


def emit_csv(samples: list[dict], out) -> None:
    if not samples:
        raise ValidationError("no samples to write")
    columns = list(samples[0])
    lines = [",".join(columns)]
    for row in samples:
        cells = []
        for col in columns:
            v = row[col]
            cells.append(f"{v:.17g}" if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    Path(out).write_text("\n".join(lines) + "\n")


_MARGIN, _SPAN = 40, 400
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _px(t: float) -> float:
    return _MARGIN + _SPAN * t


def _py(y: float) -> float:
    return _MARGIN + _SPAN * (1.0 - y)  # SVG y axis points down


def _curve_polylines(graph: LagrangianGraph, color: str) -> list[str]:
    ts = np.arange(512) / 512.0
    pieces = []
    for branch in range(graph.q):  # branch j is the part of the curve over t + j
        current = []
        for t, y in zip(ts, np.mod(graph.height(ts + branch), 1.0)):
            if current and abs(y - current[-1][1]) > 0.5:
                pieces.append(current)
                current = []
            current.append((t, y))
        pieces.append(current)
    out = []
    for piece in pieces:
        points = " ".join(f"{_px(t):.2f},{_py(y):.2f}" for t, y in piece)
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
    return out


def render_svg(scene: Scene, out) -> str:
    size = 2 * _MARGIN + _SPAN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_SPAN}" height="{_SPAN}" '
        'fill="white" stroke="#333" stroke-width="1"/>',
        f'<line x1="{_px(0)}" y1="{_py(0)}" x2="{_px(1)}" y2="{_py(0)}" '
        'stroke="#999" stroke-width="1" stroke-dasharray="6 4"/>',
        f'<text x="{_px(0.5):.0f}" y="{size - 10}" text-anchor="middle" '
        'font-size="12">t</text>',
        f'<text x="14" y="{_py(0.5):.0f}" text-anchor="middle" font-size="12">y</text>',
    ]
    for index, tt in enumerate(scene.objects):
        color = _PALETTE[index % len(_PALETTE)]
        parts.extend(_curve_polylines(tt.graph, color))
        for points in tt.geometry.crossings:
            for pt in points:
                t = pt.t0 % 1.0
                sign = "+" if pt.is_positive else "−"
                kind = "plus" if pt.is_positive else "minus"
                parts.append(
                    f'<text class="marker {kind}" x="{_px(t):.2f}" y="{_py(0) - 6:.2f}" '
                    f'text-anchor="middle" font-size="14" fill="{color}">{sign}</text>'
                )
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    Path(out).write_text(text)
    return text
