"""Mirror-side transform: kernel, theta-type sections, and bundle operations.

A curve with local system maps to a holomorphic section of a rank n*q
bundle on the mirror torus.  At a mirror point (t, xdual) the section's
branch j collects the lattice lifts of the curve over t + j, each weighted
by the coefficient value there and the kernel exp(2*pi*i * xdual * v) in
the fiber value v.  The holomorphic coordinate is z = xdual + i*t.

_coefficient_values is the one evaluation path.  For the U distinct t
values of P mirror points it takes all C line coefficients of a section in
one stacked pass over a (C, U, q, lifts) array (_lattice_sums).  The lifts
form one fixed window: K + R shifts either side of the lift nearest the
vertex of each coefficient's quadratic weight, where R is the section's
peak_reach, a bound on how far the largest lift can lie from that one.
Every term is in log form, a bounded part times the exp of a log weight:
horizontal coefficients read their parts off one table of T^k V, V the
n x C matrix of their vectors, with a log scale per row, and add the twist
(localsys.twist_exponent, on the rows and the anchors); a sampled
coefficient's function gets the whole lift array.  Each row's terms are
taken relative to its largest log weight, its log scale, and only the
kernel weight and the sum are per point, over the leading lifts up to the
last one within LOG_UNDERFLOW = -760 of its row's largest, below which a
term rounds to exactly 0.  theta_eval_batch sums the coefficients, and
values leave the log form there alone; theta_eval, tensor_compat_check and
app.sample_section call it.

dbar_residuals differences each coefficient's nine values on a
fourth-order stencil of step h around each of its points, all points'
stencils evaluated as one batch; dbar_residual is its one-point case.  The
verify check (app.dbar_check) derives the step from the curve's slope.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import localsys
from .errors import DecayError, NumericsError, UnsupportedError, ValidationError
from .geometry import CIRCLE, LINE, Harmonic, LagrangianGraph, LiftComponent, lift_components
from .localsys import HorizontalSection, LocalSystem, TwistedTransport, circle_monodromy, log_norm, trivial_system

TWO_PI = 2.0 * math.pi

#: coefficient values evaluated together inside one batch (points times
#: coefficients); bounds the (coefficients, points, q, lifts, n) arrays to a few MB
BATCH_CHUNK = 1024
#: relative defect |hol v - v| below which a circle coefficient's vector
#: counts as fixed by the twisted monodromy
CIRCLE_FIXED_TOL = 1e-9
#: log-magnitude of a lattice term over its row's largest below which it
#: rounds to exactly 0: e^-760 is under 2^-1075, half the least subnormal
LOG_UNDERFLOW = -760.0


@dataclass(frozen=True)
class MirrorPoint:
    t: float
    xdual: float

    @property
    def z(self) -> complex:
        return complex(self.xdual, self.t)


def kernel(v: float, xdual: float) -> complex:
    """Pairing weight of fiber value v against the dual coordinate."""
    return cmath.exp(2j * math.pi * xdual * v)


def poincare_holonomy(v_interval: tuple[float, float], x_interval: tuple[float, float]) -> complex:
    """Holonomy of the kernel's connection d + 2*pi*i*v dxdual around the
    rectangle boundary, composed from the four edge transports; equals
    exp(-2*pi*i * dv * dxdual)."""
    v0, v1 = v_interval
    x0, x1 = x_interval
    # traverse (v0,x0) -> (v1,x0) -> (v1,x1) -> (v0,x1) -> (v0,x0);
    # the edges along v carry no connection component
    ascend = cmath.exp(-2j * math.pi * v1 * (x1 - x0))
    descend = cmath.exp(-2j * math.pi * v0 * (x0 - x1))
    return ascend * descend


class ThetaValue(NamedTuple):
    values: np.ndarray  # shape (q, n), complex, indexed by branch
    trunc_bound: float


@dataclass(frozen=True)
class HorizontalCoefficient(HorizontalSection):
    """Rapidly-decreasing coefficient on a line component: the horizontal
    section through (anchor_t, vector)."""

    def __post_init__(self):
        super().__post_init__()
        comp = self.component
        if comp.kind != LINE or comp.parent.p <= 0:
            raise DecayError(
                f"component {comp.label}: horizontal sections decay only on "
                "positive-slope line components"
            )

    @cached_property
    def peak_reach(self) -> int:
        """Lifts of one branch point lie whole periods q apart, so the wiggle's
        primitive cancels between them and the log weight k shifts from the
        nominal peak is -pi*p*q*(k + delta)^2 + const with |delta| <= 1/2,
        while log|T^k v| moves by at most L = max(log|T|_2, log|T^-1|_2), the
        largest |log sigma| over T's singular values, per shift.  A lift beats
        its neighbour nearer the nominal peak only if |k| <= 1 + L / (2*pi*p*q)."""
        g = self.component.parent
        return 1 + math.floor(self.system.log_stretch() / (TWO_PI * g.p * g.q))

    def tail_bound(self, lo_term, hi_term):
        g = self.component.parent
        sigma = abs(g.p) * g.q  # quadratic rate per lattice shift of q
        return (lo_term + hi_term) / (1.0 - math.exp(-math.pi * sigma))


@dataclass(frozen=True)
class CircleCoefficient(HorizontalSection):
    """Coefficient on a circle component: a single-valued horizontal section,
    which exists exactly when the twisted monodromy fixes the vector."""

    def __post_init__(self):
        super().__post_init__()
        comp, v = self.component, self.vector
        if comp.kind != CIRCLE:
            raise ValidationError(f"component {comp.label} is not a circle")
        defect = np.linalg.norm(circle_monodromy(self.system, comp) @ v - v)
        if defect > CIRCLE_FIXED_TOL * max(np.linalg.norm(v), 1.0):
            raise DecayError(
                f"component {comp.label}: twisted monodromy moves the vector "
                f"(defect {defect:.3g}); no single-valued horizontal section"
            )


class SampledCoefficient:
    """Arbitrary coefficient on a line component, given by a function that
    takes an array of s and returns the n-vectors there, shape s.shape + (n,).
    Decay is not certified analytically: the truncation bound is estimated
    from the sampled tail, and the largest lift is assumed to lie within
    peak_reach = 1 lattice shift of the lift nearest the quadratic weight's
    vertex."""

    peak_reach = 1

    def __init__(self, comp: LiftComponent, func: Callable[[np.ndarray], np.ndarray], rank: int = 1):
        if comp.kind != LINE:
            raise ValidationError("sampled coefficients are supported on line components")
        self.component = comp
        self.func = func
        self.rank = rank

    def flat_and_twist(self, s) -> tuple[np.ndarray, np.ndarray]:
        """The values at the array s (one func call on all of it), with zero twist."""
        s = np.asarray(s, dtype=float)
        return np.asarray(self.func(s), dtype=complex).reshape(s.shape + (self.rank,)), np.zeros(s.shape)

    def tail_bound(self, lo_term, hi_term):
        # sampled data carries no analytic rate; assume at worst ratio 1/2
        return 2.0 * (lo_term + hi_term)


@dataclass(frozen=True)
class ThetaSection:
    """Mirror section of the pair: per-component coefficient data plus the
    lattice truncation depth K.  Components without a coefficient contribute
    zero."""

    parent: TwistedTransport
    coefficients: tuple
    K: int = 25

    def __post_init__(self):
        if self.K < 1:
            raise ValidationError("truncation depth K must be >= 1")
        for coeff in self.coefficients:
            if coeff.rank != self.parent.rank:
                raise ValidationError("coefficient rank does not match the local system")
        # the line coefficients are summed in one pass, on one power table
        for first, coeff in zip(self.coefficients, self.coefficients[1:]):
            if (
                type(coeff) is not type(first)
                or coeff.component.parent != first.component.parent
                or (hasattr(coeff, "system") and not np.array_equal(coeff.system.monodromy, first.system.monodromy))
            ):
                raise ValidationError("a section's coefficients must be of one kind, on one curve, with one local system")


def standard_section(tt: TwistedTransport, K: int = 25) -> ThetaSection:
    """The distinguished section: on each positive-slope line component the
    horizontal coefficient anchored at its first positive crossing with
    vector e_0; for the zero-section-like case (p=0) the single-valued
    horizontal coefficient on the shift-0 circle."""
    g = tt.graph
    e0 = np.zeros(tt.rank, dtype=complex)
    e0[0] = 1.0
    coeffs = []
    if g.p > 0:
        geo = tt.geometry
        for comp, points in zip(geo.components, geo.crossings):
            plus = [pt for pt in points if pt.is_positive]
            if not plus:
                raise ValidationError(f"component {comp.label} has no positive crossing")
            coeffs.append(HorizontalCoefficient(tt.system, comp, plus[0].t0, e0))
    elif g.p == 0:
        coeffs.append(CircleCoefficient(tt.system, LiftComponent(g, 0), 0.0, e0))
    else:
        raise DecayError(f"object {g.id}: p = {g.p} < 0 admits no decaying coefficients")
    return ThetaSection(tt, tuple(coeffs), K)


def unit_object(n: int = 1) -> TwistedTransport:
    """The zero-section circle with trivial local system (convolution unit)."""
    return TwistedTransport(LagrangianGraph(id="unit", q=1, p=0, c=0.0), trivial_system(n))


def _line_window(lines, t_branch: np.ndarray, K: int):
    """The window of the C line coefficients over the rows t_branch (U, q):
    the lattice shifts m (C, U, q, L) of the lifts s = t + q m, and their
    terms flat * exp(log): the flat parts (C, U, q, L, n), log|flat| + log
    and log (C, U, q, L).

    The K + R shifts either side of each coefficient's nominal peak (the
    lift nearest its vertex), R the section's peak_reach, in ascending
    |shift| order with the positive side first, then one tail term each
    side for the bound.  Horizontal coefficients read their flat parts and
    log scales off one table of T^k V, V the n x C matrix of their vectors,
    and add the twist; a sampled coefficient's function gets its lift array.
    """
    g = lines[0].component.parent
    reach = K + lines[0].peak_reach
    order = [0] + [sign * d for d in range(1, reach + 1) for sign in (1, -1)] + [-(reach + 1), reach + 1]
    vertex = np.array([coeff.component.vertex for coeff in lines])[:, None, None]
    m = np.rint((vertex - t_branch) / g.q)[..., None] + np.array(order)
    if isinstance(lines[0], SampledCoefficient):
        lifts = t_branch[..., None] + g.q * m
        flat, log = (np.stack(part) for part in zip(*(c.flat_and_twist(s) for c, s in zip(lines, lifts))))
        return m, flat, log_norm(flat) + log, log
    anchor, shift = np.array([(c.anchor_t, c.component.shift) for c in lines]).T[..., None, None, None]
    k = (np.floor(t_branch / g.q)[..., None] + m - np.floor(anchor / g.q)).astype(int)
    k_lo, k_hi = min(int(k.min()), 0), max(int(k.max()), 0)
    vectors = np.stack([coeff.vector for coeff in lines], axis=1)
    table, scales = localsys._power_table(lines[0].system, vectors, k_lo, k_hi)
    table = table.swapaxes(1, 2)  # (k, C, n)
    rows = (k - k_lo, np.arange(len(lines))[:, None, None, None])
    log = localsys.twist_exponent(g, shift, anchor, t_branch[..., None], m) + scales[rows]
    return m, table[rows], log_norm(table)[rows] + log, log


def _lattice_sums(lines, t_branch: np.ndarray, where: np.ndarray, xdual: np.ndarray, K: int):
    """Lattice sums of the C line coefficients at P points whose branch
    points are the rows t_branch[where] (t_branch (U, q) holds each distinct
    row once), against xdual (P,): the sums (P, C, q, n) and their truncation
    bounds (P, C, q) relative to the log scales (P, C, q), each row's
    largest log weight (-inf on a row of zeros).

    Only the kernel weight exp(2 pi i xdual (Y(t) + r + p m)) is per point,
    with Y taken once on the rows, and it runs only up to the last shift
    where some row has a term within LOG_UNDERFLOW of its largest: every
    term past it rounds to exactly 0, and the sum is sequential, so a
    point's value has the same bits whatever the cut.  A non-finite log
    weight is always kept, and a sum or tail term that is not finite raises
    NumericsError, naming the component.
    """
    g = lines[0].component.parent
    shift = np.array([coeff.component.shift for coeff in lines])[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        m, flat, log_mag, log = _line_window(lines, t_branch, K)
        scale = np.max(log_mag[..., :-2], axis=-1)  # (C, U, q)
        top = np.where(scale > -np.inf, scale, 0.0)[..., None]
        log_mag, log = log_mag - top, log - top
        # a non-finite log weight stays live, so 0 * inf still sums to NaN
        live = (log_mag[..., :-2] >= LOG_UNDERFLOW) | ~np.isfinite(log_mag[..., :-2])
        cut = 1 + np.max(np.flatnonzero(live.any(axis=(0, 1, 2))), initial=0)
        heights = (g.height(t_branch)[where] + shift)[..., None] + g.p * m[:, where, :, :cut]
        weight = np.exp(log[:, where, :, :cut] + 2j * math.pi * xdual[:, None, None] * heights)
        # sequential, so the exact zeros past a row's own last live column
        # leave its sum bit-equal whatever cut the rest of the batch needs
        sums = (flat[:, where, :, :cut, :] * weight[..., None]).cumsum(axis=-2)[..., -1, :]
        tails = np.exp(log_mag[..., -2:])
    finite = np.isfinite(sums).all(axis=(1, 2, 3)) & np.isfinite(tails).all(axis=(1, 2, 3))
    if not finite.all():
        raise NumericsError(
            f"component {lines[int(np.argmin(finite))].component.label}: the lattice sum over "
            f"{m.shape[-1] - 2} lifts or its tail bound is not finite"
        )
    bounds = [coeff.tail_bound(tails[c, ..., 0], tails[c, ..., 1])[where] for c, coeff in enumerate(lines)]
    return sums.swapaxes(0, 1), np.stack(bounds, axis=1), scale[:, where].swapaxes(0, 1)


def _coefficient_values(sec: ThetaSection, ts, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each of the C coefficients' transforms at the P mirror points
    (ts[i], xs[i]): the values, shape (P, C, q, n), and the truncation
    bounds, shape (P, C, q), zero on circles, relative to the log scales,
    shape (P, C, q); a circle's one term per row has its log weight."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    xs = np.asarray(xs, dtype=float).reshape(-1)
    if ts.shape != xs.shape:
        raise ValidationError(f"got {ts.size} t values but {xs.size} xdual values")
    g, coeffs = sec.parent.graph, sec.coefficients
    values = np.zeros((ts.size, len(coeffs), g.q, sec.parent.rank), dtype=complex)
    tails, scales = np.zeros(values.shape[:-1]), np.zeros(values.shape[:-1])
    if not coeffs:
        return values, tails, scales
    chunk = max(BATCH_CHUNK // len(coeffs), 1)
    for rows in (slice(lo, lo + chunk) for lo in range(0, ts.size, chunk)):
        distinct, where = np.unique(ts[rows], return_inverse=True)
        t_branch = distinct[:, None] + np.arange(g.q)
        if coeffs[0].component.kind == LINE:
            values[rows], tails[rows], scales[rows] = _lattice_sums(coeffs, t_branch, where, xs[rows], sec.K)
            continue
        for c, coeff in enumerate(coeffs):
            flat, log = coeff.flat_and_twist(t_branch)
            heights = coeff.component.height(t_branch)[where]
            values[rows, c] = flat[where] * np.exp(2j * math.pi * xs[rows, None] * heights)[..., None]
            scales[rows, c] = log[where]
    return values, tails, scales


def theta_eval_batch(sec: ThetaSection, ts, xs) -> tuple[np.ndarray, np.ndarray]:
    """The section at the P mirror points (ts[i], xs[i]): the values, shape
    (P, q, n), one n-vector per point and branch j = 0..q-1 (the lifts over
    t + j) summed over the coefficients; and the truncation bound, shape
    (P,), the largest over branches of the coefficients' summed bounds.
    Values leave the log form here: raises NumericsError, naming the
    component, when one lies beyond the double range."""
    values, tails, scales = _coefficient_values(sec, ts, xs)
    with np.errstate(over="ignore", invalid="ignore"):
        values, tails = values * np.exp(scales)[..., None], tails * np.exp(scales)
    finite = np.isfinite(values).all(axis=(0, 2, 3)) & np.isfinite(tails).all(axis=(0, 2))
    if not finite.all():
        c = int(np.argmin(finite))
        label, scale = sec.coefficients[c].component.label, np.max(scales[:, c])
        raise NumericsError(f"component {label}: the value lies beyond the double range (log scale {scale:.6g})")
    return values.sum(axis=1), tails.sum(axis=1).max(axis=-1)


def theta_eval(sec: ThetaSection, point: MirrorPoint) -> ThetaValue:
    """Evaluate the section at one mirror point: one n-vector per branch
    j = 0..q-1 and the truncation error bound (a batch of one)."""
    values, bound = theta_eval_batch(sec, [point.t], [point.xdual])
    return ThetaValue(values[0], float(bound[0]))


def _fd4(values, h: float) -> np.ndarray:
    """Fourth-order central first derivative from samples at -2h,-h,+h,+2h."""
    m2, m1, p1, p2 = values
    return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)


def dbar_residuals(sec: ThetaSection, points, h: float = 1e-3) -> np.ndarray:
    """Finite-difference residuals of the twisted Cauchy-Riemann operator at
    each of the mirror points, shape (P,).

    In the branch trivialization the operator is
    dbar_z + pi * xdual * Y'(t + j), with dbar_z = (d/dxdual + i d/dt)/2;
    every lattice term is annihilated exactly, so the residual measures only
    discretization error.  A point's residual is the max over coefficients
    and branches of |residual| normalized by that coefficient's largest
    magnitude on the stencil, all on their largest log scale, out of reach of
    the summed section's cancellation; a coefficient that is 0 on a stencil
    raises NumericsError.  The nine stencil points of all points are one batch.
    """
    g = sec.parent.graph
    for point in points:
        if min(point.t % 1.0, -point.t % 1.0) < 2.5 * h:
            raise ValidationError(
                f"point t = {point.t:.6g} is within the seam margin ({2.5 * h:.3g}); "
                "branch trivializations jump at integer t"
            )
    t = np.array([point.t for point in points], dtype=float)[:, None]
    x = np.array([point.xdual for point in points], dtype=float)[:, None]
    steps = np.array([-2, -1, 1, 2]) * h
    ts = np.concatenate((t, np.repeat(t, 4, axis=1), t + steps), axis=1)
    xs = np.concatenate((x, x + steps, np.repeat(x, 4, axis=1)), axis=1)
    values, _, scales = _coefficient_values(sec, ts.ravel(), xs.ravel())
    values = values.reshape(ts.shape + values.shape[1:]).swapaxes(0, 1)  # (9, P, C, q, n)
    scales = scales.reshape(ts.shape + scales.shape[1:]).swapaxes(0, 1)  # (9, P, C, q)
    top = np.max(scales, axis=(0, 3))  # each coefficient's largest on the stencil
    values = values * np.exp(scales - np.where(top > -np.inf, top, 0.0)[:, :, None])[..., None]
    dbar = 0.5 * (_fd4(values[1:5], h) + 1j * _fd4(values[5:9], h))
    slope = g.slope(t + np.arange(g.q))[:, None, :, None]
    worst = np.max(np.abs(dbar + math.pi * x[..., None, None] * slope * values[0]), axis=(2, 3))
    scale = np.max(np.abs(values), axis=(0, 3, 4))  # (P, C)
    if np.any(scale == 0.0):
        raise NumericsError(f"the section vanishes on the dbar stencil at {points[int(np.argmin(scale.min(axis=1)))]}")
    return np.max(worst / scale, axis=1, initial=0.0)


def dbar_residual(sec: ThetaSection, point: MirrorPoint, h: float = 1e-3) -> float:
    """The dbar residual at one mirror point (a batch of one)."""
    return float(dbar_residuals(sec, [point], h)[0])


@dataclass(frozen=True)
class BundleInvariants:
    rank: int
    degree: int
    euler: int


def bundle_invariants(tt: TwistedTransport) -> BundleInvariants:
    n, g = tt.rank, tt.graph
    return BundleInvariants(rank=n * g.q, degree=n * g.p, euler=n * g.p)


def dual_object(tt: TwistedTransport) -> TwistedTransport:
    g = tt.graph
    dual_graph = LagrangianGraph(
        id=f"{g.id}*",
        q=g.q,
        p=-g.p,
        c=-g.c,
        wiggle=tuple(Harmonic(h.m, -h.a, -h.b) for h in g.wiggle),
    )
    inv_t = np.linalg.inv(tt.system.monodromy).T
    return TwistedTransport(dual_graph, LocalSystem(inv_t))


def _merge_harmonics(terms: list[tuple[int, float, float]]) -> tuple[Harmonic, ...]:
    by_m: dict[int, list[float]] = {}
    for m, a, b in terms:
        acc = by_m.setdefault(m, [0.0, 0.0])
        acc[0] += a
        acc[1] += b
    out = []
    for m in sorted(by_m):
        a, b = by_m[m]
        if abs(a) > 1e-15 or abs(b) > 1e-15:
            out.append(Harmonic(m, a, b))
    return tuple(out)


def _rescaled_harmonics(g: LagrangianGraph, q_out: int, delta: float) -> list[tuple[int, float, float]]:
    """Harmonics of t -> W(t + delta) rewritten over the cover of degree q_out."""
    factor = q_out // g.q
    out = []
    for h in g.wiggle:
        phase = TWO_PI * h.m * delta / g.q
        a = h.a * math.cos(phase) + h.b * math.sin(phase)
        b = -h.a * math.sin(phase) + h.b * math.cos(phase)
        out.append((h.m * factor, a, b))
    return out


def convolve(obj1: TwistedTransport, obj2: TwistedTransport) -> list[TwistedTransport]:
    """Fiberwise sum of the two curves with tensored local systems.

    The branch sums Y1(t + j1) + Y2(t + j2) fall into gcd(q1, q2) orbits
    under common translation; each orbit is one output component over the
    lcm cover, offset by delta = j2 - j1 mod gcd.
    """
    g1, g2 = obj1.graph, obj2.graph
    q = math.lcm(g1.q, g2.q)
    gcd_q = math.gcd(g1.q, g2.q)
    p_out = g1.p * (q // g1.q) + g2.p * (q // g2.q)
    mono = np.kron(
        np.linalg.matrix_power(obj1.system.monodromy, q // g1.q),
        np.linalg.matrix_power(obj2.system.monodromy, q // g2.q),
    )
    if p_out != 0 and math.gcd(p_out, q) != 1:
        raise UnsupportedError(
            f"convolution has winding {p_out} over cover {q} with "
            f"gcd {math.gcd(p_out, q)} != 1 (disconnected); not supported"
        )
    results = []
    for delta in range(gcd_q):
        c_out = g1.c + g2.c + (g2.p / g2.q) * delta
        wiggle = _merge_harmonics(
            _rescaled_harmonics(g1, q, 0.0) + _rescaled_harmonics(g2, q, float(delta))
        )
        graph = LagrangianGraph(
            id=f"{g1.id}*{g2.id}" + (f"+{delta}" if gcd_q > 1 else ""),
            q=q,
            p=p_out,
            c=c_out,
            wiggle=wiggle,
        )
        results.append(TwistedTransport(graph, LocalSystem(mono)))
    return results


def _lift_values(sec: ThetaSection, t_rep: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Coefficient values at the lifts over t_rep with fiber indices ks
    (q = 1; the two arrays broadcast together), shape broadcast + (n,).

    For a p > 0 line the lifts over t_rep carry fiber values Y(t_rep) + k
    with k = p*m + r; the unit-type circle carries only k = 0.  Each
    coefficient is evaluated once, on all the lifts it carries.
    """
    g = sec.parent.graph
    t_rep, ks = np.broadcast_arrays(t_rep, ks)
    if g.p > 0:
        shift, m = ks % g.p, ks // g.p
    else:
        shift, m = ks, np.zeros_like(ks)
    out = np.zeros(ks.shape + (sec.parent.rank,), dtype=complex)
    for coeff in sec.coefficients:
        hit = shift == coeff.component.shift
        out[hit] = coeff(t_rep[hit] + m[hit])
    return out


def tensor_compat_check(
    obj1: TwistedTransport,
    obj2: TwistedTransport,
    grid: tuple[int, int] = (10, 10),
    K: int = 30,
) -> float:
    """Max deviation between the transform of the convolution (with fiberwise
    convolved coefficients) and the pointwise product of the transforms.

    Supported shapes: rank-1 objects over q = 1 whose convolution is again a
    graph with positive winding, or one factor equal to the unit object.
    """
    if obj1.graph.q != 1 or obj2.graph.q != 1 or obj1.rank != 1 or obj2.rank != 1:
        raise UnsupportedError("tensor check supports rank-1 objects over q = 1")
    if obj1.graph.p < 0 or obj2.graph.p < 0 or obj1.graph.p + obj2.graph.p <= 0:
        raise UnsupportedError("tensor check needs nonnegative windings with positive sum")

    sec1 = standard_section(obj1, K)
    sec2 = standard_section(obj2, K)
    (conv,) = convolve(obj1, obj2)
    p12 = conv.graph.p

    # the first factor's coefficient lives within |fiber value| <~ 14 of its
    # peak (weight below exp(-pi*14^2/p)); outside, every product term is 0
    reach = 14

    def convolved_coeff(comp: LiftComponent) -> Callable[[np.ndarray], np.ndarray]:
        def func(s: np.ndarray) -> np.ndarray:
            t_rep = (s % 1.0)[..., None]
            big_k = p12 * np.rint(s[..., None] - t_rep) + comp.shift
            k1 = np.rint(-obj1.graph.height(t_rep)) + np.arange(-reach, reach + 1)
            return (_lift_values(sec1, t_rep, k1) * _lift_values(sec2, t_rep, big_k - k1)).sum(axis=-2)

        return func

    coeffs = tuple(
        SampledCoefficient(comp, convolved_coeff(comp), rank=1)
        for comp in lift_components(conv.graph)
    )
    sec12 = ThetaSection(conv, coeffs, K)

    nt, nx = grid
    ts = np.repeat((np.arange(nt) + 0.5) / nt, nx)
    xs = np.tile(np.arange(nx) / nx, nt)
    v1, v2, v12 = (theta_eval_batch(sec, ts, xs)[0][:, 0, 0] for sec in (sec1, sec2, sec12))
    return float(np.max(np.abs(v12 - v1 * v2)))
