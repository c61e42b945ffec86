"""Mirror-side transform: kernel, theta-type sections, and bundle operations.

A curve with local system maps to a holomorphic section of a rank n*q
bundle on the mirror torus.  At a mirror point (t, xdual) the section's
branch j collects the lattice lifts of the curve over t + j, each weighted
by the coefficient value there and the kernel exp(2*pi*i * xdual * v) in
the fiber value v.  The holomorphic coordinate is z = xdual + i*t.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DecayError, UnsupportedError, ValidationError
from .geometry import CIRCLE, LINE, Harmonic, LagrangianGraph, LiftComponent, lift_components
from .localsys import (
    LocalSystem,
    TwistedTransport,
    circle_monodromy,
    horizontal_section,
    transport_twisted,
    trivial_system,
)

TWO_PI = 2.0 * math.pi

#: extra lattice shifts scanned around the nominal peak before truncating
PEAK_SCAN_PAD = 9


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


class HorizontalCoefficient:
    """Rapidly-decreasing coefficient on a line component: the horizontal
    section through (anchor, v)."""

    def __init__(self, system: LocalSystem, comp: LiftComponent, anchor_t: float, v):
        if comp.kind != LINE or comp.parent.p <= 0:
            raise DecayError(
                f"component {comp.label}: horizontal sections decay only on "
                "positive-slope line components"
            )
        self.component = comp
        self.section = horizontal_section(system, comp, anchor_t, v)
        self.rank = system.rank

    def value(self, s: float) -> np.ndarray:
        return self.section(s)

    def log_magnitude(self, s: float) -> float:
        return self.section.log_magnitude(s)

    def tail_bound(self, lo_term: float, hi_term: float) -> float:
        g = self.component.parent
        sigma = abs(g.p) * g.q  # quadratic rate per lattice shift of q
        return (lo_term + hi_term) / (1.0 - math.exp(-math.pi * sigma))


class CircleCoefficient:
    """Coefficient on a circle component: a single-valued horizontal section,
    which exists exactly when the twisted monodromy fixes the vector."""

    def __init__(self, system: LocalSystem, comp: LiftComponent, anchor_t: float, v, tol: float = 1e-9):
        if comp.kind != CIRCLE:
            raise ValidationError(f"component {comp.label} is not a circle")
        v = np.asarray(v, dtype=complex).reshape(system.rank)
        hol = circle_monodromy(system, comp)
        defect = np.linalg.norm(hol @ v - v)
        if defect > tol * max(np.linalg.norm(v), 1.0):
            raise DecayError(
                f"component {comp.label}: twisted monodromy moves the vector "
                f"(defect {defect:.3g}); no single-valued horizontal section"
            )
        self.component = comp
        self.system = system
        self.anchor_t = float(anchor_t)
        self.vector = v
        self.rank = system.rank

    def value(self, s: float) -> np.ndarray:
        return transport_twisted(self.system, self.component, self.anchor_t, s) @ self.vector


class SampledCoefficient:
    """Arbitrary coefficient given by a callable s -> n-vector on a line
    component.  Decay is not certified analytically; the truncation bound is
    estimated from the sampled tail."""

    def __init__(self, comp: LiftComponent, func: Callable[[float], np.ndarray], rank: int = 1):
        if comp.kind != LINE:
            raise ValidationError("sampled coefficients are supported on line components")
        self.component = comp
        self.func = func
        self.rank = rank
        self._cache: dict[float, np.ndarray] = {}

    def value(self, s: float) -> np.ndarray:
        cached = self._cache.get(s)
        if cached is None:
            cached = np.asarray(self.func(s), dtype=complex).reshape(self.rank)
            self._cache[s] = cached
        return cached

    def log_magnitude(self, s: float) -> float:
        norm = float(np.linalg.norm(self.value(s)))
        return math.log(norm) if norm > 0.0 else -math.inf

    def tail_bound(self, lo_term: float, hi_term: float) -> float:
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
        coeffs.append(CircleCoefficient(tt.system, LiftComponent(g, CIRCLE, 0), 0.0, e0))
    else:
        raise DecayError(f"object {g.id}: p = {g.p} < 0 admits no decaying coefficients")
    return ThetaSection(tt, tuple(coeffs), K)


def unit_object(n: int = 1) -> TwistedTransport:
    """The zero-section circle with trivial local system (convolution unit)."""
    return TwistedTransport(LagrangianGraph(id="unit", q=1, p=0, c=0.0), trivial_system(n))


def zero_section_of(tt: TwistedTransport, K: int = 25) -> ThetaSection:
    """The all-zero coefficient choice; evaluates to the zero section."""
    return ThetaSection(tt, (), K)


def _nominal_peak_shift(coeff, t_branch: float) -> int:
    """Lattice index m whose lift sits nearest the coefficient's peak."""
    g = coeff.component.parent
    s_star = -(g.c + coeff.component.shift) * g.q / g.p  # vertex of the quadratic weight
    return round((s_star - t_branch) / g.q)


def _line_branch_sum(coeff, t_branch: float, xdual: float, K: int) -> tuple[np.ndarray, float]:
    g = coeff.component.parent
    q = g.q
    m0 = _nominal_peak_shift(coeff, t_branch)
    scan = range(m0 - K - PEAK_SCAN_PAD, m0 + K + PEAK_SCAN_PAD + 1)
    m_hat = max(scan, key=lambda m: coeff.log_magnitude(t_branch + q * m))

    total = np.zeros(coeff.rank, dtype=complex)
    # fixed ascending-|shift| order, positive side first on ties
    offsets = [0]
    for d in range(1, K + 1):
        offsets.extend((d, -d))
    for d in offsets:
        s = t_branch + q * (m_hat + d)
        total = total + coeff.value(s) * kernel(coeff.component.height(s), xdual)

    lo = float(np.linalg.norm(coeff.value(t_branch + q * (m_hat - K - 1))))
    hi = float(np.linalg.norm(coeff.value(t_branch + q * (m_hat + K + 1))))
    return total, coeff.tail_bound(lo, hi)


def theta_eval(sec: ThetaSection, point: MirrorPoint) -> ThetaValue:
    """Evaluate the section at a mirror point.

    Returns one n-vector per branch j = 0..q-1 (the lifts over t + j) and
    the truncation error bound of the lattice sums.
    """
    g = sec.parent.graph
    n = sec.parent.rank
    values = np.zeros((g.q, n), dtype=complex)
    bound = 0.0
    for j in range(g.q):
        t_branch = point.t + j
        for coeff in sec.coefficients:
            if coeff.component.kind == LINE:
                term, tail = _line_branch_sum(coeff, t_branch, point.xdual, sec.K)
                values[j] += term
                bound = max(bound, tail)
            else:
                values[j] += coeff.value(t_branch) * kernel(coeff.component.height(t_branch), point.xdual)
    return ThetaValue(values, bound)


def _fd4(values: list[np.ndarray], h: float) -> np.ndarray:
    """Fourth-order central first derivative from samples at -2h,-h,+h,+2h."""
    m2, m1, p1, p2 = values
    return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)


def dbar_residual(sec: ThetaSection, point: MirrorPoint, h: float = 1e-3) -> float:
    """Finite-difference residual of the twisted Cauchy-Riemann operator.

    In the branch trivialization the operator is
    dbar_z + pi * xdual * Y'(t + j), with dbar_z = (d/dxdual + i d/dt)/2;
    every lattice term is annihilated exactly, so the residual measures only
    discretization error.  The result is max over branches of |residual|
    normalized by the largest section magnitude on the stencil.
    """
    g = sec.parent.graph
    t, x = point.t, point.xdual
    if min(t % 1.0, -t % 1.0) < 2.5 * h:
        raise ValidationError(
            f"point t = {t:.6g} is within the seam margin ({2.5 * h:.3g}); "
            "branch trivializations jump at integer t"
        )
    center = theta_eval(sec, point).values
    x_samples = [theta_eval(sec, MirrorPoint(t, x + d * h)).values for d in (-2, -1, 1, 2)]
    t_samples = [theta_eval(sec, MirrorPoint(t + d * h, x)).values for d in (-2, -1, 1, 2)]
    d_x = _fd4(x_samples, h)
    d_t = _fd4(t_samples, h)

    scale = max(float(np.max(np.abs(s))) for s in ([center] + x_samples + t_samples))
    if scale < 1e-300:
        return 0.0

    worst = 0.0
    for j in range(g.q):
        dbar = 0.5 * (d_x[j] + 1j * d_t[j])
        residual = dbar + math.pi * x * g.slope(t + j) * center[j]
        worst = max(worst, float(np.linalg.norm(residual, ord=np.inf)))
    return worst / scale


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


def _lift_value(sec: ThetaSection, t_rep: float, k: int) -> np.ndarray:
    """Coefficient value at the lift over t_rep with fiber index k (q = 1).

    For a p > 0 line the lifts over t_rep carry fiber values Y(t_rep) + k
    with k = p*m + r; the unit-type circle carries only k = 0.
    """
    g = sec.parent.graph
    n = sec.parent.rank
    if g.p > 0:
        r = k % g.p
        m = (k - r) // g.p
        for coeff in sec.coefficients:
            if coeff.component.shift == r:
                return coeff.value(t_rep + m)
        return np.zeros(n, dtype=complex)
    for coeff in sec.coefficients:
        if coeff.component.shift == k:
            return coeff.value(t_rep)
    return np.zeros(n, dtype=complex)


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

    def convolved_coeff(comp: LiftComponent) -> SampledCoefficient:
        r = comp.shift

        def func(s: float) -> np.ndarray:
            t_rep = s % 1.0
            big_m = round(s - t_rep)
            big_k = p12 * big_m + r
            k1_star = round(-obj1.graph.height(t_rep))
            acc = np.zeros(1, dtype=complex)
            for k1 in range(k1_star - reach, k1_star + reach + 1):
                v1 = _lift_value(sec1, t_rep, k1)
                if not np.any(v1):
                    continue
                acc = acc + v1 * _lift_value(sec2, t_rep, big_k - k1)
            return acc

        return func

    coeffs = tuple(
        SampledCoefficient(comp, convolved_coeff(comp), rank=1)
        for comp in lift_components(conv.graph)
    )
    sec12 = ThetaSection(conv, coeffs, K)

    nt, nx = grid
    worst = 0.0
    for it in range(nt):
        for ix in range(nx):
            pt = MirrorPoint((it + 0.5) / nt, ix / nx)
            v1 = theta_eval(sec1, pt).values[0, 0]
            v2 = theta_eval(sec2, pt).values[0, 0]
            v12 = theta_eval(sec12, pt).values[0, 0]
            worst = max(worst, abs(v12 - v1 * v2))
    return worst
