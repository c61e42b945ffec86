"""Local systems on Lagrangian graphs and their twisted parallel transport.

A local system of rank n is stored as its monodromy matrix T: transport
once around the curve in the positive base direction, trivialized away
from a seam placed at t = 0 (mod q).  Crossing the seam positively applies
T; the twist multiplies transports by exp(-2*pi * integral of Y~ dt).  Both
are in log form, twist_exponent and _power_table, so neither leaves the doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .geometry import LagrangianGraph, LiftComponent, ObjectGeometry, object_geometry

TWO_PI = 2.0 * math.pi

#: eigenvalue-modulus tolerance for the quasi-unitary flag
QUASI_UNITARY_TOL = 1e-9


@dataclass(frozen=True)
class LocalSystem:
    monodromy: np.ndarray

    def __post_init__(self):
        t = np.array(self.monodromy, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValidationError(f"monodromy must be square, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValidationError("monodromy entries must be finite")
        sign, _ = np.linalg.slogdet(t)
        if sign == 0:
            raise ValidationError("monodromy matrix is singular")
        t.setflags(write=False)
        object.__setattr__(self, "monodromy", t)

    @property
    def rank(self) -> int:
        return self.monodromy.shape[0]

    @cached_property
    def log_stretch(self) -> float:
        """L = max(log|T|_2, log|T^-1|_2), the largest |log sigma| over T's
        singular values: the most log|T^k v| can move per seam crossing.
        One SVD, on first use."""
        return float(np.max(np.abs(np.log(np.linalg.svd(self.monodromy, compute_uv=False)))))

    def is_quasi_unitary(self, tol: float = QUASI_UNITARY_TOL) -> bool:
        """All monodromy eigenvalues on the unit circle, up to tol."""
        return bool(np.all(np.abs(np.abs(np.linalg.eigvals(self.monodromy)) - 1.0) <= tol))


def trivial_system(n: int = 1) -> LocalSystem:
    return LocalSystem(np.eye(n, dtype=complex))


def _seam_crossings(q: int, t0: float, t1):
    """Net positively-oriented seam crossings on the half-open path (t0, t1];
    t1 may be an array."""
    return np.floor(np.asarray(t1) / q).astype(int) - math.floor(t0 / q)


def transport_flat(system: LocalSystem, comp: LiftComponent, t0: float, t1: float) -> np.ndarray:
    """Transport of the pulled-back flat system along the component from t0 to t1."""
    k = _seam_crossings(comp.parent.q, t0, t1)
    if k == 0:
        return np.eye(system.rank, dtype=complex)
    return np.linalg.matrix_power(system.monodromy, k)


def twist_exponent(graph: LagrangianGraph, shift, t0, t1, m=0):
    """-2*pi * integral of Y + shift from t0 to s = t1 + q m, on broadcasting
    scalars or arrays, with no cancellation at any offset: the linear part is
    (p / 2q)((s - v)^2 - (t0 - v)^2) about the vertex v = -(c + shift) q / p
    on a line and (c + shift)(s - t0) on a circle, where a difference of
    primitives rounds at p c^2 q.  W~(s) = W~(t1), so W~ is read at t1, t0."""
    if graph.p:
        vertex = -(graph.c + shift) * graph.q / graph.p
        d, d0 = (t1 - vertex) + graph.q * m, t0 - vertex
        linear = graph.p / (2 * graph.q) * (d * d - d0 * d0)
    else:
        linear = (graph.c + shift) * ((t1 - t0) + graph.q * m)
    return -TWO_PI * (linear + (graph.wiggle_primitive(t1) - graph.wiggle_primitive(t0)))


def transport_twisted(system: LocalSystem, comp: LiftComponent, t0: float, t1: float) -> np.ndarray:
    """Transport in the twisted system: flat transport times the area weight."""
    return transport_flat(system, comp, t0, t1) * math.exp(twist_exponent(comp.parent, comp.shift, t0, t1))


def log_norm(vectors: np.ndarray) -> np.ndarray:
    """log of the Euclidean norm over the last axis (-inf for a zero vector),
    scaled by the largest entry so that no square overflows."""
    mags = np.abs(vectors)
    top = mags.max(axis=-1)
    ratios = mags / np.where(top > 0.0, top, 1.0)[..., None]
    with np.errstate(divide="ignore"):
        return np.log(top) + 0.5 * np.log(np.sum(ratios * ratios, axis=-1))


def _power_table(system: LocalSystem, v: np.ndarray, k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """T^k v = rows[k - k_lo] exp(logs[k - k_lo]), k_lo <= k <= k_hi (a range
    that holds 0), built outward from v by T and T^-1; v is an n-vector or an
    n x C matrix of vectors, each with its own log.  A step moves a largest
    entry by e^(+-L) at most, L = log max(|T|_inf, |T^-1|_inf), so every
    floor(230 / L)-th row divides each vector by the power of two of that
    entry: no row leaves the double range, and none depends on the range."""
    rows = np.empty((k_hi - k_lo + 1,) + np.shape(v), dtype=complex)
    logs = np.zeros(rows.shape[:1] + rows.shape[2:])
    rows[-k_lo] = v
    inverse = np.linalg.inv(system.monodromy)
    stretch = math.log(max(np.abs(matrix).sum(axis=1).max() for matrix in (system.monodromy, inverse)))
    every = max(1, int(230.0 / stretch)) if stretch > 0.0 else len(rows)
    steps = [(k, k - 1, system.monodromy) for k in range(1, k_hi + 1)]
    steps += [(k, k + 1, inverse) for k in range(-1, k_lo - 1, -1)]
    for k, prev, matrix in steps:
        row = rows[k - k_lo]
        np.dot(matrix, rows[prev - k_lo], out=row)
        if k % every == 0:
            exponent = np.frexp(np.abs(row).max(axis=0))[1]
            row *= np.ldexp(1.0, -exponent)
            logs[k - k_lo] = exponent * math.log(2.0)
    if logs.any():  # each row's log sums those taken out between it and k = 0
        logs[-k_lo:] = np.cumsum(logs[-k_lo:], axis=0)
        logs[: 1 - k_lo] = np.cumsum(logs[-k_lo::-1], axis=0)[::-1]
    return rows, logs


@dataclass(frozen=True)
class HorizontalSection:
    """The horizontal section through (anchor_t, vector), a complex n-vector:
    s(t) = transport(anchor_t -> t) vector.  Every method takes a scalar t or
    an array of t.
    """

    system: LocalSystem
    component: LiftComponent
    anchor_t: float
    vector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=complex).reshape(self.system.rank))

    @property
    def rank(self) -> int:
        return self.system.rank

    def flat_and_twist(self, t) -> tuple[np.ndarray, np.ndarray]:
        """s(t) = flat * exp(twist) in log form: the power table's row for
        T^k v, k the seam count from the anchor, shape t.shape + (n,), and
        the twist plus that row's log, shape t.shape; one table per call."""
        t = np.asarray(t, dtype=float)
        comp = self.component
        k = _seam_crossings(comp.parent.q, self.anchor_t, t)
        k_lo, k_hi = int(k.min(initial=0)), int(k.max(initial=0))
        rows, logs = _power_table(self.system, self.vector, k_lo, k_hi)
        return rows[k - k_lo], np.asarray(twist_exponent(comp.parent, comp.shift, self.anchor_t, t) + logs[k - k_lo])

    def __call__(self, t) -> np.ndarray:
        flat, twist = self.flat_and_twist(t)
        return flat * np.exp(twist)[..., None]


def circle_monodromy(system: LocalSystem, comp: LiftComponent) -> np.ndarray:
    """Twisted monodromy once around a circle component (closed form).

    One loop is t -> t + q and crosses the seam once, so the flat part is T;
    the wiggle integrates to zero over a period, leaving the offset weight.
    """
    g = comp.parent
    if g.p != 0:
        raise ValidationError("circle_monodromy needs a p = 0 component")
    return system.monodromy * math.exp(-TWO_PI * g.q * (g.c + comp.shift))


def quasi_unitarize(system: LocalSystem, graph: LagrangianGraph) -> tuple[LocalSystem, float]:
    """Rescale the monodromy to unit |det| and return the compensating twist.

    T' = T * |det T|^(-1/n) and mu_coeff = log|det T| / (2*pi*n*q); the loop
    in the base has length q, so the invariant 1-form mu_coeff*dt integrates
    to log|det T|^(1/n) around it.  When the eigenvalues of T share one
    absolute value, T' is quasi-unitary; otherwise the flag on the result
    stays honest and reports mixed moduli.
    """
    log_scale = float(np.linalg.slogdet(system.monodromy)[1]) / system.rank
    return LocalSystem(system.monodromy * math.exp(-log_scale)), log_scale / (TWO_PI * graph.q)


def unitarization_twist(mu_coeff: float) -> tuple[LagrangianGraph, LocalSystem]:
    """The rank-1 twisting pair that undoes quasi-unitarization on transports.

    Tensoring by it shifts every branch height by -mu_coeff, so twisted
    transports regain the factor exp(2*pi*mu_coeff*(t1-t0)) removed from the
    monodromy.  (With this package's weight exp(-2*pi*int Y), the offset c
    must be the negative of mu_coeff.)
    """
    return (
        LagrangianGraph(id="unitarization-twist", q=1, p=0, c=-mu_coeff),
        trivial_system(1),
    )


@dataclass(frozen=True)
class TwistedTransport:
    """A Lagrangian graph paired with a local system; the twisted bundle's
    transports along lift components."""

    graph: LagrangianGraph
    system: LocalSystem

    def __post_init__(self):
        if self.system.rank < 1:
            raise ValidationError("local system must have positive rank")

    @property
    def id(self) -> str:
        return self.graph.id

    @property
    def rank(self) -> int:
        return self.system.rank

    @cached_property
    def geometry(self) -> ObjectGeometry:
        """Components, crossings and arcs of the curve, built on first use."""
        return object_geometry(self.graph)
