"""Local systems on Lagrangian graphs and their twisted parallel transport.

A local system of rank n is stored as its monodromy matrix T: transport
once around the curve in the positive base direction, trivialized away
from a seam placed at t = 0 (mod q).  Crossing the seam positively applies
T; the twist multiplies transports by exp(-2*pi * integral of Y~ dt),
evaluated through the exact harmonic antiderivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .geometry import LINE, IntersectionPoint, LagrangianGraph, LiftComponent, ObjectGeometry, object_geometry

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
        sign, _ = np.linalg.slogdet(t)
        if sign == 0:
            raise ValidationError("monodromy matrix is singular")
        t.setflags(write=False)
        object.__setattr__(self, "monodromy", t)

    @property
    def rank(self) -> int:
        return self.monodromy.shape[0]

    def is_quasi_unitary(self, tol: float = QUASI_UNITARY_TOL) -> bool:
        """All monodromy eigenvalues on the unit circle, up to tol."""
        return bool(np.all(np.abs(np.abs(np.linalg.eigvals(self.monodromy)) - 1.0) <= tol))


def trivial_system(n: int = 1) -> LocalSystem:
    return LocalSystem(np.eye(n, dtype=complex))


def _seam_crossings(q: int, t0: float, t1: float) -> int:
    """Net positively-oriented seam crossings on the half-open path (t0, t1]."""
    return math.floor(t1 / q) - math.floor(t0 / q)


def transport_flat(system: LocalSystem, comp: LiftComponent, t0: float, t1: float) -> np.ndarray:
    """Transport of the pulled-back flat system along the component from t0 to t1."""
    k = _seam_crossings(comp.parent.q, t0, t1)
    if k == 0:
        return np.eye(system.rank, dtype=complex)
    return np.linalg.matrix_power(system.monodromy, k)


def twist_exponent(comp: LiftComponent, t0: float, t1: float) -> float:
    """log of the scalar twist factor: -2*pi * integral of Y~ from t0 to t1."""
    return -TWO_PI * (comp.height_primitive(t1) - comp.height_primitive(t0))


def transport_twisted(system: LocalSystem, comp: LiftComponent, t0: float, t1: float) -> np.ndarray:
    """Transport in the twisted system: flat transport times the area weight."""
    return transport_flat(system, comp, t0, t1) * math.exp(twist_exponent(comp, t0, t1))


@dataclass(frozen=True)
class HorizontalSection:
    """The horizontal section through (anchor, v): s(t) = transport(anchor -> t) v.

    decays is True exactly when the section is rapidly decreasing in both
    directions along the component (Gaussian weight of a positive-slope line).
    """

    system: LocalSystem
    component: LiftComponent
    anchor_t: float
    vector: np.ndarray
    decays: bool

    def __call__(self, t: float) -> np.ndarray:
        return transport_twisted(self.system, self.component, self.anchor_t, t) @ self.vector

    def log_magnitude(self, t: float) -> float:
        """log |s(t)| computed without under/overflow for far t."""
        flat = transport_flat(self.system, self.component, self.anchor_t, t) @ self.vector
        norm = float(np.linalg.norm(flat))
        if norm == 0.0:
            return -math.inf
        return math.log(norm) + twist_exponent(self.component, self.anchor_t, t)


def horizontal_section(
    system: LocalSystem,
    comp: LiftComponent,
    anchor: IntersectionPoint | float,
    v: np.ndarray,
) -> HorizontalSection:
    t_a = anchor.t0 if isinstance(anchor, IntersectionPoint) else float(anchor)
    v = np.asarray(v, dtype=complex).reshape(system.rank)
    decays = comp.kind == LINE and comp.parent.p > 0
    return HorizontalSection(system, comp, t_a, v, decays)


def circle_monodromy(system: LocalSystem, comp: LiftComponent) -> np.ndarray:
    """Twisted monodromy once around a circle component (closed form).

    One loop is t -> t + q and crosses the seam once, so the flat part is T;
    the wiggle integrates to zero over a period, leaving the offset weight.
    """
    g = comp.parent
    if g.p != 0:
        raise ValidationError("circle_monodromy needs a p = 0 component")
    return system.monodromy * math.exp(-TWO_PI * g.q * (g.c + comp.shift))


def quasi_unitarize(
    system: LocalSystem, graph: LagrangianGraph, tol: float = QUASI_UNITARY_TOL
) -> tuple[LocalSystem, float]:
    """Rescale the monodromy to unit |det| and return the compensating twist.

    T' = T * |det T|^(-1/n) and mu_coeff = log|det T| / (2*pi*n*q); the loop
    in the base has length q, so the invariant 1-form mu_coeff*dt integrates
    to log|det T|^(1/n) around it.  When the eigenvalues of T share one
    absolute value, T' is quasi-unitary; otherwise the flag on the result
    stays honest and reports mixed moduli.
    """
    n = system.rank
    _, logdet = np.linalg.slogdet(system.monodromy)
    scaled = LocalSystem(system.monodromy * math.exp(-logdet / n))
    return scaled, logdet / (TWO_PI * n * graph.q)


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
