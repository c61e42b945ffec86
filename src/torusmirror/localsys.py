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


def twist_exponent(comp: LiftComponent, t0: float, t1):
    """log of the scalar twist factor: -2*pi * integral of Y~ from t0 to t1;
    t1 may be an array."""
    return -TWO_PI * (comp.height_primitive(t1) - comp.height_primitive(t0))


def transport_twisted(system: LocalSystem, comp: LiftComponent, t0: float, t1: float) -> np.ndarray:
    """Transport in the twisted system: flat transport times the area weight."""
    return transport_flat(system, comp, t0, t1) * math.exp(twist_exponent(comp, t0, t1))


def log_norm(vectors: np.ndarray) -> np.ndarray:
    """log of the Euclidean norm over the last axis (-inf for a zero vector),
    scaled by the largest entry so that no square overflows."""
    mags = np.abs(vectors)
    top = mags.max(axis=-1)
    ratios = mags / np.where(top > 0.0, top, 1.0)[..., None]
    with np.errstate(divide="ignore"):
        return np.log(top) + 0.5 * np.log(np.sum(ratios * ratios, axis=-1))


def _power_table(monodromy: np.ndarray, v: np.ndarray, k_lo: int, k_hi: int) -> np.ndarray:
    """Rows T^k v for k_lo <= k <= k_hi (a range that holds 0), built outward
    from v by repeated multiplication, with T^-1 below zero.  Each row is the
    same whatever range is asked for."""
    rows = [v]
    for _ in range(k_hi):
        rows.append(monodromy @ rows[-1])
    if k_lo < 0:
        inverse = np.linalg.inv(monodromy)
        below = [inverse @ v]
        for _ in range(-k_lo - 1):
            below.append(inverse @ below[-1])
        rows = below[::-1] + rows
    return np.array(rows)


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
        """s(t) = flat * exp(twist): the flat transport T'^k v, shape t.shape + (n,),
        and the log of the area weight plus k log|det T| / n, shape t.shape,
        for the unit-determinant T' = T |det T|^(-1/n).

        T'^k v is built once for the seam counts k that the array needs; the
        twist is the exact primitive on the whole array.  Where T's
        eigenvalue moduli are equal, T' has them all 1, so T'^k v stays in
        the double range and the twist carries the growth, which the kernel
        weight then meets in one exponent.
        """
        t = np.asarray(t, dtype=float)
        k = _seam_crossings(self.component.parent.q, self.anchor_t, t)
        k_lo, k_hi = int(k.min(initial=0)), int(k.max(initial=0))
        log_scale = np.linalg.slogdet(self.system.monodromy)[1] / self.rank
        flat = _power_table(self.system.monodromy * math.exp(-log_scale), self.vector, k_lo, k_hi)[k - k_lo]
        return flat, np.asarray(twist_exponent(self.component, self.anchor_t, t) + k * log_scale)

    def __call__(self, t) -> np.ndarray:
        flat, twist = self.flat_and_twist(t)
        return flat * np.exp(twist)[..., None]

    def log_magnitude(self, t):
        """log |s(t)| computed without under/overflow for far t."""
        flat, twist = self.flat_and_twist(t)
        out = log_norm(flat) + twist
        return out if out.shape else float(out)


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
