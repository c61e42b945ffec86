"""Intersection complex of a curve with the zero section.

Generators are the transversal crossings (positives in degree 0, negatives
in degree 1); the differential block from a positive to a negative point
sums direction * M over the simple arcs joining them, with
M = flat transport * exp(2*pi*area).  A second, independent route obtains
the same matrix from the distributional derivative of horizontal sections;
both are exposed and cross-checked by the callers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import exp

import numpy as np

from .geometry import CIRCLE, IntersectionPoint
from .localsys import TwistedTransport, transport_flat, transport_twisted

#: relative singular-value cutoff; differential entries are transcendental
RANK_TOL = 1e-9


@dataclass(frozen=True)
class FloerComplex:
    """Two-term complex F0 -> F1 with block differential d.

    f0/f1 hold the positive/negative crossings in assembly order (component
    shift, then t); each contributes a block of size n."""

    f0: tuple[IntersectionPoint, ...]
    f1: tuple[IntersectionPoint, ...]
    n: int
    d: np.ndarray

    @property
    def dim_f0(self) -> int:
        return self.n * len(self.f0)

    @property
    def dim_f1(self) -> int:
        return self.n * len(self.f1)


def _index(points) -> dict[int, int]:
    """Block index of each crossing, keyed by the crossing's identity."""
    return {id(pt): i for i, pt in enumerate(points)}


def build_complex(tt: TwistedTransport) -> FloerComplex:
    """Assemble the complex from crossings, arcs, areas, and flat transports."""
    if not tt.system.is_quasi_unitary():
        warnings.warn(f"object {tt.id}: local system is not quasi-unitary; dimensions may shift")
    geo = tt.geometry
    positives, negatives = geo.positives, geo.negatives
    n = tt.rank
    col, row = _index(positives), _index(negatives)
    d = np.zeros((n * len(negatives), n * len(positives)), dtype=complex)
    for arc in geo.arcs:
        monodromy = transport_flat(tt.system, arc.plus.component, arc.t_plus, arc.t_minus)
        block = arc.direction * monodromy * exp(2.0 * np.pi * arc.area)
        i, j = row[id(arc.minus)], col[id(arc.plus)]
        d[n * i : n * (i + 1), n * j : n * (j + 1)] += block
    return FloerComplex(positives, negatives, n, d)


def matrix_rank(d: np.ndarray, rank_tol: float = RANK_TOL) -> int:
    if d.size == 0:
        return 0
    sv = np.linalg.svd(d, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rank_tol * sv[0]))


def cohomology_dims(fc: FloerComplex, rank_tol: float = RANK_TOL) -> tuple[int, int]:
    """Kernel and cokernel dimensions of d.  Every arc joins two crossings of
    one component, so d is block diagonal with one block per component, and
    each block is ranked against its own largest singular value: area
    weights differ by many orders between components."""
    cols = np.repeat([pt.component.shift for pt in fc.f0], fc.n)
    rows = np.repeat([pt.component.shift for pt in fc.f1], fc.n)
    r = sum(matrix_rank(fc.d[np.ix_(rows == s, cols == s)], rank_tol) for s in set(cols.tolist()))
    return fc.dim_f0 - r, fc.dim_f1 - r


def boundary_transport_differential(tt: TwistedTransport) -> np.ndarray:
    """The differential recomputed from distributional boundary terms.

    Each basis vector at a positive point extends horizontally over the
    maximal interval free of negative points; its distributional derivative
    is supported at the interval's finite ends.  The matrix collects, per
    adjacent negative point, +transport to the right end and -transport to
    the left end (infinite ends decay and contribute nothing)."""
    geo = tt.geometry
    n = tt.rank
    col, row = _index(geo.positives), _index(geo.negatives)
    d = np.zeros((n * len(row), n * len(col)), dtype=complex)
    for comp, points in zip(geo.components, geo.crossings):
        count = len(points)
        for k, plus in enumerate(points):
            if not plus.is_positive:
                continue
            j = col[id(plus)]
            # signs alternate along a component, so the adjacent negative
            # points are the neighbours in t; on a circle they wrap by q
            for step, sign in ((+1, 1.0), (-1, -1.0)):
                at = k + step
                if comp.kind == CIRCLE:
                    minus = points[at % count]
                    t_end = minus.t0 + comp.parent.q * (at // count)
                elif 0 <= at < count:
                    minus = points[at]
                    t_end = minus.t0
                else:
                    continue
                i = row[id(minus)]
                d[n * i : n * (i + 1), n * j : n * (j + 1)] += sign * transport_twisted(
                    tt.system, comp, plus.t0, t_end
                )
    return d


def complex_report(fc: FloerComplex, rank_tol: float = RANK_TOL) -> dict:
    h0, h1 = cohomology_dims(fc, rank_tol)
    return {
        "F0": fc.dim_f0,
        "F1": fc.dim_f1,
        "d": [[[z.real, z.imag] for z in fc.d[i]] for i in range(fc.d.shape[0])],
        "h0": h0,
        "h1": h1,
        "euler": h0 - h1,
    }
