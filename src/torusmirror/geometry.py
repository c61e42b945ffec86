"""Base circle, Lagrangian graphs, lifts, zero-section crossings, and areas.

Conventions used throughout the package: the base coordinate t lives on
R/Z oriented positively, the fiber coordinate y is periodic on the torus
and real on the cotangent cylinder, the symplectic form is dy^dt, and the
restriction of the canonical 1-form to a graph is Y(t) dt.  The oriented
area of an arc is A = -integral of Y dt along the traversal direction, so
that exp(2*pi*A) < 1 for an arc above the axis traversed positively.

The crossings of every lift component with the zero section are the t in
one period [0, q] of the q-fold cover where Y(t) is an integer, so one scan
of that period serves circles and lines alike (_crossing_scan).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, TransversalityError, ValidationError

TWO_PI = 2.0 * math.pi

LINE = "line"
CIRCLE = "circle"

#: tolerance for locating roots of Y on a component
ROOT_TOL = 1e-12
#: |Y'(root)| at or below this value is treated as a tangential crossing
TRANSVERSALITY_TOL = 1e-6
#: |Y| at a critical point below this value flags an even-order tangency
TANGENCY_HEIGHT_TOL = 1e-9

@dataclass(frozen=True)
class Harmonic:
    """One wiggle term a*cos(2*pi*m*t/q) + b*sin(2*pi*m*t/q)."""

    m: int
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, int) or self.m < 1:
            raise ValidationError(f"harmonic order must be a positive integer, got {self.m!r}")
        if any(isinstance(x, bool) or not math.isfinite(x) for x in (self.a, self.b)):
            raise ValidationError(f"harmonic m={self.m}: coefficients must be finite numbers, got a={self.a!r}, b={self.b!r}")


def _as_harmonics(wiggle) -> tuple[Harmonic, ...]:
    out = []
    for term in wiggle:
        if isinstance(term, Harmonic):
            out.append(term)
        else:
            m, a, b = term
            out.append(Harmonic(int(m), float(a), float(b)))
    return tuple(out)


@dataclass(frozen=True)
class LagrangianGraph:
    """A closed curve transversal to the fibers, given as a graph over a q-fold
    cover of the base circle.

    The lift function is Y(t) = (p/q)*t + c + W(t) with W a finite harmonic
    sum of period q.  Closedness Y(t+q) = Y(t) + p holds by construction and
    is asserted numerically on creation.

    Construction builds the curve's harmonic table once: the frequencies
    omega = 2*pi*m/q and, for W and W', the coefficient vectors of
    cos(omega t) and sin(omega t).  Y, Y' and the primitive take
    one cos and one sin of the outer product omega x t per evaluation,
    whatever the number of harmonics, then a vector-matrix product (Y, Y')
    or a harmonic-by-harmonic sum (the primitive's periodic part).
    """

    id: str
    q: int = 1
    p: int = 0
    c: float = 0.0
    wiggle: tuple[Harmonic, ...] = ()
    _omega: np.ndarray = field(init=False, repr=False, compare=False)
    #: _table[k] = (cos coefficients, sin coefficients) of the k-th derivative of W
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "wiggle", _as_harmonics(self.wiggle))
        if isinstance(self.q, bool) or not isinstance(self.q, int) or self.q < 1:
            raise ValidationError(f"object {self.id!r}: cover degree q must be a positive integer")
        if isinstance(self.p, bool) or not isinstance(self.p, int):
            raise ValidationError(f"object {self.id!r}: winding p must be an integer")
        if isinstance(self.c, bool) or not math.isfinite(self.c):
            raise ValidationError(f"object {self.id!r}: offset c must be a finite number, got {self.c!r}")
        if self.p != 0 and math.gcd(self.p, self.q) != 1:
            raise ValidationError(
                f"object {self.id!r}: gcd(p, q) = {math.gcd(self.p, self.q)} != 1 "
                f"(p={self.p}, q={self.q}); the curve would be disconnected"
            )
        omega = np.array([TWO_PI * h.m / self.q for h in self.wiggle])
        a = np.array([h.a for h in self.wiggle])
        b = np.array([h.b for h in self.wiggle])
        object.__setattr__(self, "_omega", omega)
        table = np.array([[a, b], [omega * b, -omega * a]])
        object.__setattr__(self, "_table", table)
        ts = np.array([0.1, 0.37, 1.7])
        if np.any(np.abs(self.height(ts + self.q) - self.height(ts) - self.p) > 1e-9):
            raise ValidationError(f"object {self.id!r}: Y(t+q) != Y(t) + p")

    # -- pointwise data ------------------------------------------------

    def _phases(self, t):
        """t as an array, with cos and sin of omega*t: one row per harmonic,
        one column per entry of t."""
        t = np.asarray(t, dtype=float)
        wt = np.multiply.outer(self._omega, t.ravel())
        return t, np.cos(wt), np.sin(wt)

    def _wiggle(self, t, order: int):
        """t as an array, and the order-th derivative of W at t."""
        t, cos, sin = self._phases(t)
        on_cos, on_sin = self._table[order]
        return t, (on_cos @ cos + on_sin @ sin).reshape(t.shape)

    def height(self, t):
        """Y(t), vectorized over numpy arrays."""
        t, w = self._wiggle(t, 0)
        y = (self.p / self.q) * t + self.c + w
        return y if y.shape else float(y)

    def slope(self, t):
        """Y'(t)."""
        _, w = self._wiggle(t, 1)
        s = self.p / self.q + w
        return s if s.shape else float(s)

    def height_primitive(self, t):
        """Exact antiderivative of Y with height_primitive(0) = 0."""
        t = np.asarray(t, dtype=float)
        g = 0.5 * (self.p / self.q) * t * t + self.c * t + self.wiggle_primitive(t)
        return g if g.shape else float(g)

    def wiggle_primitive(self, t):
        """The antiderivative of W that vanishes at 0, periodic of period q.
        The harmonics are summed one after another, so each entry's bits do
        not depend on the rest of the array."""
        t, cos, sin = self._phases(t)
        a, b = self._table[0] / self._omega
        return (a[:, None] * sin + b[:, None] * (1.0 - cos)).sum(axis=0).reshape(t.shape)

    def wiggle_bound(self) -> float:
        """sup |W|, bounded by the sum of coefficient magnitudes."""
        return sum(abs(h.a) + abs(h.b) for h in self.wiggle)

    def default_window(self) -> float:
        """max(4, 2 + wiggle bound): some branch lies within 1/2 + wiggle
        bound of zero whatever c is, and a wider window adds far circles."""
        return max(4.0, 2.0 + self.wiggle_bound())


@dataclass(frozen=True)
class LiftComponent:
    """One connected component of the preimage of the curve in the cotangent
    cylinder: a Line for p != 0 (shift in 0..|p|-1), a Circle for p = 0
    (any integer shift).  The branch function is Y(t) + shift."""

    parent: LagrangianGraph
    shift: int

    @property
    def kind(self) -> str:
        return LINE if self.parent.p != 0 else CIRCLE

    @property
    def vertex(self) -> float:
        """A line's weight vertex, where (p/q) t + c + shift vanishes."""
        g = self.parent
        return -(g.c + self.shift) * g.q / g.p

    @property
    def label(self) -> str:
        return f"{self.parent.id}/r{self.shift}"

    def height(self, t):
        return self.parent.height(t) + self.shift

    def slope(self, t):
        return self.parent.slope(t)

    def height_primitive(self, t):
        t_arr = np.asarray(t, dtype=float)
        g = self.parent.height_primitive(t_arr) + self.shift * t_arr
        return g if g.shape else float(g)


@dataclass(frozen=True)
class IntersectionPoint:
    """A transversal crossing of a lift component with the zero section.

    sign is +1 when the branch crosses upward (the local primitive of Y dt
    has a local minimum there) and -1 when it crosses downward.
    """

    component: LiftComponent
    t0: float
    sign: int

    @property
    def is_positive(self) -> bool:
        return self.sign > 0


@dataclass(frozen=True)
class SimpleArc:
    """An arc of a lift component running from a positive crossing to a
    negative crossing without meeting the zero section in between.

    direction is +1 when traversal from the positive to the negative point
    runs in the positive base direction.  t_plus/t_minus are unwrapped
    parameters (the wrap-around arc on a circle uses t_minus > q).
    """

    plus: IntersectionPoint
    minus: IntersectionPoint
    t_plus: float
    t_minus: float
    direction: int
    area: float


def lift_components(graph: LagrangianGraph, window: float | None = None) -> list[LiftComponent]:
    """Enumerate the components of the lift of the curve.

    For p != 0 these are the |p| lines with shifts 0..|p|-1.  For p = 0 they
    are circles, enumerated lazily: only shifts whose branch meets the band
    |y| <= window are returned.  The circle's height band is exact: Y takes
    its extremes at critical points, and _critical_points returns every one
    of them (a flat circle has none and is read at t = 0).  window defaults
    to max(4, 2 + sum of wiggle coefficient magnitudes), which holds the
    branches nearest zero.
    """
    if window is None:
        window = graph.default_window()
    if window <= 0:
        raise ValidationError(f"window must be positive, got {window}")
    if graph.p != 0:
        return [LiftComponent(graph, r) for r in range(abs(graph.p))]
    ts = _critical_points(graph)
    ys = graph.height(ts if len(ts) else np.zeros(1))
    ymin, ymax = float(np.min(ys)), float(np.max(ys))
    lo = math.ceil(-window - ymax - 1e-12)
    hi = math.floor(window - ymin + 1e-12)
    return [LiftComponent(graph, r) for r in range(lo, hi + 1)]


def _refine_roots(f, fprime, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Roots of f in the brackets [lo, hi], all brackets at once, by
    safeguarded Newton from the midpoint.  Each step evaluates f and f' at
    the iterate x, moves the end of the bracket whose sign f(x) has to x,
    and goes to the Newton point if it is finite and inside the bracket,
    to the bracket's midpoint otherwise.  A bracket stops after the first
    step below ROOT_TOL and returns the point that step reached; it stops
    moving from then on, so it takes exactly the steps it would take if
    refined on its own."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    # lo only moves to points where f has its sign, so that sign is fixed;
    # an iterate with f == 0 closes the bracket on itself
    sign_at_lo = np.where(f(lo) < 0, -1.0, 1.0)
    x = 0.5 * (lo + hi)
    live = np.ones(len(x), dtype=bool)
    for _ in range(200):
        if not np.count_nonzero(live):
            break
        fx = f(x)
        side = fx * sign_at_lo
        lo = np.where(live & (side >= 0), x, lo)
        hi = np.where(live & (side <= 0), x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - fx / fprime(x)
        # x is now an end of the bracket, so no step inside it exceeds its width
        nxt = np.where(np.isfinite(newton) & (lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
        converged = np.abs(nxt - x) < ROOT_TOL
        x = np.where(live, nxt, x)
        live &= ~converged
    return x


def _critical_points(graph: LagrangianGraph) -> np.ndarray:
    """Sorted knots in [0, q) that include every critical point of Y.

    Y' has period q, so with z = exp(2 pi i t / q) it is the Laurent
    polynomial sum of c_m z^m over |m| <= M: c_0 = p/q, c_m = (A_m - i B_m)/2
    and c_-m = conj(c_m), with A and B the cos and sin coefficients of W'.
    Its zeros are the unit-circle roots of z^M Y', found as the eigenvalues
    of the companion matrix (np.roots), which is backward stable.  The
    coefficients are scaled by a power of two, so a subnormal wiggle does
    not overflow the companion matrix, and top harmonics below rounding are
    dropped, so a negligible leading term does not scatter the other roots.
    Every root's angle is a knot, with no band around |z| = 1: rounding
    pushes a multiple zero off the circle, and an extra knot only splits a
    monotone piece, where a missing one could hide a pair of crossings.
    """
    q = graph.q
    on_cos, on_sin = graph._table[1].tolist()
    scale = -math.frexp(max(map(abs, [graph.p / q, *on_cos, *on_sin])))[1]
    coeffs = [complex(math.ldexp(graph.p / q, scale))] + [0j] * max((h.m for h in graph.wiggle), default=0)
    for h, a, b in zip(graph.wiggle, on_cos, on_sin):
        coeffs[h.m] += complex(math.ldexp(a, scale), -math.ldexp(b, scale)) / 2
    cutoff = sys.float_info.epsilon * max(map(abs, coeffs))
    while len(coeffs) > 1 and abs(coeffs[-1]) <= cutoff:
        coeffs.pop()
    if len(coeffs) == 1:
        return np.empty(0)
    z = np.roots(coeffs[::-1] + [c.conjugate() for c in coeffs[1:]])
    t = np.angle(z) * (q / TWO_PI) % q
    return np.sort(np.where(t < q, t, 0.0))  # an angle just below 0 can round up to q


def _crossing_scan(graph: LagrangianGraph, comps) -> list[list[IntersectionPoint]]:
    """The crossings of the given lift components of graph, per component
    sorted by t and classified by the sign of Y' there.

    Every crossing is a t where Y is an integer L.  On a circle it is
    component -L's crossing at t.  On a line Y(t + q k) = Y(t) + p k, so a
    level L crossed at t in [0, q] is component r = -L mod |p|'s crossing at
    t + q (-r - L) / p.  One period therefore holds every crossing of every
    component once, and no evaluation leaves [0, q].  Its knots are 0, the
    critical points (_critical_points) and q.  Y is monotone between two
    knots, so a piece crosses once each level L with min < L <= max of the
    floors of Y at its ends.  The floor at q is the floor at 0 plus p, never
    a rounded floor of Y(q), so a crossing on the seam counts once.  One
    safeguarded Newton sweep (_refine_roots) on Y - L refines the crossings
    of all levels at once.

    Raises TransversalityError when a root is tangential: either |Y'| at a
    located root is at most TRANSVERSALITY_TOL, or a branch sits on the
    zero section at a knot where |Y'| is at most TRANSVERSALITY_TOL (an
    even-order touch that bracketing alone would miss).  Raises
    NumericsError if two consecutive crossings share a sign, which only a
    missed knot can cause.  Both name the component and the t on it,
    unwrapped on a line.
    """
    q, p = graph.q, graph.p
    index = {comp.shift: k for k, comp in enumerate(comps)}

    def owner(level: int):
        """The component that crosses at level, as its index in comps (None
        if it is not scanned), and the multiple of q that carries [0, q]
        onto that crossing."""
        r = -level % abs(p) if p else -level
        return index.get(r), ((-r - level) // p if p else 0)

    # a root pair z, 1/conj(z) of z^M Y' off the unit circle gives two knots
    # a few ulps apart, and rounding noise in Y can put a crossing on both
    # sides of that sliver: keep the first knot of any run within ROOT_TOL,
    # so a pair straddling the seam merges into 0 and into the knot that
    # ends the period
    knots = np.concatenate([[0.0], _critical_points(graph), [float(q)]])
    knots = knots[np.diff(knots, prepend=-math.inf) > ROOT_TOL]
    heights = graph.height(knots[:-1]).tolist()
    ts = knots.tolist()

    # a knot that is no critical point (|Y'| above the tolerance) may sit on
    # the zero section: that is a crossing, which the root sweep checks; a
    # flat circle has only t = 0, and every point of it is critical
    touches = []
    for t, y in zip(ts, heights):
        if abs(y - round(y)) <= TANGENCY_HEIGHT_TOL:
            k, turns = owner(round(y))
            flat = abs(graph.slope(t))
            if k is not None and flat <= TRANSVERSALITY_TOL:
                touches.append((k, t + q * turns, flat))
    if touches:
        k, t, flat = min(touches)
        raise TransversalityError(
            f"component {comps[k].label}: tangential contact with the zero "
            f"section near t = {t:.6g}, where |Y'| = {flat:.3g}"
        )

    floors = [math.floor(y) for y in heights]
    floors.append(floors[0] + p)
    brackets = []  # (component index, multiple of q, piece ends, level) per crossing
    for lo, hi, a, b in zip(ts, ts[1:], floors, floors[1:]):
        for level in range(min(a, b) + 1, max(a, b) + 1):
            k, turns = owner(level)
            if k is not None:
                brackets.append((k, turns, lo, hi, level))
    owners, turns, lo, hi, levels = np.array(brackets, dtype=float).reshape(-1, 5).T
    roots = _refine_roots(lambda t: graph.height(t) - levels, graph.slope, lo, hi)
    if not p:
        # a root at the seam can refine to either side of t = q; snap to 0
        roots[q - roots <= 1e-8] = 0.0
    found = sorted(zip(owners.astype(int).tolist(), (roots + q * turns).tolist(), graph.slope(roots).tolist()))
    for k, t, d in found:
        if abs(d) <= TRANSVERSALITY_TOL:
            raise TransversalityError(
                f"component {comps[k].label}: crossing at t = {t:.6g} has "
                f"|Y'| = {abs(d):.3g} <= {TRANSVERSALITY_TOL:g}"
            )

    crossings: list[list[IntersectionPoint]] = [[] for _ in comps]
    for k, t, d in found:
        crossings[k].append(IntersectionPoint(comps[k], t, +1 if d > 0 else -1))
    for points in crossings:
        # on a circle the last crossing is also followed by the first
        following = points[1:] + points[:1] if not p else points[1:]
        for prev, cur in zip(points, following):
            if prev.sign == cur.sign:
                raise NumericsError(
                    f"component {prev.component.label}: consecutive crossings at "
                    f"t = {prev.t0:.6g}, {cur.t0:.6g} have equal sign; the scan "
                    "missed a critical point"
                )
    return crossings


def zero_crossings(comp: LiftComponent) -> list[IntersectionPoint]:
    """All roots of the branch function on one component, sorted by t; the
    one-component case of the object-level scan."""
    return _crossing_scan(comp.parent, [comp])[0]


def signed_crossing_count(graph: LagrangianGraph) -> int:
    """Sum over components of (#positive - #negative) crossings; equals p."""
    return sum(pt.sign for points in _crossing_scan(graph, lift_components(graph)) for pt in points)


def _signed_area(comp: LiftComponent, t_from, t_to):
    """-integral of the branch height from t_from to t_to (signed), for a
    scalar pair of ends (a float) or for arrays of ends (an array).

    Closed form about each pair's midpoint m and half-width d: the linear
    part integrates to 2d((p/q) m + c + shift), and each harmonic
    a cos(omega t) + b sin(omega t) to (2 sin(omega d) / omega) times its
    value at m.  This is a separate formula from the vertex form that
    localsys.twist_exponent takes, so the Floer route's areas and the
    boundary route's twists stay independent; like that form it has no
    cancellation far from t = 0, where a difference of primitives carries
    rounding of about eps |G(t)|."""
    g = comp.parent
    t_from, t_to = np.asarray(t_from, dtype=float), np.asarray(t_to, dtype=float)
    half = 0.5 * (t_to - t_from)
    mid, cos, sin = g._phases(0.5 * (t_to + t_from))
    a, b = g._table[0]
    spread = np.sin(np.multiply.outer(g._omega, half.ravel())) / g._omega[:, None]
    wiggle = (a @ (cos * spread) + b @ (sin * spread)).reshape(mid.shape)
    area = -2.0 * (half * ((g.p / g.q) * mid + g.c + comp.shift) + wiggle)
    return area if area.shape else float(area)


def simple_arcs(points: list[IntersectionPoint]) -> list[SimpleArc]:
    """Arcs between adjacent (positive, negative) crossing pairs, their
    areas taken in one closed-form _signed_area call.

    points must all lie on one component and be sorted by t.  On circles the
    wrap-around pair (last point, first point + q) is included, so a circle
    with crossings [P, N] yields the two complementary arcs.
    """
    if not points:
        return []
    comp = points[0].component
    if any(pt.component != comp for pt in points):
        raise ValidationError("simple_arcs expects crossings of a single component")

    pairs = list(zip(points, points[1:], [p.t0 for p in points[1:]]))
    if comp.kind == CIRCLE and len(points) >= 2:
        pairs.append((points[-1], points[0], points[0].t0 + comp.parent.q))

    ends = []  # (plus, minus, t_plus, t_minus) per arc
    for left, right, t_right in pairs:
        if left.sign == right.sign:
            # the crossings of a continuous branch alternate in sign
            raise ValidationError(
                f"component {comp.label}: adjacent crossings at t = {left.t0:.6g} and "
                f"{right.t0:.6g} share sign {left.sign:+d}"
            )
        ends.append((left, right, left.t0, t_right) if left.is_positive else (right, left, t_right, left.t0))
    if not ends:
        return []
    areas = _signed_area(comp, [e[2] for e in ends], [e[3] for e in ends])
    return [
        SimpleArc(plus, minus, t_plus, t_minus, +1 if t_minus > t_plus else -1, area)
        for (plus, minus, t_plus, t_minus), area in zip(ends, areas.tolist())
    ]


@dataclass(frozen=True)
class ObjectGeometry:
    """The crossing geometry of one curve, computed once and read by every
    route: the lift components in shift order, each component's crossings
    sorted by t, and the simple arcs of all components with their areas."""

    components: tuple[LiftComponent, ...]
    crossings: tuple[tuple[IntersectionPoint, ...], ...]
    arcs: tuple[SimpleArc, ...]

    @property
    def positives(self) -> tuple[IntersectionPoint, ...]:
        return tuple(pt for points in self.crossings for pt in points if pt.is_positive)

    @property
    def negatives(self) -> tuple[IntersectionPoint, ...]:
        return tuple(pt for points in self.crossings for pt in points if not pt.is_positive)


def object_geometry(graph: LagrangianGraph) -> ObjectGeometry:
    """Scan all lift components in the default window in one object-level
    scan and integrate every simple arc once."""
    components = tuple(lift_components(graph))
    crossings = tuple(tuple(points) for points in _crossing_scan(graph, components))
    arcs = tuple(arc for points in crossings for arc in simple_arcs(points))
    return ObjectGeometry(components, crossings, arcs)
