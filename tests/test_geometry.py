import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.integrate import quad
from scipy.optimize import brentq

from torusmirror import geometry
from torusmirror.errors import NumericsError, TransversalityError, ValidationError
from torusmirror.geometry import (
    CIRCLE,
    LINE,
    ROOT_TOL,
    TANGENCY_HEIGHT_TOL,
    TRANSVERSALITY_TOL,
    IntersectionPoint,
    LagrangianGraph,
    _critical_points,
    _refine_roots,
    _signed_area,
    lift_components,
    object_geometry,
    signed_crossing_count,
    simple_arcs,
    zero_crossings,
)

from conftest import make_graph

# Oracle values frozen from an independent brentq/quad run; see the matching
# inline recomputation in test_wiggle_roots_match_brentq.
WIGGLE_ROOTS = (-0.8682422241207584, -0.5, -0.13175777587924167)
WIGGLE_AREA = -0.06560684051385314


def line_range(comp):
    """A range of t that holds every crossing of a line component: where the
    linear part of its height is within the wiggle bound of zero, padded by q
    on both sides."""
    g = comp.parent
    a = g.q / g.p
    ends = (a * (-g.wiggle_bound() - g.c - comp.shift), a * (g.wiggle_bound() - g.c - comp.shift))
    return min(ends) - g.q, max(ends) + g.q


def test_graph_validation():
    with pytest.raises(ValidationError):
        make_graph(p=2, q=4)
    with pytest.raises(ValidationError):
        make_graph(q=0)
    with pytest.raises(ValidationError):
        make_graph(wiggle=[(0, 1.0, 0.0)])
    make_graph(p=0, q=4)  # p=0 puts no gcd condition on q


def test_height_periodicity():
    g = make_graph(p=3, q=2, c=0.7, wiggle=[(1, 0.2, -0.1), (3, 0.0, 0.05)])
    for t in (-1.3, 0.0, 0.41, 5.0):
        assert g.height(t + g.q) == pytest.approx(g.height(t) + g.p, abs=1e-12)
        assert g.slope(t + g.q) == pytest.approx(g.slope(t), abs=1e-12)


def test_height_primitive_is_exact():
    g = make_graph(p=3, q=2, c=-0.4, wiggle=[(1, 0.3, 0.1), (2, -0.2, 0.0)])
    assert g.height_primitive(0.0) == 0.0
    for a, b in [(-0.7, 1.3), (0.0, 2.0), (2.0, 0.25)]:
        val, _ = quad(g.height, a, b, epsabs=1e-13, epsrel=1e-13)
        assert g.height_primitive(b) - g.height_primitive(a) == pytest.approx(val, abs=1e-11)
    # integral of the wiggle over a full period vanishes exactly
    assert g.height_primitive(g.q) == pytest.approx(g.p * g.q / 2 + g.c * g.q, abs=1e-14)


def per_harmonic_reference(g, t):
    """Y, Y' and the primitive by one loop per harmonic, each with the sum of
    its terms' magnitudes, the scale of any reordered sum's rounding."""
    t = np.asarray(t, dtype=float)
    slope = g.p / g.q
    values = [slope * t + g.c, np.full_like(t, slope), 0.5 * slope * t * t + g.c * t]
    scales = [np.abs(v) for v in values]
    for h in g.wiggle:
        w = 2 * math.pi * h.m / g.q
        cos, sin = np.cos(w * t), np.sin(w * t)
        terms = [
            (h.a * cos, h.b * sin),
            (-w * h.a * sin, w * h.b * cos),
            (h.a * sin / w, h.b * (1.0 - cos) / w),
        ]
        for k, (u, v) in enumerate(terms):
            values[k] = values[k] + u + v
            scales[k] = scales[k] + np.abs(u) + np.abs(v)
    return values, scales


def curvature(g, t):
    """Y''(t), by one term per harmonic."""
    out = 0.0
    for h in g.wiggle:
        w = 2 * math.pi * h.m / g.q
        out = out - w * w * (h.a * np.cos(w * t) + h.b * np.sin(w * t))
    return out


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(1, 5),
    p=st.integers(-6, 6),
    c=st.floats(-2.0, 2.0),
    harmonics=st.lists(st.tuples(st.integers(1, 30), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), max_size=6),
    scalar=st.floats(-50.0, 50.0),
    line=arrays(np.float64, st.integers(1, 40), elements=st.floats(-50.0, 50.0)),
    block=arrays(np.float64, array_shapes(min_dims=3, max_dims=3, max_side=4), elements=st.floats(-50.0, 50.0)),
)
def test_harmonic_table_matches_per_harmonic_sums(q, p, c, harmonics, scalar, line, block):
    assume(p == 0 or math.gcd(p, q) == 1)
    g = make_graph(p=p, q=q, c=c, wiggle=harmonics)
    methods = (g.height, g.slope, g.height_primitive)
    for t in (scalar, line, block):
        values, scales = per_harmonic_reference(g, t)
        for method, want, scale in zip(methods, values, scales):
            got = method(t)
            if np.ndim(t):
                assert got.shape == np.shape(t)
            else:
                assert type(got) is float
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + scale))


def test_line_components_single_winding():
    g = make_graph(p=1, q=1)
    comps = lift_components(g, window=5.0)
    assert len(comps) == 1
    assert comps[0].kind == LINE
    assert comps[0].height(0.7) == pytest.approx(0.7)


def test_line_components_count_equals_winding():
    for p in (2, 3, -2):
        g = make_graph(p=p, q=1 if abs(p) != 2 else 3)
        comps = lift_components(g)
        assert len(comps) == abs(p)
        assert sorted(c.shift for c in comps) == list(range(abs(p)))


def test_circle_components_in_window():
    g = make_graph(p=0, q=1, c=0.3)
    comps = lift_components(g, window=2.0)
    # branches c + k with |0.3 + k| <= 2: k = -2..1
    assert [c.shift for c in comps] == [-2, -1, 0, 1]
    assert all(c.kind == CIRCLE for c in comps)
    assert all(abs(c.height(0.0)) <= 2.0 for c in comps)


def test_circle_default_window_covers_offset():
    g = make_graph(p=0, q=1, c=7.25)
    comps = lift_components(g)
    assert any(c.shift == -7 for c in comps)  # nearest branch present


def test_circle_band_reads_the_exact_extremes():
    # Y = c + cos(2 pi (t - 1/2048)) peaks at c + 1 midway between two of 1024
    # equispaced samples, which read 4.7e-6 lower; the branch of shift -5 peaks
    # at -3.999998, inside the default window 4, so it is a component
    phase = 2 * math.pi / 2048
    g = make_graph(p=0, q=1, c=2e-6, wiggle=[(1, math.cos(phase), math.sin(phase))])
    shifts = [comp.shift for comp in lift_components(g)]
    assert shifts == list(range(-5, 5))
    assert max(lift_components(g)[0].height(np.linspace(0.0, 1.0, 8193))) >= -4.0


def test_no_crossings_on_offset_circle():
    g = make_graph(p=0, q=1, c=0.3)
    for comp in lift_components(g, window=2.0):
        assert zero_crossings(comp) == []


def test_circle_root_just_below_the_seam_reads_zero():
    # Y = c + sin(2 pi t) / 2 has its upward root at t = 1 - 1e-10, within 1e-8 of q
    g = make_graph(p=0, q=1, c=0.5 * math.sin(2 * math.pi * 1e-10), wiggle=[(1, 0.0, 0.5)])
    geo = object_geometry(g)
    points = geo.crossings[[comp.shift for comp in geo.components].index(0)]
    assert [(pt.t0, pt.sign) for pt in points] == [(0.0, 1), (pytest.approx(0.5 + 1e-10, abs=1e-12), -1)]


def test_crossing_on_a_double_knot_is_found_once():
    # Y' = -1 + W' never vanishes, but z^M Y' has two root pairs z, 1/conj(z)
    # off the unit circle, at angles 0.25 and 0.75 of a turn, so each is a
    # knot twice, a few ulps apart.  The one crossing sits at t = 0.25, where
    # Y is rounding noise: -1.5e-17 and +2.1e-18 at the two knots
    g = make_graph(p=-1, q=1, c=0.25, wiggle=[(1, -0.095703125, 0.0), (2, 0.0, -0.02734375)])
    knots = _critical_points(g)
    assert np.count_nonzero(np.abs(knots - 0.25) < 1e-15) == 2
    (points,) = object_geometry(g).crossings
    assert [(pt.t0, pt.sign) for pt in points] == [(pytest.approx(0.25, abs=1e-12), -1)]
    assert signed_crossing_count(g) == -1


def test_crossing_on_a_double_knot_at_the_seam_is_found_once():
    # the curve above moved a quarter period to the left: the double knot
    # and the one crossing now sit at t = 0, where the period [0, q] wraps
    g = make_graph(p=-1, q=1, c=0.0, wiggle=[(1, 0.0, 0.095703125), (2, 0.0, 0.02734375)])
    (points,) = object_geometry(g).crossings
    assert [(pt.t0, pt.sign) for pt in points] == [(pytest.approx(0.0, abs=1e-12), -1)]
    assert signed_crossing_count(g) == -1


def test_straight_line_single_crossing():
    g = make_graph(p=1, q=1, c=0.25)
    (comp,) = lift_components(g)
    pts = zero_crossings(comp)
    assert len(pts) == 1
    assert pts[0].t0 == pytest.approx(-0.25, abs=1e-12)
    assert pts[0].sign == +1


def test_line_crossing_on_the_seam_counts_once():
    # Y(0) = c is just below 0 while Y(1) = 1 + c rounds to 1: a floor of
    # the rounded Y(q) would count level 1 at t = 1 as well as level 0 at
    # t = 0, the same crossing twice
    g = make_graph(p=1, q=1, c=-2.6e-112)
    (points,) = object_geometry(g).crossings
    assert [(pt.t0, pt.sign) for pt in points] == [(pytest.approx(0.0, abs=1e-12), 1)]


def test_wiggle_roots_match_brentq(wiggle_scene):
    (comp,) = lift_components(wiggle_scene)
    pts = zero_crossings(comp)
    assert [p.sign for p in pts] == [+1, -1, +1]
    # independent root finder on the same sign changes
    f = comp.height
    grid = np.linspace(-1.5, 0.5, 4001)
    v = f(grid)
    oracle = [
        brentq(f, grid[i], grid[i + 1], xtol=1e-14)
        for i in range(len(grid) - 1)
        if (v[i] < 0) != (v[i + 1] < 0)
    ]
    assert len(oracle) == 3
    for got, want, frozen in zip(pts, oracle, WIGGLE_ROOTS):
        assert got.t0 == pytest.approx(want, abs=1e-10)
        assert got.t0 == pytest.approx(frozen, abs=1e-10)


def test_wiggle_arcs_and_areas(wiggle_scene):
    (comp,) = lift_components(wiggle_scene)
    pts = zero_crossings(comp)
    arcs = simple_arcs(pts)
    assert len(arcs) == 2
    first, second = arcs
    assert first.direction == +1 and second.direction == -1
    assert first.minus is second.minus  # both feed the single negative point
    assert first.area == pytest.approx(WIGGLE_AREA, abs=1e-11)
    assert second.area == pytest.approx(WIGGLE_AREA, abs=1e-11)  # symmetric scene


def test_simple_arcs_refuses_equal_sign_neighbours(wiggle_scene):
    (comp,) = lift_components(wiggle_scene)
    pts = [IntersectionPoint(comp, -0.9, +1), IntersectionPoint(comp, -0.1, +1)]
    with pytest.raises(ValidationError, match=r"t = -0\.9 and -0\.1 share sign \+1"):
        simple_arcs(pts)


def test_sin_hump_area():
    g = make_graph(p=0, q=1, c=0.0, wiggle=[(1, 0.0, 1.0)])
    (comp,) = [c for c in lift_components(g, window=1.5) if c.shift == 0]
    pts = zero_crossings(comp)
    plus = [p for p in pts if p.is_positive][0]
    minus = [p for p in pts if not p.is_positive][0]
    assert plus.t0 == pytest.approx(0.0, abs=1e-12)
    assert minus.t0 == pytest.approx(0.5, abs=1e-12)
    arcs = simple_arcs(pts)
    up = [a for a in arcs if a.direction == +1][0]
    assert up.area == pytest.approx(-1.0 / math.pi, abs=1e-12)
    # reversing the traversal of the same hump negates the line integral
    assert _signed_area(comp, up.t_minus, up.t_plus) == pytest.approx(1.0 / math.pi, abs=1e-12)
    # the complementary wrap-around arc sits below the axis, so it is again disc-like
    down = [a for a in arcs if a.direction == -1][0]
    assert down.t_plus == pytest.approx(1.0, abs=1e-12)  # wrap-around pair uses t0 + q
    assert down.area == pytest.approx(-1.0 / math.pi, abs=1e-12)


def test_area_additive_under_concatenation():
    g = make_graph(p=1, q=1, c=0.0, wiggle=[(2, 0.11, -0.07)])
    (comp,) = lift_components(g)
    val = lambda a, b: -quad(comp.height, a, b, epsabs=1e-13, epsrel=1e-13)[0]
    assert val(-0.8, 0.9) == pytest.approx(val(-0.8, 0.2) + val(0.2, 0.9), abs=1e-12)


def test_tangential_scene_rejected():
    # Y(t) = t - 0.5 + sin(2 pi t)/(2 pi): Y(0.5) = 0 with Y'(0.5) = 0
    g = make_graph(p=1, q=1, c=-0.5, wiggle=[(1, 0.0, 1.0 / (2 * math.pi))])
    (comp,) = lift_components(g)
    with pytest.raises(TransversalityError):
        zero_crossings(comp)


def test_near_tangential_scene_rejected():
    # cubic contact: offset 1e-12 leaves |Y'| ~ 6e-8 at the root, under the threshold
    eps = 1e-12
    g = make_graph(p=1, q=1, c=-0.5 + eps, wiggle=[(1, 0.0, 1.0 / (2 * math.pi))])
    (comp,) = lift_components(g)
    with pytest.raises(TransversalityError):
        zero_crossings(comp)


@pytest.mark.parametrize("shift", [0, -1, 1])
def test_circle_touching_zero_section_rejected(shift):
    # the branch Y + shift = (1 + cos(2 pi t)) / 4 touches zero at t = 1/2 and
    # stays above it: no sign change shows the contact, only its critical value
    g = make_graph(p=0, q=1, c=0.25 - shift, wiggle=[(1, 0.25, 0.0)])
    with pytest.raises(TransversalityError, match=f"r{shift}: tangential contact"):
        object_geometry(g)


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([-3, -2, -1, 1, 2, 3]),
    c=st.floats(-1.5, 1.5),
    a1=st.floats(-0.3, 0.3),
    b1=st.floats(-0.3, 0.3),
)
def test_signed_crossing_count_is_winding(p, c, a1, b1):
    g = make_graph(p=p, q=1, c=c, wiggle=[(1, a1, b1)])
    try:
        assert signed_crossing_count(g) == p
    except TransversalityError:
        pass  # randomized scene may be degenerate; only transversal ones count


@settings(max_examples=20, deadline=None)
@given(c=st.floats(-0.9, 0.9), b1=st.floats(-0.25, 0.25))
# a subnormal wiggle: unscaled, its Laurent coefficients overflow np.roots
@example(c=0.0, b1=2.2250738585e-313)
def test_integer_shift_relabels_components(c, b1):
    g0 = make_graph(p=0, q=1, c=c, wiggle=[(1, 0.0, b1)], id="A")
    g1 = make_graph(p=0, q=1, c=c + 1.0, wiggle=[(1, 0.0, b1)], id="B")
    try:
        sig0 = sorted(
            (pt.sign, round(pt.t0, 9))
            for comp in lift_components(g0, window=3.0)
            for pt in zero_crossings(comp)
        )
        sig1 = sorted(
            (pt.sign, round(pt.t0, 9))
            for comp in lift_components(g1, window=3.0)
            for pt in zero_crossings(comp)
        )
    except TransversalityError:
        return
    assert sig0 == sig1


def test_signs_alternate_on_dense_scene():
    g = make_graph(p=1, q=3, c=0.0, wiggle=[(2, 0.6, 0.0), (5, 0.0, 0.45)])
    for comp in lift_components(g):
        signs = [p.sign for p in zero_crossings(comp)]
        assert all(a != b for a, b in zip(signs, signs[1:]))
        assert sum(signs) == 1  # each upward line carries one net positive


def _trig_polynomial_roots(g):
    """Oracle for p = 0: the roots of Y on [0, q) are the unit-circle roots of
    z^M Y with z = exp(2 pi i t / q), a polynomial of degree 2M (M the top
    harmonic order), found as companion-matrix eigenvalues by np.roots.
    Returns the roots as t values and the distance to the unit circle of the
    nearest root that is not on it."""
    top = max(h.m for h in g.wiggle)
    coeffs = np.zeros(2 * top + 1, dtype=complex)  # coeffs[k] multiplies z^k
    coeffs[top] += g.c
    for h in g.wiggle:
        coeffs[top + h.m] += 0.5 * (h.a - 1j * h.b)
        coeffs[top - h.m] += 0.5 * (h.a + 1j * h.b)
    z = np.roots(coeffs[::-1])
    off_circle = np.abs(np.abs(z) - 1.0)
    on = off_circle < 1e-9
    ts = np.sort((np.angle(z[on]) / (2 * math.pi) * g.q) % g.q)
    gap = float(np.min(off_circle[~on], initial=math.inf))
    return ts, gap


# zero or clearly nonzero, so the oracle's polynomial degree is well defined
AMPLITUDES = st.one_of(st.just(0.0), st.floats(1e-3, 0.5), st.floats(-0.5, -1e-3))


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(1, 3),
    harmonics=st.lists(
        st.tuples(st.integers(1, 3), AMPLITUDES, AMPLITUDES),
        min_size=1,
        max_size=3,
    ),
    log_eps=st.floats(-7.0, -3.0),
    touch_maximum=st.booleans(),
    r=st.sampled_from([-2, -1, 1, 2]),
)
# a root 8e-9 below q on shift -3, which the scan snaps to 0.0
@example(q=1, harmonics=[(2, 0.0, -0.5), (2, 0.0, -0.5)], log_eps=-7.0, touch_maximum=False, r=-2)
def test_circle_crossings_match_trig_polynomial_roots(q, harmonics, log_eps, touch_maximum, r):
    # Offset the curve so that the lowest (or highest) point of its branch
    # Y + r crosses the zero section by eps: two transversal roots close
    # together, which one scan bracket can hold without a sign change at its
    # ends.  Every component is read from the one object-level scan.
    flat = make_graph(p=0, q=q, c=0.0, wiggle=harmonics)
    sign = -1.0 if touch_maximum else 1.0
    ts = np.linspace(0.0, q, 1 << 14, endpoint=False)
    t = float(ts[np.argmin(sign * flat.height(ts))])
    for _ in range(6):  # Newton on Y' sharpens the sampled extremum
        second = curvature(flat, t)
        if second == 0.0:
            break
        t -= flat.slope(t) / second
    c = -flat.height(t) - sign * 10.0**log_eps
    g = make_graph(p=0, q=q, c=c - r, wiggle=harmonics)
    oracle = {
        comp.shift: _trig_polynomial_roots(make_graph(p=0, q=q, c=g.c + comp.shift, wiggle=harmonics))
        for comp in lift_components(g)
    }
    assume(all(gap > 1e-4 for _, gap in oracle.values()))  # no oracle root near the circle undecided
    assume(sum(len(want) > 0 for want, _ in oracle.values()) >= 2)  # shifts meet in one sweep
    try:
        geo = object_geometry(g)
    except TransversalityError:
        return  # tangential or nearly so; only transversal scenes count
    assert len(oracle[r][0]) >= 2
    for comp, points in zip(geo.components, geo.crossings):
        want, _ = oracle[comp.shift]
        got = sorted(pt.t0 for pt in points)
        assert len(got) == len(want)
        if got:
            # pair cyclically: the scan's first root may be a root just below
            # q that it snapped to 0.0, which sorts last in the oracle list
            gaps = np.abs(got[0] - want)
            want = np.roll(want, -int(np.argmin(np.minimum(gaps, q - gaps))))
        for a, b in zip(got, want):
            assert min(abs(a - b), q - abs(a - b)) <= 1e-8


HARMONIC = st.tuples(st.integers(1, 4), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4))


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([-3, -2, -1, 1, 2, 3]),
    q=st.integers(1, 3),
    c=st.floats(-1.0, 1.0),
    harmonics=st.lists(HARMONIC, min_size=1, max_size=4),
)
# a top harmonic far below rounding: untrimmed, it scatters the other
# critical points and 2 of the 3 crossings on shift 0 are lost
@example(p=-3, q=1, c=0.0, harmonics=[(2, 0.0, 0.25), (3, 0.0, 3.43e-165)])
def test_line_crossings_match_dense_sampling(p, q, c, harmonics):
    assume(math.gcd(p, q) == 1)
    g = make_graph(p=p, q=q, c=c, wiggle=harmonics)
    samples = []
    for comp in lift_components(g):
        lo, hi = line_range(comp)
        ts = np.linspace(lo, hi, 200_001)
        ys = comp.height(ts)
        # a sampled extremum this far from zero rules out two roots hiding
        # in one sample step: that needs a dip of at most sup|Y''| h^2 / 8
        dy = np.diff(ys)
        extrema = np.flatnonzero((dy[:-1] < 0) != (dy[1:] < 0)) + 1
        assume(np.all(np.abs(ys[extrema]) > 1e-5))
        samples.append((ts, ys))
    try:
        geo = object_geometry(g)  # every component in one scan, as verify reads it
    except TransversalityError:
        return  # tangential or nearly so; only transversal scenes count
    assert len(geo.crossings) == len(samples)
    for comp, got, (ts, ys) in zip(geo.components, geo.crossings, samples):
        change = np.flatnonzero((ys[:-1] < 0) != (ys[1:] < 0))
        want = [brentq(comp.height, ts[i], ts[i + 1], xtol=1e-14) for i in change]
        assert len(got) == len(want)
        assert [pt.sign for pt in got] == [1 if ys[i] < 0 else -1 for i in change]
        for pt, t0 in zip(got, want):
            assert abs(pt.t0 - t0) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([-3, -2, -1, 1, 2, 3]),
    q=st.integers(1, 3),
    c=st.floats(-1.0, 1.0),
    harmonics=st.lists(HARMONIC, max_size=4),
)
def test_raising_c_by_p_moves_every_crossing_by_minus_q(p, q, c, harmonics):
    # Y + p is Y one period later, so every component keeps its crossings,
    # each moved by -q with its sign: the deck shift.  A wrong unwrap breaks
    # it, and a wrong map from the level crossed to the component puts a
    # crossing off its component.
    assume(math.gcd(p, q) == 1)
    try:
        before = object_geometry(make_graph(p=p, q=q, c=c, wiggle=harmonics))
        after = object_geometry(make_graph(p=p, q=q, c=c + p, wiggle=harmonics))
    except TransversalityError:
        return  # tangential or nearly so; only transversal scenes count
    assert [comp.shift for comp in after.components] == [comp.shift for comp in before.components]
    for old, new in zip(before.crossings, after.crossings):
        assert all(abs(pt.component.height(pt.t0)) <= 1e-9 for pt in old + new)
        assert [pt.sign for pt in new] == [pt.sign for pt in old]
        assert [pt.t0 for pt in new] == pytest.approx([pt.t0 - q for pt in old], abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(-3, 3),
    q=st.integers(1, 3),
    harmonics=st.lists(st.tuples(st.integers(1, 9), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)), min_size=1, max_size=4),
)
# unscaled, 2 pi 5e-324 cos(2 pi t) rounds to multiples of 5e-324 and its
# sampled sign change lands at t = 0.263, not at the critical point 1/4
@example(p=0, q=1, harmonics=[(1, 0.0, 5e-324)])
# kept, the 6.4e-15 top harmonic scattered the other knots by up to 9e-7
@example(p=0, q=1, harmonics=[(1, 0, 0.5), (8, 0.5, 0.375), (9, 0, 6.421771762599615e-15)])
# the critical point at 0 is the knot 1 - 2^-53
@example(p=0, q=1, harmonics=[(2, 0.40625, -1.3394036499396953e-287), (3, 0.375, 0.0), (8, -0.25, 0.0)])
def test_critical_points_hold_every_sampled_slope_sign_change(p, q, harmonics):
    assume(p == 0 or math.gcd(p, q) == 1)
    g = make_graph(p=p, q=q, c=0.0, wiggle=harmonics)
    lo, hi = 0.0, float(q)
    knots = _critical_points(g)
    assert np.all(np.diff(knots) >= 0)
    assert np.all((lo <= knots) & (knots < hi))
    # a knot at 0 also ends the period, and one just below q also starts it
    knots = np.concatenate([knots - q, knots, knots + q])
    # every bracket of a dense sample across which Y' changes sign holds a
    # knot; Y' is sampled from its coefficients scaled by _critical_points'
    # power of two, which moves no sign and keeps subnormal products exact
    ts = np.linspace(lo, hi, 100_001)
    on_cos, on_sin = g._table[1]
    scale = -math.frexp(max(map(abs, [p / q, *on_cos, *on_sin])))[1]
    phases = np.multiply.outer(g._omega, ts)
    slopes = math.ldexp(p / q, scale) + np.ldexp(on_cos, scale) @ np.cos(phases) + np.ldexp(on_sin, scale) @ np.sin(phases)
    change = np.flatnonzero((slopes[:-1] < 0) != (slopes[1:] < 0))
    tol = 1e-7
    first = np.searchsorted(knots, ts[change] - tol)
    assert np.all(first < len(knots))
    assert np.all(knots[np.minimum(first, len(knots) - 1)] <= ts[change + 1] + tol)


def test_crossing_on_a_knot_off_the_unit_circle():
    # Y' = 1 + 2 pi a cos(2 pi t) with 2 pi a < 1 has no zero, but its two
    # negative real roots z give knots at t = 1/2, where Y = t - 1/2 + a sin(2 pi t)
    # crosses with slope 1 - 2 pi a: a transversal crossing, not a tangency
    g = make_graph(p=1, q=1, c=-0.5, wiggle=[(1, 0.0, 0.1)])
    assert np.min(np.abs(_critical_points(g) - 0.5)) <= 1e-15
    assert abs(g.height(0.5)) <= TANGENCY_HEIGHT_TOL
    (points,) = object_geometry(g).crossings
    assert [(pt.t0, pt.sign) for pt in points] == [(pytest.approx(0.5, abs=1e-15), 1)]


# Y = t + c + b sin(18 pi t) with Y' = 1 + (1 + eps) cos(18 pi t): nine dips per
# period, each between a maximum and a minimum of Y about 5e-4 apart: a
# sampling of Y' at spacing q/640 can hold both in one step and miss them
DIP_EPS = 1e-4
DIP_B = (1 + DIP_EPS) / (18 * math.pi)


@pytest.mark.parametrize("k", range(9))
def test_two_close_critical_points_keep_their_three_crossings(k):
    # the extrema of dip k in closed form: cos(18 pi t) = -1 / (1 + eps)
    alpha = math.acos(1 / (1 + DIP_EPS))
    t_max, t_min = ((math.pi + s * alpha + 2 * math.pi * k) / (18 * math.pi) for s in (-1, 1))
    h_max, h_min = t_max + DIP_B * math.sin(alpha), t_min - DIP_B * math.sin(alpha)
    # c midway between the extreme values: Y(t_max) = -Y(t_min), about 1.7e-8
    g = make_graph(p=1, q=1, c=-0.5 * (h_max + h_min), wiggle=[(9, 0.0, DIP_B)])
    assert g.height(t_max) > 10 * TANGENCY_HEIGHT_TOL and g.height(t_min) < -10 * TANGENCY_HEIGHT_TOL
    (points,) = object_geometry(g).crossings
    assert [pt.sign for pt in points] == [1, -1, 1]
    reach = 0.05  # Y + shift stays away from 0 beyond the dip's neighbourhood
    want = [brentq(g.height, a, b, xtol=1e-15) for a, b in ((t_max - reach, t_max), (t_max, t_min), (t_min, t_min + reach))]
    assert [pt.t0 for pt in points] == pytest.approx(want, abs=1e-9)
    assert all(abs(g.slope(t)) > TRANSVERSALITY_TOL for t in want)


@pytest.mark.parametrize("delta", [1e-8, 1e-6, 1e-3, 0.1])
@pytest.mark.parametrize("at_maximum", [False, True])
def test_triple_critical_point_misses_no_crossing(delta, at_maximum):
    # Y' = sin^3(2 pi t) has triple zeros at t = 0 (a minimum of Y) and 1/2 (a
    # maximum): Y = c - (3u - u^3) / (6 pi) with u = cos(2 pi t), whose
    # harmonics are -3 cos(2 pi t) / (8 pi) + cos(6 pi t) / (24 pi)
    wiggle = [(1, -3 / (8 * math.pi), 0.0), (3, 1 / (24 * math.pi), 0.0)]
    extreme = 1 / (3 * math.pi)  # |W| at the two critical points
    c = -extreme + delta if at_maximum else extreme - delta
    g = make_graph(p=0, q=1, c=c, wiggle=wiggle)
    assert g.slope(0.3) == pytest.approx(math.sin(0.6 * math.pi) ** 3, abs=1e-14)
    geo = object_geometry(g)
    points = geo.crossings[[comp.shift for comp in geo.components].index(0)]
    # Y is monotone on either half period and changes sign on both
    want = [brentq(g.height, 0.0, 0.5, xtol=1e-15), brentq(g.height, 0.5, 1.0, xtol=1e-15)]
    assert [pt.t0 for pt in points] == pytest.approx(want, abs=1e-9)
    assert [pt.sign for pt in points] == [1, -1]  # Y rises on (0, 1/2)
    assert sum(len(pts) for pts in geo.crossings) == 2


def scalar_refine_root(f, fprime, lo, hi):
    """One bracket at a time: the reference the batched sweep must match."""
    sign_at_lo = -1.0 if f(lo) < 0 else 1.0
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = f(x)
        if fx * sign_at_lo >= 0:
            lo = x
        if fx * sign_at_lo <= 0:
            hi = x
        d = fprime(x)
        newton = x - fx / d if d != 0.0 else math.nan
        nxt = newton if math.isfinite(newton) and lo <= newton <= hi else 0.5 * (lo + hi)
        step, x = nxt - x, nxt
        if abs(step) < ROOT_TOL:
            break
    return x


def test_batched_refinement_matches_scalar_reference():
    g = make_graph(p=1, q=1, c=0.3, wiggle=[(1, 0.2, 0.5), (3, 0.1, -0.15)])
    (comp,) = lift_components(g)
    ts = np.linspace(*line_range(comp), 4001)
    for f, fprime in ((comp.height, comp.slope), (comp.slope, lambda t: curvature(g, t))):
        vals = f(ts)
        change = np.flatnonzero((vals[:-1] < 0) != (vals[1:] < 0))
        assert len(change) >= 2
        # unequal widths, so brackets converge after different numbers of steps
        lo = ts[change]
        hi = ts[change + 1] + (ts[1] - ts[0]) * 0.3 * (np.arange(len(change)) % 3)
        assert np.all((f(lo) < 0) != (f(hi) < 0))
        got = _refine_roots(f, fprime, lo, hi)
        assert got.tolist() == [scalar_refine_root(f, fprime, a, b) for a, b in zip(lo.tolist(), hi.tolist())]



def _traced(f, fprime):
    """f and fprime that record every point f is evaluated at and the raw
    Newton point wherever fprime is."""
    points, newton = [], []

    def traced_f(t):
        points.append(np.array(t, dtype=float))
        return f(t)

    def traced_fprime(t):
        d = fprime(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton.append(t - f(t) / d)
        return d

    return traced_f, traced_fprime, points, newton


def test_refinement_stays_in_wide_brackets_where_newton_overshoots():
    # arctan is flat far from its root: the first Newton points leave the bracket
    roots = np.array([17.3, -3.0, 0.1])
    lo, hi = np.array([-10.0, -50.0, -1e3]), np.array([30.0, 1.0, 1e3])
    f, fprime, points, newton = _traced(lambda t: np.arctan(t - roots), lambda t: 1.0 / (1.0 + (t - roots) ** 2))
    got = _refine_roots(f, fprime, lo, hi)
    assert any(np.any(~((lo <= raw) & (raw <= hi))) for raw in newton)
    assert all(np.all((lo <= t) & (t <= hi)) for t in points)
    assert np.all(np.abs(got - roots) <= 4 * np.spacing(np.abs(roots)))


@pytest.mark.parametrize("c", [0.3, -0.6, 0.9])
def test_refinement_on_a_piece_between_critical_points(c):
    # Y = c + u^3 + delta*u with u = cos(2 pi t): Y' = -2 pi sin(2 pi t) (3u^2 + delta),
    # so [0, 1/2] is one monotone piece between critical points, and its
    # midpoint has slope -2 pi delta: the first Newton point lies far outside
    delta = 1e-3
    g = make_graph(p=0, q=1, c=c, wiggle=[(1, 0.75 + delta, 0.0), (3, 0.25, 0.0)])
    assert g.slope(0.0) == 0.0 and abs(g.slope(0.5)) < 1e-14
    f, fprime, points, newton = _traced(g.height, g.slope)
    (got,) = _refine_roots(f, fprime, np.array([0.0]), np.array([0.5]))
    # the one real root of u^3 + delta*u + c, in its trigonometric form
    u = -2.0 * math.sqrt(delta / 3) * math.sinh(math.asinh(1.5 * c / delta * math.sqrt(3 / delta)) / 3)
    want = math.acos(u) / (2 * math.pi)
    assert any(not 0.0 <= raw[0] <= 0.5 for raw in newton)
    assert all(0.0 <= t[0] <= 0.5 for t in points)
    assert abs(got - want) <= 8 * np.spacing(want)


def test_linear_height_converges_in_three_evaluations():
    g = make_graph(p=2, q=3, c=0.4)
    comps = lift_components(g)
    shifts = np.array([comp.shift for comp in comps], dtype=float)
    lo, hi = np.array([line_range(comp) for comp in comps]).T
    calls = []
    got = _refine_roots(lambda t: calls.append(t) or g.height(t) + shifts, g.slope, lo, hi)
    assert len(calls) <= 3
    want = -(g.c + shifts) * g.q / g.p
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def test_object_scan_evaluation_count(monkeypatch):
    # bisecting every bracket to ROOT_TOL before a Newton polish took 78
    # calls of f and f' on this object; safeguarded Newton takes 22
    g = make_graph(p=1, q=2, c=0.1, wiggle=[(1, 0.3, 0.2), (2, -0.25, 0.1), (3, 0.1, 0.2), (4, 0.05, -0.12)])
    calls = []
    real = geometry._refine_roots

    def counted(f, fprime, lo, hi):
        return real(lambda t: calls.append(t) or f(t), lambda t: calls.append(t) or fprime(t), lo, hi)

    monkeypatch.setattr(geometry, "_refine_roots", counted)
    geo = object_geometry(g)
    assert [pt.sign for pt in geo.crossings[0]] == [1, -1, 1, -1, 1]
    assert len(calls) <= 30

@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(1, 3),
    c=st.floats(-1.0, 1.0),
    harmonics=st.lists(st.tuples(st.integers(1, 9), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)), max_size=4),
    t_from=st.floats(-3.0, 3.0),
    length=st.floats(-6.0, 6.0),
)
def test_area_rule_matches_exact_primitive(q, c, harmonics, t_from, length):
    comp = lift_components(make_graph(p=1, q=q, c=c, wiggle=harmonics))[0]
    t_to = t_from + length
    exact = -(comp.height_primitive(t_to) - comp.height_primitive(t_from))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _signed_area(comp, t_from, t_to)
    assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_batched_areas_match_exact_primitive():
    # pairs of many panels, one panel, reversed and empty, in one call
    comp = lift_components(make_graph(p=1, q=2, c=0.3, wiggle=[(1, 0.2, -0.1), (7, 0.05, 0.1)]))[0]
    t_from, t_to = np.array([-2.0, 0.5, 3.0, 1.0]), np.array([2.5, 0.6, -1.0, 1.0])
    exact = -(comp.height_primitive(t_to) - comp.height_primitive(t_from))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _signed_area(comp, t_from, t_to)
    assert got.shape == (4,) and got[3] == 0.0
    assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)


def exact_integral(comp, t_from, t_to):
    """The integral of comp.height from t_from to t_to, exact up to its final
    rounding: the linear part in rational arithmetic, and each harmonic
    a cos(wt) + b sin(wt) from its bounded antiderivative
    (a sin(wt) - b cos(wt)) / w at 50 digits.  It takes the float slope,
    frequencies and coefficients that comp.height evaluates."""
    g = comp.parent
    t0, t1 = Fraction(t_from), Fraction(t_to)
    linear = Fraction(g.p / g.q) * (t1 * t1 - t0 * t0) / 2 + (Fraction(g.c) + comp.shift) * (t1 - t0)
    with mpmath.workdps(50):
        total = mpmath.mpf(linear.numerator) / linear.denominator
        for w, a, b in zip(g._omega.tolist(), *g._table[0].tolist()):
            for t, sign in ((t_to, 1), (t_from, -1)):
                wt = w * mpmath.mpf(t)
                total += sign * (a * mpmath.sin(wt) - b * mpmath.cos(wt)) / w
        return float(total)


@settings(max_examples=300, deadline=None)
@given(
    q=st.integers(1, 3),
    c=st.floats(-1.0, 1.0),
    harmonics=st.lists(st.tuples(st.integers(1, 9), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)), max_size=4),
    t_from=st.floats(-1000.0, 1000.0),
    log_length=st.floats(-4.0, math.log10(6.0)),
    backwards=st.booleans(),
)
# two draws where adaptive quadrature, the oracle this test once used, was
# wrong: off by 3.2e-9 against a bound of 2.4e-11, and an IntegrationWarning
@example(q=1, c=0.0, harmonics=[(5, 0.0, 1e-8)], t_from=73.0, log_length=0.5, backwards=False)
@example(q=1, c=0.0, harmonics=[(5, 0.0, 1e-8)], t_from=67.0, log_length=0.5, backwards=False)
def test_area_matches_the_exact_integral_far_from_the_origin(q, c, harmonics, t_from, log_length, backwards):
    # the closed form against the exact integral of the height, to 1e-13 of
    # the integral's scale |Y| * |length|; a difference of height primitives
    # misses this on short arcs far from t = 0, where it carries rounding of
    # about eps * |G(t)|
    comp = lift_components(make_graph(p=1, q=q, c=c, wiggle=harmonics))[0]
    length = (-1.0 if backwards else 1.0) * 10.0**log_length
    t_to = t_from + length
    scale = abs(length) * (max(abs(t_from), abs(t_to)) / q + abs(c) + comp.parent.wiggle_bound())
    assert abs(_signed_area(comp, t_from, t_to) + exact_integral(comp, t_from, t_to)) <= 1e-13 * scale
