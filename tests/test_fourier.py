import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import torusmirror.fourier as fourier
import torusmirror.localsys as localsys
from torusmirror.errors import DecayError, NumericsError, UnsupportedError, ValidationError
from torusmirror.fourier import (
    CircleCoefficient,
    HorizontalCoefficient,
    MirrorPoint,
    SampledCoefficient,
    ThetaSection,
    bundle_invariants,
    convolve,
    dbar_residual,
    dbar_residuals,
    dual_object,
    kernel,
    poincare_holonomy,
    standard_section,
    tensor_compat_check,
    theta_eval,
    theta_eval_batch,
    unit_object,
)
from torusmirror.geometry import LiftComponent, lift_components
from torusmirror.localsys import LocalSystem, TwistedTransport, log_norm, trivial_system

from conftest import make_graph, random_unitary

CANONICAL_THETA_00 = 1.0864348112133080  # sum over k of exp(-pi k^2), frozen


def canonical_object():
    return TwistedTransport(make_graph(p=1, q=1, id="canon"), trivial_system(1))


def test_kernel_values():
    assert kernel(0.0, 0.77) == pytest.approx(1.0)
    assert kernel(1.0, 0.5) == pytest.approx(-1.0)
    assert kernel(0.25, 0.5) == pytest.approx(cmath.exp(1j * math.pi / 4))


def test_mirror_point_coordinate():
    assert MirrorPoint(t=0.3, xdual=0.1).z == pytest.approx(0.1 + 0.3j)


def test_poincare_holonomy():
    assert poincare_holonomy((0, 1), (0, 1)) == pytest.approx(1.0)
    assert poincare_holonomy((0, 1), (0, 0.5)) == pytest.approx(-1.0)
    assert poincare_holonomy((0.3, 0.3), (0, 0.9)) == pytest.approx(1.0)
    # stacking two rectangles multiplies holonomies
    a = poincare_holonomy((0, 0.4), (0.1, 0.35))
    b = poincare_holonomy((0.4, 1.1), (0.1, 0.35))
    whole = poincare_holonomy((0, 1.1), (0.1, 0.35))
    assert a * b == pytest.approx(whole, abs=1e-12)


def test_canonical_theta_value():
    sec = standard_section(canonical_object())
    values, bound = theta_eval(sec, MirrorPoint(0.0, 0.0))
    # independent truncated-summation oracle
    oracle = sum(math.exp(-math.pi * k * k) for k in range(-30, 31))
    assert values.shape == (1, 1)
    assert values[0, 0] == pytest.approx(oracle, abs=1e-12)
    assert values[0, 0] == pytest.approx(CANONICAL_THETA_00, abs=1e-9)
    assert bound < 1e-9


def test_theta_quasi_periodicity(rng):
    sec = standard_section(canonical_object())
    for _ in range(20):
        t, x = rng.uniform(0.05, 0.95, size=2)
        base = theta_eval(sec, MirrorPoint(t, x)).values[0, 0]
        shifted = theta_eval(sec, MirrorPoint(t, x + 1.0)).values[0, 0]
        assert shifted == pytest.approx(cmath.exp(2j * math.pi * t) * base, abs=1e-12)


def test_theta_base_periodicity(rng):
    sec = standard_section(canonical_object())
    for _ in range(10):
        t, x = rng.uniform(0.05, 0.95, size=2)
        assert theta_eval(sec, MirrorPoint(t + 1.0, x)).values[0, 0] == pytest.approx(
            theta_eval(sec, MirrorPoint(t, x)).values[0, 0], abs=1e-12
        )


def test_theta_truncation_bound():
    tt = TwistedTransport(make_graph(p=1, q=1, c=0.2), trivial_system(1))
    for k_depth in (3, 5, 8):
        sec = ThetaSection(tt, standard_section(tt).coefficients, K=k_depth)
        sec2 = ThetaSection(tt, sec.coefficients, K=2 * k_depth)
        pt = MirrorPoint(0.3, 0.6)
        v1, bound = theta_eval(sec, pt)
        v2, _ = theta_eval(sec2, pt)
        assert abs(v2[0, 0] - v1[0, 0]) <= bound + 1e-15


def test_dbar_residual_canonical(rng):
    sec = standard_section(canonical_object())
    for _ in range(16):
        t = rng.uniform(0.1, 0.9)
        x = rng.uniform(0.0, 1.0)
        assert dbar_residual(sec, MirrorPoint(t, x), h=1e-3) <= 1e-6


def test_dbar_seam_margin():
    sec = standard_section(canonical_object())
    with pytest.raises(Exception):
        dbar_residual(sec, MirrorPoint(1e-4, 0.3), h=1e-3)


def test_dbar_richardson_rate():
    sec = standard_section(canonical_object())
    pt = MirrorPoint(0.37, 0.61)
    r1 = dbar_residual(sec, pt, h=0.02)
    r2 = dbar_residual(sec, pt, h=0.01)
    assert r1 / r2 >= 3.5  # at least second-order convergence


def test_dbar_on_cover_and_rank2(rng):
    g = make_graph(p=1, q=2, c=0.1, wiggle=[(1, 0.05, 0.0)])
    tt = TwistedTransport(g, LocalSystem([[0.0, 1.0], [1.0, 0.3]]))
    sec = standard_section(tt)
    for _ in range(4):
        t = rng.uniform(0.1, 0.9)
        x = rng.uniform(0.0, 1.0)
        assert dbar_residual(sec, MirrorPoint(t, x), h=1e-3) <= 1e-6


def test_gauge_transform_is_holomorphic(rng):
    # g := theta * exp(pi*xdual^2) depends on z alone; plain Cauchy-Riemann
    sec = standard_section(canonical_object())

    def g(t, x):
        return theta_eval(sec, MirrorPoint(t, x)).values[0, 0] * math.exp(math.pi * x * x)

    h = 1e-3
    for _ in range(16):
        t = rng.uniform(0.1, 0.9)
        x = rng.uniform(-0.5, 0.5)
        d_x = (g(t, x - 2 * h) - 8 * g(t, x - h) + 8 * g(t, x + h) - g(t, x + 2 * h)) / (12 * h)
        d_t = (g(t - 2 * h, x) - 8 * g(t - h, x) + 8 * g(t + h, x) - g(t + 2 * h, x)) / (12 * h)
        cr = 0.5 * (d_x + 1j * d_t)
        assert abs(cr) / abs(g(t, x)) <= 1e-6


def test_zero_section_residual():
    sec = ThetaSection(canonical_object(), ())
    assert theta_eval(sec, MirrorPoint(0.3, 0.4)).values[0, 0] == 0.0
    assert dbar_residual(sec, MirrorPoint(0.3, 0.4)) == 0.0


def test_unit_object_theta_is_one():
    sec = standard_section(unit_object())
    for t, x in [(0.0, 0.0), (0.3, 0.7), (0.9, 0.2)]:
        values, bound = theta_eval(sec, MirrorPoint(t, x))
        assert values[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert bound == 0.0


def test_decay_refusals():
    down = TwistedTransport(make_graph(p=-1, q=1), trivial_system(1))
    with pytest.raises(DecayError):
        standard_section(down)
    offset_circle = make_graph(p=0, q=1, c=0.3)
    comp = [c for c in lift_components(offset_circle, 2.0) if c.shift == 0][0]
    with pytest.raises(DecayError):
        CircleCoefficient(trivial_system(1), comp, 0.0, [1.0])
    with pytest.raises(DecayError):
        HorizontalCoefficient(trivial_system(1), comp, 0.0, [1.0])


def test_bundle_invariants():
    cases = [
        ((1, 1, 1), (1, 1)),
        ((3, 2, 1), (2, 3)),
        ((-2, 1, 2), (2, -4)),
    ]
    for (p, q, n), (rank, degree) in cases:
        tt = TwistedTransport(make_graph(p=p, q=q), trivial_system(n))
        inv = bundle_invariants(tt)
        assert (inv.rank, inv.degree) == (rank, degree)
        assert inv.euler == inv.degree


def test_convolve_lines():
    a = TwistedTransport(make_graph(p=1, q=1, id="a"), trivial_system(1))
    b = TwistedTransport(make_graph(p=1, q=1, c=0.3, id="b"), trivial_system(1))
    (out,) = convolve(a, b)
    assert (out.graph.p, out.graph.q, out.graph.c) == (2, 1, 0.3)

    (cancel,) = convolve(a, dual_object(a))
    assert (cancel.graph.p, cancel.graph.c) == (0, 0.0)


def test_convolve_unit_is_identity():
    obj = TwistedTransport(
        make_graph(p=2, q=1, c=0.4, wiggle=[(1, 0.1, -0.2)], id="L"),
        LocalSystem([[0.5, 0.1], [0.0, 2.0]]),
    )
    (out,) = convolve(obj, unit_object(1))
    assert out.graph.p == obj.graph.p and out.graph.q == obj.graph.q
    assert out.graph.c == pytest.approx(obj.graph.c)
    assert out.graph.wiggle == obj.graph.wiggle
    assert np.allclose(out.system.monodromy, obj.system.monodromy)


def test_convolve_degree_additivity():
    a = TwistedTransport(make_graph(p=2, q=1, id="a"), trivial_system(2))
    b = TwistedTransport(make_graph(p=1, q=1, c=0.1, id="b"), trivial_system(3))
    (out,) = convolve(a, b)
    inv = bundle_invariants(out)
    assert inv.degree == 2 * 3 * (2 + 1)
    assert inv.rank == 6


def test_convolve_general_cover():
    a = TwistedTransport(make_graph(p=1, q=2, id="a"), LocalSystem([[2.0]]))
    b = TwistedTransport(
        make_graph(p=0, q=2, c=0.3, wiggle=[(1, 0.1, 0.04)], id="b"), LocalSystem([[3.0]])
    )
    outs = convolve(a, b)
    assert len(outs) == 2  # gcd(2, 2) orbits
    for delta, out in enumerate(outs):
        assert out.graph.q == 2 and out.graph.p == 1
        assert out.graph.c == pytest.approx(0.3)
        assert np.allclose(out.system.monodromy, [[6.0]])
        h = out.graph.wiggle[0]
        if delta == 0:
            assert (h.a, h.b) == pytest.approx((0.1, 0.04))
        else:
            # half-period shift negates the first harmonic
            assert (h.a, h.b) == pytest.approx((-0.1, -0.04))
    # degree recount through crossings
    from torusmirror.geometry import signed_crossing_count

    for out in outs:
        assert signed_crossing_count(out.graph) == out.graph.p


def test_convolve_disconnected_rejected():
    a = TwistedTransport(make_graph(p=1, q=2, id="a"), trivial_system(1))
    with pytest.raises(UnsupportedError):
        convolve(a, a)


def test_dual_object():
    obj = TwistedTransport(
        make_graph(p=2, q=1, c=0.1, wiggle=[(2, 0.3, -0.1)], id="L"), LocalSystem([[1j]])
    )
    d = dual_object(obj)
    assert (d.graph.p, d.graph.c) == (-2, -0.1)
    assert d.graph.wiggle[0].a == -0.3 and d.graph.wiggle[0].b == 0.1
    assert d.system.monodromy[0, 0] == pytest.approx(-1j)
    dd = dual_object(d)
    assert (dd.graph.p, dd.graph.q, dd.graph.c) == (obj.graph.p, obj.graph.q, obj.graph.c)
    assert dd.graph.wiggle == obj.graph.wiggle
    assert np.allclose(dd.system.monodromy, obj.system.monodromy)


def test_tensor_compat_canonical():
    a = canonical_object()
    b = TwistedTransport(make_graph(p=1, q=1, c=0.3, id="b"), trivial_system(1))
    assert tensor_compat_check(a, b, grid=(4, 4), K=30) <= 1e-8


def test_tensor_compat_unit():
    a = canonical_object()
    assert tensor_compat_check(a, unit_object(1), grid=(3, 3), K=25) <= 1e-12
    # symmetry under swapping the factors
    b = TwistedTransport(make_graph(p=1, q=1, c=0.25, id="b"), trivial_system(1))
    d1 = tensor_compat_check(a, b, grid=(3, 3), K=25)
    d2 = tensor_compat_check(b, a, grid=(3, 3), K=25)
    assert abs(d1 - d2) <= 1e-12


def test_sampled_coefficient_calls_its_function_once_on_the_whole_array():
    comp = lift_components(make_graph(p=1, q=1, c=0.3))[0]
    calls = []

    def func(s):
        calls.append(np.shape(s))
        return np.stack((np.cos(s), 1j * np.sin(s)), axis=-1)

    s = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    want = np.stack((np.cos(s), 1j * np.sin(s)), axis=-1)
    flat, twist = SampledCoefficient(comp, func, rank=2).flat_and_twist(s)
    assert calls == [(3, 4)]
    assert np.array_equal(flat, want)
    assert np.array_equal(twist, np.zeros((3, 4)))


def test_tensor_compat_builds_each_power_table_once_per_evaluation(monkeypatch):
    tables = []
    power_table = localsys._power_table

    def counted(*args):
        tables.append(np.shape(args[1]))
        return power_table(*args)

    monkeypatch.setattr(localsys, "_power_table", counted)
    tensor_compat_check(canonical_object(), canonical_object(), grid=(10, 10), K=30)
    # one table per factor's own section, on the n x C matrix of its one
    # coefficient's vector, then one per factor for each of the
    # convolution's two line coefficients, on the factor's vector
    assert len(tables) == 2 + 2 * 2
    assert tables == [(1, 1)] * 2 + [(1,)] * 4


def test_tensor_compat_unsupported_shapes():
    a = TwistedTransport(make_graph(p=1, q=2, id="a"), trivial_system(1))
    with pytest.raises(UnsupportedError):
        tensor_compat_check(a, canonical_object())
    down = TwistedTransport(make_graph(p=-1, q=1, id="d"), trivial_system(1))
    with pytest.raises(UnsupportedError):
        tensor_compat_check(down, canonical_object())


def direct_theta(tt, t, x):
    """Independent lattice sum of the standard section at (t, x): every lift
    within 40 lattice shifts of the anchor, one matrix_power per term.
    Returns the values (q, n) and the sum of the terms' magnitudes."""
    g = tt.graph
    e0 = np.zeros(tt.rank, dtype=complex)
    e0[0] = 1.0
    values = np.zeros((g.q, tt.rank), dtype=complex)
    magnitude = 0.0
    for comp, points in zip(tt.geometry.components, tt.geometry.crossings):
        anchor = next(pt.t0 for pt in points if pt.is_positive)
        for j in range(g.q):
            center = round((anchor - t - j) / g.q)
            for m in range(center - 40, center + 41):
                s = t + j + g.q * m
                k = math.floor(s / g.q) - math.floor(anchor / g.q)
                weight = math.exp(-2 * math.pi * (comp.height_primitive(s) - comp.height_primitive(anchor)))
                term = np.linalg.matrix_power(tt.system.monodromy, k) @ e0 * weight
                values[j] += term * cmath.exp(2j * math.pi * x * comp.height(s))
                magnitude += float(np.linalg.norm(term))
    return values, magnitude


@st.composite
def positive_objects(draw):
    p = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    assume(math.gcd(p, q) == 1)
    c = draw(st.floats(-1.0, 1.0))
    # |W'| <= 2*pi*0.08/q < p/q keeps the line monotone, hence transversal
    wiggle = draw(st.lists(st.tuples(st.just(1), st.floats(-0.04, 0.04), st.floats(-0.04, 0.04)), max_size=1))
    moduli = draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=2))
    phases = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=len(moduli), max_size=len(moduli)))
    mono = np.diag([r * cmath.exp(1j * a) for r, a in zip(moduli, phases)])
    if len(moduli) == 2:
        mono[0, 1] = draw(st.floats(-1.0, 1.0))  # not normal
    return TwistedTransport(make_graph(p=p, q=q, c=c, wiggle=wiggle), LocalSystem(mono))


@settings(max_examples=30, deadline=None)
@given(
    tt=positive_objects(),
    K=st.sampled_from([4, 25]),
    points=st.lists(st.tuples(st.floats(0.0, 0.999), st.floats(-1.0, 1.0)), min_size=1, max_size=4),
)
def test_theta_batch_matches_direct_lattice_sum(tt, K, points):
    sec = standard_section(tt, K)
    ts, xs = np.array(points).T
    values, bounds = theta_eval_batch(sec, ts, xs)
    assert values.shape == (len(points), tt.graph.q, tt.rank)
    for i, (t, x) in enumerate(points):
        want, magnitude = direct_theta(tt, t, x)
        assert np.max(np.abs(values[i] - want)) <= bounds[i] + 1e-12 * magnitude
    # one point alone is row 0 of the batch, bit for bit
    single = theta_eval(sec, MirrorPoint(ts[0], xs[0]))
    assert np.array_equal(single.values, values[0])
    assert single.trunc_bound == bounds[0]


@st.composite
def steep_objects(draw):
    """Positive objects with a diagonal monodromy exp(2*pi*a), |a| <= 4."""
    g = draw(positive_objects()).graph
    a = draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=2))
    return TwistedTransport(g, LocalSystem(np.diag(np.exp(2 * math.pi * np.array(a)))))


@settings(max_examples=150, deadline=None)
@given(tt=st.one_of(positive_objects(), steep_objects()), t=st.floats(0.0, 0.999))
# a = 3.9 puts the peak 4 shifts from the nominal lift, peak_reach exactly
@example(tt=TwistedTransport(make_graph(p=1, q=1), LocalSystem([[math.exp(2 * math.pi * 3.9)]])), t=0.0)
def test_peak_reach_bounds_the_largest_lift(tt, t):
    g = tt.graph
    shifts = np.arange(-30, 31)
    for coeff in standard_section(tt).coefficients:
        s_star = -(g.c + coeff.component.shift) * g.q / g.p
        for branch in t + np.arange(g.q):
            nominal = np.rint((s_star - branch) / g.q)
            flat, twist = coeff.flat_and_twist(branch + g.q * (nominal + shifts))
            log_mag = log_norm(flat) + twist
            assert abs(shifts[np.nanargmax(log_mag)]) <= coeff.peak_reach


@pytest.mark.parametrize("unitary", [True, False], ids=["unitary", "general"])
def test_peak_reach_from_one_svd_matches_the_two_norms(rng, unitary):
    # L = max(log|T|_2, log|T^-1|_2) is the largest |log| of T's singular values
    for _ in range(30):
        n, (p, q) = int(rng.integers(1, 4)), [(1, 1), (2, 1), (1, 3)][int(rng.integers(3))]
        if unitary:
            mono = random_unitary(n, rng)
        else:
            mono = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * math.exp(rng.uniform(-40, 40))
        tt = TwistedTransport(make_graph(p=p, q=q, c=0.2), LocalSystem(mono))
        coeff = HorizontalCoefficient(tt.system, tt.geometry.components[0], 0.0, np.eye(n)[0])
        big_l = max(math.log(np.linalg.norm(m, 2)) for m in (mono, np.linalg.inv(mono)))
        assert coeff.peak_reach == 1 + math.floor(max(0.0, big_l) / (2 * math.pi * p * q))


def test_truncation_bound_sums_the_coefficients_tails():
    # a branch's value errs by the sum of its coefficients' tails, so the
    # bound is the largest branch sum, not the largest single tail
    g = make_graph(p=3, q=1, c=0.2, wiggle=[(1, 0.05, -0.03)])
    sec = standard_section(TwistedTransport(g, LocalSystem([[0.6, 0.8j], [0.8j, 0.6]])), K=1)
    ts, xs = np.array([0.15, 0.35, 0.8]), np.array([0.2, 0.6, -0.3])
    _, bound = theta_eval_batch(sec, ts, xs)
    t_branch, where = ts[:, None] + np.arange(g.q), np.arange(ts.size)
    _, tails, scales = fourier._lattice_sums(sec.coefficients, t_branch, where, xs, sec.K)
    tails = tails * np.exp(scales)  # (P, C, q)
    assert tails.shape[1] == 3 and np.all(np.min(tails, axis=1) > 0.0)
    np.testing.assert_allclose(bound, np.sum(tails, axis=1).max(axis=-1), rtol=1e-15)
    # each coefficient twice: twice the error, twice the bound
    _, doubled = theta_eval_batch(ThetaSection(sec.parent, sec.coefficients * 2, sec.K), ts, xs)
    np.testing.assert_allclose(doubled, 2.0 * bound, rtol=1e-15)


def exact_line_sum(tt, anchor, t, xdual):
    """The lattice sum at (t, xdual) of the rank-1 coefficient through
    (anchor, 1) on a straight p = q = 1 line with offset c, exactly: the sum
    over lifts s = t + m of T^(floor(s) - floor(anchor)) exp(-2 pi (H(s) -
    H(anchor)) + 2 pi i xdual (s + c)), H(s) = s^2 / 2 + c s, in 40 digits."""
    with mpmath.workdps(40):
        log_t, c = mpmath.log(mpmath.mpf(tt.system.monodromy[0, 0].real)), mpmath.mpf(tt.graph.c)
        a = mpmath.mpf(anchor)
        total = mpmath.mpc(0)
        for m in range(-200, 201):
            s = mpmath.mpf(t) + m
            exponent = (mpmath.floor(s) - mpmath.floor(a)) * log_t - mpmath.pi * (s * s - a * a + 2 * c * (s - a))
            total += mpmath.exp(exponent + 2j * mpmath.pi * mpmath.mpf(xdual) * (s + c))
        return complex(total)


def test_theta_batch_refuses_an_overflowing_lattice_sum():
    # log|T^k| = 2*pi*a*k against the weight -pi*k^2 puts the peak a shifts
    # from the nominal one; peak_reach = 1 + floor(a) widens the window to it
    g = make_graph(p=1, q=1, id="steep")
    inside = TwistedTransport(g, LocalSystem([[math.exp(2 * math.pi * 8.6)]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.all(np.isfinite(theta_eval(standard_section(inside, K=1), MirrorPoint(0.3, 0.2)).values))

    outside = TwistedTransport(g, LocalSystem([[math.exp(2 * math.pi * 15.0)]]))
    # anchored at 16, the lifts near the nominal peak at 0 carry T^-16 v, which
    # underflows, against an area weight that overflows; the unit-determinant
    # power table and the twist's k log|det T| meet in one exponent, so the
    # sum is finite and within its truncation bound of the exact one
    comp = outside.geometry.components[0]
    sec = ThetaSection(outside, (HorizontalCoefficient(outside.system, comp, 16.0, [1.0]),), K=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = theta_eval(sec, MirrorPoint(0.3, 0.2))
    exact = exact_line_sum(outside, 16.0, 0.3, 0.2)
    assert 0.0 < value.trunc_bound < 1e-7 * abs(exact)
    assert abs(value.values[0, 0] - exact) <= value.trunc_bound + 1e-12 * abs(exact)

    # the standard section (c = 0.3, anchored at -0.3) at t = 0.15 has a
    # largest term near e^758, beyond the double range, so it is refused
    steep = TwistedTransport(make_graph(p=1, q=1, c=0.3, id="steep"), LocalSystem(outside.system.monodromy))
    s = 0.15 + np.arange(-40, 41)
    log_terms = 2 * math.pi * 15.0 * (np.floor(s) + 1) - math.pi * (s * s - 0.09 + 0.6 * (s + 0.3))
    assert 757.0 < log_terms.max() < 759.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericsError, match="steep/r0"):
            theta_eval(standard_section(steep), MirrorPoint(0.15, 0.2))


def test_theta_refuses_a_tail_bound_that_overflows():
    # T = 1.709e10 overflowed T^k v in a tail lift, whose bound was NaN beside
    # a finite value; the unit-determinant power table keeps it finite, and the
    # sum matches the exact one to rounding (the tails underflow to 0)
    tt = TwistedTransport(make_graph(p=1, q=1, c=0.5, id="tail"), LocalSystem([[1.709e10]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = theta_eval(standard_section(tt, 25), MirrorPoint(0.0, 0.0))
    exact = exact_line_sum(tt, -0.5, 0.0, 0.0)
    assert abs(value.values[0, 0] - exact) <= value.trunc_bound + 1e-12 * abs(exact)
    # mixed moduli: T^k e0 = e^(16 pi k) e0 overflowed in the far lifts of the
    # 69-lift window and in its tail lifts; the power table's rows carry their
    # own log scale, so the sum is the rank-1 line's, T = e^(2 pi 8), exactly
    mixed = TwistedTransport(
        make_graph(p=1, q=1, c=0.3, id="tail"), LocalSystem(np.diag([math.exp(2 * math.pi * 8), math.exp(-2 * math.pi * 8)]))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = theta_eval(standard_section(mixed, 25), MirrorPoint(0.15, 0.2))
    exact = exact_line_sum(mixed, -0.3, 0.15, 0.2)
    assert abs(value.values[0, 0] - exact) <= value.trunc_bound + 1e-12 * abs(exact)
    assert value.values[0, 1] == 0.0


def ones_section(c, mono):
    """On the straight p = q = 1 line with offset c and monodromy mono, the
    horizontal coefficient through the first positive crossing with every
    entry 1."""
    tt = TwistedTransport(make_graph(p=1, q=1, c=c), LocalSystem(mono))
    anchor = standard_section(tt).coefficients[0].anchor_t
    return ThetaSection(tt, (HorizontalCoefficient(tt.system, tt.geometry.components[0], anchor, np.ones(tt.rank)),))


@st.composite
def stretched_lines(draw):
    """ones_section with a diagonal T of moduli e^(2 pi a), |a| <= 12, steep
    or mixed across its entries."""
    c = draw(st.floats(-1.0, 1.0))
    steep = draw(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=2))
    phases = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=len(steep), max_size=len(steep)))
    return ones_section(c, np.diag([cmath.exp(2 * math.pi * a + 1j * phase) for a, phase in zip(steep, phases)]))


def exact_diagonal_sum(coeff, t, xdual):
    """The lattice sum at (t, xdual) of a horizontal coefficient on a straight
    p = q = 1 line with a diagonal T, exactly: entry i sums over the lifts
    s = t + m the terms v_i T_ii^k exp(-pi ((s + c)^2 - (a + c)^2) + 2 pi i
    xdual (s + c)), k = floor(s) - floor(a), in 40 digits.  Returns the
    sums and the sum of the terms' norms."""
    with mpmath.workdps(40):
        c, a = mpmath.mpf(coeff.component.parent.c), mpmath.mpf(coeff.anchor_t)
        diagonal = [mpmath.mpc(z) for z in np.diag(coeff.system.monodromy)]
        sums, magnitude = [mpmath.mpc(0)] * len(diagonal), mpmath.mpf(0)
        for m in range(-100, 101):
            s = mpmath.mpf(t) + m
            k = int(mpmath.floor(s) - mpmath.floor(a))
            weight = mpmath.exp(-mpmath.pi * ((s + c) ** 2 - (a + c) ** 2) + 2j * mpmath.pi * mpmath.mpf(xdual) * (s + c))
            terms = [complex(v) * lam**k * weight for v, lam in zip(coeff.vector, diagonal)]
            sums = [total + term for total, term in zip(sums, terms)]
            magnitude += mpmath.sqrt(sum(abs(term) ** 2 for term in terms))
        return np.array([complex(total) for total in sums]), float(magnitude)


@settings(max_examples=40, deadline=None)
@given(
    sec=stretched_lines(),
    points=st.lists(st.tuples(st.floats(0.0, 0.999), st.floats(-1.0, 1.0)), min_size=1, max_size=3),
)
@example(sec=ones_section(0.3, np.diag([math.exp(2 * math.pi * 12), math.exp(-2 * math.pi * 12)])), points=[(0.15, 0.2)])
def test_theta_values_with_steep_or_mixed_moduli_match_the_exact_sum(sec, points):
    # T^k v overflowed or underflowed for mixed moduli, which no unit-|det|
    # rescaling of T removes; the power table's rows carry their own log scale
    ts, xs = np.array(points).T
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values, bounds = theta_eval_batch(sec, ts, xs)
    for i, (t, x) in enumerate(points):
        want, magnitude = exact_diagonal_sum(sec.coefficients[0], t, x)
        assert np.max(np.abs(values[i, 0] - want)) <= bounds[i] + 1e-12 * magnitude


def exact_line_data(graph, shift, u):
    """Y(u) + shift and its antiderivative p u^2 / 2q + (c + shift) u + the
    wiggle's primitive, at the mpf u, from the float data."""
    height = mpmath.mpf(graph.p) / graph.q * u + graph.c + shift
    primitive = mpmath.mpf(graph.p) / (2 * graph.q) * u * u + (mpmath.mpf(graph.c) + shift) * u
    for h in graph.wiggle:
        omega = 2 * mpmath.pi * h.m / graph.q
        cos, sin = mpmath.cos(omega * u), mpmath.sin(omega * u)
        height += h.a * cos + h.b * sin
        primitive += (h.a * sin - h.b * cos) / omega
    return height, primitive


def full_window_terms(lines, t_branch, where, xdual, K):
    """Every term of the lattice sums over the full window, the K + R shifts
    either side of the nominal peak and a tail term each side, each term
    relative to its row's largest: the terms (P, C, q, 2(K + R) + 1, n),
    their signed shifts in ascending order, the truncation bounds (P, C, q)
    and the rows' log scales (P, C, q).

    The term at the lift s = t + q m is T^k v exp(-2 pi int Y + r from the
    anchor a to s) exp(2 pi i xdual (Y(s) + r)), k = floor(s / q) - floor(a /
    q), T^k v a row of the power table with its log.  The lift, its seam
    count, the twist, the kernel and the exp are taken in 40 digits from the
    float data, so a term rounds once: the reference shares none of the
    window's roundings of s - v, of the log weights or of the phase."""
    g = lines[0].component.parent
    reach = K + lines[0].peak_reach
    shifts = np.arange(-reach - 1, reach + 2)
    terms, bounds, scales = [], [], []
    exp = np.frompyfunc(mpmath.exp, 1, 1)
    with mpmath.workdps(40), np.errstate(over="ignore", invalid="ignore"):
        for coeff in lines:
            comp = coeff.component
            m = np.rint((comp.vertex - t_branch) / g.q)[..., None] + shifts
            s = np.frompyfunc(mpmath.mpf, 1, 1)(t_branch)[..., None] + g.q * m.astype(int).astype(object)
            k = np.frompyfunc(lambda u: int(mpmath.floor(u / g.q)), 1, 1)(s).astype(int) - math.floor(coeff.anchor_t / g.q)
            k_lo, k_hi = min(int(k.min()), 0), max(int(k.max()), 0)
            rows, logs = localsys._power_table(coeff.system, coeff.vector, k_lo, k_hi)
            heights, primitives = np.frompyfunc(lambda u: exact_line_data(g, comp.shift, u), 1, 2)(s)
            _, start = exact_line_data(g, comp.shift, mpmath.mpf(coeff.anchor_t))
            log = -2 * mpmath.pi * (primitives - start) + logs[k - k_lo]
            flat, log_mag = rows[k - k_lo], log_norm(rows)[k - k_lo] + log.astype(float)
            scale = np.max(log_mag[..., 1:-1], axis=-1)
            top = np.where(scale > -np.inf, scale, 0.0)[..., None]
            kern = 2j * mpmath.pi * xdual[:, None, None] * heights[where]
            weight = exp((log - top)[where] + kern).astype(complex)[..., 1:-1]
            terms.append(flat[where][..., 1:-1, :] * weight[..., None])
            tails = np.exp(log_mag[..., [0, -1]] - top)
            bounds.append(coeff.tail_bound(tails[..., 0], tails[..., 1])[where])
            scales.append(scale[where])
    terms, bounds, scales = (np.stack(part, axis=1) for part in (terms, bounds, scales))
    return terms, shifts[1:-1], bounds, scales


@settings(max_examples=60, deadline=None)
@given(
    tt=st.one_of(positive_objects(), steep_objects()),
    K=st.sampled_from([4, 25]),
    points=st.lists(st.tuples(st.floats(0.0, 0.999), st.floats(-1.0, 1.0)), min_size=1, max_size=4),
)
# T^k v overflows in the window's far lifts, where the weight is 0: 0 * inf
@example(tt=TwistedTransport(make_graph(p=1, q=1), LocalSystem([[math.exp(2 * math.pi * 4.0)]])), K=25, points=[(0.3, 0.2)])
# a float reference, rounding its lift s = t - 4 and then s - v, lay 1.8e-14
# from the exact sum, where the window lies 3.8e-15 from it
@example(
    tt=TwistedTransport(make_graph(p=1, q=1, c=0.8167162011088327), LocalSystem([[math.exp(2 * math.pi * -4.0)]])),
    K=4,
    points=[(0.6690497801579374, 0.0)],
)
def test_line_sums_match_the_full_window(tt, K, points):
    ts, xs = np.array(points).T
    distinct, where = np.unique(ts, return_inverse=True)
    t_branch = distinct[:, None] + np.arange(tt.graph.q)
    exp, phases = np.exp, []

    def spied(x, *args, **kwargs):
        if np.iscomplexobj(x):  # the per-point kernel
            phases.append(np.shape(x))
        return exp(x, *args, **kwargs)

    lines = standard_section(tt, K).coefficients
    terms, shifts, bounds, scales = full_window_terms(lines, t_branch, where, xs, K)
    if not (np.all(np.isfinite(terms.sum(axis=-2))) and np.all(np.isfinite(bounds))):
        with pytest.raises(NumericsError, match="not finite"):
            fourier._lattice_sums(lines, t_branch, where, xs, K)
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "exp", spied)
        values, got_bounds, got_scales = fourier._lattice_sums(lines, t_branch, where, xs, K)
    # the complex exps ran per point, coefficient and branch, none per lift
    shape = (len(lines), len(points), tt.graph.q)
    assert sorted(phases) == sorted([shape, (len(points),)])
    # every lift the closed-form window leaves out is exactly 0 in the full one
    reach = lines[0].lift_reach(K)
    assert not np.any(terms[..., np.abs(shifts) > reach, :])
    np.testing.assert_allclose(got_scales, scales, rtol=1e-13, atol=1e-12)
    np.testing.assert_allclose(got_bounds, bounds, rtol=1e-12, atol=0.0)
    assert np.all(np.abs(values - terms.sum(axis=-2)) <= 1e-14 * np.abs(terms).sum(axis=-2))
    # so the full window gives the same bits: values, bounds and scales
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HorizontalCoefficient, "lift_reach", lambda self, K: K + self.peak_reach)
        full = fourier._lattice_sums(lines, t_branch, where, xs, K)
    assert all(np.array_equal(a, b) for a, b in zip(full, (values, got_bounds, got_scales)))
    # a point alone has the same bits as in the batch
    for i in range(len(points)):
        alone, _, _ = fourier._lattice_sums(lines, t_branch[where[i] : where[i] + 1], np.zeros(1, int), xs[i : i + 1], K)
        assert np.array_equal(alone[0], values[i])


@st.composite
def reach_objects(draw):
    """Straight lines with p in 1..4, q in 1..3 and a rank-1 or rank-2 T:
    unitary, steep (e^(2 pi a), |a| <= 12) or of mixed moduli."""
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    assume(math.gcd(p, q) == 1)
    n = draw(st.integers(1, 2))
    phases = np.array(draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["unitary", "steep", "mixed"]))
    if kind == "unitary":
        logs = np.zeros(n)
    elif kind == "steep":
        logs = np.full(n, draw(st.floats(-12.0, 12.0)))
    else:
        logs = np.array(draw(st.lists(st.floats(-12.0, 12.0), min_size=n, max_size=n)))
    mono = np.diag(np.exp(2 * math.pi * logs + 1j * phases))
    if n == 2 and kind != "steep":
        mono[0, 1] = draw(st.floats(-1.0, 1.0))  # not normal
    c = draw(st.floats(-1.0, 1.0))
    return TwistedTransport(make_graph(p=p, q=q, c=c, wiggle=[(1, 0.01, -0.01)]), LocalSystem(mono))


@settings(max_examples=80, deadline=None)
@given(tt=reach_objects(), K=st.sampled_from([1, 4, 25]), t=st.floats(0.0, 0.999))
def test_closed_form_reach_leaves_out_only_underflowing_lifts(tt, K, t):
    # measured on the full window of 2(K + R) + 3 lifts, from flat_and_twist
    g = tt.graph
    for coeff in standard_section(tt, K).coefficients:
        reach = coeff.lift_reach(K)
        assert coeff.peak_reach <= reach <= K + coeff.peak_reach
        full = K + coeff.peak_reach
        shifts = np.arange(-full - 1, full + 2)
        branch = t + np.arange(g.q)[:, None]
        nominal = np.rint((coeff.component.vertex - branch) / g.q)
        flat, twist = coeff.flat_and_twist(branch + g.q * (nominal + shifts))
        log_mag = log_norm(flat) + twist
        assert np.all(np.isfinite(log_mag))
        top = log_mag[:, 1:-1].max(axis=1, keepdims=True)
        past = (np.abs(shifts) > reach) & (np.abs(shifts) <= full)
        assert np.all(log_mag[:, past] < top - 760.0)


def test_unitary_lines_hold_the_closed_form_window(rng):
    # L = 0: J is the largest |j| with -pi p q |j|(|j| - 1) >= -761
    want = {(1, 1): 16, (1, 2): 11, (1, 3): 9, (2, 1): 11, (2, 3): 6, (3, 1): 9, (3, 2): 6}
    for (p, q), reach in want.items():
        tt = TwistedTransport(make_graph(p=p, q=q, c=0.3), LocalSystem(random_unitary(2, rng)))
        coeff = standard_section(tt).coefficients[0]
        assert (coeff.peak_reach, coeff.lift_reach(25), coeff.lift_reach(4)) == (1, reach, 5)
        assert -math.pi * p * q * reach * (reach - 1) >= -761.0 > -math.pi * p * q * (reach + 1) * reach


@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 1000), q=st.integers(1, 60), stretch=st.floats(0.0, 700.0))
@example(p=1, q=1, stretch=0.0)
# edge.json's lines: p = 1000, T = e^(2 pi 15), and mixed moduli e^(+-2 pi 8)
@example(p=1000, q=1, stretch=0.0)
@example(p=1, q=1, stretch=2 * math.pi * 15)
@example(p=1, q=1, stretch=2 * math.pi * 8)
def test_lift_reach_never_falls_below_peak_reach(p, q, stretch):
    # the larger root of pi p q j^2 - (pi p q + L) j = LOG_UNDERFLOW - 1 lies
    # past 1 + L / (pi p q), so its floor is at least 1 + floor(L / (2 pi p q)),
    # peak_reach; with K too large for the cap, lift_reach is that floor
    assume(math.gcd(p, q) == 1)
    system = LocalSystem([[math.exp(stretch)]])
    coeff = HorizontalCoefficient(system, LiftComponent(make_graph(p=p, q=q, c=0.3), 0), 0.0, [1.0])
    assert system.log_stretch == pytest.approx(stretch, abs=1e-12)
    assert coeff.lift_reach(10**9) >= coeff.peak_reach


def test_dbar_residual_is_one_batch(monkeypatch):
    g = make_graph(p=3, q=2, c=0.2, wiggle=[(1, 0.05, -0.03)])
    tt = TwistedTransport(g, LocalSystem([[0.6, 0.8j], [0.8j, 0.6]]))
    sec = standard_section(tt)
    batches, powers = [], []
    batch, matrix_power = fourier._coefficient_values, np.linalg.matrix_power

    def counted_batch(*args):
        batches.append(args)
        return batch(*args)

    def counted_power(*args):
        powers.append(args)
        return matrix_power(*args)

    monkeypatch.setattr(fourier, "_coefficient_values", counted_batch)
    monkeypatch.setattr(np.linalg, "matrix_power", counted_power)
    dbar_residual(sec, MirrorPoint(0.35, 0.2))
    assert len(batches) == 1 and len(batches[0][1]) == 9
    assert len(powers) <= len(sec.coefficients)



def test_dbar_residuals_match_one_point_calls_in_one_batch(monkeypatch):
    from torusmirror.app import DBAR_SAMPLE_POINTS, dbar_check

    g = make_graph(p=2, q=3, c=0.1, wiggle=[(1, 0.03, 0.02), (3, -0.02, 0.04)])
    sec = standard_section(TwistedTransport(g, LocalSystem([[0.0, 1.5], [1.0, 0.2]])))
    points = [MirrorPoint(t, x) for t, x in DBAR_SAMPLE_POINTS]
    for h in (1e-3, 5e-4):
        one_by_one = [dbar_residual(sec, pt, h) for pt in points]
        assert dbar_residuals(sec, points, h).tolist() == one_by_one

    batches = []
    batch = fourier._coefficient_values

    def counted_batch(*args):
        batches.append(len(args[1]))
        return batch(*args)

    monkeypatch.setattr(fourier, "_coefficient_values", counted_batch)
    residual, h = dbar_check(sec, 1.0)
    assert batches == [9 * len(points)] and h == 1e-3
    assert residual == max(dbar_residual(sec, pt, h) for pt in points)


@pytest.mark.parametrize(
    "tt",
    [
        TwistedTransport(make_graph(p=2, q=3, c=0.1, wiggle=[(1, 0.03, 0.02)]), LocalSystem([[0.0, 1.5], [1.0, 0.2]])),
        TwistedTransport(make_graph(p=0, q=1, c=0.0, wiggle=[(1, 0.0, 0.5)]), trivial_system(1)),
    ],
    ids=["line_q3", "circle"],
)
def test_theta_batch_with_repeated_t_matches_one_point_calls(tt):
    sec = standard_section(tt)
    ts = np.array([0.35, 0.1, 0.35, 0.35, 0.8, 0.1, 0.35])
    xs = np.array([0.2, 0.6, -0.4, 0.2, 0.9, 0.25, 0.6])
    values, bounds = theta_eval_batch(sec, ts, xs)
    for i, (t, x) in enumerate(zip(ts, xs)):
        single = theta_eval(sec, MirrorPoint(t, x))
        assert np.array_equal(single.values, values[i])
        assert single.trunc_bound == bounds[i]


def test_dbar_check_step_passes_each_distinct_t_once(monkeypatch):
    from torusmirror.app import DBAR_SAMPLE_POINTS, dbar_check

    g = make_graph(p=2, q=3, c=0.1, wiggle=[(1, 0.03, 0.02)])
    sec = standard_section(TwistedTransport(g, LocalSystem([[0.0, 1.5], [1.0, 0.2]])))
    windows = []
    twist_exponent = localsys.twist_exponent

    def counted(graph, shift, t0, t1, m=0):
        windows.append(np.shape(m))  # the window's lattice shifts
        return twist_exponent(graph, shift, t0, t1, m)

    monkeypatch.setattr(localsys, "twist_exponent", counted)
    _, h = dbar_check(sec, 1.0)
    assert h == 1e-3  # one step
    # 4 sample t values x 5 stencil offsets, out of 9 stencil points for each of 8 points
    distinct_t = len({t for t, _ in DBAR_SAMPLE_POINTS}) * 5
    assert 9 * len(DBAR_SAMPLE_POINTS) == 72 and distinct_t == 20
    # 2 J + 3 = 15 lifts: J = 6 either side of the nominal peak, since with
    # L = 0.42 the bound L j - 6 pi j (j - 1) is -563 at j = 6 and -789 at 7,
    # and one tail term each; one window holds both coefficients
    assert sec.K == 25 and {(coeff.peak_reach, coeff.lift_reach(sec.K)) for coeff in sec.coefficients} == {(1, 6)}
    assert windows == [(len(sec.coefficients), distinct_t, g.q, 15)]


def test_verify_recurses_t_once_per_line_object_and_evaluates_no_lift_array(monkeypatch):
    # one verify_mixed seed-7 pass: the T' power recursion runs once per
    # p > 0 object, on the matrix of its section's vectors, and inside the
    # theta layer no trig, height or primitive call sees a lift-shaped array,
    # only the (distinct t, q) rows and the anchors
    from pathlib import Path

    from torusmirror.app import load_scene, run_verify
    from torusmirror.geometry import LagrangianGraph

    scene = load_scene(Path(__file__).parent / "data" / "verify_mixed_7.json")
    tables, sizes, inside = [], [], []
    power_table, coefficient_values = localsys._power_table, fourier._coefficient_values

    def counted_table(*args):
        tables.append(np.shape(args[1]))
        return power_table(*args)

    def flagged(*args):
        inside.append(True)
        try:
            return coefficient_values(*args)
        finally:
            inside.pop()

    def spy(real, points):
        def wrapped(*args, **kwargs):
            if inside:
                sizes.append((real.__name__, points(args)))
            return real(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(localsys, "_power_table", counted_table)
    monkeypatch.setattr(fourier, "_coefficient_values", flagged)
    for name in ("cos", "sin"):  # on the (harmonics, points) phases
        monkeypatch.setattr(np, name, spy(getattr(np, name), lambda args: np.shape(args[0])[-1]))
    for cls in (LagrangianGraph, LiftComponent):
        for name in ("height", "height_primitive"):
            monkeypatch.setattr(cls, name, spy(getattr(cls, name), lambda args: np.size(args[1])))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        report = run_verify(scene)
    lines = [tt for tt in scene.objects if tt.graph.p > 0]
    assert len(lines) == 7 and all(entry["errors"] == [] for entry in report.objects)
    assert tables == [(tt.rank, tt.graph.p) for tt in sorted(lines, key=lambda tt: tt.id)]
    # 20 distinct t times q branches, plus the p anchors where W~ is read in
    # the same call; a lift array holds up to 35 lifts per row
    assert sizes and {name for name, _ in sizes} >= {"cos", "sin", "height"}
    assert max(points for _, points in sizes) <= max(20 * tt.graph.q + tt.graph.p for tt in lines), sizes


def test_section_refuses_coefficients_it_cannot_sum_in_one_pass():
    # the line coefficients share one window and one power table, so they
    # must be of one kind, on one curve, with one local system
    tt = TwistedTransport(make_graph(p=2, q=1, c=0.1), LocalSystem([[1j]]))
    horizontal = standard_section(tt).coefficients
    sampled = SampledCoefficient(horizontal[0].component, lambda s: np.ones(np.shape(s) + (1,)))
    other = standard_section(TwistedTransport(make_graph(p=2, q=1, c=0.2), LocalSystem([[1j]]))).coefficients
    turned = HorizontalCoefficient(LocalSystem([[-1j]]), horizontal[1].component, horizontal[1].anchor_t, [1.0])
    for coeffs in ((horizontal[0], sampled), (horizontal[0], other[1]), (horizontal[0], turned)):
        with pytest.raises(ValidationError, match="one kind, on one curve, with one local system"):
            ThetaSection(tt, coeffs)
    assert ThetaSection(tt, horizontal).coefficients == horizontal


def test_dbar_residuals_check_the_seam_margin_at_every_point():
    sec = standard_section(canonical_object())
    with pytest.raises(ValidationError, match="seam margin"):
        dbar_residuals(sec, [MirrorPoint(0.3, 0.2), MirrorPoint(0.999, 0.2), MirrorPoint(0.6, 0.2)], h=1e-3)

def test_theta_batch_chunks_are_invisible(monkeypatch, rng):
    g = make_graph(p=2, q=3, c=0.1, wiggle=[(1, 0.03, 0.02)])
    sec = standard_section(TwistedTransport(g, LocalSystem([[0.0, 1.5], [1.0, 0.2]])))
    ts, xs = rng.uniform(0.0, 1.0, size=(2, 7))
    values, bounds = theta_eval_batch(sec, ts, xs)
    monkeypatch.setattr(fourier, "BATCH_CHUNK", 3)
    chunked, chunked_bounds = theta_eval_batch(sec, ts, xs)
    assert np.array_equal(chunked, values) and np.array_equal(chunked_bounds, bounds)
