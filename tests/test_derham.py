"""Case classification, the explicit interval solver, and both cohomology routes."""

import math
import warnings

import numpy as np
import pytest
from conftest import make_graph, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from torusmirror import derham

from torusmirror.derham import (
    CASE1,
    CASE2,
    CASE3A,
    CASE3B,
    analytic_dims,
    case1_kernel_dim,
    case3_solve,
    case_report,
    classify_components,
    discretized_dims,
)
from torusmirror.errors import NumericsError, UnsupportedError, ValidationError, WindowError
from torusmirror.floer import build_complex, cohomology_dims
from torusmirror.localsys import LocalSystem, TwistedTransport, trivial_system

TWO_PI = 2.0 * math.pi


def brane(p, q=1, c=0.0, wiggle=(), n=1, mono=None):
    graph = make_graph(p=p, q=q, c=c, wiggle=wiggle)
    system = LocalSystem(mono) if mono is not None else trivial_system(n)
    return TwistedTransport(graph, system)


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)


def scalar_case3_solve(a, b, g, C, xs):
    """The interval solver as one Python step per grid cell, with a quad
    tail for a < 0: the reference the array sweep must reproduce."""
    vertex = -b / a

    def phi(t):
        return 0.5 * a * t * t + b * t

    def step(x_from, x_to, j_from):
        mid, half = 0.5 * (x_from + x_to), 0.5 * (x_to - x_from)
        acc = j_from * math.exp(phi(x_from) - phi(x_to))
        for w, xi in zip(_GAUSS_W, _GAUSS_X):
            t = mid + half * xi
            acc += w * half * g(t) * math.exp(phi(t) - phi(x_to))
        return acc

    j = np.zeros(len(xs), dtype=complex)
    if a > 0:
        ia = int(np.argmin(np.abs(xs - vertex)))
        for i in range(ia, len(xs) - 1):
            j[i + 1] = step(xs[i], xs[i + 1], j[i])
        for i in range(ia, 0, -1):
            j[i - 1] = step(xs[i], xs[i - 1], j[i])
    else:
        def tail(t):
            return g(t) * math.exp(phi(t) - phi(xs[0]))

        re, _ = quad(lambda t: tail(t).real, -np.inf, xs[0], epsabs=1e-12, limit=300)
        im, _ = quad(lambda t: tail(t).imag, -np.inf, xs[0], epsabs=1e-12, limit=300)
        j[0] = complex(re, im)
        for i in range(len(xs) - 1):
            j[i + 1] = step(xs[i], xs[i + 1], j[i])
    u = xs - vertex
    return j + C * np.exp(np.minimum(-0.5 * a * u * u, 709.0))


class TestClassification:
    def test_single_line_no_negatives(self):
        cases = classify_components(brane(1, c=0.0))
        assert len(cases) == 1
        case = cases[0]
        assert case.case == CASE3A
        assert case.interval == (-math.inf, math.inf)
        assert case.a == pytest.approx(TWO_PI)
        assert case.b == 0.0
        assert case.positives == 1

    def test_wiggle_scene_splits_at_negative(self, wiggle_scene):
        cases = classify_components(TwistedTransport(wiggle_scene, trivial_system(1)))
        assert [c.case for c in cases] == [CASE3A, CASE3A]
        assert cases[0].interval[1] == pytest.approx(-0.5, abs=1e-9)
        assert cases[1].interval[0] == pytest.approx(-0.5, abs=1e-9)
        assert all(c.positives == 1 for c in cases)

    def test_line_with_three_negatives_has_two_finite_intervals(self):
        # Y' = 1 + 3 pi cos(2 pi t) changes sign: seven crossings on the one line
        tt = brane(1, c=0.3, wiggle=[(1, 0.0, 1.5)])
        (points,) = tt.geometry.crossings
        negatives = [pt.t0 for pt in points if not pt.is_positive]
        assert len(negatives) == 3
        cases = classify_components(tt)
        assert [c.case for c in cases] == [CASE3A, CASE2, CASE2, CASE3A]
        assert [c.interval for c in cases] == list(zip([-math.inf] + negatives, negatives + [math.inf]))
        for case in cases:
            assert (case.a, case.b) == (TWO_PI, TWO_PI * 0.3)
            lo, hi = case.interval
            assert case.positives == sum(pt.is_positive and lo < pt.t0 < hi for pt in points) == 1

    def test_decreasing_lines_are_growing_end_intervals(self):
        cases = classify_components(brane(-2, c=0.25))
        assert len(cases) == 4
        assert all(c.case == CASE3B for c in cases)
        assert all(c.positives == 0 for c in cases)
        assert all(c.a == pytest.approx(-2 * TWO_PI) for c in cases)

    def test_offset_circles_are_closed(self):
        cases = classify_components(brane(0, c=0.3))
        assert len(cases) == 8  # default window 4: shifts -4..3
        assert all(c.case == CASE1 for c in cases)
        assert all(c.monodromy is not None for c in cases)
        assert all(case1_kernel_dim(c.monodromy) == 0 for c in cases)

    def test_crossing_circle_cuts_into_finite_arcs(self):
        cases = classify_components(brane(0, c=0.0, wiggle=[(1, 0.0, 0.5)]))
        crossing = [c for c in cases if c.case == CASE2]
        assert len(crossing) == 1
        lo, hi = crossing[0].interval
        assert hi - lo == pytest.approx(1.0)
        assert crossing[0].positives == 1

    def test_eigenvalue_one_circle_detected(self):
        mono = [[math.exp(TWO_PI * 1.3)]]
        cases = classify_components(brane(0, c=0.3, mono=mono))
        dims = {c.component.shift: case1_kernel_dim(c.monodromy) for c in cases}
        assert dims[1] == 1
        assert all(v == 0 for shift, v in dims.items() if shift != 1)


class TestIntervalSolver:
    def test_homogeneous_gaussian(self):
        xs = np.linspace(-4.0, 4.0, 801)
        f, decays = case3_solve(TWO_PI, 0.0, lambda t: 0.0, 1.0, xs)
        assert decays
        assert np.max(np.abs(f - np.exp(-math.pi * xs**2))) < 1e-12

    def test_homogeneous_recentered(self):
        # b shifts the vertex; C multiplies the peak-normalized solution
        xs = np.linspace(-6.0, 2.0, 801)
        f, _ = case3_solve(TWO_PI, 2.0 * TWO_PI, lambda t: 0.0, 0.5, xs)
        assert np.max(np.abs(f - 0.5 * np.exp(-math.pi * (xs + 2.0) ** 2))) < 1e-12

    def test_random_rhs_residuals(self):
        rng = np.random.default_rng(99)
        a, b = 2.0 * TWO_PI, math.pi
        vertex = -b / a
        xs = np.linspace(vertex - 4.5, vertex + 4.5, 5121)
        h = xs[1] - xs[0]
        for _ in range(10):
            alpha, beta, center = rng.standard_normal(3)

            def g(t):
                return (alpha + beta * (t - center)) * np.exp(-1.5 * (t - center) ** 2)

            f, decays = case3_solve(a, b, g, rng.uniform(0.5, 1.5), xs)
            assert decays
            df = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
            mid = xs[2:-2]
            residual = df + (a * mid + b) * f[2:-2] - np.array([g(t) for t in mid])
            assert np.max(np.abs(residual)) <= 1e-8 * max(1.0, np.max(np.abs(f)))

    def test_growing_weight_constant_breaks_decay(self):
        xs = np.linspace(-6.0, 0.0, 601)

        def g(t):
            return np.exp(-2.0 * (t + 2.0) ** 2)

        forced, decays = case3_solve(-TWO_PI, 0.0, g, 0.0, xs)
        assert decays
        assert abs(forced[0]) < 1e-10 * np.max(np.abs(forced))
        _, decays_c = case3_solve(-TWO_PI, 0.0, g, 1.0, xs)
        assert not decays_c

    def test_growing_weight_residual(self):
        xs = np.linspace(-7.0, -0.5, 2601)
        h = xs[1] - xs[0]

        def g(t):
            return (1.0 + 0.3 * t) * np.exp(-2.0 * (t + 3.0) ** 2)

        f, _ = case3_solve(-TWO_PI, 0.0, g, 0.0, xs)
        df = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
        mid = xs[2:-2]
        residual = df + (-TWO_PI * mid) * f[2:-2] - np.array([g(t) for t in mid])
        assert np.max(np.abs(residual)) <= 1e-8 * max(1.0, np.max(np.abs(f)))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_step_loop(self, seed):
        # a > 0 up to p/q = 30 takes several sweep blocks; a < 0 stops at
        # p/q = 11, past which the solution itself leaves the doubles on
        # the spot check's window
        rng = np.random.default_rng(seed)
        for sign in (1, -1):
            a = sign * rng.uniform(0.3, TWO_PI * (30 if sign > 0 else 11))
            b = rng.uniform(-10.0, 10.0)
            C = rng.standard_normal() if seed % 2 else 0.0
            vertex = -b / a
            alpha, beta = rng.standard_normal(2)
            center = vertex + rng.uniform(-1.5, 1.5)

            def g(t):
                return (alpha + beta * (t - center)) * np.exp(-2.0 * (t - center) ** 2)

            half_width = 4.5 * max(1.0, math.sqrt(TWO_PI / abs(a)))
            # the second window starts near the vertex, where for a < 0 the
            # tail left of xs[0] carries most of the weight
            for start in (vertex - half_width, vertex + rng.uniform(-1.0, 1.0)):
                xs = np.linspace(start, vertex + half_width, 1281)
                want = scalar_case3_solve(a, b, g, C, xs)
                got, _ = case3_solve(a, b, g, C, xs)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("with_c", [False, True])
    def test_batch_rows_match_single_calls(self, sign, with_c):
        rng = np.random.default_rng(5 + with_c)
        a, b = sign * 3.0 * TWO_PI, rng.uniform(-5.0, 5.0)
        vertex = -b / a
        xs = np.linspace(vertex - 4.5, vertex + 4.5, 3841)
        alpha, beta = rng.standard_normal((2, 3))
        center = vertex + rng.uniform(-1.0, 1.0, 3)
        C = rng.standard_normal(3) if with_c else np.zeros(3)

        def row(k, t):
            return (alpha[k] + beta[k] * (t - center[k])) * np.exp(-2.0 * (t - center[k]) ** 2)

        batch, decays = case3_solve(a, b, lambda t: np.stack([row(k, t) for k in range(3)]), C, xs)
        assert batch.shape == (3, len(xs))
        assert decays == (sign > 0 or not with_c)
        for k in range(3):
            single, _ = case3_solve(a, b, lambda t: row(k, t), C[k], xs)
            assert np.max(np.abs(batch[k] - single)) <= 1e-13 * np.max(np.abs(single))

    def test_scalar_rhs_keeps_one_row(self):
        xs = np.linspace(-4.0, 4.0, 801)
        for a in (TWO_PI, -TWO_PI):
            f, _ = case3_solve(a, 0.0, lambda t: 0.0, 1.0, xs)
            assert f.shape == (len(xs),)

    def test_rejects_flat_asymptotics(self):
        with pytest.raises(UnsupportedError):
            case3_solve(0.0, 1.0, lambda t: 0.0, 1.0, np.linspace(0, 1, 10))

    def test_rejects_unsorted_samples(self):
        with pytest.raises(ValidationError):
            case3_solve(TWO_PI, 0.0, lambda t: 0.0, 1.0, np.array([0.0, -1.0, 1.0]))


class TestAnalyticDims:
    def test_line_examples(self):
        assert analytic_dims(brane(1, c=0.0)) == (1, 0)
        assert analytic_dims(brane(3, c=0.25)) == (3, 0)
        assert analytic_dims(brane(-2, c=0.25)) == (0, 2)

    def test_wiggle_scene(self, wiggle_scene):
        assert analytic_dims(TwistedTransport(wiggle_scene, trivial_system(1))) == (1, 0)

    def test_acyclic_circles(self):
        assert analytic_dims(brane(0, c=0.3)) == (0, 0)

    def test_crossing_circle_through_complex(self):
        assert analytic_dims(brane(0, c=0.0, wiggle=[(1, 0.0, 0.5)])) == (1, 1)

    def test_nontrivial_circle_kills_cohomology(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tt = brane(0, c=0.0, wiggle=[(1, 0.0, 0.5)], mono=[[2.0]])
            assert analytic_dims(tt) == (0, 0)

    def test_far_eigenvalue_one_circle_found_without_window(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tt = brane(0, c=0.3, mono=[[math.exp(TWO_PI * 1.3)]])
            assert analytic_dims(tt) == (1, 1)

    def test_rank_two_lines(self, rng):
        tt = brane(2, q=3, c=0.25, mono=random_unitary(2, rng))
        assert analytic_dims(tt) == (4, 0)

    @pytest.mark.parametrize(
        "p, q",
        [(4, 1), (6, 1), (15, 1), (30, 1), (1, 20), (1, 100), (1, 1000)],
        ids=["4", "6", "15", "30", "1-20", "1-100", "1-1000"],
    )
    def test_steep_straight_lines(self, p, q):
        # the spot check's step count grows with the slope and with the
        # window a shallow line needs, so the solver's error stays within
        # its tolerance at both ends
        assert analytic_dims(brane(p, q=q, c=0.0)) == (p, 0)

    @pytest.mark.parametrize("c", [3000.3, 30000.3])
    def test_spot_check_with_the_vertex_far_from_zero(self, c):
        # the weight's vertex -b/a = -c q/p lies 3e6 and 3e7 from 0; phi taken
        # as a t^2/2 + b t there cancels to a spot-check error of 4.8e-6 and
        # 4.2e-4, where a (t - vertex)^2 / 2 keeps it at rounding
        assert analytic_dims(brane(1, q=1000, c=c)) == (1, 0)

    def test_reads_no_crossing_record(self, monkeypatch):
        def no_record(tt):
            raise AssertionError("the analytic route read the crossing record")

        monkeypatch.setattr(TwistedTransport, "geometry", property(no_record))
        assert analytic_dims(brane(1, c=0.5, wiggle=[(1, 0.0, 0.5)])) == (1, 0)
        assert analytic_dims(brane(-2, c=0.25)) == (0, 2)
        assert analytic_dims(brane(0, c=0.0, wiggle=[(1, 0.0, 0.5)])) == (1, 1)

    def test_spot_check_is_one_solver_call(self, monkeypatch):
        calls = []
        real = derham.case3_solve

        def counted(a, b, g, C, xs):
            calls.append(np.shape(C))
            return real(a, b, g, C, xs)

        monkeypatch.setattr(derham, "case3_solve", counted)
        assert analytic_dims(brane(2, c=0.3)) == (2, 0)
        assert calls == [(4,)]

    def test_spot_check_reads_every_row(self, monkeypatch):
        real = derham.case3_solve

        def last_row_off(a, b, g, C, xs):
            f, decays = real(a, b, g, C, xs)
            f[-1, len(xs) // 2] += 1e-4 * np.max(np.abs(f[-1]))
            return f, decays

        monkeypatch.setattr(derham, "case3_solve", last_row_off)
        with pytest.raises(NumericsError, match="spot check failed"):
            analytic_dims(brane(1, c=0.0))

    def test_non_finite_spot_check_fails(self, monkeypatch):
        def broken(a, b, g, C, xs):
            return np.full(len(xs), np.nan, dtype=complex), True

        monkeypatch.setattr(derham, "case3_solve", broken)
        with pytest.raises(NumericsError, match="spot check failed"):
            analytic_dims(brane(1, c=0.0))

    @pytest.mark.parametrize("fault", ["drops_c", "adds_homogeneous"])
    def test_spot_check_sees_solver_faults(self, monkeypatch, fault):
        # both faults leave f' + (a t + b) f = g intact: only a comparison
        # with the exact solution sees them
        real = derham.case3_solve

        def faulty(a, b, g, C, xs):
            if fault == "drops_c":
                return real(a, b, g, 0.0, xs)
            f, decays = real(a, b, g, C, xs)
            return f + 1e-3 * np.exp(-0.5 * a * (xs + b / a) ** 2), decays

        monkeypatch.setattr(derham, "case3_solve", faulty)
        with pytest.raises(NumericsError, match="spot check failed"):
            analytic_dims(brane(1, c=0.3))

    @settings(max_examples=60, deadline=None)
    @given(log_slope=st.floats(math.log(1e-3), math.log(60.0)), b=st.floats(-20.0, 20.0))
    def test_step_rule_holds_its_derived_bound(self, log_slope, b):
        # the step rule bounds the error by 7.8e-11 of each row's scale for
        # every slope; the solver rounds phi(t) = a t^2/2 + b t at about
        # eps b^2/a, below 2e-11 for these b
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(derham, "SPOT_CHECK_TOL", 1e-10)
            derham._spot_check_case3(TWO_PI * math.exp(log_slope), b, "L:0")


class TestDiscretizedDims:
    def test_single_line(self):
        assert discretized_dims(brane(1, c=0.0), h=1 / 512, big_t=6.0) == (1, 0)

    def test_wiggle_scene(self, wiggle_scene):
        tt = TwistedTransport(wiggle_scene, trivial_system(1))
        assert discretized_dims(tt) == (1, 0)

    def test_decreasing_lines(self):
        assert discretized_dims(brane(-2, c=0.25)) == (0, 2)

    def test_acyclic_circles(self):
        assert discretized_dims(brane(0, c=0.3)) == (0, 0)

    def test_far_eigenvalue_one_circle(self):
        tt = brane(0, c=0.3, mono=[[math.exp(TWO_PI * 1.3)]])
        assert discretized_dims(tt) == (1, 1)

    def test_rank_two_lines(self, rng):
        tt = brane(-3, q=2, c=0.7, mono=random_unitary(2, rng))
        assert discretized_dims(tt) == (0, 6)

    def test_far_eigenvalue_one_circle_off_by_rounding(self):
        # M - I of size 1e-14 is rounding against |M| = 1 on both routes
        tt = brane(0, c=0.3, mono=[[math.exp(TWO_PI * 1.3) * (1.0 + 1e-14)]])
        assert analytic_dims(tt) == discretized_dims(tt) == (1, 1)

    def test_jordan_block_circle_counts_the_fixed_space(self):
        # the twisted monodromy on shift 0 is the Jordan block [[1, 1], [0, 1]]:
        # a one-dimensional fixed space inside a double eigenvalue 1
        tt = brane(0, c=0.3, mono=math.exp(TWO_PI * 0.3) * np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert analytic_dims(tt) == discretized_dims(tt) == (1, 1)

    def test_propagator_eigenvalue_near_its_defect_bound_refused(self):
        # the propagator's log defect here is about -2.1e-6; an eigenvalue
        # 1e-5 above the continuous one puts the discrete one a few bounds past 1
        near = brane(0, c=0.3, mono=[[math.exp(TWO_PI * 0.3) * (1.0 + 1e-5)]])
        with pytest.raises(NumericsError, match=r"L/r0: .* margin \|mu - 1\| / bound = [2-9]\."):
            discretized_dims(near)
        far = brane(0, c=0.3, mono=[[math.exp(TWO_PI * 0.3) * (1.0 + 1e-3)]])
        assert discretized_dims(far) == (0, 0)

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValidationError):
            discretized_dims(brane(1, c=0.0), h=0.02)

    def test_narrow_window_rejected(self):
        with pytest.raises(WindowError):
            discretized_dims(brane(1, c=0.0), big_t=1.0)

    @pytest.mark.parametrize("p,q,c", [(2, 3, 0.3), (-3, 2, 0.1)])
    def test_window_threshold_is_the_closed_form(self, p, q, c):
        # without a wiggle the weight falls by pi*|p|*T^2/q at distance T from
        # the vertex, so the narrowest valid half-width solves that = log(1e12)
        needed = -math.log(1e-12)
        comp = brane(p, q=q, c=c).geometry.components[-1]
        vertex = -(c + comp.shift) * q / p
        threshold = math.sqrt(needed * q / (math.pi * abs(p)))

        def sweep_passes(lo, hi):  # the earlier check: the peak of a 512-point sweep
            log_w = -math.copysign(TWO_PI, p) * comp.height_primitive(np.linspace(lo, hi, 512))
            return bool(np.all(log_w.max() - log_w[[0, -1]] >= needed))

        for scale, passes in ((1.001, True), (0.999, False)):
            lo, hi = vertex - scale * threshold, vertex + scale * threshold
            assert sweep_passes(lo, hi) == passes
            if passes:
                derham._validate_window(comp, lo, hi)
            else:
                with pytest.raises(WindowError, match=comp.label):
                    derham._validate_window(comp, lo, hi)

    def test_coarser_valid_grid_same_answer(self, wiggle_scene):
        tt = TwistedTransport(wiggle_scene, trivial_system(1))
        assert discretized_dims(tt, h=1 / 256) == (1, 0)


class TestRouteAgreement:
    @pytest.mark.parametrize(
        "p,q,c,wiggle,n",
        [
            (1, 1, 0.5, [(1, 0.0, 0.5)], 1),
            (2, 3, 0.25, [], 2),
            (-1, 1, 0.25, [], 1),
            (0, 1, 0.0, [(1, 0.0, 0.5)], 1),
        ],
    )
    def test_three_routes_agree(self, p, q, c, wiggle, n, rng):
        mono = random_unitary(n, rng) if n > 1 else None
        tt = brane(p, q=q, c=c, wiggle=wiggle, n=n, mono=mono)
        floer = cohomology_dims(build_complex(tt))
        assert analytic_dims(tt) == floer
        assert discretized_dims(tt) == floer


def test_case_report_structure(wiggle_scene):
    report = case_report(TwistedTransport(wiggle_scene, trivial_system(1)))
    assert len(report) == 2
    assert {entry["case"] for entry in report} == {CASE3A}
    assert all(set(entry) >= {"component", "case", "a", "b", "interval", "positives"} for entry in report)
    circle_report = case_report(brane(0, c=0.3))
    assert all("eigenvalue_one_dim" in entry for entry in circle_report)
