"""The discretized route's certified count against a dense SVD oracle, its
Sturm count against LAPACK's LDL^T factor (dpttrf) on the golden scenes,
and the seam gauge that makes a line's certificate free of the monodromy."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import make_graph, random_unitary
from scipy.sparse import csr_matrix

from torusmirror import derham
from torusmirror.app import load_scene
from torusmirror.derham import DISCRETE_RANK_TOL, discretized_dims
from torusmirror.errors import NumericsError, ValidationError
from torusmirror.geometry import LagrangianGraph, lift_components
from torusmirror.localsys import LocalSystem, TwistedTransport, trivial_system

H = 1.0 / 128
DATA = Path(__file__).parent / "data"


def dense_operator(comp, mono, lo, hi, res):
    """D = d/dt + 2*pi*Y~ by the midpoint rule between adjacent nodes.

    Nodes sit at lattice midpoints on [lo, hi], at spacing h = 1/res; the
    row between nodes i and i+1 is centred on a lattice point and reads
    (x_{i+1} - x_i)/h + pi*y*(x_i + x_{i+1}), with x_i carried into the next
    flat frame by the monodromy when the centre lies on q*Z.  Growing ends
    (p < 0) get a decay row x/h at each truncation."""
    g = comp.parent
    n = mono.shape[0]
    h = 1.0 / res
    first = math.floor(lo * res) + 1
    nodes = int(round((hi - lo) * res))
    d = np.zeros(((nodes - 1) * n, nodes * n), dtype=complex)
    for i in range(nodes - 1):
        k = first + i
        y = float(comp.height(np.array([k * h]))[0])
        frame = mono if k % (g.q * res) == 0 else np.eye(n)
        d[i * n : (i + 1) * n, i * n : (i + 1) * n] = (-1.0 / h + math.pi * y) * frame
        d[i * n : (i + 1) * n, (i + 1) * n : (i + 2) * n] = (1.0 / h + math.pi * y) * np.eye(n)
    if g.p < 0:
        decay = np.zeros((n, nodes * n))
        decay[:, :n] = np.eye(n) / h
        tail = np.zeros((n, nodes * n))
        tail[:, -n:] = np.eye(n) / h
        d = np.vstack([decay, d, tail])
    return d


def seam_gauge(comp, mono, lo, hi, res):
    """The seam gauge of dense_operator on [lo, hi]: P_j = T^(seams before
    node j) for every node, and each row's P: P_{i+1} for the row between
    nodes i and i + 1, and P_0 and the last node's P for the p < 0 decay
    rows.  Also the number of seams."""
    g = comp.parent
    first = math.floor(lo * res) + 1
    nodes = int(round((hi - lo) * res))
    seams = np.cumsum((first + np.arange(nodes - 1)) % (g.q * res) == 0)
    node_p = np.array([np.linalg.matrix_power(mono, int(k)) for k in np.append(0, seams)])
    row_p = node_p[1:]
    if g.p < 0:
        row_p = np.concatenate([node_p[:1], row_p, node_p[-1:]])
    return node_p, row_p, int(seams[-1])


def gauged_scalar_operator(comp, mono, lo, hi, res):
    """The scalar operator D0 (dense_operator with n = 1, T = 1), after
    checking D blockdiag(node P) = blockdiag(row P) kron(D0, I_n) for the
    operator D with the seam T, to 1e-14 relative."""
    n = mono.shape[0]
    d = dense_operator(comp, mono, lo, hi, res)
    d0 = dense_operator(comp, np.eye(1), lo, hi, res).real
    node_p, row_p, _ = seam_gauge(comp, mono, lo, hi, res)
    lhs = np.einsum("iajb,jbc->iajc", d.reshape(len(row_p), n, len(node_p), n), node_p)
    rhs = np.einsum("ij,iab->iajb", d0, row_p)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(rhs))
    return d0


def svd_dims(tt, big_t, h, rank_tol=DISCRETE_RANK_TOL):
    """(ker, coker) from singular values, with the cutoff rank_tol times the
    square root of the Gershgorin bound of the full-rank side's Gram, and
    per component label the rank_tol at which its smallest singular value
    meets the cutoff."""
    g = tt.graph
    ker = coker = 0
    flips = {}
    for comp in lift_components(g):
        vertex = -(g.c + comp.shift) * g.q / g.p
        d = dense_operator(comp, tt.system.monodromy, vertex - big_t, vertex + big_t, round(1.0 / h))
        sparse = csr_matrix(d)
        gram = sparse @ sparse.getH() if d.shape[0] < d.shape[1] else sparse.getH() @ sparse
        bound = math.sqrt(abs(gram).sum(axis=1).max())
        sigma = np.linalg.svd(d, compute_uv=False)
        rank = int(np.sum(sigma > rank_tol * bound))
        ker += d.shape[1] - rank
        coker += d.shape[0] - rank
        flips[comp.label] = sigma[-1] / bound
    return (ker, coker), flips


def refusal(error):
    """The component label and the margin sigma_min/cutoff that a refused
    line's NumericsError names."""
    found = re.fullmatch(r"component (\S+): .* margin sigma_min/cutoff = (\S+)", str(error))
    assert found, str(error)
    return found[1], float(found[2])


def period_heights(graph, hp):
    """Y at the lattice points hp, 2 hp, ..., q of one period."""
    return graph.height(np.arange(1, graph.q * round(1.0 / hp) + 1) * hp)


@pytest.mark.parametrize(
    "p,q,n,unitary",
    [
        (1, 1, 1, True),
        (-1, 1, 1, True),
        (2, 3, 1, True),
        (-2, 1, 2, True),
        (3, 1, 2, True),
        (-3, 2, 1, True),
        (-3, 1, 2, False),
        (3, 1, 3, True),
        (-3, 1, 3, False),
    ],
)
def test_certified_count_matches_dense_svd(p, q, n, unitary, rng):
    graph = make_graph(p=p, q=q, c=float(rng.uniform(0.05, 0.95)))
    mono = random_unitary(n, rng)
    if not unitary:
        mono = mono @ np.diag(np.linspace(0.5, 2.0, n))
    tt = TwistedTransport(graph, LocalSystem(mono))
    # about the narrowest window whose boundary weight is below exp(-27.63)
    big_t = 3.0 * math.sqrt(q / abs(p))
    expected = (n * p, 0) if p > 0 else (0, n * abs(p))
    dims, _ = svd_dims(tt, big_t, H)
    assert dims == expected
    assert discretized_dims(tt, h=H, big_t=big_t) == expected
    # any invertible seam T gauges away along a line, so each line is
    # certified on the scalar operator D0, and the certificate flips where
    # D0's smallest singular value meets D0's cutoff
    _, flips = svd_dims(TwistedTransport(graph, trivial_system(1)), big_t, H)
    flip = min(flips.values())
    assert discretized_dims(tt, h=H, big_t=big_t, rank_tol=0.9 * flip) == expected
    with pytest.raises(NumericsError, match=r"margin sigma_min/cutoff = ") as err:
        discretized_dims(tt, h=H, big_t=big_t, rank_tol=1.1 * flip)
    # the refused line's margin is its dense sigma_min over its cutoff
    label, margin = refusal(err.value)
    assert margin == pytest.approx(flips[label] / (1.1 * flip), rel=1e-5)
    assert margin <= 1.0


def test_failed_certificate_names_component_and_margin():
    tt = TwistedTransport(make_graph(p=1, q=1, c=0.0), trivial_system(1))
    label = lift_components(tt.graph)[0].label
    with pytest.raises(NumericsError, match=r"has 2046 singular value\(s\) at or below the cutoff") as err:
        discretized_dims(tt, rank_tol=0.5)
    # one number, not a bracket
    named, margin = refusal(err.value)
    assert named == label
    assert 0.0 < margin <= 1.0


@pytest.mark.parametrize("p,q", [(3, 1), (3, 2), (-3, 2), (-2, 3), (5, 3)])
def test_one_tiling_per_object_gives_each_line_its_own_heights(p, q):
    # the union of the lines' windows is tiled once; each line's slice plus
    # its integer lift has the bits of its own tiling of one period
    hp = 1.0 / 128
    graph = make_graph(p=p, q=q, c=0.37, wiggle=[(1, 0.05, -0.04)])
    lines = lift_components(graph)
    windows = [(comp.vertex - 2.5, comp.vertex + 2.5) for comp in lines]
    ys = period_heights(graph, hp)
    for comp, (lo, hi), heights in zip(lines, windows, derham._tiled_heights(ys, lines, windows, hp)):
        periods, k = np.divmod(math.floor(lo / hp) + np.arange(round((hi - lo) / hp) - 1), len(ys))
        assert np.array_equal(heights, ys[k] + (p * periods + comp.shift))
        nodes = (math.floor(lo / hp) + 1 + np.arange(len(heights))) * hp
        np.testing.assert_allclose(heights, comp.height(nodes), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seam_row", ["first", "last", "inside"])
@pytest.mark.parametrize(
    "p,q,n",
    [(1, 1, 1), (2, 3, 2), (-1, 1, 1), (-3, 2, 2)],
)
def test_scalar_band_with_seam_patches_matches_block_band(p, q, n, seam_row, rng):
    # the window puts a seam on its first, last or an inside row, where the
    # gauge's edge cases lie; the operator with a non-unitary seam T gauges
    # to kron(D0, I_n) there, and the scalar band is D0's Gram: D0 D0^T for
    # p > 0, D0^T D0 read backwards for p < 0
    res = 64
    hp = 1.0 / res
    graph = make_graph(p=p, q=q, c=0.3, wiggle=[(1, 0.05, -0.04)])
    comp = lift_components(graph)[0]
    mono = random_unitary(n, rng) @ np.diag(np.linspace(0.5, 2.0, n)) if n > 1 else np.array([[1.7 - 0.4j]])
    period = q * res
    nodes = 3 * period + 17
    # the first lattice row is floor(lo / hp) + 1, the last one nodes - 2 further on
    first = {"first": 5 * period, "last": 5 * period - (nodes - 2), "inside": 5 * period - 40}[seam_row]
    lo = (first - 0.5) * hp
    hi = lo + nodes * hp
    lattice = math.floor(lo / hp) + 1 + np.arange(nodes - 1)
    seams = np.flatnonzero(lattice % period == 0)
    assert {"first": 0, "last": nodes - 2, "inside": 40}[seam_row] in seams
    d0 = gauged_scalar_operator(comp, mono, lo, hi, res)
    gram = d0 @ d0.T if p > 0 else (d0.T @ d0)[::-1, ::-1]
    # the band reads Y off one period, tiled by Y(t + q) = Y(t) + p
    (heights,) = derham._tiled_heights(period_heights(graph, hp), [comp], [(lo, hi)], hp)
    diag, sub = derham._line_tridiagonal(heights, p, hp)
    band = np.diag(diag) + np.diag(sub, -1) + np.diag(sub, 1)
    assert np.max(np.abs(band - gram)) <= 1e-14 * np.max(np.abs(gram))
    want = np.abs(gram).sum(axis=1).max()
    bound = derham._row_sum_bound(diag, sub)
    assert abs(bound - want) <= 1e-15 * want
    # the Sturm count is 0 just below the smallest singular value and 1 just above
    flip = np.linalg.svd(d0, compute_uv=False)[-1]
    for scale, count in ((1.0 - 1e-6, 0), (1.0 + 1e-6, 1)):
        got, smallest = derham._gram_count(diag, sub, -bound, (scale * flip) ** 2)
        assert got == count
    assert math.sqrt(smallest) == pytest.approx(flip, rel=1e-9)


@pytest.mark.parametrize("p,q", [(2, 3), (-3, 2)])
@pytest.mark.parametrize("kind", ["non-normal", "scaled-unitary"])
def test_seam_gauge_turns_the_line_operator_into_the_scalar_one(p, q, kind, rng):
    # D blockdiag(P_j) = blockdiag(row P) kron(D0, I_n), so rank D = n rank D0
    comp = lift_components(make_graph(p=p, q=q, c=0.3, wiggle=[(1, 0.05, -0.04)]))[0]
    mono = np.array([[1.0, 5.0], [0.0, 1.0]]) if kind == "non-normal" else random_unitary(2, rng) @ np.diag([0.5, 2.0])
    big_t = 3.0 * math.sqrt(q / abs(p))
    lo, hi = comp.vertex - big_t, comp.vertex + big_t
    assert seam_gauge(comp, mono, lo, hi, 64)[2] >= 2
    gauged_scalar_operator(comp, mono, lo, hi, 64)


@pytest.mark.parametrize(
    "p,mono,expected",
    [
        (1, [[math.exp(2 * math.pi * 15)]], (1, 0)),
        (-2, [[math.exp(2 * math.pi * 15)]], (0, 2)),
        (1, np.diag([1e10, 1e-3]), (2, 0)),
    ],
    ids=["steep-p1", "steep-p-2", "spread-moduli"],
)
def test_lines_with_a_steep_monodromy_are_certified(p, mono, expected):
    # the seam T carried |T|^2 into the Gram and its cutoff (4.5e38, 5.3e7)
    # and refused these lines; the T-free certificate ranks them
    tt = TwistedTransport(make_graph(p=p, q=1, c=0.3), LocalSystem(mono))
    assert discretized_dims(tt) == expected


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_gram_is_refused(q, bad):
    graph = make_graph(p=-1, q=q, c=0.3)
    comp = lift_components(graph)[0]
    ys = period_heights(graph, 1.0 / 64)
    (heights,) = derham._tiled_heights(ys, [comp], [(-3.0, 3.0)], 1.0 / 64)
    diag, sub = derham._line_tridiagonal(heights, graph.p, 1.0 / 64)
    assert derham._gram_count(diag, sub, -derham._row_sum_bound(diag, sub), 1e-6)[0] == 0
    window = (comp.vertex - 6.0, comp.vertex + 6.0)

    def line_dims():
        (heights,) = derham._tiled_heights(ys, [comp], [window], 1.0 / 64)
        return derham._line_component_dims(heights, comp, window, 1, 1.0 / 64, DISCRETE_RANK_TOL)

    assert line_dims() == (0, 1)
    # dstebz's count is undefined on NaN, so a non-finite Gram is refused first
    ys[5] = bad
    with pytest.raises(NumericsError, match=rf"{comp.label}: the full-rank side's Gram is not finite"):
        line_dims()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rank_tol": math.nan},
        {"rank_tol": 0.0},
        {"rank_tol": 1.0},
        {"h": math.nan},
        {"h": 0.0},
        {"h": -1e-3},
        {"big_t": math.nan},
        {"big_t": math.inf},
    ],
)
def test_non_finite_or_out_of_range_arguments_refused(kwargs):
    tt = TwistedTransport(make_graph(p=1, q=1, c=0.3), trivial_system(1))
    with pytest.raises(ValidationError):
        discretized_dims(tt, **kwargs)



GOLDEN = ("verify_mixed_7", "verify_mixed_13", "crossing_dense_7", "crossing_dense_13", "edge")


def test_sturm_count_agrees_with_the_ldlt_factor_on_the_golden_lines():
    # the certificate's dstebz count is 0 exactly when LAPACK dpttrf factors
    # G - cutoff^2 I with positive pivots, at the cutoff and 10 and 100 times it
    from scipy.linalg.lapack import dpttrf

    compared = refused = 0
    for name in GOLDEN:
        scene = load_scene(DATA / f"{name}.json")
        hp = 1.0 / round(1.0 / scene.params.grid_h)
        for tt in scene.objects:
            if tt.graph.p == 0:
                continue
            lines = tt.geometry.components
            windows = [(comp.vertex - scene.params.window, comp.vertex + scene.params.window) for comp in lines]
            for comp, heights in zip(lines, derham._tiled_heights(period_heights(tt.graph, hp), lines, windows, hp)):
                diag, sub = derham._line_tridiagonal(heights, tt.graph.p, hp)
                bound = derham._row_sum_bound(diag, sub)
                for scale in (1.0, 10.0, 100.0):
                    shift = (scale * DISCRETE_RANK_TOL) ** 2 * bound
                    pivots, _, info = dpttrf(diag - shift, sub)
                    factors = info == 0 and bool(np.isfinite(pivots).all())
                    assert (derham._gram_count(diag, sub, -bound, shift)[0] == 0) is factors, comp.label
                    compared += 1
                    refused += not factors
    # both outcomes occur: a few lines are refused at 100 times the cutoff;
    # edge's p = 1000 line brings 1000 of the 1381 lines
    assert compared == 3 * 1381 and refused > 0


def test_one_pass_evaluates_y_once_per_object_and_t_once(monkeypatch):
    scene = load_scene(DATA / "verify_mixed_7.json")
    circles = [tt for tt in scene.objects if tt.graph.p == 0]
    for tt in scene.objects:
        tt.geometry  # built before the spies, as verify's earlier stages build it
    heights, svds = [], []
    height, svd = LagrangianGraph.height, np.linalg.svd

    def spied_height(self, t):
        heights.append(self.id)
        return height(self, t)

    def spied_svd(a, *args, **kwargs):
        svds.extend(tt.id for tt in circles if a is tt.system.monodromy)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(LagrangianGraph, "height", spied_height)
    monkeypatch.setattr(np.linalg, "svd", spied_svd)
    for tt in scene.objects:
        discretized_dims(tt, h=scene.params.grid_h, big_t=scene.params.window)
    assert sorted(heights) == sorted(tt.id for tt in scene.objects) and len(heights) == 15
    assert svds == [tt.id for tt in circles] and len(svds) == 1
