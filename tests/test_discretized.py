"""The discretized route's certified count against a dense SVD oracle, and
the seam gauge that makes a line's certificate free of the monodromy."""

import math

import numpy as np
import pytest
from conftest import make_graph, random_unitary
from scipy.sparse import csr_matrix

from torusmirror import derham
from torusmirror.derham import DISCRETE_RANK_TOL, discretized_dims
from torusmirror.errors import NumericsError, ValidationError
from torusmirror.geometry import lift_components
from torusmirror.localsys import LocalSystem, TwistedTransport, trivial_system

H = 1.0 / 128


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
    the rank_tol at which the smallest such singular value meets the cutoff."""
    g = tt.graph
    ker = coker = 0
    flip = math.inf
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
        flip = min(flip, sigma[-1] / bound)
    return (ker, coker), flip


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
    _, flip = svd_dims(TwistedTransport(graph, trivial_system(1)), big_t, H)
    assert discretized_dims(tt, h=H, big_t=big_t, rank_tol=0.9 * flip) == expected
    with pytest.raises(NumericsError, match=r"margin sigma_min/cutoff in \(0\.5, 1\]"):
        discretized_dims(tt, h=H, big_t=big_t, rank_tol=1.1 * flip)


def test_failed_certificate_names_component_and_margin():
    tt = TwistedTransport(make_graph(p=1, q=1, c=0.0), trivial_system(1))
    label = lift_components(tt.graph)[0].label
    with pytest.raises(NumericsError, match=r"margin sigma_min/cutoff in \(") as err:
        discretized_dims(tt, rank_tol=0.5)
    assert label in str(err.value)


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
    diag, sub = derham._line_tridiagonal(comp, lo, hi, hp, res)
    band = np.diag(diag) + np.diag(sub, -1) + np.diag(sub, 1)
    assert np.max(np.abs(band - gram)) <= 1e-14 * np.max(np.abs(gram))
    want = np.abs(gram).sum(axis=1).max()
    assert abs(derham._row_sum_bound(diag, sub) - want) <= 1e-15 * want
    # the factor exists just below the smallest singular value and not just above
    flip = np.linalg.svd(d0, compute_uv=False)[-1]
    for scale, exists in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
        assert derham._factors(diag, sub, scale * flip) is exists


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
def test_non_finite_pivot_is_no_factor(q):
    comp = lift_components(make_graph(p=-1, q=q, c=0.3))[0]
    diag, sub = derham._line_tridiagonal(comp, -3.0, 3.0, 1.0 / 64, 64)
    assert derham._factors(diag, sub, 1e-3)
    # dpttrf lets NaN pivots through without an error
    assert not derham._factors(diag, sub, math.nan)


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

