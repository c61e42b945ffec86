"""The discretized route's certified count against a dense SVD oracle."""

import math

import numpy as np
import pytest
from conftest import make_graph, random_unitary
from scipy.linalg import cholesky_banded, eigvals_banded
from scipy.sparse import csr_matrix

from torusmirror import derham
from torusmirror.derham import DISCRETE_RANK_TOL, discretized_dims
from torusmirror.errors import NumericsError, ValidationError
from torusmirror.geometry import lift_components
from torusmirror.localsys import LocalSystem, TwistedTransport, trivial_system

H = 1.0 / 128


def dense_operator(comp, mono, big_t, h):
    """D = d/dt + 2*pi*Y~ by the midpoint rule between adjacent nodes.

    Nodes sit at lattice midpoints on [vertex - big_t, vertex + big_t]; the
    row between nodes i and i+1 is centred on a lattice point and reads
    (x_{i+1} - x_i)/h + pi*y*(x_i + x_{i+1}), with x_i carried into the next
    flat frame by the monodromy when the centre lies on q*Z.  Growing ends
    (p < 0) get a decay row x/h at each truncation."""
    g = comp.parent
    n = mono.shape[0]
    res = round(1.0 / h)
    vertex = -(g.c + comp.shift) * g.q / g.p
    first = math.floor((vertex - big_t) * res) + 1
    nodes = int(round(2 * big_t * res))
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


def svd_dims(tt, big_t, h, rank_tol=DISCRETE_RANK_TOL):
    """(ker, coker) from singular values, with the cutoff rank_tol times the
    square root of the Gershgorin bound of the full-rank side's Gram, and
    the rank_tol at which the smallest such singular value meets the cutoff."""
    ker = coker = 0
    flip = math.inf
    for comp in lift_components(tt.graph):
        d = dense_operator(comp, tt.system.monodromy, big_t, h)
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
        # a unitary seam can be gauged away along a line; this one cannot
        mono = mono @ np.diag(np.linspace(0.5, 2.0, n))
    tt = TwistedTransport(graph, LocalSystem(mono))
    # about the narrowest window whose boundary weight is below exp(-27.63)
    big_t = 3.0 * math.sqrt(q / abs(p))
    expected = (n * p, 0) if p > 0 else (0, n * abs(p))
    dims, flip = svd_dims(tt, big_t, H)
    assert dims == expected
    assert discretized_dims(tt, h=H, big_t=big_t) == expected
    # the certificate flips where the dense smallest singular value meets the cutoff
    assert discretized_dims(tt, h=H, big_t=big_t, rank_tol=0.9 * flip) == expected
    with pytest.raises(NumericsError, match=r"margin sigma_min/cutoff in \(0\.5, 1\]"):
        discretized_dims(tt, h=H, big_t=big_t, rank_tol=1.1 * flip)


def test_failed_certificate_names_component_and_margin():
    tt = TwistedTransport(make_graph(p=1, q=1, c=0.0), trivial_system(1))
    label = lift_components(tt.graph)[0].label
    with pytest.raises(NumericsError, match=r"margin sigma_min/cutoff in \(") as err:
        discretized_dims(tt, rank_tol=0.5)
    assert label in str(err.value)


def dense_block_band(comp, t_mono, lo, hi, hp, res):
    """The lower Gram band (band[k, j] = G[j + k, j]) built from one n x n
    block per grid node (batched products and a skew of the block columns
    into band rows): the reference for the tridiagonal with seam blocks."""
    g = comp.parent
    n = t_mono.shape[0]
    n_nodes = int(round((hi - lo) / hp))
    lattice = math.floor(lo / hp) + 1 + np.arange(n_nodes - 1)
    ys = comp.height(lattice * hp)
    left = -1.0 / hp + math.pi * ys
    right = (1.0 / hp + math.pi * ys)[:, None, None]
    eye = np.eye(n)
    blocks = np.where((lattice % (g.q * res) == 0)[:, None, None], t_mono, eye) * left[:, None, None]
    blocks_h = blocks.conj().transpose(0, 2, 1)
    if g.p > 0:
        diag, sub = blocks @ blocks_h + right**2 * eye, right[:-1] * blocks[1:]
    else:
        diag = np.zeros((n_nodes, n, n), dtype=complex)
        diag[:-1] += blocks_h @ blocks
        diag[1:] += right**2 * eye
        diag[[0, -1]] += eye / (hp * hp)
        sub = right * blocks
    stacked = np.concatenate([diag, np.concatenate([sub, np.zeros_like(sub[:1])])], axis=1)
    rows = np.arange(2 * n)[:, None] + np.arange(n)
    band = np.where(rows < 2 * n, stacked[:, np.minimum(rows, 2 * n - 1), np.arange(n)], 0.0)
    return band.transpose(1, 0, 2).reshape(2 * n, -1)


def band_row_sums(band):
    """Absolute row sums of the Hermitian matrix stored in band."""
    mag = np.abs(band)
    rows = mag.sum(axis=0)
    for k in range(1, len(mag)):
        rows[k:] += mag[k, :-k]
    return rows


def band_factors(band, sigma):
    shifted = band.copy()
    shifted[0] -= sigma * sigma
    try:
        cholesky_banded(shifted, lower=True)
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("seam_row", ["first", "last", "inside"])
@pytest.mark.parametrize(
    "p,q,n",
    [(1, 1, 1), (2, 3, 2), (-1, 1, 1), (-3, 2, 2)],
)
def test_scalar_band_with_seam_patches_matches_block_band(p, q, n, seam_row, rng):
    res = 64
    hp = 1.0 / res
    graph = make_graph(p=p, q=q, c=0.3, wiggle=[(1, 0.05, -0.04)])
    comp = lift_components(graph)[0]
    # not unitary: T T^H and T^H T differ, so each side's seam blocks are tested
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
    band = dense_block_band(comp, mono, lo, hi, hp, res)
    gram = derham._line_tridiagonal(comp, mono, lo, hi, hp, res)
    want = band_row_sums(band).max()
    assert abs(derham._row_sum_bound(gram) - want) <= 1e-15 * want
    # the factor exists just below the smallest singular value and not just above
    flip = math.sqrt(eigvals_banded(band, lower=True, select="i", select_range=(0, 0))[0])
    for scale, exists in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
        assert band_factors(band, scale * flip) is exists
        assert derham._factors(gram, scale * flip) is exists


@pytest.mark.parametrize("n", [2, 3])
def test_negative_slope_line_has_one_special_row_per_seam(n, rng):
    # G = D^H D is assembled as the p > 0 Gram of the reversed operator, so
    # each seam enters one row, as it does for p > 0
    res = 64
    hp = 1.0 / res
    comp = lift_components(make_graph(p=-1, q=1, c=0.3))[0]
    mono = random_unitary(n, rng) @ np.diag(np.linspace(0.5, 2.0, n))
    gram = derham._line_tridiagonal(comp, mono, -3.0, 3.0, hp, res)
    lattice = math.floor(-3.0 / hp) + 1 + np.arange(6 * res - 1)
    seams = np.flatnonzero(lattice % res == 0)
    assert len(seams) == 5
    assert len(gram.diag) == 6 * res
    assert len(gram.rows) == len(gram.blocks) == len(gram.into) == len(seams)


@pytest.mark.parametrize("n", [1, 2])
def test_non_finite_pivot_is_no_factor(n, rng):
    graph = make_graph(p=-1, q=1, c=0.3)
    comp = lift_components(graph)[0]
    mono = random_unitary(n, rng) @ np.diag(np.linspace(0.5, 2.0, n))
    gram = derham._line_tridiagonal(comp, mono, -3.0, 3.0, 1.0 / 64, 64)
    assert derham._factors(gram, 1e-3)
    # dpttrf lets NaN pivots through without an error
    assert not derham._factors(gram, math.nan)


def dense_gram(gram):
    """G in full from its scalar tridiagonal and its special rows."""
    n = gram.blocks.shape[1]
    eye = np.eye(n)
    dense = np.kron(np.diag(gram.diag) + np.diag(gram.sub, -1) + np.diag(gram.sub, 1), eye).astype(complex)
    for r, block, into in zip(gram.rows, gram.blocks, gram.into):
        dense[n * r : n * (r + 1), n * r : n * (r + 1)] = block
        if r > 0:
            dense[n * r : n * (r + 1), n * (r - 1) : n * r] = into
            dense[n * (r - 1) : n * r, n * r : n * (r + 1)] = into.conj().T
    return dense


def test_first_non_positive_pivot_at_a_seam_row(rng):
    # every scalar row is diagonally dominant (least eigenvalue above 2 on the
    # rows before the seam), while the seam block at row 6 has an eigenvalue 1
    # that its couplings push lower still
    n, rows, seam = 2, 12, 6
    u = random_unitary(n, rng)
    block = u @ np.diag([4.0, 1.0]) @ u.conj().T
    gram = derham._LineGram(
        np.full(rows, 4.0), np.ones(rows - 1), np.array([seam]), block[None], random_unitary(n, rng)[None]
    )
    dense = dense_gram(gram)

    def least(k):
        """Least eigenvalue of G's leading k block rows and columns."""
        return float(np.linalg.eigvalsh(dense[: n * k, : n * k])[0])

    assert least(seam) > 2.0 > least(seam + 1) > least(rows) > 0.0
    at_seam = (1.0 + 1e-6) * math.sqrt(least(seam + 1))
    for sigma in ((1.0 - 1e-6) * math.sqrt(least(rows)), (1.0 + 1e-6) * math.sqrt(least(rows)), at_seam, 1.5):
        definite = [least(k) > sigma * sigma for k in range(1, rows + 1)]
        assert derham._factors(gram, sigma) is definite[-1]
    # at this shift the first non-positive pivot is the seam row's, and the
    # factor stops at its eigh
    assert [least(k) > at_seam**2 for k in range(1, rows + 1)].index(False) == seam


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


def test_row_sum_bound_where_the_row_above_a_seam_is_largest():
    # p > 0: the row above seam s meets G[s - 1, s] = G[s, s - 1]^H, so it
    # sums a column of |T|; this T's first column outweighs every row sum
    res = 64
    hp = 1.0 / res
    comp = lift_components(make_graph(p=1, q=1, c=0.3))[0]
    mono = np.array([[0.5, 0.0], [0.6, 0.01]])
    lo = (5 * res - 40.5) * hp
    hi = lo + (3 * res + 17) * hp
    band = dense_block_band(comp, mono, lo, hi, hp, res)
    rows = band_row_sums(band)
    assert int(np.argmax(rows)) == 2 * 39  # the first channel of the row above the seam at 40
    want = rows.max()
    assert abs(derham._row_sum_bound(derham._line_tridiagonal(comp, mono, lo, hi, hp, res)) - want) <= 1e-15 * want
