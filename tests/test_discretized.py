"""The discretized route's certified count against a dense SVD oracle."""

import math

import numpy as np
import pytest
from conftest import make_graph, random_unitary
from scipy.sparse import csr_matrix

from torusmirror.derham import DISCRETE_RANK_TOL, discretized_dims
from torusmirror.errors import NumericsError
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
