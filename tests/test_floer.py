import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusmirror.errors import TransversalityError
from torusmirror.floer import (
    boundary_transport_differential,
    build_complex,
    cohomology_dims,
    complex_report,
    matrix_rank,
)
from torusmirror.localsys import LocalSystem, TwistedTransport, quasi_unitarize, trivial_system, unitarization_twist

from conftest import make_graph, random_unitary

WIGGLE_D_ENTRY = 0.6621786228747968  # exp(2*pi*A) for both wiggle-scene arcs, frozen


def brane(p=0, q=1, c=0.0, wiggle=(), system=None, id="L"):
    return TwistedTransport(make_graph(p=p, q=q, c=c, wiggle=wiggle, id=id), system or trivial_system(1))


def test_increasing_line_pair():
    fc = build_complex(brane(p=2, c=0.25))
    assert (fc.dim_f0, fc.dim_f1) == (2, 0)
    assert fc.d.shape == (0, 2)
    assert cohomology_dims(fc) == (2, 0)


def test_wiggle_scene_complex(wiggle_scene):
    fc = build_complex(TwistedTransport(wiggle_scene, trivial_system(1)))
    assert (fc.dim_f0, fc.dim_f1) == (2, 1)
    assert fc.d.shape == (1, 2)
    assert fc.d[0, 0] == pytest.approx(WIGGLE_D_ENTRY, rel=1e-10)
    assert fc.d[0, 1] == pytest.approx(-WIGGLE_D_ENTRY, rel=1e-10)
    assert matrix_rank(fc.d) == 1
    assert cohomology_dims(fc) == (1, 0)


def test_decreasing_line():
    fc = build_complex(brane(p=-1, c=0.25))
    assert (fc.dim_f0, fc.dim_f1) == (0, 1)
    assert cohomology_dims(fc) == (0, 1)


def test_circle_with_crossings_trivial_factor():
    fc = build_complex(brane(p=0, wiggle=[(1, 0.0, 0.5)]))
    assert (fc.dim_f0, fc.dim_f1) == (1, 1)
    # both arcs weigh exp(-1) and the trivial monodromy cancels them
    assert fc.d[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert cohomology_dims(fc) == (1, 1)


def test_circle_with_crossings_nontrivial_factor():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fc = build_complex(brane(p=0, wiggle=[(1, 0.0, 0.5)], system=LocalSystem([[2.0]])))
    assert fc.d[0, 0] == pytest.approx(math.exp(-1.0) * 0.5, rel=1e-10)
    assert cohomology_dims(fc) == (0, 0)


def _assert_routes_agree(tt):
    fc = build_complex(tt)
    alt = boundary_transport_differential(tt)
    assert fc.d.shape == alt.shape
    assert np.max(np.abs(fc.d - alt), initial=0.0) <= 1e-9


def test_boundary_transport_matches_on_scenes(wiggle_scene):
    _assert_routes_agree(TwistedTransport(wiggle_scene, trivial_system(1)))
    _assert_routes_agree(brane(p=2, c=0.25))  # empty boundary set, zero matrix
    _assert_routes_agree(brane(p=-2, c=0.3, q=1))
    _assert_routes_agree(brane(p=0, wiggle=[(1, 0.0, 0.5)]))
    _assert_routes_agree(brane(p=1, q=2, c=0.2, wiggle=[(1, 0.3, -0.2), (3, 0.0, 0.1)]))
    _assert_routes_agree(brane(p=3, q=2, c=-0.4, wiggle=[(1, 0.15, 0.1)]))


def test_boundary_transport_rank2_blocks(wiggle_scene):
    tt = TwistedTransport(wiggle_scene, LocalSystem(np.diag([1.0, -1.0])))
    fc = build_complex(tt)
    assert fc.d.shape == (2, 4)
    # no arc crosses the seam here, so blocks are scalar multiples of identity
    assert fc.d[0, 1] == 0.0 and fc.d[1, 0] == 0.0
    assert fc.d[0, 0] == pytest.approx(fc.d[1, 1], rel=1e-12)
    _assert_routes_agree(tt)


def test_seam_crossing_arcs_scale_with_scalar():
    # crossings around the seam: P(-0.268), N(0.1), P(0.468); the arc into
    # N from the left crosses t=0, the one from the right does not
    wig = [(1, 0.29389262614623657, -0.40450849718747373)]
    base = build_complex(brane(p=1, c=-0.1, wiggle=wig))
    s = 1j
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scaled = build_complex(brane(p=1, c=-0.1, wiggle=wig, system=LocalSystem([[s]])))
    assert scaled.d[0, 0] == pytest.approx(s * base.d[0, 0], rel=1e-10)
    assert scaled.d[0, 1] == pytest.approx(base.d[0, 1], rel=1e-10)
    assert np.allclose(np.abs(scaled.d), np.abs(base.d))
    assert cohomology_dims(scaled) == cohomology_dims(base) == (1, 0)


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([1, 2, -1]),
    a1=st.floats(-0.35, 0.35),
    b1=st.floats(-0.35, 0.35),
    b2=st.floats(-0.1, 0.1),
)
# the crossing at t = 0.25 lies on a double knot of the scan
@example(p=-1, a1=-0.095703125, b1=0.0, b2=-0.02734375)
def test_hamiltonian_invariance(p, a1, b1, b2):
    straight = build_complex(brane(p=p, c=0.25))
    try:
        wiggled = build_complex(brane(p=p, c=0.25, wiggle=[(1, a1, b1), (2, 0.0, b2)]))
    except TransversalityError:
        return
    assert cohomology_dims(wiggled) == cohomology_dims(straight)


@settings(max_examples=20, deadline=None)
@given(
    p=st.sampled_from([-2, -1, 0, 1, 3]),
    n=st.sampled_from([1, 2]),
    c=st.floats(0.05, 0.95),
    b1=st.floats(-0.4, 0.4),
)
# a subnormal wiggle: unscaled, its Laurent coefficients overflow np.roots
@example(p=0, n=1, c=0.5, b1=2.225073858507e-311)
def test_euler_characteristic(p, n, c, b1):
    rng = np.random.default_rng(7)
    tt = TwistedTransport(
        make_graph(p=p, q=1, c=c, wiggle=[(1, 0.0, b1)]),
        LocalSystem(random_unitary(n, rng)),
    )
    try:
        h0, h1 = cohomology_dims(build_complex(tt))
    except TransversalityError:
        return
    assert h0 - h1 == n * p


def test_quasi_unitarize_leaves_dims_invariant():
    wig = [(1, 0.0, 0.5)]
    g = make_graph(p=0, q=1, c=0.0, wiggle=wig)
    sys0 = LocalSystem([[2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        before = cohomology_dims(build_complex(TwistedTransport(g, sys0)))
    ls_u, mu = quasi_unitarize(sys0, g)
    twist_graph, _ = unitarization_twist(mu)
    shifted = make_graph(p=0, q=1, c=g.c + twist_graph.c, wiggle=wig, id="shifted")
    after = cohomology_dims(build_complex(TwistedTransport(shifted, ls_u)))
    assert before == after == (0, 0)


def test_complex_report_shape(wiggle_scene):
    fc = build_complex(TwistedTransport(wiggle_scene, trivial_system(1)))
    rep = complex_report(fc)
    assert rep["F0"] == 2 and rep["F1"] == 1
    assert rep["h0"] == 1 and rep["h1"] == 0 and rep["euler"] == 1
    assert rep["d"][0][0][0] == pytest.approx(WIGGLE_D_ENTRY, rel=1e-10)
    assert rep["d"][0][1][1] == 0.0  # imaginary part of a real entry
