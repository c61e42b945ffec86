import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from torusmirror.errors import ValidationError
from torusmirror.geometry import lift_components
from torusmirror.localsys import (
    HorizontalSection,
    LocalSystem,
    TwistedTransport,
    circle_monodromy,
    quasi_unitarize,
    transport_flat,
    transport_twisted,
    trivial_system,
    unitarization_twist,
)

from conftest import make_graph, random_unitary


def _comp(graph, shift=0, window=None):
    return [c for c in lift_components(graph, window) if c.shift == shift][0]


def test_local_system_validation():
    with pytest.raises(ValidationError):
        LocalSystem(np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        LocalSystem(np.ones((2, 3)))
    assert trivial_system(3).rank == 3
    assert trivial_system(2).is_quasi_unitary()
    assert not LocalSystem([[2.0]]).is_quasi_unitary()


def test_flat_transport_seam_counting():
    i_sys = LocalSystem([[1j]])
    comp = _comp(make_graph(p=1, q=1))
    assert transport_flat(i_sys, comp, 0.1, 0.9)[0, 0] == pytest.approx(1.0)
    assert transport_flat(i_sys, comp, 0.5, 2.5)[0, 0] == pytest.approx(-1.0)
    comp2 = _comp(make_graph(p=1, q=2))
    two = LocalSystem([[2.0]])
    assert transport_flat(two, comp2, -0.5, 0.5)[0, 0] == pytest.approx(2.0)
    # half-open (t0, t1]: starting exactly on the seam does not count it
    assert transport_flat(two, comp2, 0.0, 0.5)[0, 0] == pytest.approx(1.0)
    assert transport_flat(two, comp2, -0.5, 0.0)[0, 0] == pytest.approx(2.0)
    # reversal inverts
    assert transport_flat(two, comp2, 0.5, -0.5)[0, 0] == pytest.approx(0.5)


def test_twisted_transport_gaussian():
    comp = _comp(make_graph(p=1, q=1))
    sys1 = trivial_system(1)
    for big_t in (0.5, 1.0, 2.0):
        got = transport_twisted(sys1, comp, 0.0, big_t)[0, 0]
        assert got == pytest.approx(math.exp(-math.pi * big_t**2), rel=1e-12)
    assert transport_twisted(sys1, comp, 0.7, 0.7)[0, 0] == pytest.approx(1.0)


def test_twisted_transport_matches_quadrature():
    g = make_graph(p=2, q=3, c=-0.3, wiggle=[(1, 0.2, 0.0), (2, 0.0, -0.15)])
    comp = _comp(g, shift=1)
    sys1 = trivial_system(1)
    for t0, t1 in [(-0.7, 1.3), (0.2, 4.9), (2.0, -1.0)]:
        integral, _ = quad(comp.height, t0, t1, epsabs=1e-13, epsrel=1e-13)
        k = math.floor(t1 / g.q) - math.floor(t0 / g.q)
        want = math.exp(-2 * math.pi * integral)
        assert transport_twisted(sys1, comp, t0, t1)[0, 0] == pytest.approx(want, rel=1e-10)
        assert transport_flat(sys1, comp, t0, t1)[0, 0] == pytest.approx(1.0)
        del k


@settings(max_examples=25, deadline=None)
@given(
    t0=st.floats(-2.0, 2.0),
    t1=st.floats(-2.0, 2.0),
    t2=st.floats(-2.0, 2.0),
)
def test_cocycle_and_reversal(t0, t1, t2):
    g = make_graph(p=1, q=2, c=0.1, wiggle=[(1, 0.1, 0.05)])
    comp = _comp(g)
    sys2 = LocalSystem([[0.8, 0.1j], [0.0, 1.25]])
    ab = transport_twisted(sys2, comp, t0, t1)
    bc = transport_twisted(sys2, comp, t1, t2)
    ac = transport_twisted(sys2, comp, t0, t2)
    assert np.allclose(bc @ ab, ac, atol=1e-10)
    back = transport_twisted(sys2, comp, t1, t0)
    assert np.allclose(back @ ab, np.eye(2), atol=1e-10)


def test_section_is_gaussian_on_a_rising_line_and_grows_on_a_falling_one():
    up = _comp(make_graph(p=1, q=1))
    s = HorizontalSection(trivial_system(1), up, 0.0, [1.0])
    for t in (-1.5, 0.0, 0.3, 2.0):
        assert s(t)[0] == pytest.approx(math.exp(-math.pi * t * t), rel=1e-12)
    assert s(0.0)[0] == pytest.approx(1.0)
    assert s.log_magnitude(3.0) == pytest.approx(-math.pi * 9.0, rel=1e-12)

    down = _comp(make_graph(p=-1, q=1, id="D"))
    sd = HorizontalSection(trivial_system(1), down, 0.0, [1.0])
    assert sd.log_magnitude(4.0) == pytest.approx(math.pi * 16.0, rel=1e-12)  # grows


def test_circle_monodromy_closed_form_vs_quadrature():
    g = make_graph(p=0, q=1, c=0.3, wiggle=[(1, 0.07, -0.02)])
    two = LocalSystem([[2.0]])
    for comp in lift_components(g, window=2.0):
        integral, _ = quad(comp.height, 0.0, g.q, epsabs=1e-13, epsrel=1e-13)
        want = 2.0 * math.exp(-2 * math.pi * integral)
        got = circle_monodromy(two, comp)[0, 0]
        assert got == pytest.approx(want, rel=1e-10)
        loop = transport_twisted(two, comp, 0.25, 0.25 + g.q)[0, 0]
        assert loop == pytest.approx(want, rel=1e-10)


def test_quasi_unitarize_examples():
    g1 = make_graph(p=0, q=1, c=0.3)
    ls2, mu = quasi_unitarize(LocalSystem([[2.0]]), g1)
    assert np.allclose(ls2.monodromy, [[1.0]])
    assert mu == pytest.approx(math.log(2) / (2 * math.pi), rel=1e-14)

    lsd, mud = quasi_unitarize(LocalSystem([[2.0, 0.0], [0.0, 2.0j]]), g1)
    assert np.allclose(lsd.monodromy, [[1.0, 0.0], [0.0, 1.0j]])
    assert mud == pytest.approx(math.log(2) / (2 * math.pi), rel=1e-14)
    assert lsd.is_quasi_unitary()


def test_quasi_unitarize_unitary_unchanged(rng):
    g = make_graph(p=1, q=1)
    u = LocalSystem(random_unitary(3, rng))
    ls2, mu = quasi_unitarize(u, g)
    assert mu == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(ls2.monodromy, u.monodromy, atol=1e-12)


def test_quasi_unitarize_idempotent(rng):
    g = make_graph(p=2, q=3)
    t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 3 * np.eye(2)
    ls1, mu1 = quasi_unitarize(LocalSystem(t), g)
    ls2, mu2 = quasi_unitarize(ls1, g)
    assert mu2 == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(ls2.monodromy, ls1.monodromy, atol=1e-12)
    assert mu1 != pytest.approx(0.0, abs=1e-6)


def test_unitarization_twist_restores_circle_monodromy():
    g = make_graph(p=0, q=1, c=0.3)
    sys0 = LocalSystem([[2.0]])
    ls_u, mu = quasi_unitarize(sys0, g)
    twist_graph, _ = unitarization_twist(mu)
    # tensoring shifts the offset by the twist graph's c
    shifted = make_graph(p=0, q=1, c=g.c + twist_graph.c, id="shifted")
    before = circle_monodromy(sys0, _comp(g, window=2.0))
    after = circle_monodromy(ls_u, _comp(shifted, window=2.0))
    assert np.allclose(before, after, atol=1e-12)


def test_mixed_moduli_reported_honestly():
    g = make_graph(p=0, q=1, c=0.3)
    mixed = LocalSystem([[4.0, 0.0], [0.0, 1.0]])
    ls2, mu = quasi_unitarize(mixed, g)
    assert mu == pytest.approx(math.log(2) / (2 * math.pi), rel=1e-12)
    assert not ls2.is_quasi_unitary()  # moduli 2 and 1/2 remain mixed


def test_twisted_transport_pairing():
    g = make_graph(p=1, q=1, c=0.5, wiggle=[(1, 0.0, 0.5)])
    tt = TwistedTransport(g, trivial_system(2))
    (comp,) = lift_components(g)
    assert tt.rank == 2
    assert np.allclose(transport_flat(tt.system, comp, 0.1, 0.9), np.eye(2))
    m = transport_twisted(tt.system, comp, 0.0, 1.0)
    assert np.allclose(m, np.eye(2) * m[0, 0])
