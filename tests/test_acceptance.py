"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL` line (visible with
-s or -rA) in addition to pytest's own verdict.
"""

import functools
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import make_graph, package_env, random_unitary

from torusmirror.derham import analytic_dims, case_report, classify_components, discretized_dims
from torusmirror.floer import boundary_transport_differential, build_complex, cohomology_dims, matrix_rank
from torusmirror.fourier import (
    MirrorPoint,
    dbar_residual,
    poincare_holonomy,
    standard_section,
    tensor_compat_check,
    theta_eval,
    unit_object,
)
from torusmirror.geometry import lift_components, zero_crossings
from torusmirror.localsys import (
    LocalSystem,
    TwistedTransport,
    quasi_unitarize,
    trivial_system,
    unitarization_twist,
)

TWO_PI = 2.0 * math.pi


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} {title}: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} {title}: PASS")

        return wrapper

    return decorate


def brane(p, q=1, c=0.0, wiggle=(), system=None):
    graph = make_graph(p=p, q=q, c=c, wiggle=wiggle)
    return TwistedTransport(graph, system if system is not None else trivial_system(1))


@criterion(1, "straight-line family dims and Euler")
def test_criterion_01_straight_line_family():
    rng = np.random.default_rng(314159)
    pairs = [
        (p, q)
        for p in (-3, -2, -1, 1, 2, 3)
        for q in (1, 2, 3)
        if math.gcd(abs(p), q) == 1
    ]
    assert len(pairs) == 14
    for p, q in pairs:
        for c in (0.25, 0.7):
            for n in (1, 2):
                tt = brane(p, q=q, c=c, system=LocalSystem(random_unitary(n, rng)))
                expected = (n * p, 0) if p > 0 else (0, n * abs(p))
                dims = cohomology_dims(build_complex(tt))
                assert dims == expected, f"floer dims {dims} != {expected} at {(p, q, c, n)}"
                assert analytic_dims(tt) == dims, f"analytic mismatch at {(p, q, c, n)}"
                assert discretized_dims(tt, h=1 / 256) == dims, f"discretized mismatch at {(p, q, c, n)}"
                assert dims[0] - dims[1] == n * p, f"Euler mismatch at {(p, q, c, n)}"


@criterion(2, "wiggle scene: 3 crossings, rank 1, dims (1,0) thrice")
def test_criterion_02_wiggle_scene(wiggle_scene):
    tt = TwistedTransport(wiggle_scene, trivial_system(1))
    points = [pt for comp in lift_components(wiggle_scene) for pt in zero_crossings(comp)]
    assert len(points) == 3
    assert sum(1 for pt in points if pt.is_positive) == 2
    assert sum(1 for pt in points if not pt.is_positive) == 1
    fc = build_complex(tt)
    assert matrix_rank(fc.d) == 1
    assert cohomology_dims(fc) == (1, 0)
    assert analytic_dims(tt) == (1, 0)
    assert discretized_dims(tt) == (1, 0)


@criterion(3, "differential double-computation to 1e-9 on 20 scenes")
def test_criterion_03_differential_routes():
    rng = np.random.default_rng(271828)
    scenes = []
    while len(scenes) < 15:
        p = int(rng.choice([-2, -1, 1, 2, 3]))
        q = int(rng.choice([1, 2, 3]))
        if p != 0 and math.gcd(abs(p), q) != 1:
            continue
        wiggle = [(1, float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-0.2, 0.2)))]
        n = int(rng.choice([1, 2]))
        scenes.append(
            brane(p, q=q, c=float(rng.uniform(0.1, 0.9)), wiggle=wiggle,
                  system=LocalSystem(random_unitary(n, rng)))
        )
    while len(scenes) < 20:
        scenes.append(
            brane(0, c=0.0, wiggle=[(1, 0.0, float(rng.uniform(0.3, 0.6)))],
                  system=LocalSystem(random_unitary(1, rng)))
        )
    for tt in scenes:
        fc = build_complex(tt)
        other = boundary_transport_differential(tt)
        if fc.d.size:
            assert np.max(np.abs(fc.d - other)) <= 1e-9
        else:
            assert other.size == 0


@criterion(4, "theta value at (0,0) and quasi-periodicity")
def test_criterion_04_theta_value():
    section = standard_section(brane(1, c=0.0), K=25)
    oracle = sum(math.exp(-math.pi * k * k) for k in range(-40, 41))
    value = theta_eval(section, MirrorPoint(0.0, 0.0))
    assert abs(value.values[0, 0] - oracle) <= 1e-9
    assert abs(oracle - 1.086434811213) <= 1e-12
    rng = np.random.default_rng(5)
    for _ in range(20):
        t, x = rng.uniform(0.0, 1.0, 2)
        lhs = theta_eval(section, MirrorPoint(t, x + 1.0)).values[0, 0]
        rhs = np.exp(2j * math.pi * t) * theta_eval(section, MirrorPoint(t, x)).values[0, 0]
        assert abs(lhs - rhs) <= 1e-10


@criterion(5, "holomorphicity: gauge test and dbar residual with Richardson decay")
def test_criterion_05_holomorphicity():
    section = standard_section(brane(1, c=0.0), K=25)

    def gauge(t, x):
        return theta_eval(section, MirrorPoint(t, x)).values[0, 0] * math.exp(math.pi * x * x)

    h = 1e-3
    rng = np.random.default_rng(6)
    for _ in range(8):
        t, x = rng.uniform(0.1, 0.9, 2)
        dx = (gauge(t, x - 2 * h) - 8 * gauge(t, x - h) + 8 * gauge(t, x + h) - gauge(t, x + 2 * h)) / (12 * h)
        dt = (gauge(t - 2 * h, x) - 8 * gauge(t - h, x) + 8 * gauge(t + h, x) - gauge(t + 2 * h, x)) / (12 * h)
        assert abs(0.5 * (dx + 1j * dt)) <= 1e-6 * max(1.0, abs(gauge(t, x)))
    for _ in range(12):
        t, x = rng.uniform(0.1, 0.9, 2)
        assert dbar_residual(section, MirrorPoint(t, x), h=1e-3) <= 1e-6
    coarse = dbar_residual(section, MirrorPoint(0.35, 0.2), h=2e-3)
    fine = dbar_residual(section, MirrorPoint(0.35, 0.2), h=1e-3)
    assert coarse / fine >= 3.5  # at least second order


@criterion(6, "Poincare curvature: rectangle holonomy to 1e-9")
def test_criterion_06_poincare_curvature():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v0, x0 = rng.uniform(-2.0, 2.0, 2)
        dv, dx = rng.uniform(-1.5, 1.5, 2)
        got = poincare_holonomy((v0, v0 + dv), (x0, x0 + dx))
        want = np.exp(-2j * math.pi * dv * dx)
        assert abs(got - want) <= 1e-9


@criterion(7, "tensor compatibility and unit identity")
def test_criterion_07_tensor_compatibility():
    canonical = brane(1, c=0.0)
    worst = tensor_compat_check(canonical, canonical, grid=(10, 10), K=30)
    assert worst <= 1e-8
    wiggled = brane(2, c=0.3, wiggle=[(1, 0.1, -0.05)])
    assert tensor_compat_check(wiggled, unit_object(1), grid=(4, 4), K=30) <= 1e-12


@criterion(8, "quasi-unitarization and twist-paired dims")
def test_criterion_08_quasi_unitarization():
    graph = make_graph(p=0, q=1, c=0.0, wiggle=[(1, 0.0, 0.5)])
    unitarized, mu = quasi_unitarize(LocalSystem([[2.0]]), graph)
    assert abs(mu - math.log(2.0) / TWO_PI) <= 1e-15
    assert np.allclose(unitarized.monodromy, [[1.0]], atol=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        before = cohomology_dims(build_complex(TwistedTransport(graph, LocalSystem([[2.0]]))))
    twist_graph, _ = unitarization_twist(mu)
    shifted = make_graph(p=0, q=1, c=graph.c + twist_graph.c, wiggle=[(1, 0.0, 0.5)])
    after = cohomology_dims(build_complex(TwistedTransport(shifted, unitarized)))
    assert before == after == (0, 0)


@criterion(9, "acyclic circles: (0,0) both routes, no eigenvalue 1")
def test_criterion_09_acyclic_circles():
    tt = brane(0, c=0.3)
    assert analytic_dims(tt) == (0, 0)
    assert discretized_dims(tt) == (0, 0)
    cases = classify_components(tt)
    assert cases and all(case.case == "case1" for case in cases)
    report = case_report(tt)
    assert all(entry["eigenvalue_one_dim"] == 0 for entry in report)


@criterion(10, "tangential scene rejected with exit code 2")
def test_criterion_10_degeneracy_handling(tmp_path):
    scene = {
        "objects": [
            {
                "id": "tangent",
                "q": 1,
                "p": 1,
                "c": -0.5,
                "wiggle": [{"m": 1, "a": 0.0, "b": 1.0 / TWO_PI}],
                "local_system": {"rank": 1, "monodromy": [[[1.0, 0.0]]]},
            }
        ]
    }
    path = tmp_path / "tangent.json"
    path.write_text(json.dumps(scene))
    result = subprocess.run(
        [sys.executable, "-m", "torusmirror.cli", "verify", "--scene", str(path)],
        env=package_env(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "Y'" in result.stderr
