import os
from pathlib import Path

import numpy as np
import pytest

from torusmirror.geometry import Harmonic, LagrangianGraph


def make_graph(p=0, q=1, c=0.0, wiggle=(), id="L"):
    return LagrangianGraph(id=id, q=q, p=p, c=c, wiggle=tuple(Harmonic(*w) for w in wiggle))


@pytest.fixture
def wiggle_scene():
    # three crossings on one line: P(-0.868), N(-0.5), P(-0.132)
    return make_graph(p=1, q=1, c=0.5, wiggle=[(1, 0.0, 0.5)])


def package_env():
    """Environment for a child interpreter that imports the package from this checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    qmat, r = np.linalg.qr(z)
    return qmat * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
