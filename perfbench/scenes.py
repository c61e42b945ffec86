"""Seeded scene generators for the benchmark workloads.

The generators use numpy only, never the package under test, so a seed gives
the same scene on every version of the program.  The seed draws the offset c,
the wiggle harmonics and the unitary monodromy of each object.  The grid of
(p, q, rank) is fixed per workload, so the cost of one pass over a scene
barely depends on the seed; that is what keeps runs with different seeds
comparable.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: every (p, q) with |p| <= 3, q <= 3 and gcd(|p|, q) = 1 (for p = 0 only q = 1)
PAIRS = tuple((p, q) for p in range(-3, 4) for q in (1, 2, 3) if math.gcd(abs(p), q) == 1)

#: scene parameters, the package defaults written out so the file is complete
PARAMS = {"K": 25, "grid_h": 1.0 / 512, "window": 6.0, "rank_tol": 1e-9, "dbar_tol": 1e-6}

#: every critical value of Y keeps at least this distance from the integers,
#: so no lift component comes near a tangential contact with the zero section
CRITICAL_MARGIN = 0.03

def _alternating_rank(p: int, q: int) -> int:
    """Rank 2 where |p| + q is even, else 1: a fixed mix of both ranks."""
    return 2 if (abs(p) + q) % 2 == 0 else 1


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    qmat, r = np.linalg.qr(z)
    return qmat * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _profile(p: int, q: int, c: float, harmonics: list[dict]) -> tuple[int, int, float]:
    """Critical points of Y(t) = (p/q) t + c + W(t) in one period, crossings
    of integer levels in one period, and the least distance of a critical
    value from the integers.  Y(t + q) = Y(t) + p, so one period covers every
    lift component and every integer shift: the crossings counted here are
    all crossings of all components with the zero section."""
    ts = np.linspace(0.0, q, 8192 * q + 1)
    y = (p / q) * ts + c
    slope = np.full_like(ts, p / q)
    for h in harmonics:
        w = 2.0 * math.pi * h["m"] / q
        y += h["a"] * np.cos(w * ts) + h["b"] * np.sin(w * ts)
        slope += w * (-h["a"] * np.sin(w * ts) + h["b"] * np.cos(w * ts))
    crossings = int(np.abs(np.diff(np.floor(y))).sum())
    slope, y = slope[:-1], y[:-1]
    turns = np.nonzero(np.sign(slope) != np.sign(np.roll(slope, -1)))[0]
    values = y[turns]
    margin = float(np.min(np.abs(values - np.round(values)))) if len(turns) else math.inf
    return len(turns), crossings, margin


def _random_object(oid, p, q, rank, draw_harmonics, rng, shape=None) -> dict:
    """One object; c, the harmonics and the monodromy come from rng.  Draws
    are repeated until the curve stays clear of tangency and, when `shape`
    is given, has exactly that many (critical points, crossings) per period."""
    while True:
        c = float(rng.uniform(0.1, 0.9))
        harmonics = draw_harmonics(rng)
        turns, crossings, margin = _profile(p, q, c, harmonics)
        if margin >= CRITICAL_MARGIN and shape in (None, (turns, crossings)):
            break
    u = _haar_unitary(rank, rng)
    return {
        "id": oid,
        "q": q,
        "p": p,
        "c": c,
        "wiggle": harmonics,
        "local_system": {
            "rank": rank,
            "monodromy": [[[float(z.real), float(z.imag)] for z in row] for row in u],
        },
    }


def _small_harmonic(rng) -> list[dict]:
    """One m = 1 harmonic of amplitude at most 0.2."""
    r = float(rng.uniform(0.0, 0.2))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return [{"m": 1, "a": r * math.cos(phase), "b": r * math.sin(phase)}]


def _dense_harmonics(rng) -> list[dict]:
    """Harmonics m = 1..4 with |a| + |b| = 0.6/m (amplitude at most 0.6/m),
    split and signed at random; the fixed sum fixes the scan intervals."""
    out = []
    for m in (1, 2, 3, 4):
        split = float(rng.uniform(0.0, 1.0))
        sa, sb = rng.choice((-1.0, 1.0), size=2)
        out.append({"m": m, "a": float(sa) * 0.6 / m * split, "b": float(sb) * 0.6 / m * (1.0 - split)})
    return out


def verify_mixed(seed: int) -> dict:
    """The ROADMAP baseline family: one m = 1 harmonic of amplitude <= 0.2."""
    rng = np.random.default_rng(seed)
    objects = [
        _random_object(f"o{i:02d}_p{p}_q{q}", p, q, _alternating_rank(p, q), _small_harmonic, rng)
        for i, (p, q) in enumerate(PAIRS)
    ]
    return {"objects": objects, "params": dict(PARAMS)}


#: (critical points, crossings) per period of a crossing_dense curve, by |p|:
#: the most frequent shape of the draws, fixed so that a pass costs nearly
#: the same for every seed
DENSE_SHAPE = {0: (6, 4), 1: (6, 3), 2: (4, 4), 3: (4, 5)}


def crossing_dense(seed: int) -> dict:
    """Harmonics m = 1..4 and ranks 1-3: the wiggle's slope dominates p/q,
    so every curve turns and crosses several times per period."""
    rng = np.random.default_rng(seed)
    objects = [
        _random_object(f"o{i:02d}_p{p}_q{q}", p, q, 1 + i % 3, _dense_harmonics, rng, DENSE_SHAPE[abs(p)])
        for i, (p, q) in enumerate(PAIRS)
    ]
    return {"objects": objects, "params": dict(PARAMS)}


GENERATORS = {"verify_mixed": verify_mixed, "crossing_dense": crossing_dense}


def write_scene(scene: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(scene, indent=1) + "\n")
