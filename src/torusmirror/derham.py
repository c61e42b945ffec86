"""De Rham cohomology of twisted rapidly-decreasing sections, two ways.

The analytic route reads each lift component's asymptotics, not the
crossing record: a line's weight exp(-(a t^2/2 + b t)) decays for p > 0,
giving (n, 0) per line, and grows for p < 0, giving (0, n); a circle gives
(k, k) for an eigenvalue-1 block of size k of its twisted monodromy.  The
explicit integral solver is spot-checked against exact solutions.  The
discretized route puts the covariant derivative on a midpoint grid per
line, with the seam matrix T where the lattice meets t in q*Z.  A line is
contractible, so the gauge that carries each node into the frame before
the first seam turns its operator into the scalar operator D0 times I_n,
and the line is certified on D0: its index is +-1 by shape, and one
Sturm count of the full-rank side's real tridiagonal Gram (for p < 0, read
backwards) certifies the singular-value margin of that side, which fixes
kernel and cokernel.  The count is one LAPACK dstebz call per line,
scipy's one runtime use; a refused line takes one more for its margin.  Y
is evaluated once per object, on one period's lattice points, and every
circle shift shares it.  The lines tile it by Y(t + q) = Y(t) + p once per
object, over the union of their windows (one divmod and one gather), and
each line takes its slice plus its integer lift.  T enters
circles only: they reduce to the discrete loop propagator P = T lambda_h,
whose fixed space counts the singular values of P - I within its own
defect bound, or is 0 by moduli alone.

classify_components cuts every component at its negative crossings, for
the derham CLI's case table.  Case tags: case1 = closed circle (no
crossings); case2 = finite interval between two negative points; case3a =
interval with an infinite end and decaying weight (slope > 0, one positive
point); case3b = infinite end with growing weight (slope < 0, no positive
point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, UnsupportedError, ValidationError, WindowError
from .floer import RANK_TOL
from .geometry import CIRCLE, LiftComponent
from .localsys import TwistedTransport, circle_monodromy, twist_exponent

TWO_PI = 2.0 * math.pi

CASE1 = "case1"
CASE2 = "case2"
CASE3A = "case3a"
CASE3B = "case3b"

#: a loop propagator eigenvalue further from 1 than the propagator's defect
#: bound but within this multiple of it is too close to call
PROPAGATOR_MARGIN = 10.0

#: relative singular-value cutoff for the discretized operator: the discrete
#: kernel/cokernel vectors carry O(h^2) residuals, far above floer's 1e-9
DISCRETE_RANK_TOL = 1e-5

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)

#: largest spread of the weight exponent phi within one sweep block of the
#: interval solver: e^600 and e^-600 are both normal doubles (limit ~709)
_BLOCK_SPAN = 600.0

#: the interval solver's left tail (a < 0) stops where the weight has
#: fallen by exp(-_TAIL_EXPONENT) from its largest value
_TAIL_EXPONENT = 60.0

#: the spot check's largest error over a row's scale (see _spot_check_case3)
SPOT_CHECK_TOL = 1e-6


@dataclass(frozen=True)
class ComponentCase:
    component: LiftComponent
    case: str
    a: float
    b: float
    interval: tuple[float, float]
    positives: int
    monodromy: np.ndarray | None = None


def classify_components(tt: TwistedTransport) -> list[ComponentCase]:
    """Cut every lift component at its negative crossings and classify the
    residual pieces.  a and b are the linearized weight-exponent data:
    the twisted weight behaves like exp(-(a t^2/2 + b t)) with
    a = 2*pi*slope and b = 2*pi*offset."""
    g = tt.graph
    geo = tt.geometry
    a = TWO_PI * g.p / g.q
    cases = []
    for comp, points in zip(geo.components, geo.crossings):
        b = TWO_PI * (g.c + comp.shift)
        negatives = [pt.t0 for pt in points if not pt.is_positive]
        if comp.kind == CIRCLE:
            if not points:
                mono = circle_monodromy(tt.system, comp)
                cases.append(ComponentCase(comp, CASE1, 0.0, b, (0.0, g.q), 0, mono))
                continue
            # alternation forces equal counts, so negatives exist here
            for lo, hi in zip(negatives, negatives[1:] + [negatives[0] + g.q]):
                cases.append(ComponentCase(comp, CASE2, 0.0, b, (lo, hi), 1))
            continue
        ends = [-math.inf] + negatives + [math.inf]
        for lo, hi in zip(ends, ends[1:]):
            if math.isfinite(lo) and math.isfinite(hi):
                cases.append(ComponentCase(comp, CASE2, a, b, (lo, hi), 1))
            elif g.p > 0:
                cases.append(ComponentCase(comp, CASE3A, a, b, (lo, hi), 1))
            else:
                cases.append(ComponentCase(comp, CASE3B, a, b, (lo, hi), 0))
    return cases


def case1_kernel_dim(m: np.ndarray, rank_tol: float = RANK_TOL) -> int:
    """Dimension of the fixed space of a circle's twisted monodromy m: the
    singular values of M - I at or below rank_tol * |M|, an absolute cutoff,
    so that a rounding-sized M - I counts as zero whatever its own scale."""
    sv = np.linalg.svd(m - np.eye(m.shape[0]), compute_uv=False)
    return int(np.sum(sv <= rank_tol * np.linalg.norm(m, 2)))


def _circle_candidate_shifts(tt: TwistedTransport) -> list[int]:
    """Circle shifts that can possibly carry twisted-monodromy eigenvalue 1:
    the flat eigenvalue moduli single them out regardless of any window."""
    g = tt.graph
    shifts = set()
    for lam in np.linalg.eigvals(tt.system.monodromy):
        r_real = math.log(abs(lam)) / (TWO_PI * g.q) - g.c
        r = round(r_real)
        if abs(r_real - r) <= 1e-6:
            shifts.add(r)
    return sorted(shifts)


def _sweep(phi, g, xs: np.ndarray) -> np.ndarray:
    """J_i = integral from xs[0] to xs[i] of g(t) exp(phi(t) - phi(xs[i])) dt
    for monotone xs of either direction, by the 5-point Gauss rule on every
    step, for every row of g at once.  The recurrence J_{i+1} = J_i
    e^{phi_i - phi_{i+1}} + I_i is one cumulative sum per block, with every
    exponent taken relative to the largest phi on the block's Gauss nodes;
    a block ends once phi has moved _BLOCK_SPAN across it, so neither the
    terms nor the rescaling leave the normal doubles.  The nodes, phi, the
    blocks and the weights exp(phi - ref) are shared by all rows."""
    mid = 0.5 * (xs[1:] + xs[:-1])
    half = 0.5 * (xs[1:] - xs[:-1])
    nodes = mid[:, None] + half[:, None] * _GAUSS_X
    phi_nodes = phi(nodes)
    phi_xs = phi(xs)
    weighted = (half[:, None] * _GAUSS_W) * g(nodes)
    out = np.zeros(weighted.shape[:-2] + (len(xs),), dtype=complex)
    start = 0
    while start < len(xs) - 1:
        seg = phi_xs[start:]
        span = np.maximum.accumulate(seg) - np.minimum.accumulate(seg)
        stop = start + max(1, int(np.searchsorted(span, _BLOCK_SPAN, side="right")) - 1)
        ref = float(phi_nodes[start:stop].max())
        terms = np.sum(weighted[..., start:stop, :] * np.exp(phi_nodes[start:stop] - ref), axis=-1)
        acc = out[..., start, None] * math.exp(phi_xs[start] - ref) + np.cumsum(terms, axis=-1)
        out[..., start + 1 : stop + 1] = acc * np.exp(ref - phi_xs[start + 1 : stop + 1])
        start = stop
    return out


def case3_solve(a: float, b: float, g, C, xs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve f' + (a*t + b) f = g on the sample points xs.

    Implements f(x) = exp(-phi(x)) * (integral of g*exp(phi) + C') with
    phi(t) = a (t - v)^2 / 2 about the vertex v = -b/a: a t^2/2 + b t up to
    a constant, which cancels, but without two terms that cancel each
    other far from 0.  g must accept arrays: it is evaluated once on
    the Gauss nodes of every step, and the step recurrence runs as
    cumulative sums whose exponents are rescaled per block so no
    intermediate overflows (see _sweep).  The particular part anchors at
    the weight vertex -b/a for a > 0 and at the lower limit -inf for a < 0,
    where the grid is extended to the left until the weight has fallen by
    exp(-_TAIL_EXPONENT); C multiplies the peak-normalized homogeneous
    solution exp(-a (x + b/a)^2 / 2).

    A batch of m right-hand sides is one call: g returns its values on the
    nodes with a leading axis of length m, C is a scalar or a length-m
    array, and the samples come back with shape (m, len(xs)); the nodes,
    phi and the per-block weights are computed once for the batch.  A g
    without that axis gives shape (len(xs),).  Returns the samples and
    whether every solution decays at the infinite end(s) of its regime
    (always for a > 0; exactly when C = 0 for a < 0).
    """
    if a == 0.0:
        raise UnsupportedError("a = 0 does not occur for p != 0 asymptotics")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or len(xs) < 2 or np.any(np.diff(xs) <= 0):
        raise ValidationError("xs must be strictly increasing samples")
    vertex = -b / a

    def phi(t):
        return 0.5 * a * (t - vertex) ** 2

    if a > 0:
        ia = int(np.argmin(np.abs(xs - vertex)))
        # both sweeps start at 0 on xs[ia]
        left = _sweep(phi, g, xs[ia::-1])[..., :0:-1]
        j_vals = np.concatenate([left, _sweep(phi, g, xs[ia:])], axis=-1)
    else:
        # the weight exp(phi) falls off to the left of min(xs[0], vertex)
        h = xs[1] - xs[0]
        reach = min(xs[0], vertex) - math.sqrt(2.0 * _TAIL_EXPONENT / -a)
        n_ext = int(math.ceil((xs[0] - reach) / h))
        left = xs[0] - h * np.arange(n_ext, 0, -1)
        j_vals = _sweep(phi, g, np.concatenate([left, xs]))[..., n_ext:]

    C = np.asarray(C)
    homogeneous = bool(np.any(C != 0))
    if homogeneous:
        u = xs - vertex
        exponent = -0.5 * a * u * u
        with np.errstate(over="ignore"):
            j_vals = j_vals + C[..., None] * np.exp(np.minimum(exponent, 709.0))
    return j_vals, bool(a > 0) or not homogeneous


def _spot_check_case3(a: float, b: float, label: str) -> None:
    """Solve four manufactured right-hand sides (a > 0) in one case3_solve
    call and compare every sample with the exact output.

    Each row draws alpha, beta, C and an offset uniformly in [-1, 1].  With
    the vertex v = -b/a and f0 = (alpha + beta u) exp(-2 u^2), u = t - v -
    offset, g = f0' + (a t + b) f0 has the exact output f0 + (C - f0(v))
    exp(-a (x - v)^2 / 2), to be met within SPOT_CHECK_TOL times
    max|f0| + |C - f0(v)|.  Steps: on v +- W, W = 4.5 max(1, sqrt(2 pi / a)),
    F = g exp(phi(t) - phi(x)) varies at rate lam = a W + 5 (|phi'| <= a W;
    the bump's tenth derivative is at most 4.7^10 times its size), so the
    5-point Gauss remainder (5!)^4 h^11 F^(10) / (11 (10!)^3) is a relative
    3.9e-13 (lam h)^10 e^(lam h / 2) of each step.  The sweep carries each
    step's error with the solution, so a row errs by at most that times
    (1 + TV(f0) / max|f0|) max|f0| <= 5 max|f0|.  2 ceil(W lam / 1.35) steps
    give lam h <= 1.35 and a bound of 7.8e-11.
    """
    vertex = -b / a
    half_width = 4.5 * max(1.0, math.sqrt(TWO_PI / a))
    steps = 2 * math.ceil(half_width * (a * half_width + 5.0) / 1.35)
    xs = np.linspace(vertex - half_width, vertex + half_width, steps + 1)
    alpha, beta, C, offset = np.random.default_rng(1728).uniform(-1.0, 1.0, (4, 4))

    def manufactured(t):
        al, be, ce = (v.reshape((4,) + (1,) * np.ndim(t)) for v in (alpha, beta, vertex + offset))
        u = t - ce
        bell = np.exp(-2.0 * u * u)
        f0 = (al + be * u) * bell
        return f0, be * bell + (a * t + b - 4.0 * u) * f0

    f, _ = case3_solve(a, b, lambda t: manufactured(t)[1], C=C, xs=xs)
    f0, f0_vertex = manufactured(xs)[0], manufactured(vertex)[0]
    exact = f0 + (C - f0_vertex)[:, None] * np.exp(-0.5 * a * (xs - vertex) ** 2)
    err = np.max(np.abs(f - exact), axis=-1) / (np.max(np.abs(f0), axis=-1) + np.abs(C - f0_vertex))
    # written so that a non-finite output fails too
    if not np.all(err <= SPOT_CHECK_TOL):
        raise NumericsError(f"component {label}: surjectivity spot check failed (error {np.max(err):.3g})")


def analytic_dims(tt: TwistedTransport, rank_tol: float = RANK_TOL) -> tuple[int, int]:
    """Cohomology dimensions from each component's asymptotics, reading
    neither the crossing record nor the intersection complex.

    p > 0: every horizontal section exp(-phi) v decays and case3_solve
    solves every right-hand side, so (n*p, 0); it is checked on exact
    solutions at the shift-0 line's (a, b).  p < 0: no section decays; the
    obstruction g -> integral of g*exp(phi) has rank n, so (0, n*|p|).
    p = 0: (k, k), k summing the twisted monodromy's eigenvalue-1 block
    sizes over the circles the flat eigenvalue moduli single out.
    """
    g, n = tt.graph, tt.rank
    if g.p == 0:
        k = sum(
            case1_kernel_dim(circle_monodromy(tt.system, LiftComponent(g, shift)), rank_tol)
            for shift in _circle_candidate_shifts(tt)
        )
        return k, k
    if g.p < 0:
        return 0, n * -g.p
    label = LiftComponent(g, 0).label
    _spot_check_case3(TWO_PI * g.p / g.q, TWO_PI * g.c, label)
    return n * g.p, 0


# -- discretized route --------------------------------------------------


def _tiled_heights(ys: np.ndarray, lines, windows, hp: float) -> list[np.ndarray]:
    """Y~ at the lattice points of each line's rows: for the window [lo, hi]
    they are hp times floor(lo / hp) + 1, ..., and one fewer than its nodes.

    ys holds Y at the lattice points hp, 2 hp, ..., q of one period, and
    Y(t + q) = Y(t) + p tiles it: over the union of the windows, by one
    divmod and one gather.  Each line takes its slice and adds its integer
    lift p * periods + shift, so its heights are the same bits as when
    tiled on its own."""
    g = lines[0].parent
    firsts = [math.floor(lo / hp) for lo, _ in windows]
    counts = [round((hi - lo) / hp) - 1 for lo, hi in windows]
    start = min(firsts)
    # ys[k] is Y((k + 1) hp)
    periods, k = np.divmod(start + np.arange(max(f + c for f, c in zip(firsts, counts)) - start), len(ys))
    tiled, lifts = ys[k], g.p * periods
    out = []
    for comp, first, count in zip(lines, firsts, counts):
        rows = slice(first - start, first - start + count)
        out.append(tiled[rows] + (lifts[rows] + comp.shift))
    return out


def _line_tridiagonal(heights: np.ndarray, p: int, hp: float) -> tuple[np.ndarray, np.ndarray]:
    """The full-rank side's Gram of the scalar midpoint operator D0 = d/dt +
    2*pi*Y~ on a line of winding p, from Y~ at its rows' lattice points
    (_tiled_heights): its diagonal and subdiagonal.

    Row i of D0 is left_i on node i and right_i on node i+1.  On n-vectors
    the row's node-i entry is left_i T where its lattice-point center lies
    on q*Z (a seam), and the gauge x_j = P_j y_j, P_j = T^(seams before node
    j), turns that operator into blockdiag(P_{i+1}) (D0 kron I_n) (the p < 0
    decay rows take the first and last node's P): its rank is n rank D0 for
    any invertible T, so a line is certified on D0 alone.  For p > 0, D0 has
    one row fewer than columns and G = D0 D0^T.  For p < 0, D0 has decay
    rows 1/hp at both ends, and D0^T D0 = B B^T for B = J D0^T J, J
    reversing the nodes, which has the p > 0 shape with (left, 1/hp) and
    (1/hp, right) read backwards: so the p > 0 assembly builds J G J, which
    has G's spectrum and row sums."""
    left = -1.0 / hp + math.pi * heights
    right = 1.0 / hp + math.pi * heights
    if p < 0:
        left, right = np.append(left, 1.0 / hp)[::-1], np.append(1.0 / hp, right)[::-1]
    return left * left + right * right, right[:-1] * left[1:]


def _row_sum_bound(diag: np.ndarray, sub: np.ndarray) -> float:
    """Gershgorin bound of G: its largest absolute row sum |d_i| +
    |s_(i-1)| + |s_i|, added in that order (NaN if an entry is NaN)."""
    mag = np.abs(sub)
    rows = np.abs(diag)
    rows[1:] += mag
    rows[:-1] += mag
    return float(rows.max())


def _gram_count(diag: np.ndarray, sub: np.ndarray, lo: float, hi: float) -> tuple[int, float]:
    """The number of eigenvalues of the tridiagonal G in (lo, hi] by one
    LAPACK dstebz call, at a tolerance of the interval's width so that none
    is bisected, and if it is not 0 G's smallest eigenvalue by a second call
    (else NaN).  The number is a Sturm count, the inertia of the LDL^T
    factors of G - lo I and G - hi I, which is backward stable; it is
    undefined on NaN entries, so the caller checks G is finite."""
    from scipy.linalg.lapack import dstebz  # loaded on first use, off the load path

    count = int(dstebz(diag, sub, 1, lo, hi, 0, 0, hi - lo, "E")[0])
    return count, float(dstebz(diag, sub, 2, 0.0, 0.0, 1, 1, 0.0, "E")[1][0]) if count else math.nan


def _validate_window(comp: LiftComponent, lo: float, hi: float) -> None:
    """The weight at both ends of [lo, hi] must lie 1e-12 below its value at
    the vertex (lo + hi) / 2, a lower bound on its peak: a drop of -sign(p)
    times the twist from the vertex (twist_exponent)."""
    g = comp.parent
    drop = -math.copysign(1.0, g.p) * twist_exponent(g, comp.shift, 0.5 * (lo + hi), np.array([lo, hi]))
    needed = -math.log(1e-12)
    for end in drop.tolist():
        if end < needed:
            raise WindowError(
                f"component {comp.label}: window [{lo:.3g}, {hi:.3g}] leaves "
                f"boundary weight only exp(-{end:.3g}) below its midpoint value; "
                f"need exp(-{needed:.3g})"
            )


def _line_component_dims(
    heights: np.ndarray, comp: LiftComponent, window: tuple[float, float], n: int, hp: float, rank_tol: float
) -> tuple[int, int]:
    _validate_window(comp, *window)
    diag, sub = _line_tridiagonal(heights, comp.parent.p, hp)
    bound = _row_sum_bound(diag, sub)
    if not math.isfinite(bound):
        raise NumericsError(f"component {comp.label}: the full-rank side's Gram is not finite")
    cutoff = rank_tol * math.sqrt(bound)
    count, smallest = _gram_count(diag, sub, -bound, cutoff * cutoff)
    if count:
        raise NumericsError(
            f"component {comp.label}: the full-rank side has {count} singular value(s) at or below "
            f"the cutoff {cutoff:.3g}; margin sigma_min/cutoff = {math.sqrt(max(smallest, 0.0)) / cutoff:.6g}"
        )
    return (n, 0) if comp.parent.p > 0 else (0, n)


def _circle_propagator_dims(
    comp: LiftComponent, ys: np.ndarray, t_mono: np.ndarray, t_sv: np.ndarray, hp: float
) -> tuple[int, int]:
    """Kernel and cokernel of a circle's discrete loop operator: the fixed
    space of its propagator P, counted by the singular values of P - I.
    ys holds Y~ at the loop's lattice points hp, 2 hp, ..., q, and t_sv the
    singular values of T, descending.

    The loop's twisted monodromy is M = T mu with mu = exp(-2 pi * loop
    integral of Y~), and P = T lambda_h with lambda_h the product of the
    midpoint steps (1 - x)/(1 + x), x = pi h Y~, so P - M = (1 - mu/lambda_h) P.
    Each step's log factor differs from -2x by at most 2|x|^3 / (3(1 - x^2)),
    and the periodic midpoint sum of -2x is the exact loop integral for
    every harmonic below the grid's Nyquist rate; with the rounding of the
    terms and their sum this bounds |log(lambda_h / mu)| by log_defect, so
    |P - M|_2 <= expm1(log_defect) |P|_2.  By Weyl's inequality every
    singular value of P - I lies within |P - M|_2 of the matching one of
    M - I: the k zero singular values of M - I (k = dim of its fixed
    space) give k of P - I at or below bound = expm1(log_defect) |P|_2 plus
    n eps (|P|_2 + 1) for the rounding of P - I and its SVD, and one above
    the bound has a non-zero counterpart.  One in (bound,
    PROPAGATOR_MARGIN * bound] is too close to call.  Far from zero that
    bound is nearly |P - I| itself, so first: P's eigenvalue moduli lie in
    lambda_h [sigma_min(T), sigma_max(T)] and M's within e^+-log_defect of
    them, and a log range beyond PROPAGATOR_MARGIN log_defect + n eps on
    either side of 0 gives 0 without forming P."""
    x = hp * math.pi * ys
    terms = np.log1p(-x) - np.log1p(x)
    log_lambda = float(np.sum(terms))
    eps = np.finfo(float).eps
    log_defect = float(np.sum(2.0 * np.abs(x) ** 3 / (3.0 * (1.0 - x * x))) + len(ys) * eps * np.sum(np.abs(terms)))
    reach = PROPAGATOR_MARGIN * log_defect + len(t_mono) * eps
    if log_lambda + math.log(t_sv[0]) < -reach or log_lambda + math.log(t_sv[-1]) > reach:
        return 0, 0
    propagator = t_mono * math.exp(log_lambda)  # exactly one seam per loop
    norm = math.exp(log_lambda) * float(t_sv[0])  # |P|_2
    bound = math.expm1(log_defect) * norm + len(t_mono) * eps * (norm + 1.0)
    sv = np.linalg.svd(propagator - np.eye(len(t_mono)), compute_uv=False)
    near = sv[(sv > bound) & (sv <= PROPAGATOR_MARGIN * bound)]
    if near.size:
        raise NumericsError(
            f"component {comp.label}: P - I for the loop propagator P has a singular value "
            f"{near.min():.3g} (|mu - 1| for an eigenvalue mu at rank 1), within "
            f"{PROPAGATOR_MARGIN:g} times the defect bound {bound:.3g}; "
            f"margin |mu - 1| / bound = {near.min() / bound:.3g}"
        )
    k = int(np.sum(sv <= bound))
    return k, k


def discretized_dims(
    tt: TwistedTransport,
    h: float = 1.0 / 512,
    big_t: float = 6.0,
    rank_tol: float = DISCRETE_RANK_TOL,
) -> tuple[int, int]:
    """Kernel and cokernel of the discretized covariant derivative.

    Lines live on [vertex - big_t, vertex + big_t] with nodes at lattice
    midpoints, so every seam falls exactly between two nodes.  The seam
    gauge makes a line's operator the scalar D0 times I_n, so each line
    gives n times D0's kernel and cokernel, whatever T: an index of 1 (p >
    0, no boundary rows) or -1 (p < 0, decay rows at both truncations) by
    shape.  One dstebz Sturm count certifies that D0's full-rank-side Gram
    has no eigenvalue at or below cutoff^2, the cutoff being rank_tol times
    the square root of the Gram's Gershgorin bound; else NumericsError
    names the component and the exact margin sigma_min/cutoff.  Circles
    count the singular values of P - I for the discrete loop propagator
    P = T lambda_h within its defect bound, with one SVD of T for all
    shifts.  Y is evaluated once, on one period's lattice points, and the
    lines tile it once over the union of their windows.
    h must lie in (0, 1e-2], big_t be positive and rank_tol lie in (0, 1),
    all finite, else ValidationError.
    """
    # written so that NaN fails each check
    if not 0.0 < h <= 1e-2:
        raise ValidationError(f"grid step h = {h} must lie in (0, 1e-2]")
    if not 0.0 < big_t < math.inf:
        raise ValidationError(f"window half-width big_t = {big_t} must be positive and finite")
    if not 0.0 < rank_tol < 1.0:
        raise ValidationError(f"rank_tol = {rank_tol} must lie in (0, 1)")
    res = round(1.0 / h)
    hp = 1.0 / res
    g, t_mono = tt.graph, tt.system.monodromy
    ys = g.height(np.arange(1, g.q * res + 1) * hp)  # Y on one period's lattice points, once
    h0 = h1 = 0
    if g.p != 0:
        lines = tt.geometry.components
        windows = [(comp.vertex - big_t, comp.vertex + big_t) for comp in lines]
        for comp, window, heights in zip(lines, windows, _tiled_heights(ys, lines, windows, hp)):
            ker, coker = _line_component_dims(heights, comp, window, tt.rank, hp, rank_tol)
            h0 += ker
            h1 += coker
    else:
        t_sv = np.linalg.svd(t_mono, compute_uv=False)
        shifts = {c.shift for c in tt.geometry.components}
        shifts.update(_circle_candidate_shifts(tt))
        for shift in sorted(shifts):
            ker, coker = _circle_propagator_dims(LiftComponent(g, shift), ys + shift, t_mono, t_sv, hp)
            h0 += ker
            h1 += coker
    return h0, h1


def case_report(tt: TwistedTransport) -> list[dict]:
    out = []
    for case in classify_components(tt):
        entry = {
            "component": case.component.label,
            "case": case.case,
            "a": case.a,
            "b": case.b,
            "interval": [end if math.isfinite(end) else None for end in case.interval],
            "positives": case.positives,
        }
        if case.monodromy is not None:
            entry["eigenvalue_one_dim"] = case1_kernel_dim(case.monodromy)
        out.append(entry)
    return out
