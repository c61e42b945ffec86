"""De Rham cohomology of twisted rapidly-decreasing sections, two ways.

The analytic route reads each lift component's asymptotics, not the
crossing record: a line's weight exp(-(a t^2/2 + b t)) decays for p > 0,
giving (n, 0) per line, and grows for p < 0, giving (0, n); a circle gives
(k, k) for an eigenvalue-1 block of size k of its twisted monodromy.  The
explicit integral solver is spot-checked against exact solutions.  The
discretized route puts the covariant derivative on a midpoint grid per
line, with the seam matrix where the lattice meets t in q*Z.  Its index is
+-n by shape; a block LDL^H factor of the full-rank side's Gram certifies
the singular-value margin of that side, which fixes kernel and cokernel.
Away from the seams the operator is a scalar times I, so the Gram is a
real scalar tridiagonal with a few seam blocks: the factor runs LAPACK
dpttrf on each stretch between seams, all n channels in one call, and an
n x n eigh at each row a seam block enters.  Circles reduce to the
discrete loop propagator P, whose fixed space counts the singular values
of P - I within its own defect bound.

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
from .geometry import CIRCLE, LINE, LiftComponent, lift_components
from .localsys import TwistedTransport, circle_monodromy

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

#: shift halvings tried to bracket a failed certificate's margin
_MARGIN_HALVINGS = 40

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


def _circle_case(tt: TwistedTransport, comp: LiftComponent) -> ComponentCase:
    """A circle without crossings, with its twisted monodromy."""
    g = tt.graph
    b = TWO_PI * (g.c + comp.shift)
    return ComponentCase(comp, CASE1, 0.0, b, (0.0, g.q), 0, circle_monodromy(tt.system, comp))


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
                cases.append(_circle_case(tt, comp))
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


def case1_kernel_dim(case: ComponentCase, rank_tol: float = RANK_TOL) -> int:
    """Dimension of the twisted monodromy's fixed space: the singular values
    of M - I at or below rank_tol * |M|, an absolute cutoff, so that a
    rounding-sized M - I counts as zero whatever its own scale."""
    m = case.monodromy
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
    phi(t) = a t^2/2 + b t.  g must accept arrays: it is evaluated once on
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
        return 0.5 * a * t * t + b * t

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
            case1_kernel_dim(_circle_case(tt, LiftComponent(g, CIRCLE, shift)), rank_tol)
            for shift in _circle_candidate_shifts(tt)
        )
        return k, k
    if g.p < 0:
        return 0, n * -g.p
    label = LiftComponent(g, LINE, 0).label
    _spot_check_case3(TWO_PI * g.p / g.q, TWO_PI * g.c, label)
    return n * g.p, 0


# -- discretized route --------------------------------------------------


@dataclass(frozen=True)
class _LineGram:
    """The full-rank side's Gram G of one line, block tridiagonal with n x n
    blocks.  diag[i] and sub[i] are G[i, i] and G[i + 1, i] as scalars
    times I; at each special row rows[k] the diagonal block is blocks[k]
    and the coupling G[r, r - 1] is into[k] (zero at r = 0), in full."""

    diag: np.ndarray
    sub: np.ndarray
    rows: np.ndarray
    blocks: np.ndarray
    into: np.ndarray


def _line_tridiagonal(
    comp: LiftComponent, t_mono: np.ndarray, lo: float, hi: float, hp: float, res: int
) -> _LineGram:
    """The full-rank side's Gram of the midpoint operator D = d/dt + 2*pi*Y~.

    Row i of D is left_i A_i on node i and right_i on node i+1.  Nodes sit
    at lattice midpoints, so each row's center is a lattice point: where it
    lies on q*Z (a seam), A_i is the flat seam matrix T, elsewhere I.
    p > 0: no boundary rows, n fewer rows than columns, G = D D^H.  p < 0:
    decay rows at both truncations, n more rows than columns, G = D^H D.

    Away from the seams every block of G is a scalar times I.  p > 0: seam
    row s has the diagonal left^2 T T^H + right^2 I and the coupling
    right_{s-1} left_s T into it.  p < 0: seam row s has the diagonal
    left^2 T^H T plus the neighbour's right^2 or the decay 1/hp^2, and
    row s + 1 the coupling right_s left_s T into it.  T need not be
    unitary.  For n = 1 the phase gauge x_i -> x_i * u_i with |u_i| = 1
    turns every coupling e into |e|, so the seams fold into the scalar
    arrays and no row is special.  Y~ is evaluated once per lattice phase
    the window holds; Y~(t + q) = Y~(t) + p gives the rest."""
    g = comp.parent
    n = t_mono.shape[0]
    n_nodes = int(round((hi - lo) / hp))
    first = math.floor(lo / hp) + 1
    count, period = n_nodes - 1, g.q * res
    base = comp.height((first + np.arange(min(count, period))) * hp)
    ys = (base + g.p * np.arange(-(-count // period))[:, None]).ravel()[:count]
    left = -1.0 / hp + math.pi * ys
    right = 1.0 / hp + math.pi * ys
    seams = np.arange(-first % period, count, period)
    eye = np.eye(n)
    scaled = left[seams, None, None] * t_mono
    scaled_h = scaled.conj().transpose(0, 2, 1)
    before = np.where(seams > 0, right[seams - 1], 0.0)
    if g.p > 0:
        diag = left * left + right * right
        sub = right[:-1] * left[1:]
        rows = seams
        blocks = scaled @ scaled_h + (right[seams] ** 2)[:, None, None] * eye
        into = before[:, None, None] * scaled
    else:
        diag = np.zeros(n_nodes)
        diag[:-1] += left * left
        diag[1:] += right * right
        diag[[0, -1]] += 1.0 / (hp * hp)
        sub = right * left
        # the seam row, then the row that its coupling right_s left_s T enters
        rows = np.stack([seams, seams + 1], axis=1).ravel()
        seam_diag = scaled_h @ scaled + (np.where(seams > 0, before**2, 1.0 / (hp * hp)))[:, None, None] * eye
        blocks = np.stack([seam_diag, diag[seams + 1, None, None] * eye], axis=1).reshape(-1, n, n)
        scalar_into = np.where(seams > 0, sub[seams - 1], 0.0)[:, None, None] * eye
        into = np.stack([scalar_into, right[seams, None, None] * scaled], axis=1).reshape(-1, n, n)
    if n == 1:
        diag[rows] = blocks[:, 0, 0].real
        inner = rows > 0
        sub[rows[inner] - 1] = np.abs(into[inner, 0, 0])
        rows, blocks, into = rows[:0], blocks[:0], into[:0]
    return _LineGram(diag, sub, rows, blocks, into)


def _row_sum_bound(gram: _LineGram) -> float:
    """Gershgorin bound of G: its largest absolute row sum, one per row and
    channel.  A row sums its diagonal block, its coupling G[i, i - 1] and
    G[i, i + 1] = G[i + 1, i]^H, whose rows are columns of G[i + 1, i]; a
    scalar block adds its one magnitude to every channel."""
    n = gram.blocks.shape[1]
    mag = np.abs(gram.sub)
    own, before, after = np.empty((3, n, len(gram.diag)))
    own[:] = np.abs(gram.diag)
    before[:, 0], before[:, 1:] = 0.0, mag
    after[:, :-1], after[:, -1] = mag, 0.0
    r, into = gram.rows, np.abs(gram.into)
    own[:, r] = np.abs(gram.blocks).sum(axis=2).T
    before[:, r] = into.sum(axis=2).T
    after[:, r[r > 0] - 1] = into[r > 0].sum(axis=1).T
    return float((own + before + after).max())


def _factors(gram: _LineGram, sigma: float) -> bool:
    """Whether G - sigma^2 I has a block LDL^H factor with positive
    definite pivots, i.e. every singular value of the full-rank side
    exceeds sigma.

    The pivots are the Schur complements S_{i+1} = G_{i+1,i+1} - sigma^2 I
    - E_i S_i^{-1} E_i^H, E_i = G[i + 1, i].  Between special rows every
    block is a scalar times I, so S keeps the eigenbasis Q it had at the
    last special row, and each of the n channels runs the scalar LDL^T
    recurrence mu <- d - e^2 / mu: one dpttrf call on the segment's real
    tridiagonal, the channels side by side with zero couplings between
    them, each channel's first entry taking its e^2 / mu_j.  A special row
    r forms S_r = G_rr - sigma^2 I - E Q diag(1/mu) Q^H E^H in full and
    reads its eigenvalues and Q with eigh.  A non-positive or non-finite
    pivot means no factor (dpttrf passes NaN pivots).  The factor is
    backward stable, so rounding stays at O(eps * |G|), far below the
    cutoff^2."""
    from scipy.linalg.lapack import dpttrf, zheev  # loaded on first use, off the load path

    n = gram.blocks.shape[1]
    diag, sub = gram.diag - sigma * sigma, gram.sub
    blocks = gram.blocks - sigma * sigma * np.eye(n)
    basis, pivots = np.eye(n), np.full(n, np.inf)
    start = 0
    for stop, block, into in zip([*gram.rows, len(diag)], [*blocks, None], [*gram.into, None]):
        if stop > start:
            d = np.empty((n, stop - start))
            d[:] = diag[start:stop]
            if start:
                d[:, 0] -= sub[start - 1] ** 2 / pivots
            e = np.zeros((n, stop - start))
            e[:, :-1] = sub[start : stop - 1]
            d, _, info = dpttrf(d.ravel(), e.ravel()[:-1], overwrite_d=1, overwrite_e=1)
            if info or not np.isfinite(d).all():
                return False
            pivots = d[stop - start - 1 :: stop - start]
        if block is None:
            return True
        coupled = into @ basis
        pivots, basis, info = zheev(block - (coupled / pivots) @ coupled.conj().T)
        if info or not (np.isfinite(pivots).all() and pivots[0] > 0.0):
            return False
        start = stop + 1


def _validate_window(comp: LiftComponent, lo: float, hi: float) -> None:
    """The weight at both ends of [lo, hi] must lie 1e-12 below its value at
    the vertex (lo + hi) / 2, a lower bound on its peak."""
    log_w = -TWO_PI * comp.height_primitive(np.array([lo, 0.5 * (lo + hi), hi]))
    if comp.parent.p < 0:
        log_w = -log_w
    needed = -math.log(1e-12)
    for end in (float(log_w[0]), float(log_w[-1])):
        if log_w[1] - end < needed:
            raise WindowError(
                f"component {comp.label}: window [{lo:.3g}, {hi:.3g}] leaves "
                f"boundary weight only exp(-{log_w[1] - end:.3g}) below its midpoint value; "
                f"need exp(-{needed:.3g})"
            )


def _line_component_dims(
    comp: LiftComponent, t_mono: np.ndarray, big_t: float, hp: float, res: int, rank_tol: float
) -> tuple[int, int]:
    g = comp.parent
    vertex = -(g.c + comp.shift) * g.q / g.p
    lo, hi = vertex - big_t, vertex + big_t
    _validate_window(comp, lo, hi)
    gram = _line_tridiagonal(comp, t_mono, lo, hi, hp, res)
    threshold = rank_tol * math.sqrt(_row_sum_bound(gram))
    # halve the shift until a factor exists; that brackets sigma_min / threshold
    k = next((k for k in range(_MARGIN_HALVINGS) if _factors(gram, threshold * 2.0**-k)), _MARGIN_HALVINGS)
    if k:
        low = 2.0**-k if k < _MARGIN_HALVINGS else 0.0
        raise NumericsError(
            f"component {comp.label}: the full-rank side has a singular value at or below "
            f"the cutoff {threshold:.3g}; margin sigma_min/cutoff in ({low:.3g}, {2.0 ** (1 - k):.3g}]"
        )
    n = t_mono.shape[0]
    return (n, 0) if g.p > 0 else (0, n)


def _circle_propagator_dims(comp: LiftComponent, t_mono: np.ndarray, hp: float, res: int) -> tuple[int, int]:
    """Kernel and cokernel of a circle's discrete loop operator: the fixed
    space of its propagator P, counted by the singular values of P - I.

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
    PROPAGATOR_MARGIN * bound] is too close to call."""
    g = comp.parent
    steps = g.q * res
    mids = (np.arange(steps) + 1.0) * hp  # lattice points of one loop from node at hp/2
    x = hp * math.pi * comp.height(mids)
    terms = np.log1p(-x) - np.log1p(x)
    propagator = t_mono * math.exp(float(np.sum(terms)))  # exactly one seam per loop
    eps = np.finfo(float).eps
    log_defect = float(np.sum(2.0 * np.abs(x) ** 3 / (3.0 * (1.0 - x * x))) + steps * eps * np.sum(np.abs(terms)))
    norm = float(np.linalg.norm(propagator, 2))
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
    midpoints, so every seam falls exactly between two nodes.  A line's
    index is n (p > 0, no boundary rows) or -n (p < 0, decay rows at both
    truncations) by shape.  A block LDL^H factor of the full-rank side's
    Gram, shifted by the cutoff^2, certifies that no singular value lies at
    or below rank_tol times the square root of the Gram's Gershgorin bound,
    else NumericsError names the component and the margin.  The Gram is a
    real scalar tridiagonal except at the seams, so the factor is one
    LAPACK dpttrf call per stretch between seams, all n channels at once,
    and one n x n eigh per row that a seam block enters.  Circles count the singular values of
    P - I for the discrete loop propagator P within its defect bound.
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
    t_mono = tt.system.monodromy
    h0 = h1 = 0
    if tt.graph.p != 0:
        for comp in lift_components(tt.graph):
            ker, coker = _line_component_dims(comp, t_mono, big_t, hp, res, rank_tol)
            h0 += ker
            h1 += coker
    else:
        shifts = {c.shift for c in lift_components(tt.graph)}
        shifts.update(_circle_candidate_shifts(tt))
        for shift in sorted(shifts):
            comp = LiftComponent(tt.graph, CIRCLE, shift)
            ker, coker = _circle_propagator_dims(comp, t_mono, hp, res)
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
            entry["eigenvalue_one_dim"] = case1_kernel_dim(case)
        out.append(entry)
    return out
