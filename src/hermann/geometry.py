"""Orbit invariants over the alcove: spectrum, mean curvature, classifications.

All bookkeeping runs over positive roots with a nonzero angle; a root whose
wall passes through the point contributes nothing.  One angle pass groups
the terms by angle n/D, D the point's one denominator, for the mean
curvature's one cotangent per angle, and builds one integer table: per
class (n, alpha) with n/D = min(theta, 1 - theta) < 1/2, the multiplicity
at theta minus that at 1 - theta.

In direction xi the principal curvatures are -<alpha, xi> cot(pi theta).
The identities cot(pi - x) = -cot x and cot(pi/2) = 0 make the multiset
symmetric under -1 when every entry of the table is 0; no cross pair on a
root line cancels an excess (see _austere), so austere is exactly yes or
no.  The orbit is totally geodesic when the table is empty.  Balance puts
2 alpha.x in (1/order)Z, so every austere point lies on the 1/(2*order)
grid and scan_austere walks only the part of its grid on it.  Minimal is
yes when each n's entries times their roots sum to zero and no when the
certified norm is positive; it is an honest tri-state: yes and no are
proved, indeterminate means neither certificate was reached.  The type,
arid* and WR* are read off the facet walls through the point
(alcove.active_walls): arid* when there are as many as the rank, WR* when
the longest-element walk on their Cartan matrix ends at -c0 too, which the
Tits table cross-checks.

find_minimal's Newton ascent is not certified, only its last point is, but
its iterates are reproducible bit for bit: it runs on raw mpmath.libmp
values, each step the mpf_* call, in operand order, of the mpf operator it
stands for, with one pairing alpha . x per root, the gradient and the
Hessian through _pairing on the terms' root columns (Hessian row i on the
terms with a_i != 0), and the Newton step from _lu_solve, the libmp calls
that mpmath's lu_solve makes.  A call that cannot change a bit (0 + v,
1 * v on a value already rounded to the rung) is skipped.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from mpmath.libmp import (MPZ_ONE, from_int, from_str, fzero, mpf_abs, mpf_add, mpf_cos_sin,
                          mpf_div, mpf_gt, mpf_le, mpf_log, mpf_lt, mpf_mul, mpf_mul_int,
                          mpf_neg, mpf_pi, mpf_pow_int, mpf_rdiv_int, mpf_sqrt, mpf_sub,
                          mpf_sum, mpi_sqrt, round_nearest, to_str)

from .alcove import (ActiveRoots, ActiveWalls, AlcovePoint, active_walls, alcove_barycenter,
                     alcove_grid, fundamental_alcove, point_in_alcove, sector_angles)
from .datum import GradedRootDatum, positive_sector_roots
from .exact import (DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, DimensionMismatch,
                    RealInterval, _ratio, cot_eval, mpf_to_fraction, pairing, ratio_interval)
from .roots import (CartanLabel, contains_minus_identity, tits_minus_identity,
                    weyl_group)


class NoConvergence(RuntimeError):
    """Volume maximization failed to certify within the precision ladder."""


class InternalInconsistency(RuntimeError):
    """Two independent routes to the same fact disagree."""


class TriState(enum.Enum):
    YES = "yes"
    NO = "no"
    INDETERMINATE = "indeterminate"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CotTerm:
    """One summand -mult * cot(pi theta) * alpha of the mean curvature."""

    alpha: tuple
    theta: Fraction
    mult: int


def _classes(den: int, stream, nums):
    """The nonzero numerators n of nums, each with its terms' (alpha, mult) in
    first-appearance order, and the class table the module docstring defines."""
    groups, table = {}, Counter()
    for (alpha, _, m), n in zip(stream, nums):
        if n:
            groups.setdefault(n, []).append((alpha, m))
            if 2 * n != den:
                table[min(n, den - n), alpha] += m if 2 * n < den else -m
    return groups, table


def _angle_pass(d: GradedRootDatum, point: AlcovePoint):
    """The point's one denominator D, and its angle numerators and class table."""
    stream = positive_sector_roots(d)
    den, nums = sector_angles(d, point, stream)
    return (den, *_classes(den, stream, nums))


def cot_terms(d: GradedRootDatum, point: AlcovePoint):
    """Nonzero-angle terms over positive roots, sector by sector."""
    stream = positive_sector_roots(d)
    den, nums = sector_angles(d, point, stream)
    return tuple(CotTerm(alpha, Fraction(n, den), m) for (alpha, _, m), n in zip(stream, nums)
                 if n)


@dataclass(frozen=True)
class SpectrumTerm:
    alpha: tuple
    theta: Fraction
    mult: int
    slope: Fraction
    value: RealInterval


@dataclass(frozen=True)
class SpectrumReport:
    zero_mult: int
    terms: tuple
    precision_bits: int

    @property
    def total_multiplicity(self) -> int:
        return self.zero_mult + sum(t.mult for t in self.terms)


def shape_spectrum(d: GradedRootDatum, point: AlcovePoint, xi) -> SpectrumReport:
    """Principal curvatures -<alpha, xi> cot(pi theta) in direction xi.

    xi is given by rational coefficients in the dual basis, so each slope
    <alpha, xi> is exact; only the cotangent is an interval.  An xi whose
    length is not the rank raises DimensionMismatch.  The terms come in
    cot_terms order, with one cot_eval per distinct angle n/D over the
    point's one denominator D.
    """
    if len(xi) != d.rank:
        raise DimensionMismatch(f"xi of length {len(xi)} against rank {d.rank}")
    xi = tuple(Fraction(x) for x in xi)
    stream = positive_sector_roots(d)
    den, nums = sector_angles(d, point, stream)
    cots, terms = {}, []
    for (alpha, _, m), n in zip(stream, nums):
        if n:
            if n not in cots:
                theta = Fraction(n, den)
                cots[n] = theta, cot_eval(theta, DEFAULT_PRECISION_BITS)
            theta, cot = cots[n]
            slope = pairing(alpha, xi)
            terms.append(SpectrumTerm(alpha, theta, m, slope, cot.scale(-slope)))
    return SpectrumReport(d.zero_mult, tuple(terms), DEFAULT_PRECISION_BITS)


@dataclass(frozen=True)
class MeanCurvature:
    coeffs: tuple
    norm: RealInterval


def _mean_curvature(d: GradedRootDatum, den: int, groups, precision_bits: int) -> MeanCurvature:
    """The certified enclosure, summed in Python ints, one cot_eval per angle n/den.

    Every cot_eval endpoint [a, b] is dyadic, so each coefficient interval is
    two integers over one 2^e, and the squared norm is integers over 2^(2e)
    times the Gram form's denominator: the rationals of interval sums and
    products over Fraction.  A term adds k*[a, b], k = -mult * alpha_j, ends
    swapped when k < 0; an angle adds K+*[a, b] + K-*[b, a], K+ and K- the
    sums of its positive and negative k: the same integers.  The norm is
    mpi_sqrt at precision_bits + 16 of the squared norm's ratio_interval.
    """
    r = d.rank
    cots = [cot_eval(Fraction(n, den), precision_bits) for n in groups]
    e = max((q.denominator.bit_length() - 1 for c in cots for q in (c.lo, c.hi)), default=0)
    lo, hi = [0] * r, [0] * r
    for c, pairs in zip(cots, groups.values()):
        a, b = (q.numerator << (e + 1 - q.denominator.bit_length()) for q in (c.lo, c.hi))
        pos, neg = [0] * r, [0] * r
        for alpha, m in pairs:
            for j, x in enumerate(alpha):
                if x:
                    (pos if x < 0 else neg)[j] -= m * x
        for j, (kp, kn) in enumerate(zip(pos, neg)):
            if kp or kn:
                lo[j] += kp * a + kn * b
                hi[j] += kp * b + kn * a
    rows, gden = d.sigma.gram.form
    n_lo = n_hi = 0
    for i, j in product(range(r), repeat=2):
        if rows[i][j]:
            p = [rows[i][j] * y * z for y in (lo[i], hi[i]) for z in (lo[j], hi[j])]
            n_lo += min(p)
            n_hi += max(p)
    one, work = 1 << e, precision_bits + 16
    coeffs = tuple(RealInterval(Fraction(x, one), Fraction(y, one), precision_bits)
                   for x, y in zip(lo, hi))
    root = mpi_sqrt(ratio_interval(max(n_lo, 0), max(n_hi, 0), gden << 2 * e, work), work)
    return MeanCurvature(coeffs, RealInterval(*map(mpf_to_fraction, root), precision_bits))


def mean_curvature(d: GradedRootDatum, point: AlcovePoint,
                   precision_bits: int = DEFAULT_PRECISION_BITS) -> MeanCurvature:
    """Certified enclosure of m_H = -sum mult*cot(theta)*alpha and its norm."""
    return _mean_curvature(d, *_angle_pass(d, point)[:2], precision_bits)


def is_totally_geodesic(d: GradedRootDatum, point: AlcovePoint) -> bool:
    """True when every sector angle lands in (pi/2) Z: the class table is empty."""
    return not _angle_pass(d, point)[2]


def _austere(table) -> TriState:
    """Yes exactly when every root alpha balances theta against 1 - theta,
    that is, every entry of the angle-class table is 0.

    In a generic direction only roots on one line share a curvature, and
    only alpha and 2*alpha share a line (validation rejects 3*alpha and
    4*alpha).  So an unbalanced class could only be offset by a cross pair
    cot x + 2 cot y = 0 (y -> pi - y covers an equal-sign coincidence), with
    x, y rational multiples of pi outside (pi/2) Z.  That is a vanishing
    rational sum of four roots of unity; by Mann's theorem (Mathematika 12,
    1965) and the classification of Conway and Jones (Acta Arith. 30, 1976)
    it forces x, y in (pi/6) Z, where cot x / cot y is never -2.  So the
    verdict is exact: yes or no, never indeterminate.
    """
    return TriState.NO if any(table.values()) else TriState.YES


def is_austere(d: GradedRootDatum, point: AlcovePoint) -> TriState:
    """Exact yes/no test for invariance of the curvature multiset under -1."""
    return _austere(_angle_pass(d, point)[2])


def _minimal(table, norm: RealInterval) -> TriState:
    """Yes when, for each n, the entries (n, alpha) times alpha sum to zero."""
    sums = Counter()
    for (n, alpha), m in table.items():
        for j, c in enumerate(alpha):
            sums[n, j] += m * c
    if not any(sums.values()):
        return TriState.YES
    if norm.certainly_positive:
        return TriState.NO
    return TriState.INDETERMINATE


def is_minimal(d: GradedRootDatum, point: AlcovePoint) -> TriState:
    """Yes via exact cancellation, no via a norm bounded away from zero.

    The vector is a combination of cot(pi*theta) over theta in (0,1/2);
    if every angle class sums to the zero root the whole vector vanishes.
    Austerity forces that classwise cancellation, so austere yes implies
    minimal yes.
    """
    den, groups, table = _angle_pass(d, point)
    return _minimal(table, _mean_curvature(d, den, groups, DEFAULT_PRECISION_BITS).norm)


@dataclass(frozen=True)
class SymmetryFlags:
    arid_sufficient: bool
    weakly_reflective_sufficient: bool


def symmetry_flags(d: GradedRootDatum, point: AlcovePoint,
                   walls: ActiveWalls | None = None) -> SymmetryFlags:
    """Sufficient conditions read off the facet walls through the point.

    arid needs the active roots to span, that is, as many walls as the
    rank; weakly reflective additionally needs -id in their Weyl group,
    found by the longest-element walk and double-checked against the
    type-based prediction.  walls, the point's alcove.active_walls when
    the caller has them, spare a second pass over the facets.
    """
    if walls is None:
        walls = active_walls(d, point)
    if len(walls.roots) < d.rank:
        return SymmetryFlags(False, False)
    has = contains_minus_identity(weyl_group(walls.cartan))
    labels = [lab for lab, _ in walls.components]
    predicted = tits_minus_identity(labels)
    if has != predicted:
        raise InternalInconsistency(
            f"-id in Weyl group: longest-element walk says {has}, "
            f"type table for {'+'.join(map(str, labels))} says {predicted}")
    return SymmetryFlags(True, has)


def _type_text(d: GradedRootDatum, components) -> str:
    """The sorted labels of (label, one root) per component, ambient-aware.

    A reduced rank-one component whose root has its double in the ambient
    system is reported as B1, matching the naming of short-root components
    inside a non-reduced ambient system.
    """
    labels = sorted(CartanLabel("B", 1)
                    if lab == CartanLabel("A", 1) and tuple(2 * x for x in root) in d.sigma.roots
                    else lab for lab, root in components)
    return "+".join(map(str, labels)) if labels else "(none)"


def type_label(d: GradedRootDatum, actives: ActiveRoots) -> str:
    """Component labels of an active-root system, as orbit reports print them."""
    return _type_text(d, ((c.label, c.simple_roots[0]) for c in actives.components))


@dataclass(frozen=True)
class OrbitReport:
    point: AlcovePoint
    type_label: str
    totally_geodesic: bool
    austere: TriState
    minimal: TriState
    arid_sufficient: bool
    weakly_reflective_sufficient: bool
    mean_curvature: MeanCurvature

    @property
    def mean_curvature_norm(self) -> RealInterval:
        return self.mean_curvature.norm


def orbit_report(d: GradedRootDatum, point: AlcovePoint) -> OrbitReport:
    """Every classification of one orbit of the closed alcove.

    The curvature verdicts come from the one angle pass of the point, and
    the type, arid* and WR* from the facet walls through it.
    """
    den, groups, table = _angle_pass(d, point)
    walls = active_walls(d, point)
    mc = _mean_curvature(d, den, groups, DEFAULT_PRECISION_BITS)
    flags = symmetry_flags(d, point, walls)
    return OrbitReport(point,
                       _type_text(d, ((lab, walls.roots[idx[0]]) for lab, idx in walls.components)),
                       not table, _austere(table), _minimal(table, mc.norm),
                       flags.arid_sufficient, flags.weakly_reflective_sufficient,
                       mc)


@dataclass(frozen=True)
class MinimalOrbit:
    point: AlcovePoint
    norm: RealInterval
    iterations: int
    precision_bits: int


_RND = round_nearest
_ONE, _TWO, _FOUR = from_int(1), from_int(2), from_int(4)


def _pairing(alpha, x, prec: int):
    """pairing(alpha, x) for raw x: sum(a * y) from 0, zero coefficients skipped.

    1 * y, -1 * y and 0 + v are y, mpf_neg(y) and v when y has at most prec
    bits, as normalize at prec would return them, so those calls are skipped.
    """
    acc = None
    for a, y in zip(alpha, x):
        if a:
            if y[3] > prec or (a != 1 and a != -1):
                y = mpf_mul_int(y, a, prec, _RND)
            elif a == -1:
                y = mpf_neg(y)
            acc = y if acc is None else mpf_add(acc, y, prec, _RND)
    return fzero if acc is None else acc


def _lu_solve(a, b, prec: int):
    """The solution of a x = b that mpmath's lu_solve gives at prec bits, bit
    for bit, on raw values.

    a is a square list of rows and b a list; neither is changed.  These are
    the libmp calls of mpmath's LU_decomp, L_solve and U_solve in their
    order, at prec + 10 bits rounded to nearest: the tolerance |mnorm(a, 1)
    * eps|, the pivot of column j the first row k with the strictly largest
    |a_kj| / sum_l |a_kl|, the elimination, and the two substitutions.  A row
    sum or pivot at most the tolerance raises mpmath's ZeroDivisionError, as
    does a column with no nonzero pivot (where mpmath fails on p[j] = None).
    """
    wp = prec + 10
    a, b = [list(row) for row in a], list(b)
    n = len(a)
    norm = fzero
    for col in zip(*a):
        s = mpf_sum(col, wp, _RND, True)
        if mpf_gt(s, norm):
            norm = s
    tol = mpf_abs(mpf_mul(norm, (0, MPZ_ONE, 1 - wp, 1), wp, _RND), wp, _RND)
    singular = ZeroDivisionError("matrix is numerically singular")
    perm = []
    for j in range(n - 1):
        biggest, pivot = fzero, None
        for k in range(j, n):
            s = mpf_sum([mpf_abs(v, wp, _RND) for v in a[k][j:]], wp, _RND)
            if mpf_le(mpf_abs(s, wp, _RND), tol):
                raise singular
            current = mpf_mul(mpf_rdiv_int(1, s, wp, _RND), mpf_abs(a[k][j], wp, _RND), wp, _RND)
            if mpf_gt(current, biggest):
                biggest, pivot = current, k
        if pivot is None:
            raise singular
        a[j], a[pivot] = a[pivot], a[j]
        perm.append(pivot)
        top = a[j]
        if mpf_le(mpf_abs(top[j], wp, _RND), tol):
            raise singular
        for row in a[j + 1:]:
            f = row[j] = mpf_div(row[j], top[j], wp, _RND)
            for k in range(j + 1, n):
                row[k] = mpf_sub(row[k], mpf_mul(f, top[k], wp, _RND), wp, _RND)
    if mpf_le(mpf_abs(a[n - 1][n - 1], wp, _RND), tol):
        raise singular
    for j, k in enumerate(perm):
        b[j], b[k] = b[k], b[j]
    for i in range(1, n):
        for j in range(i):
            b[i] = mpf_sub(b[i], mpf_mul(a[i][j], b[j], wp, _RND), wp, _RND)
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            b[i] = mpf_sub(b[i], mpf_mul(a[i][j], b[j], wp, _RND), wp, _RND)
        b[i] = mpf_div(b[i], a[i][i], wp, _RND)
    return b


def _rung(terms, prec: int):
    """The distinct roots of terms, and (root index, raw phase, mult) per term."""
    index = {}
    rung = tuple((index.setdefault(alpha, len(index)), _ratio(t, prec), m)
                 for alpha, t, m in terms)
    return tuple(index), rung


def _log_volume(roots, rung, x, prec: int):
    """Log volume sum m*log|sin(pi p)| at x and each term's (cos, sin), from one
    cos_sin per term with p = alpha . x + phase and one pairing per root."""
    pi = mpf_pi(prec, _RND)
    pairs = [_pairing(alpha, x, prec) for alpha in roots]
    total = None
    trig = []
    for k, phase, m in rung:
        c, s = mpf_cos_sin(mpf_mul(pi, mpf_add(pairs[k], phase, prec, _RND), prec, _RND),
                           prec, _RND)
        log = mpf_log(mpf_abs(s), prec, _RND)
        if m != 1:
            log = mpf_mul_int(log, m, prec, _RND)
        total = log if total is None else mpf_add(total, log, prec, _RND)
        trig.append((c, s))
    return fzero if total is None else total, trig


def find_minimal(d: GradedRootDatum, tolerance=Fraction(1, 10 ** 20)) -> MinimalOrbit:
    """Damped Newton ascent of the orbit-volume functional, then certify.

    Each iterate evaluates every term's sine and cosine once and every
    root's pairing alpha . x once, and sums the gradient and the Hessian
    with _pairing over the terms' root columns, Hessian row i over the terms
    with a_i != 0.  A rung that sees no increase in 80 halvings restarts
    from the barycenter at twice the bits.  The point has exact dyadic
    coordinates and a certified norm below the tolerance, any value
    Fraction() accepts (a float is its exact binary value); iterations
    counts every rung's iterates and precision_bits is the rung that certified.

    The ascent runs on raw mpmath.libmp values at the rung's bits, rounded
    to nearest: each step is the mpf_* call, in the operand order, that the
    mpf operator it stands for makes (int * mpf is mpf_mul_int, a sum from 0
    starts at fzero), so every iterate has the bits of plain mpf
    arithmetic.  A call that normalize at the rung's bits would return
    unchanged is skipped: 0 + v, and 1 * v (-1 * v is mpf_neg) on a value of
    at most that many bits, as every value is but the Newton step.  The step
    is _lu_solve, mpmath's LU 10 bits above the rung.
    """
    tol = Fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    terms = positive_sector_roots(d)
    cols = tuple(zip(*(alpha for alpha, _, _ in terms)))  # per simple root, a_i of each term
    nzs = [[t for t, a in enumerate(col) if a] for col in cols]  # per i, the terms with a_i != 0
    subs = [[[c[t] for t in nz] for c in cols] for nz in nzs]  # and each column on those terms
    facets = fundamental_alcove(d)
    start = alcove_barycenter(d)
    r = d.rank
    g = d.sigma.gram.entries
    bits_needed = max(DEFAULT_PRECISION_BITS,
                      (tol.denominator // max(tol.numerator, 1)).bit_length() + 96)
    prec = bits_needed
    total_iter = 0
    while prec <= 4 * MAX_PRECISION_BITS:
        pi = mpf_pi(prec, _RND)
        pi2 = mpf_pow_int(pi, 2, prec, _RND)
        roots, rung = _rung(terms, prec)
        gram = [(i, j, from_int(g[i][j].numerator, prec, _RND), from_int(g[i][j].denominator))
                for i, j in product(range(r), repeat=2) if g[i][j]]
        walls = [(q.normal, _ratio(q.bound, prec)) for q in facets]
        shrink = from_str("0.99", prec, _RND)
        quarter = mpf_div(_ratio(tol, prec), _FOUR, prec, _RND)
        x = [_ratio(c, prec) for c in start.coeffs]
        base, trig = _log_volume(roots, rung, x, prec)
        for _ in range(60 + 4 * prec):
            total_iter += 1
            mcts, ws = [], []
            for (_, _, m), (cos, sin) in zip(rung, trig):
                ct = mpf_div(cos, sin, prec, _RND)
                w = mpf_add(mpf_mul(ct, ct, prec, _RND), _ONE, prec, _RND)
                if m != 1:
                    ct, w = mpf_mul_int(ct, m, prec, _RND), mpf_mul_int(w, m, prec, _RND)
                mcts.append(ct)
                ws.append(w)
            grad = [mpf_mul(pi, _pairing(col, mcts, prec), prec, _RND) for col in cols]
            mh = [mpf_div(mpf_neg(gi), pi, prec, _RND) for gi in grad]
            est2 = None
            for i, j, num, den in gram:
                v = mpf_mul(mpf_mul(mh[i], mh[j], prec, _RND), num, prec, _RND)
                v = mpf_div(v, den, prec, _RND)
                est2 = v if est2 is None else mpf_add(est2, v, prec, _RND)
            est = mpf_sqrt(mpf_abs(est2), prec, _RND)
            if mpf_lt(est, quarter):
                exact = AlcovePoint(tuple(mpf_to_fraction(v) for v in x))
                if point_in_alcove(d, exact, strict=True):
                    mc = mean_curvature(d, exact, max(DEFAULT_PRECISION_BITS, prec))
                    if mc.norm.hi < tol:
                        return MinimalOrbit(exact, mc.norm, total_iter, prec)
                break
            # (w * a_i) * a_j over the terms with a_i != 0: the two orders round apart
            was = [[ws[t] if a == 1 else mpf_mul_int(ws[t], a, prec, _RND)
                    for t, a in zip(nz, sub[i])] for i, (nz, sub) in enumerate(zip(nzs, subs))]
            hess = [[mpf_mul(pi2, _pairing(c, wa, prec), prec, _RND) for c in sub]
                    for wa, sub in zip(was, subs)]
            step = _lu_solve(hess, grad, prec)
            lam = _ONE
            for normal, bound in walls:
                ad = _pairing(normal, step, prec)
                if mpf_gt(ad, fzero):
                    room = mpf_div(mpf_sub(bound, _pairing(normal, x, prec), prec, _RND),
                                   ad, prec, _RND)
                    room = mpf_mul(room, shrink, prec, _RND)
                    if mpf_lt(room, lam):
                        lam = room
            for _ in range(80):
                trial = [mpf_add(xi, mpf_mul(lam, si, prec, _RND), prec, _RND)
                         for xi, si in zip(x, step)]
                value, trial_trig = _log_volume(roots, rung, trial, prec)
                if mpf_gt(value, base):
                    x, base, trig = trial, value, trial_trig
                    break
                lam = mpf_div(lam, _TWO, prec, _RND)
            else:
                break
        prec *= 2
    raise NoConvergence(f"no certified point below {to_str(_ratio(tol, 53), 3)}: the ladder "
                        f"starts at {bits_needed} bits, its cap is {4 * MAX_PRECISION_BITS} bits")


def scan_austere(d: GradedRootDatum, denominator: int):
    """Austere points on the (1/denominator)-grid of the closed alcove.

    Returns the points in lexicographic order.  Every austere point lies on
    the 1/(2*order) grid: a root alpha with a sector phase t0 is balanced
    only if -(c + t0) = c + t1 mod 1 for some phase t1, c = alpha . x, so
    2c lies in (1/order)Z, and each simple root (a unit vector) carries a
    sector.  So only the grid of step 1/gcd(denominator, 2*order) is walked;
    it holds the same austere points.  The walk is in integers, the class
    table of each point inside from integer pairings, and a hit alone is
    made an AlcovePoint.
    """
    if denominator < 1:
        raise ValueError("denominator must be a positive integer")
    g = gcd(denominator, 2 * d.order)
    den = lcm(g, d.order)  # k/g is k * (den // g) over den, as sector_angles would scale it
    stream = [(alpha, t.numerator * (den // t.denominator), m)
              for alpha, t, m in positive_sector_roots(d)]
    hits = []
    for combo in alcove_grid(d, g):
        nums = [(pairing(alpha, combo) * (den // g) + t) % den for alpha, t, _ in stream]
        if _austere(_classes(den, stream, nums)[1]) is TriState.YES:
            hits.append(AlcovePoint(tuple(Fraction(c, g) for c in combo)))
    return tuple(hits)
