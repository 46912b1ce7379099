"""Orbit invariants over the alcove: spectrum, mean curvature, classifications.

All bookkeeping runs over positive roots with a nonzero angle.  An orbit
report scales its point once, to integers over D = lcm(order, its
denominators); the facet sides and one angle pass read that, with each
sector phase t as the integer order * t.  The pass groups the terms by
angle n/D, for the mean curvature's one cotangent per angle, whose raw ends
it reads as integers over one 2^e, and builds one table: per class (n,
alpha), n/D = min(theta, 1 - theta) < 1/2, the multiplicity at theta minus
that at 1 - theta.

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
its iterates are reproducible bit for bit: it runs on integer pairs
(m, e) for m * 2^e, each step the exact result rounded once by exact's
kernel, as the libmp call of the mpf operator it stands for rounds it, the
per-rung constants included; libmp makes pi, each distinct angle's cos_sin
and log, each iterate's sqrt and the LU step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from mpmath.libmp import (MPZ_ONE, fzero, mpf_abs, mpf_cos_sin, mpf_div, mpf_gt, mpf_le, mpf_log,
                          mpf_mul, mpf_pi, mpf_rdiv_int, mpf_sqrt, mpf_sub, mpf_sum, round_nearest,
                          to_str)

from .alcove import (ActiveRoots, ActiveWalls, AlcovePoint, _scaled, _walls, active_walls,
                     alcove_barycenter, alcove_grid, fundamental_alcove, point_in_alcove,
                     sector_angles)
from .datum import GradedRootDatum, positive_sector_roots, sector_phases
from .exact import (DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, DimensionMismatch,
                    RealInterval, _add, _div, _lt, _mpf, _mul, _pair, _ratio, _round,
                    cot_eval, mpf_to_fraction, pairing, sqrt_ratio_interval)
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
    groups, table = {}, {}
    for (alpha, _, m), n in zip(stream, nums):
        if n:
            groups.setdefault(n, []).append((alpha, m))
            if 2 * n != den:
                key = min(n, den - n), alpha
                table[key] = table.get(key, 0) + (m if 2 * n < den else -m)
    return groups, table


def _angle_pass(d: GradedRootDatum, scaled):
    """D, the angle numerators and the class table at scaled = _scaled(d, point, d.order)."""
    stream = sector_phases(d)
    den, nums = sector_angles(d, scaled, stream)
    return (den, *_classes(den, stream, nums))


def cot_terms(d: GradedRootDatum, point: AlcovePoint):
    """Nonzero-angle terms over positive roots, sector by sector."""
    stream = sector_phases(d)
    den, nums = sector_angles(d, _scaled(d, point, d.order), stream)
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
    point's one denominator D, and one pairing per root with xi in integers.
    """
    if len(xi) != d.rank:
        raise DimensionMismatch(f"xi of length {len(xi)} against rank {d.rank}")
    xd, xk = _scaled(d, AlcovePoint(tuple(xi)))  # xi as integers over xd
    stream = sector_phases(d)
    den, nums = sector_angles(d, _scaled(d, point, d.order), stream)
    cots, slopes, terms = {}, {}, []
    for (alpha, _, m), n in zip(stream, nums):
        if n:
            if n not in cots:
                theta = Fraction(n, den)
                cots[n] = theta, cot_eval(theta, DEFAULT_PRECISION_BITS)
            theta, cot = cots[n]
            slope = slopes.get(alpha)
            if slope is None:
                slope = slopes[alpha] = Fraction(pairing(alpha, xk), xd)
            terms.append(SpectrumTerm(alpha, theta, m, slope, cot.scale(-slope)))
    return SpectrumReport(d.zero_mult, tuple(terms), DEFAULT_PRECISION_BITS)


@dataclass(frozen=True)
class MeanCurvature:
    """The ends (lo, hi) of m_H's coefficients, integers over 2^scale, and its norm."""

    ends: tuple
    scale: int
    norm: RealInterval

    @property
    def coeffs(self) -> tuple:
        one = 1 << self.scale
        return tuple(RealInterval(Fraction(lo, one), Fraction(hi, one), self.norm.precision_bits)
                     for lo, hi in self.ends)


def _mean_curvature(d: GradedRootDatum, den: int, groups, precision_bits: int) -> MeanCurvature:
    """The certified enclosure, summed in Python ints, one cot_eval per angle n/den.

    Every cot_eval endpoint [a, b] is dyadic, read off its raw end's pair, so
    each coefficient interval is two integers over one 2^e, and the squared
    norm is integers over 2^(2e) times the Gram form's denominator: the
    rationals of interval sums and products over Fraction.  A term adds
    k*[a, b], k = -mult * alpha_j <= 0 (the roots are positive), ends
    swapped; an angle adds -K*[b, a], K the sum of its mult * alpha_j.  The
    Gram sum takes each unordered pair once, an off-diagonal entry twice,
    whose sign picks the least or the largest of the four end products for
    each end.  The norm's raw ends are sqrt_ratio_interval of the squared
    norm at precision_bits + 16, one integer square root per end.
    """
    r = d.rank
    cots = [tuple(map(_pair, cot_eval(Fraction(n, den), precision_bits).raw)) for n in groups]
    e = max([0, *(-exp for c in cots for _, exp in c)])
    lo, hi = [0] * r, [0] * r
    for c, pairs in zip(cots, groups.values()):
        a, b = (m << e + exp for m, exp in c)
        ks = [0] * r
        for alpha, m in pairs:
            for j, x in enumerate(alpha):
                if x:
                    ks[j] += m * x
        for j, k in enumerate(ks):
            if k:
                lo[j] -= k * b
                hi[j] -= k * a
    rows, gden = d.sigma.gram.form
    n_lo = n_hi = 0
    for i, (row, a, b) in enumerate(zip(rows, lo, hi)):
        for j, g in enumerate(row[i:], i):
            if g:
                c, f = lo[j], hi[j]
                p = (a * c, a * f, b * c, b * f)
                g = g if i == j else 2 * g
                small, big = (min(p), max(p)) if g > 0 else (max(p), min(p))
                n_lo += g * small
                n_hi += g * big
    root = sqrt_ratio_interval(max(n_lo, 0), max(n_hi, 0), gden << 2 * e, precision_bits + 16)
    return MeanCurvature(tuple(zip(lo, hi)), e, RealInterval.from_raw(*root, precision_bits))


def mean_curvature(d: GradedRootDatum, point: AlcovePoint,
                   precision_bits: int = DEFAULT_PRECISION_BITS) -> MeanCurvature:
    """Certified enclosure of m_H = -sum mult*cot(theta)*alpha and its norm."""
    return _mean_curvature(d, *_angle_pass(d, _scaled(d, point, d.order))[:2], precision_bits)


def is_totally_geodesic(d: GradedRootDatum, point: AlcovePoint) -> bool:
    """True when every sector angle lands in (pi/2) Z: the class table is empty."""
    return not _angle_pass(d, _scaled(d, point, d.order))[2]


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
    return _austere(_angle_pass(d, _scaled(d, point, d.order))[2])


def _minimal(table, norm: RealInterval) -> TriState:
    """Yes when, for each n, the entries (n, alpha) times alpha sum to zero."""
    sums = {}
    for (n, alpha), m in table.items():
        for j, c in enumerate(alpha):
            sums[n, j] = sums.get((n, j), 0) + m * c
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
    den, groups, table = _angle_pass(d, _scaled(d, point, d.order))
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
    the type, arid* and WR* from the facet walls through it, both read off
    one scaling of the point.
    """
    scaled = _scaled(d, point, d.order)
    den, groups, table = _angle_pass(d, scaled)
    walls = _walls(d, point, scaled)
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
_ONE = 1, 0


def _pairing(alpha, x, prec: int):
    """pairing(alpha, x) for pairs x: sum(a * y) from 0, each step rounded to
    nearest at prec bits; a zero coefficient adds an exact 0, which rounds to
    no change."""
    acc = 0, 0
    for a, (m, e) in zip(alpha, x):
        if a:
            acc = _add(acc, _round(a * m, e, prec), prec)
    return acc


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


def _mirror(cols):
    """The pairs (i, j), j < i, where H[i][j] is H[j][i] bit for bit: on each term
    with a_i, a_j != 0 their odd parts are equal or one is 1, so (w * a_i) * a_j
    and (w * a_j) * a_i round alike (a product with +-2^k is an exact shift),
    and both entries add them over the same terms in the same order."""
    odd = [[abs(a // (a & -a)) if a else 0 for a in col] for col in cols]
    return {(j, i) for i, j in combinations(range(len(cols)), 2)
            if all(p == q or 1 in (p, q) for p, q in zip(odd[i], odd[j]) if p and q)}


def _rung(terms, prec: int):
    """The distinct roots of terms, and (root index, phase pair, mult) per term."""
    index = {}
    rung = tuple((index.setdefault(alpha, len(index)), _ratio(t, prec), m)
                 for alpha, t, m in terms)
    return tuple(index), rung


def _log_volume(roots, rung, x, prec: int):
    """Log volume sum m*log|sin(pi p)| at the pairs x and each term's (cos, sin),
    all pairs, p = alpha . x + phase: one pairing per root, and one mpf_cos_sin
    and mpf_log per distinct angle pi * p, looked up by its normalized raw
    value, so a repeated angle gets the bits of its first call."""
    pi = _pair(mpf_pi(prec, _RND))
    pairs = [_pairing(alpha, x, prec) for alpha in roots]
    total, trig, seen = (0, 0), [], {}
    for k, phase, m in rung:
        t = _mpf(*_mul(pi, _add(pairs[k], phase, prec) if phase[0] else pairs[k], prec))
        hit = seen.get(t)
        if hit is None:
            c, s = mpf_cos_sin(t, prec, _RND)
            hit = seen[t] = (_pair(c), _pair(s)), _pair(mpf_log((0, *s[1:]), prec, _RND))
        cs, (lm, le) = hit
        total = _add(total, _round(m * lm, le, prec), prec)
        trig.append(cs)
    return total, trig


def find_minimal(d: GradedRootDatum, tolerance=Fraction(1, 10 ** 20)) -> MinimalOrbit:
    """Damped Newton ascent of the orbit-volume functional, then certify.

    Each iterate evaluates every root's pairing alpha . x once and each
    distinct angle's sine, cosine and log once, and sums the gradient and
    the Hessian with _pairing over the terms' root columns, Hessian row i
    over the terms with a_i != 0.  A rung that sees no increase in 80
    halvings restarts from the barycenter at twice the bits.  The point has
    exact dyadic coordinates and a certified norm below the tolerance, any
    value Fraction() accepts (a float is its exact binary value); iterations
    counts every rung's iterates and precision_bits is the rung that certified.

    The ascent holds every value as a pair (m, e) for m * 2^e, and each
    step of the mpf operators it stands for (int * mpf and sums from 0
    included) is the exact result in integers rounded once to the rung's
    bits by exact._round, to nearest, as libmp rounds it; so every iterate
    has the bits of plain mpf arithmetic, and so have the per-rung constants,
    made by exact._ratio and _round.  libmp makes pi, each angle's cos_sin
    and log and each iterate's sqrt; the step is _lu_solve, mpmath's LU 10
    bits above the rung, on raw values.
    """
    tol = Fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    terms = positive_sector_roots(d)
    cols = tuple(zip(*(alpha for alpha, _, _ in terms)))  # per simple root, a_i of each term
    nzs = [[t for t, a in enumerate(col) if a] for col in cols]  # per i, the terms with a_i != 0
    subs = [[[c[t] for t in nz] for c in cols] for nz in nzs]  # and each column on those terms
    mirror = _mirror(cols)
    facets = fundamental_alcove(d)
    start = alcove_barycenter(d)
    r = d.rank
    g = d.sigma.gram.entries
    bits_needed = max(DEFAULT_PRECISION_BITS,
                      (tol.denominator // max(tol.numerator, 1)).bit_length() + 96)
    prec = bits_needed
    total_iter = 0
    while prec <= 4 * MAX_PRECISION_BITS:
        pi = _pair(mpf_pi(prec, _RND))
        pi2 = _mul(pi, pi, prec)  # mpf_pow_int(pi, 2) rounds the square once
        roots, rung = _rung(terms, prec)
        gram = [(i, j, _round(g[i][j].numerator, 0, prec), (g[i][j].denominator, 0))
                for i, j in product(range(r), repeat=2) if g[i][j]]
        walls = [(q.normal, _ratio(q.bound, prec)) for q in facets]
        shrink = _ratio(Fraction(99, 100), prec)  # from_str("0.99") gives the same bits
        quarter = _div(_ratio(tol, prec), (4, 0), prec)
        x = [_ratio(c, prec) for c in start.coeffs]
        base, trig = _log_volume(roots, rung, x, prec)
        for _ in range(60 + 4 * prec):
            total_iter += 1
            mcts, ws = [], []
            for (_, _, m), (cos, sin) in zip(rung, trig):
                cm, ce = ct = _div(cos, sin, prec)
                wm, we = _add(_mul(ct, ct, prec), _ONE, prec)
                mcts.append(_round(m * cm, ce, prec))
                ws.append(_round(m * wm, we, prec))
            grad = [_mul(pi, _pairing(col, mcts, prec), prec) for col in cols]
            est2 = 0, 0
            mh = [_div((-gm, ge), pi, prec) for gm, ge in grad]
            for i, j, num, den in gram:
                v = _div(_mul(_mul(mh[i], mh[j], prec), num, prec), den, prec)
                est2 = _add(est2, v, prec)
            est = mpf_sqrt(_mpf(abs(est2[0]), est2[1]), prec, _RND)
            if _lt(*_pair(est), *quarter):
                exact = AlcovePoint(tuple(mpf_to_fraction(_mpf(*v)) for v in x))
                if point_in_alcove(d, exact, strict=True):
                    mc = mean_curvature(d, exact, max(DEFAULT_PRECISION_BITS, prec))
                    if mc.norm.hi < tol:
                        return MinimalOrbit(exact, mc.norm, total_iter, prec)
                break
            # (w * a_i) * a_j over the terms with a_i != 0, H[i][j] = H[j][i] in mirror
            hess = []
            for i, (nz, sub) in enumerate(zip(nzs, subs)):
                wa = [_round(ws[t][0] * a, ws[t][1], prec) for t, a in zip(nz, sub[i])]
                hess.append([hess[j][i] if (i, j) in mirror else
                             _mul(pi2, _pairing(c, wa, prec), prec)
                             for j, c in enumerate(sub)])
            step = _lu_solve([[_mpf(*v) for v in row] for row in hess],
                             [_mpf(*v) for v in grad], prec)
            step = [_pair(v) for v in step]
            lam = _ONE
            for normal, bound in walls:
                ad = _pairing(normal, step, prec)
                if ad[0] > 0:
                    dm, de = _pairing(normal, x, prec)
                    room = _mul(_div(_add(bound, (-dm, de), prec), ad, prec), shrink, prec)
                    if _lt(*room, *lam):
                        lam = room
            for _ in range(80):
                trial = [_add(xi, _mul(lam, si, prec), prec) for xi, si in zip(x, step)]
                value, trial_trig = _log_volume(roots, rung, trial, prec)
                if _lt(*base, *value):
                    x, base, trig = trial, value, trial_trig
                    break
                lam = lam[0], lam[1] - 1  # lam / 2, exact
            else:
                break
        prec *= 2
    raise NoConvergence(f"no certified point below {to_str(_mpf(*_ratio(tol, 53)), 3)}: the ladder "
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
    stream = [(alpha, ot * (den // d.order), m) for alpha, ot, m in sector_phases(d)]
    hits = []
    for combo in alcove_grid(d, g):
        nums = [(pairing(alpha, combo) * (den // g) + t) % den for alpha, t, _ in stream]
        if _austere(_classes(den, stream, nums)[1]) is TriState.YES:
            hits.append(AlcovePoint(tuple(Fraction(c, g) for c in combo)))
    return tuple(hits)
