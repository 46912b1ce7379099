"""Orbit invariants over the alcove: spectrum, mean curvature, classifications.

All bookkeeping runs over positive roots with a nonzero angle; a root whose
wall passes through the point contributes nothing.  One pass builds these
cot terms and every classification of an orbit report is read off them.

In direction xi the principal curvatures are -<alpha, xi> cot(pi theta).
The identities cot(pi - x) = -cot x and cot(pi/2) = 0 make the multiset
symmetric under -1 when every root is balanced, m(alpha, theta) =
m(alpha, 1 - theta); no cross pair on a root line cancels an excess (see
_austere), so austere is exactly yes or no.  Balance puts 2 alpha.x in
(1/order)Z, so every austere point lies on the 1/(2*order) grid and
scan_austere walks only the part of its grid on it.  Minimal is yes when
every angle class cancels exactly and no when the certified norm is
positive; it is an honest tri-state: yes and no are proved, indeterminate
means neither certificate was reached.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd

import mpmath

from .alcove import (ActiveRoots, AlcovePoint, active_roots, alcove_barycenter,
                     alcove_vertices, fundamental_alcove, point_in_alcove,
                     sector_angles)
from .datum import GradedRootDatum, positive_sector_roots
from .exact import (DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, RealInterval,
                    cot_eval, interval_from_iv, iv_from_interval,
                    mpf_to_fraction, pairing, _iv)
from .roots import (CartanLabel, contains_minus_identity, tits_minus_identity,
                    weyl_group)


class NoConvergence(RuntimeError):
    """Volume maximization failed to certify within the precision ladder."""


class InternalInconsistency(RuntimeError):
    """Two independent routes to the same fact disagree."""


_HALF = Fraction(1, 2)


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


def cot_terms(d: GradedRootDatum, point: AlcovePoint):
    """Nonzero-angle terms over positive roots, sector by sector."""
    stream = tuple(positive_sector_roots(d))
    den, nums = sector_angles(d, point, stream)
    return tuple(CotTerm(alpha, Fraction(n, den), m)
                 for (alpha, _, m), n in zip(stream, nums) if n)


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
    <alpha, xi> is exact; only the cotangent is an interval.
    """
    xi = tuple(Fraction(x) for x in xi)
    terms = []
    for t in cot_terms(d, point):
        slope = pairing(t.alpha, xi)
        value = cot_eval(t.theta, DEFAULT_PRECISION_BITS).scale(-slope)
        terms.append(SpectrumTerm(t.alpha, t.theta, t.mult, slope, value))
    return SpectrumReport(d.zero_mult, tuple(terms), DEFAULT_PRECISION_BITS)


@dataclass(frozen=True)
class MeanCurvature:
    coeffs: tuple
    norm: RealInterval


def _mean_curvature(d: GradedRootDatum, terms, precision_bits: int) -> MeanCurvature:
    """The certified enclosure, summed in Python ints.

    Every cot_eval endpoint is dyadic, so each coefficient interval is two
    integers over one 2^e, and the squared norm is integers over 2^(2e)
    times the denominator of the Gram form: the same rationals as interval
    sums and products over Fraction, with no Fraction per operation.
    """
    r = d.rank
    cots = [cot_eval(t.theta, precision_bits) for t in terms]
    e = max((q.denominator.bit_length() - 1 for c in cots for q in (c.lo, c.hi)), default=0)
    lo, hi = [0] * r, [0] * r
    for t, c in zip(terms, cots):
        a, b = (q.numerator << (e + 1 - q.denominator.bit_length()) for q in (c.lo, c.hi))
        for j, x in enumerate(t.alpha):
            if x:
                k = -t.mult * x
                u, v = (a * k, b * k) if k > 0 else (b * k, a * k)
                lo[j] += u
                hi[j] += v
    rows, den = d.sigma.gram.form
    n_lo = n_hi = 0
    for i, j in product(range(r), repeat=2):
        if rows[i][j]:
            p = [rows[i][j] * y * z for y in (lo[i], hi[i]) for z in (lo[j], hi[j])]
            n_lo += min(p)
            n_hi += max(p)
    one, scale = 1 << e, den << 2 * e
    coeffs = tuple(RealInterval(Fraction(x, one), Fraction(y, one), precision_bits)
                   for x, y in zip(lo, hi))
    norm2 = RealInterval(Fraction(max(n_lo, 0), scale), Fraction(max(n_hi, 0), scale),
                         precision_bits)
    ctx = _iv(precision_bits + 16)
    root = ctx.sqrt(iv_from_interval(ctx, norm2))
    return MeanCurvature(coeffs, interval_from_iv(root, precision_bits))


def mean_curvature(d: GradedRootDatum, point: AlcovePoint,
                   precision_bits: int = DEFAULT_PRECISION_BITS) -> MeanCurvature:
    """Certified enclosure of m_H = -sum mult*cot(theta)*alpha and its norm."""
    return _mean_curvature(d, cot_terms(d, point), precision_bits)


def _totally_geodesic(terms) -> bool:
    return all(t.theta == _HALF for t in terms)


def is_totally_geodesic(d: GradedRootDatum, point: AlcovePoint) -> bool:
    """True when every sector angle lands in (pi/2) Z."""
    return _totally_geodesic(cot_terms(d, point))


def _austere(terms) -> TriState:
    """Yes exactly when every root alpha balances theta against 1 - theta.

    In a generic direction only roots on one line share a curvature, and
    only alpha and 2*alpha share a line (verify_axioms rejects 3*alpha and
    4*alpha).  So an unbalanced class could only be offset by a cross pair
    cot x + 2 cot y = 0 (y -> pi - y covers an equal-sign coincidence), with
    x, y rational multiples of pi outside (pi/2) Z.  That is a vanishing
    rational sum of four roots of unity; by Mann's theorem (Mathematika 12,
    1965) and the classification of Conway and Jones (Acta Arith. 30, 1976)
    it forces x, y in (pi/6) Z, where cot x / cot y is never -2.  So the
    verdict is exact: yes or no, never indeterminate.
    """
    counts = Counter()
    for t in terms:
        counts[t.alpha, t.theta] += t.mult
    balanced = all(m == counts[a, 1 - theta] for (a, theta), m in counts.items())
    return TriState.YES if balanced else TriState.NO


def is_austere(d: GradedRootDatum, point: AlcovePoint) -> TriState:
    """Exact yes/no test for invariance of the curvature multiset under -1."""
    return _austere(cot_terms(d, point))


def _folded_angle_classes(terms):
    """Group terms by cot value class: theta and 1-theta carry opposite signs."""
    classes = {}
    for t in terms:
        theta, sign = t.theta, 1
        if theta > _HALF:
            theta, sign = 1 - theta, -1
        if theta == _HALF:
            continue
        vec = classes.setdefault(theta, None)
        if vec is None:
            vec = classes[theta] = [0] * len(t.alpha)
        for j, c in enumerate(t.alpha):
            vec[j] += sign * t.mult * c
    return classes


def _minimal(terms, norm: RealInterval) -> TriState:
    if all(not any(vec) for vec in _folded_angle_classes(terms).values()):
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
    terms = cot_terms(d, point)
    return _minimal(terms, _mean_curvature(d, terms, DEFAULT_PRECISION_BITS).norm)


@dataclass(frozen=True)
class SymmetryFlags:
    arid_sufficient: bool
    weakly_reflective_sufficient: bool


def symmetry_flags(d: GradedRootDatum, point: AlcovePoint,
                   actives: ActiveRoots | None = None) -> SymmetryFlags:
    """Sufficient conditions read off the active-root system.

    arid needs the active roots to span; weakly reflective additionally
    needs -id in their Weyl group, which is double-checked against the
    type-based prediction.
    """
    if actives is None:
        actives = active_roots(d, point)
    if len(actives.system.simple_roots) < d.rank:
        return SymmetryFlags(False, False)
    w = weyl_group(actives.system)
    has = contains_minus_identity(w)
    labels = [c.label for c in actives.components]
    predicted = tits_minus_identity(labels)
    if has != predicted:
        raise InternalInconsistency(
            f"-id in Weyl group: chamber orbit says {has}, "
            f"type table for {'+'.join(map(str, labels))} says {predicted}")
    return SymmetryFlags(True, has)


def type_label(d: GradedRootDatum, actives: ActiveRoots) -> str:
    """Component labels of the active system, ambient-aware for rank one.

    A reduced rank-one component whose root has its double in the ambient
    system is reported as B1, matching the naming of short-root components
    inside a non-reduced ambient system.
    """
    if not actives.components:
        return "(none)"
    labels = []
    for comp in actives.components:
        lab = comp.label
        if lab == CartanLabel("A", 1):
            if tuple(2 * x for x in comp.roots[-1]) in d.sigma.roots:
                lab = CartanLabel("B", 1)
        labels.append(lab)
    return "+".join(str(lab) for lab in sorted(labels))


@dataclass(frozen=True)
class OrbitReport:
    point: AlcovePoint
    actives: ActiveRoots
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
    """Every classification of one orbit, from a single pass over its terms."""
    terms = cot_terms(d, point)
    actives = active_roots(d, point)
    mc = _mean_curvature(d, terms, DEFAULT_PRECISION_BITS)
    flags = symmetry_flags(d, point, actives)
    return OrbitReport(point, actives, type_label(d, actives),
                       _totally_geodesic(terms), _austere(terms),
                       _minimal(terms, mc.norm),
                       flags.arid_sufficient, flags.weakly_reflective_sufficient,
                       mc)


@dataclass(frozen=True)
class MinimalOrbit:
    point: AlcovePoint
    norm: RealInterval
    iterations: int
    precision_bits: int


def _log_volume(terms, x):
    """Log volume sum m*log|sin(pi p)| at x and each term's (cos, sin), from one
    cos_sin per term (alpha, phase, m) with p = alpha . x + phase."""
    total = mpmath.mpf(0)
    trig = []
    for alpha, phase, m in terms:
        c, s = mpmath.cos_sin(mpmath.pi * (pairing(alpha, x) + phase))
        total += m * mpmath.log(abs(s))
        trig.append((c, s))
    return total, trig


def find_minimal(d: GradedRootDatum, tolerance=Fraction(1, 10 ** 20)) -> MinimalOrbit:
    """Damped Newton ascent of the orbit-volume functional, then certify.

    Each iterate evaluates every term's sine and cosine once.  A rung that
    sees no increase in 80 halvings restarts from the barycenter at twice
    the bits.  The point has exact dyadic coordinates and a certified norm
    below the tolerance, any value Fraction() accepts (a float is its exact
    binary value); iterations counts every rung's iterates and
    precision_bits is the rung that certified.
    """
    tol = Fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    terms = tuple(positive_sector_roots(d))
    facets = fundamental_alcove(d)
    start = alcove_barycenter(d)
    r = d.rank
    g = d.sigma.gram.entries
    bits_needed = max(DEFAULT_PRECISION_BITS,
                      (tol.denominator // max(tol.numerator, 1)).bit_length() + 96)
    prec = bits_needed
    total_iter = 0
    while prec <= 4 * MAX_PRECISION_BITS:
        with mpmath.mp.workprec(prec):
            rung = [(alpha, mpmath.mpf(t.numerator) / t.denominator, m)
                    for alpha, t, m in terms]
            pi2 = mpmath.pi ** 2
            x = [mpmath.mpf(c.numerator) / c.denominator for c in start.coeffs]
            tol_mp = mpmath.mpf(tol.numerator) / tol.denominator
            base, trig = _log_volume(rung, x)
            for _ in range(60 + 4 * prec):
                total_iter += 1
                cots = []
                for (alpha, _, m), (cos, sin) in zip(rung, trig):
                    ct = cos / sin
                    cots.append((alpha, m * ct, m * (1 + ct * ct)))
                grad = [mpmath.pi * sum(mct * alpha[i] for alpha, mct, _ in cots
                                        if alpha[i])
                        for i in range(r)]
                mh = [-gi / mpmath.pi for gi in grad]
                est2 = mpmath.mpf(0)
                for i in range(r):
                    for j in range(r):
                        if g[i][j]:
                            est2 += mh[i] * mh[j] * mpmath.mpf(g[i][j].numerator) \
                                / g[i][j].denominator
                est = mpmath.sqrt(abs(est2))
                if est < tol_mp / 4:
                    exact = AlcovePoint(tuple(mpf_to_fraction(v) for v in x))
                    if point_in_alcove(d, exact, strict=True):
                        mc = mean_curvature(d, exact, max(DEFAULT_PRECISION_BITS, prec))
                        if mc.norm.hi < tol:
                            return MinimalOrbit(exact, mc.norm, total_iter, prec)
                    break
                hess = mpmath.matrix(r, r)
                for i in range(r):
                    for j in range(r):
                        s = mpmath.mpf(0)
                        for alpha, _, w in cots:
                            if alpha[i] and alpha[j]:
                                s += w * alpha[i] * alpha[j]
                        hess[i, j] = pi2 * s
                step = mpmath.lu_solve(hess, mpmath.matrix(grad))
                lam = mpmath.mpf(1)
                for q in facets:
                    ad = pairing(q.normal, step)
                    if ad > 0:
                        ax = pairing(q.normal, x)
                        b = mpmath.mpf(q.bound.numerator) / q.bound.denominator
                        room = (b - ax) / ad
                        if room * mpmath.mpf("0.99") < lam:
                            lam = room * mpmath.mpf("0.99")
                for _ in range(80):
                    trial = [xi + lam * step[i] for i, xi in enumerate(x)]
                    value, trial_trig = _log_volume(rung, trial)
                    if value > base:
                        x, base, trig = trial, value, trial_trig
                        break
                    lam /= 2
                else:
                    break
        prec *= 2
    short = mpmath.nstr(mpmath.mpf(tol.numerator) / tol.denominator, 3)
    raise NoConvergence(f"no certified point below {short}: the ladder starts at "
                        f"{bits_needed} bits, its cap is {4 * MAX_PRECISION_BITS} bits")


def scan_austere(d: GradedRootDatum, denominator: int):
    """Austere points on the (1/denominator)-grid of the closed alcove.

    Returns the points in lexicographic order.  Every austere point lies on
    the 1/(2*order) grid: a root alpha with a sector phase t0 is balanced
    only if -(c + t0) = c + t1 mod 1 for some phase t1, c = alpha . x, so
    2c lies in (1/order)Z, and each simple root (a unit vector) carries a
    sector.  So only the grid of step 1/gcd(denominator, 2*order) is walked;
    it holds the same austere points.
    """
    if denominator < 1:
        raise ValueError("denominator must be a positive integer")
    g = gcd(denominator, 2 * d.order)
    verts = alcove_vertices(d)
    ranges = []
    for i in range(d.rank):
        lo = min(v.coeffs[i] for v in verts)
        hi = max(v.coeffs[i] for v in verts)
        ranges.append(range(ceil(lo * g), floor(hi * g) + 1))
    hits = []
    for combo in product(*ranges):
        point = AlcovePoint(tuple(Fraction(k, g) for k in combo))
        if point_in_alcove(d, point) and is_austere(d, point) is TriState.YES:
            hits.append(point)
    return tuple(hits)
