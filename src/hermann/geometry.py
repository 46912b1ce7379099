"""Orbit invariants over the alcove: spectrum, mean curvature, classifications.

All bookkeeping runs over positive roots with a nonzero angle; a root whose
wall passes through the point contributes nothing.  One pass builds these
cot terms and every classification of an orbit report is read off them.

In direction xi the principal curvatures are -<alpha, xi> cot(pi theta).
Writing alpha = c*u on its root line u, the identities cot(pi - x) = -cot x
and cot(pi/2) = 0 make the multiset symmetric under -1 when every line is
balanced, m(c, theta) = m(c, 1 - theta) for theta != 1/2: austere is yes.
An excess class is no unless a cross pair c' != c on its line stays
unseparated by certified intervals, which is the only indeterminate case.
Minimal is yes when every angle class cancels exactly and no when the
certified norm is positive, so both predicates are honest tri-states: yes
and no are proved, indeterminate means neither certificate was reached.
"""

from __future__ import annotations

import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import product

import mpmath

from .alcove import (ActiveRoots, AlcovePoint, active_roots, alcove_barycenter,
                     alcove_vertices, fundamental_alcove, point_in_alcove)
from .datum import GradedRootDatum, positive_sector_roots
from .exact import (DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, RationalAngle,
                    RealInterval, cot_eval, interval_from_iv, iv_from_interval,
                    matrix_rank, mpf_to_fraction, pairing, primitive_direction,
                    zero_interval, _iv)
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
    """One summand -mult * cot(theta) * alpha of the mean curvature."""

    alpha: tuple
    theta: RationalAngle
    mult: int


def cot_terms(d: GradedRootDatum, point: AlcovePoint):
    """Nonzero-angle terms over positive roots, sector by sector."""
    out = []
    for alpha, t, m in positive_sector_roots(d):
        theta = (pairing(alpha, point.coeffs) + t) % 1
        if theta != 0:
            out.append(CotTerm(alpha, RationalAngle(theta), m))
    return tuple(out)


@dataclass(frozen=True)
class SpectrumTerm:
    alpha: tuple
    theta: RationalAngle
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


def shape_spectrum(d: GradedRootDatum, point: AlcovePoint, xi,
                   precision_bits: int = DEFAULT_PRECISION_BITS) -> SpectrumReport:
    """Principal curvatures -<alpha, xi> cot(theta) in direction xi.

    xi is given by rational coefficients in the dual basis, so each slope
    <alpha, xi> is exact; only the cotangent is an interval.
    """
    xi = tuple(Fraction(x) for x in xi)
    terms = []
    for t in cot_terms(d, point):
        slope = pairing(t.alpha, xi)
        value = cot_eval(t.theta, precision_bits).scale(-slope)
        terms.append(SpectrumTerm(t.alpha, t.theta, t.mult, slope, value))
    return SpectrumReport(d.zero_mult, tuple(terms), precision_bits)


@dataclass(frozen=True)
class MeanCurvature:
    coeffs: tuple
    norm: RealInterval
    precision_bits: int


def _mean_curvature(d: GradedRootDatum, terms, precision_bits: int) -> MeanCurvature:
    r = d.rank
    coeffs = [zero_interval(precision_bits) for _ in range(r)]
    for t in terms:
        ct = cot_eval(t.theta, precision_bits)
        for j in range(r):
            if t.alpha[j]:
                coeffs[j] = coeffs[j] + ct.scale(-t.mult * t.alpha[j])
    g = d.sigma.gram.entries
    norm2 = zero_interval(precision_bits)
    for i in range(r):
        for j in range(r):
            if g[i][j]:
                norm2 = norm2 + (coeffs[i] * coeffs[j]).scale(g[i][j])
    lo = max(norm2.lo, Fraction(0))
    hi = max(norm2.hi, Fraction(0))
    ctx = _iv(precision_bits + 16)
    root = ctx.sqrt(iv_from_interval(ctx, RealInterval(lo, hi, precision_bits)))
    return MeanCurvature(tuple(coeffs), interval_from_iv(root, precision_bits),
                         precision_bits)


def mean_curvature(d: GradedRootDatum, point: AlcovePoint,
                   precision_bits: int = DEFAULT_PRECISION_BITS) -> MeanCurvature:
    """Certified enclosure of m_H = -sum mult*cot(theta)*alpha and its norm."""
    return _mean_curvature(d, cot_terms(d, point), precision_bits)


def _totally_geodesic(terms) -> bool:
    return all(t.theta.coeff == _HALF for t in terms)


def is_totally_geodesic(d: GradedRootDatum, point: AlcovePoint) -> bool:
    """True when every sector angle lands in (pi/2) Z."""
    return _totally_geodesic(cot_terms(d, point))


def _certified_nonzero_sum(c1, t1, c2, t2) -> bool:
    """Certify c1*cot(pi t1) + c2*cot(pi t2) != 0, escalating precision."""
    prec = DEFAULT_PRECISION_BITS
    while prec <= MAX_PRECISION_BITS:
        v = cot_eval(RationalAngle(t1), prec).scale(c1) \
            + cot_eval(RationalAngle(t2), prec).scale(c2)
        if v.certainly_nonzero:
            return True
        prec *= 2
    return False


def _lines(terms):
    """Per root line u, the multiplicity of each class (c, theta), alpha = c*u."""
    lines = {}
    for t in terms:
        u, c = primitive_direction(t.alpha)
        bucket = lines.setdefault(u, {})
        key = (c, t.theta.coeff)
        bucket[key] = bucket.get(key, 0) + t.mult
    return lines.values()


def _austere(terms) -> TriState:
    """Balance of every root line under theta -> 1 - theta.

    An excess of (c, theta) over its mirror (c, 1 - theta) can only be
    cancelled by a cross pair c*cot(pi theta) = -c'*cot(pi theta') with
    c' != c; when every such pair is certified nonzero the verdict is no.
    """
    verdict = TriState.YES
    for classes in _lines(terms):
        for (c, theta), m in classes.items():
            if theta == _HALF or m <= classes.get((c, 1 - theta), 0):
                continue
            if all(_certified_nonzero_sum(c, theta, c2, t2)
                   for c2, t2 in classes if c2 != c and t2 != _HALF):
                return TriState.NO
            verdict = TriState.INDETERMINATE
    return verdict


def is_austere(d: GradedRootDatum, point: AlcovePoint) -> TriState:
    """Tri-state test for invariance of the curvature multiset under -1."""
    return _austere(cot_terms(d, point))


def _folded_angle_classes(terms):
    """Group terms by cot value class: theta and 1-theta carry opposite signs."""
    classes = {}
    for t in terms:
        theta, sign = t.theta.coeff, 1
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


def is_minimal(d: GradedRootDatum, point: AlcovePoint,
               precision_bits: int = DEFAULT_PRECISION_BITS) -> TriState:
    """Yes via exact cancellation, no via a norm bounded away from zero.

    The vector is a combination of cot(pi*theta) over theta in (0,1/2);
    if every angle class sums to the zero root the whole vector vanishes.
    Austerity forces that classwise cancellation, so austere yes implies
    minimal yes.
    """
    terms = cot_terms(d, point)
    return _minimal(terms, _mean_curvature(d, terms, precision_bits).norm)


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
    if not actives.union or matrix_rank(actives.union) < d.rank:
        return SymmetryFlags(False, False)
    w = weyl_group(actives.system)
    has = contains_minus_identity(w)
    labels = [c.label for c in actives.components]
    predicted = tits_minus_identity(labels)
    if has != predicted:
        raise InternalInconsistency(
            f"-id in Weyl group: matrix search says {has}, "
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
            v = actives.to_ambient[comp.roots[-1]]
            if tuple(2 * x for x in v) in d.sigma.roots:
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
    precision_bits: int

    @property
    def mean_curvature_norm(self) -> RealInterval:
        return self.mean_curvature.norm


def orbit_report(d: GradedRootDatum, point: AlcovePoint,
                 precision_bits: int = DEFAULT_PRECISION_BITS) -> OrbitReport:
    """Every classification of one orbit, from a single pass over its terms."""
    terms = cot_terms(d, point)
    actives = active_roots(d, point)
    mc = _mean_curvature(d, terms, precision_bits)
    flags = symmetry_flags(d, point, actives)
    return OrbitReport(point, actives, type_label(d, actives),
                       _totally_geodesic(terms), _austere(terms),
                       _minimal(terms, mc.norm),
                       flags.arid_sufficient, flags.weakly_reflective_sufficient,
                       mc, precision_bits)


@dataclass(frozen=True)
class MinimalOrbit:
    point: AlcovePoint
    norm: RealInterval
    iterations: int
    precision_bits: int


def _as_fraction(tol) -> Fraction:
    if isinstance(tol, Fraction):
        return tol
    if isinstance(tol, int):
        return Fraction(tol)
    return Fraction(Decimal(str(tol)))


def _log_volume(terms, x):
    total = mpmath.mpf(0)
    for alpha, t, m in terms:
        p = pairing(alpha, x) + mpmath.mpf(t.numerator) / t.denominator
        total += m * mpmath.log(abs(mpmath.sin(mpmath.pi * p)))
    return total


def find_minimal(d: GradedRootDatum, tolerance=Fraction(1, 10 ** 20)) -> MinimalOrbit:
    """Damped Newton ascent of the orbit-volume functional, then certify.

    The returned point has exact dyadic coordinates; its mean-curvature
    norm is a certified interval with upper endpoint below the tolerance.
    """
    tol = _as_fraction(tolerance)
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
            x = [mpmath.mpf(c.numerator) / c.denominator for c in start.coeffs]
            tol_mp = mpmath.mpf(tol.numerator) / tol.denominator
            for _ in range(60 + 4 * prec):
                total_iter += 1
                cots = []
                for alpha, t, m in terms:
                    p = pairing(alpha, x) + mpmath.mpf(t.numerator) / t.denominator
                    theta = mpmath.pi * p
                    cots.append((alpha, m, mpmath.cos(theta) / mpmath.sin(theta)))
                grad = [mpmath.pi * sum(m * ct * alpha[i] for alpha, m, ct in cots
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
                        for alpha, m, ct in cots:
                            if alpha[i] and alpha[j]:
                                s += m * (1 + ct * ct) * alpha[i] * alpha[j]
                        hess[i, j] = (mpmath.pi ** 2) * s
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
                base = _log_volume(terms, x)
                for _ in range(80):
                    trial = [xi + lam * step[i] for i, xi in enumerate(x)]
                    if _log_volume(terms, trial) > base:
                        x = trial
                        break
                    lam /= 2
                else:
                    break
        prec *= 2
    short = mpmath.nstr(mpmath.mpf(tol.numerator) / tol.denominator, 3)
    raise NoConvergence(f"no certified point below {short}: the ladder starts at "
                        f"{bits_needed} bits, its cap is {4 * MAX_PRECISION_BITS} bits")


def _scan_chunk(args):
    d, pts = args
    out = []
    for coeffs in pts:
        state = is_austere(d, AlcovePoint(coeffs))
        if state is not TriState.NO:
            out.append((coeffs, state))
    return out


def scan_austere(d: GradedRootDatum, denominator: int, jobs: int = 1):
    """Austere candidates on the (1/denominator)-grid of the closed alcove.

    Returns (point, verdict) pairs in lexicographic point order, keeping
    only yes and indeterminate verdicts.
    """
    if denominator < 1:
        raise ValueError("denominator must be a positive integer")
    verts = alcove_vertices(d)
    r = d.rank
    ranges = []
    for i in range(r):
        lo = min(v.coeffs[i] for v in verts)
        hi = max(v.coeffs[i] for v in verts)
        first = -((-lo.numerator * denominator) // lo.denominator)  # ceil
        last = (hi.numerator * denominator) // hi.denominator       # floor
        ranges.append(range(first, last + 1))
    pts = []
    for combo in product(*ranges):
        coeffs = tuple(Fraction(k, denominator) for k in combo)
        if point_in_alcove(d, AlcovePoint(coeffs)):
            pts.append(coeffs)
    if jobs > 1 and len(pts) > 1:
        chunk = max(1, len(pts) // (4 * jobs))
        batches = [(d, pts[i:i + chunk]) for i in range(0, len(pts), chunk)]
        hits = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_scan_chunk, batches):
                hits.extend(part)
    else:
        hits = _scan_chunk((d, pts))[:]
    return tuple((AlcovePoint(c), state) for c, state in hits)
