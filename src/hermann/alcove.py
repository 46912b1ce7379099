"""Fundamental alcove of a graded root datum: walls, faces, folding.

Points are tuples of rational coefficients x with H = pi * sum x_i H_i in
the dual basis, so the pairing <alpha, H>/pi of a root alpha = sum c_j a_j
with H is the exact rational c . x, and a phase is its coefficient of pi,
the Fraction t.  Each (root, sector) pair confines the alcove to one slab
n0 < c.x + t < n0 + 1; the alcove is the interior of a rational polytope
and reduction to it is by reflections in facet walls,
x -> x - (c.x + t - n) coroot(c), with the one coroot row of `roots`.

The polytope is built by one exact vertex enumeration (double description):
from the box of the unit-normal slabs, cut by one slab at a time, keeping
the slabs tight at each vertex.  Two vertices span an edge when no third
vertex's tight set contains theirs in common.  A facet is a slab whose
tight vertices span a hyperplane; the same incidences give the faces.  No
LP is solved.

Slab bounds, vertices, point tests and folding compute in integers over one
denominator: a bound is an integer over d.order * gcd(alpha), a vertex is
integers over one positive D, and a point is scaled once to integers over
lcm(d.order, its denominators).  Each result is made a Fraction once, at
the end, and is the same exact rational as a Fraction computation gives.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .datum import GradedRootDatum, positive_sector_roots
from .exact import matrix_rank, pairing
from .roots import (DEFAULT_BUDGET, ClosureBudgetExceeded, RootSystem,
                    UnrecognizedType, coroot, decompose_and_classify, subsystem,
                    verify_axioms)


class EmptyAlcove(ValueError):
    """No interior point satisfies every slab constraint."""


class NonTermination(RuntimeError):
    """Reflection folding exceeded its certified step budget."""


@dataclass(frozen=True)
class AlcovePoint:
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple(Fraction(x) for x in self.coeffs))

    def __str__(self) -> str:
        return "(" + ", ".join(f"{c}" for c in self.coeffs) + ")"


@dataclass(frozen=True)
class Wall:
    """Affine hyperplane <alpha, H> + phi*pi = n*pi."""

    alpha: tuple
    phi: Fraction
    n: int


@dataclass(frozen=True)
class Inequality:
    """Open half-space normal . x < bound, with one wall cutting it."""

    normal: tuple
    bound: Fraction
    wall: Wall


@dataclass(frozen=True)
class ActiveRoots:
    union: tuple
    system: RootSystem
    components: tuple


@dataclass(frozen=True)
class Face:
    active_facets: tuple
    representative: AlcovePoint
    dimension: int

    @property
    def vertex(self) -> bool:
        return self.dimension == 0


def _slab_inequalities(d: GradedRootDatum):
    """One half-space per primitive normal: the first of strictly least bound.

    A bound is an integer over d.order * gcd(alpha) (order * t is whole).
    """
    best = {}
    o = d.order
    for alpha, t, _ in positive_sector_roots(d):
        n0 = 0 if t >= 0 else -1
        ot = t.numerator * (o // t.denominator)
        g = gcd(*alpha)
        up = tuple(x // g for x in alpha)
        for vec, num, wall in ((up, (n0 + 1) * o - ot, Wall(alpha, t, n0 + 1)),
                               (tuple(-x for x in up), ot - n0 * o, Wall(alpha, t, n0))):
            cur = best.get(vec)
            if cur is None or num * cur[1] < cur[0] * g:
                best[vec] = (num, g, wall)
    return sorted((Inequality(vec, Fraction(num, o * g), wall)
                   for vec, (num, g, wall) in best.items()),
                  key=lambda q: (q.normal, q.bound))


def _affine_rank(points) -> int:
    return matrix_rank([tuple(a - b for a, b in zip(p, points[0])) for p in points[1:]])


def _vertex_enumeration(ineqs, rank):
    """Vertices of {normal . x <= bound}, each with the inequalities tight at it.

    Double description (Motzkin, Raiffa, Thompson & Thrall 1953): start from
    the box of the +-e_i normals (the simple roots, whose slabs are always
    present), then cut by one inequality at a time.  A vertex pair (u inside,
    w beyond) with at least rank - 1 common tight inequalities spans an edge
    when no third vertex is tight on all of them (Fukuda & Prodon 1996); the
    edge meets the cut in one new vertex.  A vertex is integers X over one
    D > 0, so its side of a bound bn/bd is the integer (normal . X) * bd - bn * D.
    """
    index = {q.normal: k for k, q in enumerate(ineqs)}
    sides = []
    for i in range(rank):
        e = tuple(int(i == j) for j in range(rank))
        up, down = index[e], index[tuple(-x for x in e)]
        sides.append(((ineqs[up].bound, up), (-ineqs[down].bound, down)))
    # slab bounds are >= 0, and > 0 for positive normals, so lo <= 0 < hi on
    # each axis and the 2^r corners are distinct
    verts = []
    for corner in product(*sides):
        den, x = _scaled([c for c, _ in corner])
        verts.append((x, den, frozenset(k for _, k in corner)))
    done = {k for pair in sides for _, k in pair}
    for k, q in enumerate(ineqs):
        if k in done:
            continue
        bn, bd = q.bound.numerator, q.bound.denominator
        side = [pairing(q.normal, x) * bd - bn * dx for x, dx, _ in verts]
        beyond = [(w, dw, tw, sw) for (w, dw, tw), sw in zip(verts, side) if sw > 0]
        new = []
        for (u, du, tu), su in zip(verts, side):
            if su >= 0:
                continue
            for w, dw, tw, sw in beyond:
                common = tu & tw
                if len(common) >= rank - 1 and not any(
                        common <= t for _, _, t in verts if t is not tu and t is not tw):
                    x = [sw * a - su * b for a, b in zip(u, w)]
                    dx = sw * du - su * dw
                    g = gcd(dx, *x)
                    new.append((tuple(a // g for a in x), dx // g, common | {k}))
        verts = [(x, dx, t | {k} if sx == 0 else t)
                 for (x, dx, t), sx in zip(verts, side) if sx <= 0] + new
    return [(tuple(Fraction(a, dx) for a in x), t) for x, dx, t in verts]


_ALCOVE_CACHE = weakref.WeakKeyDictionary()


def _alcove_data(d: GradedRootDatum):
    """(facets, vertices, facet indices tight at each vertex), built once."""
    cached = _ALCOVE_CACHE.get(d)
    if cached is not None:
        return cached
    ineqs = _slab_inequalities(d)
    pairs = sorted(_vertex_enumeration(ineqs, d.rank), key=lambda p: p[0])
    if not pairs:
        raise EmptyAlcove("slab constraints admit no vertex")
    verts = [x for x, _ in pairs]
    if _affine_rank(verts) < d.rank:
        raise EmptyAlcove("slab constraints have empty interior")
    # a facet is a slab whose tight vertices span a hyperplane
    keep = []
    for k in range(len(ineqs)):
        on = [x for x, t in pairs if k in t]
        if len(on) >= d.rank and _affine_rank(on) == d.rank - 1:
            keep.append(k)
    pos = {k: i for i, k in enumerate(keep)}
    data = (tuple(ineqs[k] for k in keep), tuple(AlcovePoint(x) for x in verts),
            tuple(frozenset(pos[k] for k in t if k in pos) for _, t in pairs))
    _ALCOVE_CACHE[d] = data
    return data


def fundamental_alcove(d: GradedRootDatum):
    """Facet inequalities of the alcove, redundant slabs removed."""
    return _alcove_data(d)[0]


def alcove_vertices(d: GradedRootDatum):
    return _alcove_data(d)[1]


def _centroid(points) -> AlcovePoint:
    return AlcovePoint(tuple(sum(c) / len(points) for c in zip(*points)))


def alcove_barycenter(d: GradedRootDatum) -> AlcovePoint:
    return _centroid([v.coeffs for v in _alcove_data(d)[1]])


def _scaled(coeffs, order: int = 1):
    """(D, k): rational coefficients as integers k over D = lcm(order, their denominators)."""
    den = lcm(order, *(c.denominator for c in coeffs))
    return den, tuple(c.numerator * (den // c.denominator) for c in coeffs)


def point_in_alcove(d: GradedRootDatum, point: AlcovePoint, strict: bool = False) -> bool:
    """Whether the point is in the closed alcove (its interior when strict)."""
    den, k = _scaled(point.coeffs)
    for q in _alcove_data(d)[0]:
        val, bound = pairing(q.normal, k) * q.bound.denominator, q.bound.numerator * den
        if val > bound or (strict and val == bound):
            return False
    return True


def sector_angles(d: GradedRootDatum, point: AlcovePoint, items):
    """D and the numerators n of the angles (alpha . x + t) mod 1 = n/D of items.

    Each item starts with a root alpha and its sector phase t.  The point is
    scaled once to integers k over D = lcm(its denominators, d.order), and
    order * t is whole for every phase of a valid datum, so each angle is
    (alpha . k + t*D) mod D in integers.
    """
    den, k = _scaled(point.coeffs, d.order)
    return den, [(pairing(alpha, k) + t.numerator * (den // t.denominator)) % den
                 for alpha, t, *_ in items]


def active_roots(d: GradedRootDatum, point: AlcovePoint, terms=None) -> ActiveRoots:
    """Roots whose wall passes through the point, their system and its components.

    terms, the point's geometry.cot_terms when the caller has them, spare
    the angle pass: a positive root is active exactly when it has fewer
    terms than positive_sector_roots(d) has entries for it.
    """
    # by the duality m(-alpha, eps^-1) = m(alpha, eps), a negative root is
    # active exactly when its negative is, at minus its angle
    stream = positive_sector_roots(d)
    if terms is None:
        _, nums = sector_angles(d, point, stream)
        active = {alpha for (alpha, _, _), n in zip(stream, nums) if n == 0}
    else:
        left = Counter(alpha for alpha, _, _ in stream)
        left.subtract(t.alpha for t in terms)
        active = {alpha for alpha, n in left.items() if n}
    union = sorted(v for alpha in active for v in (alpha, tuple(-x for x in alpha)))
    system = subsystem(union, d.sigma.gram)
    try:
        components = decompose_and_classify(system)
    except UnrecognizedType:
        if verify_axioms(system):
            raise
        raise UnrecognizedType(f"the active roots at {point} are not closed under "
                               "their reflections, so they form no root system") from None
    return ActiveRoots(tuple(union), system, components)


def faces(d: GradedRootDatum):
    """All nonempty closed faces, one exact representative each.

    A face is keyed by the set of facets containing it, active_facets,
    as sorted facet indices.  Faces come back sorted by dimension,
    vertices first.
    """
    _, verts, tight = _alcove_data(d)
    sets = set(tight)
    frontier = list(sets)
    while frontier:
        a = frontier.pop()
        for b in list(sets):
            c = a & b
            if c not in sets:
                sets.add(c)
                frontier.append(c)
    out = []
    for a in sets:
        members = [v.coeffs for v, t in zip(verts, tight) if t >= a]
        out.append(Face(tuple(sorted(a)), _centroid(members), _affine_rank(members)))
    return tuple(sorted(out, key=lambda fc: (fc.dimension, fc.representative.coeffs)))


def reduce_to_alcove(d: GradedRootDatum, point: AlcovePoint):
    """Fold a point into the closed alcove by facet-wall reflections.

    Returns the folded point and the wall word applied, first wall first.
    Each reflection lowers the number of slab walls separating the point
    from the alcove, which bounds the loop exactly; a point whose bound
    exceeds roots.DEFAULT_BUDGET raises ClosureBudgetExceeded unfolded.
    The point is integers x over D = lcm(d.order, its denominators): each
    phase is whole over D, and a facet wall's coroot row is integral for a
    valid datum, so each reflection stays on D.
    """
    facets = _alcove_data(d)[0]
    den, x = _scaled(point.coeffs, d.order)
    budget = 8
    for alpha, t, _ in positive_sector_roots(d):
        p = pairing(alpha, x) + t.numerator * (den // t.denominator)
        budget += 2 + abs(p) // den
    if budget > DEFAULT_BUDGET:
        raise ClosureBudgetExceeded(f"folding may need {budget} reflections, "
                                    f"more than the budget of {DEFAULT_BUDGET}")
    walls = []
    for _ in range(budget):
        hit = next((q.wall for q in facets
                    if pairing(q.normal, x) * q.bound.denominator > q.bound.numerator * den),
                   None)
        if hit is None:
            return AlcovePoint(tuple(Fraction(y, den) for y in x)), tuple(walls)
        p = (pairing(hit.alpha, x) + hit.phi.numerator * (den // hit.phi.denominator)
             - hit.n * den)
        x = tuple(y - p * c for y, c in zip(x, coroot(hit.alpha, d.sigma.gram)))
        walls.append(hit)
    raise NonTermination(f"folding did not settle within {budget} reflections")
