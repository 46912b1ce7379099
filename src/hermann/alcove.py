"""Fundamental alcove of a graded root datum: walls, faces, folding.

Points are tuples of rational coefficients x with H = pi * sum x_i H_i in
the dual basis, so the pairing <alpha, H>/pi of a root alpha = sum c_j a_j
with H is the exact rational c . x, and a phase is its coefficient of pi,
the Fraction t.  Each (root, sector) pair confines the alcove to one slab
n0 < c.x + t < n0 + 1; the alcove is the interior of a rational polytope
and reduction to it is by reflections in facet walls,
x -> x - (c.x + t - n) coroot(c), with the one coroot row of `roots`.

The polytope is read off its walls.  Validation makes the pairs of a datum
an affine root system, so its alcove is a product of simplices (Bourbaki,
Lie groups, ch. VI, sec. 2; Macdonald 1972).  A slab is a facet when the
reflection of one interior point in its wall breaks that slab alone;
facets whose normals are not Gram-orthogonal bound one simplex factor.  A
vertex is tight at every facet but one per factor, and a face is a facet
set that misses at least one facet of each factor.  No vertex enumeration
and no LP is run.

The facets through a point carry its active roots, the roots whose wall
passes through it: on each facet's line the least root active on the wall,
signed along the outward normal, and these form a base of the active
system (Bourbaki, ch. V, sec. 3.3).  active_walls reads the type, the span
and the Cartan matrix of the -id test off them, with the facets' roots and
Cartan integers cached once per datum; active_roots, which pairs every
root with the point, is the reference it is tested against.

Slab bounds, the facet test, vertex solves, point tests and folding compute
in integers: a bound is an integer over d.order * gcd(alpha), the reflected
interior point is integral, and a point is scaled once to integers over
lcm(d.order, its denominators).  Each result is made a Fraction once, at
the end, and is the same exact rational as a Fraction computation gives.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, lcm

from .datum import GradedRootDatum, positive_sector_roots
from .exact import inner, pairing, solve_exact
from .roots import (DEFAULT_BUDGET, ClosureBudgetExceeded, RootSystem, cartan_matrix,
                    cartan_type, coroot, decompose_and_classify, linked_components,
                    subsystem)


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
class ActiveWalls:
    """The facet walls through a point: a base of its active root system.

    roots holds, per wall, the least root on the wall's line that is active
    there, signed along the facet's outward normal; cartan is their integer
    Cartan matrix, and components is roots.cartan_type of it: (label,
    indices into roots) per irreducible factor.
    """

    roots: tuple
    cartan: tuple
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


_ALCOVE_CACHE = weakref.WeakKeyDictionary()


def _facets(d: GradedRootDatum, ineqs):
    """The slabs that the reflection of b = (1, ..., 1)/e in their wall breaks alone.

    With e = d.order * (1 + the largest root height), alpha . b + t lies in
    (t, t + 1/order) for every pair, so b is inside the alcove.  A facet wall
    reflects it into the alcove across that facet alone, as reflections
    permute the walls (Bourbaki, Lie groups, ch. V, sec. 1), and a point
    that breaks one slab alone shows that slab to be a facet.
    """
    e = d.order * (1 + max(sum(alpha) for alpha in d.sigma.positive_roots))
    checks = [(j, q.normal, q.bound.denominator, q.bound.numerator * e)
              for j, q in enumerate(ineqs)]
    found = []
    for i, q in enumerate(ineqs):
        alpha, t, n = q.wall.alpha, q.wall.phi, q.wall.n
        p = sum(alpha) + t.numerator * (e // t.denominator) - n * e
        y = tuple(1 - p * c for c in coroot(alpha, d.sigma.gram))
        # scaled by e, the reflected point is integral, as coroot rows are;
        # a point outside the alcove breaks a facet, so try those found first
        if all((pairing(normal, y) * bd > be) == (j == i)
               for j, normal, bd, be in chain(found, checks)):
            found.append(checks[i])
    return [ineqs[j] for j, *_ in found]


def _alcove_data(d: GradedRootDatum):
    """(facets, vertices, facet indices tight at each vertex, factors), built once.

    A factor is the facet indices of one simplex factor, a component of the
    facet normals under Gram orthogonality; a vertex misses one per factor.
    """
    cached = _ALCOVE_CACHE.get(d)
    if cached is not None:
        return cached
    facets = _facets(d, _slab_inequalities(d))
    factors = linked_components(
        len(facets), lambda i, j: inner(facets[i].normal, facets[j].normal, d.sigma.gram))
    pairs = []
    for omitted in product(*factors):
        tight = [q for k, q in enumerate(facets) if k not in omitted]
        x = solve_exact([q.normal for q in tight], [q.bound for q in tight])
        pairs.append((AlcovePoint(x), frozenset(range(len(facets))) - set(omitted)))
    verts, tight = zip(*sorted(pairs, key=lambda p: p[0].coeffs))
    data = (tuple(facets), verts, tight, tuple(frozenset(c) for c in factors))
    _ALCOVE_CACHE[d] = data
    return data


def fundamental_alcove(d: GradedRootDatum):
    """Facet inequalities of the alcove, redundant slabs removed."""
    return _alcove_data(d)[0]


def alcove_vertices(d: GradedRootDatum):
    return _alcove_data(d)[1]


def _vertex_rows(verts):
    """(D, rows): the vertices as integer rows over one denominator D."""
    den, flat = _scaled([c for v in verts for c in v.coeffs])
    r = len(verts[0].coeffs)
    return den, [flat[i:i + r] for i in range(0, len(flat), r)]


def _centroid(den, rows) -> AlcovePoint:
    """The mean of points given as integer rows over den."""
    return AlcovePoint(tuple(Fraction(sum(col), den * len(rows)) for col in zip(*rows)))


def alcove_barycenter(d: GradedRootDatum) -> AlcovePoint:
    return _centroid(*_vertex_rows(_alcove_data(d)[1]))


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


def active_roots(d: GradedRootDatum, point: AlcovePoint) -> ActiveRoots:
    """Roots whose wall passes through the point, their system and its components.

    This pairs every root with the point; it is the reference that
    active_walls, which reads a base off the facets, is tested against.
    """
    # by the duality m(-alpha, eps^-1) = m(alpha, eps), a negative root is
    # active exactly when its negative is, at minus its angle
    stream = positive_sector_roots(d)
    _, nums = sector_angles(d, point, stream)
    active = {alpha for (alpha, _, _), n in zip(stream, nums) if n == 0}
    union = sorted(v for alpha in active for v in (alpha, tuple(-x for x in alpha)))
    system = subsystem(union, d.sigma.gram)
    return ActiveRoots(tuple(union), system, decompose_and_classify(system))


_WALL_CACHE = weakref.WeakKeyDictionary()


def _wall_roots(d: GradedRootDatum):
    """(roots, cartan, doubled) of the facets, built once per datum.

    roots[i] is the least root on facet i's line that is active on its wall,
    signed along the outward normal, and doubled[i] says twice it is active
    there too (a BC end).  The signs are kept: the outward normals of the
    facets through a point are a base of its active roots (Bourbaki, Lie
    groups, ch. V, sec. 3.3, the alcove being on one side of every wall),
    and flipping one of them is not.
    """
    cached = _WALL_CACHE.get(d)
    if cached is not None:
        return cached
    facets = _alcove_data(d)[0]
    lines = {}
    for alpha, t, _ in positive_sector_roots(d):
        g = gcd(*alpha)
        lines.setdefault(tuple(x // g for x in alpha), []).append((g, t))
    roots, doubled = [], []
    for q in facets:
        neg = tuple(-x for x in q.normal)
        bn, bd = q.bound.numerator, q.bound.denominator
        # the root c * normal, c = +-g, is active on normal . x = bound when
        # c * bound + t is whole
        active = {abs(c) for c, t in chain(lines.get(q.normal, ()),
                                           ((-g, t) for g, t in lines.get(neg, ())))
                  if (c * bn * t.denominator + t.numerator * bd) % (bd * t.denominator) == 0}
        c = min(active)
        roots.append(tuple(c * x for x in q.normal))
        doubled.append(2 * c in active)
    data = (tuple(roots), cartan_matrix(roots, d.sigma.gram), tuple(doubled))
    _WALL_CACHE[d] = data
    return data


def active_walls(d: GradedRootDatum, point: AlcovePoint) -> ActiveWalls:
    """The facet walls through a point of the closed alcove, in integers.

    A facet is tight when normal . x == bound, compared as point_in_alcove
    compares; a point outside the closed alcove raises ValueError.
    """
    den, k = _scaled(point.coeffs)
    tight = []
    for i, q in enumerate(_alcove_data(d)[0]):
        val, bound = pairing(q.normal, k) * q.bound.denominator, q.bound.numerator * den
        if val > bound:
            raise ValueError(f"point {point} is outside the closed alcove")
        if val == bound:
            tight.append(i)
    if not tight:  # an interior point needs no facet roots
        return ActiveWalls((), (), ())
    roots, cartan, doubled = _wall_roots(d)
    sub = tuple(tuple(cartan[i][j] for j in tight) for i in tight)
    return ActiveWalls(tuple(roots[i] for i in tight), sub,
                       cartan_type(sub, [doubled[i] for i in tight]))


def faces(d: GradedRootDatum):
    """All nonempty closed faces, one exact representative each.

    A face is keyed by the set of facets containing it, active_facets,
    as sorted facet indices: a set that misses at least one facet of each
    simplex factor of the alcove, of dimension rank minus its size.  Faces
    come back sorted by dimension, vertices first.
    """
    _, verts, tight, factors = _alcove_data(d)
    den, rows = _vertex_rows(verts)
    proper = [[frozenset(s) for n in range(len(c)) for s in combinations(sorted(c), n)]
              for c in factors]
    out = []
    for parts in product(*proper):
        a = frozenset().union(*parts)
        members = [row for row, t in zip(rows, tight) if t >= a]
        out.append(Face(tuple(sorted(a)), _centroid(den, members), d.rank - len(a)))
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
