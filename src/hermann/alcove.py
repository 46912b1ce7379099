"""Fundamental alcove of a graded root datum: walls, faces, folding.

Points are tuples of rational coefficients x with H = pi * sum x_i H_i in
the dual basis, so the pairing <alpha, H>/pi of a root alpha = sum c_j a_j
with H is the exact rational c . x, and a phase is its coefficient of pi,
the Fraction t.  Each (root, sector) pair confines the alcove to one slab
n0 < c.x + t < n0 + 1, and reduction to the alcove is by reflections in
facet walls, x -> x - (c.x + t - n) coroot(c).

Validation makes the pairs of a datum an affine root system, so its alcove
is a product of simplices (Bourbaki, Lie groups, ch. VI, sec. 2; Macdonald
1972), laid out once per datum without vertex enumeration or LP.  A slab is
a facet when the reflection of one interior point in its wall breaks it
alone, as the Cartan numbers of the roots tell; facets whose roots are not
orthogonal bound one simplex factor.  One integer elimination gives a vertex
and its edges; each other vertex is one step per factor.  A face is a facet
set that misses a facet of each factor.  The facets through a point carry a
base of its active roots (Bourbaki, ch. V, sec. 3.3); active_roots, which
pairs every root with the point, is the reference.

Bounds, facet tests, vertices and folding compute in integers: a bound is
an integer over d.order * gcd(alpha), read off the phase p = order * t mod
order (datum.sector_phases), and a point x is scaled once to integers k
over D = lcm(d.order, its denominators).  A facet's side at k is s = order
* D * (c.x + t - n), negated when c points inward, so the reflection in its
wall is k - (s // order) * its outward coroot row.  Each result is made a
Fraction once, at the end: the same exact rational as Fraction arithmetic.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, lcm
from typing import NamedTuple

from .datum import GradedRootDatum, positive_sector_roots, sector_phases
from .exact import DimensionMismatch, eliminate, pairing
from .roots import (DEFAULT_BUDGET, ClosureBudgetExceeded, RootSystem, cartan_type,
                    decompose_and_classify, linked_components, subsystem)


class NonTermination(RuntimeError):
    """Reflection folding exceeded its certified step budget."""


@dataclass(frozen=True)
class AlcovePoint:
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(x if type(x) is Fraction else Fraction(x)
                                                 for x in self.coeffs))

    def __str__(self) -> str:
        return "(" + ", ".join(f"{c}" for c in self.coeffs) + ")"


@dataclass(frozen=True)
class Wall:
    """Affine hyperplane <alpha, H> + phi*pi = n*pi."""

    alpha: tuple
    phi: Fraction
    n: int


@dataclass(frozen=True)
class ActiveRoots:
    union: tuple
    system: RootSystem
    components: tuple


@dataclass(frozen=True)
class ActiveWalls:
    """The facet walls through a point: a base of its active root system.

    roots holds each wall's root from the facet table, cartan is their
    integer Cartan matrix, and components is roots.cartan_type of it.
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


class Facet(NamedTuple):
    """Open half-space normal . x < num/den cut by wall.  coroot, the wall
    root's coroot row, and root, the least root active on the wall, point
    along the normal; doubled says twice root is active too."""

    normal: tuple
    num: int
    den: int
    wall: Wall
    coroot: tuple
    root: tuple
    doubled: bool

    @property
    def bound(self) -> Fraction:
        return Fraction(self.num, self.den)


def _slabs(d: GradedRootDatum):
    """One Facet per primitive normal, sorted by normal: its least slab, over d.order *
    gcd(alpha), with the wall of its first root.  The alcove lies in every slab, so a root
    c * normal, c > 0, is active on the wall exactly when its bound ties.  With p = order *
    t mod order, (alpha, t) bounds alpha . x by (order - p) / order and -alpha . x by p / order.
    """
    best = {}
    o = d.order
    for (alpha, t, _), (_, ot, _) in zip(positive_sector_roots(d), sector_phases(d)):
        p, n = ot % o, int(ot >= 0)  # n is the upper wall; the lower one is n - 1
        g = gcd(*alpha)
        up = tuple([x // g for x in alpha])
        for vec, num, sign in ((up, o - p, 1), (tuple([-x for x in up]), p, -1)):
            cur = best.get(vec)
            if cur is None or num * cur[1] < cur[0] * g:
                best[vec] = (num, g, alpha, t, n - (sign < 0), sign, [g])
            elif num * cur[1] == cur[0] * g:
                cur[6].append(g)
    out = []
    for vec, (num, g, alpha, t, n, sign, ties) in sorted(best.items()):
        c, row = min(ties), d.sigma.coroots[alpha]
        out.append(Facet(vec, num, o * g, Wall(alpha, t, n),
                         row if sign > 0 else tuple([-x for x in row]),
                         vec if c == 1 else tuple([c * x for x in vec]), 2 * c in ties))
    return out


def _sides(facets, den: int, k):
    """The side f.den * den * (f.normal . x - f.bound) at x = k/den, per facet f."""
    return (pairing(f.normal, k) * f.den - f.num * den for f in facets)


def _facets(d: GradedRootDatum, slabs):
    """The slabs that the reflection of b = (1, ..., 1)/e in their wall breaks alone.

    With e = d.order * (1 + the largest root height), alpha . b + t lies in (t, t + 1/order)
    for every pair, so b is inside the alcove.  A facet wall reflects it into the alcove
    across that facet alone, as reflections permute the walls (Bourbaki, Lie groups, ch. V,
    sec. 1), and a point that breaks one slab alone shows that slab to be a facet.  Slab j,
    of side S_j < 0 at e*b and signed wall root s_j alpha_j, has the side S_j - S_i s_i s_j
    <alpha_j, alpha_i^vee> at the image in wall i.
    """
    e = d.order * (1 + max(sum(alpha) for alpha in d.sigma.positive_roots))
    rows = [(f.wall.alpha, 1 if max(f.normal) > 0 else -1, f.den * sum(f.normal) - f.num * e)
            for f in slabs]
    out, found = [], []
    for i, (f, (alpha, sign, side)) in enumerate(zip(slabs, rows)):
        numbers, w = d.sigma.cartan_numbers[alpha], side * sign
        # an image outside the alcove breaks a facet, so try those found first
        if not any(s > w * t * numbers.get(a, 0) for a, t, s in found) and all(
                (s > w * t * numbers.get(a, 0)) == (j == i) for j, (a, t, s) in enumerate(rows)):
            out.append(f)
            found.append(rows[i])
    return out


class _Alcove(NamedTuple):
    """A datum's Facet records, its vertices and their tight facet sets, the
    facet indices of each simplex factor, the Cartan matrix of the roots and
    (D, rows): the vertices as integer rows over one denominator D."""

    facets: tuple
    vertices: tuple
    tight: tuple
    factors: tuple
    cartan: tuple
    rows: tuple


_ALCOVE_CACHE = weakref.WeakKeyDictionary()


def _facet_cartan(facets) -> tuple:
    """<r_i, r_j^vee> of the facet roots: r_j^vee is f.coroot times gcd(wall root) / gcd(r_j)."""
    rows = [[gcd(*f.wall.alpha) // gcd(*f.root) * x for x in f.coroot] for f in facets]
    return tuple(tuple(pairing(row, f.root) for row in rows) for f in facets)


def _vertices(facets, factors):
    """The vertices, sorted, their tight sets and (D, their integer rows).  One
    elimination of the rows tight at v0 (all but the first facet f of each factor),
    with the identity, gives v0 and the inverse's columns c_t, over p; each factor
    moves v0 by 0 or by lam c_t (a = f.den * f.normal), lam making f tight."""
    r, n = len(facets[0].normal), len(facets)
    kept = [k for k in range(n) if k not in {c[0] for c in factors}]
    m = [[facets[k].den * x for x in facets[k].normal] + [facets[k].num]
         + [int(i == t) for i in range(r)] for t, k in enumerate(kept)]
    eliminate(m)
    p = lcm(*(row[i] for i, row in enumerate(m)))
    v0, *cols = zip(*([x * (p // row[i]) for x in row[r:]] for i, row in enumerate(m)))
    col = dict(zip(kept, cols))  # the inverse's column of each row's facet
    moves = []  # per factor: (omitted facet, gap, a . c_t, c_t) per choice
    for first, *rest in factors:
        a = [facets[first].den * x for x in facets[first].normal]
        gap = facets[first].num * p - pairing(a, v0)
        moves.append([(first, 0, 1, v0)] + [(k, gap, pairing(a, col[k]), col[k]) for k in rest])
    q = lcm(*(den for move in moves for _, _, den, _ in move))  # vertices are over p * q
    pairs = sorted((tuple([q * y + sum(g * (q // den) * c[i] for _, g, den, c in choice)
                           for i, y in enumerate(v0)]),
                    frozenset(range(n)).difference(k for k, *_ in choice))
                   for choice in product(*moves))
    return (tuple(AlcovePoint(tuple(Fraction(y, p * q) for y in x)) for x, _ in pairs),
            tuple(t for _, t in pairs), (p * q, tuple(x for x, _ in pairs)))


def _alcove_data(d: GradedRootDatum) -> _Alcove:
    """The facet table of d, built once and kept next to it."""
    cached = _ALCOVE_CACHE.get(d)
    if cached is not None:
        return cached
    facets = tuple(_facets(d, _slabs(d)))
    cartan = _facet_cartan(facets)
    factors = linked_components(len(facets), lambda i, j: cartan[i][j])
    verts, tight, rows = _vertices(facets, factors)
    data = _ALCOVE_CACHE[d] = _Alcove(facets, verts, tight, tuple(frozenset(c) for c in factors),
                                      cartan, rows)
    return data


def fundamental_alcove(d: GradedRootDatum):
    """Facet inequalities of the alcove, redundant slabs removed."""
    return _alcove_data(d).facets


def alcove_vertices(d: GradedRootDatum):
    return _alcove_data(d).vertices


def _scaled(d: GradedRootDatum, point: AlcovePoint, order: int = 1):
    """(D, k): the point as integers k over D = lcm(order, its denominators); a
    point whose length is not the rank raises DimensionMismatch."""
    if len(point.coeffs) != d.rank:
        raise DimensionMismatch(f"point of length {len(point.coeffs)} against rank {d.rank}")
    den = lcm(order, *(c.denominator for c in point.coeffs))
    return den, tuple(c.numerator * (den // c.denominator) for c in point.coeffs)


def _centroid(den, rows) -> AlcovePoint:
    """The mean of points given as integer rows over den."""
    return AlcovePoint(tuple(Fraction(sum(col), den * len(rows)) for col in zip(*rows)))


def alcove_barycenter(d: GradedRootDatum) -> AlcovePoint:
    return _centroid(*_alcove_data(d).rows)


def point_in_alcove(d: GradedRootDatum, point: AlcovePoint, strict: bool = False) -> bool:
    """Whether the point is in the closed alcove (its interior when strict)."""
    den, k = _scaled(d, point)
    return all(s < 0 if strict else s <= 0 for s in _sides(_alcove_data(d).facets, den, k))


def alcove_grid(d: GradedRootDatum, den: int):
    """The integer k with k/den in the closed alcove, in lexicographic order."""
    a = _alcove_data(d)
    box = (range(ceil(min(c) * den), floor(max(c) * den) + 1)
           for c in zip(*(v.coeffs for v in a.vertices)))
    return [k for k in product(*box) if all(s <= 0 for s in _sides(a.facets, den, k))]


def sector_angles(d: GradedRootDatum, scaled, items):
    """D and the numerators n of the angles (alpha . x + t) mod 1 = n/D of items.

    Each item starts with a root alpha and the integer order * t of its
    sector phase t, as datum.sector_phases gives them.  scaled is
    _scaled(d, point, d.order): integers k over D = lcm(d.order, x's
    denominators), so each angle is (alpha . k + t*D) mod D in integers.
    """
    den, k = scaled
    step = den // d.order
    return den, [(pairing(alpha, k) + ot * step) % den for alpha, ot, *_ in items]


def active_roots(d: GradedRootDatum, point: AlcovePoint) -> ActiveRoots:
    """Roots whose wall passes through the point, their system and its components.

    This pairs every root with the point; it is the reference that
    active_walls, which reads a base off the facets, is tested against.
    """
    # by the duality m(-alpha, eps^-1) = m(alpha, eps), a negative root is
    # active exactly when its negative is, at minus its angle
    stream = sector_phases(d)
    _, nums = sector_angles(d, _scaled(d, point, d.order), stream)
    active = {alpha for (alpha, _, _), n in zip(stream, nums) if n == 0}
    union = sorted(v for alpha in active for v in (alpha, tuple(-x for x in alpha)))
    system = subsystem(union, d.sigma.gram)
    return ActiveRoots(tuple(union), system, decompose_and_classify(system))


def active_walls(d: GradedRootDatum, point: AlcovePoint) -> ActiveWalls:
    """The facet walls through a point of the closed alcove, in integers.

    A point outside the closed alcove raises ValueError.
    """
    return _walls(d, point, _scaled(d, point))


def _walls(d: GradedRootDatum, point: AlcovePoint, scaled) -> ActiveWalls:
    """active_walls at the point, given also as integers (D, k) over any D."""
    a = _alcove_data(d)
    sides = list(_sides(a.facets, *scaled))
    if any(s > 0 for s in sides):
        raise ValueError(f"point {point} is outside the closed alcove")
    tight = [i for i, s in enumerate(sides) if s == 0]
    if not tight:  # an interior point needs no Cartan type
        return ActiveWalls((), (), ())
    sub = tuple(tuple(a.cartan[i][j] for j in tight) for i in tight)
    return ActiveWalls(tuple(a.facets[i].root for i in tight), sub,
                       cartan_type(sub, [a.facets[i].doubled for i in tight]))


def faces(d: GradedRootDatum):
    """All nonempty closed faces, one exact representative each.

    A face is keyed by the set of facets containing it, active_facets,
    as sorted facet indices: a set that misses at least one facet of each
    simplex factor of the alcove, of dimension rank minus its size.  Faces
    come back sorted by dimension, vertices first.
    """
    a = _alcove_data(d)
    den, rows = a.rows
    proper = [[frozenset(s) for n in range(len(c)) for s in combinations(sorted(c), n)]
              for c in a.factors]
    out = []
    for parts in product(*proper):
        f = frozenset().union(*parts)
        members = [row for row, t in zip(rows, a.tight) if t >= f]
        out.append(Face(tuple(sorted(f)), _centroid(den, members), d.rank - len(f)))
    return tuple(sorted(out, key=lambda fc: (fc.dimension, fc.representative.coeffs)))


def reduce_to_alcove(d: GradedRootDatum, point: AlcovePoint):
    """Fold a point into the closed alcove by facet-wall reflections.

    Returns the folded point and the wall word applied, first wall first.
    Each reflection lowers the number of slab walls separating the point
    from the alcove, which bounds the loop exactly; a point whose bound
    exceeds roots.DEFAULT_BUDGET raises ClosureBudgetExceeded unfolded.
    It folds integers over D = lcm(d.order, point denominators), with integral coroot rows.
    """
    a = _alcove_data(d)
    den, x = _scaled(d, point, d.order)
    budget, step = 8, den // d.order
    for alpha, ot, _ in sector_phases(d):
        budget += 2 + abs(pairing(alpha, x) + ot * step) // den
    if budget > DEFAULT_BUDGET:
        raise ClosureBudgetExceeded(f"folding may need {budget} reflections, "
                                    f"more than the budget of {DEFAULT_BUDGET}")
    walls = []
    for _ in range(budget):
        hit = next(((f, s) for f, s in zip(a.facets, _sides(a.facets, den, x)) if s > 0), None)
        if hit is None:
            return AlcovePoint(tuple(Fraction(y, den) for y in x)), tuple(walls)
        f, s = hit
        x = tuple(y - s // d.order * c for y, c in zip(x, f.coroot))
        walls.append(f.wall)
    raise NonTermination(f"folding did not settle within {budget} reflections")
