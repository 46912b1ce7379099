"""Fundamental alcove of a graded root datum: walls, faces, folding.

Points are tuples of rational coefficients x with H = pi * sum x_i H_i in
the dual basis, so the pairing <alpha, H>/pi of a root alpha = sum c_j a_j
with H is the exact rational c . x.  Each (root, sector) pair confines the
alcove to one slab n0 < c.x + t < n0 + 1; the alcove is the interior of a
rational polytope and reduction to it is by reflections in facet walls.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .datum import GradedRootDatum, positive_sector_roots
from .exact import RationalAngle, inner, matrix_rank, pairing, pivot, solve_exact
from .roots import RootSystem, decompose_and_classify, subsystem


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
    """Affine hyperplane <alpha, H> + phi = n*pi."""

    alpha: tuple
    phi: RationalAngle
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
    to_ambient: dict
    components: tuple


@dataclass(frozen=True)
class Face:
    delta: tuple
    active_facets: tuple
    representative: AlcovePoint
    dimension: int

    @property
    def vertex(self) -> bool:
        return self.dimension == 0


def pairing_angle(d: GradedRootDatum, alpha, point: AlcovePoint,
                  phi: RationalAngle) -> RationalAngle:
    """The angle <alpha, H> + phi as a rational multiple of pi."""
    return RationalAngle(pairing(alpha, point.coeffs) + phi.coeff)


def _slab_inequalities(d: GradedRootDatum):
    best = {}
    for alpha, t, _ in positive_sector_roots(d):
        n0 = 0 if t >= 0 else -1
        upper = (alpha, Fraction(n0 + 1) - t, Wall(alpha, RationalAngle(t), n0 + 1))
        lower = (tuple(-x for x in alpha), t - Fraction(n0),
                 Wall(alpha, RationalAngle(t), n0))
        for vec, bound, wall in (upper, lower):
            g = gcd(*vec)
            nvec = tuple(x // g for x in vec)
            nbound = bound / g
            cur = best.get(nvec)
            if cur is None or nbound < cur.bound:
                best[nvec] = Inequality(nvec, nbound, wall)
    return sorted(best.values(), key=lambda q: (q.normal, q.bound))


def _simplex_max(objective, rows, bounds):
    """Maximize objective . x over {rows . x <= bounds}, x unrestricted.

    All bounds are >= 0 so the origin is a feasible start; Bland's rule
    keeps the exact pivoting finite.  Returns None when unbounded.
    """
    m = len(rows)
    r = len(objective)
    n = 2 * r
    tab = [[Fraction(x) for x in rows[i]]
           + [Fraction(-x) for x in rows[i]]
           + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
           + [Fraction(bounds[i])]
           for i in range(m)]
    # the objective is the last row, so each pivot updates it with the rest
    tab.append([Fraction(x) for x in objective]
               + [Fraction(-x) for x in objective]
               + [Fraction(0)] * (m + 1))
    basis = [n + i for i in range(m)]
    while True:
        z = tab[m]
        enter = next((j for j in range(n + m) if z[j] > 0), None)
        if enter is None:
            return -z[-1]
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < best[1]):
                    best = (ratio, basis[i], i)
        if best is None:
            return None
        pivot(tab, best[2], enter)
        basis[best[2]] = enter


def _prune_redundant(ineqs):
    keep = list(ineqs)
    i = 0
    while i < len(keep):
        probe = keep[i]
        rows = [q.normal for k, q in enumerate(keep) if k != i]
        bounds = [q.bound for k, q in enumerate(keep) if k != i]
        # cap the objective so the subproblem cannot be unbounded
        rows.append(probe.normal)
        bounds.append(probe.bound + 1)
        best = _simplex_max(probe.normal, rows, bounds)
        if best is not None and best <= probe.bound:
            keep.pop(i)
        else:
            i += 1
    return keep


def _enumerate_vertices(facets, rank):
    verts = set()
    for combo in combinations(facets, rank):
        sol = solve_exact([list(q.normal) for q in combo],
                          [q.bound for q in combo])
        if sol is None:
            continue
        if all(pairing(q.normal, sol) <= q.bound
               for q in facets):
            verts.add(tuple(sol))
    return sorted(verts)


_ALCOVE_CACHE = weakref.WeakKeyDictionary()


def _alcove_data(d: GradedRootDatum):
    cached = _ALCOVE_CACHE.get(d)
    if cached is not None:
        return cached
    facets = tuple(_prune_redundant(_slab_inequalities(d)))
    verts = _enumerate_vertices(facets, d.rank)
    if not verts:
        raise EmptyAlcove("slab constraints admit no vertex")
    if matrix_rank([tuple(v - verts[0][i] for i, v in enumerate(vv))
                    for vv in verts[1:]]) < d.rank:
        raise EmptyAlcove("slab constraints have empty interior")
    data = (facets, tuple(AlcovePoint(v) for v in verts))
    _ALCOVE_CACHE[d] = data
    return data


def fundamental_alcove(d: GradedRootDatum):
    """Facet inequalities of the alcove, redundant slabs removed."""
    return _alcove_data(d)[0]


def alcove_vertices(d: GradedRootDatum):
    return _alcove_data(d)[1]


def alcove_barycenter(d: GradedRootDatum) -> AlcovePoint:
    verts = _alcove_data(d)[1]
    r = d.rank
    n = len(verts)
    return AlcovePoint(tuple(sum(v.coeffs[i] for v in verts) / n for i in range(r)))


def point_in_alcove(d: GradedRootDatum, point: AlcovePoint, strict: bool = False) -> bool:
    facets, _ = _alcove_data(d)
    for q in facets:
        val = pairing(q.normal, point.coeffs)
        if val > q.bound or (strict and val == q.bound):
            return False
    return True


def active_roots(d: GradedRootDatum, point: AlcovePoint) -> ActiveRoots:
    """Roots whose wall passes through the point, their system and its components."""
    union = sorted({v for sector in d.sectors for v in sector.roots
                    if pairing_angle(d, v, point, sector.phi).coeff.denominator == 1})
    system, to_ambient = subsystem(union, d.sigma.gram)
    return ActiveRoots(tuple(union), system, to_ambient, decompose_and_classify(system))


def faces(d: GradedRootDatum):
    """All nonempty closed faces, one exact representative each.

    A face is keyed by the set of facets containing it; delta lists the
    complementary (inactive) facet indices.  Faces come back sorted by
    dimension, vertices first.
    """
    facets, verts = _alcove_data(d)
    f = len(facets)
    act = {}
    for v in verts:
        act[v] = frozenset(
            i for i, q in enumerate(facets)
            if pairing(q.normal, v.coeffs) == q.bound)
    sets = set(act.values())
    frontier = list(sets)
    while frontier:
        a = frontier.pop()
        for b in list(sets):
            c = a & b
            if c not in sets:
                sets.add(c)
                frontier.append(c)
    canon = {}
    for a in sets:
        members = [v for v in verts if act[v] >= a]
        key = frozenset.intersection(*(act[v] for v in members))
        canon[key] = tuple(members)
    out = []
    r = d.rank
    for a, members in canon.items():
        n = len(members)
        rep = AlcovePoint(tuple(sum(v.coeffs[i] for v in members) / n for i in range(r)))
        base = members[0]
        dim = matrix_rank([tuple(x - y for x, y in zip(v.coeffs, base.coeffs))
                           for v in members[1:]])
        out.append(Face(tuple(i for i in range(f) if i not in a),
                        tuple(sorted(a)), rep, dim))
    return tuple(sorted(out, key=lambda fc: (fc.dimension, fc.representative.coeffs)))


def reduce_to_alcove(d: GradedRootDatum, point: AlcovePoint):
    """Fold a point into the closed alcove by facet-wall reflections.

    Returns the folded point and the wall word applied, first wall first.
    Each reflection lowers the number of slab walls separating the point
    from the alcove, which bounds the loop exactly.
    """
    facets, _ = _alcove_data(d)
    gram = d.sigma.gram.entries
    r = d.rank
    x = list(point.coeffs)
    budget = 8
    for alpha, t, _ in positive_sector_roots(d):
        p = pairing(alpha, point.coeffs) + t
        budget += 2 + abs(int(p))
    walls = []
    for _ in range(budget):
        hit = None
        for q in facets:
            if pairing(q.normal, x) > q.bound:
                hit = q
                break
        if hit is None:
            return AlcovePoint(tuple(x)), tuple(walls)
        c = hit.wall.alpha
        t = hit.wall.phi.coeff
        n = hit.wall.n
        norm2 = inner(c, c, d.sigma.gram)
        p = pairing(c, x) + t
        factor = 2 * (p - n) / norm2
        gc = [pairing(gram[i], c) for i in range(r)]
        x = [y - factor * g for y, g in zip(x, gc)]
        walls.append(hit.wall)
    raise NonTermination(f"folding did not settle within {budget} reflections")
