"""Fraction routes of the set-up that every command runs, for the tests.

hermann builds, validates and lays out each datum in integers: squared
lengths on the Gram matrix's integer form, positive definiteness by Bareiss
leading minors, the affine closure check on sparse phase tables, and the
slabs, facets and vertices of the alcove over integer rows.  These are the
routes they replace, on Fractions, so a test can compare the two record for
record: inner products through `inner`, the root closure that pairs every
root with every simple coroot, the closure loop that reflects root tuples and
walks every phase pair, `ldl` as the positive-definiteness check, the slab
pass with Fraction comparisons, the facet test that recomputes every side,
the facet Cartan matrix from coroots made anew and one `solve_exact` per
vertex.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from hermann.alcove import AlcovePoint, Facet, Wall, _sides
from hermann.datum import Sector, Violation, positive_sector_roots
from hermann.exact import DimensionMismatch, SingularGram, ldl, pairing, row_reduce
from hermann.roots import (CartanLabel, RootSystem, _is_positive, _reflect_by, _unit,
                           cartan_matrix, linked_components, reference_gram)


def inner(u, v, g) -> Fraction:
    """Exact inner product u^T g v in simple-root coordinates, on g's integer form."""
    r = g.rank
    if len(u) != r or len(v) != r:
        raise DimensionMismatch(f"vectors of length {len(u)}, {len(v)} against rank {r}")
    rows, den = g.form
    return Fraction(pairing(u, (pairing(row, v) for row in rows)), den)


def solve_exact(rows, rhs):
    """The solution x of the square system rows . x = rhs; None if rows is singular."""
    n = len(rows)
    m, pivots = row_reduce([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n] for row in m)


def matrix_rank(vectors) -> int:
    """Rank of a list of rational vectors."""
    return len(row_reduce(vectors)[1])


def gram_error(entries):
    """The SingularGram text that the Fraction checks raise for entries, or None:
    symmetry entry by entry, then `ldl`, whose first pivot <= 0 raises."""
    ent = tuple(tuple(Fraction(x) for x in row) for row in entries)
    try:
        for i in range(len(ent)):
            for j in range(i):
                if ent[i][j] != ent[j][i]:
                    raise SingularGram(f"not symmetric at ({i},{j})")
        ldl(ent)
    except SingularGram as exc:
        return str(exc)
    return None


def build_root_system(label: CartanLabel) -> RootSystem:
    """The root system of a label, closed under whole reflections and its BC
    short roots found through `inner`."""
    gram = reference_gram(label)
    r = label.rank
    simples = tuple(_unit(i, r) for i in range(r))
    cols = list(zip(*cartan_matrix(simples, gram)))
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        v = frontier.pop()
        for s, col in zip(simples, cols):
            w = _reflect_by(v, s, pairing(col, v))
            if w not in roots:
                roots.add(w)
                frontier.append(w)
    if label.family == "BC":
        short = [v for v in roots if inner(v, v, gram) == 1]
        roots.update(tuple(2 * x for x in v) for v in short)
    positives = frozenset(v for v in roots if _is_positive(v))
    return RootSystem(r, gram, frozenset(roots), simples, positives)


def graded_sectors(rs: RootSystem, table):
    """The sectors of datum._graded(name, rs, order, table), each root's
    squared length through `inner`."""
    norm = {v: inner(v, v, rs.gram) for v in rs.roots}
    return tuple(Sector(Fraction(t), {v: m[norm[v]] for v in sorted(norm) if norm[v] in m})
                 for t, m in table)


def closure_violations(d):
    """The first (root, phase) pair that a reflection takes off the datum,
    walking every phase of beta for every phase of alpha."""
    o = d.order
    at = {}
    for s in d.sectors:
        for v, m in s.roots.items():
            at.setdefault(v, {})[s.phi.numerator * (o // s.phi.denominator) % o] = m

    def pair(v, p):
        return f"({v}, {Fraction(p, o) - (2 * p > o)}*pi)"

    positives = sorted(d.sigma.positive_roots)
    for alpha in positives:
        row = d.sigma.coroots[alpha]
        for beta in positives:
            k = pairing(row, beta)
            if k.denominator != 1:
                return [Violation("axioms", f"<{beta}, {alpha}^vee> = {k} is not whole")]
            image = _reflect_by(beta, alpha, k)
            if image not in at:
                return [Violation("axioms", f"the reflection of {beta} in {alpha}, "
                                            f"{image}, is not a root")]
            for s in at[alpha] if k else ():
                for t, m in at[beta].items():
                    q = (t - k * s) % o
                    if at[image].get(q, 0) != m:
                        return [Violation("affine", f"the reflection of {pair(beta, t)} in "
                                                    f"{pair(alpha, s)} is {pair(image, q)}, which "
                                                    f"carries m = {at[image].get(q, 0)}, not {m}")]
    return []


def slabs(d):
    """One Facet per primitive normal, with a Fraction comparison per phase."""
    best = {}
    o = d.order
    for alpha, t, _ in positive_sector_roots(d):
        n0 = 0 if t >= 0 else -1
        ot = t.numerator * (o // t.denominator)
        g = gcd(*alpha)
        up = tuple(x // g for x in alpha)
        for vec, num, n, sign in ((up, (n0 + 1) * o - ot, n0 + 1, 1),
                                  (tuple(-x for x in up), ot - n0 * o, n0, -1)):
            cur = best.get(vec)
            if cur is None or num * cur[1] < cur[0] * g:
                best[vec] = (num, g, (alpha, t, n, sign), {g})
            elif num * cur[1] == cur[0] * g:
                cur[3].add(g)
    out = []
    for vec, (num, g, (alpha, t, n, sign), ties) in sorted(best.items()):
        row = d.sigma.coroots[alpha]
        c = min(ties)
        out.append(Facet(vec, num, o * g, Wall(alpha, t, n), tuple(sign * x for x in row),
                         tuple(c * x for x in vec), 2 * c in ties))
    return out


def facets(d, slabs):
    """The slabs that the reflection of b = (1, ..., 1)/e breaks alone, each
    image's sides recomputed from the Facet records."""
    e = d.order * (1 + max(sum(alpha) for alpha in d.sigma.positive_roots))
    b, out = (1,) * d.rank, []
    for i, (f, side) in enumerate(zip(slabs, _sides(slabs, e, b))):
        y = tuple(1 - side // d.order * c for c in f.coroot)
        if not any(s > 0 for s in _sides(out, e, y)) and all(
                (s > 0) == (j == i) for j, s in enumerate(_sides(slabs, e, y))):
            out.append(f)
    return out


def facet_cartan(d, facets):
    """The Cartan matrix of the facet roots, each coroot made from the Gram matrix."""
    return cartan_matrix([f.root for f in facets], d.sigma.gram)


def vertices(d, facets):
    """(vertices, tight sets), sorted by vertex: one `solve_exact` per vertex."""
    cartan = facet_cartan(d, facets)
    factors = linked_components(len(facets), lambda i, j: cartan[i][j])
    pairs = []
    for omitted in product(*factors):
        tight = [q for k, q in enumerate(facets) if k not in omitted]
        x = solve_exact([q.normal for q in tight], [q.bound for q in tight])
        pairs.append((AlcovePoint(x), frozenset(range(len(facets))) - set(omitted)))
    verts, tight = zip(*sorted(pairs, key=lambda p: p[0].coeffs))
    return verts, tight
