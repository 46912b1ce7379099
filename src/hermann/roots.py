"""Root systems in simple-root coordinates: construction, axioms, Weyl groups.

Roots are integer tuples of coefficients in a fixed simple-root basis; the
geometry lives entirely in the Gram matrix of that basis.  Non-reduced (BC)
systems are supported throughout.  `cartan` is the one Cartan pairing, behind
`reflect`; the Weyl group is a closure of integer reflection matrices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .exact import GramMatrix, dual_basis, inner, pairing

FAMILIES = ("A", "B", "BC", "C", "D", "G")

DEFAULT_BUDGET = 10 ** 7


class UnsupportedLabel(ValueError):
    """Family/rank combination outside the supported catalog."""


class ClosureBudgetExceeded(RuntimeError):
    """Orbit or group closure exceeded the element budget."""


class UnrecognizedType(ValueError):
    """Component does not match any supported Cartan type."""


@dataclass(frozen=True, order=True)
class CartanLabel:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedLabel(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise UnsupportedLabel(f"rank must be positive, got {self.rank}")
        if self.family == "D" and self.rank < 2:
            raise UnsupportedLabel("D requires rank >= 2")
        if self.family == "G" and self.rank != 2:
            raise UnsupportedLabel("G requires rank 2")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "CartanLabel":
        m = re.fullmatch(r"(BC|[ABCDG])([1-9][0-9]*)", text.strip())
        if not m:
            raise UnsupportedLabel(f"cannot parse label {text!r}")
        return cls(m.group(1), int(m.group(2)))


@dataclass(frozen=True)
class RootSystem:
    rank: int
    gram: GramMatrix
    roots: frozenset
    simple_roots: tuple
    positive_roots: frozenset


@dataclass(frozen=True)
class WeylGroup:
    generators: tuple
    elements: frozenset

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class Component:
    """One irreducible factor of a root system, in ambient coordinates."""

    label: CartanLabel
    simple_roots: tuple
    roots: tuple


def reference_gram(label: CartanLabel) -> GramMatrix:
    r = label.rank
    f = label.family
    g = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        g[i][i] = Fraction(2)
    if f == "G":
        return GramMatrix(((Fraction(2), Fraction(-3)), (Fraction(-3), Fraction(6))))
    if f == "D":
        for i in range(r - 2):
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
        if r >= 3:
            g[r - 3][r - 1] = g[r - 1][r - 3] = Fraction(-1)
        return GramMatrix(tuple(tuple(row) for row in g))
    for i in range(r - 1):
        g[i][i + 1] = g[i + 1][i] = Fraction(-1)
    if f in ("B", "BC"):
        g[r - 1][r - 1] = Fraction(1)
    elif f == "C":
        g[r - 1][r - 1] = Fraction(4)
        if r >= 2:
            g[r - 2][r - 1] = g[r - 1][r - 2] = Fraction(-2)
    return GramMatrix(tuple(tuple(row) for row in g))


def cartan(v, alpha, gram: GramMatrix) -> int:
    """The Cartan integer 2(alpha, v)/(alpha, alpha); ValueError if not integral."""
    c = 2 * inner(alpha, v, gram) / inner(alpha, alpha, gram)
    if c.denominator != 1:
        raise ValueError(f"non-integral Cartan pairing of {alpha} with {v}")
    return c.numerator


def reflect(v, alpha, gram: GramMatrix):
    """Image of v under the reflection fixing the hyperplane of alpha."""
    k = cartan(v, alpha, gram)
    return tuple(x - k * a for x, a in zip(v, alpha))


def _unit(i, r):
    return tuple(1 if j == i else 0 for j in range(r))


def _is_positive(v) -> bool:
    lead = next((x for x in v if x != 0), 0)
    return lead > 0


def build_root_system(label: CartanLabel, budget: int = DEFAULT_BUDGET) -> RootSystem:
    gram = reference_gram(label)
    r = label.rank
    simples = tuple(_unit(i, r) for i in range(r))
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        v = frontier.pop()
        for s in simples:
            w = reflect(v, s, gram)
            if w not in roots:
                if len(roots) >= budget:
                    raise ClosureBudgetExceeded(f"root closure exceeded {budget}")
                roots.add(w)
                frontier.append(w)
    if label.family == "BC":
        short = [v for v in roots if inner(v, v, gram) == 1]
        roots.update(tuple(2 * x for x in v) for v in short)
    positives = frozenset(v for v in roots if _is_positive(v))
    return RootSystem(r, gram, frozenset(roots), simples, positives)


def verify_axioms(rs: RootSystem) -> bool:
    """Check the root-system axioms; returns False on the first failure."""
    roots = rs.roots
    if not roots:
        return True
    gram = rs.gram
    for v in roots:
        if len(v) != rs.rank or all(x == 0 for x in v):
            return False
        if any(x != int(x) for x in v):
            return False
    if not set(rs.simple_roots) <= roots:
        return False
    neg = frozenset(tuple(-x for x in v) for v in rs.positive_roots)
    if rs.positive_roots | neg != roots or rs.positive_roots & neg:
        return False
    for v in rs.positive_roots:
        if any(x < 0 for x in v):
            return False
    for a in roots:
        for b in roots:
            try:
                if reflect(b, a, gram) not in roots:
                    return False
            except ValueError:
                return False
    for v in roots:
        mults = [k for k in (-3, -2, 2, 3) if tuple(k * x for x in v) in roots]
        if any(abs(k) > 2 for k in mults):
            return False
    return True


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def weyl_group(rs: RootSystem, budget: int = DEFAULT_BUDGET) -> WeylGroup:
    r = rs.rank
    ident = tuple(_unit(i, r) for i in range(r))
    gens = tuple(tuple(zip(*(reflect(e, s, rs.gram) for e in ident)))
                 for s in ident)
    elements = {ident}
    frontier = [ident]
    while frontier:
        m = frontier.pop()
        for g in gens:
            w = _mat_mul(m, g)
            if w not in elements:
                if len(elements) >= budget:
                    raise ClosureBudgetExceeded(f"Weyl closure exceeded {budget}")
                elements.add(w)
                frontier.append(w)
    return WeylGroup(gens, frozenset(elements))


def contains_minus_identity(w: WeylGroup) -> bool:
    if not w.generators:
        return False
    r = len(w.generators[0])
    return tuple(tuple(-x for x in _unit(i, r)) for i in range(r)) in w.elements


def tits_minus_identity(labels) -> bool:
    """Type-based prediction for -id in the Weyl group (product over factors)."""
    for lab in labels:
        if lab.family == "A" and lab.rank >= 2:
            return False
        if lab.family == "D" and lab.rank % 2 == 1:
            return False
    return True


def _cartan_matrix(simples, gram: GramMatrix):
    try:
        return tuple(tuple(cartan(a, b, gram) for b in simples) for a in simples)
    except ValueError as exc:
        raise UnrecognizedType(str(exc)) from exc


def _permutation_equal(c1, c2) -> bool:
    """True if some simultaneous row/column permutation carries c1 to c2."""
    n = len(c1)
    if n != len(c2):
        return False
    sig1 = [tuple(sorted(row)) for row in c1]
    sig2 = [tuple(sorted(row)) for row in c2]
    cand = [[j for j in range(n) if sig1[i] == sig2[j]] for i in range(n)]
    assign = [-1] * n
    used = [False] * n

    def backtrack(i):
        if i == n:
            return True
        for j in cand[i]:
            if used[j]:
                continue
            ok = True
            for k in range(i):
                if c1[i][k] != c2[j][assign[k]] or c1[k][i] != c2[assign[k]][j]:
                    ok = False
                    break
            if ok and c1[i][i] == c2[j][j]:
                assign[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                used[j] = False
        return False

    return backtrack(0)


def _classify_component(simples, members, gram: GramMatrix) -> CartanLabel:
    rank = len(simples)
    member_set = set(members)
    nonreduced = any(tuple(2 * x for x in v) in member_set for v in members)
    cmat = _cartan_matrix(simples, gram)
    if nonreduced:
        ref = _cartan_matrix(build_root_system(CartanLabel("B", rank)).simple_roots,
                             reference_gram(CartanLabel("B", rank)))
        if _permutation_equal(cmat, ref):
            return CartanLabel("BC", rank)
        raise UnrecognizedType(f"non-reduced component of rank {rank} is not BC")
    candidates = [CartanLabel("A", rank)]
    if rank >= 2:
        candidates.append(CartanLabel("B", rank))
    if rank >= 3:
        candidates.append(CartanLabel("C", rank))
    if rank >= 4:
        candidates.append(CartanLabel("D", rank))
    if rank == 2:
        candidates.append(CartanLabel("G", 2))
    for lab in candidates:
        ref_simples = tuple(_unit(i, rank) for i in range(rank))
        ref = _cartan_matrix(ref_simples, reference_gram(lab))
        if _permutation_equal(cmat, ref):
            return lab
    raise UnrecognizedType(f"component with Cartan matrix {cmat} not recognized")


def decompose_and_classify(rs: RootSystem):
    """Split into irreducible components and name each one.

    Isomorphic presentations collapse to a canonical label (D3 reports as A3,
    rank-2 C as B2).  Components come back sorted by label then simple roots.
    """
    if not rs.roots:
        return ()
    indec = _simple_roots(rs.positive_roots)
    # connected components of the orthogonality graph on the simple roots
    comp_of = {}
    for s in indec:
        comp_of[s] = {s}
    for i, a in enumerate(indec):
        for b in indec[i + 1:]:
            if inner(a, b, rs.gram) != 0 and comp_of[a] is not comp_of[b]:
                merged = comp_of[a] | comp_of[b]
                for s in merged:
                    comp_of[s] = merged
    groups = []
    for s in indec:
        if all(comp_of[s] is not g for g in groups):
            groups.append(comp_of[s])
    out = []
    for g in groups:
        simples = tuple(sorted(g))
        members = tuple(sorted(v for v in rs.roots
                               if any(inner(v, s, rs.gram) != 0 for s in simples)))
        label = _classify_component(simples, members, rs.gram)
        out.append(Component(label, simples, members))
    return tuple(sorted(out, key=lambda c: (c.label, c.simple_roots)))


def _simple_roots(positives):
    """Indecomposable positive roots, sorted: no difference with another is positive."""
    pos = sorted(positives)
    posset = set(pos)
    return tuple(v for v in pos
                 if not any(tuple(x - y for x, y in zip(v, b)) in posset for b in pos))


def subsystem(vectors, gram: GramMatrix):
    """Re-coordinatize a closed set of roots in its own simple basis.

    Returns (system, to_ambient) where to_ambient maps new integer
    coordinates back to the input vectors.
    """
    vecs = sorted(set(tuple(int(x) for x in v) for v in vectors))
    if not vecs:
        return RootSystem(0, GramMatrix(()), frozenset(), (), frozenset()), {}
    posset = {v for v in vecs if _is_positive(v)}
    simples = _simple_roots(posset)
    k = len(simples)
    new_gram = GramMatrix(tuple(tuple(inner(a, b, gram) for b in simples)
                                for a in simples))
    duals = dual_basis(new_gram)
    to_ambient = {}
    for v in vecs:
        rhs = [inner(s, v, gram) for s in simples]
        sol = [pairing(h, rhs) for h in duals]
        if any(x.denominator != 1 for x in sol):
            raise ValueError(f"{v} is not an integer combination of the simple roots")
        to_ambient[tuple(x.numerator for x in sol)] = v
    new_simples = tuple(_unit(i, k) for i in range(k))
    system = RootSystem(k, new_gram, frozenset(to_ambient), new_simples,
                        frozenset(c for c, v in to_ambient.items() if v in posset))
    return system, to_ambient
