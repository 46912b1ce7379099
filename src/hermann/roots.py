"""Root systems in simple-root coordinates: construction, axioms, Weyl groups.

Roots are integer tuples of coefficients in a fixed simple-root basis; the
geometry lives entirely in the Gram matrix of that basis.  Non-reduced (BC)
systems are supported throughout.  A subsystem keeps those coordinates and
carries its own simple roots.  Every reflection pairs with one kernel, the
coroot row 2 G alpha / (alpha, alpha): s_alpha(v) = v - (row . v) alpha.
A loop that reflects in one root computes its row once.  The Weyl group is
the orbit of one regular chamber point in coroot coordinates, closed under
the simple reflections read off the integer Cartan matrix.  An
irreducible component is named by its rank, its root count and its
shortest-root count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .exact import GramMatrix, inner, pairing

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


def coroot(alpha, gram: GramMatrix):
    """The coroot row 2 G alpha / (alpha, alpha), whole entries as int.

    Its pairing with v is the Cartan number <v, alpha^vee>.  It is read off
    the integer form of G, whose one denominator cancels in the quotient.
    """
    g_alpha = [pairing(alpha, row) for row in gram.form[0]]
    norm = pairing(alpha, g_alpha)
    return tuple(2 * x // norm if 2 * x % norm == 0 else Fraction(2 * x, norm)
                 for x in g_alpha)


def _reflect_by(v, alpha, k):
    """v - k alpha: the reflection of v in alpha when k = <v, alpha^vee>."""
    return tuple(x - k * a for x, a in zip(v, alpha))


def _unit(i, r):
    return tuple(1 if j == i else 0 for j in range(r))


def _is_positive(v) -> bool:
    lead = next((x for x in v if x != 0), 0)
    return lead > 0


def build_root_system(label: CartanLabel) -> RootSystem:
    gram = reference_gram(label)
    r = label.rank
    simples = tuple(_unit(i, r) for i in range(r))
    rows = [coroot(s, gram) for s in simples]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        v = frontier.pop()
        for s, row in zip(simples, rows):
            w = _reflect_by(v, s, pairing(row, v))
            if w not in roots:
                if len(roots) >= DEFAULT_BUDGET:
                    raise ClosureBudgetExceeded(f"root closure exceeded {DEFAULT_BUDGET}")
                roots.add(w)
                frontier.append(w)
    if label.family == "BC":
        short = [v for v in roots if inner(v, v, gram) == 1]
        roots.update(tuple(2 * x for x in v) for v in short)
    positives = frozenset(v for v in roots if _is_positive(v))
    return RootSystem(r, gram, frozenset(roots), simples, positives)


def well_shaped(rs: RootSystem) -> bool:
    """Roots are nonzero integer vectors, the simple roots among them, Phi+ = -Phi- >= 0."""
    neg = frozenset(tuple(-x for x in v) for v in rs.positive_roots)
    return (all(len(v) == rs.rank and any(v) and all(x == int(x) for x in v)
                for v in rs.roots)
            and set(rs.simple_roots) <= rs.roots
            and rs.positive_roots | neg == rs.roots and not rs.positive_roots & neg
            and all(x >= 0 for v in rs.positive_roots for x in v))


def verify_axioms(rs: RootSystem) -> bool:
    """Check the root-system axioms; returns False on the first failure."""
    if rs.roots and not well_shaped(rs):
        return False
    # s_-a = s_a; a pair v, 3v fails here too, as <v, (3v)^vee> = 2/3
    for a in rs.positive_roots:
        row = coroot(a, rs.gram)
        for b in rs.roots:
            k = pairing(row, b)
            if k.denominator != 1 or _reflect_by(b, a, k) not in rs.roots:
                return False
    return True


def weyl_group(rs: RootSystem) -> WeylGroup:
    """W as the orbit of the chamber point c0 = (1, ..., k) in coroot coordinates.

    c_j = <v, s_j^vee> on the span of the k simple roots, and s_i sends c to
    c - c_i A_i, A_i being row i of the integer Cartan matrix (the generators).
    c0 is regular, so the orbit has one point per element.
    """
    rows = [coroot(s, rs.gram) for s in rs.simple_roots]
    gens = tuple(tuple(int(pairing(row, s)) for row in rows) for s in rs.simple_roots)
    c0 = tuple(range(1, len(gens) + 1))
    elements = {c0}
    frontier = [c0]
    while frontier:
        c = frontier.pop()
        for i, a in enumerate(gens):
            w = tuple(x - c[i] * y for x, y in zip(c, a))
            if w not in elements:
                if len(elements) >= DEFAULT_BUDGET:
                    raise ClosureBudgetExceeded(f"Weyl closure exceeded {DEFAULT_BUDGET}")
                elements.add(w)
                frontier.append(w)
    return WeylGroup(gens, frozenset(elements))


def contains_minus_identity(w: WeylGroup) -> bool:
    """-id on the span of the simple roots (the ambient -id when they span).

    It is the lookup of -c0: w c0 = -c0 forces w = w_0 = -sigma, and sigma = id
    since the entries of c0 are distinct.
    """
    k = len(w.generators)
    return k > 0 and tuple(range(-1, -k - 1, -1)) in w.elements


def tits_minus_identity(labels) -> bool:
    """Type-based prediction for -id in the Weyl group (product over factors)."""
    for lab in labels:
        if lab.family == "A" and lab.rank >= 2:
            return False
        if lab.family == "D" and lab.rank % 2 == 1:
            return False
    return True


def _classify_component(r, members, gram: GramMatrix) -> CartanLabel:
    """Name an irreducible component by its root count and shortest-root count.

    The first matching row wins, so D3 reports as A3 and C2 as B2.
    """
    member_set = set(members)
    norms = [inner(v, v, gram) for v in members]
    counts = (len(members), norms.count(min(norms)))
    if any(tuple(2 * x for x in v) in member_set for v in members):
        table = (("BC", 2 * r * (r + 1), 2 * r),)
    else:
        table = (("A", r * (r + 1), r * (r + 1)), ("B", 2 * r * r, 2 * r),
                 ("C", 2 * r * r, 2 * r * (r - 1)),
                 ("D", 2 * r * (r - 1), 2 * r * (r - 1)), ("G", 12, 6))
    for family, n, short in table:
        if counts == (n, short) and (family != "G" or r == 2):
            return CartanLabel(family, r)
    raise UnrecognizedType(f"component of rank {r} with {counts[0]} roots, "
                           f"{counts[1]} of them shortest, is not recognized")


def decompose_and_classify(rs: RootSystem):
    """Split into irreducible components and name each one.

    Isomorphic presentations collapse to a canonical label (D3 reports as A3,
    rank-2 C as B2).  Components come back sorted by label then simple roots.
    """
    simples = rs.simple_roots
    rows = [coroot(s, rs.gram) for s in simples]
    # connected components of the non-orthogonality graph on the simple roots
    groups = []
    for i, row in enumerate(rows):
        linked = [g for g in groups if any(pairing(row, simples[j]) != 0 for j in g)]
        merged = [i] + [j for g in linked for j in g]
        groups = [g for g in groups if g not in linked] + [merged]
    out = []
    for g in groups:
        members = tuple(sorted(v for v in rs.roots
                               if any(pairing(rows[j], v) != 0 for j in g)))
        label = _classify_component(len(g), members, rs.gram)
        out.append(Component(label, tuple(sorted(simples[j] for j in g)), members))
    return tuple(sorted(out, key=lambda c: (c.label, c.simple_roots)))


def _simple_roots(positives):
    """Indecomposable positive roots, sorted: no difference with another is positive."""
    pos = sorted(positives)
    posset = set(pos)
    return tuple(v for v in pos
                 if not any(tuple(x - y for x, y in zip(v, b)) in posset for b in pos))


def subsystem(vectors, gram: GramMatrix) -> RootSystem:
    """The root system of a closed set of roots, in the same coordinates."""
    roots = frozenset(vectors)
    positives = frozenset(v for v in roots if _is_positive(v))
    return RootSystem(gram.rank, gram, roots, _simple_roots(positives), positives)
