"""Root systems in simple-root coordinates: construction, axioms, Weyl groups.

Roots are integer tuples of coefficients in a fixed simple-root basis; the
geometry lives entirely in the Gram matrix of that basis.  Non-reduced (BC)
systems are supported throughout.  A subsystem keeps those coordinates and
carries its own simple roots.  Every reflection pairs with one kernel, the
coroot row 2 G alpha / (alpha, alpha): s_alpha(v) = v - (row . v) alpha.
Each root system computes its rows and Cartan numbers once, and a built
root's squared length is that of the simple root it is raised from.

A Weyl group is its integer Cartan matrix.  Its order is Kostant's height
formula over the positive roots of that matrix, and -id is tested by the
longest-element walk; no element is listed.  An irreducible component is
named by one rule set: its Dynkin diagram, read by cartan_type.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .exact import GramMatrix, pairing

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

    @cached_property
    def coroots(self) -> dict:
        """The coroot row of each positive root, computed once."""
        return {alpha: coroot(alpha, self.gram) for alpha in self.positive_roots}

    @cached_property
    def cartan_numbers(self) -> dict:
        """{alpha: {beta: <beta, alpha^vee> if not 0}} over sorted positive roots."""
        positives = sorted(self.positive_roots)
        return {alpha: {beta: k for beta in positives if (k := pairing(row, beta))}
                for alpha, row in sorted(self.coroots.items())}

    @cached_property
    def lengths(self) -> dict:
        """v . G . v of each root v, in integers on G's form (times gram.form[1])."""
        rows = self.gram.form[0]
        return {v: pairing(v, [pairing(row, v) for row in rows]) for v in self.roots}


@dataclass(frozen=True)
class WeylGroup:
    """W of an integer Cartan matrix, generators[i][j] = <a_i, a_j^vee>.

    In the coordinates c_j = <v, a_j^vee> of a point v on the span of the
    simple roots, s_i sends c to c - c_i A_i, A_i being row i.
    """

    generators: tuple

    @cached_property
    def order(self) -> int:
        """Kostant's height formula: |W| = prod (h+1)^(n_h - n_(h+1)),
        n_h the number of positive roots of height h."""
        heights = Counter(sum(v) for v in _root_closure(self.generators) if min(v) >= 0)
        out = 1
        for h, n in heights.items():
            out *= (h + 1) ** (n - heights[h + 1])
        return out


@dataclass(frozen=True, order=True)
class Component:
    """One irreducible factor of a root system, in ambient coordinates."""

    label: CartanLabel
    simple_roots: tuple


def reference_gram(label: CartanLabel) -> GramMatrix:
    r = label.rank
    f = label.family
    g = [[0] * r for _ in range(r)]
    for i in range(r):
        g[i][i] = 2
    if f == "G":
        return GramMatrix(((2, -3), (-3, 6)))
    if f == "D":
        for i in range(r - 2):
            g[i][i + 1] = g[i + 1][i] = -1
        if r >= 3:
            g[r - 3][r - 1] = g[r - 1][r - 3] = -1
        return GramMatrix(tuple(tuple(row) for row in g))
    for i in range(r - 1):
        g[i][i + 1] = g[i + 1][i] = -1
    if f in ("B", "BC"):
        g[r - 1][r - 1] = 1
    elif f == "C":
        g[r - 1][r - 1] = 4
        if r >= 2:
            g[r - 2][r - 1] = g[r - 1][r - 2] = -2
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
    return tuple([x - k * a for x, a in zip(v, alpha)])


def _unit(i, r):
    return tuple(1 if j == i else 0 for j in range(r))


def _is_positive(v) -> bool:
    return v > (0,) * len(v)  # its first nonzero coordinate is positive


def cartan_matrix(simple_roots, gram: GramMatrix) -> tuple:
    """The integer Cartan matrix A[i][j] = <a_i, a_j^vee> of roots a_i.

    A Cartan number that is not whole raises UnrecognizedType.
    """
    rows = [coroot(s, gram) for s in simple_roots]
    cartan = tuple(tuple(pairing(row, s) for row in rows) for s in simple_roots)
    bad = next((k for line in cartan for k in line if k.denominator != 1), None)
    if bad is not None:
        raise UnrecognizedType(f"Cartan number {bad} is not whole")
    return tuple(tuple(int(k) for k in line) for line in cartan)


def _root_closure(cartan) -> dict:
    """The roots of a Cartan matrix, each mapped to the simple root (index) it
    is raised from by reflections s_i(v) = v - c_i a_i, c_i = <v, a_i^vee> < 0;
    a root carries its c, which s_i sends to c - c_i A_i, A_i being row i."""
    r = len(cartan)
    roots = {_unit(i, r): i for i in range(r)}
    frontier = [(v, cartan[i], i) for v, i in roots.items()]
    while frontier:
        v, c, seed = frontier.pop()
        for i, k in enumerate(c):
            if k < 0 and (w := v[:i] + (v[i] - k,) + v[i + 1:]) not in roots:
                if 2 * (len(roots) + 1) > DEFAULT_BUDGET:
                    raise ClosureBudgetExceeded(f"root closure exceeded {DEFAULT_BUDGET}")
                roots[w] = seed
                frontier.append((w, [x - k * y for x, y in zip(c, cartan[i])], seed))
    roots.update([(tuple([-x for x in v]), seed) for v, seed in roots.items()])
    return roots


def build_root_system(label: CartanLabel) -> RootSystem:
    r = label.rank  # a label with more roots than the budget is refused unbuilt
    if r * {"A": r + 1, "B": 2 * r, "C": 2 * r, "BC": 2 * r + 2, "D": 2 * r - 2,
            "G": 6}[label.family] > DEFAULT_BUDGET:
        raise ClosureBudgetExceeded(f"root closure exceeded {DEFAULT_BUDGET}")
    gram = reference_gram(label)
    simples = tuple(_unit(i, r) for i in range(r))
    form = gram.form[0]  # a root's length is that of the simple root it is raised from
    lengths = {v: form[i][i] for v, i in _root_closure(cartan_matrix(simples, gram)).items()}
    if label.family == "BC":  # twice each short root, of squared length 1 (form[1] is 1)
        lengths.update([(tuple([2 * x for x in v]), 4) for v, n in lengths.items() if n == 1])
    positives = frozenset(v for v in lengths if _is_positive(v))
    rs = RootSystem(r, gram, frozenset(lengths), simples, positives)
    rs.__dict__["lengths"] = lengths  # the cached_property, filled by the table just made
    return rs


def well_shaped(rs: RootSystem) -> bool:
    """Roots are nonzero integer vectors, the simple roots among them, Phi+ = -Phi- >= 0."""
    neg = frozenset([tuple([-x for x in v]) for v in rs.positive_roots])
    return (all(len(v) == rs.rank for v in rs.roots) and (0,) * rs.rank not in rs.roots
            and all(x == int(x) for v in rs.roots for x in v)
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


def weyl_group(cartan) -> WeylGroup:
    """W of the integer Cartan matrix cartan (see cartan_matrix)."""
    return WeylGroup(tuple(tuple(row) for row in cartan))


def contains_minus_identity(w: WeylGroup) -> bool:
    """-id on the span of the simple roots (the ambient -id when they span).

    The longest-element walk (Bourbaki, Lie groups, ch. VI, sec. 1.6): from
    c0 = (1, ..., k), reflect in any simple wall with c_j > 0 until none is
    left, at most |Phi+| steps.  The walk ends at w_0 c0, and w_0 c0 = -c0
    exactly when w_0 = -id, as the entries of c0 are distinct.
    """
    gens = w.generators
    c = list(range(1, len(gens) + 1))
    j = 0
    while j < len(c):
        if c[j] > 0:
            c = [x - c[j] * y for x, y in zip(c, gens[j])]
            j = 0
        else:
            j += 1
    return len(c) > 0 and c == list(range(-1, -len(c) - 1, -1))


def tits_minus_identity(labels) -> bool:
    """Type-based prediction for -id in the Weyl group (product over factors)."""
    for lab in labels:
        if lab.family == "A" and lab.rank >= 2:
            return False
        if lab.family == "D" and lab.rank % 2 == 1:
            return False
    return True


def linked_components(n, linked):
    """The connected components of the graph on 0..n-1 with edges linked(i, j)."""
    groups = []
    for i in range(n):
        hit = [g for g in groups if any(linked(i, j) for j in g)]
        groups = [g for g in groups if g not in hit] + [[i] + [j for g in hit for j in g]]
    return groups


def decompose_and_classify(rs: RootSystem):
    """Split into irreducible components and name each by its Dynkin diagram.

    The diagram is cartan_type of the simple roots' Cartan matrix, a node
    doubled when twice its root is a root, so D3 reports as A3 and rank-2 C
    as B2.  Components come back sorted by label then simple roots.
    """
    simples = rs.simple_roots
    doubled = [tuple(2 * x for x in s) in rs.roots for s in simples]
    named = cartan_type(cartan_matrix(simples, rs.gram), doubled)
    return tuple(sorted(Component(label, tuple(sorted(simples[j] for j in idx)))
                        for label, idx in named))


def _dynkin_label(cartan, nodes, doubled) -> CartanLabel:
    r = len(nodes)
    bonds = {(i, j): cartan[i][j] * cartan[j][i]
             for i in nodes for j in nodes if i < j and cartan[i][j]}
    degree = Counter(k for bond in bonds for k in bond)
    twice = [i for i in nodes if doubled[i]]
    multiple = [bond for bond, m in bonds.items() if m > 1]
    tree = len(bonds) == r - 1
    if r == 1:
        return CartanLabel("BC" if twice else "A", 1)
    if tree and not multiple and not twice:
        if max(degree.values()) <= 2:
            return CartanLabel("A", r)
        forks = [k for k, n in degree.items() if n > 2]
        if len(forks) == 1 and degree[forks[0]] == 3 and sum(
                degree[j] == 1 for bond in bonds if forks[0] in bond for j in bond) >= 2:
            return CartanLabel("D", r)
    elif tree and len(multiple) == 1 and max(degree.values()) <= 2:
        (i, j), = multiple
        if bonds[i, j] == 3 and r == 2 and not twice:
            return CartanLabel("G", 2)
        # a_j is short when <a_i, a_j^vee> = -2 and <a_j, a_i^vee> = -1
        short, long = (j, i) if abs(cartan[i][j]) > abs(cartan[j][i]) else (i, j)
        if bonds[i, j] == 2 and degree[short] == 1 and twice in ([], [short]):
            return CartanLabel("BC" if twice else "B", r)
        if bonds[i, j] == 2 and degree[long] == 1 and not twice:
            return CartanLabel("C", r)
    raise UnrecognizedType(f"component of rank {r} with Cartan matrix "
                           f"{[[cartan[i][j] for j in nodes] for i in nodes]} "
                           f"is not recognized")


def cartan_type(cartan, doubled):
    """Split an integer Cartan matrix into irreducible components and name each.

    doubled[i] says that twice simple root i is a root too.  Returns
    (label, indices) per component, sorted.  One node is A1, or BC1 when
    doubled; a triple bond is G2; a double bond at the end of a chain is BC
    when its short end is doubled, B when that end is short (so rank-2 C is
    B2) and C when it is long; a simply laced chain is A, and a tree with one
    fork, two of whose arms are single nodes, is D.  Anything else (F4, the
    E types) raises UnrecognizedType.
    """
    return tuple(sorted((_dynkin_label(cartan, g, doubled), tuple(sorted(g)))
                        for g in linked_components(len(cartan),
                                                   lambda i, j: cartan[i][j] != 0)))


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
