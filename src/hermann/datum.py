"""Graded restricted root data: built-in catalog, validation, JSON format.

A datum is a restricted root system together with a partition of its roots
into phase sectors.  The phase of a sector is recorded as the rational t
with epsilon = exp(2*pi*i*t), t in (-1/2, 1/2]; the grading order l must
satisfy l*t in Z for every sector.  Multiplicities live on (root, sector)
pairs and obey the duality m(-alpha, eps^-1) = m(alpha, eps).
"""

from __future__ import annotations

import json
import weakref
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import GramMatrix, inner, pairing, parse_rational
from .roots import (CartanLabel, RootSystem, build_root_system, decompose_and_classify,
                    well_shaped, _is_positive, _reflect_by, _unit)


class UnknownKey(ValueError):
    """Catalog key does not exist."""


class BadParameters(ValueError):
    """Catalog parameters outside the valid range."""


class ParseError(ValueError):
    """Malformed datum document."""


class ValidationError(ValueError):
    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(f"[{v.kind}] {v.detail}" for v in self.violations)
        super().__init__(f"datum validation failed: {lines}")


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


@dataclass
class Sector:
    phi: Fraction
    roots: dict


@dataclass(eq=False)
class GradedRootDatum:
    name: str
    sigma: RootSystem
    sectors: tuple
    order: int
    zero_mult: int = 0

    @property
    def rank(self) -> int:
        return self.sigma.rank

    def _sector_map(self):
        return {s.phi: dict(s.roots) for s in self.sectors}

    def __eq__(self, other):
        # a per-datum WeakKeyDictionary compares the datum with itself on every hit
        if self is other:
            return True
        if not isinstance(other, GradedRootDatum):
            return NotImplemented
        return (self.name == other.name and self.sigma == other.sigma
                and self.order == other.order and self.zero_mult == other.zero_mult
                and self._sector_map() == other._sector_map())

    __hash__ = object.__hash__


def inverse_phase(t: Fraction) -> Fraction:
    """Phase of eps^-1 within the canonical window (-1/2, 1/2]."""
    return t if t == Fraction(1, 2) else -t


_STREAMS = weakref.WeakKeyDictionary()


def positive_sector_roots(d: GradedRootDatum) -> tuple:
    """Deterministic (alpha, t, mult) tuple over positive roots by sector.

    Built once per datum and kept next to it, like the alcove of
    alcove._ALCOVE_CACHE; a datum is not changed after it is built.
    """
    stream = _STREAMS.get(d)
    if stream is None:
        stream = _STREAMS[d] = tuple(
            (alpha, sector.phi, sector.roots[alpha])
            for sector in sorted(d.sectors, key=lambda s: s.phi)
            for alpha in sorted(sector.roots) if _is_positive(alpha))
    return stream


def validate(d: GradedRootDatum):
    """Collect violations; empty tuple means the datum is well formed."""
    out = []
    if d.order < 1:
        out.append(Violation("order", f"grading order must be >= 1, got {d.order}"))
    if d.zero_mult < 0:
        out.append(Violation("zero_mult", f"must be >= 0, got {d.zero_mult}"))
    if not d.sectors:
        out.append(Violation("sectors", "at least one sector is required"))
    if not well_shaped(d.sigma):
        out.append(Violation("axioms", "root-system axioms fail"))
    seen = set()
    for s in d.sectors:
        t = s.phi
        if not (Fraction(-1, 2) < t <= Fraction(1, 2)):
            out.append(Violation("phase", f"phi={t}*pi outside (-1/2, 1/2]"))
        if t in seen:
            out.append(Violation("phase", f"duplicate sector phase {t}*pi"))
        seen.add(t)
        if d.order >= 1 and (d.order * t).denominator != 1:
            out.append(Violation("order", f"phase {t}*pi is not killed by order {d.order}"))
        for v, m in s.roots.items():
            if v not in d.sigma.roots:
                out.append(Violation("support", f"{v} in sector {t}*pi is not a root"))
            if not isinstance(m, int) or m < 1:
                out.append(Violation("multiplicity", f"m{v}@{t}*pi must be a positive integer, got {m!r}"))
    missing = d.sigma.roots.difference(*(s.roots for s in d.sectors))
    if missing:
        out.append(Violation("coverage", f"{len(missing)} roots carry no sector, e.g. {sorted(missing)[0]}"))
    by_phase = {s.phi: s.roots for s in d.sectors}
    for s in d.sectors:
        t = s.phi
        tinv = inverse_phase(t)
        dual = by_phase.get(tinv, {})
        for v, m in s.roots.items():
            nv = tuple(-x for x in v)
            dm = dual.get(nv)
            if dm != m:
                out.append(Violation("duality",
                                     f"m({nv}, phase {tinv}*pi) = {dm} but m({v}, phase {t}*pi) = {m}"))
    if not out:
        out.extend(_closure_violations(d))
    return tuple(out)


def _closure_violations(d: GradedRootDatum):
    """The first (root, phase) pair that a reflection takes off the datum.

    The pairs with m > 0 are affine roots, which the Weyl group permutes with
    their multiplicities (Heintze, Palais, Terng & Thorbergsson 1995;
    Macdonald 1972): the wall of (alpha, s) sends (beta, t) to (beta - k alpha,
    t - k s mod 1), k = <beta, alpha^vee>.  Phases are integers mod d.order.
    As s_-alpha = s_alpha and duality pairs (-beta, -t) with (beta, t), alpha
    and beta run over the positive roots.
    """
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


def _graded(name, rs: RootSystem, order, table, norm=None) -> GradedRootDatum:
    """The datum over rs with one sector per (phase t, mults) of table.

    mults maps a squared root length to the multiplicity of every root of
    that length at phase t; a length it omits, or that no root of rs has,
    carries nothing there.  norm maps each root to its squared length, for a
    caller that has computed it already.
    """
    if norm is None:
        norm = {v: inner(v, v, rs.gram) for v in rs.roots}
    sectors = tuple(Sector(Fraction(t), {v: m[norm[v]] for v in sorted(norm) if norm[v] in m})
                    for t, m in table)
    return GradedRootDatum(name, rs, sectors, order)


def _bc_of(p, q) -> RootSystem:
    """The BC root system of rank (q - 1)/2, once p and q are checked."""
    if not (isinstance(p, int) and isinstance(q, int)):
        raise BadParameters(f"p, q must be integers, got {p!r}, {q!r}")
    if q < 3 or q % 2 == 0 or p <= q:
        raise BadParameters(f"need p > q >= 3 with q odd, got p={p}, q={q}")
    return build_root_system(CartanLabel("BC", (q - 1) // 2))


def _build_so_even(p=None, q=None):
    return _graded(f"so_even(p={p},q={q})", _bc_of(p, q), 4, (
        (Fraction(-1, 4), {1: 2}), (0, {2: 2, 1: p - q, 4: 1}),
        (Fraction(1, 4), {1: 2}), (Fraction(1, 2), {2: 2, 1: p - q})))


def _build_su_sp(p=None, q=None):
    return _graded(f"su_sp(p={p},q={q})", _bc_of(p, q), 4, (
        (Fraction(-1, 4), {1: 4}), (0, {2: 4, 1: 2 * (p - q), 4: 3}),
        (Fraction(1, 4), {1: 4}), (Fraction(1, 2), {2: 4, 1: 2 * (p - q), 4: 1})))


def _build_so8_g2():
    return _graded("so8_g2", build_root_system(CartanLabel("G", 2)), 3, (
        (Fraction(-1, 3), {2: 1}), (0, {2: 1, 6: 1}), (Fraction(1, 3), {2: 1})))


def _build_isotropy(label=None, mults=None):
    if label is None:
        raise BadParameters("isotropy requires a Cartan label, e.g. isotropy:BC2")
    try:
        lab = CartanLabel.parse(str(label))
    except ValueError as exc:
        raise BadParameters(str(exc)) from exc
    rs = build_root_system(lab)
    norm = {v: inner(v, v, rs.gram) for v in rs.roots}
    lengths = sorted(set(norm.values()))
    if mults is None:
        mults = dict.fromkeys(lengths, 1)
    else:
        mults = {Fraction(k): v for k, v in mults.items()}
        if sorted(mults) != lengths:
            raise BadParameters(
                f"multiplicity table keys {sorted(mults)} must be the squared lengths {lengths}")
        if any(type(v) is not int or v < 1 for v in mults.values()):
            raise BadParameters("multiplicities must be positive integers")
    return _graded(f"isotropy:{lab}", rs, 1, ((0, mults),), norm)


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    parameters: str
    summary: str
    builder: object = field(repr=False)


CATALOG = (
    CatalogEntry("so_even", "p>q>=3, q odd",
                 "rank (q-1)/2 non-reduced system graded over the fourth roots of unity",
                 _build_so_even),
    CatalogEntry("su_sp", "p>q>=3, q odd",
                 "same grading as so_even with doubled multiplicities and m(2e)=3,1",
                 _build_su_sp),
    CatalogEntry("so8_g2", "none",
                 "rank-2 system of type G2 graded over the cube roots of unity",
                 _build_so8_g2),
    CatalogEntry("isotropy", "label, optional mults by squared length",
                 "single-sector datum at phase 0; orbits of the isotropy picture",
                 _build_isotropy),
)


def catalog(key: str, **params) -> GradedRootDatum:
    for entry in CATALOG:
        if entry.key == key:
            try:
                d = entry.builder(**params)
            except TypeError as exc:
                raise BadParameters(f"bad parameters for {key}: {exc}") from exc
            bad = validate(d)
            if bad:
                raise ValidationError(bad)
            return d
    raise UnknownKey(f"no catalog datum named {key!r}; known keys: "
                     + ", ".join(e.key for e in CATALOG))


def _req(obj, key, types, where):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    val = obj[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise ParseError(f"{where}.{key}: unexpected type {type(val).__name__}")
    return val


def _no_extra(obj, allowed, where):
    extra = set(obj) - set(allowed)
    if extra:
        raise ParseError(f"{where}: unknown fields {sorted(extra)}")


#: Names of small types that the classification spells as on the right.
_ALIASES = {"B1": "A1", "C1": "A1", "C2": "B2", "D2": "A1+A1", "D3": "A3"}


def _components(text: str) -> Counter:
    """The component names of a type such as "A1+C2", aliases expanded."""
    return Counter("+".join(_ALIASES.get(p, p) for p in text.split("+")).split("+"))


def parse_datum(text: str) -> GradedRootDatum:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    _no_extra(doc, ("name", "rank", "gram", "simple_roots_label", "order",
                    "zero_mult", "sectors"), "datum")
    name = _req(doc, "name", str, "datum")
    rank = _req(doc, "rank", int, "datum")
    if rank < 1:
        raise ParseError("datum.rank: must be >= 1")
    order = _req(doc, "order", int, "datum")
    zero_mult = doc.get("zero_mult", 0)
    if not isinstance(zero_mult, int) or isinstance(zero_mult, bool):
        raise ParseError("datum.zero_mult: must be an integer")
    raw_gram = _req(doc, "gram", list, "datum")
    if len(raw_gram) != rank or any(not isinstance(row, list) or len(row) != rank
                                    for row in raw_gram):
        raise ParseError(f"datum.gram: must be a {rank}x{rank} array")
    entries = []
    for i, row in enumerate(raw_gram):
        out_row = []
        for j, cell in enumerate(row):
            if isinstance(cell, str):
                try:
                    out_row.append(parse_rational(cell))
                except ValueError as exc:
                    raise ParseError(f"datum.gram[{i}][{j}]: {exc}") from exc
            elif isinstance(cell, int) and not isinstance(cell, bool):
                out_row.append(Fraction(cell))
            else:
                raise ParseError(f"datum.gram[{i}][{j}]: expected rational string or integer")
        entries.append(tuple(out_row))
    try:
        gram = GramMatrix(tuple(entries))
    except ValueError as exc:
        raise ValidationError((Violation("gram", str(exc)),)) from exc

    raw_sectors = _req(doc, "sectors", list, "datum")
    by_phase = {}
    for si, raw in enumerate(raw_sectors):
        where = f"datum.sectors[{si}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: must be an object")
        _no_extra(raw, ("phi", "roots"), where)
        phi_text = _req(raw, "phi", str, where)
        try:
            t = parse_rational(phi_text)
        except ValueError as exc:
            raise ParseError(f"{where}.phi: {exc}") from exc
        raw_roots = _req(raw, "roots", list, where)
        bucket = by_phase.setdefault(t, {})
        for ri, entry in enumerate(raw_roots):
            rwhere = f"{where}.roots[{ri}]"
            if not isinstance(entry, dict):
                raise ParseError(f"{rwhere}: must be an object")
            _no_extra(entry, ("v", "m"), rwhere)
            vec = _req(entry, "v", list, rwhere)
            if len(vec) != rank or any(not isinstance(x, int) or isinstance(x, bool)
                                       for x in vec):
                raise ParseError(f"{rwhere}.v: expected {rank} integers")
            m = _req(entry, "m", int, rwhere)
            v = tuple(vec)
            if v in bucket and bucket[v] != m:
                raise ParseError(f"{rwhere}: conflicting multiplicities for {v}")
            bucket[v] = m

    # complete omitted negatives through the duality m(-a, eps^-1) = m(a, eps)
    for t in sorted(by_phase):
        tinv = inverse_phase(t)
        dual = by_phase.setdefault(tinv, {})
        for v, m in list(by_phase[t].items()):
            dual.setdefault(tuple(-x for x in v), m)

    sectors = tuple(Sector(t, by_phase[t]) for t in sorted(by_phase) if by_phase[t])
    all_roots = frozenset(v for s in sectors for v in s.roots)
    simples = tuple(_unit(i, rank) for i in range(rank))
    positives = frozenset(v for v in all_roots if _is_positive(v))
    sigma = RootSystem(rank, gram, all_roots, simples, positives)
    d = GradedRootDatum(name, sigma, sectors, order, zero_mult)
    bad = validate(d)
    if bad:
        raise ValidationError(bad)
    if "simple_roots_label" in doc:
        want = str(doc["simple_roots_label"])
        got = "+".join(str(c.label) for c in decompose_and_classify(sigma))
        if _components(want) != _components(got):
            raise ValidationError((Violation(
                "label", f"declared type {want} but the roots form {got}"),))
    return d


def serialize_datum(d: GradedRootDatum) -> str:
    doc = {
        "name": d.name,
        "rank": d.rank,
        "gram": [[str(x) for x in row] for row in d.sigma.gram.entries],
        "order": d.order,
        "zero_mult": d.zero_mult,
        "sectors": [
            {
                "phi": str(s.phi),
                "roots": [{"v": list(v), "m": s.roots[v]} for v in sorted(s.roots)],
            }
            for s in sorted(d.sectors, key=lambda s: s.phi)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
