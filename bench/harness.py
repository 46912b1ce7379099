"""Runs benchmark operations against ``hermann`` and checks their outputs.

Operations go through the public entry points only: ``hermann.cli.main``
with a string buffer for stdout, and ``hermann.geometry.find_minimal``.
Every name is looked up on its module at call time, so the wrappers that
``spans.py`` installs see the calls, and the untraced runs never do.
"""

import contextlib
import importlib
import io
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from workloads import catalog_call

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_FILE = os.path.join(HERE, "data", "expected.json")

MODULES = ("cli", "datum", "roots", "alcove", "exact", "geometry", "diagram")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/hermann`` to benchmark."""


def import_hermann():
    """Import ``hermann`` from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hermann", "__init__.py")):
        raise MissingProgram(f"no hermann package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import hermann
    where = os.path.dirname(os.path.abspath(hermann.__file__))
    if where != os.path.join(src, "hermann"):
        raise MissingProgram(f"hermann imported from {where}, not from {src}")
    return hermann


def src_lines():
    """Physical line count of each source module of ``hermann`` (0 for a
    module that no longer exists)."""
    out = {}
    for m in MODULES:
        path = os.path.join(ROOT, "src", "hermann", m + ".py")
        if not os.path.exists(path):
            out[m] = 0
            continue
        with open(path, encoding="utf-8") as fh:
            out[m] = sum(1 for _ in fh)
    return out


def load_expected():
    if not os.path.exists(EXPECTED_FILE):
        return {}
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    latency_s: float
    stdout: str
    points: int
    failures: list = field(default_factory=list)
    verdicts: int = 0
    indet: int = 0


_PLAIN_SPLIT = re.compile(r"\s{2,}")


def _fractions(text):
    return tuple(Fraction(c.strip()) for c in text.strip("()").split(","))


def _norm_upper(text):
    """An upper bound on the certified norm printed as ``mid@Bb`` or
    ``<=B@Bb``.  A midpoint has 12 significant digits and the interval is
    at most 2^(8 - bits) wide."""
    value, bits = text.rsplit("@", 1)
    bits = int(bits.rstrip("b"))
    if value.startswith("<="):
        return Fraction(value[2:]) * Fraction(101, 100)
    return Fraction(value) * (1 + Fraction(1, 10 ** 11)) + Fraction(1, 2 ** (bits - 8))


def _table_rows(text):
    lines = text.splitlines()
    if not lines:
        return []
    if "\t" in lines[0]:
        return [ln.split("\t") for ln in lines[1:]]
    return [_PLAIN_SPLIT.split(ln) for ln in lines[2:]]


def _fields(text):
    """``key: value`` lines up to the first blank line."""
    out = {}
    for ln in text.splitlines():
        if not ln:
            break
        if ": " in ln:
            k, v = ln.split(": ", 1)
            out[k] = v
    return out


def _call(tracer, key, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.run(key, fn, *args, **kwargs)


class Runner:
    """Executes operations and checks them.

    ``expected`` maps an operation key to its stdout; operations whose key
    is absent are checked by invariants alone.
    """

    def __init__(self, hermann, expected=None):
        self.h = hermann
        self.cli = importlib.import_module("hermann.cli")
        self.geometry = importlib.import_module("hermann.geometry")
        exact = importlib.import_module("hermann.exact")
        datum = importlib.import_module("hermann.datum")
        # captured before any tracing wrapper is installed
        self.cache_clear = exact.cot_eval.cache_clear
        self.cache_info = exact.cot_eval.cache_info
        self._format_interval = exact.format_interval
        self._point_in_alcove = hermann.alcove.point_in_alcove
        self._alcove_vertices = hermann.alcove.alcove_vertices
        self._positive_sector_roots = datum.positive_sector_roots
        self._catalog_entries = {e.key: e.builder for e in datum.CATALOG}
        self.expected = {} if expected is None else expected
        self.data = {}
        self._slabs = {}
        self._inside = {}

    # -- set-up --------------------------------------------------------
    def build_data(self, keys):
        """Build each datum and its alcove; replaces ``self.data``.  The old
        data are dropped first, so the alcove cache cannot serve them."""
        self.data = {}
        out = {}
        for key in keys:
            name, params = catalog_call(key)
            d = self.h.datum.catalog(name, **params)
            self.h.alcove.fundamental_alcove(d)
            out[key] = d
        self.data = out

    # -- execution -----------------------------------------------------
    def execute(self, op, tracer=None):
        """Run one operation from a cold ``cot_eval`` cache and check it."""
        self.cache_clear()
        err = io.StringIO()
        if op.kind == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                rc = _call(tracer, op.key, self.cli.main, list(op.args), stdout=buf)
                latency = time.perf_counter() - t0
            out = buf.getvalue()
            result = None
        else:
            key, tol = op.args
            d = self.data[key]
            tolerance = Fraction(tol)
            t0 = time.perf_counter()
            result = _call(tracer, op.key, self.geometry.find_minimal, d, tolerance)
            latency = time.perf_counter() - t0
            rc = 0
            out = (f"datum: {d.name}\niterations: {result.iterations}\n"
                   f"bits: {result.precision_bits}\npoint: {result.point}\n"
                   f"norm: {self._format_interval(result.norm)}\n")
        if tracer is not None:
            tracer.note_cache(self.cache_info())
        outcome = Outcome(latency, out, 1)
        if rc != 0:
            outcome.failures.append(f"exit code {rc}: {err.getvalue().strip()}")
        else:
            self.check(op, outcome, result)
        want = self.expected.get(op.key)
        if want is not None and want != out:
            outcome.failures.append("stdout differs from the stored expected output")
        return outcome

    # -- checks --------------------------------------------------------
    def check(self, op, outcome, result=None):
        """Invariants that need no stored answer; appends to failures."""
        try:
            if op.kind == "minimal":
                self._check_minimal(op, outcome, result)
            else:
                verb = op.args[0]
                getattr(self, "_check_" + verb.replace("-", "_"))(op, outcome)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            outcome.failures.append(f"unparseable output: {exc!r}")

    def _verdicts(self, outcome, values):
        for v in values:
            outcome.verdicts += 1
            outcome.indet += v == "indet"

    def _flag_chain(self, outcome, tg, austere, minimal, arid, wr):
        if tg == "yes" and austere != "yes":
            outcome.failures.append("totally geodesic but not austere")
        if austere == "yes" and minimal not in (None, "yes"):
            outcome.failures.append("austere but not minimal")
        if wr == "yes" and arid != "yes":
            outcome.failures.append("WR* without arid*")

    def _check_analyze(self, op, outcome):
        f = _fields(outcome.stdout)
        self._verdicts(outcome, (f["austere"], f["minimal"]))
        self._flag_chain(outcome, f["totally_geodesic"], f["austere"],
                         f["minimal"], f["arid*"], f["WR*"])
        if f["type"] != "(none)":
            outcome.failures.append(f"interior point has active type {f['type']}")

    def _table(self, outcome):
        rows = _table_rows(outcome.stdout)
        for row in rows:
            if len(row) != 7:
                raise ValueError(f"table row with {len(row)} cells")
            _, _, tg, austere, arid, wr, _ = row
            self._flag_chain(outcome, tg, austere, None, arid, wr)
        self._verdicts(outcome, (row[3] for row in rows))
        return rows

    def _check_faces(self, op, outcome):
        rows = self._table(outcome)
        outcome.points = len(rows)
        if not rows:
            outcome.failures.append("empty face table")

    def _check_scan_austere(self, op, outcome):
        rows = self._table(outcome)
        den = int(op.args[op.args.index("--denominator") + 1])
        for row in rows:
            if row[3] not in ("yes", "indet"):
                outcome.failures.append(f"scan row {row[0]} has austere {row[3]}")
            pt = _fractions(row[0])
            if any((c * den).denominator != 1 for c in pt) or \
                    not self._in_closed_alcove(op.datum, pt):
                outcome.failures.append(f"scan row {row[0]} is off the grid or alcove")
        outcome.points = self._grid_inside(op.datum, den)

    def _check_find_minimal(self, op, outcome):
        f = _fields(outcome.stdout)
        tol = Fraction(1, 10 ** 20)  # the CLI's default; the stream passes none
        if _norm_upper(f["norm"]) >= tol:
            outcome.failures.append(f"norm {f['norm']} not below {tol}")

    def _check_reduce(self, op, outcome):
        f = _fields(outcome.stdout)
        if not self._in_closed_alcove(op.datum, _fractions(f["reduced"])):
            outcome.failures.append(f"reduced point {f['reduced']} is outside the alcove")
        if int(f["reflections"]) < 1:
            outcome.failures.append("a point outside the alcove needed no reflection")

    def _check_minimal(self, op, outcome, m):
        key, tol = op.args
        if not m.norm.hi < Fraction(tol):
            outcome.failures.append(f"certified norm {m.norm.hi} not below {tol}")
        if not self._point_in_alcove(self.data[key], m.point, strict=True):
            outcome.failures.append("minimal point is not inside the alcove")

    # -- independent alcove description --------------------------------
    def _slab_rows(self, key):
        """Closed slabs n0 <= alpha.x + t <= n0 + 1 of every positive
        (root, sector) pair, from the catalog builder without validation."""
        rows = self._slabs.get(key)
        if rows is None:
            d = self._catalog(key)
            rows = [(alpha, t, 0 if t >= 0 else -1)
                    for alpha, t, _ in self._positive_sector_roots(d)]
            self._slabs[key] = rows
        return rows

    def _in_closed_alcove(self, key, pt):
        for alpha, t, n0 in self._slab_rows(key):
            p = sum(a * x for a, x in zip(alpha, pt)) + t
            if not n0 <= p <= n0 + 1:
                return False
        return True

    def _grid_inside(self, key, den):
        """Grid points of step 1/den in the closed alcove, counted with
        integer slab tests over the box spanned by the alcove vertices."""
        got = self._inside.get((key, den))
        if got is not None:
            return got
        verts = self._alcove_vertices(self._catalog(key))
        r = len(verts[0].coeffs)
        ranges = []
        for i in range(r):
            lo = min(v.coeffs[i] for v in verts)
            hi = max(v.coeffs[i] for v in verts)
            ranges.append(range(-((-lo.numerator * den) // lo.denominator),
                                (hi.numerator * den) // hi.denominator + 1))
        rows = []
        for alpha, t, n0 in self._slab_rows(key):
            s = t.denominator
            rows.append((tuple(a * s for a in alpha), t.numerator * den,
                         n0 * den * s, (n0 + 1) * den * s))
        count = 0
        for k in product(*ranges):
            if all(lo <= sum(a * x for a, x in zip(alpha, k)) + tt <= hi
                   for alpha, tt, lo, hi in rows):
                count += 1
        self._inside[(key, den)] = count
        return count

    def _catalog(self, key):
        """The datum from its catalog builder, skipping validation."""
        name, params = catalog_call(key)
        return self._catalog_entries[name](**params)
