"""Seeded operation streams for the four benchmark workloads.

This module imports nothing from ``hermann``: a stream depends only on the
workload name, the seed and the alcove vertex table in ``data/``, so the
same seed gives the same operations on every commit.

A stream is one pass: a fixed list of operations.  A run repeats the pass,
each time in a new seeded order, so every operation is timed several
times across the run and its latency can be taken as the median of its
repeats.  The (datum, verb) pairs of a pass are the same for every seed;
the seed draws the points, the ``--xi`` directions and the orders.
Keeping the pairs fixed keeps the cost of a pass the same from seed to
seed.
"""

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
VERTICES_FILE = os.path.join(HERE, "data", "vertices.json")

DEFAULT_SEED = 1
# Never used while the benchmark or a change is tuned; a claimed gain must
# also hold on this seed.
HELD_OUT_SEED = 7919

WORKLOADS = ("point-queries", "face-tables", "austere-scan", "minimal-search")

# Every run times at least this many whole passes, so every operation has
# at least this many samples.
MIN_PASSES = 5
# The tail percentile leaves at least this many samples beyond it.
TAIL_SAMPLES = 10


def _triad(key):
    """CLI arguments and catalog call for a datum key like 'su_sp:9,7'."""
    if key.startswith("isotropy:"):
        return ["--triad", key], ("isotropy", {"label": key.split(":", 1)[1]})
    if ":" in key:
        family, pq = key.split(":")
        p, q = pq.split(",")
        return (["--triad", family, "--p", p, "--q", q],
                (family, {"p": int(p), "q": int(q)}))
    return ["--triad", key], (key, {})


def triad_args(key):
    return _triad(key)[0]


def catalog_call(key):
    """(catalog key, keyword parameters) for ``hermann.catalog``."""
    return _triad(key)[1]


def _family(name, qs):
    return [f"{name}:{q + 2},{q}" for q in qs]


# Point-queries data by rank.  so_even and su_sp at q = 5..9 are ranks 2..4.
PQ_BY_RANK = {
    2: ["so8_g2", "isotropy:BC2", "so_even:7,5", "su_sp:7,5"],
    3: ["isotropy:C3", "so_even:9,7", "su_sp:9,7"],
    4: ["isotropy:B4", "isotropy:D4", "so_even:11,9", "su_sp:11,9"],
}
# The verbs each datum of a rank gets in one pass; rank 4 gets one query
# per datum, the verbs spread over the data.
PQ_VERBS = {
    2: ("analyze", "analyze", "analyze-xi", "reduce", "find-minimal"),
    3: ("analyze", "reduce", "find-minimal"),
}
PQ_ONE_VERB = {"isotropy:B4": "analyze", "isotropy:D4": "reduce",
               "so_even:11,9": "find-minimal", "su_sp:11,9": "analyze-xi"}

FACE_DATA = ["so8_g2", "isotropy:BC2", "so_even:7,5", "su_sp:9,7", "isotropy:C3",
             "isotropy:A4"]

# (datum, denominator).  Rank 2 and 3 only: a scan's cost is mostly the
# reports of its hit rows, and at rank 4 those take seconds even on a
# coarse grid.  The costs rise by a factor of at least 1.15 from one scan
# to the next around the median and the tail, so that the scans there do
# not trade places from run to run.
SCAN_DATA = [("so8_g2", 30), ("isotropy:BC2", 45), ("so_even:7,5", 60),
             ("su_sp:7,5", 60), ("so8_g2", 120), ("su_sp:7,5", 90),
             ("isotropy:BC2", 90), ("su_sp:9,7", 36), ("so_even:9,7", 36)]

# Ranks 5 and above are left out to keep set-up short: it is repeated
# three times per run, and building so_even at rank 5 alone costs about 1 s.
MINIMAL_DATA = ["isotropy:C3", "isotropy:D4"] + _family("so_even", (5, 7, 9)) \
    + _family("su_sp", (5, 7, 9))
MINIMAL_TOLERANCES = ("1e-20", "1e-60", "1e-120")


@dataclass(frozen=True)
class Op:
    """One timed operation.

    kind "cli": ``args`` is the argv of ``hermann.cli.main``.
    kind "minimal": ``args`` is (datum key, tolerance text) for
    ``hermann.find_minimal``.
    """

    kind: str
    datum: str
    args: tuple

    @property
    def key(self) -> str:
        """Stable text naming the operation; keys the expected outputs."""
        if self.kind == "cli":
            return "hermann " + " ".join(self.args)
        return f"find_minimal({self.args[0]}, {self.args[1]})"


@dataclass(frozen=True)
class Stream:
    workload: str
    seed: int
    ops: tuple

    def order(self, index: int) -> tuple:
        """The operations of pass ``index``, in a seeded order."""
        out = list(self.ops)
        random.Random(f"{self.workload}/{self.seed}/{index}").shuffle(out)
        return tuple(out)

    @property
    def tail_index(self) -> int:
        """0-based index, among the pass's operations sorted by latency, of
        the highest one with at least ``TAIL_SAMPLES`` samples beyond it in
        the shortest run (``MIN_PASSES`` samples per operation); never below
        the median's index."""
        beyond = math.ceil(TAIL_SAMPLES / MIN_PASSES)
        n = len(self.ops)
        return max(math.ceil(n / 2) - 1, n - 1 - beyond)


def load_vertices():
    with open(VERTICES_FILE, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {k: [tuple(Fraction(x) for x in v) for v in vs] for k, vs in raw.items()}


def _fmt(coords):
    return ",".join(str(c) for c in coords)


def _interior_point(rng, verts):
    """Convex combination of the vertices with positive weights: strictly
    inside the alcove, so no wall passes through it."""
    w = [rng.randint(1, 9) for _ in verts]
    total = sum(w)
    r = len(verts[0])
    return tuple(sum(wi * v[i] for wi, v in zip(w, verts)) / total for i in range(r))


def _outside_point(rng, verts):
    """An interior point pushed out of the vertex bounding box along one
    coordinate by a whole number."""
    x = list(_interior_point(rng, verts))
    j = rng.randrange(len(x))
    lo = min(v[j] for v in verts)
    hi = max(v[j] for v in verts)
    step = rng.choice((-2, -1, 1, 2))
    x[j] += step
    if lo <= x[j] <= hi:
        raise ValueError(f"offset {step} keeps coordinate {j} inside the box")
    return tuple(x)


def _pq_op(rng, key, verb, verts):
    # "--point=-1/2,0" because argparse takes a separate "-1/2,0" for an option
    base = triad_args(key)
    if verb == "find-minimal":
        return Op("cli", key, ("find-minimal", *base))
    if verb == "reduce":
        return Op("cli", key, ("reduce", *base,
                               "--point=" + _fmt(_outside_point(rng, verts[key]))))
    args = ["analyze", *base, "--point=" + _fmt(_interior_point(rng, verts[key]))]
    if verb == "analyze-xi":
        r = len(verts[key][0])
        if rng.random() < 0.5:
            xi = str(rng.randint(-3, 3))
        else:
            xi = ",".join(str(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                          for _ in range(r))
        args.append("--xi=" + xi)
    return Op("cli", key, tuple(args))


def point_queries(seed, verts):
    rng = random.Random(f"point-queries/{seed}")
    ops = []
    for r, keys in PQ_BY_RANK.items():
        for key in keys:
            verbs = PQ_VERBS[r] if r in PQ_VERBS else (PQ_ONE_VERB[key],)
            for verb in verbs:
                op = _pq_op(rng, key, verb, verts)
                while op in ops:  # an operation's repeats are pooled by the operation
                    op = _pq_op(rng, key, verb, verts)
                ops.append(op)
    return Stream("point-queries", seed, tuple(ops))


def face_tables(seed):
    ops = []
    for key in FACE_DATA:
        base = triad_args(key)
        ops.append(Op("cli", key, ("faces", *base)))
        ops.append(Op("cli", key, ("faces", *base, "--all-faces", "--format", "tsv")))
    return Stream("face-tables", seed, tuple(ops))


def austere_scan(seed):
    ops = [Op("cli", key, ("scan-austere", *triad_args(key), "--denominator",
                           str(den), "--jobs", "1"))
           for key, den in SCAN_DATA]
    return Stream("austere-scan", seed, tuple(ops))


def minimal_search(seed):
    ops = [Op("minimal", key, (key, tol))
           for key in MINIMAL_DATA for tol in MINIMAL_TOLERANCES]
    return Stream("minimal-search", seed, tuple(ops))


def stream(workload, seed):
    if workload == "point-queries":
        return point_queries(seed, load_vertices())
    if workload == "face-tables":
        return face_tables(seed)
    if workload == "austere-scan":
        return austere_scan(seed)
    if workload == "minimal-search":
        return minimal_search(seed)
    raise ValueError(f"unknown workload {workload!r}")


def vertex_data():
    """Every datum whose vertices the point-queries generator needs."""
    return [k for r in sorted(PQ_BY_RANK) for k in PQ_BY_RANK[r]]
