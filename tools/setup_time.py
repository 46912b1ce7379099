"""Median time of each stage of the set-up that every command runs.

    python tools/setup_time.py [--src DIR] [--repeats N]

Imports the package from DIR (default: this tree's `src`) and, N times
(default 7), builds each of the 12 data of the point-queries, face-tables
and austere-scan workloads of `bench/workloads.py` cold, as a fresh
process does: `datum.catalog` makes a new datum, and
`alcove.fundamental_alcove` lays out its alcove.  Each stage is timed by
a wrapper around the function that does it, and a pass sums a stage over
the 12 data.  As the benchmark scales an operation's latency, each pass
sum is scaled by `bench/calibrate.normalized` to the reference host
speed, with the calibration unit timed right before and right after the
pass.  The output has one line per stage, the median of its N scaled
pass sums in milliseconds:

    build       catalog less validate: the root system and the sectors
    validate    datum.validate, the closure check included
      closure   datum._closure_violations
    slabs       alcove._slabs
    facets      alcove._facets
    cartan      the facet Cartan matrix: alcove._facet_cartan, or
                cartan_matrix as alcove calls it in trees without it
    vertices    alcove._alcove_data less the three above: the simplex
                factors and the vertices with their tight sets
    total       build + validate + slabs + facets + cartan + vertices

The wrappers add well under a microsecond per call.  Run it on two trees
(`--src`) to compare them.
"""

import argparse
import importlib
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import calibrate  # noqa: E402
from workloads import FACE_DATA, PQ_BY_RANK, SCAN_DATA, catalog_call  # noqa: E402

# (stage, module, candidate function names: the first that the module has)
WRAPPED = (("catalog", "datum", ("catalog",)),
           ("validate", "datum", ("validate",)),
           ("closure", "datum", ("_closure_violations",)),
           ("alcove", "alcove", ("_alcove_data",)),
           ("slabs", "alcove", ("_slabs",)),
           ("facets", "alcove", ("_facets",)),
           ("cartan", "alcove", ("_facet_cartan", "cartan_matrix")))
SHOWN = ("build", "validate", "  closure", "slabs", "facets", "cartan", "vertices", "total")


def data():
    """The 12 distinct data of point-queries, face-tables and austere-scan."""
    keys = [k for ks in PQ_BY_RANK.values() for k in ks] + FACE_DATA + [k for k, _ in SCAN_DATA]
    return [catalog_call(k) for k in dict.fromkeys(keys)]


def install(spent):
    """Wrap each stage's function, adding its time to spent[stage]."""
    for stage, modname, names in WRAPPED:
        mod = importlib.import_module("hermann." + modname)
        name = next(n for n in names if hasattr(mod, n))
        original = getattr(mod, name)

        def timed(*args, _f=original, _stage=stage, **kwargs):
            start = time.perf_counter()
            try:
                return _f(*args, **kwargs)
            finally:
                spent[_stage] += time.perf_counter() - start

        setattr(mod, name, timed)


def one_pass(calls, spent):
    """The stage sums of one cold build of every datum, in seconds at the
    reference host speed."""
    from hermann.alcove import fundamental_alcove
    from hermann.datum import catalog

    for key in spent:
        spent[key] = 0.0
    before = calibrate.unit_seconds()
    for key, params in calls:
        fundamental_alcove(catalog(key, **params))
    after = calibrate.unit_seconds()
    s = {key: calibrate.normalized(v, before, after) for key, v in spent.items()}
    out = {"build": s["catalog"] - s["validate"], "validate": s["validate"],
           "  closure": s["closure"], "slabs": s["slabs"], "facets": s["facets"],
           "cartan": s["cartan"],
           "vertices": s["alcove"] - s["slabs"] - s["facets"] - s["cartan"]}
    out["total"] = s["catalog"] + s["alcove"]
    return out


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the hermann package")
    parser.add_argument("--repeats", type=int, default=7, help="passes to take the median of")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    spent = {stage: 0.0 for stage, _, _ in WRAPPED}
    install(spent)
    calls = data()
    one_pass(calls, spent)  # warm the imports and the interpreter
    passes = [one_pass(calls, spent) for _ in range(args.repeats)]
    print(f"{len(calls)} data, median of {args.repeats} passes, ms at the reference speed")
    for stage in SHOWN:
        print(f"{stage:<10} {1000 * statistics.median(p[stage] for p in passes):8.3f}")


if __name__ == "__main__":
    run()
