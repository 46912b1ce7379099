"""Paired in-process A/B timing of two hermann source trees on one workload.

    python tools/ab_paired.py A_SRC B_SRC [--workload NAME] [--seed N]
                              [--repeats R] [--limit K]

Loads the package under A_SRC/hermann as `hermann_a` and the one under
B_SRC/hermann as `hermann_b`, side by side in one interpreter, and takes
the operations of one pass of a benchmark workload from
`bench/workloads.py` (the first K with `--limit`).  Each repeat runs every
operation on both trees back to back, each from a cleared `cot_eval`
cache, and the tree that goes first flips from one repeat to the next, so
a swing in the host's speed falls on both sides alike.  A side's ops/s is
the number of operations over the sum of their median latencies; its
line also gives the lower and upper quartiles of its per-repeat ops/s
(the operations over the sum of their latencies in that repeat) and
each repeat's value, and B's line the number of repeats in which B's
per-repeat ops/s beat A's.  The last line is the ratio B/A.

The data of find_minimal operations and their alcoves are built once per
tree before the first repeat, as the benchmark's set-up builds them.  A CLI command's
output is its exit code, stdout and stderr; a find_minimal result is
compared by value (point, norm ends and bits, iterations, bits), since the
two trees' dataclasses are different classes.  Exits 1 when any output
differs between the trees, else 0.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import statistics
import sys
import time
from fractions import Fraction

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_tree(src: str, name: str):
    """The package in src/hermann, imported as `name` with its submodules."""
    pkg_dir = os.path.join(os.path.abspath(src), "hermann")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("cli", "datum", "exact", "geometry"):  # each becomes an attribute of pkg
        importlib.import_module(f"{name}.{sub}")
    return pkg


class Side:
    """One tree: its package, the data of its find_minimal operations and
    the latencies of each operation."""

    def __init__(self, pkg, ops, catalog_call):
        self.pkg = pkg
        self.data = {}
        for op in ops:
            if op.kind == "minimal" and op.datum not in self.data:
                key, params = catalog_call(op.datum)
                self.data[op.datum] = pkg.datum.catalog(key, **params)
                pkg.alcove.fundamental_alcove(self.data[op.datum])
        self.latency = {op: [] for op in ops}

    def run(self, op):
        """Run op from a cold cot_eval cache; its output as a comparable value."""
        self.pkg.exact.cot_eval.cache_clear()
        if op.kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                rc = self.pkg.cli.main(list(op.args), stdout=out)
                self.latency[op].append(time.perf_counter() - t0)
            return rc, out.getvalue(), err.getvalue()
        key, tol = op.args
        d = self.data[key]
        t0 = time.perf_counter()
        m = self.pkg.geometry.find_minimal(d, Fraction(tol))
        self.latency[op].append(time.perf_counter() - t0)
        return (m.point.coeffs, m.norm.lo, m.norm.hi, m.norm.precision_bits, m.iterations,
                m.precision_bits)

    def ops_per_s(self) -> float:
        return len(self.latency) / sum(statistics.median(v) for v in self.latency.values())

    def repeat_ops_per_s(self) -> list:
        return [len(self.latency) / sum(t) for t in zip(*self.latency.values())]


def side_line(name: str, src: str, side: Side) -> str:
    """The side's ops/s, the quartiles of its per-repeat ops/s and those values."""
    per = side.repeat_ops_per_s()
    q1, q3 = statistics.quantiles(per, n=4)[::2] if len(per) > 1 else per * 2
    return (f"{name} {src}: {side.ops_per_s():.2f} ops/s  quartiles {q1:.2f} {q3:.2f}  "
            f"repeats {' '.join(f'{v:.2f}' for v in per)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a_src", help="directory that holds tree A's hermann package")
    p.add_argument("b_src", help="directory that holds tree B's hermann package")
    p.add_argument("--workload", default="face-tables")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--limit", type=int, default=None, help="run only the first K operations")
    args = p.parse_args(argv)
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    workloads = importlib.import_module("workloads")
    ops = workloads.stream(args.workload, args.seed).ops[:args.limit]
    a = Side(load_tree(args.a_src, "hermann_a"), ops, workloads.catalog_call)
    b = Side(load_tree(args.b_src, "hermann_b"), ops, workloads.catalog_call)
    differ = set()
    for rep in range(args.repeats):
        first, second = (a, b) if rep % 2 == 0 else (b, a)
        for op in ops:
            x, y = first.run(op), second.run(op)
            if x != y:
                differ.add(op.key)
    for key in sorted(differ):
        print(f"DIFFERS {key}")
    print(f"workload {args.workload}  seed {args.seed}  ops {len(ops)}  repeats {args.repeats}")
    won = sum(y > x for x, y in zip(a.repeat_ops_per_s(), b.repeat_ops_per_s()))
    print(side_line("A", args.a_src, a))
    print(f"{side_line('B', args.b_src, b)}  won {won} of {args.repeats}")
    print(f"B/A {b.ops_per_s() / a.ops_per_s():.4f}  differing outputs {len(differ)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
