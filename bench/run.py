"""Benchmark of the hermann library, driven from outside the program.

    python3 bench/run.py --workload point-queries --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run repeats the workload's pass of operations for
``--seconds`` and measures the end-to-end metrics, each time scaled to a
reference host speed (see ``calibrate.py``).  With ``--trace 1`` it
runs one pass, each operation untraced and again with spans recorded, and
reports the per-layer metrics.  Every
operation's output is checked.  The last line of stdout is one JSON
object; the exit code is 0 only when every operation passed its checks.
See README.md in this directory for the workloads and metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import calibrate  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# Set-up repeats: a fresh interpreter's import is short and noisy, the
# preparation of minimal-search takes over a second.
IMPORT_REPEATS = 7
PREPARE_REPEATS = 3
RESULTS_DIR = os.path.join(harness.HERE, "results")
WARM_UP = workloads.Op("cli", "so8_g2", ("analyze", "--triad", "so8_g2",
                                        "--point", "1/12,1/24"))
LAYERS = ("cli", "datum", "roots", "alcove", "exact", "geometry")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(mpmath):
    import mpmath.libmp
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def calibrated(fn, *args):
    """(wall seconds, seconds at the reference speed) of ``fn(*args)``."""
    before = calibrate.unit_seconds()
    t0 = time.perf_counter()
    fn(*args)
    wall = time.perf_counter() - t0
    return wall, calibrate.normalized(wall, before, calibrate.unit_seconds())


def median_calibrated(repeats, fn, *args):
    """Medians of the wall and the reference-speed seconds of ``repeats``
    calls of ``fn(*args)``."""
    walls, normed = zip(*(calibrated(fn, *args) for _ in range(repeats)))
    return statistics.median(walls), statistics.median(normed)


def import_hermann_fresh():
    """Start a fresh interpreter that imports hermann, and wait for it."""
    code = f"import sys; sys.path.insert(0, {os.path.join(harness.ROOT, 'src')!r}); import hermann"
    subprocess.run([sys.executable, "-c", code], check=True)


def prepare(runner, workload):
    """Work done before the first timed operation: a warm-up command, and
    for minimal-search the data and their alcoves."""
    warm = runner.execute(WARM_UP)
    if warm.failures:
        raise RuntimeError(f"warm-up failed: {warm.failures}")
    if workload == "minimal-search":
        runner.build_data(workloads.MINIMAL_DATA)


def percentile_rank(n, level):
    """0-based index of the nearest-rank percentile in n sorted values."""
    return max(0, math.ceil(n * Fraction(level) / 100) - 1)


def run_ops(runner, ops, log, tracer=None):
    outcomes = []
    for op in ops:
        try:
            o = runner.execute(op, tracer)
        except Exception as exc:  # a crash counts as a failed operation
            o = harness.Outcome(0.0, "", 0, [f"raised {exc!r}"])
        outcomes.append(o)
        log.append((op, o))
    return outcomes


def schedule(stream, seconds, t0):
    """Operations of pass after pass: all of the first ``MIN_PASSES``, then
    one at a time until ``seconds`` have passed since ``t0``."""
    index = 0
    while True:
        for op in stream.order(index):
            if index >= workloads.MIN_PASSES and time.perf_counter() - t0 >= seconds:
                return
            yield op
        index += 1


def pass_metrics(stream, latency, points):
    """ops/s, points/s, median and tail latency of one pass, each
    operation taking ``latency[op]`` seconds."""
    lat = sorted(latency.values())
    busy = sum(lat)
    n = len(lat)
    return (n / busy, sum(points.values()) / busy,
            lat[percentile_rank(n, 50)], lat[stream.tail_index])


def end_to_end(args, stream, runner, setup_s, log):
    """Repeats the pass for ``args.seconds``.  Each latency sample is scaled
    to the reference host speed by the calibration units timed before and
    after it.  An operation's latency is the median of its scaled repeats,
    which spread over the whole run; the metrics are taken over one pass of
    these medians."""
    raw = {op: [] for op in stream.ops}
    scaled = {op: [] for op in stream.ops}
    points = {}
    outcomes = []
    t0 = time.perf_counter()
    before = calibrate.unit_seconds()
    for op in schedule(stream, args.seconds, t0):
        o = run_ops(runner, [op], log)[0]
        after = calibrate.unit_seconds()
        outcomes.append(o)
        raw[op].append(o.latency_s)
        scaled[op].append(calibrate.normalized(o.latency_s, before, after))
        points[op] = o.points
        before = after
    wall = time.perf_counter() - t0

    per_op = {op: statistics.median(v) for op, v in scaled.items()}
    ops_s, points_s, p50, tail = pass_metrics(stream, per_op, points)
    raw_ops_s, _, raw_p50, raw_tail = pass_metrics(
        stream, {op: statistics.median(v) for op, v in raw.items()}, points)
    n = len(stream.ops)
    beyond = sorted(stream.ops, key=per_op.get)[stream.tail_index + 1:]
    summary = {
        "passes": min(len(v) for v in raw.values()),
        "samples": len(outcomes),
        "wall_s": wall,
        "operations_per_pass": n,
        "tail_level": 100 * (stream.tail_index + 1) / n,
        "tail_ops_beyond": n - 1 - stream.tail_index,
        "tail_samples_beyond": sum(len(raw[op]) for op in beyond),
        "unscaled_ops_per_s": raw_ops_s,
        "unscaled_latency_p50_ms": raw_p50 * 1e3,
        "unscaled_latency_tail_ms": raw_tail * 1e3,
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_s, "1/s"),
        "points_per_s": (points_s, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return outcomes, metrics, summary


def per_layer(args, stream, runner, log, tracer):
    """One pass.  Each operation runs once to warm up, then untraced and
    traced, the order of the two alternating so that neither side is
    favoured; the first run of an operation is slower than the next."""
    ops = stream.order(0)
    if args.workload == "minimal-search":
        with tracer:
            tracer.run("setup", runner.build_data, workloads.MINIMAL_DATA)
    warm, plain, traced = [], [], []
    for i, op in enumerate(ops):
        warm += run_ops(runner, [op], log)
        for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if use_tracer:
                with tracer:
                    traced += run_ops(runner, [op], log, tracer)
            else:
                plain += run_ops(runner, [op], log)
    for a, b in zip(plain, traced):
        if a.stdout != b.stdout:
            b.failures.append("stdout differs between the untraced and traced pass")
    selfs, calls = tracer.self_times()
    c = tracer.counts
    plain_s = sum(o.latency_s for o in plain)
    traced_s = sum(o.latency_s for o in traced)
    verdicts = sum(o.verdicts for o in traced)
    lines = harness.src_lines()

    def self_s(name):
        return (selfs.get(name, 0.0), "s")

    def count(name):
        return (calls.get(name, 0), "count")

    cot_total = c["cot_hits"] + c["cot_misses"]
    m = {
        "datum.catalog_s": self_s("datum.catalog"),
        "datum.catalog_calls": count("datum.catalog"),
        "roots.verify_axioms_s": self_s("roots.verify_axioms"),
        "roots.verify_axioms_calls": count("roots.verify_axioms"),
        "alcove.build_s": self_s("alcove.build"),
        "alcove.builds": count("alcove.build"),
        "roots.weyl_group_s": self_s("roots.weyl_group"),
        "roots.weyl_group_calls": count("roots.weyl_group"),
        "roots.weyl_elements": (c["weyl_elements"], "count"),
        "geometry.symmetry_flags_s": self_s("geometry.symmetry_flags"),
        "roots.decompose_and_classify_s": self_s("roots.decompose_and_classify"),
        "alcove.point_in_alcove_s": self_s("alcove.point_in_alcove"),
        "alcove.point_in_alcove_calls": count("alcove.point_in_alcove"),
        "geometry.is_austere_s": self_s("geometry.is_austere"),
        "geometry.is_austere_calls": count("geometry.is_austere"),
        "geometry.scan_austere_s": self_s("geometry.scan_austere"),
        "geometry.scan_inside_share": (c["scan_inside"] / c["scan_tested"]
                                       if c["scan_tested"] else 0.0, "share"),
        "exact.cot_eval_s": self_s("exact.cot_eval"),
        "exact.cot_eval_calls": count("exact.cot_eval"),
        "exact.cot_eval_hit_ratio": (c["cot_hits"] / cot_total if cot_total else 0.0,
                                     "share"),
        "exact.cot_eval_high_bits_calls": (c["cot_eval_high_bits_calls"], "count"),
        "exact.cot_eval_max_bits": (c["cot_eval_max_bits"], "bits"),
        "geometry.find_minimal_s": self_s("geometry.find_minimal"),
        "geometry.find_minimal_iterations": (c["find_minimal_iterations"], "count"),
        "geometry.find_minimal_max_bits": (c["find_minimal_max_bits"], "bits"),
        "geometry.mean_curvature_s": self_s("geometry.mean_curvature"),
        "geometry.orbit_report_s": self_s("geometry.orbit_report"),
        "geometry.orbit_report_calls": count("geometry.orbit_report"),
        "alcove.faces_s": self_s("alcove.faces"),
        "alcove.active_roots_s": self_s("alcove.active_roots"),
        "alcove.reduce_to_alcove_s": self_s("alcove.reduce_to_alcove"),
        "exact.format_interval_s": self_s("exact.format_interval"),
        "geometry.indet_share": (sum(o.indet for o in traced) / verdicts
                                 if verdicts else 0.0, "share"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum((v for k, v in selfs.items()
                                     if k.split(".")[0] == layer), 0.0), "s")
    for mod, n in lines.items():
        m[f"{mod}.src_lines"] = (n, "lines")
    m["src_lines_total"] = (sum(lines.values()), "lines")
    m["trace.overhead_s"] = (traced_s - plain_s, "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    summary = {"untraced_s": plain_s, "traced_s": traced_s, "ops": len(ops)}
    return warm + plain + traced, m, summary


def write_results(args, env, metrics, summary, log, tracer):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".commands.txt", "w", encoding="utf-8") as fh:
        for op, _ in log:
            fh.write(op.key + "\n")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "summary": summary,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "operations": [{"op": op.key, "latency_s": o.latency_s, "points": o.points,
                        "failures": o.failures} for op, o in log],
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    return stem


def main(argv=None):
    args = parse_args(argv)
    try:
        hermann = harness.import_hermann()
    except (harness.MissingProgram, ImportError) as exc:
        print(f"error: cannot benchmark: {exc}", file=sys.stderr)
        return 2
    import mpmath
    env = environment(mpmath)
    env["import_in_process_s"] = time.perf_counter() - T_START
    stream = workloads.stream(args.workload, args.seed)
    runner = harness.Runner(hermann, harness.load_expected())

    log = []
    tracer = None
    if args.trace:
        prepare(runner, args.workload)
        tracer = Tracer()
        outcomes, metrics, summary = per_layer(args, stream, runner, log, tracer)
    else:
        import_wall, import_scaled = median_calibrated(IMPORT_REPEATS, import_hermann_fresh)
        prepare_wall, prepare_scaled = median_calibrated(PREPARE_REPEATS, prepare,
                                                         runner, args.workload)
        outcomes, metrics, summary = end_to_end(
            args, stream, runner, import_scaled + prepare_scaled, log)
        summary["setup_import_s"] = import_scaled
        summary["setup_prepare_s"] = prepare_scaled
        summary["unscaled_setup_s"] = import_wall + prepare_wall
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.failures)
    stem = write_results(args, env, metrics, summary, log, tracer)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("summary: " + "  ".join(f"{k}={v}" for k, v in summary.items()))
    for op, o in log:
        for f in o.failures:
            print(f"FAILED {op.key}: {f}")
    print(f"failed_share: {failed / attempted} ({failed} of {attempted})")
    for k, (v, u) in metrics.items():
        print(f"{k}: {v} {u}")
    print(f"results: {os.path.relpath(stem, harness.ROOT)}.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
