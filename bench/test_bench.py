"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Each test runs a few cheap operations, so the file takes about ten seconds.
"""

import argparse
import ast
import dataclasses
import importlib

import pytest

import calibrate
import harness
import run
import workloads
from spans import TARGETS, Tracer

HERMANN = harness.import_hermann()
EXPECTED = harness.load_expected()
CHEAP = {"so8_g2", "isotropy:BC2", "so_even:7,5", "su_sp:7,5"}


def tiny(workload, seed=workloads.DEFAULT_SEED, per_kind=1):
    """The workload's stream cut down to rank-2 operations, one per
    distinct verb form."""
    full = workloads.stream(workload, seed)
    picked, seen = [], {}
    for op in full.ops:
        form = (op.args[0], any(a.startswith("--xi") for a in op.args)) \
            if op.kind == "cli" else op.args[1]
        if op.datum in CHEAP and seen.get(form, 0) < per_kind:
            seen[form] = seen.get(form, 0) + 1
            picked.append(op)
    return workloads.Stream(workload, seed, tuple(picked))


def runner_for(workload):
    r = harness.Runner(HERMANN, EXPECTED)
    if workload == "minimal-search":
        r.build_data(sorted(CHEAP & set(workloads.MINIMAL_DATA)))
    return r


def args_for(workload, trace):
    return argparse.Namespace(workload=workload, seed=workloads.DEFAULT_SEED,
                              seconds=0.0, trace=trace)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    a = workloads.stream(workload, 5)
    b = workloads.stream(workload, 5)
    c = workloads.stream(workload, 6)
    assert [op.key for i in range(3) for op in a.order(i)] == \
        [op.key for i in range(3) for op in b.order(i)]
    assert [op.key for i in range(3) for op in a.order(i)] != \
        [op.key for i in range(3) for op in c.order(i)]
    # every pass holds each operation once
    assert all(sorted(a.order(i), key=a.ops.index) == list(a.ops) for i in range(3))
    assert len(set(a.ops)) == len(a.ops)
    # the multiset of (datum, verb) pairs does not depend on the seed
    assert sorted((op.datum, op.args[0]) for op in a.ops) == \
        sorted((op.datum, op.args[0]) for op in c.ops)


def test_default_seed_outputs_are_stored():
    for w in workloads.WORKLOADS:
        s = workloads.stream(w, workloads.DEFAULT_SEED)
        assert all(op.key in EXPECTED for op in s.ops)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_has_no_failures(workload):
    stream = tiny(workload)
    log = []
    outcomes, metrics, summary = run.end_to_end(
        args_for(workload, 0), stream, runner_for(workload), 0.5, log)
    assert outcomes and all(o.failures == [] for o in outcomes)
    assert summary["passes"] == workloads.MIN_PASSES
    assert len(outcomes) == workloads.MIN_PASSES * len(stream.ops)
    assert set(metrics) == {"setup_s", "ops_per_s", "points_per_s", "latency_p50_ms",
                            "latency_tail_ms", "peak_rss_mb"}
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_stdout(workload):
    stream = tiny(workload)
    log = []
    outcomes, metrics, _ = run.per_layer(args_for(workload, 1), stream,
                                         runner_for(workload), log, Tracer())
    # per_layer flags any operation whose stdout differs between passes
    assert all(o.failures == [] for o in outcomes)
    assert len(outcomes) == 3 * len(stream.ops)
    assert metrics["trace.spans"][0] > 0


def test_tracer_restores_every_name():
    before = {m: dict(vars(importlib.import_module(m))) for m in
              ("hermann", "hermann.cli", "hermann.geometry", "hermann.alcove")}
    with Tracer():
        assert HERMANN.geometry.cot_eval is not before["hermann.geometry"]["cot_eval"]
    for m, names in before.items():
        now = vars(importlib.import_module(m))
        assert all(now[k] is v for k, v in names.items() if callable(v))
    assert len(TARGETS) == len(set(TARGETS))


def test_spans_give_self_time_and_counts():
    t = Tracer()
    runner = harness.Runner(HERMANN)
    op = workloads.Op("cli", "so8_g2", ("faces", "--triad", "so8_g2"))
    with t:
        runner.execute(op, t)
    selfs, calls = t.self_times()
    assert calls["cli.main"] == 1 and calls["alcove.build"] == 1
    assert calls["roots.weyl_group"] == calls["geometry.orbit_report"] == 3
    total = t.spans[0][2] - t.spans[0][1]
    assert sum(selfs.values()) == pytest.approx(total)
    assert t.counts["weyl_elements"] == 12 + 6 + 4  # vertices of types G2, A2, A1+A1


def test_corrupted_expected_output_is_caught():
    op = tiny("face-tables").ops[0]
    assert op.key in EXPECTED
    runner = harness.Runner(HERMANN, {op.key: EXPECTED[op.key].replace("yes", "no", 1)})
    assert runner.execute(op).failures == ["stdout differs from the stored expected output"]


def test_broken_invariant_is_caught():
    runner = harness.Runner(HERMANN)
    op = workloads.Op("cli", "so8_g2", ("faces", "--triad", "so8_g2", "--format", "tsv"))
    good = runner.execute(op)
    assert good.failures == [] and good.points == 3
    lines = good.stdout.splitlines()
    cells = lines[1].split("\t")
    assert cells[1] == "G2" and cells[5] == "yes"
    cells[4] = "no"  # arid* no next to WR* yes
    lines[1] = "\t".join(cells)
    bad = dataclasses.replace(good, stdout="\n".join(lines) + "\n", failures=[])
    runner.check(op, bad)
    assert bad.failures == ["WR* without arid*"]


def test_failed_command_counts_as_failure():
    runner = harness.Runner(HERMANN)
    op = workloads.Op("cli", "so8_g2", ("analyze", "--triad", "so8_g2", "--point=9,9"))
    assert runner.execute(op).failures[0].startswith("exit code 1")


def test_tail_percentile_leaves_ten_samples_beyond():
    for w in workloads.WORKLOADS:
        s = workloads.stream(w, workloads.DEFAULT_SEED)
        n = len(s.ops)
        assert (n - 1 - s.tail_index) * workloads.MIN_PASSES >= workloads.TAIL_SAMPLES
        assert s.tail_index > run.percentile_rank(n, 50)


def test_scaling_follows_the_calibration_unit():
    ref = calibrate.REFERENCE_S
    assert calibrate.normalized(2.0, ref, ref) == pytest.approx(2.0)
    assert calibrate.normalized(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert calibrate.normalized(2.0, ref, 3 * ref) == pytest.approx(1.0)
    assert calibrate.unit_seconds() > 0


def test_calibration_unit_does_not_use_the_program():
    with open(calibrate.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    names |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert names == {"gc", "time", "fractions"}
