"""Paired fresh-process timing of the hermann CLI on two source trees.

    python tools/cold_cli.py A_SRC B_SRC [--repeats R] [--bytecode]

Copies the `hermann` package of each tree (A_SRC/hermann, B_SRC/hermann)
into a temporary directory, then runs every command of COMMANDS as a fresh
`python -m hermann ...` process with PYTHONPATH set to that copy, one
process at a time.  Each repeat runs every command on both trees back to
back, and the tree that goes first flips from one repeat to the next, so a
swing in the host's speed falls on both sides alike.  A process's time is
its wall time from start to exit, interpreter start-up and imports
included.

By default every process compiles the package anew, as a fresh checkout
does: the copies hold no `__pycache__` and PYTHONDONTWRITEBYTECODE=1 keeps
them so (the standard library and mpmath read their own caches as usual).
With `--bytecode` the copies keep a bytecode cache, written by one untimed
run per tree before the first repeat.

The output has one line per command: each side's median wall time in
milliseconds, the ratio B/A of the medians and the number of repeats in
which B was faster.  The last two lines give the sums of the medians and
their ratio, and the number of commands whose exit code, stdout or stderr
differs between the trees.  Exits 1 when any output differs, else 0.
This script imports nothing from hermann.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

COMMANDS = (
    ("analyze", "--triad", "so8_g2", "--point=1/12,1/24"),
    ("faces", "--triad", "su_sp", "--p", "9", "--q", "7"),
    ("scan-austere", "--triad", "so8_g2", "--denominator", "24"),
    ("find-minimal", "--triad", "isotropy:C3"),
    ("reduce", "--triad", "so_even", "--p", "7", "--q", "5", "--point=5/3,7/4"),
    ("catalog", "show", "--triad", "su_sp", "--p", "7", "--q", "5"),
)


def copy_package(src: str, into: str) -> str:
    """A copy of src/hermann, without bytecode, under into; the directory to
    put on PYTHONPATH."""
    shutil.copytree(os.path.join(os.path.abspath(src), "hermann"),
                    os.path.join(into, "hermann"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return into


def run(path: str, argv, bytecode: bool):
    """One fresh process of `python -m hermann argv` on path: its wall time
    in seconds, and its exit code, stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hermann", *argv], env=env,
                          capture_output=True, check=False)
    return time.perf_counter() - t0, (proc.returncode, proc.stdout, proc.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a_src", help="directory that holds tree A's hermann package")
    p.add_argument("b_src", help="directory that holds tree B's hermann package")
    p.add_argument("--repeats", type=int, default=9)
    p.add_argument("--bytecode", action="store_true",
                   help="let each tree's copy keep a bytecode cache")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cold_cli_") as tmp:
        paths = [copy_package(src, os.path.join(tmp, side))
                 for src, side in ((args.a_src, "a"), (args.b_src, "b"))]
        if args.bytecode:  # one untimed run per tree writes its cache
            for path in paths:
                run(path, COMMANDS[0], True)
        times = [{cmd: [] for cmd in COMMANDS} for _ in paths]
        differ = set()
        for rep in range(args.repeats):
            order = (0, 1) if rep % 2 == 0 else (1, 0)
            for cmd in COMMANDS:
                outputs = [None, None]
                for side in order:
                    t, outputs[side] = run(paths[side], cmd, args.bytecode)
                    times[side][cmd].append(t)
                if outputs[0] != outputs[1]:
                    differ.add(cmd)
    print(f"repeats {args.repeats}  bytecode {'kept' if args.bytecode else 'none'}")
    sums = [0.0, 0.0]
    for cmd in COMMANDS:
        a, b = (statistics.median(side[cmd]) for side in times)
        sums[0], sums[1] = sums[0] + a, sums[1] + b
        won = sum(y < x for x, y in zip(times[0][cmd], times[1][cmd]))
        print(f"{' '.join(cmd)}: A {1000 * a:.1f} ms  B {1000 * b:.1f} ms  B/A {b / a:.4f}  "
              f"B faster in {won} of {args.repeats}")
    print(f"sum of medians: A {1000 * sums[0]:.1f} ms  B {1000 * sums[1]:.1f} ms  "
          f"B/A {sums[1] / sums[0]:.4f}")
    for cmd in sorted(differ):
        print(f"DIFFERS {' '.join(cmd)}")
    print(f"differing outputs {len(differ)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
