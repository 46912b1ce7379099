"""One digest of what a fixed set of CLI commands prints, to compare two trees.

    python tools/stdout_digest.py [--quick] [--src DIR]

Runs each command in process through `hermann.cli.main`, with the package
imported from DIR (default: this tree's `src`), in a temporary working
directory that also holds the rejected datum files of REJECTED, and prints
one line:

    <sha256> <lines> lines <commands> commands

The sha256 covers, per command, its argv, stdout, stderr and exit code, and
for `diagram` the bytes of the SVG it writes (to a relative `--out`, so no
path reaches stdout); the line count is that of stdout and stderr together.
Two trees that print the same line print identical bytes for every command
and picture, every datum document and every rejection's exit code and
message.  `--quick` runs a three-command subset.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ISOTROPY = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "BC1", "BC2", "BC3", "BC4",
            "C3", "C4", "D4", "D5", "G2")
# scan denominators by rank, so every scan takes well under a second
SCAN_DEN = {1: 120, 2: 60, 3: 24, 4: 12, 5: 8}
# per datum: points to reduce, and the points they reduce to, to analyze
POINTS = (
    (["--triad", "so8_g2"], ("1/7,1/11", "3/5,-2/7", "200,3"),
     ("23/231,1/11", "2/105,8/35", "0,0")),
    (["--triad", "isotropy:BC2"], ("3/5,-2/7", "5/3,7/4", "200,3"),
     ("1/35,2/7", "1/6,1/4", "0,0")),
    (["--triad", "so_even", "--p", "7", "--q", "5"], ("3/5,-2/7", "5/3,7/4", "200,3"),
     ("1/35,13/70", "1/6,1/12", "0,0")),
)
def _doc(rank, gram, sectors, order=1):
    """A datum document; sectors holds (phase, [(root, multiplicity), ...])."""
    return {"name": "rejected", "rank": rank, "gram": gram, "order": order,
            "sectors": [{"phi": phi, "roots": [{"v": v, "m": m} for v, m in roots]}
                        for phi, roots in sectors]}


A2 = [[1, 0], [0, 1], [1, 1]]
# B2 (long a1, short a2) + A2 with a1 alone at phase 1/4: s_a2 sends
# (a1, 1/4) to (a1 + 2 a2, 1/4), which carries nothing
B2A2 = [[0, 1, 0, 0], [1, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1]]
# datum files that validation rejects, one per kind of violation that a
# file can reach (coverage and support cannot: parsing builds the roots of
# sigma from the sectors'), each analyzed at the origin
REJECTED = {
    "affine": _doc(4, [[2, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]],
                   [("1/4", [([1, 0, 0, 0], 1)]), ("0", [(v, 1) for v in B2A2])], order=4),
    "duality": _doc(2, [[2, -1], [-1, 2]], [("0", [(v, 1) for v in A2] + [([-1, 0], 2)])]),
    "phase": _doc(2, [[2, -1], [-1, 2]], [("3/4", [(v, 1) for v in A2])]),
    "order": _doc(1, [[2]], [("1/3", [([1], 1)])], order=2),
    "axioms-root": _doc(2, [[2, -1], [-1, 2]], [("0", [(v, 1) for v in A2[:2]])]),
    "axioms-whole": _doc(2, [[2, -1], [-1, 3]], [("0", [(v, 1) for v in A2])]),
    "gram": _doc(2, [[2, -3], [-3, 2]], [("0", [(v, 1) for v in A2])]),
    "gram-symmetry": _doc(2, [[2, -1], ["-1/2", 2]], [("0", [(v, 1) for v in A2])]),
}
# rank-1 and rank-2 data to draw, each at two widths
DIAGRAMS = (["--triad", "so8_g2"], ["--triad", "isotropy:BC1"], ["--triad", "isotropy:A1"],
            ["--triad", "isotropy:B2"], ["--triad", "isotropy:G2"],
            ["--triad", "su_sp", "--p", "5", "--q", "3"])


def commands():
    """The full command set: whole face tables and scans over the catalog,
    point queries inside and far outside the alcove, the rank-8 origin, every
    face of a rank-9 datum, six minimal-orbit searches (two of them climb
    the precision ladder), two cotangents next to pi/2, the rank-1 and rank-2
    pictures, the document of every datum these use and an analysis of each
    rejected datum file."""
    data = [(["--triad", "so8_g2"], 2)]
    data += [(["--triad", f"isotropy:{lab}"], int(lab.lstrip("ABCDG"))) for lab in ISOTROPY]
    data += [(["--triad", key, "--p", str(q + 2), "--q", str(q)], (q - 1) // 2)
             for key in ("so_even", "su_sp") for q in (3, 5, 7, 9, 11)]
    out = []
    for triad, rank in data:
        out += [["faces", *triad, "--all-faces"],
                ["faces", *triad, "--all-faces", "--format", "tsv"],
                ["scan-austere", *triad, "--denominator", str(SCAN_DEN[rank])]]
    for triad, outside, inside in POINTS:
        out += [["reduce", *triad, f"--point={x}"] for x in outside]
        for x in inside:
            out += [["analyze", *triad, f"--point={x}"],
                    ["analyze", *triad, f"--point={x}", "--xi=1,2"]]
    out += [["reduce", "--triad", "so8_g2", "--point=2000,3"],
            ["analyze", "--triad", "su_sp", "--p", "19", "--q", "17",
             "--point=0,0,0,0,0,0,0,0"],
            ["faces", "--triad", "su_sp", "--p", "17", "--q", "15"],
            ["faces", "--triad", "su_sp", "--p", "21", "--q", "19", "--all-faces"],
            ["find-minimal", "--triad", "isotropy:BC2"],
            ["find-minimal", "--triad", "so8_g2"],
            # each climbs a rung, through a failing line search, with the
            # Newton step's LU at up to 1000 bits: 296 -> 592 and 495 -> 990
            ["find-minimal", "--triad", "isotropy:D4", "--tolerance=1e-60"],
            ["find-minimal", "--triad", "su_sp", "--p", "7", "--q", "5", "--tolerance=1e-120"],
            # rank 4: multiplicities 2 (so_even) and 4 (su_sp), root
            # coefficients 2 and phase-0 terms, certified at the first rung
            ["find-minimal", "--triad", "so_even", "--p", "11", "--q", "9", "--tolerance=1e-60"],
            ["find-minimal", "--triad", "su_sp", "--p", "11", "--q", "9", "--tolerance=1e-60"]]
    # angles within 2^-k of 1/2 with numerators longer than the working
    # precision: at k = 300 the ends of theta straddle pi/2, so cot_eval reads
    # their quadrants through mpmath, and the norm prints as a <= bound
    out += [["analyze", "--triad", "isotropy:A1", "--xi=1", f"--point={2 ** k + 1}/{2 ** (k + 1)}"]
            for k in (300, 200)]
    out += [["diagram", *triad, "--out", "picture.svg", "--width", str(w)]
            for triad in DIAGRAMS for w in (480, 600)]
    shown = []
    for argv in out:
        i = argv.index("--triad")
        triad = argv[i:i + 2] + (argv[argv.index("--p"):argv.index("--p") + 4]
                                 if "--p" in argv else [])
        if triad not in shown:
            shown.append(triad)
    out += [["catalog", "show", *triad] for triad in shown]
    out += [["analyze", "--triad", f"@{name}.json", "--point=" + ",".join("0" * doc["rank"])]
            for name, doc in REJECTED.items()]
    return out


QUICK = (["faces", "--triad", "so8_g2", "--all-faces", "--format", "tsv"],
         ["analyze", "--triad", "isotropy:BC2", "--point=1/9,1/13", "--xi=1,2"],
         ["find-minimal", "--triad", "isotropy:BC2"])


def digest(argvs, main):
    h = hashlib.sha256()
    lines = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, doc in REJECTED.items():
                Path(f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(err):
                    try:
                        code = main(argv, stdout=out)
                    except SystemExit as exc:  # argparse rejects the command line
                        code = exc.code
                for part in (" ".join(argv), out.getvalue(), err.getvalue(), str(code)):
                    h.update(part.encode())
                    h.update(b"\0")
                if argv[0] == "diagram":
                    picture = Path(argv[argv.index("--out") + 1])
                    h.update(picture.read_bytes() if picture.exists() else b"(none)")
                    h.update(b"\0")
                    picture.unlink(missing_ok=True)
                lines += out.getvalue().count("\n") + err.getvalue().count("\n")
        finally:  # contextlib.chdir needs Python 3.11
            os.chdir(cwd)
    return h.hexdigest(), lines


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="run the three-command subset")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory that holds the hermann package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from hermann.cli import main

    argvs = QUICK if args.quick else commands()
    sha, lines = digest(argvs, main)
    print(f"{sha} {lines} lines {len(argvs)} commands")


if __name__ == "__main__":
    run()
