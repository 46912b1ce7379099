import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from hermann.alcove import NonTermination
from hermann.cli import main
from hermann.datum import catalog, serialize_datum
from hermann.diagram import MARGIN
from hermann.exact import PrecisionExhausted


def _run(argv):
    buf = io.StringIO()
    code = main(argv, stdout=buf)
    return code, buf.getvalue()


def test_catalog_list_mentions_every_key():
    code, out = _run(["catalog", "list"])
    assert code == 0
    for key in ("so_even", "su_sp", "so8_g2", "isotropy"):
        assert key in out


def _roots(*pairs):
    return [{"v": [v], "m": m} for v, m in pairs]


# At q = 3 the system is BC1: its roots have squared lengths 1 and 4 only, so
# the length-2 entries of the family tables carry nothing.  The expected
# documents are the bytes `catalog show` printed before the builders shared
# one constructor.
@pytest.mark.parametrize("key,sectors", [
    ("so_even", [{"phi": "-1/4", "roots": _roots((-1, 2), (1, 2))},
                 {"phi": "0", "roots": _roots((-2, 1), (-1, 2), (1, 2), (2, 1))},
                 {"phi": "1/4", "roots": _roots((-1, 2), (1, 2))},
                 {"phi": "1/2", "roots": _roots((-1, 2), (1, 2))}]),
    ("su_sp", [{"phi": "-1/4", "roots": _roots((-1, 4), (1, 4))},
               {"phi": "0", "roots": _roots((-2, 3), (-1, 4), (1, 4), (2, 3))},
               {"phi": "1/4", "roots": _roots((-1, 4), (1, 4))},
               {"phi": "1/2", "roots": _roots((-2, 1), (-1, 4), (1, 4), (2, 1))}]),
])
def test_catalog_show_rank_one_families(key, sectors):
    code, out = _run(["catalog", "show", "--triad", key, "--p", "5", "--q", "3"])
    assert code == 0
    doc = {"name": f"{key}(p=5,q=3)", "rank": 1, "gram": [["1"]], "order": 4,
           "zero_mult": 0, "sectors": sectors}
    assert out == json.dumps(doc, indent=2) + "\n"


def test_catalog_show_round_trips(tmp_path):
    code, out = _run(["catalog", "show", "--triad", "so8_g2"])
    assert code == 0
    path = tmp_path / "datum.json"
    path.write_text(out, encoding="utf-8")
    code2, out2 = _run(["faces", "--triad", f"@{path}", "--format", "tsv"])
    code3, out3 = _run(["faces", "--triad", "so8_g2", "--format", "tsv"])
    assert code2 == code3 == 0
    assert out2 == out3


def test_runs_are_byte_identical():
    for argv in (
        ["faces", "--triad", "so_even", "--p", "9", "--q", "7", "--format", "tsv"],
        ["scan-austere", "--triad", "so8_g2", "--denominator", "36"],
        ["analyze", "--triad", "so8_g2", "--point", "0,1/3"],
        ["find-minimal", "--triad", "isotropy:BC1"],
        ["reduce", "--triad", "so8_g2", "--point", "7/6,-1/3"],
    ):
        first = _run(argv)
        second = _run(argv)
        assert first == second, argv


def _src_env():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _fresh_process(argv):
    proc = subprocess.run([sys.executable, "-m", "hermann", *argv], capture_output=True,
                          env=_src_env(), timeout=120)
    return proc.returncode, proc.stdout.decode("ascii")


def test_consecutive_calls_print_what_a_fresh_process_prints():
    # one parser serves every call, so no option may carry over to the next
    g2 = ["--triad", "so8_g2"]
    runs = [["analyze", *g2, "--point=1/12,1/24", "--xi", "1,0"],
            ["analyze", *g2, "--point=1/12,1/24"],
            ["faces", *g2, "--all-faces", "--format", "tsv"],
            ["faces", *g2],
            ["analyze", *g2, "--point=0,1/3", "--format", "tsv", "--xi", "0"],
            ["analyze", *g2, "--point=0,1/3"],
            ["faces", *g2, "--format", "tsv"],
            ["faces", *g2, "--all-faces"]]
    got = [_run(argv) for argv in runs]
    assert got == [_fresh_process(argv) for argv in runs]
    assert len({out for _, out in got}) == len(runs)


def test_faces_tsv_golden_g2():
    code, out = _run(["faces", "--triad", "so8_g2", "--format", "tsv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "point\ttype\tTG\taustere\tarid*\tWR*\tnorm"
    rows = [line.split("\t") for line in lines[1:]]
    assert [r[:6] for r in rows] == [
        ["(0, 0)", "G2", "no", "yes", "yes", "yes"],
        ["(0, 1/3)", "A2", "no", "no", "yes", "no"],
        ["(1/6, 0)", "A1+A1", "no", "yes", "yes", "yes"],
    ]


def test_faces_tsv_golden_so_even():
    code, out = _run(["faces", "--triad", "so_even", "--p", "9", "--q", "7",
                      "--format", "tsv"])
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert [(r[0], r[1], r[5]) for r in rows] == [
        ("(0, 0, 0)", "BC3", "yes"),
        ("(0, 0, 1/4)", "B3", "yes"),
        ("(0, 1/4, 0)", "B2+BC1", "yes"),
        ("(1/4, 0, 0)", "B1+BC2", "yes"),
    ]


def test_all_faces_row_count_matches_face_lattice():
    code, out = _run(["faces", "--triad", "so8_g2", "--all-faces",
                      "--format", "tsv"])
    assert code == 0
    assert len(out.splitlines()) == 1 + 7


def test_analyze_plain_fields():
    code, out = _run(["analyze", "--triad", "so_even", "--p", "9", "--q", "7",
                      "--point", "1/4,0,0"])
    assert code == 0
    assert "type: B1+BC2" in out
    assert "austere: yes" in out
    assert "minimal: yes" in out
    assert "WR*: yes" in out


def test_analyze_spectrum_at_zero_xi():
    code, out = _run(["analyze", "--triad", "so_even", "--p", "9", "--q", "7",
                      "--point", "0,0,0", "--xi", "0", "--format", "tsv"])
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("(")]
    values = [line.split("\t")[-1] for line in lines]
    assert values and all(v.startswith("0@") for v in values)
    # the tsv theta column, which no stored benchmark output covers
    assert "(0, 0, 1)\t3/4*pi\t2\t0@192b" in lines


def test_empty_table_is_header_only():
    from hermann.cli import _emit_table
    buf = io.StringIO()
    _emit_table([], "tsv", buf.write)
    assert buf.getvalue().splitlines() == \
        ["point\ttype\tTG\taustere\tarid*\tWR*\tnorm"]


def test_scan_austere_isotropy_endpoints():
    # the closed alcove of the rank-1 datum is [0, 1]; both ends are
    # totally geodesic, nothing in the interior is austere
    code, out = _run(["scan-austere", "--triad", "isotropy:A1",
                      "--denominator", "3", "--format", "tsv"])
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert [(r[0], r[2], r[3]) for r in rows] == [
        ("(0)", "yes", "yes"), ("(1)", "yes", "yes")]


def test_scan_austere_walks_only_the_two_order_grid():
    # su_sp 9,7 has order 4: 10^9 + 7 is odd, so its 1/gcd(N, 8) grid is
    # the 1/1 grid, where a full 1/N grid would hold about 10^27 points
    su_sp = ["scan-austere", "--triad", "su_sp", "--p", "9", "--q", "7",
             "--format", "tsv"]
    code, coarse = _run(su_sp + ["--denominator", "1"])
    assert code == 0 and coarse.count("\n") == 2
    assert _run(su_sp + ["--denominator", "1000000007"]) == (0, coarse)


def test_scan_austere_jobs_is_accepted_and_has_no_effect():
    su_sp = ["scan-austere", "--triad", "su_sp", "--p", "9", "--q", "7",
             "--denominator", "24"]
    assert _run(su_sp + ["--jobs", "3"]) == _run(su_sp + ["--jobs", "1"])
    assert main(su_sp + ["--jobs", "0"], stdout=io.StringIO()) == 1


def test_reduce_reports_walls():
    code, out = _run(["reduce", "--triad", "su_sp", "--p", "9", "--q", "7",
                      "--point", "3/8,0,0"])
    assert code == 0
    assert "reduced: (1/8, 0, 0)" in out
    assert "reflections: 1" in out
    assert "  alpha=(1, 1, 1) phi=-1/4*pi n=0" in out.splitlines()


def test_reduce_far_point_exits_four_before_folding(capsys):
    # the proven reflection bound is about 1.8e21, far above the budget
    start = time.monotonic()
    out = io.StringIO()
    assert main(["reduce", "--triad", "so8_g2",
                 "--point=100000000000000000000,3"], stdout=out) == 4
    assert time.monotonic() - start < 1
    assert out.getvalue() == ""
    assert capsys.readouterr().err.startswith("not certified: folding may need ")


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["analyze", "--triad", "so8_g2", "--point", "1/2"],
                stdout=io.StringIO()) == 1
    assert main(["analyze", "--triad", "missing", "--point", "0,0"],
                stdout=io.StringIO()) == 1
    assert main(["scan-austere", "--triad", "so8_g2", "--denominator", "0"],
                stdout=io.StringIO()) == 1
    assert main(["diagram", "--triad", "so_even", "--p", "9", "--q", "7",
                 "--out", "/tmp/never.svg"], stdout=io.StringIO()) == 1
    assert main(["no-such-verb"], stdout=io.StringIO()) == 1
    # --p and --q name a catalog family's parameters; isotropy: and @file have none
    capsys.readouterr()
    datum = tmp_path / "a1.json"
    datum.write_text(serialize_datum(catalog("isotropy", label="A1")), encoding="utf-8")
    for argv in (["faces", "--triad", "isotropy:A2", "--q", "5"],
                 ["analyze", "--triad", f"@{datum}", "--p", "3", "--point", "0"],
                 ["catalog", "show", "--triad", "isotropy:B2", "--p", "3"]):
        out = io.StringIO()
        assert main(argv, stdout=out) == 1
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert err.startswith("error: --p and --q") and err.count("\n") == 1
    for tol in ("0", "-1", "0/7"):
        assert main(["find-minimal", "--triad", "isotropy:A1", f"--tolerance={tol}"],
                    stdout=io.StringIO()) == 1
    capsys.readouterr()
    missing_dir = tmp_path / "missing" / "x.svg"
    assert main(["diagram", "--triad", "so8_g2", "--out", str(missing_dir)],
                stdout=io.StringIO()) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {missing_dir}")
    # the scale is (width - 72) / span, so a width of 72 or less draws nothing
    for width in ("-5", "0", "72"):
        svg = tmp_path / f"w{width}.svg"
        assert main(["diagram", "--triad", "so8_g2", "--out", str(svg),
                     f"--width={width}"], stdout=io.StringIO()) == 1
        assert not svg.exists()
        assert capsys.readouterr().err.startswith("error: --width")


def test_diagram_rejects_high_rank_before_any_report(tmp_path, capsys, monkeypatch):
    import hermann.cli as cli
    calls = []
    report = cli.orbit_report
    monkeypatch.setattr(cli, "orbit_report", lambda *a: calls.append(a) or report(*a))
    svg = tmp_path / "b3.svg"
    assert main(["diagram", "--triad", "isotropy:B3", "--out", str(svg)],
                stdout=io.StringIO()) == 1
    assert calls == [] and not svg.exists()
    assert capsys.readouterr().err == "error: diagram supports rank <= 2, datum has rank 3\n"


def test_stored_benchmark_outputs_replay_byte_for_byte():
    # every stored `hermann ...` command of the benchmark, replayed in-process
    path = Path(__file__).resolve().parents[1] / "bench" / "data" / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    keys = [k for k in expected if k.startswith("hermann ")]
    assert len(keys) >= 50
    for key in keys:
        assert _run(key.split()[1:]) == (0, expected[key]), key


def test_bad_xi_writes_nothing(capsys):
    out = io.StringIO()
    assert main(["analyze", "--triad", "so8_g2", "--point=0,0", "--xi=1/0"],
                stdout=out) == 1
    assert out.getvalue() == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_non_utf8_datum_file_exits_two(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe\x7b")
    out = io.StringIO()
    assert main(["faces", "--triad", f"@{path}"], stdout=out) == 2
    assert out.getvalue() == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_uncertified_minimal_search_exits_four(capsys):
    # 1e-2000 needs more bits than the top of the precision ladder
    out = io.StringIO()
    assert main(["find-minimal", "--triad", "isotropy:A1", "--tolerance=1e-2000"],
                stdout=out) == 4
    assert out.getvalue() == ""
    err = capsys.readouterr().err
    assert err.startswith("not certified: ")
    assert err.count("\n") == 1 and len(err) < 200
    assert "1.0e-2000" in err and "6740 bits" in err and "6144 bits" in err


@pytest.mark.parametrize("module, name, exc, argv, code, prefix", [
    ("hermann.geometry", "cot_eval", PrecisionExhausted,
     ["analyze", "--triad", "so8_g2", "--point=1/12,1/24"], 4, "not certified: "),
    ("hermann.cli", "reduce_to_alcove", NonTermination,
     ["reduce", "--triad", "so8_g2", "--point=3,1"], 3, "internal inconsistency: "),
], ids=["PrecisionExhausted", "NonTermination"])
def test_library_errors_map_to_exit_codes(monkeypatch, capsys, module, name, exc,
                                          argv, code, prefix):
    def fail(*args, **kwargs):
        raise exc("forced")

    monkeypatch.setattr(f"{module}.{name}", fail)
    assert _run(argv) == (code, "")
    assert capsys.readouterr().err == f"{prefix}forced\n"


def test_unsupported_root_system_type_exits_two(tmp_path, capsys):
    from fractions import Fraction
    from hermann.exact import GramMatrix, pairing
    from hermann.roots import coroot
    # F4: its 48 roots pass validation, but F is not a supported family
    gram = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 1, "-1/2"], [0, 0, "-1/2", 1]]
    g = GramMatrix(tuple(tuple(Fraction(x) for x in row) for row in gram))
    simples = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    roots, frontier = set(simples), list(simples)
    while frontier:
        v = frontier.pop()
        for s in simples:
            w = tuple(x - pairing(coroot(s, g), v) * y for x, y in zip(v, s))
            if w not in roots:
                roots.add(w)
                frontier.append(w)
    assert len(roots) == 48
    doc = {"name": "f4", "rank": 4, "gram": [[str(x) for x in row] for row in gram],
           "order": 1, "zero_mult": 0,
           "sectors": [{"phi": "0",
                        "roots": [{"v": list(v), "m": 1} for v in sorted(roots)]}]}
    path = tmp_path / "f4.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["faces", "--triad", f"@{path}"],
                 ["analyze", "--triad", f"@{path}", "--point=0,0,0,0"]):
        out = io.StringIO()
        assert main(argv, stdout=out) == 2
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        # a closed root set keeps the type message
        assert err.startswith("error: ") and err.endswith(" is not recognized\n")


def test_active_set_that_is_no_root_system_exits_two(tmp_path, capsys):
    # B2+A2 with phase 1/4 on a1 alone: the phases are not additive on root
    # strings, so validation rejects the datum before any active set is built
    b2 = [(0, 1, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
          (0, 0, 1, 1)]
    doc = {"name": "reducible", "rank": 4, "order": 4,
           "gram": [[2, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]],
           "sectors": [{"phi": "1/4", "roots": [{"v": [1, 0, 0, 0], "m": 1}]},
                       {"phi": "0", "roots": [{"v": list(w), "m": 1} for v in b2
                                              for w in (v, tuple(-x for x in v))]}]}
    path = tmp_path / "b2a2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    message = ("error: datum validation failed: [affine] the reflection of "
               "((1, 0, 0, 0), 1/4*pi) in ((0, 1, 0, 0), 0*pi) is "
               "((1, 2, 0, 0), 1/4*pi), which carries m = 0, not 1\n")
    for argv in (["analyze", "--triad", f"@{path}", "--point=0,0,0,0"],
                 ["faces", "--triad", f"@{path}"],
                 ["faces", "--triad", f"@{path}", "--all-faces"]):
        out = io.StringIO()
        assert main(argv, stdout=out) == 2
        assert out.getvalue() == ""
        assert capsys.readouterr().err == message


def test_validation_errors_exit_two(tmp_path):
    doc = json.loads(_run(["catalog", "show", "--triad", "so8_g2"])[1])
    doc["order"] = 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["faces", "--triad", f"@{path}"], stdout=io.StringIO())
    assert code == 2
    path.write_text("{", encoding="utf-8")
    code = main(["faces", "--triad", f"@{path}"], stdout=io.StringIO())
    assert code == 2


def test_closure_over_budget_exits_four(monkeypatch, capsys):
    # the 20 roots of A4 do not fit in a budget of 10
    import hermann.roots as roots
    monkeypatch.setattr(roots, "DEFAULT_BUDGET", 10)
    out = io.StringIO()
    assert main(["faces", "--triad", "isotropy:A4"], stdout=out) == 4
    assert out.getvalue() == ""
    assert capsys.readouterr().err == "not certified: root closure exceeded 10\n"


def test_label_with_too_many_roots_is_refused_before_it_is_built(capsys):
    # A99999999999 has about 10^22 roots, and its Gram matrix alone would
    # take 10^11 rows: the label is refused by its root count, not by memory
    out = io.StringIO()
    assert main(["faces", "--triad", "isotropy:A99999999999"], stdout=out) == 4
    assert out.getvalue() == ""
    assert capsys.readouterr().err == "not certified: root closure exceeded 10000000\n"


def test_faces_build_no_weyl_closure(monkeypatch):
    # the 20 roots of A4 fit in a budget of 50 and its 120 Weyl elements do
    # not, but -id is read off a walk, so the table is the same
    import hermann.roots as roots
    want = _run(["faces", "--triad", "isotropy:A4"])
    monkeypatch.setattr(roots, "DEFAULT_BUDGET", 50)
    assert _run(["faces", "--triad", "isotropy:A4"]) == want
    assert want[0] == 0


def test_faces_compare_no_sector_maps(monkeypatch):
    # every hit of a per-datum cache compares the datum with itself, which
    # the identity check answers without building a sector map
    from hermann.datum import GradedRootDatum
    argv = ["faces", "--triad", "su_sp", "--p", "9", "--q", "7"]
    want = _run(argv)
    calls = []
    original = GradedRootDatum._sector_map

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GradedRootDatum, "_sector_map", counting)
    assert _run(argv) == want
    assert want[0] == 0 and calls == []


def test_internal_errors_exit_three(monkeypatch):
    import hermann.cli as cli
    from hermann.geometry import InternalInconsistency

    def boom(*args, **kwargs):
        raise InternalInconsistency("forced")

    monkeypatch.setattr(cli, "orbit_report", boom)
    assert main(["faces", "--triad", "so8_g2"], stdout=io.StringIO()) == 3


def test_diagram_svg_markers_and_xml(tmp_path):
    out_path = tmp_path / "picture.svg"
    code, out = _run(["diagram", "--triad", "so8_g2", "--out", str(out_path)])
    assert code == 0
    tree = ET.parse(out_path)
    markers = [e for e in tree.iter()
               if "marker" in (e.get("class") or "").split()]
    assert len(markers) == 3
    kinds = sorted(e.get("class").split()[1] for e in markers)
    assert kinds == ["marker-arid", "marker-wr", "marker-wr"]


def _marker_cy(e):
    """The y of a marker's center: a circle's cy, or the middle of its y extent."""
    if e.tag.endswith("circle"):
        return float(e.get("cy"))
    if e.tag.endswith("rect"):
        return float(e.get("y")) + float(e.get("height")) / 2
    ys = [float(v) for v in re.findall(r"[-\d.]+", e.get("d"))[1::2]]
    return (min(ys) + max(ys)) / 2


def test_diagram_rank_one_segment(tmp_path):
    for triad in (["--triad", "isotropy:BC1"], ["--triad", "su_sp", "--p", "5", "--q", "3"]):
        out_path = tmp_path / "segment.svg"
        code, _ = _run(["diagram", *triad, "--out", str(out_path)])
        assert code == 0
        root = ET.parse(out_path).getroot()
        tag = root.tag.split("}")[0] + "}"
        height = float(root.get("height"))
        # the walls are vertical and span the padded box, which ends at the margins
        walls = [e for g in root.iter(tag + "g") if g.get("class") == "walls"
                 for e in g.iter(tag + "line")]
        assert walls
        for e in walls:
            assert e.get("x1") == e.get("x2")
            ends = sorted(float(e.get(k)) for k in ("y1", "y2"))
            assert ends == pytest.approx([MARGIN, height - MARGIN], abs=1e-3)
        alcove = [e for e in root.iter() if e.get("class") == "alcove"]
        assert [e.tag for e in alcove] == [tag + "line"]
        markers = [e for e in root.iter()
                   if "marker" in (e.get("class") or "").split()]
        assert len(markers) == 2
        assert {_marker_cy(e) for e in markers} == {float(alcove[0].get("y1"))}


def test_diagram_bytes_stable(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    _run(["diagram", "--triad", "so8_g2", "--out", str(a)])
    _run(["diagram", "--triad", "so8_g2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def _digest_diagrams():
    """The rank-1 and rank-2 data that tools/stdout_digest.py draws."""
    path = Path(__file__).resolve().parents[1] / "tools" / "stdout_digest.py"
    spec = importlib.util.spec_from_file_location("stdout_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.DIAGRAMS


@pytest.mark.parametrize("triad", _digest_diagrams(), ids=" ".join)
def test_diagram_draws_each_wall_of_a_group_once(triad, tmp_path):
    # the walls of alpha and 2 alpha in one phase group coincide
    out_path = tmp_path / "walls.svg"
    assert _run(["diagram", *triad, "--out", str(out_path)])[0] == 0
    root = ET.parse(out_path).getroot()
    tag = root.tag.split("}")[0] + "}"
    groups = [g for g in root.iter(tag + "g") if g.get("class") == "walls"]
    assert groups
    for g in groups:
        lines = [tuple(sorted(e.attrib.items())) for e in g.iter(tag + "line")]
        assert lines and len(lines) == len(set(lines)), g.get("data-phase")


SU_SP_RANK_6 = ["--triad", "su_sp", "--p", "15", "--q", "13"]
SU_SP_RANK_8 = ["--triad", "su_sp", "--p", "19", "--q", "17"]


def test_analyze_rank_six_generic_point():
    # also at rank 8, the largest su_sp datum under test
    for triad, point in ((SU_SP_RANK_6, "1/40,1/48,1/56,1/64,1/72,1/80"),
                         (SU_SP_RANK_8, "1/40,1/48,1/56,1/64,1/72,1/80,1/88,1/96")):
        code, out = _run(["analyze", *triad, f"--point={point}"])
        assert code == 0
        lines = out.splitlines()
        assert lines[:8] == [
            f"datum: su_sp(p={triad[3]},q={triad[5]})",
            f"point: ({point.replace(',', ', ')})",
            "type: (none)", "totally_geodesic: no", "austere: no", "minimal: no",
            "arid*: no", "WR*: no"]
        # minimal is a certified no, so the norm is certainly positive
        assert lines[8].startswith("norm: ") and not lines[8].startswith("norm: <=")


def test_faces_and_scan_at_rank_six():
    # every vertex of su_sp 15,13 is austere with a spanning active system
    # that contains -id; the denominator-8 scan finds exactly those vertices
    rows = (("(0, 0, 0, 0, 0, 0)", "BC6", "3.33"), ("(0, 0, 0, 0, 0, 1/4)", "BC6", "3.53"),
            ("(0, 0, 0, 0, 1/4, 0)", "BC1+BC5", "6.44"),
            ("(0, 0, 0, 1/4, 0, 0)", "BC2+BC4", "8.71"),
            ("(0, 0, 1/4, 0, 0, 0)", "BC3+BC3", "9.86"),
            ("(0, 1/4, 0, 0, 0, 0)", "BC2+BC4", "9.52"),
            ("(1/4, 0, 0, 0, 0, 0)", "BC1+BC5", "7.38"))
    want = [[p, t, "no", "yes", "yes", "yes", f"<={n}e-60@192b"] for p, t, n in rows]
    for argv in (["faces"], ["scan-austere", "--denominator", "8"]):
        code, out = _run([*argv, *SU_SP_RANK_6, "--format", "tsv"])
        assert code == 0
        assert [line.split("\t") for line in out.splitlines()[1:]] == want


def test_reduce_rank_six_lands_in_closed_alcove():
    from fractions import Fraction
    from hermann.alcove import AlcovePoint, point_in_alcove
    for triad, start in ((SU_SP_RANK_6, "1/2,-1/3,1/5,0,3/4,-1/7"),
                         (SU_SP_RANK_8, "1/2,-1/3,1/5,0,3/4,-1/7,2/9,-5/11")):
        code, out = _run(["reduce", *triad, f"--point={start}"])
        assert code == 0
        lines = out.splitlines()
        reduced = lines[1].removeprefix("reduced: (").removesuffix(")")
        point = AlcovePoint(tuple(Fraction(c) for c in reduced.split(", ")))
        assert point_in_alcove(catalog("su_sp", p=int(triad[3]), q=int(triad[5])), point)
        assert int(lines[2].removeprefix("reflections: ")) > 0
        again = _run(["reduce", *triad, f"--point={','.join(reduced.split(', '))}"])
        assert again[0] == 0 and "reflections: 0" in again[1]


SU_SP_RANK_7 = ["--triad", "su_sp", "--p", "17", "--q", "15"]


def test_analyze_rank_eight_origin():
    # the active system is all of BC8, whose Weyl group has 10,321,920 elements
    code, out = _run(["analyze", *SU_SP_RANK_8, "--point=0,0,0,0,0,0,0,0"])
    assert code == 0
    assert "type: BC8" in out.splitlines() and "WR*: yes" in out.splitlines()


def test_faces_and_scan_at_rank_seven_are_fast():
    # every vertex of su_sp 17,15 is austere with a spanning active system
    # that contains -id, and the denominator-8 scan finds exactly those
    tables = []
    for argv in (["faces"], ["scan-austere", "--denominator", "8"]):
        start = time.monotonic()
        code, out = _run([*argv, *SU_SP_RANK_7, "--format", "tsv"])
        assert time.monotonic() - start < 2
        assert code == 0
        tables.append([line.split("\t") for line in out.splitlines()[1:]])
    assert tables[0] == tables[1] and len(tables[0]) == 8
    assert tables[0][0][:6] == ["(0, 0, 0, 0, 0, 0, 0)", "BC7", "no", "yes", "yes", "yes"]
    assert all(row[3:6] == ["yes", "yes", "yes"] for row in tables[0])


def test_closed_stdout_exits_141_without_traceback():
    # the reader is gone before the first byte, so the first write or the
    # final flush meets a broken pipe
    proc = subprocess.Popen([sys.executable, "-m", "hermann", "reduce", "--triad", "so8_g2",
                             "--point=100,3"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_src_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_cli_import_leaves_the_diagram_and_xml_unloaded():
    # -X importtime lists every module an import loads, on stderr
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hermann.cli"],
                          capture_output=True, env=_src_env(), timeout=120, text=True)
    assert proc.returncode == 0 and "hermann.cli" in proc.stderr
    assert "xml.etree" not in proc.stderr and "hermann.diagram" not in proc.stderr
    # the package names still resolve, through the module's __getattr__
    import hermann
    import hermann.diagram
    assert hermann.render_svg is hermann.diagram.render_svg
    assert hermann.RankTooHigh is hermann.diagram.RankTooHigh
    with pytest.raises(AttributeError):
        hermann.no_such_name


def test_stdout_digest_quick_is_well_formed():
    tool = Path(__file__).resolve().parents[1] / "tools" / "stdout_digest.py"
    proc = subprocess.run([sys.executable, str(tool), "--quick"], capture_output=True,
                          timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""
    sha, lines, word, commands, word2 = proc.stdout.decode("ascii").split()
    assert len(sha) == 64 and set(sha) <= set("0123456789abcdef")
    assert (word, commands, word2) == ("lines", "3", "commands") and int(lines) > 0


def _ab_paired(a_src, b_src, *args):
    tool = Path(__file__).resolve().parents[1] / "tools" / "ab_paired.py"
    return subprocess.run([sys.executable, str(tool), str(a_src), str(b_src), *args],
                          capture_output=True, timeout=120, text=True)


@pytest.mark.parametrize("workload", ["point-queries", "minimal-search"])
def test_ab_paired_of_this_tree_against_itself(workload):
    # two CLI commands, or two find_minimal results compared by value across
    # the two packages' classes
    src = Path(__file__).resolve().parents[1] / "src"
    proc = _ab_paired(src, src, "--workload", workload, "--limit", "2", "--repeats", "2")
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == f"workload {workload}  seed 1  ops 2  repeats 2"
    assert [ln.split(": ")[1].split()[1] for ln in lines[1:3]] == ["ops/s", "ops/s"]
    assert re.fullmatch(r"B/A \d+\.\d{4}  differing outputs 0", lines[3])


def test_ab_paired_reports_quartiles_repeats_and_wins():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = _ab_paired(src, src, "--workload", "face-tables", "--limit", "2", "--repeats", "3")
    assert proc.returncode == 0 and proc.stderr == ""
    fields = {}
    for line in proc.stdout.splitlines()[1:3]:
        m = re.fullmatch(r"([AB]) \S+: (\d+\.\d\d) ops/s  quartiles (\d+\.\d\d) (\d+\.\d\d)  "
                         r"repeats ((?:\d+\.\d\d ?){3})(  won (\d) of 3)?", line)
        assert m, line
        q1, q3, per = float(m[3]), float(m[4]), [float(v) for v in m[5].split()]
        assert len(per) == 3 and min(per) <= q1 <= q3 <= max(per)
        fields[m[1]] = m[6]
    assert fields["A"] is None and 0 <= int(fields["B"].split()[1]) <= 3


def test_ab_paired_reports_a_differing_output(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    other = tmp_path / "hermann"
    other.mkdir()
    for path in (src / "hermann").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if path.name == "exact.py":
            text = text.replace("to_str(mid, 12)", "to_str(mid, 11)")
        (other / path.name).write_text(text, encoding="utf-8")
    proc = _ab_paired(src, tmp_path, "--workload", "point-queries", "--limit", "2",
                      "--repeats", "1")
    assert proc.returncode == 1
    assert proc.stdout.count("DIFFERS hermann analyze") == 2
    assert proc.stdout.splitlines()[-1].endswith("differing outputs 2")
