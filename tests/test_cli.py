import io
import json
import xml.etree.ElementTree as ET

import pytest

from hermann.cli import main


def _run(argv):
    buf = io.StringIO()
    code = main(argv, stdout=buf)
    return code, buf.getvalue()


def test_catalog_list_mentions_every_key():
    code, out = _run(["catalog", "list"])
    assert code == 0
    for key in ("so_even", "su_sp", "so8_g2", "isotropy"):
        assert key in out


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


def test_reduce_reports_walls():
    code, out = _run(["reduce", "--triad", "su_sp", "--p", "9", "--q", "7",
                      "--point", "3/8,0,0"])
    assert code == 0
    assert "reduced: (1/8, 0, 0)" in out
    assert "reflections: 1" in out


def test_usage_errors_exit_one():
    assert main(["analyze", "--triad", "so8_g2", "--point", "1/2"],
                stdout=io.StringIO()) == 1
    assert main(["analyze", "--triad", "missing", "--point", "0,0"],
                stdout=io.StringIO()) == 1
    assert main(["scan-austere", "--triad", "so8_g2", "--denominator", "0"],
                stdout=io.StringIO()) == 1
    assert main(["diagram", "--triad", "so_even", "--p", "9", "--q", "7",
                 "--out", "/tmp/never.svg"], stdout=io.StringIO()) == 1
    assert main(["no-such-verb"], stdout=io.StringIO()) == 1
    for tol in ("0", "-1", "0/7"):
        assert main(["find-minimal", "--triad", "isotropy:A1", f"--tolerance={tol}"],
                    stdout=io.StringIO()) == 1


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


def test_unsupported_root_system_type_exits_two(tmp_path, capsys):
    from fractions import Fraction
    from hermann.exact import GramMatrix
    from hermann.roots import reflect
    # F4: its 48 roots pass validation, but F is not a supported family
    gram = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 1, "-1/2"], [0, 0, "-1/2", 1]]
    g = GramMatrix(tuple(tuple(Fraction(x) for x in row) for row in gram))
    simples = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    roots, frontier = set(simples), list(simples)
    while frontier:
        v = frontier.pop()
        for s in simples:
            w = reflect(v, s, g)
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
        assert capsys.readouterr().err.startswith("error: ")


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


def test_diagram_rank_one_segment(tmp_path):
    out_path = tmp_path / "segment.svg"
    code, _ = _run(["diagram", "--triad", "isotropy:BC1", "--out", str(out_path)])
    assert code == 0
    tree = ET.parse(out_path)
    markers = [e for e in tree.iter()
               if "marker" in (e.get("class") or "").split()]
    assert len(markers) == 2
    assert any(e.get("class") == "alcove" for e in tree.iter())


def test_diagram_bytes_stable(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    _run(["diagram", "--triad", "so8_g2", "--out", str(a)])
    _run(["diagram", "--triad", "so8_g2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
