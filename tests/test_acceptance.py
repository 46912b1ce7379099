"""Acceptance suite: one test per numbered criterion.

Each test pins its tolerance and time budget inline; the terminal summary
(see conftest) prints one PASS/FAIL line per criterion.
"""

import io
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import mpmath

from hermann.alcove import (
    AlcovePoint,
    active_roots,
    alcove_vertices,
    faces,
    point_in_alcove,
    reduce_to_alcove,
)
from hermann.cli import main
from hermann.datum import catalog, positive_sector_roots
from hermann.geometry import (
    TriState,
    find_minimal,
    is_austere,
    is_minimal,
    mean_curvature,
    orbit_report,
    scan_austere,
)
from hermann.roots import (
    CartanLabel,
    build_root_system,
    cartan_matrix,
    contains_minus_identity,
    verify_axioms,
    weyl_group,
)

Q = Fraction

CATALOG_DATA = (
    catalog("so_even", p=9, q=7),
    catalog("su_sp", p=9, q=7),
    catalog("so8_g2"),
    catalog("isotropy", label="BC2"),
)


def _cli(argv):
    buf = io.StringIO()
    code = main(argv, stdout=buf)
    assert code == 0, (argv, code)
    return buf.getvalue()


def _table(argv):
    return [line.split("\t") for line in _cli(argv).splitlines()[1:]]


def _random_closed_point(rng, d):
    verts = alcove_vertices(d)
    weights = [Q(rng.randint(0, 6)) for _ in verts]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = Q(1)
    total = sum(weights)
    return AlcovePoint(tuple(
        sum(w * v.coeffs[i] for w, v in zip(weights, verts)) / total
        for i in range(d.rank)))


def _random_interior_point(rng, d):
    verts = alcove_vertices(d)
    weights = [Q(rng.randint(1, 6)) for _ in verts]
    total = sum(weights)
    return AlcovePoint(tuple(
        sum(w * v.coeffs[i] for w, v in zip(weights, verts)) / total
        for i in range(d.rank)))


def test_criterion_01_so_even_faces_and_scan():
    """7.1 vertex classification and the denominator-24 scan; < 30 s."""
    start = time.monotonic()
    rows = _table(["faces", "--triad", "so_even", "--p", "9", "--q", "7",
                   "--format", "tsv"])
    got = {(r[0], r[1], r[5]) for r in rows}
    assert got == {
        ("(0, 0, 0)", "BC3", "yes"),
        ("(1/4, 0, 0)", "B1+BC2", "yes"),
        ("(0, 1/4, 0)", "B2+BC1", "yes"),
        ("(0, 0, 1/4)", "B3", "yes"),
    }
    scan = _table(["scan-austere", "--triad", "so_even", "--p", "9", "--q", "7",
                   "--denominator", "24", "--format", "tsv"])
    assert {r[0] for r in scan} == {r[0] for r in rows}
    assert all(r[3] == "yes" for r in scan)
    assert time.monotonic() - start < 30


def test_criterion_02_su_sp_scan_and_non_austere_slice():
    """7.2 scan agreement plus austere=no at x_r = 1/8; < 30 s."""
    start = time.monotonic()
    scan = _table(["scan-austere", "--triad", "su_sp", "--p", "9", "--q", "7",
                   "--denominator", "24", "--format", "tsv"])
    assert {r[0] for r in scan} == {
        "(0, 0, 0)", "(1/4, 0, 0)", "(0, 1/4, 0)", "(0, 0, 1/4)"}
    assert all(r[3] == "yes" for r in scan)
    out = _cli(["analyze", "--triad", "su_sp", "--p", "9", "--q", "7",
                "--point", "0,0,1/8"])
    assert "austere: no" in out
    assert time.monotonic() - start < 30


def test_criterion_03_g2_vertices_and_scan():
    """7.3 vertex types, flags, and the denominator-36 scan; < 10 s."""
    start = time.monotonic()
    rows = _table(["faces", "--triad", "so8_g2", "--format", "tsv"])
    by_point = {r[0]: r for r in rows}
    assert set(by_point) == {"(0, 0)", "(1/6, 0)", "(0, 1/3)"}
    assert by_point["(0, 0)"][1] == "G2" and by_point["(0, 0)"][5] == "yes"
    assert by_point["(1/6, 0)"][1] == "A1+A1" and by_point["(1/6, 0)"][5] == "yes"
    arid_row = by_point["(0, 1/3)"]
    assert arid_row[1] == "A2"
    assert arid_row[3] == "no" and arid_row[4] == "yes" and arid_row[5] == "no"
    scan = _table(["scan-austere", "--triad", "so8_g2",
                   "--denominator", "36", "--format", "tsv"])
    assert {r[0] for r in scan} == {"(0, 0)", "(1/6, 0)"}
    assert time.monotonic() - start < 10


def test_criterion_04_active_systems_satisfy_axioms():
    """100 random closed-alcove points per datum, 100% verify_axioms; < 60 s."""
    start = time.monotonic()
    rng = random.Random(40)
    for d in CATALOG_DATA:
        for _ in range(100):
            point = _random_closed_point(rng, d)
            act = active_roots(d, point)
            assert verify_axioms(act.system), (d.name, point)
    assert time.monotonic() - start < 60


def test_criterion_05_weyl_orders_and_tits_table():
    """Generated Weyl orders match closed forms; -id matches Tits; < 60 s."""
    start = time.monotonic()
    orders = {
        "A1": 2, "A2": 6, "A3": 24, "A4": 120,
        "B2": 8, "B3": 48, "B4": 384,
        "BC1": 2, "BC2": 8, "BC3": 48, "BC4": 384,
        "D2": 4, "D3": 24, "D4": 192,
        "G2": 12,
    }
    absent = {"A2", "A3", "A4", "D3"}
    for label, order in orders.items():
        rs = build_root_system(CartanLabel.parse(label))
        group = weyl_group(cartan_matrix(rs.simple_roots, rs.gram))
        assert group.order == order, label
        assert contains_minus_identity(group) == (label not in absent), label
    assert time.monotonic() - start < 60


def _log_volume(d, coords, prec):
    with mpmath.workprec(prec):
        total = mpmath.mpf(0)
        for alpha, t, m in positive_sector_roots(d):
            pairing = sum(Fraction(a) * x for a, x in zip(alpha, coords)) + t
            total += m * mpmath.log(abs(mpmath.sinpi(
                mpmath.mpf(pairing.numerator) / pairing.denominator)))
        return total


def test_criterion_06_gradient_check():
    """Central differences (step 1e-8, 256-bit) vs m_H, rel 1e-6."""
    rng = random.Random(60)
    h = Q(1, 10 ** 8)
    for d in CATALOG_DATA:
        for _ in range(20):
            point = _random_interior_point(rng, d)
            mc = mean_curvature(d, point, 256)
            for j in range(d.rank):
                up = list(point.coeffs)
                down = list(point.coeffs)
                up[j] += h
                down[j] -= h
                with mpmath.workprec(256):
                    fd = (_log_volume(d, up, 256) - _log_volume(d, down, 256)) \
                        / (2 * mpmath.mpf(1) / 10 ** 8)
                    grad_j = -fd / mpmath.pi
                    mid = (mc.coeffs[j].lo + mc.coeffs[j].hi) / 2
                    mid = mpmath.mpf(mid.numerator) / mid.denominator
                    scale = max(abs(mid), abs(grad_j), mpmath.mpf(1))
                    assert abs(mid - grad_j) / scale < mpmath.mpf(1) / 10 ** 6, \
                        (d.name, point, j)


def test_criterion_07_minimal_solver():
    """Certified |m_H| < 1e-20 everywhere; closed forms for rank one."""
    tol = Q(1, 10 ** 20)
    for d in CATALOG_DATA:
        orbit = find_minimal(d, tol)
        assert orbit.norm.hi < tol, d.name
        assert point_in_alcove(d, orbit.point, strict=True), d.name
    a1 = find_minimal(catalog("isotropy", label="A1"), Q(1, 10 ** 30))
    assert abs(a1.point.coeffs[0] - Q(1, 2)) < Q(1, 10 ** 30)
    bc1 = find_minimal(catalog("isotropy", label="BC1", mults={1: 4, 4: 1}), tol)
    with mpmath.workprec(192):
        lo, hi = mpmath.mpf(1) / 4, mpmath.mpf(1) / 2
        for _ in range(90):
            mid = (lo + hi) / 2
            val = 4 * mpmath.cospi(mid) / mpmath.sinpi(mid) \
                + 2 * mpmath.cospi(2 * mid) / mpmath.sinpi(2 * mid)
            if val > 0:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        found = mpmath.mpf(bc1.point.coeffs[0].numerator) / \
            bc1.point.coeffs[0].denominator
        assert abs(found - root) < mpmath.mpf(1) / 10 ** 20


def _interval_gap(a, b):
    zero = Q(0)
    return max(a.lo - b.hi, b.lo - a.hi, zero)


def test_criterion_08_reduction_invariance():
    """Reduce: closed-alcove output, idempotent, norms agree to 1e-20."""
    rng = random.Random(80)
    tol = Q(1, 10 ** 20)
    for d in CATALOG_DATA:
        for _ in range(100):
            coords = tuple(Q(rng.randint(-48, 48), rng.randint(1, 24))
                           for _ in range(d.rank))
            point = AlcovePoint(coords)
            reduced, _ = reduce_to_alcove(d, point)
            assert point_in_alcove(d, reduced)
            again, walls = reduce_to_alcove(d, reduced)
            assert again == reduced and walls == ()
            gap = _interval_gap(mean_curvature(d, point).norm,
                                mean_curvature(d, reduced).norm)
            assert gap < tol, (d.name, point)
    # the published fold: (3/8, 0) in the rank-2 family reduces with
    # unchanged austere/minimal classification
    d = catalog("so_even", p=7, q=5)
    outside = AlcovePoint((Q(3, 8), 0))
    reduced, _ = reduce_to_alcove(d, outside)
    assert is_austere(d, outside) is is_austere(d, reduced)
    assert is_minimal(d, outside) is is_minimal(d, reduced)


def _touched_points(d):
    pts = [f.representative for f in faces(d)]
    pts += scan_austere(d, 12)
    rng = random.Random(90)
    for _ in range(10):
        coords = tuple(Q(rng.randint(-24, 24), rng.randint(1, 12))
                       for _ in range(d.rank))
        pts.append(reduce_to_alcove(d, AlcovePoint(coords))[0])
    return pts


def test_criterion_09_flag_implications():
    """No report may break TG => austere => (norm contains 0), WR* => arid*."""
    for d in CATALOG_DATA:
        for point in _touched_points(d):
            r = orbit_report(d, point)
            if r.totally_geodesic:
                assert r.austere is TriState.YES, (d.name, point)
            if r.austere is TriState.YES:
                assert r.minimal is TriState.YES, (d.name, point)
                assert r.mean_curvature.norm.contains_zero, (d.name, point)
            if r.weakly_reflective_sufficient:
                assert r.arid_sufficient, (d.name, point)
    # the austere vertex norm enclosure promised by the interface contract
    d = catalog("so_even", p=9, q=7)
    norm = mean_curvature(d, AlcovePoint((Q(1, 4), 0, 0))).norm
    assert norm.contains_zero and norm.width < Q(1, 2 ** 100)


def test_criterion_10_cli_determinism_and_svg(tmp_path):
    """Byte-identical reruns; 7.3 diagram is well-formed with 3 markers."""
    for argv in (
        ["faces", "--triad", "so_even", "--p", "9", "--q", "7",
         "--format", "tsv"],
        ["scan-austere", "--triad", "so8_g2", "--denominator", "36",
         "--format", "tsv"],
        ["analyze", "--triad", "so8_g2", "--point", "1/12,1/12", "--xi", "1,0"],
        ["find-minimal", "--triad", "so8_g2"],
        ["catalog", "show", "--triad", "su_sp", "--p", "9", "--q", "7"],
    ):
        assert _cli(argv) == _cli(argv), argv
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    _cli(["diagram", "--triad", "so8_g2", "--out", str(a)])
    _cli(["diagram", "--triad", "so8_g2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    tree = ET.parse(a)
    markers = [e for e in tree.iter()
               if "marker" in (e.get("class") or "").split()]
    assert len(markers) == 3
