"""Command-line front end for alcove reports, scans and diagrams.

Exit codes: 0 success, 1 usage error, 2 datum parse/validation error or
a root-system type outside A, B, BC, C, D, G, 3 internal inconsistency,
4 not certified (find-minimal reached no certified point within its
precision ladder).  All output is ASCII and byte-deterministic for a fixed
command line.
"""

import argparse
import sys
from fractions import Fraction

from .alcove import AlcovePoint, alcove_vertices, faces, point_in_alcove, \
    reduce_to_alcove
from .datum import BadParameters, CATALOG, ParseError, UnknownKey, \
    ValidationError, catalog, parse_datum, serialize_datum
from .diagram import RankTooHigh, render_svg
from .exact import format_interval, parse_rational
from .geometry import InternalInconsistency, NoConvergence, TriState, \
    find_minimal, orbit_report, scan_austere, shape_spectrum
from .roots import UnrecognizedType


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_TABLE_COLUMNS = ("point", "type", "TG", "austere", "arid*", "WR*", "norm")


def _tri(v: TriState) -> str:
    return "indet" if v is TriState.INDETERMINATE else v.value


def _yn(v: bool) -> str:
    return "yes" if v else "no"


def _table_row(r):
    return (str(r.point), r.type_label, _yn(r.totally_geodesic),
            _tri(r.austere), _yn(r.arid_sufficient),
            _yn(r.weakly_reflective_sufficient),
            format_interval(r.mean_curvature.norm))


def _emit_table(rows, fmt, write):
    if fmt == "tsv":
        write("\t".join(_TABLE_COLUMNS) + "\n")
        for row in rows:
            write("\t".join(row) + "\n")
        return
    widths = [len(c) for c in _TABLE_COLUMNS]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    header = "  ".join(c.ljust(w) for c, w in zip(_TABLE_COLUMNS, widths))
    write(header.rstrip() + "\n")
    write("  ".join("-" * w for w in widths) + "\n")
    for row in rows:
        write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def _parse_point(text: str, rank: int) -> AlcovePoint:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rank:
        raise _UsageError(f"point needs {rank} coordinates, got {len(parts)}")
    try:
        coords = tuple(parse_rational(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return AlcovePoint(coords)


def _parse_xi(text: str, rank: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1 and rank > 1:
        # a single value means the constant vector, so --xi 0 always parses
        parts = parts * rank
    if len(parts) != rank:
        raise _UsageError(f"xi needs {rank} coordinates, got {len(parts)}")
    try:
        return tuple(parse_rational(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load_datum(args):
    key = args.triad
    if key.startswith("@"):
        try:
            with open(key[1:], encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _UsageError(f"cannot read datum file: {exc}") from exc
        return parse_datum(text)
    if key.startswith("isotropy:"):
        return catalog("isotropy", label=key.split(":", 1)[1])
    params = {}
    if getattr(args, "p", None) is not None:
        params["p"] = args.p
    if getattr(args, "q", None) is not None:
        params["q"] = args.q
    return catalog(key, **params)


def _decimal(fr: Fraction, places: int = 30) -> str:
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    scaled = (fr.numerator * 10 ** places * 2 + fr.denominator) // (2 * fr.denominator)
    whole, frac = divmod(scaled, 10 ** places)
    return f"{sign}{whole}.{frac:0{places}d}"


def _cmd_catalog(args, write):
    if args.action == "list":
        rows = [(e.key, e.parameters, e.summary) for e in CATALOG]
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        for r in rows:
            write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")
        return 0
    if not args.triad:
        raise _UsageError("catalog show requires --triad")
    d = _load_datum(args)
    write(serialize_datum(d))
    return 0


def _cmd_analyze(args, write):
    d = _load_datum(args)
    point = _parse_point(args.point, d.rank)
    if not point_in_alcove(d, point, strict=False):
        raise _UsageError(
            "point is outside the closed alcove; run `reduce` first")
    r = orbit_report(d, point)
    fields = (
        ("datum", d.name),
        ("point", str(point)),
        ("type", r.type_label),
        ("totally_geodesic", _yn(r.totally_geodesic)),
        ("austere", _tri(r.austere)),
        ("minimal", _tri(r.minimal)),
        ("arid*", _yn(r.arid_sufficient)),
        ("WR*", _yn(r.weakly_reflective_sufficient)),
        ("norm", format_interval(r.mean_curvature.norm)),
    )
    if args.format == "tsv":
        for k, v in fields:
            write(f"{k}\t{v}\n")
    else:
        for k, v in fields:
            write(f"{k}: {v}\n")
    if args.xi is not None:
        xi = _parse_xi(args.xi, d.rank)
        spec = shape_spectrum(d, point, xi)
        write("\n")
        if args.format == "tsv":
            write("alpha\ttheta\tmult\teigenvalue\n")
            write(f"(zero)\t-\t{spec.zero_mult}\t0@{spec.precision_bits}b\n")
            for t in spec.terms:
                write(f"{t.alpha}\t{t.theta}\t{t.mult}\t"
                      f"{format_interval(t.value)}\n")
        else:
            write(f"spectrum at xi = ({', '.join(map(str, xi))}):\n")
            write(f"  0 with multiplicity {spec.zero_mult}\n")
            for t in spec.terms:
                write(f"  alpha={t.alpha} theta={t.theta} mult={t.mult} "
                      f"value={format_interval(t.value)}\n")
    return 0


def _cmd_faces(args, write):
    d = _load_datum(args)
    if args.all_faces:
        reps = [f.representative for f in faces(d)]
    else:
        reps = [f.representative for f in faces(d) if f.dimension == 0]
    rows = [_table_row(orbit_report(d, p)) for p in reps]
    _emit_table(rows, args.format, write)
    return 0


def _cmd_scan(args, write):
    if args.denominator < 1:
        raise _UsageError("--denominator must be a positive integer")
    if args.jobs < 1:
        raise _UsageError("--jobs must be a positive integer")
    d = _load_datum(args)
    hits = scan_austere(d, args.denominator, jobs=args.jobs)
    rows = [_table_row(orbit_report(d, p)) for p, _ in hits]
    _emit_table(rows, args.format, write)
    return 0


def _cmd_find_minimal(args, write):
    d = _load_datum(args)
    try:
        tol = parse_rational(args.tolerance) if "/" in args.tolerance \
            else Fraction(args.tolerance)
    except ValueError as exc:
        raise _UsageError(f"bad tolerance: {exc}") from exc
    if tol <= 0:
        raise _UsageError("--tolerance must be positive")
    orbit = find_minimal(d, tol)
    write(f"datum: {d.name}\n")
    write(f"iterations: {orbit.iterations}\n")
    coords = ", ".join(_decimal(c) for c in orbit.point.coeffs)
    write(f"point: ({coords})\n")
    write(f"norm: {format_interval(orbit.norm)}\n")
    return 0


def _cmd_reduce(args, write):
    d = _load_datum(args)
    point = _parse_point(args.point, d.rank)
    reduced, walls = reduce_to_alcove(d, point)
    write(f"input: {point}\n")
    write(f"reduced: {reduced}\n")
    write(f"reflections: {len(walls)}\n")
    for w in walls:
        write(f"  alpha={w.alpha} phi={w.phi} n={w.n}\n")
    return 0


def _cmd_diagram(args, write):
    d = _load_datum(args)
    reports = [orbit_report(d, v) for v in alcove_vertices(d)]
    try:
        path = render_svg(d, reports, args.out, width=args.width)
    except RankTooHigh as exc:
        raise _UsageError(str(exc)) from exc
    write(f"wrote {path} ({len(reports)} markers)\n")
    return 0


def _add_triad_options(sub):
    sub.add_argument("--triad", required=True,
                     help="catalog key, isotropy:LABEL, or @datum.json")
    sub.add_argument("--p", type=int, default=None)
    sub.add_argument("--q", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hermann",
                     description="orbit classification for Hermann actions")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_cat = sub.add_parser("catalog", help="list or print built-in data")
    p_cat.add_argument("action", choices=("list", "show"))
    p_cat.add_argument("--triad", default=None)
    p_cat.add_argument("--p", type=int, default=None)
    p_cat.add_argument("--q", type=int, default=None)
    p_cat.set_defaults(func=_cmd_catalog)

    p_an = sub.add_parser("analyze", help="classify one alcove point")
    _add_triad_options(p_an)
    p_an.add_argument("--point", required=True)
    p_an.add_argument("--xi", default=None)
    p_an.add_argument("--format", choices=("plain", "tsv"), default="plain")
    p_an.set_defaults(func=_cmd_analyze)

    p_fc = sub.add_parser("faces", help="classification table at face points")
    _add_triad_options(p_fc)
    p_fc.add_argument("--all-faces", action="store_true")
    p_fc.add_argument("--format", choices=("plain", "tsv"), default="plain")
    p_fc.set_defaults(func=_cmd_faces)

    p_sc = sub.add_parser("scan-austere", help="grid scan for austere points")
    _add_triad_options(p_sc)
    p_sc.add_argument("--denominator", type=int, required=True)
    p_sc.add_argument("--jobs", type=int, default=1)
    p_sc.add_argument("--format", choices=("plain", "tsv"), default="plain")
    p_sc.set_defaults(func=_cmd_scan)

    p_fm = sub.add_parser("find-minimal", help="search the minimal orbit")
    _add_triad_options(p_fm)
    p_fm.add_argument("--tolerance", default="1/100000000000000000000")
    p_fm.set_defaults(func=_cmd_find_minimal)

    p_rd = sub.add_parser("reduce", help="fold a point into the alcove")
    _add_triad_options(p_rd)
    p_rd.add_argument("--point", required=True)
    p_rd.set_defaults(func=_cmd_reduce)

    p_dg = sub.add_parser("diagram", help="SVG picture for rank <= 2")
    _add_triad_options(p_dg)
    p_dg.add_argument("--out", required=True)
    p_dg.add_argument("--width", type=int, default=480)
    p_dg.set_defaults(func=_cmd_diagram)
    return parser


def main(argv=None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out.write)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UnknownKey, BadParameters) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError, UnrecognizedType) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except NoConvergence as exc:
        print(f"not certified: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    sys.exit(main())
