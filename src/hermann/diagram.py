"""SVG pictures of rank-1 and rank-2 alcoves with classified markers.

Rank 1 is drawn on the x axis of the rank-2 path: its embedding is
[[e, 0], [0, 1]] and its vectors are padded with 0, so its walls are the
vertical lines the rank-2 clip gives for a root (a, 0).
"""

from fractions import Fraction
from math import atan2, ceil, floor, sqrt
import xml.etree.ElementTree as ET

from .alcove import alcove_vertices
from .datum import GradedRootDatum, positive_sector_roots
from .exact import dual_basis, pairing
from .geometry import OrbitReport, TriState


class RankTooHigh(Exception):
    """Drawing is defined for rank 1 and 2 only."""


MARGIN = 36.0
_PAD = 0.18
_WALL_STROKES = ("#7a7a7a", "#b06030", "#3a6ea5", "#6a9a58", "#9a5a9a", "#c0a030")
_WALL_DASHES = (None, "7 4", "2 4", "9 4 2 4", "5 2 1 2", "12 4")


def _fmt(v: float) -> str:
    # fixed 3-decimal output keeps repeated renders byte-identical
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _embedding(gram):
    """Rows of E map dual coordinates x to Euclidean u = E x isometrically,
    a rank-1 x onto the plane's x axis: E = sqrt(D) L^T for the metric
    m = L D L^T, which a 1x1 or 2x2 m gives in closed form, exactly."""
    m = dual_basis(gram)
    a = m[0][0]
    if len(m) == 1:
        return [[sqrt(a), 0], [0, 1]]
    l10, d1 = m[1][0] / a, m[1][1] - m[1][0] ** 2 / a
    return [[sqrt(a), sqrt(a) * float(l10)], [0.0, sqrt(d1)]]


def _plane(v):
    """v padded with 0 to two coordinates."""
    return (*v, 0)[:2]


def _apply(mat, vec):
    return tuple(sum(row[j] * float(vec[j]) for j in range(len(vec))) for row in mat)


def _clip_parametric(p0, dv, box):
    """Liang-Barsky clip of the full line p0 + s*dv to an axis box."""
    (xmin, xmax), (ymin, ymax) = box
    lo, hi = -1e9, 1e9
    for p, d, bound_lo, bound_hi in ((p0[0], dv[0], xmin, xmax),
                                     (p0[1], dv[1], ymin, ymax)):
        if abs(d) < 1e-12:
            if p < bound_lo or p > bound_hi:
                return None
            continue
        s0, s1 = (bound_lo - p) / d, (bound_hi - p) / d
        if s0 > s1:
            s0, s1 = s1, s0
        lo, hi = max(lo, s0), min(hi, s1)
    if lo >= hi:
        return None
    return ((p0[0] + lo * dv[0], p0[1] + lo * dv[1]),
            (p0[0] + hi * dv[0], p0[1] + hi * dv[1]))


def _marker_kind(r: OrbitReport) -> str:
    if r.totally_geodesic:
        return "tg"
    if r.weakly_reflective_sufficient:
        return "wr"
    if r.austere is TriState.YES:
        return "austere"
    if r.arid_sufficient:
        return "arid"
    return "plain"


def _marker_element(kind: str, px: float, py: float) -> ET.Element:
    cls = f"marker marker-{kind}"
    r = 5.0
    if kind == "tg":
        return ET.Element("rect", {
            "class": cls, "x": _fmt(px - r), "y": _fmt(py - r),
            "width": _fmt(2 * r), "height": _fmt(2 * r), "fill": "#111111"})
    if kind == "wr":
        d = (f"M {_fmt(px)} {_fmt(py - 1.35 * r)} L {_fmt(px + 1.35 * r)} {_fmt(py)} "
             f"L {_fmt(px)} {_fmt(py + 1.35 * r)} L {_fmt(px - 1.35 * r)} {_fmt(py)} Z")
        return ET.Element("path", {"class": cls, "d": d, "fill": "#111111"})
    if kind == "austere":
        return ET.Element("circle", {
            "class": cls, "cx": _fmt(px), "cy": _fmt(py), "r": _fmt(r),
            "fill": "#111111"})
    if kind == "arid":
        d = (f"M {_fmt(px)} {_fmt(py - 1.3 * r)} L {_fmt(px + 1.2 * r)} {_fmt(py + r)} "
             f"L {_fmt(px - 1.2 * r)} {_fmt(py + r)} Z")
        return ET.Element("path", {"class": cls, "d": d,
                                   "fill": "#ffffff", "stroke": "#111111",
                                   "stroke-width": "1.5"})
    return ET.Element("circle", {
        "class": cls, "cx": _fmt(px), "cy": _fmt(py), "r": _fmt(0.7 * r),
        "fill": "#ffffff", "stroke": "#111111", "stroke-width": "1.5"})


def _wall_families(d: GradedRootDatum):
    families = {}
    for alpha, t, _ in positive_sector_roots(d):
        families.setdefault(t, set()).add(alpha)
    return {t: tuple(sorted(roots)) for t, roots in sorted(families.items())}


def render_svg(d: GradedRootDatum, reports, out, width: int = 480) -> str:
    """Write the alcove picture for all reports and return the output path.

    Coordinates are Euclidean: the Gram metric on dual coordinates is
    factored exactly as L D L^T and points embedded via u = sqrt(D) L^T x,
    so lengths and angles in the picture match the flat orbit space.
    """
    rank = d.sigma.rank
    if rank > 2:
        raise RankTooHigh(f"diagram supports rank <= 2, datum has rank {rank}")
    emb = _embedding(d.sigma.gram)
    pts = [_apply(emb, _plane(v.coeffs)) for v in alcove_vertices(d)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    pad = _PAD * span
    box = ((min(xs) - pad, max(xs) + pad), (min(ys) - pad, max(ys) + pad))
    scale = (width - 2 * MARGIN) / (box[0][1] - box[0][0])
    height = 2 * MARGIN + scale * (box[1][1] - box[1][0])

    def to_px(u):
        return (MARGIN + (u[0] - box[0][0]) * scale,
                height - MARGIN - (u[1] - box[1][0]) * scale)

    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": _fmt(width), "height": _fmt(height),
        "viewBox": f"0 0 {_fmt(width)} {_fmt(height)}"})
    ET.SubElement(svg, "rect", {
        "x": "0", "y": "0", "width": _fmt(width), "height": _fmt(height),
        "fill": "#ffffff"})

    # corner values of c.x over the padded viewport bound the wall indices
    corners_u = [(box[0][i], box[1][j]) for i in (0, 1) for j in (0, 1)]
    inv = _invert(emb)
    corners_x = [_apply(inv, u) for u in corners_u]

    for idx, (t, roots) in enumerate(_wall_families(d).items()):
        style_stroke = _WALL_STROKES[idx % len(_WALL_STROKES)]
        style_dash = _WALL_DASHES[idx % len(_WALL_DASHES)]
        group = ET.SubElement(svg, "g", {"class": "walls", "data-phase": str(t)})
        group.set("stroke", style_stroke)
        group.set("stroke-width", "1")
        if style_dash:
            group.set("stroke-dasharray", style_dash)
        for alpha in roots:
            vals = [pairing(alpha, map(Fraction, cx)) for cx in corners_x]
            for n in range(ceil(min(vals) + t), floor(max(vals) + t) + 1):
                _append_wall(group, alpha, n - t, emb, box, to_px)
        if len(group) == 0:
            svg.remove(group)

    if rank == 1:
        a = to_px((min(xs), 0.0))
        b = to_px((max(xs), 0.0))
        ET.SubElement(svg, "line", {
            "class": "alcove", "x1": _fmt(a[0]), "y1": _fmt(a[1]),
            "x2": _fmt(b[0]), "y2": _fmt(b[1]),
            "stroke": "#1f4e8c", "stroke-width": "3"})
    else:
        ordered = _order_polygon(pts)
        path = " ".join(f"{_fmt(q[0])},{_fmt(q[1])}" for q in map(to_px, ordered))
        ET.SubElement(svg, "polygon", {
            "class": "alcove", "points": path,
            "fill": "#dbe7f5", "fill-opacity": "0.55",
            "stroke": "#1f4e8c", "stroke-width": "2"})

    markers = ET.SubElement(svg, "g", {"class": "markers"})
    for report in reports:
        px, py = to_px(_apply(emb, _plane(report.point.coeffs)))
        markers.append(_marker_element(_marker_kind(report), px, py))

    text = ET.tostring(svg, encoding="unicode")
    payload = '<?xml version="1.0" encoding="UTF-8"?>\n' + text + "\n"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(payload)
    return str(out)


def _invert(mat):
    a, b = mat[0]
    c, e = mat[1]
    det = a * e - b * c
    return [[e / det, -b / det], [-c / det, a / det]]


def _append_wall(group, alpha, level, emb, box, to_px):
    c = [float(x) for x in _plane(alpha)]
    nrm = c[0] * c[0] + c[1] * c[1]
    # the wall c.x = level: one point on it and its direction, in x coordinates
    x0 = (float(level) * c[0] / nrm, float(level) * c[1] / nrm)
    seg = _clip_parametric(_apply(emb, x0), _apply(emb, (-c[1], c[0])), box)
    if seg is None:
        return
    a, b = to_px(seg[0]), to_px(seg[1])
    line = {"x1": _fmt(a[0]), "y1": _fmt(a[1]), "x2": _fmt(b[0]), "y2": _fmt(b[1])}
    if all(drawn.attrib != line for drawn in group):  # alpha and 2 alpha share walls
        ET.SubElement(group, "line", line)


def _order_polygon(pts):
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    return sorted(pts, key=lambda p: atan2(p[1] - cy, p[0] - cx))
