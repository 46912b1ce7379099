"""Independent cross-checks used to pin expected values in the test suite.

Everything here works over ambient orthonormal coordinates with Fraction
entries (plus mpmath for the two numeric constants), sharing no code with
the package. Run `python tools/oracles.py`; the printed constants are
frozen into tests/ as literals.
"""

from fractions import Fraction as Q
from itertools import combinations

import mpmath


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def smul(c, u):
    return tuple(c * a for a in u)


def reflect(v, a):
    c = Q(2) * dot(a, v) / dot(a, a)
    return vsub(v, smul(c, a))


def basis(n, i):
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


# ---------------------------------------------------------------- root data

def roots_a(r):
    n = r + 1
    roots = [vsub(basis(n, i), basis(n, j)) for i in range(n) for j in range(n) if i != j]
    simple = [vsub(basis(n, i), basis(n, i + 1)) for i in range(r)]
    return roots, simple


def roots_b(r):
    roots = []
    for i in range(r):
        for j in range(i + 1, r):
            for si in (1, -1):
                for sj in (1, -1):
                    roots.append(tuple(si * b1 + sj * b2 for b1, b2 in zip(basis(r, i), basis(r, j))))
    for i in range(r):
        roots.append(basis(r, i))
        roots.append(vneg(basis(r, i)))
    simple = [vsub(basis(r, i), basis(r, i + 1)) for i in range(r - 1)] + [basis(r, r - 1)]
    return roots, simple


def roots_c(r):
    roots, _ = roots_b(r)
    roots = [v for v in roots if dot(v, v) == 2]
    for i in range(r):
        roots.append(smul(Q(2), basis(r, i)))
        roots.append(smul(Q(-2), basis(r, i)))
    simple = [vsub(basis(r, i), basis(r, i + 1)) for i in range(r - 1)] + [smul(Q(2), basis(r, r - 1))]
    return roots, simple


def roots_bc(r):
    roots, simple = roots_b(r)
    for i in range(r):
        roots.append(smul(Q(2), basis(r, i)))
        roots.append(smul(Q(-2), basis(r, i)))
    return roots, simple


def roots_d(r):
    roots = []
    for i in range(r):
        for j in range(i + 1, r):
            for si in (1, -1):
                for sj in (1, -1):
                    roots.append(tuple(si * b1 + sj * b2 for b1, b2 in zip(basis(r, i), basis(r, j))))
    simple = [vsub(basis(r, i), basis(r, i + 1)) for i in range(r - 1)]
    simple.append(tuple(a + b for a, b in zip(basis(r, r - 2), basis(r, r - 1))))
    return roots, simple


def roots_g2():
    short = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
    long_ = [(2, -1, -1), (-1, 2, -1), (1, 1, -2)]
    roots = []
    for v in short + long_:
        roots.append(tuple(Q(x) for x in v))
        roots.append(vneg(tuple(Q(x) for x in v)))
    simple = [tuple(Q(x) for x in (1, -1, 0)), tuple(Q(x) for x in (-1, 2, -1))]
    return roots, simple


FAMILIES = {"A": roots_a, "B": roots_b, "C": roots_c, "BC": roots_bc, "D": roots_d}


def weyl_closure_order(roots, simple):
    """Group order and -id membership via the faithful permutation action on roots."""
    roots = sorted(set(roots))
    idx = {v: i for i, v in enumerate(roots)}
    gens = [tuple(idx[reflect(v, a)] for v in roots) for a in simple]
    ident = tuple(range(len(roots)))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    neg = tuple(idx[vneg(v)] for v in roots)
    return len(seen), neg in seen


# ------------------------------------------------------- exact linear solve

def solve(rows, rhs):
    """Gaussian elimination over Q; returns None if singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        inv = Q(1) / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [m[i][n] for i in range(n)]


def gram_inverse(simple):
    g = [[dot(a, b) for b in simple] for a in simple]
    n = len(simple)
    cols = [solve(g, list(basis(n, i))) for i in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]  # row i, col j


# ------------------------------------------------------------ alcove oracle

def alcove_facets(sectors, simple, plane=None):
    """sectors: list of (phase t in units of pi, [ambient positive roots]).

    Returns (facets, vertices) in the x-coordinates x_i = <alpha_i, H>/pi.
    Facet sense is '<': normal . x < bound, after sign normalization.
    """
    n = len(simple[0])
    slabs = []
    for t, pos in sectors:
        n0 = Q(0) if t >= 0 else Q(-1)
        for a in pos:
            # n0 < a.y + t < n0+1
            slabs.append((a, n0 - t, n0 + 1 - t))
    ineqs = []  # (normal, bound) meaning normal . y < bound
    for a, lo, hi in slabs:
        ineqs.append((vneg(a), -lo))
        ineqs.append((a, hi))
    planes = [plane] if plane is not None else []
    dim = n - len(planes)
    hyper = [(a, b) for a, b in ineqs]
    verts = set()
    for combo in combinations(range(len(hyper)), dim):
        rows = [list(hyper[i][0]) for i in combo] + [list(p) for p in planes]
        rhs = [hyper[i][1] for i in combo] + [Q(0)] * len(planes)
        y = solve(rows, rhs)
        if y is None:
            continue
        if all(dot(a, y) <= b for a, b in ineqs):
            verts.add(tuple(y))
    verts = sorted(verts)
    facets = []
    seen = set()
    for a, b in ineqs:
        tight = [v for v in verts if dot(a, v) == b]
        if affine_rank(tight) != dim - 1:
            continue
        # to x-coordinates: y = M x on the plane, x_i = alpha_i . y
        nx, bx = to_x(a, b, simple, planes, n)
        if (nx, bx) not in seen:
            seen.add((nx, bx))
            facets.append((nx, bx))
    xverts = sorted(tuple(dot(s, v) for s in simple) for v in verts)
    return sorted(facets), xverts


def affine_rank(pts):
    """Dimension of the affine hull, eliminated over Q whatever the entry type."""
    if not pts:
        return -1
    base = pts[0]
    diffs = [[Q(x) for x in vsub(p, base)] for p in pts[1:]]
    rank = 0
    cols = len(base)
    row = 0
    for c in range(cols):
        piv = next((i for i in range(row, len(diffs)) if diffs[i][c] != 0), None)
        if piv is None:
            continue
        diffs[row], diffs[piv] = diffs[piv], diffs[row]
        for i in range(len(diffs)):
            if i != row and diffs[i][c] != 0:
                f = diffs[i][c] / diffs[row][c]
                diffs[i] = [x - f * y for x, y in zip(diffs[i], diffs[row])]
        row += 1
        rank += 1
    return rank


def to_x(a, b, simple, planes, n):
    """Rewrite a.y < b as nx.x < bx where x_i = alpha_i . y."""
    r = len(simple)
    cols = []
    for i in range(r):
        rows = [list(s) for s in simple] + [list(p) for p in planes]
        rhs = [Q(1) if j == i else Q(0) for j in range(r)] + [Q(0)] * len(planes)
        y = solve(rows, rhs)
        cols.append(y)
    nx = tuple(sum(a[k] * cols[i][k] for k in range(n)) for i in range(r))
    # clear denominators, primitive integer normal
    den = 1
    for q in nx:
        den = den * q.denominator // _gcd(den, q.denominator)
    nx = [q * den for q in nx]
    from math import gcd
    g = 0
    for q in nx:
        g = gcd(g, int(q))
    g = g or 1
    nx = tuple(int(q) // g for q in nx)
    return nx, b * den / g


def _gcd(a, b):
    from math import gcd
    return gcd(a, b)


# ---------------------------------------------------- affine closure check

def affine_closure_violations(sectors):
    """Count reflections that take a (root, phase) pair off the sectors.

    sectors: list of (phase t in units of pi, [ambient positive roots]); the
    negative of each root sits at phase -t.  Phases are compared mod 1.  The
    reflection of (b, t) in the wall of (a, s) is (b - k a, t - k s) with
    k = 2 a.b / a.a, and it must again be a pair of the sectors.
    """
    pairs = set()
    for t, pos in sectors:
        for a in pos:
            pairs.add((tuple(a), Q(t) % 1))
            pairs.add((vneg(a), Q(-t) % 1))
    bad = 0
    for a, s in pairs:
        for b, t in pairs:
            k = Q(2) * dot(a, b) / dot(a, a)
            if k.denominator != 1 or (vsub(b, smul(k, a)), (t - k * s) % 1) not in pairs:
                bad += 1
    return bad


# ------------------------------------------------------------------- main

def show_weyl_table():
    print("== weyl orders and -id (family, rank, order, has_minus_id) ==")
    for fam, lo, hi in (("A", 1, 4), ("B", 2, 4), ("BC", 1, 4), ("C", 2, 4), ("D", 2, 4)):
        for r in range(lo, hi + 1):
            roots, simple = FAMILIES[fam](r)
            order, has = weyl_closure_order(roots, simple)
            print(f"  {fam}{r}: order={order} minus_id={has}")
    order, has = weyl_closure_order(*roots_g2())
    print(f"  G2: order={order} minus_id={has}")


def label_counts(family, rank):
    """(rank, roots, shortest roots, roots whose double is a root) of a type.

    G takes rank 2; B1 is roots_b(1), a reduced rank-one system.
    """
    roots, simple = roots_g2() if family == "G" else FAMILIES[family](rank)
    norms = [dot(v, v) for v in roots]
    root_set = set(roots)
    doubled = sum(smul(Q(2), v) in root_set for v in roots)
    return len(simple), len(roots), norms.count(min(norms)), doubled


def show_label_counts():
    print("== label counts (label: rank, roots, shortest, doubled) ==")
    for fam, lo, hi in (("A", 1, 6), ("B", 1, 6), ("BC", 1, 6), ("C", 2, 6), ("D", 2, 6),
                        ("G", 2, 2)):
        for r in range(lo, hi + 1):
            print(f"  {fam}{r}: {label_counts(fam, r)}")


def show_duals():
    print("== gram inverses (dual basis columns in simple coords) ==")
    for name, (roots, simple) in (
        ("BC2", roots_bc(2)),
        ("BC3", roots_bc(3)),
        ("G2", roots_g2()),
    ):
        inv = gram_inverse(simple)
        print(f"  {name}: {inv}")
    # BC2 duals in ambient coordinates
    _, simple = roots_bc(2)
    inv = gram_inverse(simple)
    for i in range(2):
        h = tuple(sum(inv[k][i] * simple[k][j] for k in range(2)) for j in range(2))
        print(f"  BC2 H{i+1} ambient = {h}")


def sectors_so_even(p, q):
    r = (q - 1) // 2
    roots, simple = roots_bc(r)
    pos_b = [v for v in roots if dot(v, v) <= 2 and _pos(v, simple)]
    pos_short = [v for v in roots if dot(v, v) == 1 and _pos(v, simple)]
    pos_bc = [v for v in roots if _pos(v, simple)]
    return simple, [
        (Q(0), pos_bc),          # phase 0, full BC_r
        (Q(1, 2), pos_b),        # phase pi/2, B_r
        (Q(1, 4), pos_short),    # phase pi/4
        (Q(-1, 4), pos_short),   # phase -pi/4
    ]


def sectors_su_sp(p, q):
    r = (q - 1) // 2
    roots, simple = roots_bc(r)
    pos_bc = [v for v in roots if _pos(v, simple)]
    pos_short = [v for v in roots if dot(v, v) == 1 and _pos(v, simple)]
    return simple, [
        (Q(0), pos_bc),
        (Q(1, 2), pos_bc),
        (Q(1, 4), pos_short),
        (Q(-1, 4), pos_short),
    ]


def sectors_g2():
    roots, simple = roots_g2()
    pos = [v for v in roots if _posg(v, simple)]
    pos_short = [v for v in pos if dot(v, v) == 2]
    return simple, [
        (Q(0), pos),
        (Q(1, 3), pos_short),
        (Q(-1, 3), pos_short),
    ]


def _pos(v, simple):
    # coords in the simple basis; positive iff all >= 0
    c = solve([[s2[j] for s2 in simple] for j in range(len(simple))], list(v))
    return all(x >= 0 for x in c) and any(x > 0 for x in c)


def _posg(v, simple):
    rows = [list(s) for s in simple] + [[Q(1), Q(1), Q(1)]]
    c = solve([[rows[k][j] for k in range(3)] for j in range(3)], list(v))
    return c is not None and all(x >= 0 for x in c[:2]) and any(x > 0 for x in c[:2])


def show_alcoves():
    print("== alcove facets and vertices in x coords (normal.x < bound) ==")
    for name, (simple, sectors), plane in (
        ("so_even p=7 q=5 (r=2)", sectors_so_even(7, 5), None),
        ("so_even p=9 q=7 (r=3)", sectors_so_even(9, 7), None),
        ("su_sp  p=9 q=7 (r=3)", sectors_su_sp(9, 7), None),
        ("so8_g2", sectors_g2(), (Q(1), Q(1), Q(1))),
    ):
        facets, verts = alcove_facets(sectors, simple, plane)
        print(f"  {name}:")
        for nx, bx in facets:
            print(f"    {nx} . x < {bx}")
        print(f"    vertices: {verts}")


def show_mean_curvature():
    """Direct ambient summation for so_even(7,5) at x=(1/8,1/16)."""
    mpmath.mp.prec = 400
    simple, sectors = sectors_so_even(7, 5)
    mults = {}
    for t, pos in sectors:
        for a in pos:
            nrm = dot(a, a)
            if t == 0:
                m = 2 if nrm == 2 else (2 if nrm == 1 else 1)  # p-q = 2
            elif t == Q(1, 2):
                m = 2 if nrm == 2 else 2
            else:
                m = 2
            mults[(tuple(a), t)] = m
    x = (Q(1, 8), Q(1, 16))
    # point in ambient coordinates: H/pi = x1*H1 + x2*H2 with <H_i, s_j> = d_ij
    rows = [[dot(si, sj) for sj in simple] for si in simple]
    duals = []
    for i in range(2):
        rhs = [Q(1) if j == i else Q(0) for j in range(2)]
        coeffs = solve(rows, rhs)
        duals.append([sum(c * s[j] for c, s in zip(coeffs, simple)) for j in range(2)])
    u = [sum(xi * h[j] for xi, h in zip(x, duals)) for j in range(2)]
    vec = [mpmath.mpf(0), mpmath.mpf(0)]
    for (a, t), m in mults.items():
        pair = sum(Q(ai) * ui for ai, ui in zip(a, u)) + t
        theta = mpmath.pi * mpmath.mpf(pair.numerator) / pair.denominator
        c = mpmath.cot(theta)
        for j in range(2):
            vec[j] -= m * c * a[j]
    norm = mpmath.sqrt(vec[0] ** 2 + vec[1] ** 2)
    print("== mean curvature norm, so_even(7,5) at x=(1/8,1/16) ==")
    print(" ", mpmath.nstr(norm, 40))


def show_bc1_minimal():
    mpmath.mp.prec = 300
    f = lambda yy: 4 * mpmath.cot(yy) + 2 * mpmath.cot(2 * yy)
    lo, hi = mpmath.mpf("0.1"), mpmath.pi / 2 - mpmath.mpf("0.1")
    for _ in range(400):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    closed = mpmath.atan(mpmath.sqrt(5))
    print("== isotropy BC1 (m=4, m2=1) minimizer y with 4cot y + 2cot 2y = 0 ==")
    print("  bisection y/pi =", mpmath.nstr(root / mpmath.pi, 40))
    print("  closed form atan(sqrt(5))/pi =", mpmath.nstr(closed / mpmath.pi, 40))


if __name__ == "__main__":
    show_weyl_table()
    show_label_counts()
    show_duals()
    show_alcoves()
    show_mean_curvature()
    show_bc1_minimal()
