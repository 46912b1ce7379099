"""
Locating the minimal orbit inside the alcove
============================================

Every datum here has exactly one interior point where the mean curvature
vector vanishes.  The vector field is a sum of cotangent terms, so the
zero is irrational in general.  The solver runs a damped Newton ascent of
the orbit volume in mpmath floating point, rounds the last iterate to a
point with dyadic coordinates, and certifies the mean-curvature norm at
that one point with interval arithmetic.  The search itself carries no
enclosure.
"""

from fractions import Fraction

import hermann

for key, params in [("so_even", {"p": 7, "q": 5}),
                    ("su_sp", {"p": 9, "q": 7}),
                    ("so8_g2", {}),
                    ("isotropy", {"label": "BC1"})]:
    d = hermann.catalog(key, **params)
    m = hermann.find_minimal(d, tolerance=Fraction(1, 10**24))
    print(d.name)
    print("  iterations:", m.iterations)
    coords = ", ".join("%.12f" % float(c) for c in m.point.coeffs)
    print("  point: (%s)" % coords)
    print("  certified norm:", hermann.format_interval(m.norm))

    # sanity: the point really is interior
    assert not hermann.active_roots(d, m.point).union, "landed on a wall"
    print()

# For BC1 with multiplicities 4 and 1 the defining equation is
# 4 cot(pi x) + 2 cot(2 pi x) = 0.  Substituting the double angle gives
# 5 cot(pi x)^2 = 1, hence cos(pi x)^2 = 1/6.
d = hermann.catalog("isotropy", label="BC1", mults={1: 4, 4: 1})
m = hermann.find_minimal(d, tolerance=Fraction(1, 10**30))
x = float(m.point.coeffs[0])
import math
print("BC1 with m1=4, m2=1:")
print("  solver:        x = %.15f" % x)
print("  closed form:   x = %.15f" % (math.acos(math.sqrt(1.0 / 6.0)) / math.pi))
