"""Independent exact arithmetic used to check the library's answers.

Nothing here imports qec.  A Laurent polynomial is a dict {exponent: Fraction}
with no zero values; a quantum-torus element is a dict
{(z_exponent, s_exponent): Fraction} in s-normal form, so c z^a s^b is the key
(a, b).  Multiplication uses s^b z^c = q^(b*c) z^c s^b directly, which is a
different route from the library's coefficient-wise q-shifts.
"""

from __future__ import annotations

from fractions import Fraction


def _clean(d):
    return {k: v for k, v in d.items() if v != 0}


# -- Laurent polynomials --------------------------------------------------------


def lp_mul(f, g):
    out = {}
    for a, x in f.items():
        for b, y in g.items():
            out[a + b] = out.get(a + b, 0) + x * y
    return _clean(out)


def lp_add(f, g):
    out = dict(f)
    for k, v in g.items():
        out[k] = out.get(k, 0) + v
    return _clean(out)


def lp_qshift(f, k, q):
    """f(q^k z)."""
    return {e: c * q ** (k * e) for e, c in f.items()}


def lp_is_unit(f):
    return len(f) == 1


def mat_mul(a, b):
    n = len(a)
    return [
        [lp_sum(lp_mul(a[i][t], b[t][j]) for t in range(n)) for j in range(n)]
        for i in range(n)
    ]


def lp_sum(polys):
    out = {}
    for f in polys:
        out = lp_add(out, f)
    return out


def identity(n):
    return [[{0: Fraction(1)} if i == j else {} for j in range(n)] for i in range(n)]


# -- quantum-torus elements -----------------------------------------------------


def aq_mul(x, y, q):
    out = {}
    for (a, b), c1 in x.items():
        for (c, d), c2 in y.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + c1 * c2 * q ** (b * c)
    return _clean(out)


def aq_add(x, y):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + v
    return _clean(out)


def aq_epsilon(x, q):
    """z -> z, s -> s^-1, reversing products: c z^a s^b -> c q^(-ab) z^a s^-b."""
    return {(a, -b): c * q ** (-a * b) for (a, b), c in x.items()}


def aq_fourier(x, q):
    """z -> s, s -> z^-1: c z^a s^b -> c s^a z^-b = c q^(-ab) z^-b s^a."""
    return {(-b, a): c * q ** (-a * b) for (a, b), c in x.items()}


def s_width(x):
    s = [b for _, b in x]
    return max(s) - min(s)


def z_width(x):
    z = [a for a, _ in x]
    return max(z) - min(z)


def sigma_extreme(x, bottom):
    """The extreme s-coefficient as a Laurent polynomial in z."""
    s = min(b for _, b in x) if bottom else max(b for _, b in x)
    return {a: c for (a, b), c in x.items() if b == s}


def z_extreme_is_unit(x, bottom):
    """Whether the extreme z-coefficient of the z-normal form is a unit of
    K[s, s^-1]; reordering z^a s^b only rescales, so it is one monomial."""
    a0 = min(a for a, _ in x) if bottom else max(a for a, _ in x)
    return sum(1 for a, _ in x if a == a0) == 1


def aq_str(x):
    """The library's text form: terms by (s-exponent, z-exponent)."""
    if not x:
        return "0"
    pieces = []
    for a, b in sorted(x, key=lambda k: (k[1], k[0])):
        c = x[(a, b)]
        pieces.append(_signed(_monomial(abs(c), (("z", a), ("s", b))), c, not pieces))
    return " ".join(pieces)


def _monomial(a, powers):
    parts = []
    if a != 1 or all(k == 0 for _, k in powers):
        parts.append(scalar_str(a))
    for var, k in powers:
        if k == 1:
            parts.append(var)
        elif k != 0:
            parts.append(f"{var}^{k}")
    return "*".join(parts)


def _signed(body, c, first):
    if first:
        return ("-" if c < 0 else "") + body
    return ("- " if c < 0 else "+ ") + body


def scalar_str(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def good_dual(p, q):
    """r = eps(nf) * p0^-1 for the monic normal form nf of sigma-good p."""
    bottom = min(b for _, b in p)
    shifted = aq_mul({(0, -bottom): Fraction(1)}, p, q)
    ((e, c),) = sigma_extreme(shifted, bottom=False).items()
    # left inverse of the unit c z^e s^0 is c^-1 z^-e
    nf = aq_mul({(-e, 0): 1 / c}, shifted, q)
    ((e0, c0),) = sigma_extreme(nf, bottom=True).items()
    return aq_mul(aq_epsilon(nf, q), {(-e0, 0): 1 / c0}, q)


# -- Jordan data ------------------------------------------------------------------


def clebsch_gordan(blocks_a, blocks_b):
    """Jordan blocks of J_a(l) (x) J_b(m) in characteristic 0: sizes
    a + b - 1 - 2k for k < min(a, b), all with eigenvalue l*m."""
    out = []
    for la, a in blocks_a:
        for lb, b in blocks_b:
            out.extend((la * lb, a + b - 1 - 2 * k) for k in range(min(a, b)))
    return sorted(out, key=lambda t: (t[0], -t[1]))
