"""Elements of the quantum torus K<z^±1, s^±1> with s*z = q*z*s.

An element is stored in s-normal form: a map from s-exponent i to a nonzero
Laurent coefficient x_i(z), meaning sum x_i(z) * s^i.  Moving s past a
coefficient shifts the argument: s^i f(z) = f(q^i z) s^i, and symmetrically
z^k f(s) = f(q^-k s) z^k for the z-normal form sum x_k(s) z^k.  The ambient q
comes from the session (scalars module).

Units are exactly the monomials c * z^m * s^n.  An element is "sigma-good"
when both extreme s-coefficients are units of K[z,z^-1], "z-good" when both
extreme z-coefficients (z-normal form) are units of K[s,s^-1].

`parse` splits its text into tokens in one regex pass: a run of decimal
digits (the characters int() reads) or one other non-space character.  One
grammar builds in the ring the text needs: K[z^±1], as LaurentPoly, when
no token is "s" (every text `laurent.laurent_from_str` is given for a
matrix entry), and the quantum torus otherwise.  A monomial atom, and a
power of a monomial, is carried as the triple (c, a, b) = c z^a s^b in
closed form: (c z^a s^b)^n = c^n q^(ab n(n-1)/2) z^(an) s^(bn), and
(c z^a s^b)^-1 = c^-1 q^(ab) z^-a s^-b, with c an int until a Fraction is
needed.  In K[z^±1] a product of two monomials is one more triple,
(c z^a)(d z^e) = cd z^(a+e), since the ring is commutative.  In the torus
a triple becomes an AqElement where it meets a sum or a product, and every
"*" in the text is one AqElement product, so the q-commutation rule has
one statement.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import ParseError, PreconditionViolation
from .laurent import (
    ONE, ZERO, LaurentPoly, _power, _reduced, _terms_to_str, _trim, _trusted, qshift
)
from .scalars import get_q


def _coerce(x):
    if isinstance(x, AqElement):
        return x
    if isinstance(x, LaurentPoly):
        return AqElement({0: x})
    if isinstance(x, (int, Fraction)):
        return AqElement({0: LaurentPoly.const(x)})
    return None


class AqElement:
    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for i, f in coeffs.items():
                # not isinstance(f, Fraction) first: for a LaurentPoly that
                # is an abstract-class miss, many times slower
                if not isinstance(f, LaurentPoly):
                    f = LaurentPoly.const(f)
                if not f.is_zero():
                    c[i] = f
        self._c = c

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero():
        return AqElement()

    @staticmethod
    def one():
        return AqElement({0: ONE})

    @staticmethod
    def from_laurent(f):
        return AqElement({0: f})

    @staticmethod
    def from_sigma_poly(g: LaurentPoly):
        """Interpret a Laurent polynomial in the variable s: sum g_i s^i."""
        return AqElement({i: LaurentPoly.const(c) for i, c in g.terms()})

    @staticmethod
    def monomial(c, zexp=0, sexp=0):
        return AqElement({sexp: LaurentPoly.monomial(c, zexp)})

    @staticmethod
    def sigma(i=1):
        return AqElement({i: ONE})

    # -- structure --------------------------------------------------------

    def is_zero(self):
        return not self._c

    def coefficient(self, i) -> LaurentPoly:
        return self._c.get(i, ZERO)

    def terms(self):
        """(s-exponent, coefficient) pairs sorted by exponent."""
        return sorted(self._c.items())

    def sigma_support(self):
        return sorted(self._c)

    def monomials(self):
        """(z-exp, s-exp, coeff) triples, sorted by (s-exp, z-exp)."""
        out = []
        for i, f in self.terms():
            for j, c in f.terms():
                out.append((j, i, c))
        return out

    # -- arithmetic -------------------------------------------------------

    def _sum(self, other, op):
        """self + other or self - other, by `op` (`LaurentPoly.__add__` or
        `__sub__`) per s-coefficient, with no negated copy of other."""
        other = _coerce(other)
        if other is None:
            return NotImplemented
        c = dict(self._c)
        for i, f in other._c.items():
            g = op(c.get(i, ZERO), f)
            if g.is_zero():
                c.pop(i, None)
            else:
                c[i] = g
        out = AqElement.__new__(AqElement)
        out._c = c
        return out

    def __add__(self, other):
        return self._sum(other, LaurentPoly.__add__)

    __radd__ = __add__

    def __neg__(self):
        out = AqElement.__new__(AqElement)
        out._c = {i: -f for i, f in self._c.items()}
        return out

    def __sub__(self, other):
        return self._sum(other, LaurentPoly.__sub__)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc = {}
        for i, f in self._c.items():
            for j, g in other._c.items():
                # s^i g(z) = g(q^i z) s^i
                piece = f * qshift(g, i)
                if piece.is_zero():
                    continue
                k = i + j
                cur = acc.get(k)
                acc[k] = piece if cur is None else cur + piece
        out = AqElement.__new__(AqElement)
        out._c = {k: f for k, f in acc.items() if not f.is_zero()}
        return out

    def __rmul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise PreconditionViolation("integer powers only")
        if n < 0:
            return self.inverse_unit() ** (-n)
        return _power(self, n, AqElement.one())

    def is_unit(self):
        if len(self._c) != 1:
            return False
        (f,) = self._c.values()
        return f.is_unit()

    def inverse_unit(self):
        """(c z^m s^n)^-1 = c^-1 q^{nm} z^-m s^-n; error if not a unit."""
        if len(self._c) != 1:
            raise PreconditionViolation(f"not a unit: {self}")
        ((n, f),) = self._c.items()
        u = f.unit_decompose()
        if u is None:
            raise PreconditionViolation(f"not a unit: {self}")
        c, m = u
        return AqElement({-n: LaurentPoly.monomial(get_q() ** (n * m) / c, -m)})

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        if len(self._c) > 1 or any(self._c.keys()):
            return hash(tuple(self.terms()))
        # equal to its s^0 coefficient, and so to a scalar when that is one
        return hash(self.coefficient(0))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Aq({to_str(self)})"

    def __str__(self):
        return to_str(self)


# -- the two anti/automorphisms --------------------------------------------


def epsilon(x: AqElement) -> AqElement:
    """Anti-automorphism with z |-> z, s |-> s^-1 (an involution)."""
    return AqElement({-i: qshift(f, -i) for i, f in x._c.items()})


def fourier(x: AqElement) -> AqElement:
    """Automorphism with z |-> s, s |-> z^-1; its fourth power is the identity.

    c z^j s^i |-> c s^j z^-i = c q^(-ij) z^-i s^j, so the coefficient of s^j
    in the image has the coefficient of z^j of qshift(x_i, -i) at z^-i: the
    rows qshift(x_i, -i), i from the top down, transposed.  Each (i, j)
    occurs once in x, and each column j taken holds a nonzero entry.  The
    rows are brought to one denominator first, so a column is numerators
    over it, reduced once."""
    if x.is_zero():
        return x
    top, bot = max(x._c), min(x._c)
    rows = [qshift(x.coefficient(i), -i) for i in range(top, bot - 1, -1)]
    den = lcm(*[f.den for f in rows])
    columns = {}
    for r, f in enumerate(rows):
        scale = den // f.den
        for j, n in enumerate(f.nums, f.lo):
            if n:
                column = columns.get(j)
                if column is None:
                    column = columns[j] = [0] * len(rows)
                column[r] = n * scale
    out = AqElement.__new__(AqElement)
    out._c = {j: _reduced(*_trim(-top, column), den) for j, column in columns.items()}
    return out


def sigma_conj(x: AqElement, k: int) -> AqElement:
    """s^k x s^-k: coefficients q-shift by k, s-exponents unchanged."""
    return AqElement({i: qshift(f, k) for i, f in x._c.items()})


# -- z-normal form ----------------------------------------------------------
#
# fourier sends x_k(s) z^k to x_k(z^-1) s^k, so it carries the z-normal form
# to the s-normal form: z-widths become s-widths.


def _reflect(f: LaurentPoly) -> LaurentPoly:
    """f(z^-1)."""
    if not f.nums:
        return f
    return _trusted(1 - f.lo - len(f.nums), f.nums[::-1], f.den)


def to_z_form(x: AqElement) -> dict[int, LaurentPoly]:
    """{k: x_k(s)} with x = sum x_k(s) z^k; coefficients are polys in s."""
    return {k: _reflect(f) for k, f in fourier(x).terms()}


def from_z_form(zf: dict[int, LaurentPoly]) -> AqElement:
    """Inverse of to_z_form: fourier sends g(z) s^-k to g(s) z^k."""
    return fourier(AqElement({-k: g for k, g in zf.items()}))


# -- degrees and goodness ----------------------------------------------------


class Degrees(NamedTuple):
    deg_sigma: int
    deg_z: int
    sigma_good: bool
    z_good: bool


def degrees(x: AqElement):
    """Degree/goodness summary, or None for the zero element.

    deg_sigma and deg_z are support widths (additive under multiplication
    since the algebra is a domain); goodness asks the extreme coefficients of
    the respective normal form to be units.
    """
    if x.is_zero():
        return None
    support = x.sigma_support()
    deg_sigma = support[-1] - support[0]
    zlo = min(f.bot for f in x._c.values())
    zhi = max(f.top for f in x._c.values())
    deg_z = zhi - zlo
    sigma_good = x._c[support[0]].is_unit() and x._c[support[-1]].is_unit()
    # extreme z-coefficients are units of K[s,s^-1] iff exactly one s-slot
    # contributes each extreme z-exponent; ends are nonzero, so a slot
    # reaches zlo (zhi) iff it starts (ends) there
    z_good = (
        sum(1 for f in x._c.values() if f.lo == zlo) == 1
        and sum(1 for f in x._c.values() if f.lo + len(f.nums) - 1 == zhi) == 1
    )
    return Degrees(deg_sigma, deg_z, sigma_good, z_good)


def good_normal_coeffs(p: AqElement):
    """For sigma-good p of width t, the unit u with u*p = p_0 + ... + s^t
    (top coefficient 1, p_0 a unit).  Returns (u, [p_0, ..., p_{t-1}])."""
    d = degrees(p)
    if d is None or not d.sigma_good:
        raise PreconditionViolation("normal form requires a sigma-good element")
    support = p.sigma_support()
    m, t = support[0], d.deg_sigma
    shifted = {i - m: qshift(f, -m) for i, f in p._c.items()}
    topinv = shifted[t].inverse_unit()
    coeffs = [topinv * shifted.get(i, ZERO) for i in range(t)]
    u = AqElement({-m: topinv})
    return u, coeffs


def unit_normalize(x: AqElement) -> AqElement:
    """Canonical representative of the left-unit orbit {c z^k s^m * x}.

    Lowest s-exponent and lowest z-exponent are moved to 0 and the first
    monomial (in (s,z) order) gets coefficient 1; two elements generate equal
    principal left ideals by a unit iff they normalize identically.
    """
    if x.is_zero():
        return x
    m = x.sigma_support()[0]
    y = AqElement.sigma(-m) * x
    k = min(f.bot for f in y._c.values())
    c0 = y._c[0].coeff(y._c[0].bot)
    return AqElement.monomial(1 / c0, -k) * y


# -- division -----------------------------------------------------------------


def sigma_divide(r: AqElement, w: AqElement, bottom: bool = False):
    """Left division in s-normal form: returns (g, h, rem) with g in K[z,z^-1],
    g*r = h*w + rem, and deg_sigma(rem) < deg_sigma(w).

    Default eliminates from the top s-exponent; bottom=True mirrors from the
    bottom.  g is a product of shifts of the eliminated extreme coefficient of
    w, hence a unit whenever that coefficient is a unit.  Zero dividend gives
    (1, 0, 0).
    """
    if w.is_zero():
        raise PreconditionViolation("division by zero")
    if r.is_zero():
        return ONE, AqElement.zero(), AqElement.zero()
    dw = degrees(w).deg_sigma
    if degrees(r).deg_sigma < dw:
        raise PreconditionViolation("divisor has larger sigma-degree than dividend")
    wsup = w.sigma_support()
    k = wsup[0] if bottom else wsup[-1]
    wk = w.coefficient(k)
    g_total = ONE
    h_total = AqElement.zero()
    cur = r
    while not cur.is_zero():
        csup = cur.sigma_support()
        if csup[-1] - csup[0] < dw:
            break
        l = csup[0] if bottom else csup[-1]
        factor = qshift(wk, l - k)
        piece = AqElement({l - k: cur.coefficient(l)})
        cur = factor * cur - piece * w
        g_total = factor * g_total
        h_total = factor * h_total + piece
    return g_total, h_total, cur


def z_divide(r: AqElement, w: AqElement, bottom: bool = False):
    """Mirror of sigma_divide in z-normal form: (g, h, rem) with g in K[s,s^-1]
    (returned as a Laurent polynomial in s), g*r = h*w + rem and
    deg_z(rem) < deg_z(w).

    This is sigma_divide on the fourier images, pulled back along
    fourier^-1, which sends y_j(z) s^j to y_j(s^-1) z^j."""
    if w.is_zero():
        raise PreconditionViolation("division by zero")
    if r.is_zero():
        return ONE, AqElement.zero(), AqElement.zero()
    dw = degrees(w).deg_z
    if degrees(r).deg_z < dw:
        raise PreconditionViolation("divisor has larger z-degree than dividend")
    g, h, rem = sigma_divide(fourier(r), fourier(w), bottom)

    def back(y):
        return from_z_form({j: _reflect(f) for j, f in y.terms()})

    return _reflect(g), back(h), back(rem)


# -- text form ----------------------------------------------------------------


def to_str(x: AqElement) -> str:
    """s-normal form, terms by increasing s-exponent, coefficients by
    increasing z-exponent.  Round-trips through parse()."""
    return _terms_to_str((c, (("z", zj), ("s", si))) for zj, si, c in x.monomials())


# widest support, s-width plus z-width, that `parse` expands a power or a
# product of non-monomials to; past it that is a ParseError, not a long
# expansion
POWER_WIDTH_LIMIT = 32
# largest coefficient, in bits of numerator or denominator, that `parse`
# lets a power of a monomial reach; past it the power is a ParseError.  The
# count is floor(log2) of the heights, at most log2(3) times too small, so a
# coefficient in the limit prints in fewer than 4,000 digits.
POWER_BITS_LIMIT = 1 << 13
# widest z-span, top z-exponent minus bottom plus one, that `parse` lets a
# sum build at one s-exponent; a coefficient is stored densely, so past it
# the sum is a ParseError, not a gap of zeros the size of the span
SPAN_LIMIT = 1 << 20


def _height_bits(c) -> int:
    """floor(log2) of the height max(|num|, den) of a rational: 0 for +-1."""
    return max(abs(c.numerator), c.denominator).bit_length() - 1


def _width(x) -> int:
    """s-width plus z-width of a nonzero x, an AqElement or a LaurentPoly
    (s-width 0)."""
    if type(x) is LaurentPoly:
        return len(x.nums) - 1
    d = degrees(x)
    return d.deg_sigma + d.deg_z


def _span(f: LaurentPoly, g: LaurentPoly) -> int:
    """z-span, top z-exponent minus bottom plus one, of f + g for nonzero f
    and g."""
    return max(f.lo + len(f.nums), g.lo + len(g.nums)) - min(f.lo, g.lo)


def _sum_span(x, y) -> int:
    """Widest z-span of x + y at an s-exponent where both x and y have a
    coefficient (0 if there is none); x and y are both AqElements or both
    LaurentPolys, which hold only s-exponent 0."""
    if type(x) is LaurentPoly:
        return _span(x, y) if x.nums and y.nums else 0
    span = 0
    for i, g in y._c.items():
        f = x._c.get(i)
        if f is not None:
            span = max(span, _span(f, g))
    return span


def _monomial_power_bits(c, a, b, e: int) -> int:
    """Bits of the coefficient of (c z^a s^b)^e = c^e q^(a b e(e-1)/2)
    z^(a e) s^(b e), counted from the heights of c and q, without forming
    it (e >= 0)."""
    bits = e * _height_bits(c)
    if a and b:
        bits += abs(a * b) * (e * (e - 1) // 2) * _height_bits(get_q())
    return bits


def _product_power_bits(x: AqElement, y: AqElement) -> int:
    """Bits of the largest power of q that x * y forms, counted from the
    height of q without forming it: s^i of x moved past z^j of y collects
    q^(i j), so the largest |s-exponent| of x times the largest
    |z-exponent| of y bounds it (0 if either is zero)."""
    if not any(x._c):  # the common c * z^a: no s to move past
        return 0
    i = max(map(abs, x._c))
    j = max((max(-f.lo, f.lo + len(f.nums) - 1) for f in y._c.values()), default=0)
    return i * j * _height_bits(get_q())


def _reciprocal(c):
    """1/c for a nonzero int or Fraction c: an int when it is one."""
    n, d = c.numerator, c.denominator
    if n == 1 or n == -1:
        return n * d
    return Fraction(d, n)


def _poly(x) -> LaurentPoly:
    """x as a LaurentPoly; the parser carries a monomial c z^a as the triple
    (c, a, 0)."""
    if type(x) is not tuple:
        return x
    c, a, _ = x
    return _trusted(a, (c.numerator,), c.denominator) if c else ZERO


def _element(x) -> AqElement:
    """x as an AqElement; the parser carries a monomial c z^a s^b as the
    triple (c, a, b)."""
    if type(x) is not tuple:
        return x
    c, a, b = x
    out = AqElement.__new__(AqElement)
    out._c = {b: _trusted(a, (c.numerator,), c.denominator)} if c else {}
    return out


# one token: a run of decimal digits (exactly the characters int() reads) or
# one other character, after any white space; "" at the end of the text
_TOKEN = re.compile(r"\s*(\d+|\S|$)")


class _Parser:
    """Recursive descent for:  expr := term {(+|-) term};
    term := factor {"*" factor}; factor := ["-"] atom ["^" sint];
    atom := "z" | "s" | "q" | rational | "(" expr ")".

    The text is split into tokens once, and `tok[i]` is the next one.  The
    ring is chosen from the tokens: K[z^±1], as LaurentPoly, when no token
    is "s", and the quantum torus, as AqElement, otherwise.  The grammar,
    the limits and the errors are the same in both.  A monomial atom, or a
    power of one, is a triple (c, a, b) = c z^a s^b, with b = 0 in
    K[z^±1], and its coefficient stays an int until a Fraction is needed.
    In K[z^±1] a product of two monomials is the triple (c d, a + e, 0):
    the ring is commutative.  In the quantum torus a triple becomes an
    AqElement where it meets a sum or a product, and every "*" is one
    AqElement product, so the q-commutation rule keeps its one statement.

    A ParseError points at the start of the token that does not fit, or,
    after `after=True`, at the end of the last token taken."""

    def __init__(self, text):
        self.text = text
        self.tok = _TOKEN.findall(text)
        self.i = 0
        self.laurent = "s" not in self.tok
        self.element = _poly if self.laurent else _element

    def error(self, msg, after=False):
        # offsets are found only here, by a second pass of the same regex
        spans = [m.span(1) for m in _TOKEN.finditer(self.text)]
        raise ParseError(msg, spans[self.i - 1][1] if after else spans[self.i][0])

    def integer(self):
        t = self.tok[self.i]
        if not t.isdecimal():
            self.error("expected integer")
        try:
            n = int(t)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            self.error(f"integer of {len(t)} digits is too long")
        self.i += 1
        return n

    def sint(self):
        if self.tok[self.i] == "-":
            self.i += 1
            return -self.integer()
        return self.integer()

    def expr(self):
        x = self.term()
        tok, element = self.tok, self.element
        while (op := tok[self.i]) == "+" or op == "-":
            self.i += 1
            x, y = element(x), element(self.term())
            span = _sum_span(x, y)
            if span > SPAN_LIMIT:
                self.error(
                    f"sum reaches z-span {span}, past the limit {SPAN_LIMIT}", after=True
                )
            x = x + y if op == "+" else x - y
        return x

    def term(self):
        x = self.factor()
        tok, element = self.tok, self.element
        while tok[self.i] == "*":
            self.i += 1
            y = self.factor()
            if self.laurent and type(x) is tuple and type(y) is tuple:
                # c z^a * d z^e = c d z^(a + e)
                x = (x[0] * y[0], x[1] + y[1], 0)
                continue
            x, y = element(x), element(y)
            # errors point past y: at the end of its exponent, or, if y ends
            # in ")", at the next token, where the look for "^" ended
            if not (x.is_zero() or x.is_unit() or y.is_zero() or y.is_unit()):
                # x^e is a product of e copies, so a product has the same cap
                width = _width(x) + _width(y)
                if width > POWER_WIDTH_LIMIT:
                    self.error(
                        f"product of non-monomials reaches width {width},"
                        f" past the limit {POWER_WIDTH_LIMIT}",
                        after=tok[self.i - 1] != ")",
                    )
            if not self.laurent:
                bits = _product_power_bits(x, y)
                if bits > POWER_BITS_LIMIT:
                    self.error(
                        f"product forms a power of q of about {bits} bits,"
                        f" past the limit {POWER_BITS_LIMIT}",
                        after=tok[self.i - 1] != ")",
                    )
            x = x * y
        return x

    def factor(self):
        tok = self.tok
        neg = tok[self.i] == "-"
        if neg:
            self.i += 1
        x = self.atom()
        if tok[self.i] == "^":
            self.i += 1
            e = self.sint()
            if type(x) is not tuple and x.is_unit():
                if self.laurent:
                    x = (*x.unit_decompose(), 0)
                else:
                    ((b, f),) = x._c.items()
                    x = (*f.unit_decompose(), b)
            if type(x) is tuple:
                c, a, b = x
                if e < 0:
                    if not c:
                        self.error("negative power of a non-unit", after=True)
                    # (c z^a s^b)^-1 = c^-1 q^(ab) z^-a s^-b
                    k = a * b
                    c, a, b, e = get_q() ** k / c if k else _reciprocal(c), -a, -b, -e
                bits = _monomial_power_bits(c, a, b, e)
                if bits > POWER_BITS_LIMIT:
                    self.error(
                        f"power of a monomial reaches a coefficient of about"
                        f" {bits} bits, past the limit {POWER_BITS_LIMIT}",
                        after=True,
                    )
                if e != 1:
                    # s^b z^a = q^(ab) z^a s^b, so moving every z of the e
                    # copies left past the s's collects q^(ab e(e-1)/2)
                    k = a * b * (e * (e - 1) // 2)
                    x = (c**e * get_q() ** k if k else c**e), a * e, b * e
                else:
                    x = c, a, b
            else:
                if e < 0:
                    self.error("negative power of a non-unit", after=True)
                if e > 1 and not x.is_zero():
                    width = e * _width(x)
                    if width > POWER_WIDTH_LIMIT:
                        self.error(
                            f"power of a non-monomial reaches width {width},"
                            f" past the limit {POWER_WIDTH_LIMIT}",
                            after=True,
                        )
                x = x**e
        if not neg:
            return x
        if type(x) is tuple:
            return (-x[0], x[1], x[2])
        return -x

    def atom(self):
        t = self.tok[self.i]
        if t == "(":
            self.i += 1
            x = self.expr()
            if self.tok[self.i] != ")":
                self.error("expected ')'")
            self.i += 1
            return x
        if t == "z":
            self.i += 1
            return (1, 1, 0)
        if t == "s":
            self.i += 1
            return (1, 0, 1)
        if t == "q":
            self.i += 1
            return (get_q(), 0, 0)
        if t.isdecimal():
            num = self.integer()
            if self.tok[self.i] == "/":
                self.i += 1
                den = self.integer()
                if den == 0:
                    self.error("zero denominator", after=True)
                return (Fraction(num, den), 0, 0)
            return (num, 0, 0)
        self.error("expected atom")

    def parse(self):
        """The element the text denotes, in the parser's ring."""
        x = self.expr()
        if self.tok[self.i]:
            self.error("unexpected trailing input")
        return self.element(x)


def parse(text: str) -> AqElement:
    """Parse an expression in z, s, q and rationals into s-normal form.
    q resolves to the ambient session value.  ParseError for a power of a
    non-monomial, or a product of two non-monomials, whose support would be
    wider than POWER_WIDTH_LIMIT, for a power of a monomial whose
    coefficient would need more than POWER_BITS_LIMIT bits, for a product
    that would form a power of q of more bits than that, and for a sum
    whose z-span at one s-exponent would pass SPAN_LIMIT.  A text with no
    "s" is built in K[z^±1] and taken into the torus at the end."""
    x = _Parser(text).parse()
    return AqElement.from_laurent(x) if type(x) is LaurentPoly else x
