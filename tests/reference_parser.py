"""The character-level recursive-descent parser that `qec.aq.parse`
replaced, kept as a test oracle.

`qec.aq._Parser` splits the text into tokens once and carries monomials in
closed form; this one reads a character at a time and forms every atom and
power as an `AqElement`.  Both must give the same element, or the same
`ParseError` message and position.  The one known difference: this parser
tests digits with `str.isdigit`, so on a digit that `int()` does not read,
such as a superscript, it raises `ValueError`; so it does on a run of more
digits than `int()` converts (`sys.get_int_max_str_digits()`).
"""

from fractions import Fraction

from qec.aq import POWER_BITS_LIMIT, POWER_WIDTH_LIMIT, AqElement, _height_bits, _width
from qec.errors import ParseError
from qec.scalars import get_q


def _monomial_power_bits(x, e):
    """Bits of the coefficient of (c z^a s^b)^e = c^e q^(a b e(e-1)/2)
    z^(a e) s^(b e), counted from the heights of c and q, without forming
    it (e >= 0)."""
    ((a, b, c),) = x.monomials()
    return e * _height_bits(c) + abs(a * b) * (e * (e - 1) // 2) * _height_bits(get_q())


def _product_power_bits(x, y):
    """Bits of q^(i j) for the largest |s-exponent| i of x and the largest
    |z-exponent| j of y: the largest power of q that x * y forms."""
    i = max((abs(b) for _, b, _ in x.monomials()), default=0)
    j = max((abs(a) for a, _, _ in y.monomials()), default=0)
    return i * j * _height_bits(get_q())


class _Parser:
    """Recursive descent for:  expr := term {(+|-) term};
    term := factor {"*" factor}; factor := ["-"] atom ["^" sint];
    atom := "z" | "s" | "q" | rational | "(" expr ")"."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected integer")
        return int(self.text[start : self.pos])

    def sint(self):
        neg = self.take("-")
        n = self.integer()
        return -n if neg else n

    def expr(self):
        x = self.term()
        while True:
            if self.take("+"):
                x = x + self.term()
            elif self.take("-"):
                x = x - self.term()
            else:
                return x

    def term(self):
        x = self.factor()
        while self.take("*"):
            y = self.factor()
            if not any(f.is_zero() or f.is_unit() for f in (x, y)):
                # x^e is a product of e copies, so a product has the same cap
                width = _width(x) + _width(y)
                if width > POWER_WIDTH_LIMIT:
                    self.error(
                        f"product of non-monomials reaches width {width},"
                        f" past the limit {POWER_WIDTH_LIMIT}"
                    )
            bits = _product_power_bits(x, y)
            if bits > POWER_BITS_LIMIT:
                self.error(
                    f"product forms a power of q of about {bits} bits,"
                    f" past the limit {POWER_BITS_LIMIT}"
                )
            x = x * y
        return x

    def factor(self):
        neg = self.take("-")
        x = self.atom()
        if self.take("^"):
            e = self.sint()
            if e < 0:
                if not x.is_unit():
                    self.error("negative power of a non-unit")
                x, e = x.inverse_unit(), -e
            if x.is_unit():
                bits = _monomial_power_bits(x, e)
                if bits > POWER_BITS_LIMIT:
                    self.error(
                        f"power of a monomial reaches a coefficient of about"
                        f" {bits} bits, past the limit {POWER_BITS_LIMIT}"
                    )
            elif e > 1 and not x.is_zero():
                width = e * _width(x)
                if width > POWER_WIDTH_LIMIT:
                    self.error(
                        f"power of a non-monomial reaches width {width},"
                        f" past the limit {POWER_WIDTH_LIMIT}"
                    )
                # x^e forms q^(i j) for each pair of its e copies
                bits = _product_power_bits(x, x) * (e * (e - 1) // 2)
                if bits > POWER_BITS_LIMIT:
                    self.error(
                        f"power of a non-monomial forms a power of q of about {bits}"
                        f" bits, past the limit {POWER_BITS_LIMIT}"
                    )
            x = x**e
        return -x if neg else x

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.take("(")
            x = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return x
        if ch == "z":
            self.pos += 1
            return AqElement.monomial(1, zexp=1)
        if ch == "s":
            self.pos += 1
            return AqElement.sigma(1)
        if ch == "q":
            self.pos += 1
            return AqElement.monomial(get_q())
        if ch.isdigit():
            num = self.integer()
            if self.take("/"):
                den = self.integer()
                if den == 0:
                    self.error("zero denominator")
                return AqElement.monomial(Fraction(num, den))
            return AqElement.monomial(Fraction(num))
        self.error("expected atom")

    def parse(self):
        x = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return x


def reference_parse(text):
    return _Parser(text).parse()
