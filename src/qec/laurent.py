"""Laurent polynomials over Q and square matrices of them.

A LaurentPoly stores the lowest exponent `lo` and a tuple of `Fraction`
coefficients whose first and last entries are nonzero; the zero polynomial
is the empty tuple with lo = 0.  Units of the ring are exactly the monomials
c*z^m.  The q-shift f(z) |-> f(q^k z) reads q from the ambient session (see
scalars).

The public constructor `LaurentPoly(lo, coeffs)` converts and trims any
int/`Fraction` input.  The arithmetic builds its results with `_trusted`,
which checks nothing, because the canonical form is preserved by theorem:

- Q[z] is a domain, so the end coefficients of a product are the products
  of the end coefficients of its factors, and those are nonzero;
- `qshift` scales the coefficient of z^i by q^(k i), and q != 0;
- `shift`, negation and a product by a nonzero scalar keep every zero and
  every nonzero coefficient where it is;
- the exact quotient h = f/g of `divexact` has ends f_bot/g_bot and
  f_top/g_top, nonzero since the ends of f are.

Only a sum or a difference can cancel at an end; `_trim` trims it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add as plus, sub as minus

from .errors import PreconditionViolation, ZeroInput
from .scalars import get_q, scalar_to_str

_F0 = Fraction(0)


def _as_scalar(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not a scalar: {c!r}")


def _trusted(lo, coeffs):
    """The LaurentPoly with these fields, unchecked: `coeffs` is a tuple of
    `Fraction`s with nonzero ends, or () with lo = 0."""
    f = object.__new__(LaurentPoly)
    f.lo = lo
    f.coeffs = coeffs
    return f


def _trim(lo, coeffs):
    """The canonical (lo, coeffs) of a tuple of `Fraction`s whose ends may
    be zero."""
    start, end = 0, len(coeffs)
    while start < end and not coeffs[start]:
        start += 1
    if start == end:
        return 0, ()
    while not coeffs[end - 1]:
        end -= 1
    return lo + start, coeffs[start:end]


def _convolve(a, b):
    """The coefficients of the product of two coefficient tuples with
    nonzero ends, by one integer convolution: a = A/da and b = B/db with
    integer A, B and the common denominators da, db, so a*b = (A*B)/(da*db).
    One `Fraction` is built per output coefficient."""
    da = lcm(*[x.denominator for x in a])
    db = lcm(*[y.denominator for y in b])
    A = [x.numerator * (da // x.denominator) for x in a]
    B = [y.numerator * (db // y.denominator) for y in b]
    out = [0] * (len(A) + len(B) - 1)
    for i, x in enumerate(A):
        if x:
            for j, y in enumerate(B, i):
                out[j] += x * y
    d = da * db
    return tuple([Fraction(n, d) for n in out])


def _sum(f, g, sub):
    """f + g, or f - g when `sub`, with no negated copy of g.

    The lower operand's coefficients are copied, and the other's are added
    (or subtracted) where the supports overlap and appended past its end.
    For a difference only the cells that are g's alone are negated.
    Disjoint supports are joined by zeros and cannot cancel; an overlap can
    cancel at either end, so that result is trimmed."""
    a, b = f.coeffs, g.coeffs
    if not b:
        return f
    if not a:
        return -g if sub else g
    if f.lo <= g.lo:
        lo, off, neg_low, neg_high = f.lo, g.lo - f.lo, False, sub
        op = minus if sub else plus
    else:
        # g is the lower operand: an overlap cell is f's minus g's
        lo, off, neg_low, neg_high, a, b = g.lo, f.lo - g.lo, sub, False, b, a
        op = _rminus if sub else plus
    gap = off - len(a)
    if gap >= 0:
        return _trusted(lo, _signed(a, neg_low) + (_F0,) * gap + _signed(b, neg_high))
    out = list(a)
    for i, c in enumerate(b[:-gap], off):
        out[i] = op(out[i], c)
    out.extend(_signed(b[-gap:], neg_high))
    if neg_low:
        # g's cells below f and, when g reaches further, above it
        out[:off] = _signed(a[:off], True)
        end = off + len(b)
        out[end : len(a)] = _signed(a[end:], True)
    return _trusted(*_trim(lo, tuple(out)))


def _signed(coeffs, neg):
    return tuple([-c for c in coeffs]) if neg else coeffs


def _rminus(x, y):
    return y - x


def _power(x, n, one):
    """x**n for an int n >= 0 (`one` for n = 0), by square-and-multiply from
    the top bit of n down: n.bit_length() - 1 squarings and popcount(n) - 1
    other products, so nothing is squared past the last bit."""
    if not n:
        return one
    result = x
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * x
    return result


class LaurentPoly:
    __slots__ = ("lo", "coeffs")

    def __init__(self, lo=0, coeffs=()):
        self.lo, self.coeffs = _trim(lo, tuple([_as_scalar(c) for c in coeffs]))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero():
        return LaurentPoly()

    @staticmethod
    def const(c):
        return LaurentPoly(0, (c,))

    @staticmethod
    def monomial(c, k):
        return LaurentPoly(k, (c,))

    # -- structure --------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    @property
    def bot(self):
        """Lowest exponent with nonzero coefficient (zero poly has none)."""
        if not self.coeffs:
            raise ZeroInput("zero polynomial has no degree")
        return self.lo

    @property
    def top(self):
        if not self.coeffs:
            raise ZeroInput("zero polynomial has no degree")
        return self.lo + len(self.coeffs) - 1

    def degree(self):
        """Width top - bot of the support."""
        return self.top - self.bot

    def coeff(self, k):
        if self.lo <= k < self.lo + len(self.coeffs):
            return self.coeffs[k - self.lo]
        return Fraction(0)

    def terms(self):
        """(exponent, coefficient) pairs, increasing exponent, nonzero only."""
        return [(self.lo + i, c) for i, c in enumerate(self.coeffs) if c != 0]

    def unit_decompose(self):
        """(c, m) with self = c*z^m if self is a unit, else None.  The ends
        are nonzero, so the units are the one-coefficient polynomials."""
        if len(self.coeffs) == 1:
            return (self.coeffs[0], self.lo)
        return None

    def is_unit(self):
        return len(self.coeffs) == 1

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(other)
        return _sum(self, other, False)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.lo, tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _sum(self, other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return ZERO
            lo = self.lo + other.lo
            if len(a) == 1:
                c = a[0]
                if len(b) == 1:
                    return _trusted(lo, (c * b[0],))
                return _trusted(lo, tuple([c * y for y in b]))
            if len(b) == 1:
                c = b[0]
                return _trusted(lo, tuple([x * c for x in a]))
            return _trusted(lo, _convolve(a, b))
        if isinstance(other, (int, Fraction)):
            if not other:
                return ZERO
            # int * Fraction is a Fraction
            return _trusted(self.lo, tuple([other * x for x in self.coeffs]))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PreconditionViolation("LaurentPoly powers must be nonneg ints")
        return _power(self, n, ONE)

    def shift(self, k):
        """Multiply by z^k."""
        if not self.coeffs:
            return self
        return _trusted(self.lo + k, self.coeffs)

    def inverse_unit(self):
        """Inverse of a unit c*z^m; PreconditionViolation otherwise."""
        u = self.unit_decompose()
        if u is None:
            raise PreconditionViolation(f"not a unit: {self}")
        c, m = u
        return _trusted(-m, (1 / c,))

    def eval(self, x):
        """Evaluate at a nonzero scalar (zero allowed when lo >= 0)."""
        x = _as_scalar(x)
        if x == 0:
            if self.is_zero():
                return Fraction(0)
            if self.lo < 0:
                raise ZeroInput("cannot evaluate negative exponents at 0")
            return self.coeff(0)
        total = Fraction(0)
        for k, c in self.terms():
            total += c * x**k
        return total

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.lo == other.lo and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.lo, self.coeffs))

    def __repr__(self):
        return f"LaurentPoly({self})"

    def __str__(self):
        return laurent_to_str(self)

    def __bool__(self):
        return not self.is_zero()


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.const(1)
Z = LaurentPoly.monomial(1, 1)


def qshift(f: LaurentPoly, k: int) -> LaurentPoly:
    """f(q^k z) for the ambient q; a ring automorphism for each k.  A
    constant is fixed, and q^k is not formed for it: s^k c = c s^k for any
    k, however large."""
    coeffs, lo = f.coeffs, f.lo
    if k == 0 or not coeffs or (lo == 0 and len(coeffs) == 1):
        return f
    q = get_q()
    # the coefficient of z^(lo + i) is scaled by q^(k (lo + i))
    scale = q ** (k * lo)
    if len(coeffs) == 1:
        return _trusted(lo, (coeffs[0] * scale,))
    step = q**k
    out = [coeffs[0] * scale]
    for c in coeffs[1:]:
        scale *= step
        out.append(c * scale)
    return _trusted(lo, tuple(out))


def divexact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact quotient f/g; PreconditionViolation if g does not divide f."""
    if g.is_zero():
        raise ZeroInput("division by zero polynomial")
    if f.is_zero():
        return ZERO
    offset = f.lo - g.lo
    div = g.coeffs
    if len(div) == 1:
        # a unit divides everything
        c = div[0]
        return _trusted(offset, tuple([x / c for x in f.coeffs]))
    # reduce to ordinary polynomials with nonzero constant terms
    rem = list(f.coeffs)
    out = [Fraction(0)] * (len(rem) - len(div) + 1)
    if len(out) <= 0:
        raise PreconditionViolation("inexact Laurent division (degree)")
    lead = div[-1]
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + len(div) - 1] / lead
        out[i] = c
        if c != 0:
            for j, d in enumerate(div):
                rem[i + j] -= c * d
    if any(r != 0 for r in rem):
        raise PreconditionViolation("inexact Laurent division (remainder)")
    return _trusted(offset, tuple(out))


# -- printing -------------------------------------------------------------


def _terms_to_str(terms) -> str:
    """Signed sum of nonzero terms (c, ((var, exp), ...)): |c| is omitted
    when it is 1 and some exponent is not 0, var^1 prints as var and var^0
    not at all.  No terms print as 0."""
    pieces = []
    for c, powers in terms:
        parts = [var if k == 1 else f"{var}^{k}" for var, k in powers if k != 0]
        a = abs(c)
        if a != 1 or not parts:
            parts.insert(0, scalar_to_str(a))
        if c < 0:
            pieces.append(("- " if pieces else "-") + "*".join(parts))
        else:
            pieces.append(("+ " if pieces else "") + "*".join(parts))
    return " ".join(pieces) or "0"


def laurent_to_str(f: LaurentPoly, var: str = "z") -> str:
    return _terms_to_str((c, ((var, k),)) for k, c in f.terms())


def laurent_from_str(text: str) -> LaurentPoly:
    """Parse a z-only expression (the aq grammar restricted to z)."""
    from .aq import parse  # local import: aq builds on this module

    x = parse(text)
    f = x.coefficient(0)
    if x != x.from_laurent(f):
        raise PreconditionViolation(f"expression is not sigma-free: {text}")
    return f


# -- matrices -------------------------------------------------------------


class LaurentMatrix:
    """A square matrix over K[z, z^-1]."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(_coerce_entry(e) for e in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise PreconditionViolation("matrix must be square and nonempty")
        self.n = n
        self.rows = rows

    @staticmethod
    def identity(n):
        return LaurentMatrix(
            tuple(
                tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
            )
        )

    @staticmethod
    def from_strs(entries):
        return LaurentMatrix(
            tuple(tuple(laurent_from_str(e) for e in row) for row in entries)
        )

    def entry(self, i, j):
        return self.rows[i][j]

    def transpose(self):
        return LaurentMatrix(tuple(zip(*self.rows)))

    def qshift(self, k):
        return LaurentMatrix(
            tuple(tuple(qshift(e, k) for e in row) for row in self.rows)
        )

    def __mul__(self, other):
        if isinstance(other, LaurentMatrix):
            if other.n != self.n:
                raise PreconditionViolation("size mismatch")
            return LaurentMatrix(
                tuple(
                    tuple(
                        sum(
                            (self.rows[i][k] * other.rows[k][j] for k in range(self.n)),
                            ZERO,
                        )
                        for j in range(self.n)
                    )
                    for i in range(self.n)
                )
            )
        return NotImplemented

    def apply(self, vec):
        """Matrix times a column vector (list of LaurentPoly)."""
        if len(vec) != self.n:
            raise PreconditionViolation("size mismatch")
        return [
            sum((self.rows[i][k] * vec[k] for k in range(self.n)), ZERO)
            for i in range(self.n)
        ]

    def kron(self, other):
        n, m = self.n, other.n
        return LaurentMatrix(
            tuple(
                tuple(
                    self.rows[i][j] * other.rows[k][l]
                    for j in range(n)
                    for l in range(m)
                )
                for i in range(n)
                for k in range(m)
            )
        )

    def __eq__(self, other):
        return isinstance(other, LaurentMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.rows
        )
        return f"LaurentMatrix[{body}]"

    def to_strs(self):
        return [[laurent_to_str(e) for e in row] for row in self.rows]


def _coerce_entry(e):
    if isinstance(e, LaurentPoly):
        return e
    if isinstance(e, (int, Fraction)):
        return LaurentPoly.const(e)
    if isinstance(e, str):
        return laurent_from_str(e)
    raise TypeError(f"bad matrix entry: {e!r}")


def _divexact_int(a, b):
    """Exact integer quotient a/b; PreconditionViolation on a remainder."""
    q, r = divmod(a, b)
    if r:
        raise PreconditionViolation("inexact integer division")
    return q


def echelon(rows):
    """Fraction-free (Bareiss) elimination over Python ints or K[z, z^-1],
    skipping columns without a pivot.  Returns (pivot columns, echelon rows
    zeroed below each pivot, sign of the row permutation, last pivot).  Pivot
    k is the minor of the first k + 1 permuted rows at the first k + 1 pivot
    columns, so the signed last pivot of a square matrix of full rank is its
    determinant.  Every interior division is exact and is checked.

    The scaling is lazy, so a step costs what its nonzero multipliers cost.
    Dense Bareiss step k rescales every row whose pivot-column entry is zero
    by dets[k + 1] / dets[k], where dets = [1, pivot_0, pivot_1, ...].  Here
    such a row is left as it is and keeps the number l of the steps it has
    seen: a row deferred since step l equals its Bareiss minors after one
    division by the pivot ratio, x * dets[k] / dets[l].  A row is brought up
    to date only when it becomes the pivot row, or when it next gets a
    nonzero multiplier a at step k; then the catch-up and the step share one
    exact division, (x * pivot_k - a * y) / dets[l] for the stale entries
    x, a and the pivot row's y, since the step divides by dets[k].  Scaling
    keeps zeros, so the pivot search reads stale rows and a cell that is
    zero in both rows is skipped.  The returned rows are the dense ones:
    each pivot row is up to date, and the rows below the rank are zero.
    """
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    if ncols and not isinstance(m[0][0], LaurentPoly):
        zero, dets, div = 0, [1], _divexact_int
    else:
        zero, dets, div = ZERO, [ONE], divexact
    seen = [0] * len(m)
    pivots, sign = [], 1
    for c in range(ncols):
        k = len(pivots)
        i = next((i for i in range(k, len(m)) if m[i][c]), None)
        if i is None:
            continue
        if i != k:
            m[k], m[i] = m[i], m[k]
            seen[k], seen[i] = seen[i], seen[k]
            sign = -sign
        top = m[k]
        if seen[k] != k:
            d, l = dets[k], dets[seen[k]]
            top = m[k] = [div(x * d, l) if x else x for x in top]
        pivot = top[c]
        tail = top[c + 1:]
        for i in range(k + 1, len(m)):
            row = m[i]
            a = row[c]
            if not a:
                continue
            l = dets[seen[i]]
            row[c + 1:] = [
                div(x * pivot - a * y, l) if x or y else x
                for x, y in zip(row[c + 1:], tail)
            ]
            row[c] = zero
            seen[i] = k + 1
        dets.append(pivot)
        pivots.append(c)
    return pivots, m, sign, dets[-1]


def _det_rows(rows, n):
    """Determinant of n x n rows: the signed last pivot, or zero below rank n."""
    pivots, _, sign, last = echelon(rows)
    return (last if sign > 0 else -last) if len(pivots) == n else ZERO


def det(mat: LaurentMatrix) -> LaurentPoly:
    """Determinant: the signed last pivot of `echelon`."""
    return _det_rows(mat.rows, mat.n)


def det_and_inverse(mat: LaurentMatrix):
    """(det, inverse) where inverse is None unless det is a unit.

    The inverse, when present, is exact: entries are cofactors divided by the
    unit determinant, and T * T^-1 = I holds on the nose.  The empty minor
    of a 1 x 1 matrix has determinant one.
    """
    d = det(mat)
    if not d.is_unit():
        return d, None
    n, dinv = mat.n, d.inverse_unit()
    inverse = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(mat.rows) if k != j]
            inverse[i][j] = _det_rows(minor, n - 1) * (-dinv if (i + j) % 2 else dinv)
    return d, LaurentMatrix(inverse)
