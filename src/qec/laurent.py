"""Laurent polynomials over Q and square matrices of them.

A LaurentPoly stores the lowest exponent `lo`, a tuple `nums` of integer
numerators whose first and last entries are nonzero, and one positive
denominator `den`: the coefficient of z^(lo + i) is nums[i] / den.  The
form is canonical: gcd(den, *nums) = 1, and the zero polynomial is
(0, (), 1).  So two polynomials are equal exactly when their fields are,
and the units of the ring, the monomials c*z^m, are the one-numerator
polynomials.  `coeffs`, `coeff`, `terms` and `unit_decompose` give the
coefficients as `Fraction`s, one gcd each, for printing and callers
outside the arithmetic; the arithmetic reads the integers.  The q-shift
f(z) |-> f(q^k z) reads q from the ambient session (see scalars).

The public constructor `LaurentPoly(lo, coeffs)` converts and trims any
int/`Fraction` input.  The arithmetic builds its results with `_trusted`,
which checks nothing, or with `_reduced`, which divides out
gcd(den, *nums) once.  Nonzero ends are kept by theorem:

- Z[z] is a domain, so the end numerators of a product are the products
  of the end numerators of its factors, and those are nonzero;
- `qshift` scales the numerator of z^i by a power of u and of v for
  q = u/v, and u, v != 0;
- `shift`, negation and a product by a nonzero scalar keep every zero and
  every nonzero numerator where it is;
- the exact quotient of `divexact` has ends f_bot/g_bot and f_top/g_top,
  nonzero since the ends of f are.

Only a sum or a difference can cancel at an end; `_trim` trims it.  The
gcd is needed after a product (the denominator of one factor may share a
prime with the numerators of the other), after a scalar product, a
q-shift or a division by a unit (the same, with u, v or the unit's
numerator), and after a sum whose supports overlap (1/2 + 1/2 = 1).  It
is not needed after negation, `shift`, `inverse_unit`, a sum of disjoint
supports (each prime of lcm(den_f, den_g) divides the denominator of one
operand to the full power, and a numerator of that operand is prime to
it), or the exact quotient of primitive parts in `divexact` (primitive by
Gauss's lemma, so only the scalar factor needs reducing).  A denominator
of 1 needs no gcd at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import PreconditionViolation, ZeroInput
from .scalars import get_q, scalar_to_str


def _as_scalar(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not a scalar: {c!r}")


# operand type -> whether it is int or Fraction (a subclass included), so
# that an operand of neither, an AqElement say, is turned away without the
# slow isinstance against the abstract Fraction; the operators read it
# inline, which keeps a scalar operand as cheap as the isinstance was
_SCALAR_TYPES = {int: True, bool: True, Fraction: True}


def _is_scalar(x):
    """Is x an int or a Fraction?  Worked out once per type and kept in
    `_SCALAR_TYPES`."""
    scalar = _SCALAR_TYPES.get(type(x))
    if scalar is None:
        scalar = _SCALAR_TYPES[type(x)] = issubclass(type(x), (int, Fraction))
    return scalar


def _trusted(lo, nums, den):
    """The LaurentPoly with these fields, unchecked: `nums` is a tuple of
    ints with nonzero ends, den > 0 and gcd(den, *nums) = 1, or the zero
    (0, (), 1)."""
    f = object.__new__(LaurentPoly)
    f.lo = lo
    f.nums = nums
    f.den = den
    return f


def _reduced(lo, nums, den):
    """The LaurentPoly nums / den at `lo`, for numerators with nonzero ends
    (or none) and den > 0: one gcd divides out their common factor."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [x // g for x in nums]
    return _trusted(lo, tuple(nums), den)


def _trim(lo, nums):
    """The canonical (lo, nums) of a sequence of ints whose ends may be
    zero."""
    start, end = 0, len(nums)
    while start < end and not nums[start]:
        start += 1
    if start == end:
        return 0, ()
    while not nums[end - 1]:
        end -= 1
    return lo + start, nums[start:end]


def _convolve(a, b):
    """The numerators of the product of two numerator sequences with
    nonzero ends: one integer convolution."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _sum(f, g, sub):
    """f + g, or f - g when `sub`, over lcm(den_f, den_g).

    The lower operand's numerators are copied, and the other's are added
    where the supports overlap and appended past its end.  Disjoint
    supports are joined by zeros and cannot cancel, nor share a factor with
    the lcm; an overlap can cancel at either end and can share one, so
    that result is trimmed and reduced."""
    a, b = f.nums, g.nums
    if not b:
        return f
    if not a:
        return -g if sub else g
    da, db = f.den, g.den
    den = da
    if da != db:
        den = lcm(da, db)
        if den != da:
            a = [x * (den // da) for x in a]
        if den != db:
            b = [y * (den // db) for y in b]
    if sub:
        b = [-y for y in b]
    lo, hi = f.lo, g.lo
    if lo > hi:
        lo, hi, a, b = hi, lo, b, a
    gap = hi - lo - len(a)
    if gap >= 0:
        return _trusted(lo, (*a, *(0,) * gap, *b), den)
    out = list(a)
    for i, y in enumerate(b[:-gap], hi - lo):
        out[i] += y
    out.extend(b[-gap:])
    return _reduced(*_trim(lo, out), den)


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
    __slots__ = ("lo", "nums", "den")

    def __init__(self, lo=0, coeffs=()):
        cs = [_as_scalar(c) for c in coeffs]
        den = lcm(*[c.denominator for c in cs])
        f = _reduced(*_trim(lo, [c.numerator * (den // c.denominator) for c in cs]), den)
        self.lo, self.nums, self.den = f.lo, f.nums, f.den

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero():
        return ZERO

    @staticmethod
    def const(c):
        return LaurentPoly.monomial(c, 0)

    @staticmethod
    def monomial(c, k):
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"not a scalar: {c!r}")
        if not c:
            return ZERO
        return _trusted(k, (c.numerator,), c.denominator)

    # -- structure --------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients from z^lo up, as `Fraction`s."""
        return tuple([Fraction(n, self.den) for n in self.nums])

    def is_zero(self):
        return not self.nums

    @property
    def bot(self):
        """Lowest exponent with nonzero coefficient (zero poly has none)."""
        if not self.nums:
            raise ZeroInput("zero polynomial has no degree")
        return self.lo

    @property
    def top(self):
        if not self.nums:
            raise ZeroInput("zero polynomial has no degree")
        return self.lo + len(self.nums) - 1

    def degree(self):
        """Width top - bot of the support."""
        return self.top - self.bot

    def coeff(self, k):
        if self.lo <= k < self.lo + len(self.nums):
            return Fraction(self.nums[k - self.lo], self.den)
        return Fraction(0)

    def terms(self):
        """(exponent, coefficient) pairs, increasing exponent, nonzero only."""
        return [(self.lo + i, Fraction(n, self.den)) for i, n in enumerate(self.nums) if n]

    def unit_decompose(self):
        """(c, m) with self = c*z^m if self is a unit, else None.  The ends
        are nonzero, so the units are the one-numerator polynomials."""
        if len(self.nums) == 1:
            return (Fraction(self.nums[0], self.den), self.lo)
        return None

    def is_unit(self):
        return len(self.nums) == 1

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            if not (_SCALAR_TYPES.get(type(other)) or _is_scalar(other)):
                return NotImplemented
            other = LaurentPoly.const(other)
        return _sum(self, other, False)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.lo, tuple([-x for x in self.nums]), self.den)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            if not (_SCALAR_TYPES.get(type(other)) or _is_scalar(other)):
                return NotImplemented
            other = LaurentPoly.const(other)
        return _sum(self, other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            a, b = self.nums, other.nums
            if not a or not b:
                return ZERO
            if len(a) == 1:
                c = a[0]
                nums = [c * y for y in b]
            elif len(b) == 1:
                c = b[0]
                nums = [x * c for x in a]
            else:
                nums = _convolve(a, b)
            return _reduced(self.lo + other.lo, nums, self.den * other.den)
        if _SCALAR_TYPES.get(type(other)) or _is_scalar(other):
            if not other:
                return ZERO
            c = other.numerator
            return _reduced(self.lo, [c * x for x in self.nums], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PreconditionViolation("LaurentPoly powers must be nonneg ints")
        return _power(self, n, ONE)

    def shift(self, k):
        """Multiply by z^k."""
        if not self.nums:
            return self
        return _trusted(self.lo + k, self.nums, self.den)

    def inverse_unit(self):
        """Inverse of a unit c*z^m; PreconditionViolation otherwise."""
        if len(self.nums) != 1:
            raise PreconditionViolation(f"not a unit: {self}")
        # (n/d)^-1 = d/n, in lowest terms already; the sign goes up
        n = self.nums[0]
        return _trusted(-self.lo, (self.den if n > 0 else -self.den,), abs(n))

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
        if not isinstance(other, LaurentPoly):
            if not (_SCALAR_TYPES.get(type(other)) or _is_scalar(other)):
                return NotImplemented
            other = LaurentPoly.const(other)
        return self.lo == other.lo and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        if self.lo or len(self.nums) > 1:
            return hash((self.lo, self.nums, self.den))
        # a constant equals its scalar, so it hashes like it
        return hash(Fraction(self.nums[0], self.den)) if self.nums else 0

    def __repr__(self):
        return f"LaurentPoly({self})"

    def __str__(self):
        return laurent_to_str(self)

    def __bool__(self):
        return bool(self.nums)


ZERO = _trusted(0, (), 1)
ONE = LaurentPoly.const(1)
Z = LaurentPoly.monomial(1, 1)


def qshift(f: LaurentPoly, k: int) -> LaurentPoly:
    """f(q^k z) for the ambient q; a ring automorphism for each k.  A
    constant is fixed, and q^k is not formed for it: s^k c = c s^k for any
    k, however large.

    With q = u/v in lowest terms, the numerator of z^(lo + i) is scaled by
    q^e_i, e_i = k (lo + i).  Over the common denominator u^-a v^b, where
    a = min(0, min_i e_i) and b = max(0, max_i e_i), that is the integer
    u^(e_i - a) v^(b - e_i): a constant c times s^i t^(n - 1 - i), where
    (s, t) = (u^k, v^k) for k > 0 and (v^-k, u^-k) for k < 0, so the scale
    walks up the numerators by one exact division by t and one product by
    s."""
    nums, lo = f.nums, f.lo
    if k == 0 or not nums or (lo == 0 and len(nums) == 1):
        return f
    q = get_q()
    u, v = q.numerator, q.denominator
    e0, e1 = k * lo, k * (lo + len(nums) - 1)
    lowest, highest = min(e0, e1), max(e0, e1)
    den = f.den * u ** max(-lowest, 0) * v ** max(highest, 0)
    scale = u ** max(lowest, 0) * v ** max(-highest, 0)
    if den < 0:  # an odd power of a negative u
        den, scale = -den, -scale
    if len(nums) == 1:
        return _reduced(lo, (nums[0] * scale,), den)
    s, t = (u**k, v**k) if k > 0 else (v**-k, u**-k)
    scale *= t ** (len(nums) - 1)
    out = []
    for x in nums[:-1]:
        out.append(x * scale)
        scale = scale // t * s
    out.append(nums[-1] * scale)
    return _reduced(lo, out, den)


def divexact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact quotient f/g; PreconditionViolation if g does not divide f.

    The primitive parts are divided by integer long division: by Gauss's
    lemma a quotient of primitive integer polynomials is a primitive
    integer polynomial, so a step that does not divide exactly means g
    does not divide f, and the quotient needs only its scalar factor
    reduced."""
    a, b = f.nums, g.nums
    if not b:
        raise ZeroInput("division by zero polynomial")
    if not a:
        return ZERO
    offset = f.lo - g.lo
    if len(b) == 1:
        # a unit divides everything: (a/da) / (c/db) = a db / (da c)
        c = b[0]
        scale = g.den if c > 0 else -g.den
        return _reduced(offset, [x * scale for x in a], f.den * abs(c))
    if len(b) > len(a):
        raise PreconditionViolation("inexact Laurent division (degree)")
    ca, cb = gcd(*a), gcd(*b)
    rem = [x // ca for x in a]
    div = [y // cb for y in b]
    lead, n = div[-1], len(div) - 1
    out = [0] * (len(rem) - n)
    for i in range(len(out) - 1, -1, -1):
        c, r = divmod(rem[i + n], lead)
        if r:
            raise PreconditionViolation("inexact Laurent division (remainder)")
        out[i] = c
        if c:
            for j, d in enumerate(div[:n], i):
                rem[j] -= c * d
    if any(rem[:n]):
        raise PreconditionViolation("inexact Laurent division (remainder)")
    # f/g = (ca out / da) / (cb / db) = out (ca db) / (cb da)
    num, den = ca * g.den, cb * f.den
    h = gcd(num, den)
    if h != 1:
        num, den = num // h, den // h
    return _trusted(offset, tuple([num * x for x in out]) if num != 1 else tuple(out), den)


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
    """Parse a sigma-free expression in the grammar of `aq.parse`.

    A text with no "s" token is built in K[z^±1] alone, as LaurentPoly.
    One with an "s" is built in the quantum torus and must then equal its
    s^0 coefficient (so "s*s^-1" is 1), else PreconditionViolation."""
    from .aq import _Parser  # local import: aq builds on this module

    x = _Parser(text).parse()
    if type(x) is LaurentPoly:
        return x
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


def _minors(rows, n):
    """The (n - 1)-minors of n x n rows, laid out as the adjugate: entry
    (i, j) is det(rows without row j and column i), the adjugate's entry up
    to the sign (-1)^(i + j).  The empty minor of a 1 x 1 matrix is one."""
    return [
        [_det_rows([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j], n - 1)
         for j in range(n)]
        for i in range(n)
    ]


def _unit_inverse(mat: LaurentMatrix, d: LaurentPoly) -> LaurentMatrix:
    """mat^-1 = adj(mat) / d for the unit determinant d of mat: exact, so
    mat * mat^-1 = I holds on the nose."""
    dinv = d.inverse_unit()
    signed = (dinv, -dinv)
    minors = _minors(mat.rows, mat.n)
    return LaurentMatrix(
        [[m * signed[(i + j) % 2] for j, m in enumerate(row)] for i, row in enumerate(minors)]
    )


def det_and_inverse(mat: LaurentMatrix):
    """(det, inverse) where inverse is None unless det is a unit; the
    inverse, when present, is `_unit_inverse`."""
    d = det(mat)
    return d, (_unit_inverse(mat, d) if d.is_unit() else None)
