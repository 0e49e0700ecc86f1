"""Exact scalars and the session parameter q.

Scalars are `fractions.Fraction` values: arbitrary-precision, always in lowest
terms with positive denominator.  The deformation parameter q is a scalar
outside {0, 1, -1}; everything downstream reads it from the ambient session
(default q = 2) instead of threading it through every call.  The ambient q
is a `contextvars.ContextVar`, so each thread (and each asyncio task) has its
own: a new thread starts at the default q, whatever q its creator had set.
No floating point is used anywhere in this package.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction

from .errors import PreconditionViolation, ZeroInput

Scalar = Fraction


def scalar_from_str(text: str) -> Fraction:
    """Parse "a" or "a/b" into an exact rational."""
    return Fraction(text.strip())


def scalar_to_str(c: Fraction) -> str:
    """The text a or a/b of a scalar, the one place a scalar turns into
    digits; PreconditionViolation past Python's int-to-str digit limit."""
    try:
        if c.denominator == 1:
            return str(c.numerator)
        return f"{c.numerator}/{c.denominator}"
    except ValueError:
        raise PreconditionViolation(
            f"scalar has more than {sys.get_int_max_str_digits()} digits to print"
        ) from None


class QParam:
    """A validated deformation parameter: nonzero and not a root of unity.

    Over the rationals the only roots of unity are 1 and -1, so the invariant
    is q not in {0, 1, -1}; with that, q^n = q^m implies n = m.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        value = Fraction(value)
        if value == 0 or value == 1 or value == -1:
            raise PreconditionViolation(f"q must avoid {{0, 1, -1}}, got {value}")
        self.value = value

    def __repr__(self):
        return f"QParam({scalar_to_str(self.value)})"

    def __eq__(self, other):
        return isinstance(other, QParam) and self.value == other.value


_session_q = ContextVar("qec_q", default=QParam(Fraction(2)))


def _qparam(value) -> QParam:
    return value if isinstance(value, QParam) else QParam(value)


def set_q(value) -> None:
    """Set the ambient q for the current context (thread or task)."""
    _session_q.set(_qparam(value))


def get_q() -> Fraction:
    """The ambient q as a plain scalar."""
    return _session_q.get().value


def get_qparam() -> QParam:
    return _session_q.get()


@contextmanager
def using_q(value):
    """Temporarily switch the ambient q (tests, CLI overrides)."""
    token = _session_q.set(_qparam(value))
    try:
        yield _session_q.get()
    finally:
        _session_q.reset(token)


def qpow(n: int) -> Fraction:
    """q^n for the ambient q; n may be negative."""
    return get_q() ** n


def q_orbit(c: Fraction):
    """(r, n) with c = r * step^n and 1 <= |r| < |step|, where step is q or
    1/q, whichever has |step| > 1: r is the canonical representative of the
    q^Z-orbit of a nonzero c.

    Exact decision: |q| != 1 for admissible rational q, so |step^n| is
    strictly monotone in n and one walk toward [1, |step|) finds n.
    PreconditionViolation once a walked value has a numerator or
    denominator past Python's int-to-str digit limit: `scalar_to_str`
    could never print that representative, and the walk could run on for
    millions of bits.
    """
    q = get_q()
    step = q if abs(q) > 1 else 1 / q
    digits = sys.get_int_max_str_digits()  # 0 when the limit is off

    def walked(r):
        height = max(abs(r.numerator), r.denominator)
        # a height below 2^(3 digits) = 8^digits is below 10^digits, so the
        # exact power of ten is formed only for heights near the limit
        if digits and height.bit_length() > 3 * digits and height >= 10**digits:
            raise PreconditionViolation(
                f"q-orbit representative has more than {digits} digits to print"
            )
        return r

    r, n = c, 0
    while abs(r) >= abs(step):
        r, n = walked(r / step), n + 1
    while abs(r) < 1:
        r, n = walked(r * step), n - 1
    return r, n


def q_power_class(c):
    """The unique n with c = q^n, or None if c is not a power of q.

    Decided from heights H(x) = max(|num|, den), without walking the orbit:
    q^n has height H(q)^|n| with H(q) >= 2, so the only candidates are
    n = +-k for the k with H(q)^k = H(c), found by bisection."""
    c = Fraction(c)
    if c == 0:
        raise ZeroInput("0 is not in any q-power class")
    q = get_q()
    base, target = (max(abs(x.numerator), x.denominator) for x in (q, c))
    # base^k >= 2^(k (bits(base) - 1)), so k <= bits(target) // (bits(base) - 1)
    lo, hi = 0, target.bit_length() // (base.bit_length() - 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if base**mid < target:
            lo = mid + 1
        else:
            hi = mid
    return next((n for n in (lo, -lo) if q**n == c), None)
