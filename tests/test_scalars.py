import random
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qec.errors import PreconditionViolation, ZeroInput
from qec.scalars import (
    QParam,
    get_q,
    q_orbit,
    q_power_class,
    qpow,
    scalar_from_str,
    scalar_to_str,
    set_q,
    using_q,
)


def test_qparam_rejects_degenerate_values():
    for v in (0, 1, -1):
        with pytest.raises(PreconditionViolation):
            QParam(Fraction(v))
    with pytest.raises(PreconditionViolation):
        set_q(Fraction(1))


def test_session_q_default_and_override():
    assert get_q() == 2
    with using_q(Fraction(3, 5)):
        assert get_q() == Fraction(3, 5)
        with using_q(Fraction(-7)):
            assert get_q() == -7
        assert get_q() == Fraction(3, 5)
    assert get_q() == 2


def test_ambient_q_is_per_thread():
    # both threads sit inside their using_q at once; a shared global would
    # leave both reading the q that was set last
    barrier = threading.Barrier(2, timeout=10)
    seen = {}

    def worker(q):
        seen[("start", q)] = get_q()
        with using_q(q):
            barrier.wait()
            seen[q] = get_q()
            barrier.wait()

    with using_q(Fraction(7)):
        threads = [threading.Thread(target=worker, args=(q,)) for q in (3, 5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert get_q() == 7
    # a new thread starts at the default q, not at its creator's
    assert seen == {("start", 3): 2, ("start", 5): 2, 3: 3, 5: 5}


def test_ambient_q_survives_thread_switches():
    # more threads than cores, switching as often as the interpreter allows
    bad = []

    def worker(q):
        for _ in range(300):
            with using_q(q):
                if get_q() != q or qpow(2) != q * q:
                    bad.append(q)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(q,)) for q in range(2, 10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert bad == []
    assert get_q() == 2


def test_qpow():
    assert qpow(0) == 1
    assert qpow(3) == 8
    assert qpow(-2) == Fraction(1, 4)
    with using_q(Fraction(-2, 3)):
        assert qpow(2) == Fraction(4, 9)
        assert qpow(-1) == Fraction(-3, 2)


def test_scalar_str_round_trip():
    for text in ("3/2", "-7", "0", "22/7", "-5/9"):
        assert scalar_to_str(scalar_from_str(text)) == text


# -- q_power_class against an independent prime-valuation oracle ---------------


def _valuation(n: int, p: int) -> int:
    v = 0
    n = abs(n)
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def _prime_factors(n: int):
    n = abs(n)
    fs = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            fs.add(d)
            n //= d
        d += 1
    if n > 1:
        fs.add(n)
    return fs


def _oracle_power_class(c: Fraction, q: Fraction):
    """Exponent n with q^n == c, via the valuation at any prime dividing q.

    |q| != 1 guarantees some prime appears with nonzero total valuation; that
    prime pins the only possible exponent, which is then checked exactly.
    """
    for p in sorted(_prime_factors(q.numerator) | _prime_factors(q.denominator)):
        vq = _valuation(q.numerator, p) - _valuation(q.denominator, p)
        if vq == 0:
            continue
        vc = _valuation(c.numerator, p) - _valuation(c.denominator, p)
        if vc % vq:
            return None
        n = vc // vq
        return n if q**n == c else None
    return None


_QS = [Fraction(2), Fraction(1, 2), Fraction(-2), Fraction(3, 5), Fraction(-7, 3), Fraction(10)]


def test_q_power_class_on_exact_powers():
    for q in _QS:
        with using_q(q):
            for n in range(-8, 9):
                assert q_power_class(q**n) == n
                assert _oracle_power_class(q**n, q) == n


def test_q_power_class_agrees_with_valuation_oracle():
    candidates = [
        Fraction(3),
        Fraction(5),
        Fraction(7, 11),
        Fraction(-4),
        Fraction(6),
        Fraction(9, 25),
        Fraction(-1),
        Fraction(1),
        Fraction(2, 3),
        Fraction(49, 9),
    ]
    for q in _QS:
        with using_q(q):
            for c in candidates + [q**3 * 5, -(q**2), q**-4 * Fraction(7, 2)]:
                assert q_power_class(c) == _oracle_power_class(c, q), (q, c)


@given(
    st.sampled_from(_QS),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12),
)
def test_q_power_class_hypothesis(q, n, c):
    if c == 0:
        return
    with using_q(q):
        assert q_power_class(q**n) == n
        assert q_power_class(c) == _oracle_power_class(c, q)


@given(
    st.sampled_from(_QS),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12),
)
def test_q_orbit_representative(q, n, c):
    if c == 0:
        return
    step = q if abs(q) > 1 else 1 / q
    with using_q(q):
        r, m = q_orbit(c)
        assert c == r * step**m and 1 <= abs(r) < abs(step)
        # the representative is constant on the orbit c * q^Z
        assert q_orbit(c * q**n)[0] == r


def _walk_power_class(c, q):
    """The orbit walk: c is a power of q exactly when its orbit
    representative is 1."""
    with using_q(q):
        r, n = q_orbit(c)
    if r != 1:
        return None
    return n if abs(q) > 1 else -n


def test_q_power_class_agrees_with_the_orbit_walk():
    rng = random.Random("q-power-walk")
    for q in map(Fraction, (2, 3, "-1/2", "5/7", "-3/2", "101/100")):
        for _ in range(150):
            c = q ** rng.randint(-30, 30) * rng.choice(
                (1, -1, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            )
            with using_q(q):
                assert q_power_class(c) == _walk_power_class(c, q), (q, c)


def test_q_power_class_does_not_walk_a_long_orbit():
    # c = 10 lies about 115,000 steps of q from its orbit representative
    q = Fraction(1000003, 999983)
    start = time.perf_counter()
    with using_q(q):
        assert q_power_class(Fraction(10)) is None
        assert q_power_class(Fraction(10) ** 4000) is None
        assert q_power_class(q**-5000) == -5000
    assert time.perf_counter() - start < 1


def test_q_orbit_refuses_a_representative_past_the_digit_limit():
    # 10 lies about 115,000 steps of q from its representative, whose
    # height would run to millions of bits; the walk stops at the digit limit
    q = Fraction(1000003, 999983)
    start = time.perf_counter()
    with using_q(q):
        with pytest.raises(PreconditionViolation, match="digits to print"):
            q_orbit(Fraction(10))
        with pytest.raises(PreconditionViolation, match="digits to print"):
            q_orbit(Fraction(1, 10))
        assert time.perf_counter() - start < 1
        # short walks at the same q still answer
        r = Fraction(1000001, 1000000)
        assert q_orbit(q**7) == (1, 7)
        assert q_orbit(r * q**-5) == (r, -5)


def test_q_power_class_zero_input():
    with pytest.raises(ZeroInput):
        q_power_class(Fraction(0))
