from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from qec.aq import AqElement
from qec.errors import PreconditionViolation, ZeroInput
from qec.laurent import (
    ONE,
    ZERO,
    Z,
    LaurentMatrix,
    LaurentPoly,
    det,
    det_and_inverse,
    divexact,
    laurent_from_str,
    laurent_to_str,
    qshift,
)
from qec.samples import rand_laurent, rand_unit
from qec.scalars import get_q, using_q

fracs = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6)
laurents = st.builds(LaurentPoly, st.integers(-3, 3), st.lists(fracs, max_size=5))


def test_canonical_trim():
    f = LaurentPoly(0, (0, 1, 0))
    assert f.bot == 1 and f.top == 1 and f.degree() == 0
    assert LaurentPoly(5, (0, 0)).is_zero()
    assert LaurentPoly(-2, (1, 0, 3)).terms() == [(-2, Fraction(1)), (0, Fraction(3))]


def test_zero_handling():
    assert ZERO.is_zero()
    with pytest.raises(ZeroInput):
        ZERO.bot
    with pytest.raises(ZeroInput):
        ZERO.top
    assert (ZERO + ONE) == ONE
    assert (Z * ZERO).is_zero()


def test_basic_values():
    f = LaurentPoly(-1, (1, 2, 3))  # z^-1 + 2 + 3z
    assert f.coeff(-1) == 1 and f.coeff(0) == 2 and f.coeff(1) == 3 and f.coeff(7) == 0
    assert f.degree() == 2
    assert f.eval(Fraction(2)) == Fraction(1, 2) + 2 + 6


@given(laurents, laurents, laurents)
def test_ring_laws(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f + (-f) == ZERO
    assert f - g == f + (-g)


@given(laurents, laurents)
def test_degree_additive_and_eval_multiplicative(f, g):
    if not f.is_zero() and not g.is_zero():
        assert (f * g).degree() == f.degree() + g.degree()
        assert (f * g).bot == f.bot + g.bot
    x = Fraction(3, 7)
    assert (f * g).eval(x) == f.eval(x) * g.eval(x)
    assert (f + g).eval(x) == f.eval(x) + g.eval(x)


def test_units(rng):
    for _ in range(30):
        u = rand_unit(rng)
        assert u.is_unit()
        c, m = u.unit_decompose()
        assert u == LaurentPoly.monomial(c, m)
        assert u * u.inverse_unit() == ONE
    f = ONE + Z
    assert not f.is_unit()
    assert f.unit_decompose() is None
    with pytest.raises(PreconditionViolation):
        f.inverse_unit()
    with pytest.raises((PreconditionViolation, ZeroInput)):
        ZERO.inverse_unit()


def test_qshift_is_substitution(rng):
    q = get_q()
    x = Fraction(5, 3)
    for _ in range(25):
        f = rand_laurent(rng)
        g = rand_laurent(rng)
        k = rng.randrange(-3, 4)
        assert qshift(f, k).eval(x) == f.eval(q**k * x)
        assert qshift(f * g, k) == qshift(f, k) * qshift(g, k)
        assert qshift(f + g, k) == qshift(f, k) + qshift(g, k)
        assert qshift(qshift(f, k), -k) == f
    with using_q(Fraction(-3, 2)):
        f = LaurentPoly(-1, (1, 0, 2))
        assert qshift(f, 2).eval(x) == f.eval(Fraction(9, 4) * x)


def test_shift_multiplies_by_z_power():
    f = LaurentPoly(0, (1, 1))
    assert f.shift(3) == f * LaurentPoly.monomial(1, 3)
    assert f.shift(-2).bot == -2


def test_divexact(rng):
    for _ in range(40):
        f = rand_laurent(rng)
        g = rand_laurent(rng)
        if g.is_zero():
            continue
        assert divexact(f * g, g) == f
    with pytest.raises(PreconditionViolation):
        divexact(ONE + Z, ONE - Z)
    # a divisor wider than the dividend is refused before any arithmetic
    with pytest.raises(PreconditionViolation, match="degree"):
        divexact(Z, ONE + Z)
    with pytest.raises((PreconditionViolation, ZeroInput)):
        divexact(ONE, ZERO)


def test_str_round_trip(rng):
    assert laurent_to_str(LaurentPoly(-1, (1, 2))) == "z^-1 + 2"
    assert laurent_to_str(ZERO) == "0"
    assert laurent_to_str(LaurentPoly(0, (Fraction(-3, 2),)), var="s") == "-3/2"
    for _ in range(40):
        f = rand_laurent(rng, max_width=4, max_shift=3)
        assert laurent_from_str(laurent_to_str(f)) == f
    # sigma-bearing input is not a Laurent polynomial in z
    with pytest.raises(PreconditionViolation):
        laurent_from_str("s + 1")


# -- the kernel against a dict-of-Fraction reference ----------------------------
#
# The arithmetic builds its results unchecked, trusting that products,
# q-shifts and exact quotients keep nonzero ends; these tests check every
# result against exponent -> Fraction dicts and assert the canonical form.

# zero often, so that interior zeros and zero ends occur
coeffs = st.lists(st.one_of(st.just(0), st.just(0), fracs), max_size=6)
polys = st.one_of(
    st.builds(LaurentPoly, st.integers(-6, 4), coeffs),
    st.builds(LaurentPoly.monomial, fracs.filter(bool), st.integers(-6, 4)),
)
scalars = st.one_of(st.integers(-4, 4), fracs)


@st.composite
def cancelling_pairs(draw):
    """(f, g) where g agrees with -f on a low or high stretch of f, or on all
    of it, so that f + g cancels at one end or to zero."""
    f = draw(polys)
    k = draw(st.integers(0, len(f.coeffs)))
    rest = draw(coeffs)
    neg = [-c for c in f.coeffs]
    if draw(st.booleans()):
        g = LaurentPoly(f.lo, neg[:k] + rest)
    else:
        g = LaurentPoly(f.lo + len(f.coeffs) - k - len(rest), rest + neg[len(neg) - k:])
    return f, g


def _ref(f):
    return {f.lo + i: c for i, c in enumerate(f.coeffs) if c}


def _ref_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def _ref_add(a, b, sign=1):
    out = dict(a)
    for j, y in b.items():
        out[j] = out.get(j, 0) + sign * y
    return out


def _ref_divexact(a, b):
    """The quotient a/b by long division from the top, or None if inexact."""
    a, out = dict(a), {}
    top_b = max(b)
    while any(a.values()):
        top = max(e for e, c in a.items() if c)
        if top - top_b + min(b) < min(e for e, c in a.items() if c):
            return None
        c = a[top] / b[top_b]
        out[top - top_b] = c
        a = _ref_add(a, {e + top - top_b: c * x for e, x in b.items()}, -1)
    return out


def assert_is(f, ref):
    """f is canonical and equals the reference dict."""
    assert all(type(c) is Fraction for c in f.coeffs)
    if f.coeffs:
        assert f.coeffs[0] != 0 and f.coeffs[-1] != 0
    else:
        assert f.lo == 0
    assert _ref(f) == {e: c for e, c in ref.items() if c}


@given(polys, polys)
def test_mul_add_sub_match_the_reference(f, g):
    a, b = _ref(f), _ref(g)
    assert_is(f * g, _ref_mul(a, b))
    assert_is(f + g, _ref_add(a, b))
    assert_is(f - g, _ref_add(a, b, -1))
    assert_is(-f, _ref_add({}, a, -1))


@given(cancelling_pairs())
def test_sums_that_cancel_at_an_end_are_trimmed(pair):
    f, g = pair
    a, b = _ref(f), _ref(g)
    assert_is(f + g, _ref_add(a, b))
    assert_is(g + f, _ref_add(a, b))
    assert_is(f - (-g), _ref_add(a, b))


@given(st.one_of(st.tuples(polys, polys), cancelling_pairs()))
def test_difference_is_the_sum_with_the_negation(pair):
    # a difference never builds -g, so check it against the sum that does,
    # with either operand the lower one and with cancellation at an end
    f, g = pair
    for x, y in ((f, g), (g, f), (f, -g), (-g, f)):
        d, want = x - y, x + (-y)
        assert (d.lo, d.coeffs) == (want.lo, want.coeffs)
        assert_is(d, _ref(want))


@given(polys, scalars)
def test_scalar_products_and_sums_match_the_reference(f, c):
    a = _ref(f)
    want = {e: c * x for e, x in a.items()}
    assert_is(f * c, want)
    assert_is(c * f, want)
    assert_is(f + c, _ref_add(a, {0: c}))
    assert_is(c - f, _ref_add({0: c}, a, -1))


class _Int(int):
    pass


class _Fraction(Fraction):
    pass


@given(polys, polys)
def test_mixed_operands_an_aq_element_and_scalars(f, g):
    # an AqElement is no operand of LaurentPoly's own operators: Python
    # hands it to AqElement's reflected ones, which lift f
    x = AqElement.from_laurent(g) + AqElement.sigma(1)
    fx = AqElement.from_laurent(f)
    for op in ("__add__", "__sub__", "__mul__", "__eq__"):
        assert getattr(LaurentPoly, op)(f, x) is NotImplemented
    assert (f + x, x + f) == (fx + x, x + fx)
    assert (f - x, x - f) == (fx - x, x - fx)
    assert (f * x, x * f) == (fx * x, x * fx)
    assert f != x
    # an int, bool or Fraction, a subclass included, is a constant
    for c in (3, -1, True, False, Fraction(-2, 5), _Int(4), _Fraction(1, 3)):
        k = LaurentPoly.const(c)
        assert (f + c, c + f, f - c, c - f) == (f + k, k + f, f - k, k - f)
        assert (f * c, c * f) == (f * k, k * f)
        assert (f == c) == (f == k)
    for other in (1.5, "1", None):
        for op in (lambda: f + other, lambda: f - other, lambda: f * other):
            with pytest.raises(TypeError):
                op()
        assert f != other


@given(polys, st.integers(-5, 5), st.sampled_from([2, -3, Fraction(-1, 2), Fraction(5, 7)]))
def test_shift_and_qshift_match_the_reference(f, k, q):
    a = _ref(f)
    assert_is(f.shift(k), {e + k: c for e, c in a.items()})
    with using_q(q):
        assert_is(qshift(f, k), {e: c * Fraction(q) ** (k * e) for e, c in a.items()})


@given(polys, polys)
def test_divexact_matches_the_reference(f, g):
    if g.is_zero():
        return
    a, b = _ref(f), _ref(g)
    assert_is(divexact(f * g, g), a)
    want = _ref_divexact(a, b)
    if want is None:
        with pytest.raises(PreconditionViolation):
            divexact(f, g)
    else:
        assert_is(divexact(f, g), want)


def assert_canonical(f, ref):
    """f is in the canonical integer form (integer numerators with nonzero
    ends over a positive denominator prime to them all, zero as (0, (), 1))
    and equals the reference dict."""
    assert type(f.den) is int and f.den > 0
    assert all(type(n) is int for n in f.nums)
    if f.nums:
        assert f.nums[0] and f.nums[-1]
        assert gcd(f.den, *f.nums) == 1
    else:
        assert (f.lo, f.nums, f.den) == (0, (), 1)
    assert_is(f, ref)


@given(
    st.one_of(st.tuples(polys, polys), cancelling_pairs()),
    scalars,
    st.integers(-5, 5),
    st.integers(0, 4),
    st.sampled_from([2, 3, Fraction(-1, 2), Fraction(5, 7)]),
)
def test_every_operation_keeps_the_canonical_form(pair, c, k, n, q):
    f, g = pair
    a, b = _ref(f), _ref(g)
    with using_q(q):
        assert_canonical(f + g, _ref_add(a, b))
        assert_canonical(f - g, _ref_add(a, b, -1))
        assert_canonical(f * g, _ref_mul(a, b))
        assert_canonical(f * c, {e: c * x for e, x in a.items()})
        assert_canonical(-f, {e: -x for e, x in a.items()})
        assert_canonical(f.shift(k), {e + k: x for e, x in a.items()})
        assert_canonical(qshift(f, k), {e: x * Fraction(q) ** (k * e) for e, x in a.items()})
        if b:
            assert_canonical(divexact(f * g, g), a)
            want = _ref_divexact(a, b)
            if want is not None:
                assert_canonical(divexact(f, g), want)
        if f.is_unit():
            ((e, x),) = a.items()
            assert_canonical(f.inverse_unit(), {-e: 1 / x})
        power = {0: Fraction(1)}
        for _ in range(n):
            power = _ref_mul(power, a)
        assert_canonical(f**n, power)


def test_qshift_keeps_the_denominator_positive_at_a_negative_q():
    # at q = -1/2 an odd power of the numerator -1 of q can make the common
    # denominator exactly -1, on the one-numerator path and on the general one
    with using_q(Fraction(-1, 2)):
        assert_canonical(qshift(LaurentPoly.monomial(1, -1), 1), {-1: Fraction(-2)})
        assert_canonical(qshift(LaurentPoly(-3, (1, 0, 5)), 1), {-3: Fraction(-8), -1: Fraction(-10)})


def test_public_constructor_normalizes_its_input():
    f = LaurentPoly(-3, (0, 2, 0, Fraction(1, 2), 0))
    assert (f.lo, f.coeffs) == (-2, (Fraction(2), Fraction(0), Fraction(1, 2)))
    assert all(type(c) is Fraction for c in f.coeffs)
    assert (LaurentPoly(4, (0, 0)).lo, LaurentPoly(4, (0, 0)).coeffs) == (0, ())
    # one denominator, prime to the numerators as a whole, not to each
    assert (f.lo, f.nums, f.den) == (-2, (4, 0, 1), 2)
    assert (LaurentPoly(4, (0, 0)).nums, LaurentPoly(4, (0, 0)).den) == ((), 1)
    with pytest.raises(TypeError):
        LaurentPoly(0, (0.5,))


# -- matrices -------------------------------------------------------------------


def _rand_matrix(rng, n):
    return LaurentMatrix(
        tuple(tuple(rand_laurent(rng, max_width=2, max_shift=1) for _ in range(n)) for _ in range(n))
    )


def test_matrix_mul_apply_consistency(rng):
    for n in (1, 2, 3):
        a = _rand_matrix(rng, n)
        b = _rand_matrix(rng, n)
        v = tuple(rand_laurent(rng) for _ in range(n))
        assert list((a * b).apply(v)) == list(a.apply(b.apply(v)))
        assert (a * LaurentMatrix.identity(n)).rows == a.rows


def test_matrix_from_to_strs():
    a = LaurentMatrix.from_strs([["z", "1"], ["0", "1 - z^-1"]])
    assert a.to_strs() == [["z", "1"], ["0", "-z^-1 + 1"]]
    assert a.entry(0, 0) == Z
    assert a.transpose().entry(1, 0) == ONE


def test_kron_entry_law(rng):
    a = _rand_matrix(rng, 2)
    b = _rand_matrix(rng, 3)
    k = a.kron(b)
    assert k.n == 6
    for i in range(2):
        for j in range(2):
            for r in range(3):
                for s in range(3):
                    assert k.entry(i * 3 + r, j * 3 + s) == a.entry(i, j) * b.entry(r, s)


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = LaurentPoly.zero()
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_det_against_cofactor_expansion(rng):
    for n in (1, 2, 3, 4):
        for _ in range(6):
            a = _rand_matrix(rng, n)
            assert det(a) == _det_cofactor([list(r) for r in a.rows])


def test_det_and_inverse(rng):
    from qec.samples import rand_sigma_matrix

    for _ in range(10):
        T = rand_sigma_matrix(rng, n_max=3)
        d, inv = det_and_inverse(T.mat)
        assert d.is_unit()
        assert (inv * T.mat).rows == LaurentMatrix.identity(T.mat.n).rows
        assert (T.mat * inv).rows == LaurentMatrix.identity(T.mat.n).rows
    singularish = LaurentMatrix.from_strs([["1", "1"], ["z", "z"]])
    d, inv = det_and_inverse(singularish)
    assert d.is_zero() and inv is None
    nonunit = LaurentMatrix.from_strs([["1 + z", "0"], ["0", "1"]])
    d, inv = det_and_inverse(nonunit)
    assert d == ONE + Z and inv is None
