import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qec.aq import (
    POWER_BITS_LIMIT,
    POWER_WIDTH_LIMIT,
    SPAN_LIMIT,
    AqElement,
    degrees,
    epsilon,
    fourier,
    from_z_form,
    good_normal_coeffs,
    parse,
    sigma_conj,
    sigma_divide,
    to_str,
    to_z_form,
    unit_normalize,
    z_divide,
)
from qec.errors import ParseError, PreconditionViolation, ZeroInput
from qec.laurent import LaurentPoly, laurent_from_str, laurent_to_str, qshift
from qec.samples import rand_aq, rand_laurent, rand_sigma_good
from qec.scalars import get_q, using_q
from reference_parser import reference_parse

QS = (2, Fraction(-1, 2), Fraction(5, 7))

# the benchmark's own input generators (perfbench/inputs.py imports its
# sibling oracle.py by name)
_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    import inputs as bench_inputs
finally:
    sys.path.remove(_PERFBENCH)


def test_defining_relation():
    assert parse("s*z") == parse("2*z*s")
    assert parse("s^-1*z") == parse("1/2*z*s^-1")
    with using_q(Fraction(3, 5)):
        assert parse("s*z") == parse("3/5*z*s")
    # s^i f(z) = f(q^i z) s^i
    f = parse("1 + z + z^2")
    assert parse("s^3") * f == parse("1 + 8*z + 64*z^2") * parse("s^3")


def test_to_str_examples():
    assert to_str(parse("s*z")) == "2*z*s"
    assert to_str(AqElement.zero()) == "0"
    assert to_str(parse("(z+1)*s - (2*z+1)")) == "-1 - 2*z + s + z*s"
    assert to_str(epsilon(parse("s^2 - 3*s + 2"))) == "s^-2 - 3*s^-1 + 2"


def test_parse_round_trip(rng):
    for _ in range(80):
        x = rand_aq(rng, max_width=3, max_shift=2)
        assert parse(to_str(x)) == x


def test_parse_errors_carry_positions():
    for text in ("z +", "(z", "z^", "s^^2", "", "z^x", "2*/3", "(1+z)^-1"):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert e.value.pos >= 0


def test_parse_grammar_pieces():
    assert parse("z^-2") == AqElement.monomial(Fraction(1), -2, 0)
    assert parse("-3/2*z*s^-1") == AqElement.monomial(Fraction(-3, 2), 1, -1)
    assert parse("(z + s)^2") == parse("z^2 + 3*z*s + s^2")  # q = 2 cross term
    assert parse("z^0") == AqElement.one()
    assert parse("2 - 3*s + s^2") == parse("s^2 - 3*s + 2")
    # powers of monomials against repeated products, so that an off-by-one
    # in the q-exponent c^e q^(ab e(e-1)/2) of the closed form shows
    for q in (2, Fraction(5, 7)):
        with using_q(q):
            z, s = AqElement.monomial(1, 1), AqElement.sigma(1)
            z_inv, s_inv = AqElement.monomial(1, -1), AqElement.sigma(-1)
            two, qq = AqElement.monomial(2), AqElement.monomial(q)
            cases = {
                "(2*z*s)^3": [two * z * s] * 3,
                "(z*s)^-2": [s_inv * z_inv] * 2,
                "(q*z^2*s^-1)^5": [qq * z * z * s_inv] * 5,
                "z^-3": [z_inv] * 3,
                "(2/3*z^2*s)^-2": [s_inv * z_inv * z_inv * AqElement.monomial(Fraction(3, 2))] * 2,
            }
            for text, copies in cases.items():
                expected = AqElement.one()
                for x in copies:
                    expected = expected * x
                assert parse(text) == expected, (q, text)


def test_parse_power_limits_are_strict():
    # a power that reaches a limit exactly expands; one past it does not
    assert parse(f"2^{POWER_BITS_LIMIT}") == AqElement.monomial(2**POWER_BITS_LIMIT)
    wide = f"(1 + z^{POWER_WIDTH_LIMIT + 1})"
    assert parse(wide + "^1") == parse(wide)
    assert parse(wide + "^0") == AqElement.one()
    for text in (f"2^{POWER_BITS_LIMIT + 1}", f"(1 + z^{POWER_WIDTH_LIMIT // 2 + 1})^2",
                 wide + "^-1", "0^-1"):
        with pytest.raises(ParseError):
            parse(text)


def test_a_power_of_a_non_monomial_is_refused_past_the_bit_limit():
    # x = (z^127 + z^128) s^b has width 1, |s-exponent| b and |z-exponent|
    # 128, so x^2 forms q^(128 b): at q = 2 that is POWER_BITS_LIMIT bits for
    # b = 64, and x^3 forms at most three times as many
    assert 64 * 128 == POWER_BITS_LIMIT
    with using_q(2):
        at_limit = parse("((z^127 + z^128)*s^64)^2")
        x = parse("(z^127 + z^128)*s^64")
        assert at_limit == x * x
        texts = ["((z^127 + z^128)*s^65)^2", "((z^127 + z^128)*s^64)^3",
                 "((z^127 + z^128)*s^-65)^2", "((z^-128 + z^-127)*s^65)^2"]
        for text in texts:
            with pytest.raises(ParseError, match="power of a non-monomial forms a power of q"):
                parse(text)
            _same_as_reference(text)
        # no power of q forms in K[z^±1]
        assert laurent_from_str("((z^127 + z^128)*z^6500)^2").nums == (1, 2, 1)
    with using_q(Fraction(10**400 + 1, 10**400 - 3)):
        with pytest.raises(ParseError, match=r"about 159360 bits.* \(at position 14\)"):
            parse("(1+z+s+z*s)^16")


def _parse_outcome(parse_text, text):
    """The element as its monomials, or the ParseError's message and pos."""
    try:
        x = parse_text(text)
    except ParseError as e:
        return ("error", str(e), e.pos)
    return ("element", x.monomials())


def _same_as_reference(text):
    try:
        want = _parse_outcome(reference_parse, text)
    except ValueError:
        # the reference's digit test also takes digits int() does not read
        assert _parse_outcome(parse, text)[0] == "error", text
        return
    assert _parse_outcome(parse, text) == want, text


# every grammar character, digits, digits that int() does and does not
# read, and white space that str.isspace() accepts
_PARSE_ALPHABET = "zsq()+-*^/0123456789\u0663\u00b2\t\u00a0 "
# and pieces that reach the width and bit limits
_PARSE_PIECES = [*_PARSE_ALPHABET, "(1+z^20)", "(z + s)", "17", "-2", "2000"]


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(q=st.sampled_from([2, 3, Fraction(-1, 2), Fraction(5, 7)]),
       text=st.one_of(st.text(alphabet=_PARSE_ALPHABET, max_size=14),
                      st.lists(st.sampled_from(_PARSE_PIECES), max_size=8).map("".join)))
def test_parse_matches_the_reference_parser_on_any_text(q, text):
    with using_q(q):
        _same_as_reference(text)


@pytest.mark.parametrize("text", [
    "(1+z^20)*(1+z^20) ", "(1+z^20) * (1+z^20)\t+ 1", "(1+z^20)*(1+z^10)^2 ",
    "(1+z^20)*(1+z^10) ^ 2 *z", "1 / 0 ", "(1+z) ^ -1 ", "(1+z+s)^17 ", "2 ^ 100000 ",
    "(z*s)^100000\t", "(z*s) ^ -1 ^ 2", "( z", "z ^\u00a0", "z z",
    "s^100*z^100 ", "s^100 * (z^100)\t+ 1", "s^-100*(1 + z^-100) ",
])
def test_parse_error_positions_match_the_reference_parser(text):
    _same_as_reference(text)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(q=st.sampled_from([2, 3, Fraction(-1, 2), Fraction(5, 7)]),
       seed=st.integers(0, 2**32), kind=st.sampled_from(["element", "good", "gauge"]))
def test_parse_matches_the_reference_parser_on_benchmark_texts(q, seed, kind):
    rng = random.Random(seed)
    if kind == "element":
        texts = [bench_inputs.element_expr(bench_inputs.rand_element(rng))]
    elif kind == "good":
        texts = [bench_inputs.unit_times(rng, bench_inputs.rand_sigma_good(rng), Fraction(q))]
    else:
        desc, _, _ = bench_inputs.gauge_module(rng, Fraction(q))
        texts = [e for row in desc["entries"] for e in row]
    with using_q(q):
        for text in texts:
            _same_as_reference(text)


def _same_as_reference_coefficient(text):
    """laurent_from_str(text) is the reference's s^0 coefficient when the
    reference element is sigma-free, and refuses it otherwise; a ParseError
    has the reference's message and position."""
    try:
        x = reference_parse(text)
    except ParseError as e:
        want = ("error", str(e), e.pos)
    except ValueError:
        # the reference's digit test also takes digits int() does not read
        with pytest.raises(ParseError):
            laurent_from_str(text)
        return
    else:
        f = x.coefficient(0)
        if x != AqElement.from_laurent(f):
            with pytest.raises(PreconditionViolation, match="not sigma-free"):
                laurent_from_str(text)
            return
        want = ("poly", f.lo, f.nums, f.den)
    try:
        f = laurent_from_str(text)
    except ParseError as e:
        got = ("error", str(e), e.pos)
    else:
        assert type(f) is LaurentPoly, text
        got = ("poly", f.lo, f.nums, f.den)
    assert got == want, text


# the grammar without s: each such text is built in K[z^±1] alone
_Z_ALPHABET = _PARSE_ALPHABET.replace("s", "")
_Z_PIECES = [*_Z_ALPHABET, "(1+z^20)", "(z + 2)", "17", "-2", "2000", "(2/3*z^-1)"]


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(q=st.sampled_from([2, 3, Fraction(-1, 2), Fraction(5, 7)]),
       text=st.one_of(st.text(alphabet=_Z_ALPHABET, max_size=14),
                      st.lists(st.sampled_from(_Z_PIECES), max_size=8).map("".join)),
       seed=st.integers(0, 2**32))
def test_laurent_from_str_matches_the_reference_parser(q, text, seed):
    desc, _, _ = bench_inputs.gauge_module(random.Random(seed), Fraction(q))
    with using_q(q):
        for t in [text, *(e for row in desc["entries"] for e in row)]:
            _same_as_reference_coefficient(t)


_EDGE = POWER_WIDTH_LIMIT // 2


@pytest.mark.parametrize("text", [
    # monomials in K[z^±1]: a product whose left factor has a z-exponent, a
    # power of a product, a power of a sum that is a unit, a non-monomial
    # times a monomial
    "z*z^-3*2", "(2*z)^3", "(2/3*z^-1)^-2", "(z + z)^3", "(z + z)^-2",
    "(1 + z)*2*z", "3*z*(z - 1)",
    # inverses of coefficients with numerator -1, 1, -2 in both rings
    "(-2*z)^-1", "(-1/3*z)^-1", "(1/3*s)^-1", "(-2/3*s)^-2",
    # exactly at the width limit in both rings, at the bit limit (at q = 2,
    # s^64*z^128 forms q^(64*128) = q^POWER_BITS_LIMIT) and at the span limit
    f"(1 + z^{_EDGE})^2", f"(1 + z^{_EDGE})*(1 + z^{_EDGE})", f"(1 + s^{_EDGE})^2",
    "s^64*z^128", f"1 + z^{SPAN_LIMIT - 1}",
])
def test_parse_at_the_ring_and_limit_edges_matches_the_reference_parser(text):
    with using_q(2):
        _same_as_reference(text)
        _same_as_reference_coefficient(text)


def test_a_sum_past_the_span_limit_is_refused_in_both_rings():
    n = SPAN_LIMIT - 1
    for text in (f"z^-1 + z^{n}", f"z^{n} + z^-1", f"z^-1*s + z^{n}*s", f"z^{n}*s - z^-1*s"):
        for parse_text in (parse, laurent_from_str):
            with pytest.raises(ParseError, match=rf"sum reaches z-span {SPAN_LIMIT + 1}, past"):
                parse_text(text)
    assert len(laurent_from_str(f"z^-1 + z^{n - 1}").nums) == SPAN_LIMIT
    assert parse(f"z^{n - 1}*s + z^-1*s").sigma_support() == [1]


@pytest.mark.parametrize("text, want", [
    ("s*s^-1", "1"), ("s*z*s^-1", "2*z"), ("z + s - s", "z"), ("s + 1", None),
])
def test_laurent_from_str_with_an_s_goes_through_the_torus(text, want):
    _same_as_reference_coefficient(text)
    if want is None:
        with pytest.raises(PreconditionViolation) as e:
            laurent_from_str(text)
        assert str(e.value) == f"expression is not sigma-free: {text}"
    else:
        assert laurent_to_str(laurent_from_str(text)) == want


@pytest.mark.parametrize(
    "text, message",
    [
        ("z^\u00b2", "expected integer (at position 2)"),
        ("3\u00b2", "unexpected trailing input (at position 1)"),
        ("\u00b2", "expected atom (at position 0)"),
    ],
)
def test_parse_reads_exactly_the_digits_int_reads(text, message):
    assert parse("z^\u0663") == parse("z^3")
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message


def test_parse_an_integer_past_the_int_digit_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError) as e:
            parse("z + 1" + "0" * 4300)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(e.value) == "integer of 4301 digits is too long (at position 4)"


def test_mul_associative_distributive(rng):
    for _ in range(60):
        x = rand_aq(rng)
        y = rand_aq(rng)
        w = rand_aq(rng)
        assert (x * y) * w == x * (y * w)
        assert x * (y + w) == x * y + x * w
        assert (x + y) * w == x * w + y * w


def test_degree_additivity_and_goodness(rng):
    for _ in range(60):
        x = rand_aq(rng)
        y = rand_aq(rng)
        if x.is_zero() or y.is_zero():
            continue
        dx, dy, dxy = degrees(x), degrees(y), degrees(x * y)
        assert dxy.deg_sigma == dx.deg_sigma + dy.deg_sigma
        assert dxy.deg_z == dx.deg_z + dy.deg_z
        if dx.sigma_good and dy.sigma_good:
            assert dxy.sigma_good
        if dx.z_good and dy.z_good:
            assert dxy.z_good
    assert degrees(AqElement.zero()) is None


def test_degrees_classification():
    d = degrees(parse("z - s - s^-1"))
    assert (d.deg_sigma, d.deg_z, d.sigma_good, d.z_good) == (2, 1, True, False)
    d = degrees(parse("(z+1)*s"))
    assert (d.deg_sigma, d.deg_z, d.sigma_good, d.z_good) == (0, 1, False, True)
    d = degrees(parse("3*z^-2*s^5"))
    assert (d.deg_sigma, d.deg_z, d.sigma_good, d.z_good) == (0, 0, True, True)


def test_epsilon_anti_automorphism(rng):
    assert epsilon(parse("z")) == parse("z")
    assert epsilon(parse("s")) == parse("s^-1")
    for _ in range(40):
        x = rand_aq(rng)
        y = rand_aq(rng)
        assert epsilon(x * y) == epsilon(y) * epsilon(x)
        assert epsilon(x + y) == epsilon(x) + epsilon(y)
        assert epsilon(epsilon(x)) == x


def test_fourier_automorphism(rng):
    assert fourier(parse("z")) == parse("s")
    assert fourier(parse("s")) == parse("z^-1")
    for _ in range(40):
        x = rand_aq(rng)
        y = rand_aq(rng)
        assert fourier(x * y) == fourier(x) * fourier(y)
        z4 = fourier(fourier(fourier(fourier(x))))
        assert z4 == x


def test_fourier_matches_the_image_of_each_monomial(rng):
    # c z^j s^i |-> c s^j z^-i = c q^(-ij) z^-i s^j, summed monomial by monomial
    for q in QS:
        with using_q(q):
            for _ in range(60):
                x = rand_aq(rng, max_width=3)
                want = AqElement.zero()
                for j, i, c in x.monomials():
                    want = want + AqElement.monomial(c * get_q() ** (-i * j), -i, j)
                got = fourier(x)
                assert got == want
                assert all(type(c) is Fraction for _, _, c in got.monomials())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(QS))
def test_difference_is_the_sum_with_the_negation(seed, q):
    r = random.Random(seed)
    with using_q(q):
        a, b, c = (rand_aq(r, max_width=3) for _ in range(3))
        assert a - b == a + (-b)
        assert a - a == 0
        # b + c shares b's coefficients, so some differences cancel
        assert (b + c) - b == c
        assert b - (b + c) == -c


def test_sigma_conj(rng):
    s = AqElement.sigma(1)
    si = AqElement.sigma(-1)
    for _ in range(20):
        x = rand_aq(rng)
        assert sigma_conj(x, 1) == s * x * si
        assert sigma_conj(x, -2) == AqElement.sigma(-2) * x * AqElement.sigma(2)


def test_z_form_round_trip(rng):
    for _ in range(40):
        x = rand_aq(rng)
        zf = to_z_form(x)
        assert from_z_form(zf) == x
        if not x.is_zero():
            assert degrees(x).deg_z == max(zf) - min(zf)


@pytest.mark.parametrize(
    "q,text,want",
    [
        (Fraction(2), "z^2*s + 3*z*s^-1 - 2 + z^-1*s^2",
         {-1: "4*s^2", 0: "-2", 1: "6*s^-1", 2: "1/4*s"}),
        (Fraction(3), "z^3 - 2*z*s + s^-2", {0: "s^-2", 1: "-2/3*s", 3: "1"}),
        (Fraction(-1, 2), "z^2*s + 3*z*s^-1 - 2 + z^-1*s^2",
         {-1: "1/4*s^2", 0: "-2", 1: "-3/2*s^-1", 2: "4*s"}),
        (Fraction(-1, 2), "z^3 - 2*z*s + s^-2", {0: "s^-2", 1: "4*s", 3: "1"}),
    ],
)
def test_to_z_form_fixed_outputs(q, text, want):
    with using_q(q):
        x = parse(text)
        zf = to_z_form(x)
        assert {k: laurent_to_str(f, var="s") for k, f in zf.items()} == want
        assert from_z_form(zf) == x


def test_unit_arithmetic():
    u = AqElement.monomial(Fraction(-3, 2), 2, -1)
    assert u.is_unit()
    assert u * u.inverse_unit() == AqElement.one()
    assert not parse("1 + s").is_unit()
    with pytest.raises(PreconditionViolation):
        parse("1 + s").inverse_unit()
    assert parse("z*s")**-2 * parse("z*s")**2 == AqElement.one()


def _repeated(x, n, one):
    out = one
    for _ in range(n):
        out = out * x
    return out


@pytest.mark.parametrize("ring", ["laurent", "aq"])
def test_powers_square_only_up_to_the_top_bit(monkeypatch, ring):
    # x**n is n.bit_length() - 1 squarings and popcount(n) - 1 other
    # products; x**16 is four squarings, with no unused x**32
    if ring == "laurent":
        cls, x, one = LaurentPoly, LaurentPoly(-1, (1, 2, Fraction(1, 3))), LaurentPoly.const(1)
    else:
        cls, x, one = AqElement, parse("1 + z + s"), AqElement.one()
    want = {n: _repeated(x, n, one) for n in range(13)}
    calls = []
    product = cls.__mul__

    def counting(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(cls, "__mul__", counting)
    for n in range(13):
        calls.clear()
        assert x**n == want[n], n
        assert len(calls) == max(n.bit_length() - 1, 0) + max(bin(n).count("1") - 1, 0), n
    calls.clear()
    x**16
    assert len(calls) == 4


def test_negative_powers_of_a_unit_are_powers_of_its_inverse():
    for q in (2, Fraction(-1, 2)):
        with using_q(q):
            u = AqElement.monomial(Fraction(-3, 2), 2, -1)
            inv = u.inverse_unit()
            for n in range(1, 8):
                assert u**-n == _repeated(inv, n, AqElement.one()), (q, n)
                assert u**-n * u**n == AqElement.one(), (q, n)


def test_unit_normalize(rng):
    for _ in range(30):
        x = rand_aq(rng)
        if x.is_zero():
            continue
        n1 = unit_normalize(x)
        assert unit_normalize(n1) == n1
        u = AqElement.monomial(Fraction(rng.randrange(1, 5)), rng.randrange(-2, 3), rng.randrange(-2, 3))
        assert unit_normalize(u * x) == n1


def test_good_normal_coeffs():
    u, coeffs = good_normal_coeffs(parse("s^2 - 3*s + 2"))
    assert [laurent_to_str(c) for c in coeffs] == ["2", "-3"]
    rebuilt = AqElement.sigma(len(coeffs))
    for i, c in enumerate(coeffs):
        rebuilt = rebuilt + AqElement.from_laurent(c) * AqElement.sigma(i)
    assert u * parse("s^2 - 3*s + 2") == rebuilt
    # z*s^3 + s^5 normalizes to p0 = q^-3 z, p1 = 0, t = 2
    u, coeffs = good_normal_coeffs(parse("z*s^3 + s^5"))
    assert coeffs[0] == LaurentPoly.monomial(Fraction(1, 8), 1)
    assert coeffs[1].is_zero()
    with pytest.raises(PreconditionViolation):
        good_normal_coeffs(parse("(1+z)*s"))
    with pytest.raises(PreconditionViolation):
        good_normal_coeffs(AqElement.zero())


# -- division -------------------------------------------------------------------


def _sigma_width(x):
    d = degrees(x)
    return -1 if d is None else d.deg_sigma


def _z_width(x):
    d = degrees(x)
    return -1 if d is None else d.deg_z


def test_sigma_divide_postconditions(rng):
    for _ in range(120):
        a = rand_aq(rng)
        b = rand_aq(rng)
        if a.is_zero() or b.is_zero():
            continue
        r, w = (a, b) if _sigma_width(a) >= _sigma_width(b) else (b, a)
        for bottom in (False, True):
            g, h, rem = sigma_divide(r, w, bottom=bottom)
            assert AqElement.from_laurent(g) * r == h * w + rem
            assert _sigma_width(rem) < _sigma_width(w) or rem.is_zero()
            i_anchor = max(w.sigma_support()) if not bottom else min(w.sigma_support())
            if w.coefficient(i_anchor).is_unit():
                assert g.is_unit()


def test_sigma_divide_exactness_cases():
    # exact multiples leave zero remainder with unit cofactor
    p = parse("s - 2")
    x = parse("(1+z)*s + 3")
    g, h, rem = sigma_divide(x * p, p)
    assert rem.is_zero() and g.is_unit()
    assert AqElement.from_laurent(g) * (x * p) == h * p
    # degrees are support widths: a narrower dividend cannot be divided,
    # but any single monomial divides any other exactly
    with pytest.raises(PreconditionViolation):
        sigma_divide(parse("s + 1"), parse("s^2 + s + 1"))
    g, h, rem = sigma_divide(parse("s"), parse("s^2"))
    assert rem.is_zero() and g.is_unit()
    with pytest.raises(PreconditionViolation):
        sigma_divide(parse("s"), AqElement.zero())


def test_sigma_divide_zero_dividend():
    g, h, rem = sigma_divide(AqElement.zero(), parse("s - 2"))
    assert g.is_unit() and h.is_zero() and rem.is_zero()


def test_z_divide_postconditions(rng):
    for _ in range(120):
        a = rand_aq(rng)
        b = rand_aq(rng)
        if a.is_zero() or b.is_zero():
            continue
        r, w = (a, b) if _z_width(a) >= _z_width(b) else (b, a)
        for bottom in (False, True):
            g, h, rem = z_divide(r, w, bottom=bottom)
            assert AqElement.from_sigma_poly(g) * r == h * w + rem
            assert _z_width(rem) < _z_width(w) or rem.is_zero()
            zf = to_z_form(w)
            k_anchor = max(zf) if not bottom else min(zf)
            if zf[k_anchor].is_unit():
                assert g.is_unit()


def test_z_divide_mirrors_sigma_divide():
    # dividing z - (s + s^-1) by itself in z-mode is exact
    w = parse("z - s - s^-1")
    g, h, rem = z_divide(parse("z^2") * w, w)
    assert rem.is_zero()
    assert AqElement.from_sigma_poly(g) * (parse("z^2") * w) == h * w


def test_constants_hash_like_their_scalars():
    # a constant LaurentPoly or AqElement equals its scalar, so a set or a
    # dict keyed by one finds the other, in both directions
    for c in (0, 2, -3, Fraction(1, 2), Fraction(-7, 3)):
        f = LaurentPoly.const(c)
        x = AqElement.from_laurent(f)
        for u, v in ((f, c), (x, c), (x, f)):
            assert u == v and v == u
            assert hash(u) == hash(v)
            assert v in {u} and u in {v}
            assert {u: "key"}[v] == "key" and {v: "key"}[u] == "key"
    # an element on s^0 alone equals its coefficient, a constant or not
    g = LaurentPoly(-1, (1, 2))
    y = AqElement.from_laurent(g)
    assert y == g and g in {y} and y in {g}
    # an element off s^0 equals no scalar and no LaurentPoly
    assert AqElement.sigma(1) != 1 and AqElement.sigma(1) not in {1, LaurentPoly.const(1)}
