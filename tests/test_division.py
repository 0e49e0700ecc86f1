"""Both divisions against the loop they replaced (`division_oracle`): the
same (g, h, rem), or the same exception type and message, at several q,
from the top and from the bottom."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qec.aq import AqElement, parse, sigma_divide, z_divide
from qec.laurent import LaurentPoly
from qec.scalars import using_q

import division_oracle

QS = [2, 3, Fraction(-1, 2), Fraction(5, 7)]
DIVISIONS = [
    (sigma_divide, division_oracle.sigma_divide),
    (z_divide, division_oracle.z_divide),
]


def _outcome(divide, r, w, bottom):
    """(g, h, rem) by their canonical fields, or the exception raised."""
    try:
        g, h, rem = divide(r, w, bottom=bottom)
    except Exception as e:  # compared with the oracle's, type and message
        return ("error", type(e), str(e))
    assert type(g) is LaurentPoly and type(h) is AqElement and type(rem) is AqElement
    return ("ok", (g.lo, g.nums, g.den), h._c, rem._c)


def _same_as_oracle(r, w, bottom):
    for divide, oracle in DIVISIONS:
        got = _outcome(divide, r, w, bottom)
        assert got == _outcome(oracle, r, w, bottom), (divide.__name__, str(r), str(w), bottom)


_scalars = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 7)),
)


def _elements(s_width, z_width, max_terms):
    """Nonzero elements with s-exponents in [-1, s_width - 1] and
    z-exponents in [-1, z_width - 1]."""
    monomials = st.dictionaries(
        st.tuples(st.integers(-1, s_width - 1), st.integers(-1, z_width - 1)),
        _scalars,
        min_size=1,
        max_size=max_terms,
    )

    def build(terms):
        x = AqElement.zero()
        for (i, j), c in terms.items():
            x = x + AqElement.monomial(c, j, i)
        return x

    return monomials.map(build)


_small = _elements(3, 3, 5)


@st.composite
def _pairs(draw):
    """(dividend, divisor): of the divisor's size, much wider in s or in z,
    a multiple of the divisor plus a small remainder, zero, or narrower
    than the divisor (a refusal); or a zero divisor."""
    shape = draw(st.sampled_from(
        ["small", "wide_s", "wide_z", "multiple", "zero", "narrower", "zero_divisor"]
    ))
    w = draw(_elements(4, 4, 5) if shape == "narrower" else _small)
    if shape == "wide_s":
        r = draw(_elements(14, 2, 8))
    elif shape == "wide_z":
        r = draw(_elements(2, 14, 8))
    elif shape == "multiple":
        r = draw(_small) * w + draw(_small)
    elif shape == "zero":
        r = AqElement.zero()
    else:
        r = draw(_small)
    if shape == "zero_divisor":
        w = AqElement.zero()
    return r, w


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(q=st.sampled_from(QS), bottom=st.booleans(), pair=_pairs())
def test_divisions_match_the_oracle(q, bottom, pair):
    r, w = pair
    with using_q(q):
        _same_as_oracle(r, w, bottom)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("bottom", [False, True])
@pytest.mark.parametrize("r, w", [
    # dividends much wider than the divisor, in s and in z
    ("s^12 + 3*z*s^5 - 1", "(1+z)*s + 2"),
    ("z^12*s - 2*z^3 + s^-1", "(z + 1)*s - z^2"),
    ("(2/3 + z)*s^9 + s^-4", "(1 + z^2)*s^2 + z*s - 3"),
    # exact multiples: every coefficient of the remainder cancels
    ("((z+1)*s - 2)*(s^3 + z*s + z^-1)", "(z+1)*s - 2"),
    ("(z - s - s^-1)*(z^3 - 2*s*z)", "z - s - s^-1"),
    # a zero dividend, a divisor wider than the dividend, a zero divisor
    ("0", "s - 2"),
    ("s + 1", "s^2 + z^3*s + z"),
    ("s + 1", "0"),
    ("0", "0"),
    # one monomial by another
    ("3*z^2*s^5", "z*s^2"),
])
def test_division_cases_match_the_oracle(q, bottom, r, w):
    with using_q(q):
        _same_as_oracle(parse(r), parse(w), bottom)


def test_refusals_keep_their_messages_and_order():
    zero, r = AqElement.zero(), parse("s + z")
    for divide, width in ((sigma_divide, "sigma"), (z_divide, "z")):
        # a zero divisor is refused before a zero dividend is answered
        for dividend in (r, zero):
            with pytest.raises(Exception, match="^division by zero$"):
                divide(dividend, zero)
        with pytest.raises(Exception, match=f"^divisor has larger {width}-degree than dividend$"):
            divide(r, parse("s^2*z^2 + z + s"))
