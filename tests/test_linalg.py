"""Differential tests of the exact linear-algebra kernel against sympy.

sympy is an independent oracle used here only; the library has no runtime
dependency on it.  Rational matrices exercise `rref`, `rank`, `nullspace` and
`charpoly` (sparse ones reach every branch of the Hessenberg reduction),
integer matrices exercise `echelon` over Z, products of linear factors
exercise `rational_roots`, and Laurent matrices exercise `echelon`, `det` and
the annihilator width over Q(z).  `shift_rows` is checked against the walk
over Laurent image vectors that it replaced, and `jordan_structure_constant`
against `jordan_form` on planted Jordan matrices.
"""

import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from qec import linalg
from qec.errors import CertificateFailure, SearchExhausted
from qec.ideals import minimal_annihilator_width
from qec.aq import parse
from qec.laurent import ONE, ZERO, LaurentMatrix, LaurentPoly, det, divexact, echelon
from qec.linalg import (
    TRIAL_DIVISION_LIMIT,
    _primitive,
    charpoly,
    jordan_structure_constant,
    nullspace,
    rank,
    rational_roots,
    rref,
    shift_rows,
)
from qec.modules import Good, sigma_apply, to_matrix, window_eigenspace
from qec.samples import rand_laurent, rand_scalar, rand_sigma_matrix
from qec.scalars import using_q

Z = sympy.Symbol("z")
QZ = QQ.frac_field(Z)


def _rand_rational_matrix(rng, nrows, ncols):
    rows = [[rand_scalar(rng) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.4:
        # force a dependent row so kernels and rank drops show up
        a, b, c = rng.randrange(nrows), rng.randrange(nrows), rng.randrange(nrows)
        f, g = rand_scalar(rng), rand_scalar(rng)
        rows[a] = [f * x + g * y for x, y in zip(rows[b], rows[c])]
    return rows


def _sym_matrix(rows):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )


def _frac(r):
    return Fraction(int(r.p), int(r.q))


def test_rank_nullspace_charpoly_match_sympy(rng):
    for _ in range(120):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = _rand_rational_matrix(rng, nrows, ncols)
        m = _sym_matrix(rows)
        assert rank(rows) == m.rank()
        # sympy's basis is the canonical one: 1 at its free column, 0 at the
        # others, so the bases must agree vector for vector
        want = [[_frac(x) for x in v] for v in m.nullspace()]
        assert nullspace(rows, ncols) == want
        if nrows == ncols:
            coeffs = m.charpoly(sympy.Symbol("x")).all_coeffs()
            want = LaurentPoly(0, [_frac(c) for c in reversed(coeffs)])
            assert charpoly(rows) == want


def _sympy_charpoly(rows):
    n = len(rows)
    m = sympy.Matrix(n, n, [sympy.Rational(x) for row in rows for x in row])
    coeffs = m.charpoly(sympy.Symbol("x")).all_coeffs()
    return LaurentPoly(0, [_frac(c) for c in reversed(coeffs)])


def _sparse_squares(elements):
    """Square matrices up to 10 x 10, about half their entries zero, so that
    Hessenberg columns without a pivot and row/column swaps both occur."""
    return st.integers(0, 10).flatmap(
        lambda n: st.lists(
            st.lists(st.one_of(st.just(0), elements), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    )


@settings(max_examples=150, deadline=None)
@given(_sparse_squares(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))))
def test_charpoly_matches_sympy_on_sparse_rational_matrices(rows):
    assert charpoly(rows) == _sympy_charpoly(rows)


@settings(max_examples=100, deadline=None)
@given(_sparse_squares(st.integers(-9, 9)))
def test_charpoly_of_int_matrices_is_exact(rows):
    # int / int is a float in Python: every coefficient must stay a Fraction
    got = charpoly(rows)
    assert all(type(c) is Fraction for c in got.coeffs)
    assert got == _sympy_charpoly(rows)


def test_charpoly_of_a_dense_20x20_rational_matrix_is_fast():
    rng = random.Random(20)
    rows = [
        [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
         for _ in range(20)]
        for _ in range(20)
    ]
    start = time.perf_counter()
    got = charpoly(rows)
    assert time.perf_counter() - start < 1.5
    assert got == _sympy_charpoly(rows)


entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)


@st.composite
def rational_matrices(draw):
    """(ncols, rows) up to 8 x 10, with zero rows and repeated rows."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(1, 10))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "repeat")))
        if kind == "zero":
            rows[i] = [Fraction(0)] * ncols
        elif kind == "repeat" and i:
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
    return ncols, rows


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_rref_rank_nullspace_match_sympy(case):
    ncols, rows = case
    m = sympy.Matrix(len(rows), ncols, [sympy.Rational(x.numerator, x.denominator)
                                        for row in rows for x in row])
    want, want_pivots = m.rref()
    got, pivots = rref(rows)
    assert pivots == list(want_pivots)
    # zero rows stay, last, so the result has the input's shape
    assert got == [[_frac(x) for x in want.row(i)] for i in range(len(rows))]
    assert rank(rows) == m.rank()
    assert nullspace(rows, ncols) == [[_frac(x) for x in v] for v in m.nullspace()]


square_int_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=150, deadline=None)
@given(square_int_matrices)
def test_echelon_over_ints_gives_det_as_signed_last_pivot(rows):
    pivots, _, sign, last = echelon(rows)
    got = sign * last if len(pivots) == len(rows) else 0
    assert got == sympy.Matrix(rows).det()


def test_nullspace_of_no_rows_is_the_identity():
    assert nullspace([], 3) == [
        [Fraction(1), 0, 0],
        [0, Fraction(1), 0],
        [0, 0, Fraction(1)],
    ]


def _to_qz(f):
    return QZ.from_sympy(
        sum(
            (sympy.Rational(c.numerator, c.denominator) * Z**e for e, c in f.terms()),
            sympy.Integer(0),
        )
    )


def _rand_laurent_matrix(rng, nrows, ncols):
    rows = [
        [rand_laurent(rng, 2, 2) if rng.random() < 0.8 else ZERO for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if nrows > 1 and rng.random() < 0.3:
        a, b = rng.sample(range(nrows), 2)
        f = rand_laurent(rng, 1, 1)
        rows[a] = [f * e for e in rows[b]]
    return rows


def test_echelon_rank_and_det_match_sympy_over_qz(rng):
    for _ in range(300):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = _rand_laurent_matrix(rng, nrows, ncols)
        dm = DomainMatrix([[_to_qz(f) for f in row] for row in rows], (nrows, ncols), QZ)
        pivots, _, sign, _ = echelon(rows)
        assert len(pivots) == dm.rank()
        assert sign in (1, -1)
        if nrows == ncols:
            assert _to_qz(det(LaurentMatrix(rows))) == dm.det()


def test_echelon_last_pivot_is_signed_det():
    rows = LaurentMatrix.from_strs([["0", "1"], ["z", "1 + z"]]).rows
    z = LaurentPoly.monomial(1, 1)
    assert echelon(rows) == ([0, 1], [[z, 1 + z], [ZERO, z]], -1, z)
    assert det(LaurentMatrix(rows)) == LaurentPoly.monomial(-1, 1)
    # a column without a pivot is skipped, not fatal
    assert echelon([[ZERO, LaurentPoly.const(1)], [ZERO, LaurentPoly.const(2)]])[0] == [1]
    assert echelon([]) == ([], [], 1, LaurentPoly.const(1))


def test_minimal_annihilator_width_is_the_first_dependent_orbit_prefix(rng):
    for q in (2, Fraction(-1, 2)):
        with using_q(q):
            for _ in range(25):
                T = rand_sigma_matrix(rng, n_max=3)
                v = [rand_laurent(rng, 1, 1) if rng.random() < 0.8 else ZERO
                     for _ in range(T.n)]
                orbit = [v]
                for _ in range(4):
                    orbit.append(sigma_apply(T, orbit[-1], 1))
                # the first d with v, s(v), ..., s^d(v) of rank <= d over Q(z)
                first = next(
                    d for d in range(T.n + 1)
                    if DomainMatrix(
                        [[_to_qz(w[i]) for w in orbit[:d + 1]] for i in range(T.n)],
                        (T.n, d + 1), QZ,
                    ).rank() <= d
                )
                for cap in range(5):
                    want = first if first <= cap else None
                    assert minimal_annihilator_width(T, v, cap) == want


def test_shift_rows_sorted_by_component_and_exponent():
    x = LaurentPoly.monomial(1, 1)
    cols = [[x, LaurentPoly.const(Fraction(2, 3))], [ZERO, x * x - 3]]
    unit, rows = shift_rows(cols, range(1), 1)
    assert list(rows) == [(0, 1), (1, 0), (1, 2)]
    assert unit == 3
    want = {(0, 1): [1, 0], (1, 0): [Fraction(2, 3), -3], (1, 2): [0, 1]}
    for key, row in want.items():
        assert rows[key] == {j: unit * x for j, x in enumerate(row) if x}
        assert all(type(x) is int for x in rows[key].values())
    # unit = den v^j1 u^-j0 for scale u/v, j0 = min(shifts[0], 0) and
    # j1 = max(shifts[-1], 0)
    assert shift_rows(cols, range(1), Fraction(2, 5))[0] == 3
    assert shift_rows(cols, range(-1, 3), Fraction(2, 5))[0] == 3 * 5**2 * 2


def _image_rows(cols, shifts, scale):
    """The image-list linearization, kept as the oracle of `shift_rows`:
    each scale^j z^j col_b built as a Laurent vector, then its terms
    collected into rows keyed (component, exponent)."""
    images = [
        [(f * Fraction(scale) ** j).shift(j) for f in col] for col in cols for j in shifts
    ]
    rows = {}
    for t, vec in enumerate(images):
        for i, f in enumerate(vec):
            for e, c in f.terms():
                rows.setdefault((i, e), [0] * len(images))[t] = c
    return dict(sorted(rows.items()))


def test_shift_rows_match_the_image_list_linearization(rng):
    for scale in (1, 2, 3, Fraction(-1, 2), Fraction(5, 7)):
        for _ in range(60):
            n = rng.randint(1, 3)
            cols = [
                [
                    ZERO if rng.random() < 0.2 else rand_laurent(rng, max_width=3)
                    for _ in range(n)
                ]
                for _ in range(rng.randint(1, 3))
            ]
            lo = rng.randint(-3, 1)
            shifts = range(lo, lo + rng.randint(1, 5))
            want = _image_rows(cols, shifts, scale)
            unit, rows = shift_rows(cols, shifts, scale)
            assert type(unit) is int
            assert list(rows) == list(want)
            for key, row in want.items():
                assert rows[key] == {j: unit * x for j, x in enumerate(row) if x}
                assert all(type(x) is int for x in rows[key].values())


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.just(0),
            st.integers(-30, 30),
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
        ),
        max_size=8,
    )
)
def test_primitive_rows_are_integral_with_content_one_on_the_same_line(row):
    out = _primitive(row)
    assert len(out) == len(row)
    assert all(type(x) is int for x in out)
    if not any(row):
        assert out == [0] * len(row)
        return
    assert gcd(*out) == 1
    assert next(x for x in out if x) > 0
    i = next(i for i, x in enumerate(row) if x)
    lam = Fraction(out[i]) / row[i]
    assert out == [lam * x for x in row]


def test_rational_roots_match_sympy(rng):
    x = sympy.Symbol("x")
    for _ in range(150):
        # products of linear factors (roots +-1 included) and, at times, an
        # irreducible quadratic that must stay unsplit
        factors = [
            sympy.Integer(rng.choice((1, 2, 3, 4, 9))) * x
            - rng.choice((-6, -3, -2, -1, 1, 2, 3, 5))
            for _ in range(rng.randint(1, 5))
        ]
        if rng.random() < 0.3:
            factors.append(x**2 - rng.choice((2, 3, 5, -1)))
        if rng.random() < 0.2:
            factors.append(x)
        poly = sympy.Poly(sympy.Mul(*factors), x)
        # a rational scale puts denominators into the coefficients
        scale = rand_scalar(rng, nonzero=True)
        coeffs = [_frac(c) * scale for c in poly.all_coeffs()]
        roots, left = rational_roots(LaurentPoly(0, list(reversed(coeffs))))
        want = sorted((_frac(r), m) for r, m in sympy.roots(poly, filter="Q").items())
        assert roots == want
        assert left == poly.degree() - sum(m for _, m in want)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.fractions(min_value=-12, max_value=12, max_denominator=9).filter(bool),
        st.integers(1, 3),
        max_size=4,
    ),
    st.integers(0, 2),
    st.sampled_from((None, 1, 2, 7)),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
)
def test_rational_roots_returns_every_planted_root(planted, zero_mult, quad, scale):
    """(z - r)^m for each planted root r, times z^zero_mult, times z^2 + quad
    (no real root) when quad is set: every root comes back with its
    multiplicity, however near 0 or far out the Cauchy bounds put it."""
    p = LaurentPoly.monomial(scale, zero_mult)
    for r, m in planted.items():
        p = p * LaurentPoly(0, (-r, 1)) ** m
    if quad is not None:
        p = p * LaurentPoly(0, (quad, 0, 1))
    want = dict(planted)
    if zero_mult:
        want[Fraction(0)] = zero_mult
    assert rational_roots(p) == (sorted(want.items()), 0 if quad is None else 2)


def _planted_jordan(rng, blocks):
    """P J P^-1 as Fraction rows, for J with these (eigenvalue, size) blocks
    and a random invertible integer P."""
    n = sum(size for _, size in blocks)
    J = sympy.zeros(n, n)
    at = 0
    for lam, size in blocks:
        for i in range(at, at + size):
            J[i, i] = sympy.Rational(lam.numerator, lam.denominator)
            if i + 1 < at + size:
                J[i, i + 1] = 1
        at += size
    P = sympy.zeros(n, n)
    while P.det() == 0:
        P = sympy.Matrix(n, n, lambda i, j: rng.randint(-3, 3))
    A = P * J * P.inv()
    return A, [[_frac(A[i, j]) for j in range(n)] for i in range(n)]


def _sympy_jordan_blocks(A):
    """(eigenvalue, size) of each block of sympy's Jordan form, in its order."""
    _, J = A.jordan_form()
    blocks, size = [], 1
    for i in range(J.rows):
        if i + 1 < J.rows and J[i, i + 1] == 1:
            size += 1
        else:
            blocks.append((_frac(J[i, i]), size))
            size = 1
    return blocks


JORDAN_CASES = [
    [(0, 4)],  # nilpotent
    [(0, 2), (0, 1), (3, 2)],
    [(Fraction(1, 2), 1), (Fraction(1, 2), 3), (-2, 2)],
    [(Fraction(-2, 3), 2), (Fraction(5, 4), 4)],
    [(1, 1), (1, 2), (1, 1), (1, 3)],
]


def test_jordan_structure_constant_matches_sympy_jordan_form(rng, monkeypatch):
    """Planted blocks of sizes up to 4, with eigenvalue 0, repeated
    eigenvalues of mixed sizes and non-integer eigenvalues; the list must
    come in the order (eigenvalue, -size) itself.  The rank chain of an
    eigenvalue stops at its longest block: one `echelon` per power."""
    calls = []
    echelon_ = linalg.echelon

    def counted(rows):
        calls.append(rows)
        return echelon_(rows)

    monkeypatch.setattr(linalg, "echelon", counted)
    eigenvalues = (0, 1, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))
    cases = [[(Fraction(lam), size) for lam, size in case] for case in JORDAN_CASES]
    for _ in range(25):
        blocks, n = [], 0
        for lam in rng.sample(eigenvalues, rng.randint(1, 3)):
            for _ in range(rng.randint(1, 2)):
                size = rng.randint(1, 4)
                if n + size <= 7:
                    blocks.append((Fraction(lam), size))
                    n += size
        cases.append(blocks)
    for blocks in cases:
        A, rows = _planted_jordan(rng, blocks)
        want = sorted(blocks, key=lambda b: (b[0], -b[1]))
        assert sorted(_sympy_jordan_blocks(A)) == sorted(blocks)
        calls.clear()
        assert jordan_structure_constant(rows) == want
        longest = {}
        for lam, size in blocks:
            longest[lam] = max(size, longest.get(lam, 0))
        assert len(calls) == sum(longest.values())


def test_jordan_blocks_that_miss_the_multiplicity_are_a_certificate_failure(monkeypatch):
    """A rank of the chain that comes out one too small (an echelon that
    drops its last pivot) gives blocks covering more than the eigenvalue's
    multiplicity, and a rank that never falls (an echelon that keeps every
    row as a pivot) ends the chain at the multiplicity with blocks covering
    less: both are the typed error, not wrong Jordan data or a hang."""
    echelon_ = linalg.echelon

    def drop_last_pivot(rows):
        pivots, u, sign, last = echelon_(rows)
        return pivots[:-1], u, sign, last

    def keep_every_row(rows):
        return list(range(len(rows))), rows, 1, 1

    monkeypatch.setattr(linalg, "echelon", drop_last_pivot)
    with pytest.raises(CertificateFailure, match="blocks of 1 cover 2 of multiplicity 1"):
        jordan_structure_constant([[1, 0], [0, 2]])
    monkeypatch.setattr(linalg, "echelon", keep_every_row)
    with pytest.raises(CertificateFailure, match="blocks of 0 cover 0 of multiplicity 2"):
        jordan_structure_constant([[0, 1], [0, 0]])


def test_rational_roots_stops_at_the_trial_division_limit():
    p, r = 1000000007, 998244353
    big = LaurentPoly(0, [p * r, -(p + r), 1])
    with pytest.raises(SearchExhausted) as info:
        rational_roots(big)
    assert info.value.bounds == {"trial_division": TRIAL_DIVISION_LIMIT}
    # small coefficients still factor completely
    small = LaurentPoly(0, [6, -5, 1])
    assert rational_roots(small) == ([(Fraction(2), 1), (Fraction(3), 1)], 0)


# -- the sparse-aware kernel against textbook references ------------------------


def _dense_bareiss(rows):
    """Textbook Bareiss: at every step every row below the pivot is updated,
    a zero multiplier included, over ints or Laurent polynomials."""
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    if ncols and isinstance(m[0][0], LaurentPoly):
        zero, prev, div = ZERO, ONE, divexact
    else:
        zero, prev = 0, 1

        def div(a, b):
            quotient, rem = divmod(a, b)
            assert rem == 0
            return quotient

    pivots, sign = [], 1
    for c in range(ncols):
        k = len(pivots)
        i = next((i for i in range(k, len(m)) if m[i][c]), None)
        if i is None:
            continue
        if i != k:
            m[k], m[i] = m[i], m[k]
            sign = -sign
        top, pivot = m[k], m[k][c]
        for row in m[k + 1:]:
            a = row[c]
            row[c] = zero
            for j in range(c + 1, ncols):
                row[j] = div(row[j] * pivot - a * top[j], prev)
        prev = pivot
        pivots.append(c)
    return pivots, m, sign, prev


@st.composite
def sparse_int_matrices(draw):
    """Up to 60 x 60, density 0.02-0.3, optionally banded, with zero rows,
    zero columns and rows that are combinations of others."""
    nrows, ncols = draw(st.integers(0, 60)), draw(st.integers(1, 60))
    density = draw(st.floats(0.02, 0.3))
    band = draw(st.one_of(st.none(), st.integers(0, 5)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [
        [
            rng.randint(-9, 9)
            if rng.random() < density
            and (band is None or abs(j - i * ncols // nrows) <= band)
            else 0
            for j in range(ncols)
        ]
        for i in range(nrows)
    ]
    for i in range(nrows):
        kind = rng.choice(("keep", "keep", "keep", "zero", "combine"))
        if kind == "zero":
            rows[i] = [0] * ncols
        elif kind == "combine" and nrows > 2:
            a, b = rng.sample(range(nrows), 2)
            f, g = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[i] = [f * x + g * y for x, y in zip(rows[a], rows[b])]
    for j in rng.sample(range(ncols), rng.randint(0, ncols // 4)):
        for row in rows:
            row[j] = 0
    return rows


@settings(max_examples=60, deadline=None)
@given(sparse_int_matrices())
def test_lazy_echelon_matches_dense_bareiss_over_ints(rows):
    assert echelon(rows) == _dense_bareiss(rows)


def _rank_by_sympy(rows, ncols):
    if not rows:
        return 0
    return DomainMatrix([[QQ(x) for x in row] for row in rows], (len(rows), ncols), QQ).rank()


@settings(max_examples=60, deadline=None)
@given(sparse_int_matrices(), st.integers(0, 2**32))
def test_integer_echelon_decides_the_span_and_reduces_each_coset_to_one_vector(rows, seed):
    # the first half of the rows is inserted in two batches, the second half
    # is reduced against it: a vector lies in the span iff it reduces to
    # nothing, and otherwise its residue is zero at every pivot, primitive,
    # and the same for every vector of its coset, however it was reached
    rng = random.Random(seed)
    ncols = len(rows[0]) if rows else 1
    half = len(rows) // 2
    basis, probes = rows[:half], rows[half:]
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    piv, early = {}, []
    for k, row in enumerate(basis):
        old = set(piv)
        c = linalg._insert_int(piv, dict(sparse[k]))
        assert (c is None) == (_rank_by_sympy(basis[: k + 1], ncols) == _rank_by_sympy(basis[:k], ncols))
        if c is not None:
            # primitive, with a positive pivot, zero left of it and at every
            # pivot inserted before it
            p, rest = piv[c]
            assert p > 0 and gcd(p, *(x for _, x in rest)) == 1
            assert c not in old and all(j > c and j not in old for j, _ in rest)
        if k == half // 2:
            early = [linalg._reduce_int(piv, dict(x)) for x in sparse[half:]]
            before = set(piv)
    rank = _rank_by_sympy(basis, ncols)
    assert len(piv) == rank
    for row, x, r0 in zip(probes, sparse[half:], early or [None] * len(probes)):
        r = linalg._reduce_int(piv, dict(x))
        assert not set(r) & set(piv)
        if r:
            assert r[min(r)] > 0 and gcd(*r.values()) == 1
        dense = [r.get(j, 0) for j in range(ncols)]
        assert (not r) == (_rank_by_sympy(basis + [row], ncols) == rank)
        assert _rank_by_sympy(basis + [dense], ncols) == _rank_by_sympy(basis + [row], ncols)
        assert _rank_by_sympy(basis + [row, dense], ncols) == _rank_by_sympy(basis + [row], ncols)
        moved = dict(x)
        for b in basis:
            f = rng.randint(-3, 3)
            for j, y in enumerate(b):
                if y:
                    moved[j] = moved.get(j, 0) + f * y
        assert linalg._reduce_int(piv, {j: y for j, y in moved.items() if y}) == r
        if r0 is not None:
            # reduced early, then only at the pivots inserted since
            assert linalg._reduce_int(piv, r0, [c for c in piv if c not in before and c in r0]) == r


def test_lazy_echelon_matches_dense_bareiss_over_laurent_polynomials(rng):
    for _ in range(200):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = _rand_laurent_matrix(rng, nrows, ncols)
        if rng.random() < 0.3:
            rows[rng.randrange(nrows)] = [ZERO] * ncols
        assert echelon(rows) == _dense_bareiss(rows)


def _banded_rational_matrix(rng, n, band):
    rows = [
        [rand_scalar(rng) if abs(i - j) <= band and rng.random() < 0.7 else Fraction(0)
         for j in range(n)]
        for i in range(n)
    ]
    # a few rows become combinations of their neighbours, so the kernel is nonempty
    for i in rng.sample(range(1, n - 1), 4):
        f, g = rand_scalar(rng), rand_scalar(rng)
        rows[i] = [f * x + g * y for x, y in zip(rows[i - 1], rows[i + 1])]
    return rows


def test_rref_and_nullspace_match_sympy_on_banded_40x40(rng):
    for band in (1, 2, 3):
        rows = _banded_rational_matrix(rng, 40, band)
        dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in rows],
                          (40, 40), QQ)
        want, want_pivots = dm.rref()
        want = [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
                for row in want.to_list()]
        got, pivots = rref(rows)
        assert (got, pivots) == (want, list(want_pivots))
        kernel = nullspace(rows, 40)
        assert kernel and kernel == [[_frac(x) for x in v] for v in _sym_matrix(rows).nullspace()]


def test_h0_window_of_a_non_z_good_generator_is_fast():
    # 291 unknowns; a dense elimination over every cell took about 4 s
    with using_q(2):
        T = to_matrix(Good(parse("(s - 1)*(z - s - s^-1)")))
        start = time.perf_counter()
        basis = window_eigenspace(T, 48, 0, 1)
        assert time.perf_counter() - start < 1.0
    assert [[str(f) for f in v] for v in basis] == [["1", "-2*z", "1"]]


# -- the modular pass of nullspace ---------------------------------------------


def test_nullspace_is_right_for_an_unlucky_prime():
    p = linalg._P
    # full rank over Q, rank 1 mod p: the modular kernel e_0 fails the exact
    # check, so the Bareiss path decides
    rows = [[p, 0], [0, 1]]
    assert linalg._modular_nullspace(rows, 2) is None
    assert nullspace(rows, 2) == []
    # a kernel that is one dimension smaller over Q than mod p, with the
    # failing vector first and then last among the lifted ones
    assert nullspace([[p, 0]], 2) == [[0, 1]]
    assert nullspace([[0, 3 * p]], 2) == [[1, 0]]
    # a sparse row reaches the Bareiss path with its missing cells zero
    assert nullspace([{0: p, 1: 0}], 2) == [[0, 1]]
    assert nullspace([{0: p}], 3) == [[0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "rows",
    [
        [[1, -(2**64 + 1)]],
        [[2**70 + 3, -1]],
        [[2**40 + 1, 3**30, 0], [0, 5**20, -(7**30)]],
    ],
)
def test_nullspace_past_the_reconstruction_bound_is_the_bareiss_answer(rows):
    ncols = len(rows[0])
    assert linalg._modular_nullspace(rows, ncols) is None
    want = linalg._bareiss_nullspace(rows, ncols)
    assert nullspace(rows, ncols) == want
    assert want == [[_frac(x) for x in v] for v in _sym_matrix(rows).nullspace()]


def test_nullspace_of_fraction_rows_needs_no_fallback(monkeypatch):
    rows = [
        [Fraction(1, 2), Fraction(-1, 3), 0, Fraction(5, 7)],
        [0, Fraction(2, 9), Fraction(-4, 5), 1],
        [Fraction(1, 2), Fraction(-1, 9), Fraction(-4, 5), Fraction(12, 7)],
    ]
    want = [[_frac(x) for x in v] for v in _sym_matrix(rows).nullspace()]
    as_dicts = [{j: x for j, x in enumerate(row) if x} for row in rows]

    def fail(rows, ncols):
        raise AssertionError("nullspace fell back to the Bareiss path")

    # the Bareiss path raises, so every answer below is the modular pass's
    monkeypatch.setattr(linalg, "_bareiss_nullspace", fail)
    assert nullspace(rows, 4) == want == nullspace(as_dicts, 4)
    # integral kernels and kernels with denominators, one and several vectors
    assert nullspace([[Fraction(2, 3), Fraction(-4, 3)]], 2) == [[2, 1]]
    assert nullspace([[3, 0, 1]], 3) == [[0, 1, 0], [Fraction(-1, 3), 0, 1]]
    assert nullspace([[7, -2, 0], [0, 5, -3]], 3) == [
        [Fraction(6, 35), Fraction(3, 5), 1]
    ]
    assert nullspace([[True, False, True]], 3) == [[0, 1, 0], [-1, 0, 1]]
    # a denominator and a numerator at the reconstruction bound still lift
    bound = linalg._BOUND
    assert nullspace([[bound, -1]], 2) == [[Fraction(1, bound), 1]]
    assert nullspace([[1, bound]], 2) == [[-bound, 1]]
    # the denominator 3 carried from the first vector lifted would push the
    # second, -1/bound, past the bound: that vector is lifted afresh
    assert nullspace([[3 * bound, 3, bound]], 3) == [
        [Fraction(-1, bound), 1, 0], [Fraction(-1, 3), 0, 1]
    ]


def test_rational_reconstruction_inverts_every_fraction_within_the_bound():
    p, bound = linalg._P, linalg._BOUND
    assert 2 * bound**2 < p < 2 * (bound + 1) ** 2
    for n, d in [(0, 1), (-5, 1), (5, 1), (2, 3), (-7, 12), (bound, 1), (-bound, 1),
                 (1, bound), (-bound, bound - 2), (bound - 1, bound), (3**39, 2**62 + 1)]:
        assert linalg._rational(n * pow(d, -1, p) % p) == (n, d)
    # 1/(bound + 2) has no representative n/d with |n|, d <= bound
    assert linalg._rational(pow(bound + 2, -1, p)) is None
    assert linalg._rational((2**64 + 1) % p) is None


def _planted_banded(rng, n, band):
    """A banded sparse n x n system, ints and Fractions, lists and dicts,
    whose kernel holds planted vectors: up to four columns are replaced by
    combinations of the columns within `band` before them."""
    cols = [
        [
            rand_scalar(rng) if abs(i - j) <= band and rng.random() < 0.6 else Fraction(0)
            for i in range(n)
        ]
        for j in range(n)
    ]
    for j in rng.sample(range(1, n), min(n - 1, rng.randint(0, 4))):
        cols[j] = [Fraction(0)] * n
        for k in range(max(0, j - band), j):
            c = Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 7, 64)))
            cols[j] = [x + c * y for x, y in zip(cols[j], cols[k])]
    rows = [list(r) for r in zip(*cols)]
    for i, row in enumerate(rows):
        if rng.random() < 0.5:  # integer rows, as `shift_rows` writes them
            d = lcm(*(x.denominator for x in row))
            row = [int(x * d) for x in row]
        rows[i] = {j: x for j, x in enumerate(row) if x} if rng.random() < 0.5 else row
    return rows


def test_nullspace_matches_sympy_on_planted_banded_systems(rng, monkeypatch):
    fell_back = []
    bareiss = linalg._bareiss_nullspace

    def counted(rows, ncols):
        fell_back.append(ncols)
        return bareiss(rows, ncols)

    monkeypatch.setattr(linalg, "_bareiss_nullspace", counted)
    for _ in range(120):
        n, band = rng.randint(2, 24), rng.randint(0, 4)
        rows = _planted_banded(rng, n, band)
        dense = [row if isinstance(row, list) else [row.get(j, 0) for j in range(n)]
                 for row in rows]
        dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in map(Fraction, row)]
                           for row in dense], (n, n), QQ)
        want = [[Fraction(int(x.numerator), int(x.denominator)) for x in v]
                for v in dm.nullspace().to_list()]
        assert nullspace(rows, n) == want
    # small planted entries all lift mod p: no system needs the Bareiss path
    assert fell_back == []
