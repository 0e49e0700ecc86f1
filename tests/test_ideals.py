"""Left-ideal machinery: principal membership, annihilators of cosets in
cyclic modules, cyclic-vector searches, and the line-subbundle probe."""

import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import pytest
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

import qec.ideals
from charpoly_probe import charpoly_probe
from qec.aq import AqElement, degrees, parse, sigma_divide, unit_normalize
from qec.cohomology import euler_form, fixed_space
from qec.errors import CertificateFailure, PreconditionViolation, SearchExhausted
from qec.ideals import (
    IdealPresentation,
    SearchBounds,
    _candidates,
    annihilator_in_good,
    annihilator_space,
    cyclic_presentation,
    cyclic_search,
    line_subbundle_probe,
    membership_principal,
    minimal_annihilator_width,
)
from qec.laurent import ONE, ZERO, LaurentPoly, det_and_inverse, divexact, laurent_to_str
from qec.linalg import nullspace, rank, rref
from qec.modules import (
    Good,
    LineBundle,
    MatrixModule,
    Torsion,
    _adjugate_spans,
    _cramer_relation,
    _orbit,
    aq_act,
    dual,
    extension_fixture,
    module_from_json,
    rank_S,
    to_matrix,
    window_eigenspace,
)
from qec.laurent import LaurentMatrix
from qec.samples import (
    rand_aq,
    rand_laurent,
    rand_sigma_good,
    rand_sigma_matrix,
    rand_unit,
)
from qec.scalars import qpow, using_q


def test_membership_multiples(rng):
    for _ in range(20):
        p = rand_sigma_good(rng, t_max=3)
        x = rand_aq(rng, max_width=2)
        assert membership_principal(x * p, p)
    assert membership_principal(AqElement.zero(), parse("s - 1"))


def test_membership_rejects_nonmembers():
    assert not membership_principal(parse("1"), parse("s - 1"))
    assert not membership_principal(parse("z"), parse("s - 2"))
    # lower width than the generator: cannot be a member
    assert not membership_principal(parse("(1+z)*s - (2*z+1)"), parse("s^2 - 3*s + 2"))


def test_membership_needs_good_generator():
    with pytest.raises(PreconditionViolation):
        membership_principal(parse("1"), parse("(1+z)*s - (2*z+1)"))


def test_a_non_unit_division_cofactor_fails_the_membership_certificate(monkeypatch):
    # a division whose cofactor g picks up the factor 1 + z: with g no unit,
    # g r = h p + rem would put only g r in the ideal, not r, so the
    # certificate refuses it
    divide = qec.ideals.sigma_divide

    def scaled(r, p):
        g, h, rem = divide(r, p)
        return g * LaurentPoly(0, [1, 1]), h, rem

    r, p = parse("s^2 - 1"), parse("s - 1")
    assert membership_principal(r, p)
    monkeypatch.setattr(qec.ideals, "sigma_divide", scaled)
    with pytest.raises(CertificateFailure, match=r"division cofactor .* is not a unit"):
        membership_principal(r, p)


def test_two_generator_division_phenomenon():
    # p is sigma-divisible by w, but only with the non-unit cofactor 2z+1
    p = parse("s^2 - 3*s + 2")
    w = parse("(1+z)*s - (2*z+1)")
    g, h, rem = sigma_divide(p, w)
    assert rem.is_zero()
    assert not g.is_unit()
    ge = AqElement.from_laurent(g)
    assert ge * p == h * w
    # the minimal cofactor is 2z+1: (2z+1) p = (s-2) w
    assert parse("2*z + 1") * p == (parse("s") - parse("2")) * w


def test_annihilator_two_generator_example():
    # the coset of (1+z) in O = A_q/(s-1) has a non-principal annihilator
    ann = annihilator_in_good(parse("s - 1"), parse("1 + z"))
    assert ann.kind == "two_generator"
    p, w = ann.generators
    assert unit_normalize(p) == unit_normalize(parse("s^2 - 3*s + 2"))
    assert unit_normalize(w) == unit_normalize(parse("(1+z)*s - (2*z+1)"))
    # both generators kill the coset
    T = to_matrix(Good(parse("s - 1")))
    v = aq_act(parse("1 + z"), T, [ONE])
    for gen in ann.generators:
        assert all(c.is_zero() for c in aq_act(gen, T, v))
    # the identity (qz+1) p = (s - q) w ties the two generators together
    assert parse("2*z + 1") * parse("s^2 - 3*s + 2") == (
        parse("s") - parse("2")
    ) * parse("(1+z)*s - (2*z+1)")


def test_annihilator_of_monomial_cosets():
    # z^n e in O has the principal annihilator (s - q^n)
    for n in range(-16, 17):
        ann = annihilator_in_good(parse("s - 1"), AqElement.monomial(1, n))
        assert ann.kind == "principal"
        expected = parse("s") - AqElement.from_laurent(
            LaurentPoly.const(qpow(n))
        )
        assert unit_normalize(ann.generators[0]) == unit_normalize(expected)


def test_annihilator_trivial_cases():
    ann = annihilator_in_good(parse("s - 1"), parse("1"))
    assert ann.kind == "principal"
    assert unit_normalize(ann.generators[0]) == unit_normalize(parse("s - 1"))
    # the zero coset is annihilated by everything
    ann0 = annihilator_in_good(parse("s - 1"), parse("0"))
    assert ann0 == IdealPresentation.principal(AqElement.one())
    ann0b = annihilator_in_good(parse("s - 1"), parse("s - 1"))
    assert ann0b == IdealPresentation.principal(AqElement.one())


def test_annihilator_search_exhausted():
    tiny = SearchBounds(deg_sigma=1, deg_z=0, window=2)
    with pytest.raises(SearchExhausted):
        annihilator_in_good(parse("s - 1"), parse("1 + z"), tiny)


def test_minimal_annihilator_width_values():
    # in a rank-one module every vector has a width-one annihilator over K(z)
    T = to_matrix(Good(parse("s - 1")))
    v1 = aq_act(parse("1 + z"), T, [ONE])
    assert minimal_annihilator_width(T, v1, 4) == 1
    # rank two: e1 is cyclic, so nothing below width two annihilates it
    T2 = to_matrix(Good(parse("z - s - s^-1")))
    e1 = (ONE, ZERO)
    assert minimal_annihilator_width(T2, e1, 4) == 2
    assert minimal_annihilator_width(T2, e1, 1) is None


def test_annihilator_space_postconditions(rng):
    T = to_matrix(Good(parse("s^2 - 3*s + 2")))
    v = (ONE, ZERO)
    space = annihilator_space(T, v, 2, 0)
    assert space
    for x in space:
        assert all(c.is_zero() for c in aq_act(x, T, list(v)))


def _corrupt_nullspace(monkeypatch, corrupt):
    """Plant a fault in the kernel solver behind `qec.ideals`: each basis it
    returns passes through `corrupt` first."""
    solve = qec.ideals.nullspace

    def corrupted(rows, ncols):
        return corrupt(solve(rows, ncols))

    monkeypatch.setattr(qec.ideals, "nullspace", corrupted)


def test_a_wrong_kernel_vector_fails_the_killing_certificate(monkeypatch):
    # one entry of the first vector moved by one: r changes by z^j s^i, and
    # z^j s^i(v) is nonzero, so r no longer kills v
    def moved(basis):
        basis[0][0] += 1
        return basis

    T = to_matrix(Good(parse("s^2 - 3*s + 2")))
    assert annihilator_space(T, (ONE, ZERO), 2, 0)
    _corrupt_nullspace(monkeypatch, moved)
    with pytest.raises(CertificateFailure, match="does not annihilate the vector"):
        annihilator_space(T, (ONE, ZERO), 2, 0)


@pytest.mark.parametrize("end", [0, -1])
def test_a_kernel_that_misses_an_end_contradicts_the_end_test(monkeypatch, end):
    # the end test finds z^0 s^0 and z^0 s^2 both reachable in row (2, 0);
    # a kernel that vanishes at either end contradicts it
    def dropped(basis):
        for x in basis:
            x[end] = 0
        return basis

    orbit = _orbit_of(["1"], ["-1"], ["1"])
    assert _first_sigma_good(orbit, 2, 0) == parse("-1/2 + 1/2*s + s^2")
    _corrupt_nullspace(monkeypatch, dropped)
    with pytest.raises(CertificateFailure, match=r"row \(2, 0\) contradicts its end test"):
        _first_sigma_good(orbit, 2, 0)


def test_a_packing_fault_fails_the_sigma_good_certificate(monkeypatch):
    # the solved unknowns packed one z-degree too wide: the s^0 coefficient
    # takes in the first s^1 entry and is no longer a monomial
    pack = qec.ideals._pack

    def too_wide(vec, d, zd):
        return pack(list(vec) + [0] * (d + 1), d, zd + 1)

    orbit = _orbit_of(["1"], ["-1"], ["1"])
    assert _first_sigma_good(orbit, 2, 0) == parse("-1/2 + 1/2*s + s^2")
    monkeypatch.setattr(qec.ideals, "_pack", too_wide)
    with pytest.raises(CertificateFailure, match="is not sigma-good"):
        _first_sigma_good(orbit, 2, 0)


@pytest.mark.parametrize("corrupt", [lambda basis: [], lambda basis: basis + basis])
def test_a_minimal_row_that_is_not_one_line_fails_its_certificate(monkeypatch, corrupt):
    # the echelon finds the first dependency of the width-1 row at zw = 1, so
    # row (1, 1) is the line of w; a kernel of any other dimension contradicts it
    _corrupt_nullspace(monkeypatch, corrupt)
    with pytest.raises(CertificateFailure, match=r"row \(1, 1\) is not the line of one annihilator"):
        annihilator_in_good(parse("s - 1"), parse("1 + z"))


def test_cyclic_search_counterexample_module():
    res = cyclic_presentation(to_matrix(Good(parse("z - s - s^-1"))))
    assert res is not None
    assert res.rank_S == 1
    assert res.ann.kind == "principal"
    gen = res.ann.generators[0]
    d = degrees(gen)
    assert d.deg_sigma == 2 and d.deg_z == 1 and d.sigma_good
    assert unit_normalize(gen) == unit_normalize(parse("1 - 2*z*s + s^2"))


def test_cyclic_search_line_and_torsion():
    res = cyclic_presentation(to_matrix(LineBundle(3, 2)))
    assert res.rank_S == 2
    assert res.ann.kind == "principal"
    assert unit_normalize(res.ann.generators[0]) == unit_normalize(
        parse("s - 3*z^2")
    )
    resj = cyclic_presentation(to_matrix(Torsion([(1, 2)])))
    assert resj.rank_S == 0


def test_cyclic_search_two_generator_case():
    T = to_matrix(extension_fixture())
    res = cyclic_presentation(T)
    assert res is not None
    assert res.rank_S == 1
    # whichever presentation was found, its generators kill the vector
    for gen in res.ann.generators:
        assert all(c.is_zero() for c in aq_act(gen, T, list(res.v)))


def test_cyclic_search_respects_bounds():
    tight = SearchBounds(deg_sigma=2, deg_z=0, window=4)
    assert cyclic_presentation(to_matrix(LineBundle(1, 2)), tight) is None


@pytest.mark.parametrize(
    "kwargs",
    [{"deg_sigma": -1}, {"deg_z": -1}, {"window": -1}, {"deg_sigma": -5, "deg_z": -5}],
)
def test_search_bounds_reject_negative_values(kwargs):
    with pytest.raises(PreconditionViolation, match="must be >= 0"):
        SearchBounds(**kwargs)
    # zero is the smallest legal bound
    assert SearchBounds(0, 0, 0).as_dict() == {"deg_sigma": 0, "deg_z": 0, "window": 0}


def test_cyclic_search_stops_at_an_empty_minimal_width_row(monkeypatch):
    # s - z^2 needs z-width 2: with deg_z = 0 the width-1 row of the one
    # cyclic vector is empty, and no wider row and no other vector is scanned
    calls = []

    def spy(T, v, d, zd):
        calls.append((d, zd))
        return annihilator_space(T, v, d, zd)

    monkeypatch.setattr(qec.ideals, "annihilator_space", spy)
    assert cyclic_presentation(to_matrix(LineBundle(1, 2)), SearchBounds(2, 0)) is None
    # the echelon of the row's columns proves it empty: no kernel is solved
    assert calls == []


def test_two_generator_answer_ends_the_minimal_row_at_its_first_element(monkeypatch):
    # the minimal (width-1) row is one kernel at its z-width zw = 1, found by
    # the echelon, and it is the line of the non-sigma-good w; the wider rows
    # solve their own systems and never ask for a basis
    calls = []

    def spy(T, v, d, zd):
        calls.append((d, zd))
        return annihilator_space(T, v, d, zd)

    monkeypatch.setattr(qec.ideals, "annihilator_space", spy)
    ann = annihilator_in_good(parse("s - 1"), parse("1 + z"))
    assert calls == [(1, 1)]
    assert ann == IdealPresentation.two_generator(
        parse("2 - 3*s + s^2"), parse("-1 - 2*z + s + z*s")
    )


def test_a_wider_row_decides_its_sigma_good_annihilator():
    # no basis element of any row up to (6, 8) is sigma-good here; the exact
    # end-coefficient test finds the first sigma-good element in row (4, 3)
    pM, f = parse("-2*s^-1 - 1 - z*s"), parse("1/2*z*s - 2*z^-1*s^2")
    ann = annihilator_in_good(pM, f)
    p, w = ann.generators
    assert ann == IdealPresentation.two_generator(
        parse(
            "-31/7*z^2 + 31/112*s - 143/28*z^2*s + 131/448*s^2 - z^2*s^2"
            " - 31/14*z^3*s^2 + 1/64*s^3 + 62/7*z*s^3 - 4*z^3*s^3 + z*s^4"
        ),
        parse(
            "1/8 + 1/16*z^2 + 2*z^5 + 1/8*s + 1/64*z^2*s + 31/8*z^3*s + 1/2*z^5*s"
            " + 2*z*s^2 + 1/4*z^3*s^2 + z^6*s^2"
        ),
    )
    assert (degrees(p).deg_sigma, degrees(p).deg_z) == (4, 3)
    assert degrees(p).sigma_good
    assert membership_principal(p * f, pM) and membership_principal(w * f, pM)


def test_a_sigma_good_annihilator_no_small_combination_shows():
    # no basis element, and no sum or difference of two, of any row is
    # sigma-good; the exact test still finds one, in row (4, 4)
    with using_q(Fraction(2)):
        pM = parse("z^-2 - 3*z^-2*s^2")
        f = parse("z^-2 + z^-1 - 1/3*z^-1*s + 3*s - 1/2*z*s - 1/2*s^2")
        ann = annihilator_in_good(pM, f)
        assert ann.kind == "two_generator"
        p, w = ann.generators
        assert degrees(p).sigma_good and not degrees(w).sigma_good
        assert (degrees(p).deg_sigma, degrees(p).deg_z) == (4, 4)
        assert membership_principal(p * f, pM) and membership_principal(w * f, pM)


def _first_by_z_width(T, v, width, deg_z):
    """The minimal row's first element by the z-width scan: the first
    basis element of the first nonempty row (width, zd), zd = 0..deg_z."""
    rows = (annihilator_space(T, v, width, zd) for zd in range(deg_z + 1))
    return next((space[0] for space in rows if space), None)


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(-1, 2), Fraction(5, 7)])
def test_minimal_width_annihilators_are_laurent_multiples_of_the_first(q):
    # the theorem of `_annihilator_ideal`: every annihilator of s-support
    # [0, width] is g(z) w for the first one w, and is sigma-good only if w is
    rng = random.Random(f"minimal-row-{q}")
    used = 0
    with using_q(q):
        for _ in range(8):
            T = to_matrix(Good(rand_sigma_good(rng, t_max=2)))
            v = aq_act(rand_aq(rng, max_width=2), T, [ONE] + [ZERO] * (T.n - 1))
            if all(c.is_zero() for c in v):
                continue
            width = minimal_annihilator_width(T, v, T.n)
            w = _first_by_z_width(T, v, width, 8)
            if w is None:
                continue
            used += 1
            w0 = degrees(w).deg_z
            for zd in range(w0, w0 + 3):
                for x in annihilator_space(T, v, width, zd):
                    g = divexact(x.coefficient(0), w.coefficient(0))
                    for i in range(width + 1):
                        assert x.coefficient(i) == g * w.coefficient(i)
                    assert degrees(w).sigma_good or not degrees(x).sigma_good
    assert used >= 2


def _orbit_of(*vectors):
    return [[parse(c).coefficient(0) for c in vec] for vec in vectors]


def _first_sigma_good(orbit, d, deg_z):
    """`qec.ideals._first_sigma_good` on the columns of `orbit` up to deg_z."""
    cols = qec.ideals._columns(orbit, deg_z)
    return qec.ideals._first_sigma_good(orbit, cols, d, deg_z)


def test_sigma_good_in_combines_the_two_end_vectors_with_the_first_good_lambda():
    # row (2, 0) of v, s(v), s^2(v) = `orbit`, the kernel of one equation
    cases = [
        # a = 1 + s misses s^2 and a + b misses s^0 for b = -1 + s^2, so the
        # answer is a + 2 b = -1 + s + 2 s^2, scaled to a monic s^2 end
        ((["1"], ["-1"], ["1"]), "-1/2 + 1/2*s + s^2"),
        # a = 2 + s, b = -2 + s^2: a + b misses s^0 again, now with b_0 != +-1
        ((["1"], ["-2"], ["2"]), "-1 + 1/2*s + s^2"),
        # a = -1 + s, b = s^2, whose s^0 coefficient is 0: a + b
        ((["1"], ["1"], ["0"]), "-1 + s + s^2"),
        # a = b = -1 + s^2 reaches both ends: lam = 0
        ((["1"], ["0"], ["1"]), "-1 + s^2"),
    ]
    for orbit, want in cases:
        assert _first_sigma_good(_orbit_of(*orbit), 2, 0) == parse(want)
    # rows (1, 0) and (1, 1) of v, s(v) = 1, -(1 + z): the first is empty, the
    # second is spanned by 1 + z + s, whose s^0 coefficient is no monomial
    assert _first_sigma_good(_orbit_of(["1"], ["-1 - z"]), 1, 1) is None


def _direction(col):
    """col scaled so that its first nonzero entry is 1; () if col is zero."""
    lead = next((x for x in col if x), None)
    return () if lead is None else tuple(x / lead if x else 0 for x in col)


def _first_sigma_good_by_rref(orbit, d, zd):
    """The first sigma-good element of the one row (d, zd), by a full
    `rref` of its own system to Fractions, kept as the oracle of the
    library's echelon scan: with the middle columns first, E is the reduced
    rows that pivot on an end column, and two end columns hold a sigma-good
    element iff their directions agree; the kernel step for the winning
    (e0, ed) is the library's."""
    rows = qec.ideals._row_system(orbit, d, zd)
    n = zd + 1
    middle = list(range(n, d * n))
    order = middle + list(range(n)) + list(range(d * n, (d + 1) * n))
    reduced, pivots = rref([[row.get(k, 0) for k in order] for row in rows])
    E = [row[len(middle) :] for row, pc in zip(reduced, pivots) if pc >= len(middle)]
    dirs = [_direction([row[k] for row in E]) for k in range(2 * n)]
    held = (p for p in product(range(n), repeat=2) if dirs[p[0]] == dirs[n + p[1]])
    e0, ed = next(held, (None, None))
    if e0 is None:
        return None
    keep = [e0] + middle + [d * n + ed]
    kernel = nullspace([[row.get(k, 0) for k in keep] for row in rows], len(keep))
    a = next(x for x in kernel if x[0])
    b = next(x for x in kernel if x[-1])
    lam = next(t for t in range(3) if a[0] + t * b[0] and a[-1] + t * b[-1])
    u = [x + lam * y for x, y in zip(a, b)]
    vec = [0] * ((d + 1) * n)
    for k, x in zip(keep, u):
        vec[k] = x / u[-1]
    return qec.ideals._pack(vec, d, zd)


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(-1, 2), Fraction(5, 7)])
def test_sigma_good_in_matches_the_rref_end_test(q):
    rng = random.Random(f"sigma-good-in-by-rref-{q}")
    found = none = 0
    with using_q(q):
        for _ in range(30):
            T = to_matrix(Good(rand_sigma_good(rng, t_max=2)))
            v = aq_act(rand_aq(rng, max_width=1), T, [ONE] + [ZERO] * (T.n - 1))
            if all(c.is_zero() for c in v):
                continue
            orbit = list(islice(_orbit(T, v, 1), 4))
            for d in range(1, 4):
                # the oracle at the first zd where it is not None
                cells = (_first_sigma_good_by_rref(orbit, d, zd) for zd in range(4))
                want = next((p for p in cells if p is not None), None)
                assert _first_sigma_good(orbit, d, 3) == want
                found += want is not None
                none += want is None
    assert found and none


def _annihilator_by_cells(T, v, bounds):
    """`annihilator_in_good`'s answer, or its SearchExhausted message, by
    one system per row: w is the first vector of the minimal row at deg_z,
    and each wider row (d, zd) is decided on its own by the rref oracle."""
    width = minimal_annihilator_width(T, v, bounds.deg_sigma)
    if width is None:
        return "no annihilator within the s-width bound"
    row = annihilator_space(T, v, width, bounds.deg_z)
    if not row:
        return "minimal-width annihilator exceeds the z-width bound"
    w = row[0]
    if degrees(w).sigma_good:
        return IdealPresentation.principal(w)
    orbit = list(islice(_orbit(T, v, 1), bounds.deg_sigma + 1))
    for d in range(width + 1, bounds.deg_sigma + 1):
        for zd in range(bounds.deg_z + 1):
            p = _first_sigma_good_by_rref(orbit, d, zd)
            if p is not None:
                return IdealPresentation.two_generator(p, w)
    return "no sigma-good annihilator within bounds"


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(-1, 2), Fraction(5, 7)])
def test_the_echelon_scan_answers_as_one_system_per_row(q):
    # minimal widths 1-3: the echelon scan gives the answer, or the message,
    # of the scan that solves every row on its own
    rng = random.Random(f"echelon-scan-{q}")
    bounds = SearchBounds(5, 5)
    widths, answers = set(), set()
    with using_q(q):
        for _ in range(30):
            pM = rand_sigma_good(rng, t_max=3, max_shift=0)
            f = rand_aq(rng, max_width=1, max_shift=0)
            T = to_matrix(Good(pM))
            v = aq_act(f, T, [ONE] + [ZERO] * (T.n - 1))
            if all(c.is_zero() for c in v):
                continue
            try:
                got = annihilator_in_good(pM, f, bounds)
            except SearchExhausted as exc:
                got = exc.args[0]
            assert got == _annihilator_by_cells(T, v, bounds)
            widths.add(minimal_annihilator_width(T, v, bounds.deg_sigma))
            answers.add(got if isinstance(got, str) else got.kind)
    assert {1, 2, 3} <= widths
    assert {"principal", "two_generator"} <= answers


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(-1, 2), Fraction(5, 7)])
def test_the_minimal_z_width_is_the_z_width_of_the_first_element(q):
    # the first zd at which the minimal row's columns are dependent is the
    # z-width of w, and the row there is the line of w
    rng = random.Random(f"minimal-z-width-{q}")
    found = empty = 0
    with using_q(q):
        for _ in range(24):
            T = to_matrix(Good(rand_sigma_good(rng, t_max=3)))
            v = aq_act(rand_aq(rng, max_width=2), T, [ONE] + [ZERO] * (T.n - 1))
            if all(c.is_zero() for c in v):
                continue
            width = minimal_annihilator_width(T, v, T.n)
            orbit = list(islice(_orbit(T, v, 1), width + 1))
            for deg_z in (1, 3, 6):
                zw = qec.ideals._minimal_z_width(qec.ideals._columns(orbit, deg_z), width, deg_z)
                w = _first_by_z_width(T, v, width, deg_z)
                assert zw == (None if w is None else degrees(w).deg_z)
                if w is not None:
                    assert annihilator_space(T, v, width, zw) == [w]
                found += w is not None
                empty += w is None
    assert found >= 8 and empty >= 8


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(-1, 2), Fraction(5, 7)])
def test_the_minimal_row_at_the_bound_starts_with_the_first_element_by_z_width(q):
    # `_annihilator_ideal` reads w off one kernel at deg_z: its first vector
    # is the element the z-width scan finds first, and it is empty exactly
    # when the scan is
    rng = random.Random(f"minimal-row-at-the-bound-{q}")
    found = empty = 0
    with using_q(q):
        for _ in range(16):
            T = to_matrix(Good(rand_sigma_good(rng, t_max=2)))
            v = aq_act(rand_aq(rng, max_width=2), T, [ONE] + [ZERO] * (T.n - 1))
            if all(c.is_zero() for c in v):
                continue
            width = minimal_annihilator_width(T, v, T.n)
            for deg_z in (1, 3, 6):
                space = annihilator_space(T, v, width, deg_z)
                want = _first_by_z_width(T, v, width, deg_z)
                assert (space[0] if space else None) == want
                found += want is not None
                empty += want is None
    assert found >= 8 and empty >= 8


def test_the_bounds_are_inclusive():
    # an answer's row may reach deg_sigma and deg_z, and one bound below it
    # the scan proves that no sigma-good annihilator exists
    assert annihilator_in_good(parse("s - 1"), parse("1"), SearchBounds(1, 0)).kind == "principal"
    with using_q(Fraction(2)):
        pM, f = parse("-3*z^-2 - 3*z^-2*s"), parse("-2/3*z^-1 + 1 + z*s")
        ann = annihilator_in_good(pM, f)
        p, w = (degrees(g) for g in ann.generators)
        assert (p.deg_sigma, p.deg_z, w.deg_sigma, w.deg_z) == (2, 4, 1, 2)
        assert annihilator_in_good(pM, f, SearchBounds(2, 4)) == ann
        for bounds in (SearchBounds(1, 4), SearchBounds(2, 3)):
            with pytest.raises(SearchExhausted, match="no sigma-good annihilator within bounds"):
                annihilator_in_good(pM, f, bounds)


def _sympy_first_sigma_good_row(T, v, bounds):
    """The first row (d, zd), d-major, holding an annihilator r of v whose
    s^0 and s^d coefficients are monomials, or None.  sympy decides each
    (d, zd, e0, ed) on the raw system sum r_ij z^j s^i (v) = 0 in the
    unknowns r_ij, with the s^0 and s^d unknowns other than z^e0 and z^ed
    pinned to zero: some kernel vector must be nonzero at z^e0 s^0 and
    some at z^ed s^d."""
    for d in range(1, bounds.deg_sigma + 1):
        for zd in range(bounds.deg_z + 1):
            cols = list(product(range(d + 1), range(zd + 1)))
            images = [aq_act(AqElement.monomial(1, j, i), T, v) for i, j in cols]
            eqs = sorted({(r, e) for im in images for r, f in enumerate(im) for e, _ in f.terms()})
            system = [[QQ(im[r].coeff(e)) for im in images] for r, e in eqs]
            for e0, ed in product(range(zd + 1), repeat=2):
                ends = [cols.index((0, e0)), cols.index((d, ed))]
                pins = [
                    [QQ(int(t == u)) for t in range(len(cols))]
                    for u, (i, _) in enumerate(cols)
                    if i in (0, d) and u not in ends
                ]
                rows = system + pins
                kernel = DomainMatrix(rows, (len(rows), len(cols)), QQ).nullspace().to_Matrix()
                if all(any(kernel[k, c] for k in range(kernel.rows)) for c in ends):
                    return d, zd
    return None


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(-1, 2)])
def test_sigma_good_rows_match_sympy_on_the_raw_system(q):
    # the library's answer comes from the first sigma-good row; an exhausted
    # scan may only hide one when the minimal-width row is out of bounds
    rng = random.Random(f"sigma-good-rows-{q}")
    bounds = SearchBounds(3, 2)
    seen = set()
    with using_q(q):
        for _ in range(24):
            pM = rand_sigma_good(rng, t_max=2, max_shift=0)
            f = AqElement({i: rand_laurent(rng, 1, 1) for i in range(rng.randint(1, 2))})
            T = to_matrix(Good(pM))
            v = aq_act(f, T, [ONE] + [ZERO] * (T.n - 1))
            if all(c.is_zero() for c in v):
                continue
            want = _sympy_first_sigma_good_row(T, v, bounds)
            try:
                ann = annihilator_in_good(pM, f, bounds)
            except SearchExhausted as exc:
                seen.add(exc.args[0])
                if want is not None:
                    assert exc.args[0] == "minimal-width annihilator exceeds the z-width bound"
                continue
            seen.add(ann.kind)
            p = degrees(ann.generators[0])
            assert p.sigma_good
            assert (p.deg_sigma, p.deg_z) == want
    assert {"principal", "two_generator"} <= seen


@pytest.mark.parametrize(
    "M,bounds",
    [(Torsion([(1, 2), (3, 1)]), SearchBounds(2, 8)), (LineBundle(3, 2), SearchBounds(0, 8))],
)
def test_cyclic_presentation_is_none_when_the_rank_exceeds_the_s_width_bound(M, bounds):
    # the minimal width of a cyclic vector is the rank n > deg_sigma, so no
    # row may be scanned, not even the minimal one
    assert cyclic_presentation(to_matrix(M), bounds) is None


def _triangular_lines(rng, cms, fill):
    """Upper-triangular T with diagonal c_i z^m_i and, when fill, seeded
    Laurent entries above it: an iterated extension of the line bundles
    L(c_i, m_i), so rank_S = sum |m_i| and chi(M, L(1, 1)) =
    -sum |1 - m_i|, both additive in exact sequences."""
    n = len(cms)
    rows = [
        [
            LaurentPoly.monomial(c, m) if i == j
            else rand_laurent(rng, 1, 1) if fill and j > i and rng.random() < 0.5
            else ZERO
            for j, (c, m) in enumerate(cms)
        ]
        for i in range(n)
    ]
    return MatrixModule(LaurentMatrix(rows))


def test_cyclic_search_constructs_a_cyclic_vector_without_a_cyclic_unit_vector():
    extended = 0
    cases = []
    for q in (2, 3, Fraction(-1, 2)):
        with using_q(q):
            rng = random.Random(f"cyclic-construction-{q}")
            # O^k + L(c, m): the trivial summand has no cyclic unit vector
            k = rng.randint(1, 4)
            cases.append((q, [(1, 0)] * k + [(rng.choice((1, 2, 3)), 1)], False))
            for _ in range(8):
                n = rng.randint(2, 5)
                cms = [
                    (rng.choice((1, 2, 3, Fraction(1, 3))), rng.randint(-2, 2))
                    for _ in range(n)
                ]
                cases.append((q, cms, rng.random() < 0.3))
    for q, cms, fill in cases:
        with using_q(q):
            T = _triangular_lines(random.Random(str(cms)), cms, fill)
            n = T.n
            units = [[ONE if j == i else ZERO for j in range(n)] for i in range(n)]
            if all(minimal_annihilator_width(T, e, n - 1) is not None for e in units):
                extended += 1
            v = cyclic_search(T)
            assert isinstance(v, tuple) and len(v) == n
            assert minimal_annihilator_width(T, v, n - 1) is None, (q, cms)
            assert rank_S(T) == sum(abs(m) for _, m in cms), (q, cms)
            assert euler_form(T, LineBundle(1, 1)) == -sum(abs(1 - m) for _, m in cms)
    assert extended >= 20


def test_cyclic_search_widens_the_first_of_tied_unit_vectors():
    # every unit vector of diag(2, 3, 5) has width 1: the scan widens e_0
    T = MatrixModule(
        LaurentMatrix.from_strs([["2", "0", "0"], ["0", "3", "0"], ["0", "0", "5"]])
    )
    with using_q(2):
        assert [laurent_to_str(f) for f in cyclic_search(T)] == ["1", "z", "z^2"]


def test_cyclic_search_of_a_trivial_summand_is_fast():
    # O^4 + L(1, 1) and its n = 7 analogue: no unit vector is cyclic
    for n in (5, 7):
        T = _triangular_lines(None, [(1, 0)] * (n - 1) + [(1, 1)], False)
        start = time.perf_counter()
        v = cyclic_search(T)
        assert time.perf_counter() - start < 2
        assert minimal_annihilator_width(T, v, n - 1) is None
        assert rank_S(T) == 1


def test_cyclic_search_fails_loudly_under_python_O():
    # widths patched never to grow: the construction must raise a typed
    # error, with asserts stripped, and not loop
    code = textwrap.dedent(
        """
        from qec import ideals, modules
        from qec.errors import CertificateFailure

        assert False, "asserts are live"
        ideals.minimal_annihilator_width = lambda T, v, cap: 1
        try:
            ideals.cyclic_search(modules.extension_fixture())
        except CertificateFailure as e:
            print("CertificateFailure:", e)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("CertificateFailure: no candidate widens")


def _gauge_module(rng, ms):
    """T = G(z) diag(c_i z^m_i) G(qz)^-1 with G a unit upper times a unit
    lower matrix over K[z,z^-1]: isomorphic to a sum of line bundles of
    degrees m_i, so rank_S = sum |m_i|."""
    upper = LaurentMatrix(((ONE, rand_laurent(rng, 1, 1)), (ZERO, ONE)))
    lower = LaurentMatrix(((ONE, ZERO), (rand_unit(rng, 1), ONE)))
    g = upper * lower
    _, g_inv_q = det_and_inverse(g.qshift(1))
    cs = [rng.choice((1, 2, 3, Fraction(1, 3))) for _ in ms]
    diag = LaurentMatrix(
        tuple(
            tuple(LaurentPoly.monomial(c, m) if i == j else ZERO for j in range(2))
            for i, (c, m) in enumerate(zip(cs, ms))
        )
    )
    return MatrixModule(g * diag * g_inv_q)


def test_rank_S_of_gauge_modules_is_the_sum_of_exponents():
    kinds = []
    for q in (2, 3, Fraction(-1, 2)):
        with using_q(q):
            rng = random.Random(f"gauge-{q}")
            for _ in range(10):
                ms = [rng.randint(-2, 2) for _ in range(2)]
                M = _gauge_module(rng, ms)
                assert rank_S(M) == sum(abs(m) for m in ms), (q, ms)
                found = cyclic_presentation(M)
                if found is not None:
                    assert found.rank_S == sum(abs(m) for m in ms), (q, ms)
                    kinds.append(found.ann.kind)
    # the exact rank of a two-generator ideal is read off by z-division
    assert kinds.count("two_generator") >= 10


def test_line_subbundle_probe_fixture():
    T = to_matrix(extension_fixture())
    found = line_subbundle_probe(T, range(-2, 3), window=6)
    assert any(c == 1 and k == 1 for c, k, _ in found)
    for c, k, v in found:
        # verify the eigen-equation T(z) v(qz) = c z^k v(z) exactly
        from qec.laurent import qshift

        img = T.mat.apply([qshift(f, 1) for f in v])
        scale = LaurentPoly.monomial(c, k)
        assert list(img) == [scale * f for f in v]


def test_line_subbundle_probe_simple_module_empty():
    T = to_matrix(Good(parse("z - s - s^-1")))
    assert line_subbundle_probe(T, range(-4, 5), window=10) == []


def test_probe_skips_k_outside_the_slopes_before_linearizing(monkeypatch):
    # lambda_inf = {-1, 1} and lambda_0 = {0}: no k can carry a line
    # subbundle.  The probe's first work past the slope filter is the Cramer
    # relation of the dual, before any system is written
    T = to_matrix(Good(parse("z - s - s^-1")))

    def no_relation(T):
        raise AssertionError("probe took the dual relation")

    monkeypatch.setattr(qec.ideals, "_cramer_relation", no_relation)
    assert line_subbundle_probe(T, range(-4, 5), window=10) == []
    with pytest.raises(AssertionError, match="dual relation"):
        line_subbundle_probe(to_matrix(LineBundle(3, 2)), [2], window=10)


def test_pruned_probe_equals_the_probe_over_every_k(monkeypatch):
    found = []
    for q in (2, 3, Fraction(-1, 2)):
        with using_q(q):
            rng = random.Random(f"probe-prune-{q}")
            for _ in range(8):
                T = rand_sigma_matrix(rng, n_max=2)
                pruned = line_subbundle_probe(T, range(-2, 3), window=3)
                with monkeypatch.context() as m:
                    # every k in range is a slope at both ends: nothing pruned
                    every_k = [(Fraction(k), 1) for k in range(-2, 3)]
                    m.setattr(qec.ideals, "slopes", lambda T: (every_k, every_k))
                    assert line_subbundle_probe(T, range(-2, 3), window=3) == pruned
                found.extend(pruned)
    assert found


def test_probe_default_window_is_12():
    # 3 z^2 v(qz) = c z^2 v(z) is solved by v = z^j, c = 3 q^j, for |j| <= 12
    with using_q(2):
        found = line_subbundle_probe(to_matrix(LineBundle(3, 2)), [2])
    want = [
        (3 * Fraction(2) ** j, 2, (LaurentPoly.monomial(1, j),)) for j in range(-12, 13)
    ]
    assert found == want


def test_probe_reports_a_repeated_k_once():
    T = to_matrix(LineBundle(3, 2))
    with using_q(2):
        once = line_subbundle_probe(T, [2], window=4)
        assert len(once) == 9
        assert line_subbundle_probe(T, [2, 2], window=4) == once
        assert line_subbundle_probe(T, [2, -1, 2], window=4) == once


def test_probe_skips_a_slope_that_is_not_an_integer():
    # s^2 - z has the single slope 1/2 at both ends: z^(1/2) is no Laurent
    # monomial, so no L(c, 1/2) exists; an integral Fraction is an integer
    T = to_matrix(Good(parse("s^2 - z")))
    assert line_subbundle_probe(T, [Fraction(1, 2)], window=3) == []
    with using_q(2):
        line = to_matrix(LineBundle(3, 2))
        assert line_subbundle_probe(line, [Fraction(2)], 4) == line_subbundle_probe(line, [2], 4)


def test_a_module_probed_at_two_q_matches_fresh_modules():
    # the dual is computed once per module, and its Cramer relation once
    # per q: the orbit s(v) = T(z) v(qz), and with it every candidate,
    # changes with q
    T = to_matrix(extension_fixture())
    for q in (2, 3, 2):
        with using_q(q):
            relation = _cramer_relation(dual(T))
            assert dual(T) is dual(T) and _cramer_relation(dual(T)) is relation
            fresh = to_matrix(extension_fixture())
            assert line_subbundle_probe(T, [1], 3) == line_subbundle_probe(fresh, [1], 3)
            assert [c for c, _, _ in line_subbundle_probe(T, [1], 3)] == [
                qpow(j) for j in range(-3, 4)
            ]


def test_line_subbundle_probe_line_module():
    T = to_matrix(LineBundle(Fraction(3), 2))
    found = line_subbundle_probe(T, range(-1, 4), window=4)
    assert any(c == 3 and k == 2 for c, k, _ in found)


def _show(found):
    return [
        f"{c} {k} " + " ; ".join(laurent_to_str(f) for f in v) for c, k, v in found
    ]


# probe outputs over k in [-2, 2] recorded before the probe took its candidate
# scalars from the in-window map.  A case is a seed of rand_sigma_matrix(n_max=2)
# probed at window 3, or a (descriptor, window) pair.
PROBE_PINNED = [
    (Fraction(2), 13, [
        "-16 1 z^3 ; 0", "-8 1 z^2 ; 0", "-8 1 z^3 ; 1/4*z^2", "-4 1 z ; 0",
        "-4 1 z^2 ; 1/4*z", "-2 1 1 ; 0", "-2 1 z ; 1/4", "-1 1 z^-1 ; 0",
        "-1 1 1 ; 1/4*z^-1", "-1/2 1 z^-2 ; 0", "-1/2 1 z^-1 ; 1/4*z^-2",
        "-1/4 1 z^-3 ; 0", "-1/4 1 z^-2 ; 1/4*z^-3",
    ]),
    (Fraction(2), 16, [
        "3/16 0 z^-3 ; -2/5*z^-2 + 8/13*z^-1", "1/4 0 0 ; z^-3",
        "3/8 0 z^-2 ; -2/5*z^-1 + 8/13", "1/2 0 0 ; z^-2",
        "3/4 0 z^-1 ; -2/5 + 8/13*z", "1 0 0 ; z^-1",
        "3/2 0 1 ; -2/5*z + 8/13*z^2", "2 0 0 ; 1",
        "3 0 z ; -2/5*z^2 + 8/13*z^3", "4 0 0 ; z", "8 0 0 ; z^2",
        "16 0 0 ; z^3",
    ]),
    # eigenvectors with more than one nonzero entry
    (Fraction(2), 80, [
        "1/4 0 z^-1 ; -3*z^-3", "1/2 0 1 ; -3*z^-2", "1 0 z ; -3*z^-1",
        "2 0 z^2 ; -3", "4 0 z^3 ; -3*z", "1/12 1 z^-3 ; 0",
        "1/6 1 z^-2 ; 0", "1/3 1 z^-1 ; 0", "2/3 1 1 ; 0", "4/3 1 z ; 0",
        "8/3 1 z^2 ; 0", "16/3 1 z^3 ; 0",
    ]),
    (Fraction(-1, 2), 13, [
        "-8 1 z^-2 ; 0", "-8 1 z^-1 ; -3/8*z^-2", "-2 1 1 ; 0", "-2 1 z ; -3/8",
        "-1/2 1 z^2 ; 0", "-1/2 1 z^3 ; -3/8*z^2", "1/4 1 z^3 ; 0", "1 1 z ; 0",
        "1 1 z^2 ; -3/8*z", "4 1 z^-1 ; 0", "4 1 1 ; -3/8*z^-1",
        "16 1 z^-3 ; 0", "16 1 z^-2 ; -3/8*z^-3",
    ]),
    (Fraction(-1, 2), 16, [
        "-16 0 0 ; z^-3", "-12 0 z^-3 ; 2/5*z^-2 - 4*z^-1", "-4 0 0 ; z^-1",
        "-3 0 z^-1 ; 2/5 - 4*z", "-1 0 0 ; z", "-3/4 0 z ; 2/5*z^2 - 4*z^3",
        "-1/4 0 0 ; z^3", "1/2 0 0 ; z^2", "3/2 0 1 ; 2/5*z - 4*z^2",
        "2 0 0 ; 1", "6 0 z^-2 ; 2/5*z^-1 - 4", "8 0 0 ; z^-2",
    ]),
    # a good module of s-width 2
    (Fraction(3), ({"kind": "good", "p": "(s - 2*z)*(s - z^-1)"}, 3), [
        "2/9 1 z^-3 ; -z^-2", "2/3 1 z^-2 ; -z^-1", "2 1 z^-1 ; -1",
        "6 1 1 ; -z", "18 1 z ; -z^2", "54 1 z^2 ; -z^3",
    ]),
    # q = 5/7
    (Fraction(5, 7), (
        {"kind": "matrix", "entries": [["4/3*z", "0"], ["-z^-1 - 2", "4"]]}, 3,
    ), [
        "500/343 0 0 ; z^3", "100/49 0 0 ; z^2", "20/7 0 0 ; z", "4 0 0 ; 1",
        "28/5 0 0 ; z^-1", "196/25 0 0 ; z^-2", "1372/125 0 0 ; z^-3",
    ]),
    # a 3 x 3 matrix at window 5
    (Fraction(-1, 2), ({"kind": "matrix", "entries": [
        ["-4", "-2 + 4*z", "0"],
        ["0", "3", "0"],
        ["1/2*z^-1", "1/4*z^-1 - 1/2 - z + 2*z^2", "1"],
    ]}, 5), [
        "-64 0 z^-4 ; 0 ; -1/4*z^-5", "-32 0 0 ; 0 ; z^-5",
        "-24 0 z^-3 - 14*z^-2 ; -7/2*z^-3 ; -3/40*z^-4 + 21/8*z^-3 + z^-2 - 28/11*z^-1",
        "-16 0 z^-2 ; 0 ; -1/4*z^-3", "-8 0 0 ; 0 ; z^-3",
        "-6 0 z^-1 - 14 ; -7/2*z^-1 ; -3/40*z^-2 + 21/8*z^-1 + 1 - 28/11*z",
        "-4 0 1 ; 0 ; -1/4*z^-1", "-2 0 0 ; 0 ; z^-1",
        "-3/2 0 z - 14*z^2 ; -7/2*z ; -3/40 + 21/8*z + z^2 - 28/11*z^3",
        "-1 0 z^2 ; 0 ; -1/4*z", "-1/2 0 0 ; 0 ; z",
        "-3/8 0 z^3 - 14*z^4 ; -7/2*z^3 ; -3/40*z^2 + 21/8*z^3 + z^4 - 28/11*z^5",
        "-1/4 0 z^4 ; 0 ; -1/4*z^3", "-1/8 0 0 ; 0 ; z^3",
        "-1/32 0 0 ; 0 ; z^5", "1/16 0 0 ; 0 ; z^4", "1/8 0 z^5 ; 0 ; -1/4*z^4",
        "1/4 0 0 ; 0 ; z^2", "1/2 0 z^3 ; 0 ; -1/4*z^2",
        "3/4 0 z^2 - 14*z^3 ; -7/2*z^2 ; -3/40*z + 21/8*z^2 + z^3 - 28/11*z^4",
        "1 0 0 ; 0 ; 1", "2 0 z ; 0 ; -1/4",
        "3 0 1 - 14*z ; -7/2 ; -3/40*z^-1 + 21/8 + z - 28/11*z^2",
        "4 0 0 ; 0 ; z^-2", "8 0 z^-1 ; 0 ; -1/4*z^-2",
        "12 0 z^-2 - 14*z^-1 ; -7/2*z^-2 ; -3/40*z^-3 + 21/8*z^-2 + z^-1 - 28/11",
        "16 0 0 ; 0 ; z^-4", "32 0 z^-3 ; 0 ; -1/4*z^-4",
        "48 0 z^-4 - 14*z^-3 ; -7/2*z^-4 ; -3/40*z^-5 + 21/8*z^-4 + z^-3 - 28/11*z^-2",
    ]),
    # a 2 x 2 matrix at window 8
    (Fraction(3), (
        {"kind": "matrix", "entries": [["-2*z^-1", "-4"], ["0", "3*z^-1"]]}, 8,
    ), [
        "-13122 -1 z^8 ; 0", "-4374 -1 z^7 ; 0", "-1458 -1 z^6 ; 0",
        "-486 -1 z^5 ; 0", "-162 -1 z^4 ; 0", "-54 -1 z^3 ; 0",
        "-18 -1 z^2 ; 0", "-6 -1 z ; 0", "-2 -1 1 ; 0", "-2/3 -1 z^-1 ; 0",
        "-2/9 -1 z^-2 ; 0", "-2/27 -1 z^-3 ; 0", "-2/81 -1 z^-4 ; 0",
        "-2/243 -1 z^-5 ; 0", "-2/729 -1 z^-6 ; 0", "-2/2187 -1 z^-7 ; 0",
        "-2/6561 -1 z^-8 ; 0", "1/2187 -1 z^-7 ; -9/4*z^-8",
        "1/729 -1 z^-6 ; -9/4*z^-7", "1/243 -1 z^-5 ; -9/4*z^-6",
        "1/81 -1 z^-4 ; -9/4*z^-5", "1/27 -1 z^-3 ; -9/4*z^-4",
        "1/9 -1 z^-2 ; -9/4*z^-3", "1/3 -1 z^-1 ; -9/4*z^-2",
        "1 -1 1 ; -9/4*z^-1", "3 -1 z ; -9/4", "9 -1 z^2 ; -9/4*z",
        "27 -1 z^3 ; -9/4*z^2", "81 -1 z^4 ; -9/4*z^3", "243 -1 z^5 ; -9/4*z^4",
        "729 -1 z^6 ; -9/4*z^5", "2187 -1 z^7 ; -9/4*z^6",
        "6561 -1 z^8 ; -9/4*z^7",
    ]),
]


@pytest.mark.parametrize("q,case,want", PROBE_PINNED)
def test_line_subbundle_probe_pinned_outputs(q, case, want):
    with using_q(q):
        if isinstance(case, int):
            T, window = rand_sigma_matrix(random.Random(case), n_max=2), 3
        else:
            desc, window = case
            T = to_matrix(module_from_json(desc))
        assert _show(line_subbundle_probe(T, range(-2, 3), window=window)) == want


def test_probe_with_many_divisor_pairs_stays_fast():
    """At q = 5/7 the characteristic polynomial the probe once took here
    had an end coefficient with 10,816 divisors (`rational_roots` divides
    out each root as it finds it); the edge polynomials the probe reads its
    scalars off now have degree at most 2."""
    with using_q(Fraction(5, 7)):
        T = MatrixModule(LaurentMatrix.from_strs([["-3/2", "0"], ["0", "-2"]]))
        start = time.perf_counter()
        found = line_subbundle_probe(T, range(-2, 3), window=3)
        assert time.perf_counter() - start < 3
    assert len(found) == 14


def _probe_gauge(rng, n, q):
    """T = G(z) diag(c_i z^m_i) G(qz)^-1 for G a unit upper times a unit
    lower triangular n x n matrix: a sum of line bundles L(c_i, m_i) in a
    twisted basis, with c_i mostly in the q-power class of 1 or 3, so that
    its probes find eigenvectors."""
    upper = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    lower = [row[:] for row in upper]
    for i in range(n):
        for j in range(i + 1, n):
            upper[i][j] = rand_laurent(rng, 1, 1)
            lower[j][i] = rand_unit(rng, 1)
    g = LaurentMatrix(upper) * LaurentMatrix(lower)
    _, g_inv_q = det_and_inverse(g.qshift(1))
    cs = [rng.choice((1, q, 1 / q, 3, Fraction(1, 3))) for _ in range(n)]
    diag = LaurentMatrix(
        [
            [LaurentPoly.monomial(c, rng.randint(-2, 2)) if i == j else ZERO for j in range(n)]
            for i, c in enumerate(cs)
        ]
    )
    return MatrixModule(g * diag * g_inv_q)


@pytest.mark.parametrize("q", [2, 3, Fraction(-1, 2), Fraction(5, 7)])
def test_probe_equals_the_charpoly_route(q):
    """The probe against the route that took the nonzero rational
    eigenvalues of the in-window map as its candidates (`charpoly_probe`),
    on 52 modules per q: 2 x 2 and 3 x 3 gauge modules, random sigma
    matrices up to 3 x 3 and companions of sigma-good elements of width 1
    and 2, at windows 0, 3 and 10 in turn.  The charpoly route is the slow
    side, up to minutes per probe: at q = 5/7 at window 10, and there on
    3 x 3 modules at window 3 as well; at any q on 3 x 3 random sigma
    matrices at window 10.  Those cases take the smaller windows in turn."""
    q = Fraction(q)
    rng = random.Random(f"probe-oracle-{q}")
    found = 0
    with using_q(q):
        mods = [(_probe_gauge(rng, 2, q), True) for _ in range(16)]
        mods += [(_probe_gauge(rng, 3, q), True) for _ in range(10)]
        mods += [(rand_sigma_matrix(rng), False) for _ in range(16)]
        mods += [(to_matrix(Good(rand_sigma_good(rng, 2))), False) for _ in range(10)]
        for t, (T, gauge) in enumerate(mods):
            if q == Fraction(5, 7):
                windows = (0, 3) if T.n < 3 else (0,)
            else:
                windows = (0, 3) if T.n == 3 and not gauge else (0, 3, 10)
            window = windows[t % len(windows)]
            got = line_subbundle_probe(T, range(-2, 3), window)
            assert got == charpoly_probe(T, range(-2, 3), window), (T, window)
            found += len(got)
    assert len(mods) == 52 and found >= 100


def _candidates_of(T, k, window):
    _, orbit, coeffs = _cramer_relation(dual(T))
    return [(str(c), w) for c, w in _candidates(_adjugate_spans(orbit), coeffs, k, window)]


def test_probe_candidates_and_their_windows():
    """The scalars the probe solves and the window each is solved at.
    3 z^2 v(qz) = c z^2 v(z) has the solution z^N at c = 3 q^N and no other,
    so the windows are exactly |N|; the others are pinned as computed, and
    each window holds every solution at the full window."""
    with using_q(2):
        want = sorted((3 * Fraction(2) ** N, abs(N)) for N in range(-10, 11))
        assert _candidates_of(to_matrix(LineBundle(3, 2)), 2, 10) == [
            (str(c), w) for c, w in want
        ]
        cases = [
            # [[z, 1], [0, 1]]: v = (z^j, 0) at c = q^j, k = 1; the
            # adjugate spans (-1, -1) and (0, 0) differ by one step in i
            (extension_fixture(), 1, 4, [
                ("1/16", 4), ("1/8", 3), ("1/4", 2), ("1/2", 1), ("1", 0),
                ("2", 1), ("4", 2), ("8", 3), ("16", 4),
            ]),
            (extension_fixture(), 0, 4, []),
            (extension_fixture(), -1, 4, []),
            (extension_fixture(), 2, 4, []),
            # k = -1: the roots at the two ends differ by q^-2, d < 0
            (MatrixModule(LaurentMatrix.from_strs([["2*z", "z^3"], ["0", "3*z^-1"]])), -1, 4,
             []),
            (MatrixModule(LaurentMatrix.from_strs([["2*z", "z^3"], ["0", "3*z^-1"]])), 1, 4, [
                ("1/8", 4), ("1/4", 4), ("1/2", 4), ("1", 4), ("2", 4), ("4", 3),
                ("8", 2), ("16", 3), ("32", 4), ("64", 4), ("128", 4), ("256", 4),
                ("512", 4),
            ]),
            (_probe_gauge(random.Random(5), 2, Fraction(2)), -2, 4, [
                ("3/32", 4), ("3/16", 4), ("3/8", 4), ("3/4", 3), ("3/2", 2), ("3", 1),
                ("6", 2), ("12", 3), ("24", 4), ("48", 4), ("96", 4),
            ]),
            (_probe_gauge(random.Random(5), 2, Fraction(2)), 2, 4, [
                ("1/192", 4), ("1/96", 4), ("1/48", 4), ("1/24", 3), ("1/12", 2),
                ("1/6", 1), ("1/3", 2), ("2/3", 3), ("4/3", 4), ("8/3", 4), ("16/3", 4),
            ]),
        ]
        for M, k, window, want in cases:
            T = to_matrix(M)
            assert _candidates_of(T, k, window) == want, (T, k)
            for c, w in want:
                c = Fraction(c)
                assert _window_coords(window_eigenspace(T, w, k, c), window) == (
                    _window_coords(window_eigenspace(T, window, k, c), window)
                )


def test_a_3x3_gauge_probe_at_q_5_7_is_fast():
    """The charpoly route took 52 s on this probe: its root search walks the
    divisors of the end coefficients of a 21-square map's characteristic
    polynomial.  The edge polynomials of the dual relation have degree at
    most 3.  The answer is the charpoly route's."""
    q = Fraction(5, 7)
    with using_q(q):
        T = _probe_gauge(random.Random("probe-5/7-13"), 3, q)
        start = time.perf_counter()
        found = line_subbundle_probe(T, range(-2, 3), window=3)
        assert time.perf_counter() - start < 2
    assert _show(found) == [
        "25/49 -1 z + 9/5*z^2 - 6/5*z^3 ; 9/10 - 4/5*z^2 ; 3/5*z",
        "5/7 -1 1 + 9/5*z - 6/5*z^2 ; 9/10*z^-1 - 4/5*z ; 3/5",
        "1 -1 z^-1 + 9/5 - 6/5*z ; 9/10*z^-2 - 4/5 ; 3/5*z^-1",
        "7/5 -1 z^-2 + 9/5*z^-1 - 6/5 ; 9/10*z^-3 - 4/5*z^-1 ; 3/5*z^-2",
        "5/21 0 z^2 - 2*z^3 ; 3/2 ; z",
        "1/3 0 z - 2*z^2 ; 3/2*z^-1 ; 1",
        "7/15 0 1 - 2*z ; 3/2*z^-2 ; z^-1",
        "49/75 0 z^-1 - 2 ; 3/2*z^-3 ; z^-2",
        "5/7 1 z - 1/2*z^2 + 4*z^3 ; -3 - z^2 ; -2*z",
        "1 1 1 - 1/2*z + 4*z^2 ; -3*z^-1 - z ; -2",
        "7/5 1 z^-1 - 1/2 + 4*z ; -3*z^-2 - 1 ; -2*z^-1",
        "49/25 1 z^-2 - 1/2*z^-1 + 4 ; -3*z^-3 - z^-1 ; -2*z^-2",
    ]


def _window_coords(vecs, window):
    return [
        [f.coeff(e) for f in v for e in range(-window, window + 1)] for v in vecs
    ]


def test_fixed_space_is_the_probe_at_c1_k0(rng):
    """H^0 is the (c, k) = (1, 0) eigenspace of the probe's equation."""
    mats = [
        to_matrix(Torsion(((Fraction(1), 2),))),
        to_matrix(dual(extension_fixture())),
        to_matrix(LineBundle(Fraction(1), 0)),
        MatrixModule(LaurentMatrix.from_strs([["2", "0"], ["z", "2"]])),
    ]
    mats += [rand_sigma_matrix(rng, n_max=2) for _ in range(8)]
    nonempty = 0
    for T in mats:
        for w in (0, 2, 3):
            fixed = _window_coords(fixed_space(T, w), w)
            probe = _window_coords(
                [v for c, k, v in line_subbundle_probe(T, [0], w) if c == 1], w
            )
            assert len(fixed) == len(probe) == rank(fixed + probe)
            nonempty += bool(fixed)
    assert nonempty >= 6
