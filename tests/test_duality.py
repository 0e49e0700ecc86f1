"""Duals of cyclic modules with sigma-good generators: the explicit dual
generator, pairing tables, composition-sum closed forms, partition
identities, and the double dual."""

from fractions import Fraction

import pytest

import qec.duality
from qec.aq import degrees, epsilon, parse
from qec.duality import (
    GoodNormalForm,
    PairingTable,
    annihilation_sum,
    closed_form_value,
    composition_sums,
    double_dual_check,
    double_dual_twist,
    dual_certificate,
    first_mixed_good,
    good_dual,
    left_partition_sum,
    mixed_good_element,
    normalize_good,
    pi_product,
    right_partition_sum,
)
from qec.errors import CertificateFailure, PreconditionViolation, SearchExhausted
from qec.cohomology import cohomology, fixed_space
from qec.laurent import ONE, LaurentPoly
from qec.modules import (
    Good,
    LineBundle,
    Torsion,
    dual,
    extension_fixture,
    jordan_structure,
    pic_class,
    pic_eq,
    to_matrix,
)
from qec.samples import rand_sigma_good, rand_two_sided_good
from qec.scalars import using_q


def _line_of_t1(nf):
    """Width-one normal form s + p0 presents the line sigma(e) = -p0 e."""
    c, m = (-nf.p0).unit_decompose()
    return LineBundle(c, m)


def test_normalize_good_examples():
    _, nf = normalize_good(parse("s - 1"))
    assert nf.t == 1 and nf.p0 == LaurentPoly.const(-1)

    u, nf = normalize_good(parse("z*s^3 + s^5"))
    assert nf.t == 2
    assert nf.p0 == LaurentPoly.monomial(Fraction(1, 8), 1)  # z / q^3 at q=2
    assert u * parse("z*s^3 + s^5") == nf.element()

    _, nf = normalize_good(parse("s^2 - 3*s + 2"))
    assert [str(c) for c in nf.coeffs] == ["2", "-3"]

    # negative sigma-support is shifted into [0, t]
    _, nf = normalize_good(parse("z - s - s^-1"))
    assert nf.t == 2
    assert [str(c) for c in nf.coeffs] == ["1", "-2*z"]


def test_normalize_good_rejects_non_good():
    with pytest.raises(PreconditionViolation):
        normalize_good(parse("(1+z)*s + 1"))
    with pytest.raises(PreconditionViolation):
        GoodNormalForm((LaurentPoly(0, [1, 1]),))


def test_normalize_good_rejects_a_wrong_normal_form(monkeypatch):
    real = qec.duality.good_normal_coeffs

    def doubled_p0(p):
        u, coeffs = real(p)
        return u, [2 * coeffs[0], *coeffs[1:]]

    monkeypatch.setattr(qec.duality, "good_normal_coeffs", doubled_p0)
    with pytest.raises(CertificateFailure, match="is not its normal form"):
        normalize_good(parse("s^2 - 3*s + 2"))


def test_good_dual_rejects_a_dual_generator_of_other_widths(monkeypatch):
    monkeypatch.setattr(qec.duality, "epsilon", lambda x: epsilon(x) * parse("1 + z"))
    with pytest.raises(CertificateFailure, match="changed the widths"):
        good_dual(parse("s^2 - 3*s + 2"))


def test_good_dual_rejects_a_dual_generator_that_is_not_sigma_good(monkeypatch):
    # same widths (2, 1) as p, but the top coefficient 1 + z is no unit
    monkeypatch.setattr(qec.duality, "epsilon", lambda x: parse("(1 + z)*s^2 + 1"))
    with pytest.raises(CertificateFailure, match="is not sigma-good"):
        good_dual(parse("s^2 + (1 + z)*s + 1"))


def test_good_dual_two_generator_example():
    p = parse("s^2 - 3*s + 2")
    r, M = good_dual(p)
    assert r == parse("1/2*s^-2 - 3/2*s^-1 + 1")
    _, nf = normalize_good(p)
    assert epsilon(nf.element()) == parse("s^-2 - 3*s^-1 + 2")
    assert degrees(r).sigma_good
    # the dual of O + L(2,0) has eigenvalues {1, 1/q}
    _, nfr = normalize_good(r)
    companion = to_matrix(Good(nfr.element()))
    assert jordan_structure(companion) == list(dual(Torsion([(1, 1), (2, 1)])).blocks)
    # same-index cohomology match against the original
    assert cohomology(M).h0 == cohomology(Good(p)).h0 == 2


def test_good_dual_line_is_pic_inverse():
    for c, m in ((Fraction(3), 2), (Fraction(1, 2), -1), (Fraction(-5, 3), 0)):
        p = parse("s") - parse(f"({c})*z^{m}" if m else f"({c})")
        r, _ = good_dual(p)
        _, nf = normalize_good(r)
        assert nf.t == 1
        assert pic_eq(_line_of_t1(nf), dual(LineBundle(c, m)))
    # O is self-dual
    r, _ = good_dual(parse("s - 1"))
    _, nf = normalize_good(r)
    assert pic_eq(_line_of_t1(nf), LineBundle(1, 0))


def test_pairing_values_constant_line():
    # sigma e = 2 e: <f, s^k e> = 2^k on both sides of zero
    _, nf = normalize_good(parse("s - 2"))
    pt = PairingTable(nf)
    for s in range(-4, 7):
        assert pt.value(s) == LaurentPoly.const(Fraction(2) ** s)
    assert pt.table() == [[ONE]]


def test_pairing_table_unitriangular(rng):
    for _ in range(25):
        p = rand_sigma_good(rng, t_max=3)
        _, nf = normalize_good(p)
        assert PairingTable(nf).is_unitriangular()


def test_closed_form_matches_recurrence(rng):
    for _ in range(15):
        _, nf = normalize_good(rand_sigma_good(rng, t_max=3))
        pt = PairingTable(nf)
        for s in range(nf.t, nf.t + 7):
            assert pt.value(s) == closed_form_value(nf, s)
        # s = t: the sum collapses to the empty tuple
        assert pt.value(nf.t) == -nf.p0
    with pytest.raises(PreconditionViolation):
        _, nf = normalize_good(parse("s^2 - 3*s + 2"))
        closed_form_value(nf, 1)


def test_partition_identities_vanish(rng):
    for _ in range(10):
        _, nf = normalize_good(rand_sigma_good(rng, t_max=3))
        for s in range(1, nf.t + 5):
            assert right_partition_sum(nf, s).is_zero()
            assert left_partition_sum(nf, s).is_zero()


def test_composition_totals_follow_the_ambient_q():
    # the totals are memoized on the normal form, but each value depends on
    # q: one normal form read under two q must give each q's own value
    _, nf = normalize_good(parse("s^2 + z*s + 1"))
    with using_q(2):
        at2 = closed_form_value(nf, 4)
    with using_q(3):
        assert closed_form_value(nf, 4) == PairingTable(nf).value(4) != at2
        assert right_partition_sum(nf, 3).is_zero()
        assert left_partition_sum(nf, 3).is_zero()
    with using_q(2):
        assert closed_form_value(nf, 4) == at2
    # one pairing table read under q = 2 and then q = 3 gives each q's own
    # value, upward and through the downward recurrence
    pt = PairingTable(nf)
    for s in (4, -3):
        values = {}
        for q in (2, 3, 2):
            with using_q(q):
                values.setdefault(q, pt.value(s))
                assert pt.value(s) == PairingTable(nf).value(s) == values[q]
        assert values[2] != values[3]


def test_annihilation_sum_vanishes(rng):
    for _ in range(10):
        _, nf = normalize_good(rand_sigma_good(rng, t_max=3))
        for s in range(-5, 6):
            assert annihilation_sum(nf, s).is_zero()


def test_composition_sums_enumeration():
    assert composition_sums(3, 0) == [()]
    assert composition_sums(2, -1) == []
    assert set(composition_sums(2, 2)) == {(2,), (1, 1)}
    assert set(composition_sums(2, 3)) == {(1, 2), (2, 1), (1, 1, 1)}
    # Fibonacci counts for t = 2
    assert [len(composition_sums(2, s)) for s in range(5)] == [1, 1, 2, 3, 5]
    _, nf = normalize_good(parse("s^2 - 3*s + 2"))
    assert pi_product(nf, ()) == ONE


def test_dual_certificate(rng):
    assert dual_certificate(parse("s^2 - 3*s + 2"))
    assert dual_certificate(parse("z - s - s^-1"))
    for _ in range(6):
        assert dual_certificate(rand_sigma_good(rng, t_max=3), extra=4)


def _planted(real, bad):
    """`real` with ONE added to its value at the argument `bad` alone."""

    def fault(*args):
        value = real(*args)
        return value + ONE if args[-1] == bad else value

    return fault


def test_is_unitriangular_rejects_one_planted_table_entry(monkeypatch):
    _, nf = normalize_good(parse("s^3 + z*s + 2"))
    real = PairingTable.table
    assert nf.t == 3 and PairingTable(nf).is_unitriangular()
    # the diagonal and every entry above it are checked; below it nothing is
    for i in range(3):
        for j in range(3):
            def faulty(self, i=i, j=j):
                tab = real(self)
                tab[i][j] = tab[i][j] + ONE
                return tab

            monkeypatch.setattr(PairingTable, "table", faulty)
            assert PairingTable(nf).is_unitriangular() is (i > j), (i, j)


def test_dual_certificate_rejects_a_planted_fault(monkeypatch):
    # the default sweep, extra = 6 past t
    p = parse("s^2 - 3*s + 2")
    _, nf = normalize_good(p)
    last = nf.t + 6
    assert dual_certificate(p)
    # a fault at either end of a check's sweep is caught; one just past an
    # end is not read, so the certificate still holds
    sweeps = [
        (qec.duality, "closed_form_value", nf.t),
        (qec.duality, "right_partition_sum", 1),
        (qec.duality, "left_partition_sum", 1),
        (PairingTable, "annihilation_sum", -last),
    ]
    for owner, name, first in sweeps:
        for s, holds in ((first, False), (last, False), (first - 1, True), (last + 1, True)):
            with monkeypatch.context() as m:
                m.setattr(owner, name, _planted(getattr(owner, name), s))
                assert dual_certificate(p) is holds, (name, s)
    # the pairing table is read at all, and first
    monkeypatch.setattr(PairingTable, "is_unitriangular", lambda self: False)
    monkeypatch.setattr(qec.duality, "closed_form_value", None)
    assert dual_certificate(p) is False


def test_double_dual_constant_coefficients_literal():
    p = parse("s^2 - 3*s + 2")
    assert double_dual_twist(p) == normalize_good(p)[1].element()
    r, _ = good_dual(p)
    rr, _ = good_dual(r)
    assert normalize_good(rr)[1].coeffs == normalize_good(p)[1].coeffs
    assert double_dual_check(p)


def test_double_dual_twist_counterexample():
    from qec.ideals import membership_principal

    # z + z s + s^2: the second dual generates the conjugated ideal, with
    # coefficients (z, qz) instead of (z, z)
    p = parse("z + z*s + s^2")
    r, _ = good_dual(p)
    rr, _ = good_dual(r)
    _, nf2 = normalize_good(rr)
    assert [str(c) for c in nf2.coeffs] == ["z", "2*z"]
    assert not membership_principal(nf2.element(), p)
    assert double_dual_check(p)


def test_double_dual_check_monomial_and_mixed_generators():
    assert double_dual_check(parse("s - 1"))
    assert double_dual_check(parse("s - 3*z^2"))
    assert double_dual_check(parse("s - 1/2*z^-1"))
    assert double_dual_check(parse("z - s - s^-1"))


def test_rank_and_freeness_preserved(rng):
    for _ in range(12):
        p = rand_two_sided_good(rng, t_max=3)
        r, _ = good_dual(p)
        dp, dr = degrees(p), degrees(r)
        assert dr.deg_z == dp.deg_z
        assert dr.z_good == dp.z_good
    # a sigma-good generator that is not z-good stays not z-good
    r, _ = good_dual(parse("z - s - s^-1"))
    assert not degrees(r).z_good


def test_dual_of_extension_fixture_has_fixed_vector():
    # duality does not preserve torsion-freeness: the dual of the extension
    # fixture carries a sigma-fixed vector although the fixture has none
    D = dual(extension_fixture())
    assert fixed_space(to_matrix(D), 4)
    assert fixed_space(to_matrix(extension_fixture()), 4) == []


def test_mixed_good_element():
    p = mixed_good_element(parse("1"), parse("1"), 1)
    assert p == parse("s + s^-1 + z + z^-1")
    d = degrees(p)
    assert d.sigma_good and d.z_good
    assert first_mixed_good(parse("1"), parse("1"))[1] == 1

    # s^2 + z^2 + 2 fails at n=1 (non-unit extreme coefficients), n=2 works
    p1 = mixed_good_element(parse("s"), parse("z"), 1)
    assert p1 == parse("s^2 + z^2 + 2")
    d1 = degrees(p1)
    assert not (d1.sigma_good and d1.z_good)
    p2, n = first_mixed_good(parse("s"), parse("z"))
    assert n == 2
    d2 = degrees(p2)
    assert d2.sigma_good and d2.z_good

    p, n = first_mixed_good(parse("s - 1"), parse("z - 1"))
    d = degrees(p)
    assert d.sigma_good and d.z_good
    assert mixed_good_element(parse("s - 1"), parse("z - 1"), n) == p


def test_mixed_good_element_errors():
    with pytest.raises(PreconditionViolation):
        mixed_good_element(parse("1"), parse("1"), 0)
    with pytest.raises(PreconditionViolation):
        first_mixed_good(parse("0"), parse("1"))
    with pytest.raises(SearchExhausted):
        first_mixed_good(parse("s"), parse("z"), n_max=1)


def test_minimality_of_first_mixed_good(rng):
    for _ in range(8):
        x = rand_sigma_good(rng, t_max=2)
        y = rand_two_sided_good(rng, t_max=2)
        try:
            p, n = first_mixed_good(x, y, n_max=12)
        except SearchExhausted:
            continue
        d = degrees(p)
        assert d.sigma_good and d.z_good
        for k in range(1, n):
            dk = degrees(mixed_good_element(x, y, k))
            assert dk is None or not (dk.sigma_good and dk.z_good)
