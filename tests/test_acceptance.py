"""Acceptance gate: twelve structural theorems checked on concrete instances.

Every check is exact (Fraction arithmetic, zero tolerance).  Each criterion
is one test that draws its own seeded instances, so the whole gate is
deterministic, and each test prints a single PASS line on success (visible
under `pytest -s` or `-rA`).
"""

import random
from fractions import Fraction

from qec.aq import (
    AqElement,
    degrees,
    epsilon,
    fourier,
    parse,
    sigma_divide,
    to_z_form,
    unit_normalize,
    z_divide,
)
from qec.cohomology import cohomology, dim_hom, euler_form, fixed_space
from qec.duality import (
    PairingTable,
    closed_form_value,
    double_dual_check,
    good_dual,
    left_partition_sum,
    normalize_good,
    right_partition_sum,
)
from qec.ideals import annihilator_in_good, cyclic_presentation, line_subbundle_probe
from qec.laurent import LaurentPoly, qshift
from qec.modules import (
    Good,
    LineBundle,
    MatrixModule,
    Torsion,
    Unknown,
    dual,
    ev_pairing,
    hom,
    rank_A,
    rank_S,
    rigidity_check,
    tensor,
    to_matrix,
    torsion_tensor_rank_check,
)
from qec.samples import (
    rand_aq,
    rand_laurent,
    rand_line,
    rand_module,
    rand_sigma_good,
    rand_sigma_matrix,
    rand_torsion,
    rand_two_sided_good,
)
from qec.scalars import get_q, qpow

# scalars outside the q-power orbit for any |q| > 1 tested here (q = 2)
_NON_ORBIT = (
    Fraction(3),
    Fraction(5),
    Fraction(-2),
    Fraction(-1),
    Fraction(5, 3),
    Fraction(7, 2),
    Fraction(1, 5),
)


def _monomial_count(x: AqElement) -> int:
    return sum(1 for _ in x.monomials())


def test_criterion_01_algebra_identities():
    rng = random.Random(101)
    for _ in range(1000):
        a = rand_aq(rng, 3, 2)
        b = rand_aq(rng, 3, 2)
        c = rand_aq(rng, 2, 2)
        assert (a * b) * c == a * (b * c)
        da, db, dab = degrees(a), degrees(b), degrees(a * b)
        assert dab.deg_sigma == da.deg_sigma + db.deg_sigma
        assert dab.deg_z == da.deg_z + db.deg_z
        assert epsilon(a * b) == epsilon(b) * epsilon(a)
        assert epsilon(epsilon(a)) == a
        assert fourier(fourier(fourier(fourier(a)))) == a
        assert a.is_unit() == (_monomial_count(a) == 1)
        u = AqElement.monomial(
            Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            rng.randint(-3, 3),
            rng.randint(-3, 3),
        )
        assert u.is_unit() and (u * a).is_unit() == a.is_unit()
    print(
        "PASS criterion 1: 1000 random triples satisfy associativity, degree "
        "additivity, the eps anti-automorphism laws, fourier^4 = id, and "
        "exact unit classification"
    )


def test_criterion_02_division_lemmas():
    rng = random.Random(202)
    for z_mode in (False, True):
        for ci in range(500):
            a = rand_aq(rng, 3, 2)
            b = rand_aq(rng, 2, 2)
            bottom = ci % 2 == 1
            da, db = degrees(a), degrees(b)
            key = (lambda d: d.deg_z) if z_mode else (lambda d: d.deg_sigma)
            r, w = (a, b) if key(da) >= key(db) else (b, a)
            dw = degrees(w)
            if z_mode:
                g, h, rem = z_divide(r, w, bottom=bottom)
                lhs = AqElement.from_sigma_poly(g) * r
                small = rem.is_zero() or degrees(rem).deg_z < dw.deg_z
                zf = to_z_form(w)
                extreme = zf[min(zf) if bottom else max(zf)]
            else:
                g, h, rem = sigma_divide(r, w, bottom=bottom)
                lhs = AqElement.from_laurent(g) * r
                small = rem.is_zero() or degrees(rem).deg_sigma < dw.deg_sigma
                sup = w.sigma_support()
                extreme = w.coefficient(sup[0] if bottom else sup[-1])
            assert lhs == h * w + rem
            assert small
            if extreme.is_unit():
                assert g.is_unit()
    print(
        "PASS criterion 2: 500 random divisions per mode leave a remainder "
        "below the divisor's width, with a unit cofactor whenever the "
        "divisor's extreme coefficient is a unit"
    )


def test_criterion_03_two_generator_annihilator():
    q = get_q()
    # annihilator of the coset of (1 + z) in the module presented by s - 1:
    # the two-generator pair (p, w) below, tied by (q z + 1) p = (s - q) w
    p_ref = parse("s^2") - AqElement.monomial(1 + q, 0, 1) + AqElement.monomial(q)
    w_ref = AqElement.from_laurent(LaurentPoly(0, [1, 1])) * parse("s") - \
        AqElement.from_laurent(LaurentPoly(0, [1, q]))
    ann = annihilator_in_good(parse("s - 1"), parse("1 + z"))
    assert ann.kind == "two_generator"
    gp, gw = ann.generators
    assert unit_normalize(gp) == unit_normalize(p_ref)
    assert unit_normalize(gw) == unit_normalize(w_ref)
    lhs = AqElement.from_laurent(LaurentPoly(0, [1, q])) * p_ref
    rhs = (parse("s") - AqElement.monomial(q)) * w_ref
    assert lhs == rhs
    for n in range(-16, 17):
        ann_n = annihilator_in_good(parse("s - 1"), AqElement.monomial(1, n))
        assert ann_n.kind == "principal"
        (gen,) = ann_n.generators
        expect = parse("s") - AqElement.monomial(qpow(n))
        assert unit_normalize(gen) == unit_normalize(expect)
    print(
        "PASS criterion 3: the two-generator annihilator example is "
        "reproduced end to end, (q z + 1) p = (s - q) w holds exactly, and "
        "the coset of z^n has annihilator (s - q^n) for |n| <= 16"
    )


def test_criterion_04_good_module_ranks_and_probe():
    rng = random.Random(404)
    cross_checked = 0
    for _ in range(200):
        p = rand_sigma_good(rng, t_max=3)
        d = degrees(p)
        M = Good(p)
        assert rank_A(M) == d.deg_sigma
        assert rank_S(M) == d.deg_z
        if cross_checked < 10 and d.deg_sigma <= 2:
            found = cyclic_presentation(to_matrix(M))
            assert found is not None
            assert found.rank_S == d.deg_z
            cross_checked += 1
    assert cross_checked == 10
    counter = Good(parse("z - s - s^-1"))
    assert rank_A(counter) == 2
    assert rank_S(counter) == 1
    assert line_subbundle_probe(to_matrix(counter), range(-4, 5), window=10) == []
    hits = line_subbundle_probe(to_matrix(LineBundle(Fraction(3), 2)), range(1, 4))
    assert any(c == 3 and k == 2 for c, k, _ in hits)
    print(
        "PASS criterion 4: 200 sigma-good modules report ranks "
        "(s-width, z-width), 10 cross-checked against the matrix search; "
        "z - s - s^-1 reports (2, 1) and admits no line subbundle for "
        "k in [-4, 4], window 10"
    )


def _is_q_power(c: Fraction) -> bool:
    return any(qpow(k) == c for k in range(-32, 33))


def test_criterion_05_cohomology_closed_forms():
    rng = random.Random(505)
    for k in (-2, 0, 3):
        rep = cohomology(LineBundle(qpow(k), 0))
        assert (rep.h0, rep.h1, rep.chi, rep.certified) == (1, 1, 0, True)
    for _ in range(100):
        c = rng.choice(_NON_ORBIT) * qpow(rng.randint(-2, 2))
        rep = cohomology(LineBundle(c, 0))
        assert (rep.h0, rep.h1, rep.chi, rep.certified) == (0, 0, 0, True)
    for _ in range(100):
        c = rng.choice(_NON_ORBIT + (Fraction(1), Fraction(4))) or Fraction(1)
        m = rng.choice((-6, -3, -2, -1, 1, 2, 3, 6))
        rep = cohomology(LineBundle(c, m))
        assert (rep.h0, rep.h1, rep.chi, rep.certified) == (0, abs(m), -abs(m), True)
    for _ in range(100):
        blocks = tuple(
            (
                qpow(rng.randint(-2, 2)) if rng.random() < 0.5 else rng.choice(_NON_ORBIT),
                rng.randint(1, 2),
            )
            for _ in range(rng.randint(1, 3))
        )
        M = Torsion(blocks)
        expected = sum(1 for lam, _ in blocks if _is_q_power(lam))
        rep = cohomology(M)
        assert (rep.h0, rep.h1, rep.chi, rep.certified) == (expected, expected, 0, True)
        assert len(fixed_space(to_matrix(M), 4)) == expected
    print(
        "PASS criterion 5: closed-form cohomology verified for the trivial "
        "class (1,1), 100 nontrivial degree-0 lines (0,0), 100 lines of "
        "degree d != 0 (0,|d|), and 100 torsion modules whose h0 = h1 = "
        "orbit-trivial block count matches fixed_space"
    )


def _is_s_torsion(M) -> bool:
    if isinstance(M, Torsion):
        return True
    if isinstance(M, LineBundle):
        return M.m == 0
    if isinstance(M, Good):
        return degrees(M.p).deg_z == 0
    raise TypeError(M)


def test_criterion_06_chi_equals_minus_rank():
    rng = random.Random(606)
    sample = (
        [rand_line(rng) for _ in range(100)]
        + [rand_torsion(rng, max_blocks=3, max_size=2) for _ in range(100)]
        + [Good(rand_two_sided_good(rng, t_max=3)) for _ in range(100)]
    )
    zeros = 0
    for M in sample:
        rep = cohomology(M)
        rk = rank_S(M)
        assert rep.certified
        assert rep.chi == -rk
        assert rep.h0 - rep.h1 == rep.chi
        assert (rep.chi == 0) == _is_s_torsion(M)
        zeros += rep.chi == 0
    assert 0 < zeros < len(sample)
    print(
        "PASS criterion 6: chi = -rank_S on 300 structured instances "
        f"({zeros} with chi = 0, exactly the S-torsion ones)"
    )


def test_criterion_07_serre_duality():
    rng = random.Random(707)
    sample = (
        [rand_line(rng) for _ in range(200)]
        + [rand_torsion(rng, max_blocks=3, max_size=2) for _ in range(100)]
        + [Good(rand_two_sided_good(rng, t_max=3)) for _ in range(50)]
    )
    for M in sample:
        a = cohomology(M)
        b = cohomology(dual(M))
        assert a.certified and b.certified
        assert (a.h0, a.h1) == (b.h0, b.h1)
    print(
        "PASS criterion 7: h^i(M) = h^i(dual M) on 200 line bundles, "
        "100 torsion modules, and 50 certified-free good modules"
    )


def test_criterion_08_euler_form_symmetry():
    rng = random.Random(808)

    def pick():
        roll = rng.random()
        if roll < 0.45:
            return rand_line(rng)
        if roll < 0.80:
            return rand_torsion(rng)
        return Good(rand_two_sided_good(rng, t_max=2))

    pairs = []
    for _ in range(180):
        M, N = pick(), pick()
        if isinstance(M, Good) and isinstance(N, Good):
            N = rand_line(rng) if rng.random() < 0.5 else rand_torsion(rng)
        pairs.append((M, N))
    for _ in range(20):
        pairs.append(
            (Good(rand_sigma_good(rng, t_max=1)), Good(rand_sigma_good(rng, t_max=1)))
        )
    for M, N in pairs:
        x = euler_form(M, N)
        y = euler_form(N, M)
        assert not isinstance(x, Unknown) and not isinstance(y, Unknown)
        assert x == y
    print(
        "PASS criterion 8: chi(M, N) = chi(N, M) on 200 pairs of line "
        "bundles, torsion modules, and good modules"
    )


def test_criterion_09_duality_formula():
    rng = random.Random(909)
    for _ in range(100):
        p = rand_sigma_good(rng, t_max=4)
        _, nf = normalize_good(p)
        table = PairingTable(nf)
        assert table.is_unitriangular()
        for s in range(nf.t, nf.t + 7):
            assert table.value(s) == closed_form_value(nf, s)
        for s in range(1, nf.t + 4):
            assert right_partition_sum(nf, s).is_zero()
            assert left_partition_sum(nf, s).is_zero()
        r, _ = good_dual(p)
        dp, dr = degrees(p), degrees(r)
        assert dr.deg_z == dp.deg_z
        assert dr.z_good == dp.z_good
        assert double_dual_check(p)
    for _ in range(20):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        m = rng.randint(-3, 3)
        p = parse("s") - AqElement.monomial(c, m)
        r, _ = good_dual(p)
        _, nf = normalize_good(r)
        assert nf.t == 1
        cm = (-nf.p0).unit_decompose()
        assert cm == (1 / c, -m)
    print(
        "PASS criterion 9: 100 sigma-good duals are unitriangular with "
        "recurrence = closed form up to t+6, vanishing partition sums, "
        "preserved z-degree/z-goodness, passing double duals; monomial "
        "duals invert the Picard class"
    )


def test_criterion_10_tensor_ranks():
    rng = random.Random(1010)
    for _ in range(100):
        M = rand_module(rng, "ltg")
        N = rand_module(rng, "ltg")
        assert rank_A(tensor(M, N)) == rank_A(M) * rank_A(N)
    checked = 0
    draws = 0
    while checked < 50 and draws < 100:
        draws += 1
        if rng.random() < 0.5:
            N = rand_line(rng)
        else:
            N = Good(rand_sigma_good(rng, t_max=1))
        M = rand_torsion(rng, max_blocks=1, max_size=2)
        lhs, rhs = torsion_tensor_rank_check(N, M)
        if isinstance(lhs, Unknown):
            continue
        assert lhs == rhs
        checked += 1
    assert checked == 50
    print(
        "PASS criterion 10: rank_A is multiplicative on 100 tensor pairs; "
        f"rank_S(N x M) = rank_S(N) * rank_A(M) certified on 50 of {draws} "
        "torsion pairs"
    )


def test_criterion_11_rigidity():
    rng = random.Random(1111)
    for _ in range(50):
        T = rand_sigma_matrix(rng, n_max=3)
        assert rigidity_check(T)
        S = MatrixModule(T.inverse().transpose(), _det=T.det.inverse_unit())
        fvec = [rand_laurent(rng) for _ in range(T.n)]
        mvec = [rand_laurent(rng) for _ in range(T.n)]
        sf = S.mat.apply([qshift(f, 1) for f in fvec])
        sm = T.mat.apply([qshift(m, 1) for m in mvec])
        assert ev_pairing(sf, sm) == qshift(ev_pairing(fvec, mvec), 1)
    print(
        "PASS criterion 11: the zig-zag identity and evaluation "
        "equivariance hold on 50 matrix modules of rank <= 3, with "
        "equivariance re-checked on random vectors"
    )


def test_criterion_12_hom_vanishing():
    rng = random.Random(1212)

    def rand_free(i):
        if i % 10 < 7:
            L = rand_line(rng)
            while L.m == 0:
                L = rand_line(rng)
            return L
        p = rand_two_sided_good(rng, t_max=2)
        while degrees(p).deg_z == 0:
            p = rand_two_sided_good(rng, t_max=2)
        return Good(p)

    def rand_torsion_partner(F):
        if isinstance(F, LineBundle):
            return rand_torsion(rng, max_blocks=2, max_size=2)
        # degree-0 line bundles are the rank-1 torsion objects
        c = rng.choice(_NON_ORBIT) if rng.random() < 0.5 else qpow(rng.randint(-2, 2))
        return LineBundle(c, 0)

    for i in range(50):
        F = rand_free(i)
        T = rand_torsion_partner(F)
        assert not _is_s_torsion(F) and _is_s_torsion(T)
        rep = dim_hom(F, T)
        assert rep.certified and rep.h0 == 0
        assert euler_form(F, T) == rep.chi
    for i in range(50):
        F = rand_free(i)
        T = rand_torsion_partner(F)
        rep = dim_hom(T, F)
        assert rep.certified and rep.h0 == 0
        assert euler_form(T, F) == rep.chi
    print(
        "PASS criterion 12: dim Hom = 0 on 50 (free, torsion) pairs and "
        "50 (torsion, free) pairs, consistent with the Euler form"
    )
