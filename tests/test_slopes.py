"""Newton-polygon slopes: rank_S and the Euler form read off them, checked
against the bounded annihilator search, against modules of known rank, and
against the closed forms of structured presentations."""

import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qec import ideals, modules
from qec.aq import parse
from qec.cohomology import cohomology, euler_form
from qec.errors import CertificateFailure
from qec.ideals import cyclic_presentation
from qec.laurent import ONE, ZERO, LaurentMatrix, LaurentPoly, det, det_and_inverse
from qec.modules import (
    Good,
    LineBundle,
    MatrixModule,
    Torsion,
    _cramer_slopes,
    dual,
    hom,
    module_from_json,
    rank_A,
    rank_S,
    slopes,
    tensor,
    to_matrix,
)
from qec.samples import (
    rand_good,
    rand_laurent,
    rand_line,
    rand_module,
    rand_scalar,
    rand_sigma_matrix,
    rand_torsion,
    rand_unit,
)
from qec.scalars import using_q

QS = (2, 3, Fraction(-1, 2), Fraction(5, 7))


def test_rank_S_agrees_with_the_search_wherever_it_certifies():
    compared = 0
    for q in QS:
        with using_q(q):
            rng = random.Random(f"slopes-oracle-{q}")
            for _ in range(40):
                M = rand_sigma_matrix(rng, n_max=2)
                rk = rank_S(M)
                assert isinstance(rk, int)
                found = cyclic_presentation(M)
                if found is not None:
                    assert rk == found.rank_S, (q, M)
                    compared += 1
    # the search certifies every one of these small inputs
    assert compared == 160


def _gauge_module(rng, ms):
    """T = G(z) diag(c_i z^m_i) G(qz)^-1 with G a unit upper times a unit
    lower triangular matrix over K[z,z^-1]: isomorphic to the sum of the line
    bundles L(c_i, m_i), so rank_S = sum |m_i|."""
    n = len(ms)
    upper = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    lower = [row[:] for row in upper]
    for i in range(n):
        for j in range(i + 1, n):
            upper[i][j] = rand_laurent(rng, 1, 1)
            lower[j][i] = rand_unit(rng, 1)
    g = LaurentMatrix(upper) * LaurentMatrix(lower)
    _, g_inv_q = det_and_inverse(g.qshift(1))
    diag = LaurentMatrix(
        [
            [LaurentPoly.monomial(rng.choice((1, 2, 3, Fraction(1, 3))), m) if i == j else ZERO
             for j in range(n)]
            for i, m in enumerate(ms)
        ]
    )
    return MatrixModule(g * diag * g_inv_q)


def test_rank_S_of_gauge_modules_is_exact_and_fast():
    for q in (2, 3, Fraction(-1, 2)):
        with using_q(q):
            rng = random.Random(f"slopes-gauge-{q}")
            for n in (2, 3):
                for _ in range(4):
                    ms = [rng.randint(-2, 2) for _ in range(n)]
                    M = _gauge_module(rng, ms)
                    start = time.perf_counter()
                    assert rank_S(M) == sum(abs(m) for m in ms), (q, ms)
                    assert time.perf_counter() - start < 1.0


# a gauge module of exponents (1, -1, 0) at q = 2: the annihilator search runs
# for seconds under the default bounds and returns Unknown
SLOW_3X3 = [
    ["140/3*z^-1 + 50/27 + 584/27*z", "-322/3*z^-2 - 142/27*z^-1 - 1192/27",
     "644/3*z^-2 + 704/27*z^-1 + 7148/81 + 584/81*z"],
    ["5/9 - 340/9*z + 10/3*z^2", "85/18*z^-1 + 728/9 - 20/3*z",
     "-85/9*z^-1 - 4255/27 + 20/27*z + 10/9*z^2"],
    ["-50/9 - 170/9*z", "142/9*z^-1 + 364/9",
     "-284/9*z^-1 - 2180/27 - 170/27*z"],
]
# a direct sum up to a permutation of the basis, at q = 3: the search runs
# for about 40 s and returns Unknown
DIRECT_SUM_Q3 = [
    ["4*z^-1", "0", "0"],
    ["0", "-4/3*z", "0"],
    ["-1/2*z + 3/2*z^2", "0", "-1/3"],
]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(QS),
    st.sampled_from(("sigma", "good", "gauge2", "gauge3")),
)
def test_the_dual_negates_the_slopes_and_keeps_rank_S(seed, q, kind):
    # cohomology reads rank_S off the Cramer relation of dual(T) on its
    # window route: the dual's slopes are T's negated at both ends, and
    # since the lengths times the slopes sum to deg det T at each end, the
    # rank does not change
    rng = random.Random(seed)
    with using_q(q):
        if kind == "sigma":
            T = rand_sigma_matrix(rng)
        elif kind == "good":
            T = to_matrix(rand_good(rng))
        else:
            T = _gauge_module(rng, [rng.randint(-2, 2) for _ in range(int(kind[-1]))])
        at_inf, at_zero = slopes(T)
        negated = tuple(sorted((-lam, n) for lam, n in side) for side in (at_inf, at_zero))
        assert slopes(dual(T)) == negated
        assert rank_S(dual(T)) == rank_S(T)


def test_rank_S_answers_where_the_search_gave_up():
    for q, entries in ((2, SLOW_3X3), (3, DIRECT_SUM_Q3)):
        with using_q(q):
            M = module_from_json({"kind": "matrix", "entries": entries})
            start = time.perf_counter()
            assert rank_S(M) == 2
            assert time.perf_counter() - start < 1.0


def _small_module(rng):
    M = rand_module(rng, "ltgm")
    while rank_A(M) > 2:
        M = rand_module(rng, "ltgm")
    return M


def test_euler_form_agrees_with_the_kronecker_search():
    compared = 0
    for q in (2, 3, Fraction(-1, 2)):
        with using_q(q):
            rng = random.Random(f"slopes-euler-{q}")
            for _ in range(12):
                M, N = _small_module(rng), _small_module(rng)
                if rank_A(M) * rank_A(N) > 2:
                    N = rand_line(rng)
                chi = euler_form(M, N)
                assert chi == euler_form(N, M)
                found = cyclic_presentation(to_matrix(hom(M, N)))
                if found is not None:
                    assert chi == -found.rank_S, (q, M, N)
                    compared += 1
    assert compared >= 30


def test_structured_slopes_equal_the_cramer_slopes():
    for q in (2, Fraction(-1, 2), Fraction(5, 7)):
        with using_q(q):
            rng = random.Random(f"slopes-closed-{q}")
            for _ in range(6):
                for M in (rand_line(rng), rand_torsion(rng), rand_good(rng, t_max=3)):
                    assert slopes(M) == _cramer_slopes(to_matrix(M)), M


def _scaled_matrix(rng, n, m):
    """z^m C for a seeded invertible constant n x n matrix C."""
    while True:
        rows = [[rand_scalar(rng) for _ in range(n)] for _ in range(n)]
        mat = LaurentMatrix(
            [[LaurentPoly.monomial(c, m) if c else ZERO for c in row] for row in rows]
        )
        if not det(mat).is_zero():
            return MatrixModule(mat)


def test_scaled_closed_form_equals_the_cramer_slopes():
    # every one of these 36 inputs has a cyclic candidate
    for q in (2, 3, Fraction(-1, 2)):
        with using_q(q):
            rng = random.Random(f"slopes-scaled-{q}")
            for _ in range(12):
                n, m = rng.randint(1, 3), rng.randint(-2, 2)
                M = _scaled_matrix(rng, n, m)
                assert slopes(M) == ([(m, n)], [(m, n)])
                assert _cramer_slopes(M) == slopes(M), (q, M)


def test_trivial_modules_answer_without_the_search(monkeypatch):
    def no_search(T):
        raise AssertionError("cyclic search ran")

    monkeypatch.setattr(ideals, "cyclic_search", no_search)
    for n in (4, 5, 6):
        On = MatrixModule(LaurentMatrix.identity(n))
        assert rank_S(On) == 0
        assert euler_form(On, LineBundle(1, 1)) == -n


def test_presentation_and_matrix_agree():
    L11 = LineBundle(1, 1)
    for q in (2, 3, Fraction(-1, 2)):
        with using_q(q):
            rng = random.Random(f"slopes-routes-{q}")
            for _ in range(6):
                for M in (rand_line(rng), rand_torsion(rng), rand_good(rng, t_max=2)):
                    T = to_matrix(M)
                    assert isinstance(T, MatrixModule)
                    assert rank_A(M) == rank_A(T), M
                    assert rank_S(M) == rank_S(T), M
                    assert slopes(M) == slopes(T), M
                    assert euler_form(M, L11) == euler_form(T, L11), M
                    assert cohomology(M).chi == cohomology(T).chi, M
                # z^m J, the Kronecker matrix of L(1, m) and one Jordan block
                n, m = rng.randint(1, 3), rng.randint(-2, 2)
                L = LineBundle(1, m)
                S = tensor(L, Torsion([(rand_scalar(rng, nonzero=True), n)]))
                assert isinstance(S, MatrixModule)
                assert rank_S(S) == n * rank_S(L)
                assert euler_form(S, L11) == n * euler_form(L, L11)
                assert cohomology(S).chi == n * cohomology(L).chi


def test_slopes_closed_forms():
    assert slopes(LineBundle(3, -2)) == ([(-2, 1)], [(-2, 1)])
    assert slopes(Torsion([(1, 2), (3, 1)])) == ([(0, 3)], [(0, 3)])
    # z - s - s^-1: points (-1, 0), (0, -1), (1, 0) at infinity, so the
    # slopes -1 and 1; a flat polygon at 0
    at_inf, at_zero = slopes(Good(parse("z - s - s^-1")))
    assert at_inf == [(-1, 1), (1, 1)]
    assert at_zero == [(0, 2)]
    # a fractional slope: s^2 - z, one edge of slope 1/2 and length 2
    assert slopes(Good(parse("s^2 - z"))) == ([(Fraction(1, 2), 2)], [(Fraction(1, 2), 2)])
    assert rank_S(Good(parse("s^2 - z"))) == 1


def test_rank_S_sums_integer_rises(monkeypatch):
    assert type(rank_S(Good(parse("s^2 - z")))) is int
    assert rank_S(Good(parse("z^-3*s^3 - 1"))) == 3
    # each edge joins lattice points, so each rise is an integer; two rises
    # of 1/2 add up to an integer and are still reported, at either end
    half = [(Fraction(1, 2), 1), (Fraction(1, 2), 1)]
    flat = [(Fraction(0), 2)]
    for polygons in ((half, flat), (flat, [(-lam, n) for lam, n in half])):
        monkeypatch.setattr(modules, "slopes", lambda M, polygons=polygons: polygons)
        with pytest.raises(CertificateFailure, match="no integer rise"):
            rank_S(LineBundle(1, 0))


def test_cramer_certificate_survives_python_O():
    # under -O every assert is stripped; a wrong minor must still fail the
    # Cramer relation's certificate with a typed error
    code = textwrap.dedent(
        """
        from qec import modules
        from qec.errors import CertificateFailure
        from qec.laurent import ONE

        assert False, "asserts are live"
        M = modules.extension_fixture()
        if modules.rank_S(M) != 1:
            raise SystemExit("wrong rank before corruption")
        modules._det_rows = lambda rows, n: ONE
        # M keeps the relation it certified; a fresh module recomputes it
        try:
            modules.slopes(modules.extension_fixture())
        except CertificateFailure as e:
            print("CertificateFailure:", e)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("CertificateFailure: Cramer relation")
