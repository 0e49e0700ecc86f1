import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from qec.aq import AqElement, degrees, parse
import qec.modules
from qec.errors import (
    CertificateFailure, NonSplitSpectrum, ParseError, PreconditionViolation, ZeroInput
)
from qec.laurent import ZERO, LaurentMatrix, LaurentPoly, laurent_to_str
from qec.linalg import jordan_structure_constant, nullspace, shift_rows
from qec.modules import (
    Good,
    LineBundle,
    MatrixModule,
    PicClass,
    Torsion,
    Unknown,
    aq_act,
    dual,
    extension_fixture,
    hom,
    jordan_structure,
    module_from_json,
    module_to_json,
    pic_class,
    pic_eq,
    pic_inv,
    pic_mul,
    pic_trivial,
    rank_A,
    rank_S,
    rigidity_check,
    sigma_apply,
    tensor,
    to_matrix,
    torsion_tensor_rank_check,
    _whole,
    window_eigenspace,
)
from qec.samples import (
    rand_aq,
    rand_laurent,
    rand_line,
    rand_module,
    rand_sigma_matrix,
    rand_torsion,
)
from qec.scalars import get_q, using_q

O = LineBundle(1, 0)


def test_to_matrix_forms():
    assert to_matrix(Good(parse("s - 1"))).mat.to_strs() == [["1"]]
    assert to_matrix(Good(parse("s^2 - 3*s + 2"))).mat.to_strs() == [
        ["0", "-2"],
        ["1", "3"],
    ]
    assert to_matrix(Good(parse("z - s - s^-1"))).mat.to_strs() == [
        ["0", "-1"],
        ["1", "2*z"],
    ]
    assert to_matrix(Torsion([(1, 2)])).mat.to_strs() == [["1", "1"], ["0", "1"]]
    assert to_matrix(LineBundle(3, 2)).mat.to_strs() == [["3*z^2"]]
    assert extension_fixture().mat.to_strs() == [["z", "1"], ["0", "1"]]


def test_sigma_matrix_validation():
    with pytest.raises(PreconditionViolation):
        MatrixModule(LaurentMatrix.from_strs([["1 + z", "0"], ["0", "1"]]))
    with pytest.raises(PreconditionViolation):
        MatrixModule(LaurentMatrix.from_strs([["1", "1"], ["z", "z"]]))


def test_module_validation():
    with pytest.raises(ZeroInput):
        LineBundle(0, 1)
    with pytest.raises(ZeroInput):
        Torsion([(0, 1)])
    with pytest.raises(PreconditionViolation):
        Torsion([(1, 0)])
    with pytest.raises(PreconditionViolation):
        Torsion([])
    with pytest.raises(PreconditionViolation):
        Good(parse("(1+z)*s"))  # not sigma-good
    with pytest.raises(PreconditionViolation):
        Good(parse("3*z^2"))  # unit generator: zero module
    with pytest.raises(ZeroInput):
        Good(AqElement.zero())


def test_ranks():
    assert rank_A(O) == 1 and rank_S(O) == 0
    assert rank_A(LineBundle(3, -2)) == 1 and rank_S(LineBundle(3, -2)) == 2
    T = Torsion([(1, 2), (3, 1)])
    assert rank_A(T) == 3 and rank_S(T) == 0
    M = Good(parse("z - s - s^-1"))
    assert rank_A(M) == 2 and rank_S(M) == 1
    X = extension_fixture()
    assert rank_A(X) == 2 and rank_S(X) == 1


def test_sigma_apply_and_aq_act():
    X = extension_fixture()
    e2 = (LaurentPoly.zero(), LaurentPoly.const(Fraction(1)))
    se2 = sigma_apply(X, e2)
    assert [laurent_to_str(c) for c in se2] == ["1", "1"]
    # (s - 1) e2 = e1, then (s - z) kills it
    r = aq_act(parse("(s - z)*(s - 1)"), X, e2)
    assert all(c.is_zero() for c in r)
    # inverse action round-trips
    back = sigma_apply(X, se2, k=-1)
    assert list(back) == list(e2)


def test_sigma_powers_invert_and_aq_act_sums_them(rng):
    for _ in range(12):
        T = rand_sigma_matrix(rng, n_max=3)
        v = [rand_laurent(rng) for _ in range(T.n)]
        for k in (1, 2, 3):
            assert sigma_apply(T, sigma_apply(T, v, k), -k) == v
            assert sigma_apply(T, sigma_apply(T, v, -k), k) == v
        x = rand_aq(rng, max_width=3)
        want = [ZERO] * T.n
        for i, f in x.terms():
            want = [w + f * c for w, c in zip(want, sigma_apply(T, v, i))]
        assert aq_act(x, T, v) == want


def test_tensor_lines_and_torsion():
    assert tensor(LineBundle(3, 2), LineBundle(Fraction(1, 3), -2)) == O
    assert tensor(O, LineBundle(5, 1)) == LineBundle(5, 1)
    A = Torsion([(2, 2), (3, 1)])
    B = Torsion([(Fraction(1, 2), 2)])
    fast = tensor(A, B)
    # independent route: Jordan structure of the Kronecker matrix
    ka = to_matrix(A).mat.kron(to_matrix(B).mat)
    rows = [[e.coeff(0) for e in row] for row in ka.rows]
    assert sorted(fast.blocks) == sorted(jordan_structure_constant(rows))
    assert rank_A(fast) == rank_A(A) * rank_A(B)


def _kronecker_oracle(M, N):
    """The Jordan data of the Kronecker matrix of two torsion modules."""
    return Torsion(jordan_structure(to_matrix(M).mat.kron(to_matrix(N).mat)))


def test_torsion_tensor_clebsch_gordan_matches_kronecker(rng):
    for _ in range(40):
        M = rand_torsion(rng, max_blocks=2, max_size=2)
        N = rand_torsion(rng, max_blocks=2, max_size=2)
        assert tensor(M, N) == _kronecker_oracle(M, N)
        assert hom(M, N) == _kronecker_oracle(dual(M), N)


def test_torsion_tensor_large_primes():
    M = Torsion([(1000000007, 1)])
    N = Torsion([(998244353, 1)])
    assert tensor(M, N) == Torsion([(998244353 * 1000000007, 1)])


def test_tensor_good_line_twist():
    M = Good(parse("s - 1"))
    for c, m in ((Fraction(3), 1), (Fraction(1, 2), -2), (Fraction(-5), 0)):
        L = LineBundle(c, m)
        N = tensor(M, L)
        assert isinstance(N, Good)
        # O tensor L is L itself: same Picard class and ranks
        assert rank_A(N) == 1 and rank_S(N) == abs(m)
        nf = N.p
        supp = nf.sigma_support()
        assert supp[-1] - supp[0] == 1
        assert pic_eq(pic_class(_line_of_good_t1(nf)), pic_class(L))


def _line_of_good_t1(p):
    """Good generator of width one u*(s - c z^m) -> the line bundle (c, m)."""
    from qec.aq import good_normal_coeffs

    _, (p0,) = good_normal_coeffs(p)
    c, m = (-p0).unit_decompose()
    return LineBundle(c, m)


def test_tensor_structured_vs_kronecker():
    M = Good(parse("s^2 - 3*s + 2"))
    L = LineBundle(3, 1)
    fast = tensor(M, L)
    assert isinstance(fast, Good)
    kron = MatrixModule(to_matrix(M).mat.kron(to_matrix(L).mat))
    assert rank_A(fast) == rank_A(kron) == 2
    assert degrees(fast.p).deg_z == 2
    rk = rank_S(kron)
    assert rk == rank_S(fast) == 2
    from qec.cohomology import cohomology

    a, b = cohomology(fast), cohomology(kron)
    assert a.h0 == b.h0 and a.h1 == b.h1


def test_hom_unit_object():
    for M in (LineBundle(3, 2), Good(parse("z - s - s^-1")), Good(parse("s^2 - 3*s + 2"))):
        H = hom(O, M)
        assert module_to_json(H) == module_to_json(M)
    assert hom(LineBundle(5, 2), LineBundle(5, 2)) == O


def test_dual_closed_forms():
    assert dual(LineBundle(3, 2)) == LineBundle(Fraction(1, 3), -2)
    T = Torsion([(2, 2), (Fraction(-1, 3), 1)])
    assert dual(T) == Torsion([(Fraction(1, 2), 2), (-3, 1)])
    assert dual(dual(T)) == T
    assert dual(dual(LineBundle(7, -1))) == LineBundle(7, -1)
    X = extension_fixture()
    DD = dual(dual(X))
    assert DD.mat.to_strs() == X.mat.to_strs()
    M = Good(parse("z - s - s^-1"))
    DM = dual(M)
    assert isinstance(DM, Good)
    assert rank_A(DM) == rank_A(M) and rank_S(DM) == rank_S(M)


def test_dual_matrix_is_inverse_transpose():
    X = extension_fixture()
    D = dual(X)
    prod = D.mat.transpose() * X.mat
    assert prod.rows == LaurentMatrix.identity(2).rows


def test_pic_group():
    # q = 2: the class of 2 is trivial, 3 is not
    assert pic_eq(pic_class(LineBundle(2, 3)), pic_class(LineBundle(1, 3)))
    assert not pic_eq(pic_class(LineBundle(3, 0)), pic_class(LineBundle(1, 0)))
    assert pic_trivial(LineBundle(4, 0))
    assert not pic_trivial(LineBundle(3, 0))
    assert not pic_trivial(LineBundle(1, 2))
    cls = pic_class(LineBundle(Fraction(48), 5))  # 48 = 3 * 16 -> class of 3
    assert cls == PicClass(3, 5)
    assert 1 <= abs(cls.c) < 2
    inv = pic_inv(cls)
    assert pic_mul(cls, inv) == pic_class(O)
    assert pic_mul(PicClass(3, 1), PicClass(5, -1)) == PicClass(Fraction(15, 8), 0)
    with using_q(Fraction(1, 3)):
        # representative normalizes against 1/q when |q| < 1
        assert pic_class(LineBundle(9, 0)) == PicClass(1, 0)
        assert pic_trivial(LineBundle(Fraction(1, 27), 0))


def test_pic_eq_rejects_orbit_representatives_that_disagree(monkeypatch):
    # at q = 2: equal representatives (3/2) whose ratio is said to lie off
    # q^Z, and different ones (3/2 and 5/4) whose ratio is said to lie on it
    monkeypatch.setattr(qec.modules, "q_power_class", lambda c: None)
    with pytest.raises(CertificateFailure, match="orbit representatives disagree with 1"):
        pic_eq(LineBundle(3, 2), LineBundle(6, 2))
    monkeypatch.setattr(qec.modules, "q_power_class", lambda c: 0)
    with pytest.raises(CertificateFailure, match="orbit representatives disagree with 6/5"):
        pic_eq(LineBundle(3, 2), LineBundle(5, 2))


def test_a_rank_read_off_slopes_must_be_whole():
    assert _whole(Fraction(6, 3)) == 2
    assert type(_whole(Fraction(6, 3))) is int
    with pytest.raises(CertificateFailure, match="slope sum 1/2 is not an integer"):
        _whole(Fraction(1, 2))


def test_pic_random_group_laws(rng):
    for _ in range(40):
        a, b = rand_line(rng), rand_line(rng)
        ca, cb = pic_class(a), pic_class(b)
        assert pic_mul(ca, cb) == pic_class(tensor(a, b))
        assert pic_mul(ca, pic_inv(ca)) == pic_class(O)
        assert pic_eq(pic_inv(ca), pic_class(dual(a)))


def test_jordan_round_trip():
    blocks = [(Fraction(5), 2), (Fraction(5), 1), (Fraction(2), 3)]
    T = Torsion(blocks)
    assert sorted(jordan_structure(to_matrix(T))) == sorted(Torsion(blocks).blocks)
    with pytest.raises(NonSplitSpectrum):
        jordan_structure(MatrixModule(LaurentMatrix.from_strs([["0", "-1"], ["1", "0"]])))
    with pytest.raises(PreconditionViolation):
        jordan_structure(extension_fixture())  # entries not constant
    with pytest.raises(PreconditionViolation):
        jordan_structure(MatrixModule(LaurentMatrix.from_strs([["z", "0"], ["0", "2*z"]])))
    # the zero matrix is constant: z^0 times itself
    zero = LaurentMatrix.from_strs([["0", "0"], ["0", "0"]])
    assert jordan_structure(zero) == [(0, 1), (0, 1)]


@pytest.mark.parametrize(
    "entry,window,c",
    [("2", 0, Fraction(1, 3)), ("2", 2, Fraction(1, 3)), ("1", 0, Fraction(1, 2)),
     ("1", 2, Fraction(1, 8))],
)
def test_window_eigenspace_with_a_fractional_unit_cell(entry, window, c):
    # the window rows are unit times the map's (unit = 1 at window 0 and 4
    # at window 2, q = 2), and c * unit is no integer: a solution would make
    # c an eigenvalue of the in-window map, whose unit multiple is an
    # integer matrix, so unit * c an algebraic integer
    T = MatrixModule(LaurentMatrix.from_strs([[entry]]))
    with using_q(2):
        assert window_eigenspace(T, window, 0, c) == []
        # T v(qz) = T v(z) holds for the constants, at an integral cell
        assert window_eigenspace(T, window, 0, int(entry)) == [[LaurentPoly.const(1)]]


def _component_major_basis(T, window, k, c):
    """The window solver's answer as one nullspace over the component-major
    unknowns (the coefficient of z^j in component r is unknown
    r (2 window + 1) + j + window), rows sorted by (component, exponent):
    the reference for `window_eigenspace`'s banded solve."""
    width = 2 * window + 1
    unit, rows = shift_rows(list(zip(*T.mat.rows)), range(-window, window + 1), get_q())
    keys = [(r, j + k) for r in range(T.n) for j in range(-window, window + 1)]
    for t, key in enumerate(keys):
        row = rows.setdefault(key, {})
        row[t] = row.get(t, 0) - c * unit
    kernel = nullspace([rows[key] for key in sorted(rows)], len(keys))
    return [
        [LaurentPoly(-window, x[r * width : (r + 1) * width]) for r in range(T.n)]
        for x in kernel
    ]


@pytest.mark.parametrize("q", [2, Fraction(-1, 2), Fraction(5, 7)])
def test_window_eigenspace_is_the_component_major_nullspace_basis(q, gauge):
    # D = diag(c_i z^m_i) in a wide basis G: eigenlines at k = m_i with
    # c = c_i q^j, several of them at once, with vectors that spread over
    # every component
    with using_q(q):
        q = get_q()
        g = [["1", "z^2 - 1/2*z^-3", "z^-1"], ["0", "1", "3*z^4 + z"], ["0", "0", "1"]]
        cases = [
            (gauge(g, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]), 0, (1, q, 3)),
            (gauge(g, [["z", "0", "0"], ["0", "2", "0"], ["0", "0", "2*z"]]), 1, (2, 2 * q, 1)),
            # c = 1/5 is no eigenvalue, and c unit is no integer
            (gauge([["1", "z^-5"], ["0", "1"]], [["1/3", "0"], ["0", "1/3"]]), 0,
             (Fraction(1, 3), Fraction(1, 3) / q, Fraction(1, 5))),
            (to_matrix(extension_fixture()), 1, (1, q)),
            (rand_sigma_matrix(random.Random(3), n_max=3), -1, (1, 2)),
        ]
        seen = set()
        for T, k, cs in cases:
            for window in range(11):
                for kk, c in [(0, 1)] + [(k, c) for c in cs]:
                    got = window_eigenspace(T, window, kk, c)
                    assert got == _component_major_basis(T, window, kk, c), (T, window, kk, c)
                    seen.add(len(got))
        assert {0, 1, 2, 3} <= seen
        with pytest.raises(PreconditionViolation, match="window must be >= 0"):
            window_eigenspace(T, -1, 0, 1)


def test_module_json_round_trip():
    mods = [
        LineBundle(Fraction(3, 2), -1),
        Torsion([(1, 2), (3, 1)]),
        Good(parse("s^2 - 3*s + 2")),
        extension_fixture(),
    ]
    for M in mods:
        desc = module_to_json(M)
        N = module_from_json(desc)
        assert module_to_json(N) == desc
    with pytest.raises(PreconditionViolation):
        module_from_json({"kind": "nope"})
    with pytest.raises(PreconditionViolation):
        module_from_json({"c": "1"})
    with pytest.raises(ZeroInput):
        module_from_json({"kind": "line", "c": "0", "m": 0})


def test_torsion_tensor_rank_examples():
    lhs, rhs = torsion_tensor_rank_check(LineBundle(1, 2), Torsion([(3, 1)]))
    assert (lhs, rhs) == (2, 2)
    lhs, rhs = torsion_tensor_rank_check(Good(parse("z - s - s^-1")), Torsion([(1, 2)]))
    assert (lhs, rhs) == (2, 2)


def test_torsion_tensor_rank_random(rng):
    # sizes kept small: the left side runs an honest generator search on the
    # Kronecker matrix, whose cost grows quickly with rank_S(N) * dim(M)
    for _ in range(8):
        N = rand_line(rng, max_m=1)
        M = rand_torsion(rng, max_blocks=2, max_size=1)
        lhs, rhs = torsion_tensor_rank_check(N, M)
        assert not isinstance(lhs, Unknown)
        assert lhs == rhs == rank_S(N) * rank_A(M)


def test_unknown_semantics():
    assert Unknown() == Unknown()
    assert Unknown(3) == Unknown(3)
    assert Unknown(3) != Unknown()
    assert Unknown() != 0


def test_certificates_survive_python_O():
    # under -O every assert is stripped; a corrupted module action must still
    # fail the window solver's certificate with a typed error
    code = textwrap.dedent(
        """
        from fractions import Fraction
        from qec import modules
        from qec.errors import CertificateFailure
        from qec.laurent import ZERO

        assert False, "asserts are live"
        T = modules.extension_fixture()
        if not modules.window_eigenspace(T, 2, 1, Fraction(1)):
            raise SystemExit("no solution to corrupt")
        modules.sigma_apply = lambda T, vec, k=1: [ZERO] * len(vec)
        try:
            modules.window_eigenspace(T, 2, 1, Fraction(1))
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
    assert proc.stdout.startswith("CertificateFailure: window solution")


def test_rank_S_unknown_under_tight_bounds():
    from qec.ideals import SearchBounds

    # the bounds are not read: rank_S comes from the slopes
    X = extension_fixture()
    rk = rank_S(X, SearchBounds(deg_sigma=2, deg_z=0, window=4))
    assert rk == 1


def test_rigidity():
    assert rigidity_check(extension_fixture())
    assert rigidity_check(to_matrix(LineBundle(3, 1)))
    assert rigidity_check(to_matrix(Torsion([(2, 2)])))


def test_rigidity_random_matrices(rng):
    for _ in range(8):
        assert rigidity_check(rand_sigma_matrix(rng, n_max=3))


def test_rand_module_kinds(rng):
    seen = set()
    for _ in range(40):
        M = rand_module(rng, kinds="ltgm")
        seen.add(type(M).__name__)
        assert rank_A(M) >= 1
    assert {"LineBundle", "Torsion", "Good"} <= seen
