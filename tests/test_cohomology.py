"""Cohomology: closed forms, the fixed-space solver, the window protocol,
h1 = h0 + rank_S, and the Euler form."""

import importlib
import random
from fractions import Fraction

import pytest

from qec import ideals
from qec.aq import parse
from qec.cohomology import (
    WINDOW_START,
    WINDOW_STEP,
    _edge_exponents,
    _support_window,
    cohomology,
    dim_hom,
    euler_form,
    fixed_space,
    stabilized_h0,
)
from qec.errors import CertificateFailure, PreconditionViolation
from qec.ideals import SearchBounds, line_subbundle_probe
from qec.laurent import LaurentMatrix, LaurentPoly
from qec.modules import (
    Good,
    LineBundle,
    MatrixModule,
    Torsion,
    Unknown,
    extension_fixture,
    rank_A,
    rank_S,
    slopes,
    to_matrix,
)
from qec.samples import rand_laurent, rand_module, rand_sigma_matrix
from qec.scalars import set_q, using_q

O = LineBundle(1, 0)


def report_tuple(r):
    return (r.h0, r.h1, r.chi, r.certified, r.window_used)


def presentations(M):
    """M itself and the same module as a MatrixModule: the closed form for
    T(z) = z^m C must give one answer whichever presentation reaches it."""
    return (M, to_matrix(M))


def test_line_bundle_closed_forms():
    for M, expected in (
        (O, (1, 1, 0, True, 0)),
        # degree 0, class distinct from the structure sheaf
        (LineBundle(3, 0), (0, 0, 0, True, 0)),
        (LineBundle(Fraction(5, 3), 0), (0, 0, 0, True, 0)),
        # degree 0 but trivial class: 4 = q^2
        (LineBundle(4, 0), (1, 1, 0, True, 0)),
        # nonzero degree
        (LineBundle(1, 3), (0, 3, -3, True, 0)),
        (LineBundle(2, -3), (0, 3, -3, True, 0)),
    ):
        for P in presentations(M):
            assert report_tuple(cohomology(P)) == expected, P


def test_torsion_closed_forms():
    for M, expected in (
        # one block with eigenvalue in the q-power class of 1, one outside
        (Torsion([(1, 2), (3, 1)]), (1, 1, 0, True, 0)),
        # 8 = q^3 is in the trivial class
        (Torsion([(8, 1)]), (1, 1, 0, True, 0)),
        # nothing in the trivial class
        (Torsion([(3, 2), (5, 1)]), (0, 0, 0, True, 0)),
        # every block in the trivial class
        (Torsion([(1, 1), (2, 1), (4, 1)]), (3, 3, 0, True, 0)),
    ):
        for P in presentations(M):
            assert report_tuple(cohomology(P)) == expected, P


def test_good_cohomology():
    # the structure sheaf as a cyclic module: window protocol hits the cap
    assert report_tuple(cohomology(Good(parse("s - 1")))) == (1, 1, 0, True, 8)
    # constant coefficients (s-1)(s-2): two trivial-class eigenlines
    assert report_tuple(cohomology(Good(parse("s^2 - 3*s + 2")))) == (2, 2, 0, True, 8)
    # z-good generator: free over the sigma subalgebra, exact closed form
    assert report_tuple(cohomology(Good(parse("s + z")))) == (0, 1, -1, True, 0)
    # simple module with a generator good on neither z-extreme: stagnation
    assert report_tuple(cohomology(Good(parse("z - s - s^-1")))) == (
        0, 1, -1, False, 16,
    )


def test_extension_fixture_cohomology():
    assert report_tuple(cohomology(extension_fixture())) == (0, 1, -1, False, 16)


def _mat(rows):
    return MatrixModule(LaurentMatrix.from_strs(rows))


def test_fixed_space_examples():
    assert len(fixed_space(_mat([["1"]]), 2)) == 1
    assert fixed_space(_mat([["z"]]), 4) == []
    # 2 f(qz) = f(z) is solved by z^-1 when q = 2
    sols = fixed_space(_mat([["2"]]), 2)
    assert len(sols) == 1
    assert str(sols[0][0]) in ("z^-1", "-z^-1") or not sols[0][0].is_zero()
    assert fixed_space(to_matrix(extension_fixture()), 6) == []
    with pytest.raises(PreconditionViolation):
        fixed_space(_mat([["1"]]), -1)
    # the probe refuses it too, even when the slopes rule out every k
    with pytest.raises(PreconditionViolation, match="window must be >= 0"):
        line_subbundle_probe(_mat([["1"]]), range(1, 4), window=-1)


def test_fixed_space_window_monotone():
    for rows in ([["1"]], [["2"]], [["z", "1"], ["0", "1"]]):
        T = _mat(rows)
        dims = [len(fixed_space(T, w)) for w in (0, 2, 4, 6)]
        assert dims == sorted(dims)


def test_stabilized_h0_protocol():
    # the dimension reaches n = 1 at the first window: certified
    assert stabilized_h0(_mat([["1"]])) == (1, True, 8)
    # n = 2 never reached: two stagnant growths end the scan at window 16
    assert stabilized_h0(to_matrix(extension_fixture())) == (0, False, 16)


def _window_by_window(T):
    """The window protocol with every window solved on its own: 8, 12, 16,
    ..., certified once the dimension reaches n, uncertified after three
    equal dimensions in a row.  The reference for `stabilized_h0`."""
    window, dims = WINDOW_START, []
    while True:
        d = len(fixed_space(T, window))
        dims.append(d)
        if d >= T.n:
            return d, True, window
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]:
            return d, False, window
        window += WINDOW_STEP


# sigma-good generators that are not z-good: cohomology of Good(p) reaches
# the window protocol
GOOD_NOT_Z_GOOD = (
    "z - s - s^-1",
    "s - 1 - z + z*s^-1",
    "z + s^2 - s^-1",
    "s^2 - 3*s + 2 + z*s",
    "s^2 - 5*s + 4",
    "s - 2 + z*s^-1 - 2*z",
    "(s - 1)*(z - s - s^-1)",
)


def _rand_gauge_parts(rng, q, n=None):
    """(G, D) for `gauge`: G unit upper triangular, n x n (1 to 3 when not
    given), with entries reaching up to z^+-12, so that fixed vectors reach
    past windows 8 and 12; D diagonal with entries c z^m, c mostly a power
    of q."""
    n = n or rng.randint(1, 3)
    g = [[LaurentPoly.const(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = rand_laurent(rng, 1, 12)
    d = [[LaurentPoly.zero()] * n for _ in range(n)]
    for i in range(n):
        c = q ** rng.randint(-2, 2) if rng.random() < 0.7 else Fraction(3)
        d[i][i] = LaurentPoly.monomial(c, rng.choice((0, 0, 0, 1, -1)))
    return LaurentMatrix(tuple(map(tuple, g))), LaurentMatrix(tuple(map(tuple, d)))


@pytest.mark.parametrize("q", [2, 3, Fraction(-1, 2), Fraction(5, 7)])
def test_stabilized_h0_matches_the_window_by_window_protocol(q, gauge):
    rng = random.Random(f"stabilized-h0-{q}")
    with using_q(q):
        mods = [to_matrix(Good(parse(p))) for p in GOOD_NOT_Z_GOOD]
        mods += [rand_sigma_matrix(rng) for _ in range(6)]
        mods += [gauge(*_rand_gauge_parts(rng, Fraction(q))) for _ in range(10)]
        mods += [gauge(*_rand_gauge_parts(rng, Fraction(q), 3)) for _ in range(4)]
        for T in mods:
            assert stabilized_h0(T) == _window_by_window(T), T


@pytest.mark.parametrize("q", [2, 3, Fraction(-1, 2), Fraction(5, 7)])
def test_support_window_holds_every_fixed_vector(q, gauge):
    # the fixed vectors at window B are those of a solve wider than B and
    # than every window the protocol reads, and "no fixed vector" (None)
    # only when that wide solve is empty.  The gauge modules' constructed h0
    # is not the truth at q != 2, so the wide solve is the reference.
    rng = random.Random(f"support-window-{q}")
    with using_q(q):
        mods = [to_matrix(Good(parse(p))) for p in GOOD_NOT_Z_GOOD]
        mods += [rand_sigma_matrix(rng) for _ in range(6)]
        mods += [gauge(*_rand_gauge_parts(rng, Fraction(q), n)) for n in (2, 2, 3) * 4]
        for T in mods:
            bound = _support_window(T)
            wide = fixed_space(T, max(bound or 0, 16) + 8)
            if bound is None:
                assert wide == [], T
            else:
                assert len(fixed_space(T, bound)) == len(wide), (T, bound)


@pytest.mark.parametrize("q", [2, 3, Fraction(-1, 2)])
def test_support_window_proves_no_fixed_vector(q):
    # z - s - s^-1 and [[z, 1], [0, 1]]: the window protocol reports h0 = 0
    # uncertified at 16, and the bound proves it with no solve
    with using_q(q):
        for M in (Good(parse("z - s - s^-1")), extension_fixture()):
            assert _support_window(to_matrix(M)) is None, M


@pytest.mark.parametrize(
    "q,edge,roots",
    [
        # chi(x) = x - 4 and 8x - 1: the roots q^2 and q^-3 sit on the
        # multiplicity bounds of the constant and the leading coefficient
        (2, [(0, -4), (1, 1)], [2]),
        (2, [(0, -1), (1, 8)], [-3]),
        (Fraction(-1, 2), [(0, 1), (1, 8)], [3]),
        (Fraction(-1, 2), [(0, 1), (1, -Fraction(1, 4))], [-2]),
        (Fraction(5, 7), [(0, -25), (1, 49)], [2]),
        (Fraction(5, 7), [(2, -49), (3, 25)], [-2]),
        # (x - 4)(x - 1/8)(x - 3), shifted by x: 3 is no power of q
        (2, [(1, Fraction(3, 2)), (2, -Fraction(103, 8)), (3, Fraction(57, 8)),
             (4, -1)], [-3, 2]),
        # x^2 - 4 with no x term, and a root at q^0 = 1
        (2, [(0, -4), (2, 1)], [1]),
        (3, [(0, -1), (1, 1)], [0]),
        # one term, and an edge with no power of q among its roots
        (2, [(3, 5)], []),
        (3, [(0, 2), (1, 1)], []),
        # 2^60 - (2^61 - 2) x is 2 at x = q^-1 = 1/2, and 0 in floating
        # point: the candidates are tested in integers
        (2, [(0, 2**60), (1, -(2**61 - 2))], []),
    ],
)
def test_edge_exponents(q, edge, roots):
    with using_q(q):
        assert _edge_exponents([(i, Fraction(c)) for i, c in edge]) == roots


def test_cramer_end_minors_fire_on_a_non_cyclic_vector(monkeypatch):
    # e_0 spans an s-stable line of diag(z, 1) and of its dual diag(z^-1, 1),
    # so its orbit has rank one and both end minors vanish
    T = _mat([["z", "0"], ["0", "1"]])
    e0 = (LaurentPoly.const(1), LaurentPoly.zero())
    monkeypatch.setattr(ideals, "cyclic_search", lambda T: e0)
    with pytest.raises(CertificateFailure, match="end minors of the orbit"):
        slopes(T)
    with pytest.raises(CertificateFailure, match="end minors of the orbit"):
        stabilized_h0(T)


I2 = [["1", "0"], ["0", "1"]]
I3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize(
    "g,expected,bound,solves",
    [
        ([["1"]], (1, True, 8), 0, [0]),
        # fixed vectors e_1 and (-z^j, 1): the dimension reaches 2 at the
        # first window that holds z^j, including on its boundary
        ([["1", "z^10"], ["0", "1"]], (2, True, 12), 10, [10]),
        ([["1", "z^-8"], ["0", "1"]], (2, True, 8), 8, [8]),
        ([["1", "z^12"], ["0", "1"]], (2, True, 12), 12, [12]),
        ([["1", "z^16"], ["0", "1"]], (2, True, 16), 16, [16]),
        ([["1", "z^-16"], ["0", "1"]], (2, True, 16), 16, [16]),
        # supports 0, 10 and 30: dimensions 1, 2, 2, 2 stop the protocol past 16
        ([["1", "z^10", "0"], ["0", "1", "z^20"], ["0", "0", "1"]], (2, False, 20), 30,
         [16, 20]),
        # supports 0, 10 and 18: dimensions 1, 2, 2, 3 certify at 20
        ([["1", "z^10", "0"], ["0", "1", "z^8"], ["0", "0", "1"]], (3, True, 20), 18,
         [16, 18]),
        # supports 0, 14 and 22: dimensions 1, 1, 2, 2, 3 certify at 24
        ([["1", "z^14", "0"], ["0", "1", "z^8"], ["0", "0", "1"]], (3, True, 24), 22,
         [16, 20, 22]),
    ],
    ids=[f"g{i}-expected{i}" for i in range(9)],
)
def test_stabilized_h0_on_trivial_modules_in_a_wide_basis(
    g, expected, bound, solves, gauge, monkeypatch
):
    # T = G(z)^-1 G(qz) is the trivial module of rank n written in the basis
    # G, with det G = 1: its fixed vectors are the columns of G^-1, and the
    # support bound is exactly their widest support
    T = gauge(g, {1: [["1"]], 2: I2, 3: I3}[len(g)])
    assert _support_window(T) == bound
    # one solve at min(B, 16), then each later window at min(w, B): windows
    # up to 16, and those at or past B, are read off a kernel, never solved
    # again; the package re-exports a function named `cohomology`, hence
    # import_module
    coh, solved = importlib.import_module("qec.cohomology"), []
    monkeypatch.setattr(coh, "fixed_space", lambda T, w: solved.append(w) or fixed_space(T, w))
    assert coh.stabilized_h0(T) == expected == _window_by_window(T)
    assert solved == solves


def test_h1_identity_on_randoms(rng):
    for _ in range(20):
        M = rand_module(rng, "ltg")
        r = cohomology(M)
        rk = rank_S(M)
        assert r.h1 == r.h0 + rk
        assert r.chi == r.h0 - r.h1 == -rk
        assert r.h0 <= rank_A(M)
        assert (r.chi == 0) == (rk == 0)
    # small matrix presentations: the search cost grows quickly with size
    for _ in range(8):
        M = rand_sigma_matrix(rng, n_max=2)
        r = cohomology(M)
        assert r.h0 <= rank_A(M)
        rk = rank_S(M)
        if not isinstance(rk, Unknown):
            assert r.h1 == r.h0 + rk


def test_euler_form_examples():
    assert euler_form(O, O) == 0
    assert euler_form(O, LineBundle(1, 3)) == -3
    assert euler_form(LineBundle(1, 3), O) == -3
    assert euler_form(LineBundle(2, 1), LineBundle(3, 5)) == -4
    counter = Good(parse("z - s - s^-1"))
    assert euler_form(counter, O) == -1
    assert euler_form(O, counter) == -1


def test_euler_form_symmetry_small(rng):
    for _ in range(12):
        M = rand_module(rng, "ltg")
        N = rand_module(rng, "lt")
        a = euler_form(M, N)
        b = euler_form(N, M)
        if not isinstance(a, Unknown) and not isinstance(b, Unknown):
            assert a == b


def test_euler_unknown_under_tight_bounds():
    # no bounds reach the Euler form: the slopes answer it exactly
    out = euler_form(Good(parse("z - s - s^-1")), extension_fixture())
    assert out == -3


def test_dim_hom_values():
    # maps out of the structure sheaf into torsion do exist
    assert dim_hom(O, Torsion([(1, 1)])).h0 == 1
    # free source, torsion target: the hom module is a line of nonzero degree
    assert dim_hom(LineBundle(1, 2), Torsion([(3, 1)])).h0 == 0
    # torsion source, torsion-free target
    assert dim_hom(Torsion([(1, 1)]), LineBundle(1, 2)).h0 == 0
    assert dim_hom(O, O).h0 == 1


def test_report_json():
    assert cohomology(O).to_json() == {
        "h0": 1, "h1": 1, "chi": 0, "certified": True, "window_used": 0,
    }
    # the window protocol reports integers too
    r = cohomology(extension_fixture())
    assert r.to_json() == {
        "h0": 0, "h1": 1, "chi": -1, "certified": False, "window_used": 16,
    }
    assert all(type(r.to_json()[key]) is int for key in ("h0", "h1", "chi"))


def test_matrix_module_with_unknown_rank_reports_unknown_h1():
    # the bounds are not read: rank_S comes from the slopes
    tight = SearchBounds(deg_sigma=1, deg_z=0, window=4)
    M = to_matrix(extension_fixture())
    rk = rank_S(M, tight)
    assert rk == 1

