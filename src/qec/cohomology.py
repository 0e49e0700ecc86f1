"""Cohomology of modules: H^0 as the sigma-fixed space, H^1 through the
index identity h1 = h0 + rank_S, and the Euler form chi(M, N) = -rank_S of
the internal hom, read off the slopes of M and N.

H^0(M) = Hom(O, M): a fixed vector is a line subbundle of type (c, k) =
(1, 0), so H^0 of a matrix-presented module is the window solver
`modules.window_eigenspace` at that type.  A fixed vector with z-support
inside [-w, w] satisfies T(z) f(qz) = f(z), a finite linear system over the
scalar field once the window w is chosen.  Windows grow through 8, 12, 16,
... until the dimension stagnates twice or reaches n, the size of T, which
it cannot exceed; only reaching n makes the answer certified, stagnation is
reported as uncertified.  Before any solve, the edge polynomials of a
scalar q-difference equation that every fixed vector induces prove a
window B that holds the support of every fixed vector, or prove that there
is none (`_support_window`, after Abramov's bound for rational solutions).
One solve at min(B, 16) then decides every window up to 16 and every window
at or past B: the fixed vectors supported in a smaller window are the ones
of that kernel that vanish outside it (`stabilized_h0`).  B is read off the
certified Cramer relation of the dual module, the one relation that also
gives the line-subbundle probe its candidates (`ideals.line_subbundle_probe`);
`cohomology` reads rank_S off that relation too on this route.

Line bundles, torsion modules and matrices T(z) = z^m C with C constant share
one closed form for h0 (`_closed_h0`), which also covers z-good generators;
every route reads rank_S off the slopes, of M or of its dual.
"""

from __future__ import annotations

from math import lcm

from .aq import degrees
from .errors import NonSplitSpectrum, PreconditionViolation, SearchExhausted
from .linalg import rank
from .modules import (
    Good,
    LineBundle,
    MatrixModule,
    Torsion,
    _adjugate_spans,
    _cramer_relation,
    _edges,
    _monomial_scaled,
    _transfer,
    _whole,
    dual,
    hom,
    jordan_structure,
    rank_S,
    slopes,
    to_matrix,
    window_eigenspace,
)
from .scalars import get_q, q_power_class

WINDOW_START = 8
WINDOW_STEP = 4


class CohomologyReport:
    __slots__ = ("h0", "h1", "chi", "certified", "window_used")

    def __init__(self, h0, h1, chi, certified, window_used):
        self.h0 = h0
        self.h1 = h1
        self.chi = chi
        self.certified = certified
        self.window_used = window_used

    def to_json(self):
        return {
            "h0": self.h0,
            "h1": self.h1,
            "chi": self.chi,
            "certified": self.certified,
            "window_used": self.window_used,
        }

    def __repr__(self):
        return (
            f"CohomologyReport(h0={self.h0}, h1={self.h1}, chi={self.chi}, "
            f"certified={self.certified}, window_used={self.window_used})"
        )


def fixed_space(T: MatrixModule, window: int):
    """Basis of {f : T(z) f(qz) = f(z), supp_z(f) in [-window, window]},
    each vector a tuple of Laurent polynomials: the window solver at
    (k, c) = (0, 1)."""
    return [tuple(f) for f in window_eigenspace(T, window, 0, 1)]


def _dim_within(basis, solved: int, window: int) -> int:
    """dim of the vectors in the span of `basis`, a basis of the fixed space
    at window `solved`, whose z-support lies in [-window, window]: the
    number of vectors less the rank of their coefficients at the exponents
    outside."""
    outside = [
        [f.coeff(e) for f in v for e in range(-solved, solved + 1) if abs(e) > window]
        for v in basis
    ]
    return len(basis) - rank(outside)


def _multiplicity(base: int, c: int):
    """The largest k with base^k dividing the nonzero int c, or None for
    base 1, whose every power divides c."""
    if base == 1:
        return None
    k = 0
    while c % base == 0:
        c //= base
        k += 1
    return k


def _edge_exponents(edge):
    """The integers N with chi(q^N) = 0, for chi(x) = sum c_i x^i given by
    its (i, c_i) pairs, each c_i a nonzero rational, by increasing i.

    With x^lo divided out (x = q^N is not 0) and the denominators cleared,
    chi has integer coefficients a_0, ..., a_d with a_0 and a_d nonzero.
    For q = u/w in lowest terms (w > 0) and N >= 0, q^N = u^N / w^N is in
    lowest terms, so by the rational root theorem u^N divides a_0 and w^N
    divides a_d; for N < 0 the roles of u and w swap.  As q is not +-1, one
    of |u| and w exceeds 1 in each pair, so the multiplicities bound N on
    both sides, and each candidate is tested exactly in integers:
    sum a_i U^i W^(d - i) = 0 for q^N = U/W."""
    lo = edge[0][0]
    den = lcm(*(c.denominator for _, c in edge))
    a = {i - lo: c.numerator * (den // c.denominator) for i, c in edge}
    d = max(a)
    if not d:
        return []
    q = get_q()
    u, w = q.numerator, q.denominator

    def bound(top, bottom):
        """The largest |N| for which top^|N| can divide a_0 and bottom^|N|
        can divide a_d."""
        ks = (_multiplicity(abs(top), a[0]), _multiplicity(abs(bottom), a[d]))
        return min(k for k in ks if k is not None)

    found = []
    for N in range(-bound(w, u), bound(u, w) + 1):
        U, W = (u**N, w**N) if N >= 0 else (w**-N, u**-N)
        value = 0
        for i in range(d, -1, -1):
            value = value * U + a.get(i, 0) * W ** (d - i)
        if not value:
            found.append(N)
    return found


def _support_window(T: MatrixModule):
    """A window B >= 0 such that every fixed vector of T has z-support in
    [-B, B], or None when T has no nonzero fixed vector.  This is the
    line-subbundle probe's proof (`ideals.line_subbundle_probe`) at
    (c, k) = (1, 0), where c is known: the exponents come from the rational
    root theorem in q (`_edge_exponents`), and nothing is factored.

    The scalar equation.  Let D = dual(T) = T^-T, u a cyclic vector of D
    (`ideals.cyclic_search`), u_i = D(z) u_(i-1)(qz) its orbit and
    sum b_i(z) u_i = 0 its Cramer relation (`modules._cramer_relation`,
    certified, with b_0 and b_n nonzero).  For a fixed vector f,
    <D u(qz), T f(qz)> = <u, f>(qz) because D^T T = 1, and T f(qz) = f, so
    <u_i, f> = y(q^i z) for y = <u, f>, and y solves the scalar
    q-difference equation sum b_i(z) y(q^i z) = 0.

    The ends.  If y != 0 has top degree N and leading coefficient c, the
    coefficient of z^(t + N) in that sum is c chi_inf(q^N), where t is the
    largest top degree of the b_i and chi_inf(x) = sum lc(b_i) x^i over
    the i with top(b_i) = t; so chi_inf(q^N) = 0.  The bottom degree M of y
    satisfies chi_0(q^M) = 0 for chi_0 built the same way from the
    trailing coefficients at the smallest bottom degree (`modules._edges`
    at k = 0).  `_edge_exponents` finds every such N and M.  If one end
    has none, or the largest N is below the smallest M, then y = 0 for
    every fixed f.  The matrix U with
    rows u_0, ..., u_(n-1) is invertible over K(z), since det U = +-b_n is
    nonzero, and U f = (y(q^i z))_i, so then f = 0 and T has no nonzero
    fixed vector.

    The window.  Otherwise f = adj(U) Y / det U with Y_i = y(q^i z), and
    each Y_i has the support of y.  So a nonzero f has top(f) <= hi =
    max top(adj U) + max N - top(b_n) and bot(f) >= lo = min bot(adj U) +
    min M - bot(b_n) (`modules._transfer` at k = 0).  If lo > hi no
    support fits, and there is again no nonzero fixed vector; else
    B = max(hi, -lo), which is >= 0 since
    lo <= hi.  Every step is exact.  The bound is the one behind rational
    solutions of linear q-difference equations (Abramov, Rational solutions
    of linear difference and q-difference equations with polynomial
    coefficients, 1995; van der Put & Singer, Galois Theory of Difference
    Equations, LNM 1666)."""
    _, orbit, b = _cramer_relation(dual(T))
    edge_inf, edge_zero = _edges(b, 0)
    tops, bots = _edge_exponents(edge_inf), _edge_exponents(edge_zero)
    if not tops or not bots or max(tops) < min(bots):
        return None
    lo, hi = _transfer(_adjugate_spans(orbit), b, 0)
    lo, hi = lo + min(bots), hi + max(tops)
    # a nonzero fixed vector f has lo <= bot(f) <= top(f) <= hi
    return max(hi, -lo) if lo <= hi else None


def stabilized_h0(T: MatrixModule):
    """(h0, certified, window_used) by growing the support window through
    8, 12, 16, 20, ...  Stops certified at the first window whose dimension
    reaches n = T.n, which it can never exceed: fixed vectors independent
    over K are independent over K(z) (the coefficients of a shortest
    relation are fixed by z |-> qz, so constant), so h0 <= n.  Stops
    uncertified when the dimension has stayed the same over three windows
    in a row.

    The solves come from a proved support window B (`_support_window`):
    every fixed vector has z-support in [-B, B], or there is none.  With
    none, every window's dimension is 0 and nothing is solved.  Otherwise
    one solve at min(B, 16) gives the dimensions of the windows up to 16
    (`_dim_within`), and of every window at or past B (all of the fixed
    space).  This is exact: `window_eigenspace` writes its equations over
    the full exponent range, so the fixed vectors supported in [-w, w] are
    exactly the vectors of a wider window's kernel that vanish outside
    [-w, w]; for a kernel basis of k vectors that subspace has dimension k
    less the rank of their coefficients outside [-w, w].  Past 16 each
    window w is solved at min(w, B), as each may be the last, and a window
    at or past B is never solved again.  So no solve is wider, and none
    more frequent, than solving window 16 and then each later window."""
    bound = _support_window(T)
    # with no fixed vector the empty basis gives every window's dimension, 0
    solved, basis = 0, []
    if bound is not None:
        solved = min(bound, WINDOW_START + 2 * WINDOW_STEP)
        basis = fixed_space(T, solved)
    window = WINDOW_START
    dims = []
    while True:
        if bound is not None and min(window, bound) > solved:
            solved = min(window, bound)
            basis = fixed_space(T, solved)
        d = _dim_within(basis, solved, window) if window < solved else len(basis)
        dims.append(d)
        if d >= T.n:
            return d, True, window
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]:
            return d, False, window
        window += WINDOW_STEP


def _closed_h0(M):
    """h0 by a closed form, or None when the window protocol must decide.

    T(z) = z^m C, C an invertible constant n x n matrix: a line bundle
    (c, m) is the case n = 1, C = (c); a torsion module the case m = 0.
    m != 0: a nonzero fixed vector is impossible, since C preserves the top
    z-layer of any candidate, so the equation forces top degree N + m = N.
    m = 0: the fixed space has one line per Jordan block of C whose
    eigenvalue is a power of q.  A z-good generator makes Good(p) free over
    S (z-division yields an S-basis), and free modules have no sigma-fixed
    vectors.
    """
    if isinstance(M, LineBundle):
        m, blocks = M.m, [(M.c, 1)]
    elif isinstance(M, Torsion):
        m, blocks = 0, M.blocks
    elif isinstance(M, Good):
        return 0 if degrees(M.p).z_good else None
    elif (scaled := _monomial_scaled(M.mat)) is None:
        return None
    else:
        m, rows = scaled
        try:
            blocks = jordan_structure(rows) if m == 0 else ()
        except (NonSplitSpectrum, SearchExhausted):
            return None  # no exact Jordan data
    if m != 0:
        return 0
    return sum(1 for lam, _ in blocks if q_power_class(lam) is not None)


def cohomology(M) -> CohomologyReport:
    """h0 from an exact closed form for line bundles, torsion modules,
    monomial-scaled matrices and z-good generators, else from the window
    protocol; rank_S read off the slopes, and h1 = h0 + rank_S.

    The window protocol has certified the Cramer relation of dual(T)
    (`_support_window`), so that route reads rank_S off the same relation:
    the slopes of the dual are those of M negated at both ends, and the
    rank is unchanged.  With deg det T = m, the lengths times the slopes
    sum to m at each end, so the positive part at infinity is m plus the
    negative part there, and the negative part at 0 is the positive part
    there less m: rank_S(M*) = neg_inf + pos_0 = pos_inf + neg_0 = rank_S(M).
    """
    if not isinstance(M, (LineBundle, Torsion, Good, MatrixModule)):
        raise PreconditionViolation(f"not a module presentation: {M!r}")
    h0, certified, window = _closed_h0(M), True, 0
    if h0 is None:
        T = to_matrix(M)
        h0, certified, window = stabilized_h0(T)
        rkS = rank_S(dual(T))
    else:
        rkS = rank_S(M)
    return CohomologyReport(h0, h0 + rkS, -rkS, certified, window)


def dim_hom(M, N) -> CohomologyReport:
    """Cohomology report of the internal hom; .h0 is dim Hom(M, N)."""
    return cohomology(hom(M, N))


def euler_form(M, N):
    """chi(M, N) = chi of the internal hom = -rank_S(hom(M, N)), read off
    the slopes of M and N: the slopes of M* (x) N at each end are the
    differences b - a of a slope a of M and b of N, with length the product
    of theirs."""
    (inf_m, zero_m), (inf_n, zero_n) = slopes(M), slopes(N)
    return -_whole(
        sum(k * l * max(b - a, 0) for a, k in inf_m for b, l in inf_n)
        + sum(k * l * max(a - b, 0) for a, k in zero_m for b, l in zero_n)
    )
