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
reported as uncertified.  One solve at window 16 decides the first three
windows: the fixed vectors supported in a smaller window are the ones of
that kernel that vanish outside it (`stabilized_h0`).

Line bundles, torsion modules and matrices T(z) = z^m C with C constant share
one closed form for h0 (`_closed_h0`), which also covers z-good generators;
every route reads rank_S off the slopes.
"""

from __future__ import annotations

from .aq import degrees
from .errors import NonSplitSpectrum, PreconditionViolation, SearchExhausted
from .linalg import rank
from .modules import (
    Good,
    LineBundle,
    MatrixModule,
    Torsion,
    _monomial_scaled,
    _whole,
    hom,
    jordan_structure,
    rank_S,
    slopes,
    to_matrix,
    window_eigenspace,
)
from .scalars import q_power_class

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


def stabilized_h0(T: MatrixModule):
    """(h0, certified, window_used) by growing the support window through
    8, 12, 16, 20, ...  Stops certified at the first window whose dimension
    reaches n = T.n, which it can never exceed: fixed vectors independent
    over K are independent over K(z) (the coefficients of a shortest
    relation are fixed by z |-> qz, so constant), so h0 <= n.  Stops
    uncertified when the dimension has stayed the same over three windows
    in a row.

    The first window that can end the protocol uncertified is 16, so that
    one is solved once and the dimensions at 8, 12 and 16 are read off its
    kernel (`_dim_within`).  This is exact: `window_eigenspace` writes its
    equations over the full exponent range, so the fixed vectors supported
    in [-w, w] are exactly the vectors of the window-16 kernel that vanish
    outside [-w, w].  For a kernel basis of k vectors that subspace has
    dimension k less the rank of their coefficients outside [-w, w].  Past
    16 the windows are solved one at a time, as each may be the last."""
    last = WINDOW_START + 2 * WINDOW_STEP
    basis = fixed_space(T, last)
    window = WINDOW_START
    dims = []
    while True:
        d = _dim_within(basis, last, window) if window <= last else len(fixed_space(T, window))
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
    protocol; rank_S read off the slopes, and h1 = h0 + rank_S."""
    if not isinstance(M, (LineBundle, Torsion, Good, MatrixModule)):
        raise PreconditionViolation(f"not a module presentation: {M!r}")
    h0, certified, window = _closed_h0(M), True, 0
    if h0 is None:
        h0, certified, window = stabilized_h0(to_matrix(M))
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
