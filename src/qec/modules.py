"""Finitely generated modules over the quantum torus, all free over K[z,z^-1].

A module is presented one of four ways:

  LineBundle(c, m)   rank-1 free module with s(e) = c z^m e
  Torsion(blocks)    constant Jordan action: s(z^n x) = q^n z^n J x
  Good(p)            cyclic quotient by a sigma-good element p
  MatrixModule(T)    free module A^n with semilinear s(v) = T(z) v(qz)

Every presentation converts to a MatrixModule (an invertible matrix over
K[z,z^-1], i.e. unit determinant, with the semilinear rule above).  Duals use
the inverse transpose, tensor products the Kronecker product; structured
inputs keep structured outputs where a closed form exists so that S-ranks
stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from . import aq
from .aq import AqElement, degrees, good_normal_coeffs
from .errors import CertificateFailure, ParseError, PreconditionViolation, ZeroInput
from .laurent import (
    ONE,
    ZERO,
    LaurentMatrix,
    LaurentPoly,
    _det_rows,
    _minors,
    _unit_inverse,
    det,
    qshift,
)
from .linalg import jordan_structure_constant, nullspace, rref, shift_rows
from .scalars import get_q, q_orbit, q_power_class, scalar_from_str, scalar_to_str


class Unknown:
    """A value the artifact could not certify; may carry an upper bound."""

    __slots__ = ("upper_bound",)

    def __init__(self, upper_bound=None):
        self.upper_bound = upper_bound

    def __eq__(self, other):
        return isinstance(other, Unknown) and self.upper_bound == other.upper_bound

    def __repr__(self):
        if self.upper_bound is None:
            return "Unknown()"
        return f"Unknown(upper_bound={self.upper_bound})"


class MatrixModule:
    """Free module A^n with s(v) = T(z) v(qz), T = mat an invertible matrix
    over K[z,z^-1] (unit determinant): a q-difference module.  Its inverse
    and its dual are computed once, when first asked for, and its Cramer
    relation once per q."""

    __slots__ = ("mat", "det", "_inv", "_dual", "_relation")

    def __init__(self, mat, _det=None):
        if not isinstance(mat, LaurentMatrix):
            mat = LaurentMatrix(mat)
        self.mat = mat
        if _det is None:
            _det = det(mat)
        if _det.is_zero() or not _det.is_unit():
            raise PreconditionViolation(
                f"matrix determinant {_det} is not a unit of K[z,z^-1]"
            )
        self.det = _det
        self._inv = self._dual = self._relation = None

    @property
    def n(self):
        return self.mat.n

    def inverse(self) -> LaurentMatrix:
        """T^-1 = adj(T) / det T, from the unit determinant the module holds."""
        if self._inv is None:
            self._inv = _unit_inverse(self.mat, self.det)
        return self._inv

    def __eq__(self, other):
        return isinstance(other, MatrixModule) and self.mat == other.mat

    def __repr__(self):
        return f"MatrixModule({self.mat!r})"


def _monomial_scaled(mat: LaurentMatrix):
    """(m, rows) when every nonzero entry of mat is c z^m with one shared
    exponent m, so that mat = z^m C for a constant matrix C (the rows of C);
    m = 0 when mat is zero; else None."""
    entries = [e for row in mat.rows for e in row if not e.is_zero()]
    m = entries[0].bot if entries else 0
    if any(e.bot != m or e.top != m for e in entries):
        return None
    return m, [[e.coeff(m) for e in row] for row in mat.rows]


# -- module element plumbing -------------------------------------------------


def _orbit(T: MatrixModule, vec, step: int):
    """v, s^step(v), s^(2 step)(v), ... for step 1 or -1; the matrix of one
    step, T or T^-1(z/q), is computed once."""
    mat = T.mat if step == 1 else T.inverse().qshift(-1)
    vec = list(vec)
    while True:
        yield vec
        vec = mat.apply([qshift(f, step) for f in vec])


def sigma_apply(T: MatrixModule, vec, k: int = 1):
    """Apply s^k to a coordinate vector over A (list of LaurentPoly)."""
    return next(islice(_orbit(T, vec, 1 if k >= 0 else -1), abs(k), None))


def _window_rows(T: MatrixModule, window: int):
    """(unit, rows) for the rows of v |-> T(z) v(qz) on the window unknowns,
    keyed by (component, exponent), each a sparse row times the integer
    unit (`linalg.shift_rows`).  The unknowns are exponent-major: unknown
    (j + window) n + r is the coefficient of z^j in component r, |j| <=
    window, and maps to s(z^j e_r) = q^j z^j T[:, r].  A row at exponent e
    then touches only the unknowns with e - j in the z-support of T, about
    n (deg_z T + 1) neighbouring columns."""
    n, width = T.n, 2 * window + 1
    unit, rows = shift_rows(list(zip(*T.mat.rows)), range(-window, window + 1), get_q())
    if n == 1:  # one component: the two orders are the same
        return unit, rows
    # shift_rows lays out the columns component-major, r width + j + window
    at = [j * n + r for r in range(n) for j in range(width)]
    return unit, {key: {at[t]: x for t, x in row.items()} for key, row in rows.items()}


def _window_keys(n: int, window: int, k: int):
    """The row where c z^k v(z) puts each window unknown, in the unknowns'
    order: (r, j + k) for the coefficient of z^j in component r."""
    return [(r, j + k) for j in range(-window, window + 1) for r in range(n)]


def _window_vector(x, n: int, window: int):
    """The Laurent vector whose window coordinates, component-major (all of
    component 0 first), are x."""
    width = 2 * window + 1
    return [LaurentPoly(-window, x[r * width : (r + 1) * width]) for r in range(n)]


def _component_major(basis, n: int):
    """The canonical kernel basis (`linalg.nullspace`) of the span of the
    exponent-major window vectors `basis`, taken in the component-major
    order, each vector rewritten in that order.

    A canonical basis has 1 at each vector's own free column, 0 at the
    other vectors' free columns, and each free column is its vector's last
    nonzero entry.  With the columns reversed that is the reduced row
    echelon form of the span, which is unique, so one `rref` of the
    reversed vectors gives it, last free column first.  With one component
    the two orders are the same, and so are the two bases."""
    if n == 1:
        return basis
    rows, _ = rref([[a for r in range(n) for a in x[r::n]][::-1] for x in basis])
    return [row[::-1] for row in reversed(rows)]


def window_eigenspace(T: MatrixModule, window: int, k: int, c):
    """Basis of {v : T(z) v(qz) = c z^k v(z), supp_z(v) in [-window, window]},
    each vector a list of Laurent polynomials.

    The one window solver: H^0 is its (k, c) = (0, 1) case and a line
    subbundle of type (c, k) is a nonzero solution.  The equations run over
    the full exponent range touched by T and the window, so every returned
    vector is a genuine solution, not a truncation artifact; the basis is the
    canonical kernel basis of the component-major unknowns (all of component
    0 first), which depends only on the solution space.

    The system is solved banded: the unknowns are exponent-major
    (`_window_rows`) and the rows sorted by (exponent, component), so each
    row meets only its neighbours' columns and the fill of `nullspace`
    (mod p, or on its Bareiss fallback, which follows the row order) stays
    inside a band of about n (deg_z T + 1) columns, not one as wide as the
    window.  Reordering the unknowns permutes the kernel's coordinates and
    nothing else, and `_component_major` turns the kernel back into the
    component-major canonical basis, so the answer does not depend on the
    order the solve used.
    """
    if window < 0:
        raise PreconditionViolation("window must be >= 0")
    unit, rows = _window_rows(T, window)
    keys = _window_keys(T.n, window, k)
    # the rows are unit times the map's, so c z^k v(z) enters as c unit, an
    # int when integral so that the rows stay integer rows
    cell = c * unit
    cell = cell.numerator if cell.denominator == 1 else cell
    for t, key in enumerate(keys):
        row = rows.setdefault(key, {})
        row[t] = row.get(t, 0) - cell
    # -c unit may open rows T leaves empty; the Bareiss fallback's fill
    # follows row order
    system = [rows[key] for key in sorted(rows, key=lambda key: (key[1], key[0]))]
    kernel = nullspace(system, len(keys))
    basis = [_window_vector(x, T.n, window) for x in _component_major(kernel, T.n)]
    # exact certificate on the full equation
    for v in basis:
        if sigma_apply(T, v, 1) != [f.shift(k) * c for f in v]:
            raise CertificateFailure(f"window solution {v} fails T(z) v(qz) = c z^k v")
    return basis


def aq_act(x: AqElement, T: MatrixModule, vec):
    """Act by an algebra element on a coordinate vector: sum x_i(z) s^i(v),
    walking the orbit of v once upward and once downward."""
    out = [ZERO] * T.n
    for step in (1, -1):
        # s^i(v) for i >= 0 on the way up, for i < 0 on the way down
        wanted = {i * step: f for i, f in x.terms() if (i >= 0) == (step == 1)}
        reach = max(wanted, default=-1) + 1
        for j, moved in zip(range(reach), _orbit(T, vec, step)):
            f = wanted.get(j)
            if f is not None:
                for r in range(T.n):
                    out[r] = out[r] + f * moved[r]
    return out


# -- presentations -------------------------------------------------------------


class LineBundle:
    __slots__ = ("c", "m")

    def __init__(self, c, m):
        c = Fraction(c)
        if c == 0:
            raise ZeroInput("line bundle scalar must be nonzero")
        self.c = c
        self.m = int(m)

    def __eq__(self, other):
        return isinstance(other, LineBundle) and (self.c, self.m) == (other.c, other.m)

    def __hash__(self):
        return hash((self.c, self.m))

    def __repr__(self):
        return f"LineBundle({scalar_to_str(self.c)}, {self.m})"


class Torsion:
    """theta of a finite-dimensional sigma-space, by Jordan data.

    blocks: tuple of (eigenvalue, size), eigenvalues nonzero, stored sorted by
    (eigenvalue, size descending).
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blist = []
        for lam, size in blocks:
            lam = Fraction(lam)
            size = int(size)
            if lam == 0:
                raise ZeroInput("torsion eigenvalues must be nonzero")
            if size < 1:
                raise PreconditionViolation("block sizes are positive")
            blist.append((lam, size))
        if not blist:
            raise PreconditionViolation("torsion module needs at least one block")
        self.blocks = tuple(sorted(blist, key=lambda b: (b[0], -b[1])))

    @property
    def dim(self):
        return sum(size for _, size in self.blocks)

    def __eq__(self, other):
        return isinstance(other, Torsion) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"Torsion({list(self.blocks)})"


class Good:
    """Cyclic module A_q / A_q p for sigma-good p of positive width."""

    __slots__ = ("p",)

    def __init__(self, p: AqElement):
        d = degrees(p)
        if d is None:
            raise ZeroInput("good presentation needs a nonzero element")
        if not d.sigma_good:
            raise PreconditionViolation("element is not sigma-good")
        if d.deg_sigma < 1:
            raise PreconditionViolation("unit generator gives the zero module")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, Good) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"Good({self.p})"


def extension_fixture() -> MatrixModule:
    """The 2x2 upper-triangular [[z,1],[0,1]]: a non-split extension of the
    trivial module by the degree-one line bundle, carrying a z-eigenvector."""
    z = LaurentPoly.monomial(1, 1)
    return MatrixModule(LaurentMatrix(((z, ONE), (ZERO, ONE))))


def _jordan_matrix(blocks) -> LaurentMatrix:
    n = sum(size for _, size in blocks)
    rows = [[ZERO] * n for _ in range(n)]
    at = 0
    for lam, size in blocks:
        for i in range(size):
            rows[at + i][at + i] = LaurentPoly.const(lam)
            if i + 1 < size:
                rows[at + i][at + i + 1] = ONE
        at += size
    return LaurentMatrix(tuple(tuple(row) for row in rows))


def to_matrix(M) -> MatrixModule:
    """The matrix presentation of any module (companion form for Good)."""
    if isinstance(M, MatrixModule):
        return M
    if isinstance(M, LineBundle):
        return MatrixModule(
            LaurentMatrix(((LaurentPoly.monomial(M.c, M.m),),)),
            _det=LaurentPoly.monomial(M.c, M.m),
        )
    if isinstance(M, Torsion):
        return MatrixModule(_jordan_matrix(M.blocks))
    if isinstance(M, Good):
        _, coeffs = good_normal_coeffs(M.p)
        t = len(coeffs)
        rows = [[ZERO] * t for _ in range(t)]
        for j in range(t - 1):
            rows[j + 1][j] = ONE
        for i in range(t):
            rows[i][t - 1] = -coeffs[i]
        return MatrixModule(LaurentMatrix(tuple(tuple(r) for r in rows)))
    raise TypeError(f"not a module presentation: {M!r}")


def rank_A(M) -> int:
    """Rank over K[z,z^-1] (minimal s-width of the defining ideal)."""
    if isinstance(M, LineBundle):
        return 1
    if isinstance(M, Torsion):
        return M.dim
    if isinstance(M, Good):
        return degrees(M.p).deg_sigma
    if isinstance(M, MatrixModule):
        return M.n
    raise TypeError(f"not a module presentation: {M!r}")


def _lower_hull_slopes(points):
    """(slope, horizontal length) of each edge of the lower convex hull of
    integer points with distinct abscissae, by increasing slope."""
    hull = []
    for x2, y2 in sorted(points):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2:]
            if (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) > 0:
                break
            hull.pop()
        hull.append((x2, y2))
    return [
        (Fraction(y1 - y0, x1 - x0), x1 - x0)
        for (x0, y0), (x1, y1) in zip(hull, hull[1:])
    ]


def _newton_polygons(pairs):
    """(slopes at infinity, slopes at 0) of a relation sum a_i(z) s^i given
    by its (i, a_i) pairs: the lower hull of (i, -deg a_i), and the lower
    hull of (i, ord a_i) with its slopes negated.  Each side is a list of
    (slope, horizontal length) by increasing slope; a zero a_i gives no
    point."""
    points = [(i, a) for i, a in pairs if not a.is_zero()]
    at_inf = _lower_hull_slopes([(i, -a.top) for i, a in points])
    at_zero = _lower_hull_slopes([(i, a.bot) for i, a in points])
    return at_inf, sorted((-lam, length) for lam, length in at_zero)


def _cramer_relation(T: MatrixModule):
    """(v, orbit, coeffs): the cyclic vector v that `ideals.cyclic_search`
    constructs, its orbit v, s(v), ..., s^n(v), and the relation
    sum a_i(z) s^i(v) = 0 that Cramer's rule gives on it, with
    a_i = (-1)^i det(orbit without s^i(v)), certified exactly.  Computed
    once per module and q: s(v) = T(z) v(qz) depends on q, so the relation
    is kept with the q it was computed at."""
    q = get_q()
    if T._relation is not None and T._relation[0] == q:
        return T._relation[1]
    from .ideals import cyclic_search

    v = cyclic_search(T)
    n = T.n
    orbit = list(islice(_orbit(T, v, 1), n + 1))
    rows = list(zip(*orbit))
    coeffs = []
    for i in range(n + 1):
        minor = _det_rows([row[:i] + row[i + 1:] for row in rows], n)
        coeffs.append(-minor if i % 2 else minor)
    # a_n = +-det(v, ..., s^{n-1} v) and a_0 = +-det(s v, ..., s^n v) are
    # nonzero for a cyclic v, so both polygons span length n; Laplace along
    # a repeated row gives sum a_i s^i(v) = 0 in every component
    if coeffs[0].is_zero() or coeffs[n].is_zero():
        raise CertificateFailure(f"end minors of the orbit of {v} vanish")
    for row in rows:
        if not sum((a * f for a, f in zip(coeffs, row)), ZERO).is_zero():
            raise CertificateFailure(f"Cramer relation {coeffs} does not kill {v}")
    T._relation = q, (v, orbit, coeffs)
    return T._relation[1]


def _cramer_slopes(T: MatrixModule):
    """Slopes of the Cramer relation of T (`_cramer_relation`)."""
    return _newton_polygons(enumerate(_cramer_relation(T)[2]))


def _edges(coeffs, k: int):
    """The slope-k edge polynomials (at infinity, at 0) of a relation
    sum b_i(z) y_i = 0 read on y_i = c^-i q^(-k i(i-1)/2) z^(-ik) y(q^i z),
    each as its (i, coefficient) pairs by increasing i.

    If y has top degree N, the top coefficient of the sum sits at z^(t + N)
    for t the largest top(b_i) - i k, and is lc(y) chi_inf(q^N / c) for
    chi_inf(x) = sum lc(b_i) q^(-k i(i-1)/2) x^i over the i that reach t;
    so chi_inf(q^N / c) = 0.  chi_0, from the trailing coefficients at the
    smallest bot(b_i) - i k, vanishes at q^M / c for the bottom degree M of
    y.  At (c, k) = (1, 0) the pairs are those of the plain edge polynomials
    of the relation.  An edge of one point has no nonzero root: k is then
    no slope of the relation at that end."""
    q = get_q()
    terms = [
        (i, f, q ** (-k * i * (i - 1) // 2)) for i, f in enumerate(coeffs) if not f.is_zero()
    ]
    top = max(f.top - i * k for i, f, _ in terms)
    bot = min(f.bot - i * k for i, f, _ in terms)
    at_inf = [(i, f.coeff(f.top) * w) for i, f, w in terms if f.top - i * k == top]
    at_zero = [(i, f.coeff(f.bot) * w) for i, f, w in terms if f.bot - i * k == bot]
    return at_inf, at_zero


def _adjugate_spans(orbit):
    """For the matrix U with rows u_0, ..., u_(n-1), the first n vectors of
    a Cramer orbit, the (top, bot) of each column of adj(U): column i is
    the one that carries <u_i, v> to v = adj(U) U v / det U.  det U is
    +-b_n != 0, so adj(U) is invertible and no column is zero."""
    n = len(orbit) - 1
    adj = _minors(orbit[:n], n)  # signs do not move supports
    spans = []
    for i in range(n):
        col = [row[i] for row in adj if not row[i].is_zero()]
        spans.append((max(g.top for g in col), min(g.bot for g in col)))
    return spans


def _transfer(spans, coeffs, k: int):
    """(lo, hi) such that a solution v of T(z) v(qz) = c z^k v(z) is
    supported in [lo + M, hi + N], where N and M are the top and bottom
    degrees of y = <u, v> and u_0, u_1, ... the dual orbit of the Cramer
    relation sum b_i(z) u_i = 0 (`coeffs`) whose adjugate column spans are
    `spans` (`_adjugate_spans`).

    U v = (y_i)_i with y_i = <u_i, v> = c^-i q^(-k i(i-1)/2) z^(-ik)
    y(q^i z), of top degree N - i k and bottom degree M - i k, so
    v = adj(U) (y_i)_i / det U has top degree at most
    max_i (top of column i - i k) + N - top(b_n), and bottom degree at least
    the same expression in bottom degrees."""
    n = len(spans)
    hi = max(t - i * k for i, (t, _) in enumerate(spans)) - coeffs[n].top
    lo = min(b - i * k for i, (_, b) in enumerate(spans)) - coeffs[n].bot
    return lo, hi


def slopes(M):
    """Newton polygons (at infinity, at 0) of a module: each a list of
    (slope, horizontal length) by increasing slope, the lengths summing to
    rank_A.

    Line bundles L(c, m) have the single slope m, torsion modules the single
    slope 0.  A matrix z^m C with C constant is L(1, m) tensored with a
    torsion module, so it is isoclinic of slope m at both ends, with no
    search.  A good module A/Ap has the polygons of p's own coefficients:
    p kills the generator, and a left factor f(z) or s^k moves every point
    by one vector, so the slopes do not change.  A matrix module reads them
    off the relation sum a_i(z) s^i(v) = 0 of a cyclic vector v, with
    a_i = (-1)^i det(v, s(v), ..., s^n(v) without column i) (Cramer), which
    is certified exactly.

    Why the slopes give the S-rank exactly: rank_S = h1 - h0 is minus the
    index of s - 1 on K[z,z^-1]^n, the index identity `cohomology` uses.
    The index of a q-difference operator on Laurent polynomials is a
    contribution at infinity plus one at 0, each read off that end's Newton
    polygon (Adams, On the linear ordinary q-difference equation, Ann. Math.
    1929; Ramis, About the growth of entire function solutions of linear
    algebraic q-difference equations, Ann. Fac. Sci. Toulouse 1992; Sauloy,
    La filtration canonique par les pentes d'un module aux q-differences,
    Ann. Inst. Fourier 2004; van der Put & Singer, Galois Theory of
    Difference Equations, LNM 1666).  The slopes are invariants of
    M (x) K((1/z)) and of M (x) K((z)), so neither the choice of cyclic
    vector nor a content factor shared by the a_i changes them.  A rational
    q other than 1 and -1 has |q| != 1, so the analytic theory applies.
    """
    if isinstance(M, LineBundle):
        return [(Fraction(M.m), 1)], [(Fraction(M.m), 1)]
    if isinstance(M, Torsion):
        return [(Fraction(0), M.dim)], [(Fraction(0), M.dim)]
    if isinstance(M, Good):
        return _newton_polygons(M.p.terms())
    if isinstance(M, MatrixModule):
        scaled = _monomial_scaled(M.mat)
        if scaled is not None:
            return [(Fraction(scaled[0]), M.n)], [(Fraction(scaled[0]), M.n)]
        return _cramer_slopes(M)
    raise TypeError(f"not a module presentation: {M!r}")


def _whole(total) -> int:
    """A rank read off slopes: lengths times slopes sum to an integer."""
    total = Fraction(total)
    if total.denominator != 1:
        raise CertificateFailure(f"slope sum {total} is not an integer")
    return total.numerator


def _rise(lam, length) -> int:
    """length * lam, the rise of one polygon edge: an integer, since the
    edge joins two lattice points."""
    rise, rem = divmod(lam.numerator * length, lam.denominator)
    if rem:
        raise CertificateFailure(f"edge of slope {lam} and length {length} has no integer rise")
    return rise


def rank_S(M, bounds=None):
    """Rank over K[s,s^-1], read off the slopes (see `slopes`):
    the sum of length * max(slope, 0) at infinity and of
    length * max(-slope, 0) at 0.  That is |m| for L(c, m), 0 for torsion
    and deg_z p for a good module.  Each edge's rise is summed as an int
    (`_rise`), so no `Fraction` arithmetic runs.  `bounds` is accepted and
    not read: no search runs on this path."""
    at_inf, at_zero = slopes(M)
    up = sum(_rise(lam, length) for lam, length in at_inf if lam.numerator > 0)
    down = sum(_rise(lam, length) for lam, length in at_zero if lam.numerator < 0)
    return up - down


# -- tensor, dual, hom ---------------------------------------------------------


def _line_twist(p: AqElement, c, m) -> AqElement:
    """Image of p under the automorphism z |-> z, s |-> c z^m s (it preserves
    the defining relation).  Twisting the s-action of A_q/A_q p by a line
    bundle pulls the annihilator back along the inverse automorphism."""
    twist = AqElement.monomial(c, m, 1)
    out = AqElement.zero()
    for i, f in p.terms():
        out = out + AqElement.from_laurent(f) * twist**i
    return out


def _kron_module(M, N) -> MatrixModule:
    """M (x) N as the Kronecker matrix module; det(A (x) B) = det(A)^n det(B)^m
    for A m x m and B n x n."""
    tm, tn = to_matrix(M), to_matrix(N)
    d = tm.det**tn.n * tn.det**tm.n
    return MatrixModule(tm.mat.kron(tn.mat), _det=d)


def tensor(M, N):
    """M (x) N with s acting diagonally; structured inputs stay structured
    when a closed form exists, otherwise the Kronecker matrix is returned.

    Torsion (x) torsion follows the Clebsch-Gordan rule (characteristic 0):
    J_a(lam) (x) J_b(mu) has blocks of sizes a+b-1-2k for k < min(a, b),
    each with eigenvalue lam*mu."""
    if isinstance(M, LineBundle) and isinstance(N, LineBundle):
        return LineBundle(M.c * N.c, M.m + N.m)
    if isinstance(M, Torsion) and isinstance(N, Torsion):
        return Torsion(
            (lam * mu, a + b - 1 - 2 * k)
            for lam, a in M.blocks
            for mu, b in N.blocks
            for k in range(min(a, b))
        )
    if isinstance(M, Good) and isinstance(N, LineBundle):
        return Good(_line_twist(M.p, 1 / N.c, -N.m))
    if isinstance(M, LineBundle) and isinstance(N, Good):
        return Good(_line_twist(N.p, 1 / M.c, -M.m))
    return _kron_module(M, N)


def dual(M):
    """Internal dual: inverse-transpose matrix, computed once per matrix
    module; closed forms for structured presentations (line scalars invert,
    torsion eigenvalues invert, good generators pass through the duality
    formula)."""
    if isinstance(M, LineBundle):
        return LineBundle(1 / M.c, -M.m)
    if isinstance(M, Torsion):
        return Torsion(tuple((1 / lam, size) for lam, size in M.blocks))
    if isinstance(M, Good):
        from .duality import good_dual

        _, dual_mod = good_dual(M.p)
        return dual_mod
    T = to_matrix(M)
    if T._dual is None:
        T._dual = MatrixModule(T.inverse().transpose(), _det=T.det.inverse_unit())
    return T._dual


def hom(M, N):
    """Internal hom = dual(M) (x) N."""
    return tensor(dual(M), N)


# -- Picard group --------------------------------------------------------------


class PicClass:
    """Class of a line bundle in (K*/q^Z) x Z, stored by canonical orbit
    representative (absolute value in [1, Q) for Q = max(|q|, 1/|q|))."""

    __slots__ = ("c", "m")

    def __init__(self, c, m):
        c = Fraction(c)
        if c == 0:
            raise ZeroInput("pic scalar must be nonzero")
        self.c, _ = q_orbit(c)
        self.m = int(m)

    def __eq__(self, other):
        return isinstance(other, PicClass) and (self.c, self.m) == (other.c, other.m)

    def __hash__(self):
        return hash((self.c, self.m))

    def __repr__(self):
        return f"PicClass({scalar_to_str(self.c)}, {self.m})"


def pic_class(L) -> PicClass:
    if isinstance(L, PicClass):
        return L
    if isinstance(L, LineBundle):
        return PicClass(L.c, L.m)
    raise PreconditionViolation(f"no pic class for {L!r}")


def pic_mul(a, b) -> PicClass:
    a, b = pic_class(a), pic_class(b)
    return PicClass(a.c * b.c, a.m + b.m)


def pic_inv(a) -> PicClass:
    a = pic_class(a)
    return PicClass(1 / a.c, -a.m)


def pic_eq(a, b) -> bool:
    a, b = pic_class(a), pic_class(b)
    if a.m != b.m:
        return False
    # canonical representatives agree iff the ratio is a q-power
    same = a.c == b.c
    if same != (q_power_class(a.c / b.c) is not None):
        raise CertificateFailure(f"orbit representatives disagree with {a.c / b.c}")
    return same


def pic_trivial(a) -> bool:
    """Whether a line bundle (or class) is trivial in Pic."""
    return pic_eq(pic_class(a), PicClass(1, 0))


# -- Jordan data ---------------------------------------------------------------


def jordan_structure(T):
    """Jordan blocks of a constant invertible matrix (NonSplitSpectrum when
    the spectrum is not rational)."""
    if isinstance(T, Torsion):
        return list(T.blocks)
    mat = T.mat if isinstance(T, MatrixModule) else T
    if isinstance(mat, LaurentMatrix):
        if (scaled := _monomial_scaled(mat)) is None or scaled[0] != 0:
            raise PreconditionViolation("jordan data needs a constant matrix")
        rows = scaled[1]
    else:
        rows = [[Fraction(e) for e in row] for row in mat]
    return jordan_structure_constant(rows)


def torsion_tensor_rank_check(N, M, bounds=None):
    """(lhs, rhs) for the product rank law with M torsion: lhs is the
    S-rank of the Kronecker matrix module found by the bounded annihilator
    search (`ideals.cyclic_presentation`, Unknown when its bounds run out),
    rhs the closed form rank_S(N) * rank_A(M)."""
    from .ideals import cyclic_presentation

    if not isinstance(M, Torsion):
        raise PreconditionViolation("M must be torsion")
    found = cyclic_presentation(_kron_module(N, M), bounds)
    lhs = Unknown() if found is None else found.rank_S
    return lhs, rank_S(N) * rank_A(M)


# -- rigidity ------------------------------------------------------------------


def ev_pairing(fvec, mvec):
    """Evaluation pairing on coordinates: <f, m> = sum f_i m_i in A."""
    return sum((f * m for f, m in zip(fvec, mvec)), ZERO)


def rigidity_check(M) -> bool:
    """Exact rigidity of the dual pairing for a module presentation.

    The dual acts through S = (T^-1)^t, and everything rigidity asks of the
    pairing is the one matrix identity S^t T = I over K[z,z^-1]:

    * coev = sum e^i (x) e_i is s-fixed: (S (x) T) vec(I) = vec(S T^t)
      = vec((T S^t)^t) = vec(I), a left inverse of a square matrix over a
      commutative ring being a right inverse, and coev is constant, so its
      q-shift changes nothing;
    * ev is s-equivariant: <S f(qz), T m(qz)> = f(qz)^t S^t T m(qz)
      = <f, m>(qz), the ring being commutative;
    * the zig-zag (ev (x) id) o (id (x) coev) is the identity on coordinates
      for every T, since coev and ev(e^i, e_j) = delta_ij only involve the
      coordinate bases.

    So the identity is the whole check."""
    T = to_matrix(M)
    S = T.inverse().transpose()  # the dual's matrix
    return S.transpose() * T.mat == LaurentMatrix.identity(T.n)


# -- JSON descriptors ----------------------------------------------------------


def module_to_json(M) -> dict:
    if isinstance(M, LineBundle):
        return {"kind": "line", "c": scalar_to_str(M.c), "m": M.m}
    if isinstance(M, Torsion):
        return {
            "kind": "torsion",
            "blocks": [
                {"lambda": scalar_to_str(lam), "size": size}
                for lam, size in M.blocks
            ],
        }
    if isinstance(M, Good):
        return {"kind": "good", "p": aq.to_str(M.p)}
    if isinstance(M, MatrixModule):
        return {"kind": "matrix", "entries": M.mat.to_strs()}
    raise TypeError(f"not a module presentation: {M!r}")


def _field(desc, key, kind):
    """desc[key] when desc is a JSON object and the value has type `kind`
    (a bool is not an int); PreconditionViolation otherwise."""
    value = desc.get(key) if isinstance(desc, dict) else None
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise PreconditionViolation(
            f"descriptor field {key!r} must be of type {kind.__name__}"
        )
    return value


def _scalar_field(desc, key):
    text = _field(desc, key, str)
    try:
        return scalar_from_str(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad scalar {text!r} in field {key!r}: {e}", 0) from None


def module_from_json(desc: dict):
    """The module a JSON descriptor names, as `module_to_json` writes it.
    Fields are type-checked: scalars and expressions are strings, `m` and
    `size` are integers, and `entries` is a list of lists of strings."""
    kind = desc.get("kind")
    if kind == "line":
        return LineBundle(_scalar_field(desc, "c"), _field(desc, "m", int))
    if kind == "torsion":
        return Torsion(
            [
                (_scalar_field(b, "lambda"), _field(b, "size", int))
                for b in _field(desc, "blocks", list)
            ]
        )
    if kind == "good":
        return Good(aq.parse(_field(desc, "p", str)))
    if kind == "matrix":
        entries = _field(desc, "entries", list)
        if not all(
            isinstance(row, list) and all(isinstance(e, str) for e in row)
            for row in entries
        ):
            raise PreconditionViolation(
                "descriptor field 'entries' must be a list of lists of str"
            )
        return MatrixModule(LaurentMatrix.from_strs(entries))
    raise PreconditionViolation(f"unknown module kind: {kind!r}")
