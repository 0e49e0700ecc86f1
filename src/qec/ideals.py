"""Left ideals: membership, annihilators, cyclic vectors, line subbundles.

Everything here is a bounded exact search: linear systems over Q whose
solutions are algebra elements annihilating a module vector, plus degree
certificates obtained from fraction-free rank computations over K[z,z^-1].
Searches are deterministic (fixed scan orders), so results are reproducible;
when bounds run out the failure is explicit (SearchExhausted, or None
from `cyclic_presentation`), never a silent guess.  An annihilator row
(d, zd) is the space of linear relations among the columns C(i, j), the
coefficients of z^j s^i(v), i <= d, j <= zd, which one `shift_rows` call
writes for a whole request (`_columns`).  Each s-width is decided by one
exact integer echelon that grows with zd (`linalg._insert_int`): for the
minimal width, the first dependent zd is the z-width of the annihilator
w that decides the row by a theorem (`_annihilator_ideal`), and one
kernel there gives w; for each wider d, the end columns reduced modulo
the middle ones test every pair of end coefficients of every zd exactly
(`_first_sigma_good`), and only the first cell that holds is solved.  So
within the bounds no sigma-good annihilator is missed.  A cyclic vector
is constructed, not searched (`cyclic_search`); the module's own S-rank
is not searched either: `modules.rank_S` reads it off the slopes, and
`cyclic_presentation` is kept as the independent check of that theorem.
The line-subbundle probe takes no characteristic polynomial: its scalars
are the finitely many that the edge polynomials of the dual module's
certified Cramer relation admit, each solved by the shared window solver
at a window proved to hold all of its solutions (`line_subbundle_probe`).
"""

from __future__ import annotations

from itertools import islice

from .aq import AqElement, degrees, sigma_divide, z_divide
from .errors import CertificateFailure, PreconditionViolation, SearchExhausted
from .laurent import ONE, ZERO, LaurentPoly, echelon
from .linalg import _insert_int, _reduce_int, nullspace, rational_roots, shift_rows
from .modules import (
    Good,
    MatrixModule,
    _adjugate_spans,
    _cramer_relation,
    _edges,
    _orbit,
    _transfer,
    aq_act,
    dual,
    slopes,
    to_matrix,
    window_eigenspace,
)
from .scalars import get_q, q_power_class


class SearchBounds:
    """Degree bounds for ideal searches: s-width, z-width, solver window.
    Each is a nonnegative int; PreconditionViolation otherwise."""

    __slots__ = ("deg_sigma", "deg_z", "window")

    def __init__(self, deg_sigma=6, deg_z=8, window=12):
        given = {"deg_sigma": deg_sigma, "deg_z": deg_z, "window": window}
        for name, value in given.items():
            if value < 0:
                raise PreconditionViolation(f"bound {name} must be >= 0, got {value}")
        self.deg_sigma = deg_sigma
        self.deg_z = deg_z
        self.window = window

    def as_dict(self):
        return {
            "deg_sigma": self.deg_sigma,
            "deg_z": self.deg_z,
            "window": self.window,
        }

    def __repr__(self):
        return f"SearchBounds({self.deg_sigma}, {self.deg_z}, {self.window})"


DEFAULT_BOUNDS = SearchBounds()


class IdealPresentation:
    """A left ideal given by one generator or a (sigma-good, minimal-width)
    pair; kind is "principal" or "two_generator"."""

    __slots__ = ("kind", "generators")

    def __init__(self, kind, generators):
        if kind not in ("principal", "two_generator"):
            raise PreconditionViolation(f"bad ideal kind {kind!r}")
        self.kind = kind
        self.generators = tuple(generators)

    @staticmethod
    def principal(p):
        return IdealPresentation("principal", (p,))

    @staticmethod
    def two_generator(p, w):
        return IdealPresentation("two_generator", (p, w))

    def __eq__(self, other):
        return (
            isinstance(other, IdealPresentation)
            and self.kind == other.kind
            and self.generators == other.generators
        )

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"IdealPresentation({self.kind}: {gens})"


def membership_principal(r: AqElement, p: AqElement) -> bool:
    """Is r in the principal left ideal generated by sigma-good p?

    One unit-cofactor division decides: the remainder has smaller s-width
    than p, and the ideal contains no nonzero element of smaller width, so
    membership holds exactly when the remainder vanishes.
    """
    d = degrees(p)
    if d is None or not d.sigma_good:
        raise PreconditionViolation("membership test needs a sigma-good generator")
    if r.is_zero():
        return True
    if degrees(r).deg_sigma < d.deg_sigma:
        return False
    g, h, rem = sigma_divide(r, p)
    if not g.is_unit():
        raise CertificateFailure(f"division cofactor {g} is not a unit")
    return rem.is_zero()


def minimal_annihilator_width(T: MatrixModule, v, cap: int):
    """Smallest s-width of a nonzero annihilator of v, or None if > cap.

    A width-d annihilator exists exactly when v, s(v), ..., s^d(v) are
    dependent over the fraction field: with the orbit as columns, d is the
    first column without a pivot.  n + 1 vectors in K(z)^n are dependent,
    so the orbit stops at s^n(v).
    """
    orbit = list(islice(_orbit(T, v, 1), min(cap, T.n) + 1))
    pivots = echelon(list(zip(*orbit)))[0]
    return next((d for d in range(len(orbit)) if d not in pivots), None)


# -- annihilator solves --------------------------------------------------------


def _row_system(orbit, d: int, zd: int):
    """The rows of r(v) = 0 for r = sum r_ij z^j s^i, i <= d, j <= zd, over
    the unknowns r_ij, as sparse integer rows (`linalg.shift_rows`);
    `orbit` starts v, s(v), ..., s^d(v), and unknown i * (zd + 1) + j is
    the coefficient of z^j s^i."""
    return list(shift_rows(orbit[: d + 1], range(zd + 1), 1)[1].values())


def _columns(orbit, deg_z: int):
    """The columns of the row system up to the z-width bound, one sparse
    integer vector {row: int} per unknown: C(i, j), the coefficients of
    z^j s^i(v), is entry i * (deg_z + 1) + j, for every s^i(v) in `orbit`.
    One `shift_rows` call, transposed; its rows are the map's times one
    integer, which no linear relation among the columns sees.  C(i, j) does
    not depend on the row it is read in, so these columns serve every row
    (d, zd) with d < len(orbit) and zd <= deg_z."""
    _, rows = shift_rows(orbit, range(deg_z + 1), 1)
    cols = [{} for _ in range(len(orbit) * (deg_z + 1))]
    for r, row in enumerate(rows.values()):
        for t, x in row.items():
            cols[t][r] = x
    return cols


def _pack(vec, d, zd):
    n = zd + 1
    return AqElement({i: LaurentPoly(0, vec[i * n : i * n + n]) for i in range(d + 1)})


def _killing(x, orbit):
    """x, once x(v) = 0 is checked exactly, component by component, on the
    orbit v, s(v), ...; CertificateFailure otherwise."""
    for r in range(len(orbit[0])):
        if not sum((f * orbit[i][r] for i, f in x.terms()), ZERO).is_zero():
            raise CertificateFailure(f"{x} does not annihilate the vector")
    return x


def annihilator_space(T: MatrixModule, v, d: int, zd: int):
    """Basis of {r = sum r_i(z) s^i : supports in [0,d] x [0,zd], r(v) = 0}:
    the canonical kernel of the row system, each element re-verified."""
    orbit = list(islice(_orbit(T, v, 1), d + 1))
    kernel = nullspace(_row_system(orbit, d, zd), (d + 1) * (zd + 1))
    return [_killing(_pack(vec, d, zd), orbit) for vec in kernel]


def _minimal_z_width(cols, width: int, deg_z: int):
    """The least zd <= deg_z for which row (width, zd) is nonempty, or
    None: the first zd at which the columns C(i, j), i <= width, j <= zd,
    are dependent, found by inserting them into one echelon
    (`linalg._insert_int`) a z-degree at a time."""
    n = deg_z + 1
    piv = {}
    for zd in range(n):
        for i in range(width + 1):
            if _insert_int(piv, dict(cols[i * n + zd])) is None:
                return zd
    return None


def _first_sigma_good(orbit, cols, d: int, deg_z: int):
    """The first sigma-good element of the rows (d, zd), zd = 0..deg_z,
    whose coefficients at s^0 and s^d are nonzero, or None if there is
    none.  `orbit` starts v, s(v), ..., s^d(v) and `cols` are its columns
    up to deg_z (`_columns`); the proof is in `_annihilator_ideal`.

    One echelon basis of the middle span M (the columns C(i, j), 0 < i < d)
    grows by one z-degree at a time.  Each end column C(0, e) and C(d, e)
    is reduced against it once, when it enters, and after that only against
    the pivots each z-degree adds; its primitive residue is its coset mod M
    up to a nonzero factor.  Row (d, zd) is decided by the first (e0, ed)
    in lexicographic order whose residues are equal, and only that cell is
    solved: K is the kernel of its system restricted to the end e0, the
    middle and the end ed, in the row's own column order.  K holds an
    element nonzero at both ends.  For a and b the first vectors of K
    nonzero at the first and at the second end, each end of a + lam b
    vanishes for at most one lam, so one of lam = 0, 1, 2 works; it is
    scaled so that its s^d coefficient is z^ed.  CertificateFailure if K
    contradicts the residues, or if the result is not sigma-good or does
    not kill v.
    """
    n = deg_z + 1
    piv = {}
    ends = ([], [])  # the residues of C(0, e) and of C(d, e), e <= zd
    keys = ([], [])  # the same residues as sorted tuples, () for zero
    for zd in range(n):
        new = [_insert_int(piv, dict(cols[i * n + zd])) for i in range(1, d)]
        new = [c for c in new if c is not None]
        for res, side in zip(ends, keys):
            for e, r in enumerate(res):
                todo = [c for c in new if c in r]
                if todo:
                    side[e] = tuple(sorted(_reduce_int(piv, r, todo).items()))
        for res, side, i in zip(ends, keys, (0, d)):
            r = _reduce_int(piv, dict(cols[i * n + zd]))
            res.append(r)
            side.append(tuple(sorted(r.items())))
        first = {}
        for ed, key in enumerate(keys[1]):
            first.setdefault(key, ed)
        e0 = next((e for e, key in enumerate(keys[0]) if key in first), None)
        if e0 is not None:
            return _sigma_good_cell(orbit, cols, n, d, zd, e0, first[keys[0][e0]])
    return None


def _sigma_good_cell(orbit, cols, n, d, zd, e0, ed):
    """The sigma-good element of row (d, zd) with ends z^e0 s^0 and
    z^ed s^d that `_first_sigma_good` builds; C(i, j) is cols[i * n + j]."""
    keep = [e0, *(i * n + j for i in range(1, d) for j in range(zd + 1)), d * n + ed]
    rows = {}
    for t, k in enumerate(keep):
        for r, x in cols[k].items():
            rows.setdefault(r, {})[t] = x
    kernel = nullspace(list(rows.values()), len(keep))
    a = next((x for x in kernel if x[0]), None)
    b = next((x for x in kernel if x[-1]), None)
    if a is None or b is None:
        raise CertificateFailure(f"row ({d}, {zd}) contradicts its end test")
    lam = next(t for t in range(3) if a[0] + t * b[0] and a[-1] + t * b[-1])
    u = [x + lam * y for x, y in zip(a, b)]
    m = zd + 1  # the row's own unknowns: z^j s^i is i * m + j
    vec = [0] * ((d + 1) * m)
    for k, x in zip([e0, *range(m, d * m), d * m + ed], u):
        vec[k] = x / u[-1]
    p = _pack(vec, d, zd)
    if not degrees(p).sigma_good:
        raise CertificateFailure(f"{p} is not sigma-good")
    return _killing(p, orbit)


def _annihilator_ideal(T: MatrixModule, v, width: int, bounds):
    """Presentation of Ann(v) once its minimal s-width `width` is certified:
    (w) for the first element w of the minimal row (width, deg_z) if w is
    sigma-good (division by w leaves remainders narrower than the minimal
    width, which vanish), else (p, w) for the first sigma-good p of the
    wider rows up to deg_sigma.  SearchExhausted if width > deg_sigma, if
    the minimal row is empty, or if no wider row shows a p.

    Every row is read off one set of columns (`_columns`): C(i, j), the
    coefficients of z^j s^i(v), and row (d, zd) is the space of linear
    relations among the C(i, j) with i <= d and j <= zd.

    Why the minimal row is decided by w.  Over K(z) its annihilators are
    the multiples of one relation.  Let w be one of smallest z-width zw,
    with z-support starting at z^0; it is primitive: if h(z) divided all
    its coefficients, w/h would have a smaller z-width.  So each
    annihilator with s-support in [0, width] is g(z) w, g a Laurent
    polynomial; g w is sigma-good iff g w_0 and g w_width are monomials,
    iff g is a unit and w is sigma-good.  Hence no element of the row is
    sigma-good when w is not.  The row (width, zd) is
    {g w : g in K[z], deg g <= zd - zw}, nonempty exactly when zd >= zw:
    zw is the first zd at which the row's columns are dependent
    (`_minimal_z_width`, one echelon grown a z-degree at a time), the row
    is empty when there is none up to deg_z, and row (width, zw) is the
    line of w, so `annihilator_space(T, v, width, zw)` is [w] scaled to
    end in 1 (CertificateFailure otherwise).  That is also the first
    canonical kernel vector of row (width, deg_z): in the unknowns' order
    (s-major) the last nonzero position of g w is w's own moved up by
    deg g, so the smallest among the row's elements is w's, and w is zero
    at the other free columns (the last nonzero positions of z^k w,
    k > 0).  A sigma-good element of a wider row is wider than w (one of
    width `width` would be s^j g w), so (p) alone is never the answer
    there.

    The wider rows are scanned d-major, z-width inner, and each s-width d
    is decided by one echelon (`_first_sigma_good`).  Call C(0, e) and
    C(d, e) the end columns and M the span of the middle columns C(i, j),
    0 < i < d, j <= zd.  An element of row (d, zd) whose s^0 and s^d
    coefficients are c z^e0 and c' z^ed, c and c' nonzero, is a relation
    c C(0, e0) + c' C(d, ed) + m = 0 with m in M.  It exists iff both end
    columns lie in M (two relations, summed), or neither does and they are
    proportional modulo M: iff their cosets mod M are both zero or both
    nonzero and proportional.  Reduced at every pivot of an echelon basis
    of M (`linalg._reduce_int`), a column becomes a vector of its coset
    that is zero at every pivot, and there is one such vector up to a
    factor, since a nonzero element of M is nonzero at its first pivot;
    made primitive, it is one vector.  So the cell holds such an element
    iff the two primitive residues are equal, and every skipped cell is
    proved empty by exact integer arithmetic.  M only grows with zd, so
    one echelon serves every zd of that d: an end column is reduced when
    it enters, and after that only at the pivots each z-degree adds, since
    its residue is already zero at the others.
    Such an element is sigma-good.  Every other element of the row has
    r_0 = 0 or r_d = 0, so it is s^j times an element of row (d - 1, zd);
    left multiplication by s^j keeps z-supports and sigma-goodness.  So a
    sigma-good element of row (d, zd) either reaches both s^0 and s^d,
    which the test decides, or is s^j times an element of a row already
    scanned, and the last SearchExhausted is a proof: no sigma-good
    annihilator has s-width <= deg_sigma and z-width <= deg_z.
    """
    if width > bounds.deg_sigma:
        raise SearchExhausted(
            "no sigma-good annihilator within bounds", bounds.as_dict()
        )
    orbit = list(islice(_orbit(T, v, 1), bounds.deg_sigma + 1))
    cols = _columns(orbit, bounds.deg_z)
    zw = _minimal_z_width(cols, width, bounds.deg_z)
    if zw is None:
        raise SearchExhausted(
            "minimal-width annihilator exceeds the z-width bound",
            bounds.as_dict(),
        )
    row = annihilator_space(T, v, width, zw)
    if len(row) != 1:
        raise CertificateFailure(f"row ({width}, {zw}) is not the line of one annihilator")
    w = row[0]
    if degrees(w).sigma_good:
        return IdealPresentation.principal(w)
    for d in range(width + 1, bounds.deg_sigma + 1):
        p = _first_sigma_good(orbit, cols, d, bounds.deg_z)
        if p is not None:
            return IdealPresentation.two_generator(p, w)
    raise SearchExhausted(
        "no sigma-good annihilator within bounds", bounds.as_dict()
    )


def annihilator_in_good(pM: AqElement, f: AqElement, bounds=None):
    """Annihilator of the coset of f in the cyclic module defined by pM.

    Returns an IdealPresentation: principal exactly when a sigma-good
    element of the certified minimal s-width exists, otherwise the
    (sigma-good, minimal) two-generator pair; `_annihilator_ideal` proves
    that the first minimal-width annihilator decides which.  SearchExhausted
    when the bounds cannot exhibit the needed elements.
    """
    bounds = bounds or DEFAULT_BOUNDS
    T = to_matrix(Good(pM))
    e0 = [ONE if i == 0 else ZERO for i in range(T.n)]
    v = aq_act(f, T, e0)
    if all(c.is_zero() for c in v):
        return IdealPresentation.principal(AqElement.one())
    width = minimal_annihilator_width(T, v, bounds.deg_sigma)
    if width is None:
        raise SearchExhausted(
            "no annihilator within the s-width bound", bounds.as_dict()
        )
    return _annihilator_ideal(T, v, width, bounds)


# -- cyclic vectors ------------------------------------------------------------


class CyclicResult:
    __slots__ = ("v", "ann", "rank_S")

    def __init__(self, v, ann, rank_S):
        self.v = v
        self.ann = ann
        self.rank_S = rank_S

    def __repr__(self):
        return f"CyclicResult(rank_S={self.rank_S}, ann={self.ann})"


def _width(T: MatrixModule, v) -> int:
    """Dimension of the s-span of a nonzero v over K(z); n when v is cyclic."""
    d = minimal_annihilator_width(T, v, T.n - 1)
    return T.n if d is None else d


def cyclic_search(T: MatrixModule):
    """A cyclic vector of T: v, s(v), ..., s^{n-1}(v) are independent over
    K(z), so v generates M up to a K[z,z^-1]-module of rank zero, which is 0.

    The first cyclic unit vector if there is one.  Else the cyclic vector
    lemma, made constructive: from the widest unit vector v (the first among
    ties), of width d, pass to the first u = v + lam z^j e_k of width > d,
    for lam = 1..d+2, then j = d..0, then k = 0..n-1; repeat until cyclic.

    Proof that some candidate widens v.  Let L be the monic width-d
    annihilator of v over K(z) and W = span(v, ..., s^{d-1}v), which is
    s-stable.  If Lw is not in W, some (d+1)-minor D(x) of
    [v, ..., s^{d-1}v, x] has D(Lw) != 0; the same minor of the orbit of
    v + lam w is a polynomial in lam of degree <= d + 1 whose lam^1
    coefficient is D(Lw) (multilinearity; s^d v is in W), so one of the
    d + 2 values of lam is not a root.  L acts K-linearly on M/W with a
    kernel of K-dimension <= d(n - d): it is the fixed space of a
    semilinear bijection of a K(z)-space of that dimension, and the
    constants of K(z) under z -> qz are K.  The z^j e_k with j <= d span
    at least (d + 1)n - d(d + 1) > d(n - d) dimensions modulo W (W projects
    injectively onto d coordinates), so some w = z^j e_k has Lw outside W
    (van der Put & Singer, Galois Theory of Difference Equations, LNM 1666).

    Each round widens v, so there are at most n rounds; CertificateFailure
    if no candidate widens v, which the lemma rules out.
    """
    n = T.n
    v, d = None, 0
    for k in range(n):
        e = tuple(ONE if j == k else ZERO for j in range(n))
        width = _width(T, e)
        if width == n:
            return e
        if width > d:
            v, d = e, width
    while d < n:
        v, d = _widen(T, v, d)
    return v


def _widen(T: MatrixModule, v, d: int):
    """(u, width of u) for the first u = v + lam z^j e_k of width greater
    than d, in the order of `cyclic_search`."""
    for lam in range(1, d + 3):
        for j in range(d, -1, -1):
            for k in range(T.n):
                u = list(v)
                u[k] = u[k] + LaurentPoly.monomial(lam, j)
                width = _width(T, u)
                if width > d:
                    return tuple(u), width
    raise CertificateFailure(f"no candidate widens the width-{d} vector {v}")


def _z_gcd_width(gens):
    """z-width of the generator of the left ideal K(s) (x) (A g_1 + ...):
    Euclid with z_divide, whose cofactor is a nonzero element of K[s,s^-1],
    a unit over K(s)."""
    a, *rest = gens
    for b in rest:
        while not b.is_zero():
            if degrees(a).deg_z < degrees(b).deg_z:
                a, b = b, a
            a, b = b, z_divide(a, b)[2]
    return degrees(a).deg_z


def cyclic_presentation(T: MatrixModule, bounds=None):
    """Bounded search for a presentation of the annihilator of the cyclic
    vector `cyclic_search(T)`, with the S-rank that presentation reveals;
    None when the bounds run out.  The library reads rank_S off the slopes
    (`modules.rank_S`); this search is the independent side the
    verification suites check that theorem against.

    The annihilator ideal I of a cyclic v has minimal s-width exactly n,
    and `_annihilator_ideal` presents it within s-width deg_sigma, so
    M = A/I and rank_S(M) = dim_K(s) K(s) (x) A/I.

    K[s,s^-1] minus 0 is an Ore set, so this localization is exact:
    K(s) (x) I is the left ideal of K(s)[z, z^-1; sigma] spanned by the
    generators, and A/I has rank_S equal to the z-width of its generator.
    z_divide(r, w) returns g r = h w + rem with g a unit over K(s) and
    deg_z rem < deg_z w, so Euclid's remainder sequence keeps that ideal and
    ends at its generator.  For a principal presentation the generator is
    p itself and the rank is deg_z p.
    """
    bounds = bounds or DEFAULT_BOUNDS
    v = cyclic_search(T)
    try:
        ann = _annihilator_ideal(T, v, T.n, bounds)
    except SearchExhausted:
        return None
    return CyclicResult(v, ann, _z_gcd_width(ann.generators))


# -- line subbundles -----------------------------------------------------------


def _edge_roots(edge):
    """The nonzero rational roots of sum c_i x^i, given by its (i, c_i)
    pairs by increasing i (`linalg.rational_roots` of it over x^i0)."""
    lo = edge[0][0]
    coeffs = [0] * (edge[-1][0] - lo + 1)
    for i, c in edge:
        coeffs[i - lo] = c
    return [x for x, _ in rational_roots(LaurentPoly(0, coeffs))[0]]


def _candidates(spans, coeffs, k: int, window: int):
    """(c, w) for each scalar c for which T(z) v(qz) = c z^k v(z) may have
    a nonzero solution meeting [-window, window], by increasing c, with w <=
    window a window that holds every such solution; the proof is in
    `line_subbundle_probe`.  `coeffs` is the Cramer relation of dual(T) and
    `spans` its adjugate column spans (`modules._adjugate_spans`)."""
    q = get_q()
    at_inf, at_zero = (_edge_roots(edge) for edge in _edges(coeffs, k))
    lo, hi = _transfer(spans, coeffs, k)
    found = set()
    for x in at_inf:
        for x0 in at_zero:
            # x = q^N / c and x0 = q^M / c for the degrees M <= N of y
            d = q_power_class(x / x0)
            if d is None or d < 0 or lo - d > hi:
                continue
            # c = q^N / x puts v in [lo + N - d, hi + N], which meets the
            # window exactly for these N
            found.update(q**N / x for N in range(-window - hi, window - lo + d + 1))
    out = []
    for c in sorted(found):
        tops = [n for x in at_inf if (n := q_power_class(c * x)) is not None]
        bots = [m for x in at_zero if (m := q_power_class(c * x)) is not None]
        out.append((c, min(window, max(hi + max(tops), -lo - min(bots)))))
    return out


def line_subbundle_probe(T: MatrixModule, k_range, window=12):
    """All (c, k, v) with T(z) v(qz) = c z^k v(z), v supported in the window.

    Returns a list sorted by (k, c); empty means no line subbundle exists
    inside the searched window.  A solution spans a rank-1 submodule
    L(c, k), whose slope k is an integer and a slope of the module at both
    ends (`modules.slopes`), so every other k is skipped before anything
    else is computed.  A k repeated in `k_range` is probed once.  Every
    vector is found and certified by the shared window solver
    (`modules.window_eigenspace`), for the finitely many scalars c that the
    Cramer relation of the dual admits (`_candidates`), each at a window
    that provably holds all of its solutions.

    The scalar equation.  Let D = dual(T) = T^-T, u a cyclic vector of D
    and u_i = D(z) u_(i-1)(qz) its orbit, with the certified Cramer
    relation sum b_i(z) u_i = 0 (`modules._cramer_relation`).  For a
    solution v, T(z) v(qz) = c z^k v(z) and D^T T = 1 give
    <u_i, v>(z) = c^-1 z^-k <u_(i-1), v>(qz), so y = <u, v> has
    <u_i, v> = c^-i q^(-k i(i-1)/2) z^(-ik) y(q^i z) and
    sum b_i(z) c^-i q^(-k i(i-1)/2) z^(-ik) y(q^i z) = 0.  The matrix U
    with rows u_0, ..., u_(n-1) has det U = +-b_n != 0, so y = 0 forces
    U v = 0 and v = 0: a nonzero v has a nonzero y.

    The candidates.  If y has top degree N and bottom degree M <= N, then
    x = q^N / c is a root of the slope-k edge polynomial at infinity and
    x0 = q^M / c one of the edge polynomial at 0 (`modules._edges`), both
    rational and nonzero.  So x / x0 = q^d with d = N - M >= 0
    (`scalars.q_power_class`), and c = q^N / x.  With (lo, hi) from
    `modules._transfer`, v = adj(U) (<u_i, v>)_i / det U lies in
    [lo + M, hi + N] = [lo + N - d, hi + N]: it has no support when
    lo - d > hi, and it meets [-window, window] only for
    -window - hi <= N <= window - lo + d.  Those N give finitely many c.
    For each c, every N with q^N / c a root at infinity and every M with
    q^M / c a root at 0 is a possible degree of y, so all solutions of that
    c lie in [lo + min M, hi + max N], and min(window, max(hi + max N,
    -(lo + min M))) holds every one of them that lies in the window.  A c
    that is not a candidate has no nonzero solution meeting the window.

    The answer.  `window_eigenspace` at that smaller window returns the
    canonical basis of the same solution space as at `window`: the
    coordinates it drops are zero on every solution, and the canonical
    basis depends only on the solution space.  So the result is the
    window-`window` eigenspace of every scalar, as if each were solved at
    the full window.  Every step is exact (Abramov, Rational solutions of
    linear difference and q-difference equations with polynomial
    coefficients, 1995; van der Put & Singer, Galois Theory of Difference
    Equations, LNM 1666).
    """
    if window < 0:
        raise PreconditionViolation("window must be >= 0")
    at_inf, at_zero = slopes(T)
    ends = {lam for lam, _ in at_inf} & {lam for lam, _ in at_zero}
    k_range = [k for k in dict.fromkeys(k_range) if k in ends and k == int(k)]
    if not k_range:
        return []
    _, orbit, coeffs = _cramer_relation(dual(T))
    spans = _adjugate_spans(orbit)
    results = []
    for k in k_range:
        for c, w in _candidates(spans, coeffs, int(k), window):
            for vec in window_eigenspace(T, w, k, c):
                # scale the leading coefficient to 1 for a canonical report
                lead = next(f.coeff(f.lo) for f in vec if not f.is_zero())
                results.append((c, k, tuple(f * (1 / lead) for f in vec)))
    # the candidates of each k come by increasing c
    results.sort(key=lambda t: t[1])
    return results
