"""Left ideals: membership, annihilators, cyclic vectors, line subbundles.

Everything here is a bounded exact search: linear systems over Q whose
solutions are algebra elements annihilating a module vector, plus degree
certificates obtained from fraction-free rank computations over K[z,z^-1].
Searches are deterministic (fixed scan orders), so results are reproducible;
when bounds run out the failure is explicit (SearchExhausted or a
certified=False flag), never a silent guess.
"""

from __future__ import annotations

from fractions import Fraction

from .aq import AqElement, degrees, sigma_divide
from .errors import PreconditionViolation, SearchExhausted
from .laurent import ONE, ZERO, LaurentPoly, echelon
from .linalg import charpoly, coefficient_rows, nullspace, rational_roots
from .modules import (
    Good,
    SigmaMatrix,
    _window_images,
    _window_vector,
    aq_act,
    sigma_apply,
    to_matrix,
    window_eigenspace,
)
from .scalars import get_q


class SearchBounds:
    """Degree bounds for ideal searches: s-width, z-width, solver window."""

    __slots__ = ("deg_sigma", "deg_z", "window")

    def __init__(self, deg_sigma=6, deg_z=8, window=12):
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
    assert g.is_unit()
    return rem.is_zero()


def minimal_annihilator_width(T: SigmaMatrix, v, cap: int):
    """Smallest s-width of a nonzero annihilator of v, or None if > cap.

    Width d dependence of v, s(v), ..., s^d(v) over the fraction field is
    exactly the existence of a width-d annihilator.
    """
    orbit = [list(v)]
    for d in range(1, cap + 1):
        orbit.append(sigma_apply(T, orbit[-1], 1))
        # columns are the orbit vectors; dependence <=> rank <= d
        rank, _, _ = echelon(list(zip(*orbit)))
        if rank <= d:
            return d
    return None


# -- annihilator solves --------------------------------------------------------


def _pack(space_vec, d, zd):
    coeffs = {}
    for i in range(d + 1):
        poly = [space_vec[i * (zd + 1) + j] for j in range(zd + 1)]
        f = LaurentPoly(0, poly)
        if not f.is_zero():
            coeffs[i] = f
    return AqElement(coeffs)


def annihilator_space(T: SigmaMatrix, v, d: int, zd: int):
    """Basis of {r = sum r_i(z) s^i : supports in [0,d] x [0,zd], r(v) = 0}."""
    orbit = [list(v)]
    for _ in range(d):
        orbit.append(sigma_apply(T, orbit[-1], 1))
    # unknown i * (zd + 1) + j is the coefficient of z^j s^i
    images = [[f.shift(j) for f in w] for w in orbit for j in range(zd + 1)]
    rows = coefficient_rows(images)
    basis = []
    for vec in nullspace(list(rows.values()), len(images)):
        x = _pack(vec, d, zd)
        if not x.is_zero():
            # exact re-verification against the module action
            combo = [ZERO] * T.n
            for i, f in x.terms():
                for r in range(T.n):
                    combo[r] = combo[r] + f * orbit[i][r]
            assert all(c.is_zero() for c in combo)
            basis.append(x)
    return basis


def _sigma_good_in(space):
    """A sigma-good element of the span, if a small combination shows one."""
    for x in space:
        if degrees(x).sigma_good:
            return x
    for i in range(len(space)):
        for j in range(i + 1, len(space)):
            for cand in (space[i] + space[j], space[i] - space[j]):
                dd = degrees(cand)
                if dd is not None and dd.sigma_good:
                    return cand
    return None


def annihilator_in_good(pM: AqElement, f: AqElement, bounds=None):
    """Annihilator of the coset of f in the cyclic module defined by pM.

    Returns an IdealPresentation: principal when a sigma-good element of the
    certified minimal s-width exists, otherwise the (sigma-good, minimal)
    two-generator pair.  SearchExhausted when the bounds cannot exhibit the
    needed elements.
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
    w = None
    for zd in range(bounds.deg_z + 1):
        space = annihilator_space(T, v, width, zd)
        if space:
            good = _sigma_good_in(space)
            if good is not None:
                return IdealPresentation.principal(good)
            w = space[0]
            break
    if w is None:
        raise SearchExhausted(
            "minimal-width annihilator exceeds the z-width bound",
            bounds.as_dict(),
        )
    for d in range(width, bounds.deg_sigma + 1):
        for zd in range(bounds.deg_z + 1):
            space = annihilator_space(T, v, d, zd)
            good = _sigma_good_in(space)
            if good is not None:
                return IdealPresentation.two_generator(good, w)
    raise SearchExhausted(
        "no sigma-good annihilator within bounds", bounds.as_dict()
    )


# -- cyclic vectors ------------------------------------------------------------


class CyclicResult:
    __slots__ = ("v", "ann", "rank_S_upper", "certified")

    def __init__(self, v, ann, rank_S_upper, certified):
        self.v = v
        self.ann = ann
        self.rank_S_upper = rank_S_upper
        self.certified = certified

    def __repr__(self):
        return (
            f"CyclicResult(rank_S_upper={self.rank_S_upper}, "
            f"certified={self.certified}, ann={self.ann})"
        )


def _candidate_vectors(n):
    """Deterministic candidates: 0/1 vectors by weight, then low z-powers."""
    pools = (
        (ZERO, ONE),
        (ZERO, ONE, LaurentPoly.monomial(1, 1)),
        (ZERO, ONE, LaurentPoly.monomial(1, 1), LaurentPoly.monomial(1, 2)),
        (
            ZERO,
            ONE,
            LaurentPoly.monomial(1, 1),
            LaurentPoly.monomial(1, 2),
            LaurentPoly.monomial(1, 3),
        ),
    )
    seen = set()
    count = 0
    for i in range(n):
        v = tuple(ONE if j == i else ZERO for j in range(n))
        seen.add(v)
        count += 1
        yield v
    for pool in pools:
        stack = [()]
        for _ in range(n):
            stack = [t + (e,) for t in stack for e in pool]
        for v in stack:
            if all(e.is_zero() for e in v) or v in seen:
                continue
            seen.add(v)
            count += 1
            if count > CANDIDATE_LIMIT:
                return
            yield v


# extra s-width explored past the sigma-good generator when pinning the
# minimal z-width of a two-generator annihilator ideal
CERT_SLACK = 2
# candidate vectors tried, and cyclic candidates whose annihilator search
# may fail, before the search gives up
CANDIDATE_LIMIT = 800
DEEP_LIMIT = 24


def cyclic_search(T: SigmaMatrix, bounds=None):
    """Memoizing front end: the search is deterministic in (T, q, bounds),
    and rank computations revisit the same matrix repeatedly.  The search
    reads only the s- and z-width bounds, so the cache is keyed on those."""
    bounds = bounds or DEFAULT_BOUNDS
    key = (get_q(), bounds.deg_sigma, bounds.deg_z)
    if key not in T._cyclic_cache:
        T._cyclic_cache[key] = _cyclic_search(T, bounds)
    return T._cyclic_cache[key]


def _cyclic_search(T: SigmaMatrix, bounds):
    """Search for a cyclic vector and the ideal data it reveals.

    A candidate v is cyclic when v, s(v), ..., s^{n-1}(v) are independent
    over the fraction field: the quotient by A_q v then has rank zero, and
    the only finite-dimensional module is zero.  The annihilator ideal I of
    a cyclic v has minimal s-width exactly n; a sigma-good element p of I is
    searched by increasing s-width.

    * If deg_s p = n, division by p leaves remainders of width < n, which
      must vanish, so I = (p): the minimal z-width over I is deg_z p by
      degree additivity — rank certified, principal presentation.
    * Otherwise I is generated by p together with any element of s-width n.
      The least z-width among elements of s-width <= deg_s p + slack is
      reported; the true minimum over I is realized by a sigma-good element,
      so the report is certified when its realizer is sigma-good.
    """
    n = T.n
    deep = 0
    for v in _candidate_vectors(n):
        if minimal_annihilator_width(T, v, n - 1) is not None:
            continue  # not cyclic: a smaller-width annihilator exists
        p = None
        w_low = None  # an element of the minimal s-width n
        for width in range(n, max(bounds.deg_sigma, n + CERT_SLACK) + 1):
            for zd in range(bounds.deg_z + 1):
                space = annihilator_space(T, v, width, zd)
                if space and width == n and w_low is None:
                    w_low = space[0]
                good = _sigma_good_in(space)
                if good is not None:
                    p = good
                    break
            if p is not None:
                break
        if p is None or (degrees(p).deg_sigma > n and w_low is None):
            deep += 1
            if deep >= DEEP_LIMIT:
                return None
            continue
        if degrees(p).deg_sigma == n:
            return CyclicResult(
                v, IdealPresentation.principal(p), degrees(p).deg_z, True
            )
        w_min = None
        wcap = degrees(p).deg_sigma + CERT_SLACK
        for zd in range(bounds.deg_z + 1):
            for d in range(n, wcap + 1):
                space = annihilator_space(T, v, d, zd)
                if space:
                    good = _sigma_good_in(space)
                    w_min = good if good is not None else space[0]
                    break
            if w_min is not None:
                break
        assert w_min is not None  # p itself shows up in the scan
        ann = IdealPresentation.two_generator(p, w_low)
        return CyclicResult(v, ann, degrees(w_min).deg_z, degrees(w_min).sigma_good)
    return None


# -- line subbundles -----------------------------------------------------------


def line_subbundle_probe(T: SigmaMatrix, k_range, window=12):
    """All (c, k, v) with T(z) v(qz) = c z^k v(z), v supported in the window.

    Write A for the in-window rows of v |-> z^-k T(z) v(qz) and rest for the
    rows outside the window: the equation is A x = c x for x in ker(rest).
    The canonical kernel basis K is the identity on its free rows, so on
    x = K u the free rows read H u = c u with H = (A K)[free rows].  H only
    supplies the candidate scalars, its rational eigenvalues; each candidate
    is solved on the full equation by the shared window solver
    (`modules.window_eigenspace`), which certifies every vector it returns.
    Returns a list sorted by (k, c); empty means no line subbundle exists
    inside the searched window.
    """
    n = T.n
    W = window
    images = _window_images(T, W)
    results = []
    for k in k_range:
        rows = coefficient_rows([[f.shift(-k) for f in img] for img in images])
        rest = [row for (_, e), row in rows.items() if not -W <= e <= W]
        basis = nullspace(rest, len(images))
        if not basis:
            continue
        kernel = [_window_vector(x, n, W) for x in basis]
        # the columns of A K, as Laurent vectors; they vanish outside the window
        ak = [[f.shift(-k) for f in sigma_apply(T, v, 1)] for v in kernel]
        ak_rows = coefficient_rows(ak)
        zero = [Fraction(0)] * len(kernel)
        H = []
        for x in basis:
            # a canonical kernel vector's free column is its last nonzero entry
            r, j = divmod(max(t for t, c in enumerate(x) if c), 2 * W + 1)
            H.append(ak_rows.get((r, j - W), zero))
        roots, _ = rational_roots(charpoly(H))
        for c, _mult in roots:
            if c == 0:
                continue
            for vec in window_eigenspace(T, W, k, c):
                # scale the leading coefficient to 1 for a canonical report
                lead = next(f.coeffs[0] for f in vec if not f.is_zero())
                results.append((c, k, tuple(f * (1 / lead) for f in vec)))
    results.sort(key=lambda t: (t[1], t[0]))
    return results
