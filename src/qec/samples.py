"""Seeded random instance generators for the verification suites and tests.

Everything draws from a caller-supplied random.Random so a (seed, cases)
pair pins the whole corpus.  Coefficients stay small on purpose: the checks
are exact, so size adds cost without adding coverage.
"""

from __future__ import annotations

from fractions import Fraction

from .aq import AqElement, degrees
from .laurent import LaurentMatrix, LaurentPoly
from .modules import Good, LineBundle, MatrixModule, Torsion
from .scalars import qpow


def rand_scalar(rng, nonzero=False) -> Fraction:
    num = rng.randint(-4, 4)
    while nonzero and num == 0:
        num = rng.randint(-4, 4)
    return Fraction(num, rng.choice((1, 1, 1, 2, 3)))


def rand_laurent(rng, max_width=2, max_shift=2) -> LaurentPoly:
    lo = rng.randint(-max_shift, max_shift)
    width = rng.randint(0, max_width)
    coeffs = [rand_scalar(rng) for _ in range(width + 1)]
    coeffs[0] = rand_scalar(rng, nonzero=True)
    coeffs[-1] = rand_scalar(rng, nonzero=True)
    return LaurentPoly(lo, coeffs)


def rand_unit(rng, max_shift=2) -> LaurentPoly:
    return LaurentPoly.monomial(rand_scalar(rng, nonzero=True),
                                rng.randint(-max_shift, max_shift))


def rand_aq(rng, max_width=2, max_shift=2) -> AqElement:
    """Nonzero element with s-support of width <= max_width."""
    a = rng.randint(-max_shift, max_shift)
    w = rng.randint(0, max_width)
    coeffs = {}
    for i in range(a, a + w + 1):
        if i in (a, a + w) or rng.random() < 0.6:
            coeffs[i] = rand_laurent(rng)
    return AqElement(coeffs)


def rand_sigma_good(rng, t_max=3, max_shift=1) -> AqElement:
    """Sigma-good element of width in [1, t_max]."""
    t = rng.randint(1, t_max)
    a = rng.randint(-max_shift, max_shift)
    coeffs = {a: rand_unit(rng), a + t: rand_unit(rng)}
    for i in range(a + 1, a + t):
        if rng.random() < 0.5:
            coeffs[i] = rand_laurent(rng)
    return AqElement(coeffs)


def rand_two_sided_good(rng, t_max=3, tries=40) -> AqElement:
    """Element good on both sides; rejection-samples sigma-good elements and
    falls back to a two-monomial element (always two-sided good)."""
    for _ in range(tries):
        p = rand_sigma_good(rng, t_max)
        d = degrees(p)
        if d.z_good:
            return p
    t = rng.randint(1, t_max)
    return AqElement.monomial(rand_scalar(rng, nonzero=True), 0, 0) + AqElement.monomial(
        rand_scalar(rng, nonzero=True), rng.randint(1, 2), t
    )


_EIGEN_OFFSETS = (-2, -1, 0, 1, 2)
_EIGEN_OUTSIDERS = (Fraction(3), Fraction(5, 3), Fraction(-7, 2), Fraction(1, 5))


def rand_eigenvalue(rng) -> Fraction:
    """Mix of q-power-class-trivial and nontrivial eigenvalues."""
    if rng.random() < 0.5:
        return qpow(rng.choice(_EIGEN_OFFSETS))
    return rng.choice(_EIGEN_OUTSIDERS)


def rand_line(rng, max_m=3) -> LineBundle:
    return LineBundle(rand_eigenvalue(rng), rng.randint(-max_m, max_m))


def rand_torsion(rng, max_blocks=2, max_size=2) -> Torsion:
    nblocks = rng.randint(1, max_blocks)
    return Torsion(
        [(rand_eigenvalue(rng), rng.randint(1, max_size)) for _ in range(nblocks)]
    )


def rand_good(rng, t_max=2) -> Good:
    return Good(rand_sigma_good(rng, t_max))


def rand_sigma_matrix(rng, n_max=3, max_width=1) -> MatrixModule:
    """Invertible matrix built as (unit lower) * diag(units) * (unit upper),
    so the determinant is a unit by construction."""
    n = rng.randint(1, n_max)
    rows = [[LaurentPoly.zero()] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rand_unit(rng, max_shift=1)
    for i in range(n):
        for j in range(n):
            if i > j and rng.random() < 0.5:
                rows[i][j] = rand_laurent(rng, max_width, 1)
    upper = [[LaurentPoly.zero()] * n for _ in range(n)]
    for i in range(n):
        upper[i][i] = LaurentPoly.const(1)
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                upper[i][j] = rand_laurent(rng, max_width, 1)
    prod = LaurentMatrix(tuple(tuple(r) for r in rows)) * LaurentMatrix(
        tuple(tuple(r) for r in upper)
    )
    det = rows[0][0]
    for i in range(1, n):
        det = det * rows[i][i]
    return MatrixModule(prod, _det=det)


def rand_module(rng, kinds="ltg") -> object:
    """Random presentation; kinds is a subset of 'l' (line), 't' (torsion),
    'g' (good), 'm' (matrix)."""
    k = rng.choice(kinds)
    if k == "l":
        return rand_line(rng)
    if k == "t":
        return rand_torsion(rng)
    if k == "g":
        return rand_good(rng)
    if k == "m":
        return rand_sigma_matrix(rng)
    raise ValueError(f"unknown kind {k!r}")
