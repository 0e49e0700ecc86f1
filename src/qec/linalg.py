"""Exact linear algebra over Q with Fraction entries.

Plain Gaussian elimination on lists of lists; nothing here is numerical.
Every solver that looks for Laurent-polynomial vectors linearizes through
`coefficient_rows` and solves with `nullspace`.  Characteristic polynomials
reuse the fraction-free Laurent determinant, and eigenvalues come from exact
rational root extraction (bounded trial-division integer factorization), so
Jordan data is either exactly right, reported as non-split, or reported as
out of the search bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import CertificateFailure, NonSplitSpectrum, SearchExhausted
from .laurent import LaurentMatrix, LaurentPoly, det

# largest trial divisor rational_roots tries before it gives up on an integer
TRIAL_DIVISION_LIMIT = 1 << 20


def rref(rows):
    """Reduced row echelon form (in place on a copy); returns (rows, pivots)."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows):
    if not rows:
        return 0
    return len(rref(rows)[1])


def nullspace(rows, ncols=None):
    """Basis of the right kernel, one canonical vector per free column: 1 at
    its own free column, 0 at the other free columns.  The basis depends only
    on the kernel, not on the rows that cut it out, and each vector's free
    column is its last nonzero entry."""
    if not rows:
        return identity(ncols or 0)
    ncols = ncols if ncols is not None else len(rows[0])
    m, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][free]
        basis.append(v)
    return basis


def coefficient_rows(images):
    """Linearize a map on unknowns: images[t] is the vector of Laurent
    polynomials that unknown t maps to.  Returns {(component, exponent): row}
    over the unknowns, one row per coefficient some image touches, sorted by
    (component, exponent)."""
    rows = {}
    for t, vec in enumerate(images):
        for i, f in enumerate(vec):
            for e, c in f.terms():
                if (i, e) not in rows:
                    rows[(i, e)] = [Fraction(0)] * len(images)
                rows[(i, e)][t] = c
    return dict(sorted(rows.items()))


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def identity(n):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def charpoly(a) -> LaurentPoly:
    """det(z*I - a) as a Laurent polynomial in the indeterminate z."""
    n = len(a)
    entries = [
        [
            LaurentPoly(0, (-a[i][j],)) + (LaurentPoly.monomial(1, 1) if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return det(LaurentMatrix(entries))


def _divisors(n):
    n = abs(n)
    if n == 0:
        return []
    factors = {}
    d = 2
    while d * d <= n:
        if d > TRIAL_DIVISION_LIMIT:
            raise SearchExhausted(
                "integer too large to factor by trial division",
                {"trial_division": TRIAL_DIVISION_LIMIT},
            )
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(set(divs))


def _divides(d, n):
    return n == 0 if d == 0 else n % d == 0


def rational_roots(p: LaurentPoly):
    """All rational roots with multiplicity, plus the degree left unsplit.

    Returns (sorted [(root, multiplicity)], remaining_degree).  Root 0 comes
    from a positive valuation; the rest from the rational root theorem after
    clearing denominators.  SearchExhausted when factoring an end coefficient
    would need a trial divisor above TRIAL_DIVISION_LIMIT.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    roots = []
    if p.bot > 0:
        roots.append((Fraction(0), p.bot))
    coeffs = list(p.coeffs)  # poly with nonzero constant and leading coeff
    if len(coeffs) > 1:
        scale = lcm(*(c.denominator for c in coeffs))
        ints = [int(c * scale) for c in coeffs]
        at_one = sum(ints)
        at_minus_one = sum(-c if i % 2 else c for i, c in enumerate(ints))
        cands = set()
        for a in _divisors(ints[0]):
            for b in _divisors(ints[-1]):
                if gcd(a, b) != 1:
                    continue
                for r in (a, -a):
                    # a root r/b in lowest terms makes b*z - r a factor over
                    # Z (Gauss), so b - r divides P(1) and b + r divides P(-1)
                    if _divides(b - r, at_one) and _divides(b + r, at_minus_one):
                        cands.add(Fraction(r, b))
        for r in sorted(cands):
            mult = 0
            while len(coeffs) > 1:
                # synthetic division by (z - r): Horner from the top
                out = [Fraction(0)] * (len(coeffs) - 1)
                acc = Fraction(0)
                for i in range(len(coeffs) - 1, 0, -1):
                    acc = acc * r + coeffs[i]
                    out[i - 1] = acc
                if acc * r + coeffs[0] != 0:
                    break
                coeffs = out
                mult += 1
            if mult:
                roots.append((r, mult))
    return sorted(roots), len(coeffs) - 1


def jordan_structure_constant(a):
    """Jordan data [(eigenvalue, size), ...] of an exact rational matrix,
    sorted by (eigenvalue, -size).  NonSplitSpectrum if the characteristic
    polynomial has an irreducible factor of degree >= 2 over Q."""
    n = len(a)
    roots, remaining = rational_roots(charpoly(a))
    if remaining:
        raise NonSplitSpectrum(
            f"characteristic polynomial has a non-split factor of degree {remaining}"
        )
    blocks = []
    for lam, mult in roots:
        b = [[a[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
        ranks = [n]
        power = identity(n)
        while ranks[-1] > n - mult:
            power = mat_mul(power, b)
            ranks.append(rank(power))
        ge = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
        ge.append(0)
        total = 0
        for k in range(1, len(ge)):
            exact = ge[k - 1] - ge[k]
            blocks.extend((lam, k) for _ in range(exact))
            total += k * exact
        if total != mult:
            raise CertificateFailure(
                f"Jordan blocks of {lam} cover {total} of multiplicity {mult}"
            )
    return sorted(blocks, key=lambda b: (b[0], -b[1]))
