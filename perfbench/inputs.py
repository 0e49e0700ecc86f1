"""Seeded input generators owned by the benchmark.

Everything here is plain text (expression strings, JSON descriptors) or
Fractions, together with the answer the mathematics fixes for it, so a change
to qec.samples or to its random draw order cannot change what the benchmark
feeds the library.  Nothing here imports qec.
"""

from __future__ import annotations

from fractions import Fraction

from oracle import aq_mul, identity, lp_mul, lp_qshift, lp_sum, mat_mul, scalar_str

Q_DEFAULT = Fraction(2)


def rand_scalar(rng, lo=-5, hi=5):
    num = 0
    while num == 0:
        num = rng.randint(lo, hi)
    return Fraction(num, rng.choice((1, 1, 1, 2, 3)))


def rand_laurent(rng, max_width=2, max_shift=2, density=0.7, exact=False):
    lo = rng.randint(-max_shift, max_shift)
    width = max_width if exact else rng.randint(0, max_width)
    f = {lo: rand_scalar(rng), lo + width: rand_scalar(rng)}
    for e in range(lo + 1, lo + width):
        if rng.random() < density:
            f[e] = rand_scalar(rng)
    return f


def rand_unit(rng, max_shift=2):
    return {rng.randint(-max_shift, max_shift): rand_scalar(rng, -3, 3)}


def rand_element(rng, s_width=3, z_width=3, shift=2, exact=False):
    """Nonzero element with both extreme s-slots occupied.  The widths are
    bounds, or with exact=True the s-width and every coefficient's z-width."""
    a = rng.randint(-shift, shift)
    w = s_width if exact else rng.randint(0, s_width)
    x = {}
    for b in range(a, a + w + 1):
        if b in (a, a + w) or rng.random() < 0.6:
            for e, c in rand_laurent(rng, z_width, shift, exact=exact).items():
                x[(e, b)] = c
    return x


def rand_sigma_good(rng, t_min=1, t_max=3, z_width=2):
    """Element whose extreme s-coefficients are units (monomials in z)."""
    a = rng.randint(-1, 1)
    t = rng.randint(t_min, t_max)
    x = {}
    for b in (a, a + t):
        ((e, c),) = rand_unit(rng, 1).items()
        x[(e, b)] = c
    for b in range(a + 1, a + t):
        if rng.random() < 0.7:
            for e, c in rand_laurent(rng, z_width, 1).items():
                x[(e, b)] = c
    return x


def element_expr(x):
    """Input syntax deliberately unlike the library's printer: one
    parenthesised coefficient per monomial, z before s."""
    return " + ".join(
        f"({scalar_str(c)})*z^{a}*s^{b}"
        for (a, b), c in sorted(x.items(), key=lambda kv: (kv[0][1], -kv[0][0]))
    )


def laurent_expr(f):
    if not f:
        return "0"
    return " + ".join(f"({scalar_str(c)})*z^{e}" for e, c in sorted(f.items()))


# -- algebra ----------------------------------------------------------------------


def unit_det_matrix(rng, n):
    """(T, det): T = L * D * U with L, U unitriangular over K[z, z^-1] and D
    diagonal units, so det T is the product of D's entries."""
    L, D, U = identity(n), [[{} for _ in range(n)] for _ in range(n)], identity(n)
    det = {0: Fraction(1)}
    for i in range(n):
        D[i][i] = rand_unit(rng, 1)
        det = lp_mul(det, D[i][i])
        for j in range(i):
            if rng.random() < 0.7:
                L[i][j] = rand_laurent(rng, 1, 1)
            if rng.random() < 0.7:
                U[j][i] = rand_laurent(rng, 1, 1)
    return mat_mul(mat_mul(L, D), U), det


# -- module-level queries -----------------------------------------------------------

# Eigenvalues for line bundles: q-power classes that are trivial at q = 2,
# and scalars outside every class.
TRIVIAL_CLASS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(4), Fraction(1, 4))
OUTSIDE_CLASS = (Fraction(3), Fraction(5, 3), Fraction(-7, 2), Fraction(1, 5))


def gauge_module(rng, q=Q_DEFAULT, ms=None, a_width=1):
    """A matrix module isomorphic to a sum of line bundles, one per exponent.

    T' = G(z) diag(c_i z^m_i) G(qz)^-1 with G = U L, U unit upper triangular
    with entries of z-width at most a_width and L unit lower triangular with
    monomial entries.  Gauge changes preserve the module, so rank_S is
    sum |m_i| and h0 counts the summands with m = 0 and c a power of q.  The
    exponents ms are two draws from [-2, 2] unless given; their count is the
    matrix size.  Returns (descriptor, rank_S, h0).
    """
    if ms is None:
        ms = [rng.randint(-2, 2) for _ in range(2)]
    n = len(ms)
    cs = [
        rng.choice(TRIVIAL_CLASS if rng.random() < 0.5 else OUTSIDE_CLASS) for _ in range(n)
    ]
    upper, lower = identity(n), identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            upper[i][j] = rand_laurent(rng, a_width, 1)
            lower[j][i] = rand_laurent(rng, 0, 1)
    g = mat_mul(upper, lower)
    # G(qz)^-1 = L(qz)^-1 U(qz)^-1
    uq, lq = ([[lp_qshift(f, 1, q) for f in row] for row in m] for m in (upper, lower))
    g_inv_q = mat_mul(_lower_inverse(lq), _transpose(_lower_inverse(_transpose(uq))))
    diag = [[{m: c} if i == j else {} for j in range(n)] for i, (m, c) in enumerate(zip(ms, cs))]
    t = mat_mul(mat_mul(g, diag), g_inv_q)
    desc = {"kind": "matrix", "entries": [[laurent_expr(e) for e in row] for row in t]}
    h0 = sum(1 for m, c in zip(ms, cs) if m == 0 and c in TRIVIAL_CLASS)
    return desc, sum(abs(m) for m in ms), h0


def exponents(rng, rank):
    """Two exponents in [-2, 2] with |m1| + |m2| = rank; split and signs drawn."""
    a = rng.choice([a for a in range(3) if 0 <= rank - a <= 2])
    return [rng.choice((a, -a)), rng.choice((rank - a, a - rank))]


def _transpose(a):
    return [list(row) for row in zip(*a)]


def _lower_inverse(low):
    """Inverse of a unit lower-triangular matrix, by forward substitution."""
    n = len(low)
    inv = identity(n)
    for j in range(n):
        for i in range(j + 1, n):
            acc = lp_sum(lp_mul(low[i][k], inv[k][j]) for k in range(j, i))
            inv[i][j] = {e: -c for e, c in acc.items()}
    return inv


def unit_times(rng, expr_terms, q=Q_DEFAULT):
    """u * p for a random unit u = c z^a s^b; the left ideal, hence the
    module A/Ap, is unchanged."""
    u = {(rng.randint(-2, 2), rng.randint(-2, 2)): rand_scalar(rng, -3, 3)}
    return element_expr(aq_mul(u, expr_terms, q))


def rand_jordan(rng, max_dim=4):
    """(A, blocks): A = P J P^-1 for an integer unimodular P, so A has the
    Jordan blocks of J; blocks sorted by (eigenvalue, -size)."""
    blocks = []
    n = 0
    while n < 2 or (n < max_dim and rng.random() < 0.5):
        size = rng.randint(1, min(2, max_dim - n))
        blocks.append((Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5))), size))
        n += size
    J = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for lam, size in blocks:
        for i in range(size):
            J[at + i][at + i] = lam
            if i + 1 < size:
                J[at + i][at + i + 1] = Fraction(1)
        at += size
    P, Pinv = _unimodular(rng, n)
    A = _qmul(_qmul(P, J), Pinv)
    return A, sorted(blocks, key=lambda b: (b[0], -b[1]))


def _qmul(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def _unimodular(rng, n):
    P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = Fraction(rng.choice((-2, -1, 1, 2)))
        # P <- P E with E = I + k e_ij; P^-1 <- E^-1 P^-1
        for r in range(n):
            P[r][j] += k * P[r][i]
        for c in range(n):
            Pinv[i][c] -= k * Pinv[j][c]
    return P, Pinv


def rand_torsion_blocks(rng):
    blocks = []
    for _ in range(rng.randint(1, 2)):
        lam = Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 1, 2)))
        blocks.append((lam, rng.randint(1, 2)))
    return sorted(blocks, key=lambda b: (b[0], -b[1]))


def torsion_desc(blocks):
    return {
        "kind": "torsion",
        "blocks": [{"lambda": scalar_str(lam), "size": size} for lam, size in blocks],
    }
