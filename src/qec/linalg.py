"""Exact linear algebra over Q; nothing is numerical.

Two elimination loops serve the rational systems.  The exact one is the
fraction-free `laurent.echelon`, run over integer rows: `rref`, `rank` and
the fallback of `nullspace` take rational or integer rows and make each
one primitive (`_primitive`) before they eliminate.  The scaling is lazy:
a row whose multiplier is zero is not touched, and a deferred row equals
its Bareiss minors after one exact division by the pivot ratio
dets[k] / dets[l] (l the last step that updated it), so a step costs what
its nonzero multipliers cost and the results are those of dense Bareiss.
`rank` counts the pivots of `echelon` and back-substitutes nothing; `rref`
back-substitutes d * RREF at every column.

`nullspace` first eliminates modulo the Mersenne prime p = 2^127 - 1, on
sparse rows (`_echelon_mod_p`), and proves what it finds over Q: no free
column mod p is a proof that the kernel is empty, and otherwise each
kernel vector mod p is lifted to a rational vector (Wang's rational
reconstruction) and checked against every row over Z.  On banded systems
the Bareiss minors grow to hundreds of bits and every step pays exact
divisions of them, while the entries mod p stay at 127 bits.  Whatever the
modular pass cannot prove, an unlucky prime or a kernel past the
reconstruction bound, is solved again on the Bareiss path, which
back-substitutes only the free columns and stops after `echelon` when
there is none.  So the answer is always the Bareiss answer, and the
prime costs only time (Dixon, Numer. Math. 40, 1982, for the modular
method).

A span that grows one vector at a time has its own exact echelon over Z
(`_insert_int`, `_reduce_int`), on sparse integer vectors in the sorted-
queue discipline of `_echelon_mod_p`: a vector reduced at every pivot is
zero exactly when it lies in the span, and otherwise, made primitive, it
is the one such vector of its coset.  The annihilator scan of `ideals`
decides each s-width with it.

Every solver that looks for Laurent-polynomial vectors linearizes through
`shift_rows`, the map x |-> sum_b sum_j x_(b, j) scale^j z^j col_b on a
few Laurent columns, and solves with `nullspace`: the window map of s has
the columns of T, shifts -W..W and scale q (`modules.window_eigenspace`,
the probe), and an annihilator row has the orbit v, ..., s^d(v), shifts
0..zd and scale 1 (`ideals`).  `shift_rows` writes sparse integer rows,
the map's rows times one integer `unit` that it returns with them, so no
`Fraction` and no zero cell is built.  These systems are banded in
z-degree and mostly zero.  The window solver numbers its unknowns
exponent-major, so each row meets about n (deg_z T + 1) neighbouring
columns and the fill of either elimination stays in that band.  The
canonical `nullspace` basis depends on the column order, so the window
solver rewrites it in the component-major order `shift_rows` uses: that
basis is the unique reduced row echelon form of the kernel with its
columns reversed, one small `rref` of the kernel vectors.

Characteristic polynomials come from a Hessenberg reduction over Q, O(n^3)
field operations, which beats det(z I - a) by `echelon` over K[z, z^-1]
(`laurent.det`): that takes about 4x as long on 7 x 7 Jordan matrices and
5x on a dense 20 x 20.  Eigenvalues come from exact rational root
extraction (bounded trial-division integer factorization).  The block
sizes of each eigenvalue come from the ranks of the powers of one integer
matrix, each read off the `echelon` rows of the power before it, so Jordan
data is exactly right, reported as non-split, or reported as out of the
search bound.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from itertools import compress, count
from math import gcd, isqrt, lcm
from operator import mul

from .errors import CertificateFailure, NonSplitSpectrum, SearchExhausted
from .laurent import LaurentPoly, _divexact_int, echelon

# largest trial divisor rational_roots tries before it gives up on an integer
TRIAL_DIVISION_LIMIT = 1 << 20


def _primitive(row):
    """The integer row with content 1 and a positive first nonzero entry on
    the line of `row`, whose entries are ints or Fractions; a zero row
    comes back as zeros.  A row and its primitive form have the same
    span, so the same RREF and the same kernel.  An integer row, the form
    `shift_rows` writes, skips the denominators."""
    try:
        g = gcd(*row)
    except TypeError:  # Fraction entries: clear the denominators first
        d = lcm(*(x.denominator for x in row))
        return _primitive([x.numerator * (d // x.denominator) for x in row])
    if next((x for x in row if x), 0) < 0:
        g = -g
    return [x // g if x else 0 for x in row]


def _back_substitute(u, pivots, d, cols):
    """d * RREF at the columns `cols`, one row per pivot, from the echelon
    rows u and their last pivot d.

    Let B be the pivot rows at the pivot columns, so d = det B up to sign.
    By Cramer's rule each RREF entry is a minor over det B, so d * RREF is
    an integer matrix.  Back-substitution computes it bottom up: echelon row
    k is pivot_k * RREF_k plus its entries at the later pivot columns times
    those RREF rows, so dividing by pivot_k is exact (checked).  Zero
    entries of the pivot block are skipped.
    """
    out = [None] * len(pivots)
    for k in range(len(pivots) - 1, -1, -1):
        row = u[k]
        acc = [d * row[j] for j in cols]
        for later in range(k + 1, len(pivots)):
            f = row[pivots[later]]
            if f:
                acc = [a - f * b if b else a for a, b in zip(acc, out[later])]
        p = row[pivots[k]]
        out[k] = [_divexact_int(a, p) if a else 0 for a in acc]
    return out


def rref(rows):
    """Reduced row echelon form, zero rows last; returns (rows, pivots):
    `_back_substitute` at every column, over the last pivot d."""
    pivots, u, _, d = echelon([_primitive(row) for row in rows])
    ncols = len(u[0]) if u else 0
    reduced = _back_substitute(u, pivots, d, range(ncols))
    reduced += [[0] * ncols for _ in range(len(u) - len(pivots))]
    zero = Fraction(0)
    return [[Fraction(x, d) if x else zero for x in row] for row in reduced], pivots


def rank(rows):
    """The number of `echelon` pivots of the primitive rows: no
    back-substitution, and no `Fraction` built."""
    return len(echelon([_primitive(row) for row in rows])[0])


# the modulus of `nullspace`'s modular pass, the Mersenne prime 2^127 - 1
_P = (1 << 127) - 1
# Wang's bound: a residue mod _P is n/d for at most one fraction with |n|
# and d at most _BOUND, since 2 _BOUND^2 < _P
_BOUND = isqrt(_P >> 1)


def nullspace(rows, ncols):
    """Basis of the right kernel, one canonical vector per free column: 1 at
    its own free column, 0 at the other free columns.  The basis depends only
    on the kernel, not on the rows that cut it out, and each vector's free
    column is its last nonzero entry.  A row is a list of `ncols` ints or
    Fractions, or a dict {column: entry} such as `shift_rows` writes.

    The kernel is found modulo the prime p = `_P` (`_modular_nullspace`)
    and proved over Q; whatever the modular pass cannot prove is solved
    again by the exact Bareiss path (`_bareiss_nullspace`), so an unlucky
    prime costs time, never a wrong answer.  The proof: the rank mod p is
    the size of a minor that is nonzero mod p, hence nonzero over Z, so
    rank_Q >= rank_p.  With no free column mod p the kernel is empty.
    Otherwise the canonical kernel vector mod p of free column f is 1 at
    f, 0 at the other free columns and supported on the pivot columns
    below f.  Its rational reconstruction is checked against every row
    exactly, over Z; a vector that passes shows that column f is a
    combination of the columns before it, so f is free over Q too.  When
    every free column passes, the kernel over Q has at least as many
    dimensions as mod p, and by the rank bound at most as many: the free
    columns agree, and each checked vector is the unique kernel vector
    that is 1 at its free column and 0 at the others, the canonical one.
    So the output is that of the Bareiss path."""
    basis = _modular_nullspace(rows, ncols)
    return _bareiss_nullspace(rows, ncols) if basis is None else basis


def _bareiss_nullspace(rows, ncols):
    """`nullspace` by `echelon` over the primitive rows.  Only the free
    columns of d * RREF are back-substituted, and a system without a free
    column stops after `echelon`."""
    pivots, u, _, d = echelon([_primitive(_dense(row, ncols)) for row in rows])
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    if not free:
        return []
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        basis.append(v)
    for pc, row in zip(pivots, _back_substitute(u, pivots, d, free)):
        for v, x in zip(basis, row):
            if x:
                v[pc] = Fraction(-x, d)
    return basis


def _dense(row, ncols):
    """A `nullspace` row as a list: a dict row is 0 where it has no entry."""
    if not isinstance(row, dict):
        return row
    out = [0] * ncols
    for j, x in row.items():
        out[j] = x
    return out


def _sparse(row):
    """(columns, values) of the entries of a `nullspace` row, the values
    integers on the row's line; a list row gives its nonzero entries."""
    if isinstance(row, dict):
        cols, vals = list(row), list(row.values())
    else:
        cols, vals = list(compress(count(), row)), list(compress(row, row))
    if {*map(type, vals)} - {int}:  # clear the denominators
        d = lcm(*(x.denominator for x in vals))
        vals = [x.numerator * (d // x.denominator) for x in vals]
    return cols, vals


def _echelon_mod_p(srows):
    """{pivot column: [(column, entry), ...]}, the echelon rows mod p of
    the sparse integer rows `srows`, each scaled to 1 at its pivot column
    (left out) and holding only columns right of it.

    The rows are inserted one at a time, each reduced by the pivot rows it
    meets, in increasing column order (a sorted queue, since a reduction
    fills in columns to the right), and its first nonzero column becomes a
    pivot.  The rows so far span what the inserted rows span, so the pivot
    columns are those of the reduced row echelon form, whatever the
    insertion order; rows are inserted by their last nonzero column, which
    keeps the fill of banded systems small.  A row that reduces to one
    entry puts e_c in the span: column c vanishes on the kernel, and later
    rows drop their entries there instead of reducing by it.  The window
    systems are mostly such rows."""
    piv, zero = {}, set()
    for cols, vals in sorted(srows, key=lambda r: max(r[0], default=-1)):
        r = {j: x for j, x in zip(cols, vals) if j not in zero and x % _P}
        todo = sorted(j for j in r if j in piv)
        while todo:
            c = todo.pop(0)
            a = r.pop(c, 0)  # 0: c was queued twice
            if not a:
                continue
            for j, y in piv[c]:
                x = r.get(j)
                if x is None:
                    r[j] = -a * y % _P
                    if j in piv:
                        insort(todo, j)
                elif x := (x - a * y) % _P:
                    r[j] = x
                else:
                    del r[j]
        if len(r) == 1:
            c, = r
            piv[c] = []
            zero.add(c)
        elif r:
            c = min(r)
            inv = pow(r.pop(c), -1, _P)
            piv[c] = [(j, x * inv % _P) for j, x in r.items()]
    return piv


def _reduce_int(piv, r, todo=None):
    """The sparse integer vector r, a dict {position: int}, reduced in place
    by the echelon vectors `piv` at the positions `todo` (by default every
    pivot r meets) and at every pivot a reduction fills in, then made
    primitive: content 1 and a positive entry at its first position.
    `piv` is {pivot: (entry, [(position, entry), ...])}, as `_insert_int`
    builds it.

    The positions are taken in increasing order, a sorted queue as in
    `_echelon_mod_p`: the vector of pivot c is zero left of c, so a step
    fills in only positions to the right.  Each step is fraction-free and
    exact, r <- (p r - a b) / g for the vector b with entry p at c, r's
    entry a there and g = gcd(a, p); it clears position c and keeps r in
    the same coset of the span of `piv`, up to a nonzero factor."""
    todo = sorted(c for c in r if c in piv) if todo is None else sorted(todo)
    while todo:
        c = todo.pop(0)
        a = r.pop(c, 0)  # 0: c was queued twice
        if not a:
            continue
        p, b = piv[c]
        g = gcd(a, p)
        a, p = a // g, p // g
        if p != 1:
            for j in r:
                r[j] *= p
        for j, y in b:
            x = r.get(j)
            if x is None:
                r[j] = -a * y
                if j in piv:
                    insort(todo, j)
            elif x := x - a * y:
                r[j] = x
            else:
                del r[j]
    if r:
        g = gcd(*r.values())
        if r[min(r)] < 0:
            g = -g
        if g != 1:
            for j in r:
                r[j] //= g
    return r


def _insert_int(piv, r):
    """Reduce the sparse integer vector r (`_reduce_int`) at every pivot of
    `piv` it meets, and make what is left a new pivot at its first
    position; return that position, or None when r lies in the span of
    `piv`.  The pivots so far are then an echelon basis of the span of the
    vectors inserted: each is zero left of its pivot and at every pivot
    inserted before it, so a nonzero combination of them is nonzero at the
    first pivot it uses, and a vector reduced at every pivot is zero only
    when it lies in the span."""
    _reduce_int(piv, r)
    if not r:
        return None
    c = min(r)
    piv[c] = (r.pop(c), list(r.items()))
    return c


def _rational(a):
    """(n, d) with n = a d mod p, |n| <= _BOUND and 0 < d <= _BOUND, or
    None when there is none: the extended Euclidean algorithm on (p, a),
    stopped at the first remainder within the bound (Wang, Guy and
    Davenport, SIGSAM Bull. 16, 1982)."""
    r0, r1, t0, t1 = _P, a, 0, 1
    while r1 > _BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    return (r1, t1) if t1 <= _BOUND else None


def _lift(v, f, ncols, D):
    """(num, D') with num / D' a rational vector congruent mod p to the
    vector that is 1 at f and v[c] at each column c of the dict v, or
    None.  D' is a multiple of the denominator D: each entry times the
    current D is kept when it is within the bound, and otherwise
    reconstructed (`_rational`), its denominator joining D'."""
    num = [0] * ncols
    num[f] = D
    for c, x in v.items():
        y = x * D % _P
        if y > _P >> 1:
            y -= _P
        if -_BOUND <= y <= _BOUND:
            num[c] = y
            continue
        nd = _rational(y % _P)
        if nd is None:
            return None
        n, d = nd
        D *= d
        if D > _BOUND:
            return None
        num = [x * d for x in num]
        num[c] = n
    return num, D


def _modular_nullspace(rows, ncols):
    """The canonical kernel basis of `nullspace`, proved as its docstring
    says, or None where the proof fails.

    The rows are cleared of denominators (`_sparse`) and eliminated mod p
    (`_echelon_mod_p`).  Back-substitution from the last pivot up gives
    every free column's kernel vector mod p at once.  Each is lifted to Q
    (`_lift`), the free columns taken from the last, with the common
    denominator carried from one vector to the next, since a denominator
    found for one vector often covers the next; a vector that does not
    lift with the carried denominator is lifted afresh.  Each lifted vector
    num / D is then checked over Z, A num = 0, on the rows that meet its
    support: every other row is 0 on it."""
    srows = [_sparse(row) for row in rows]
    piv = _echelon_mod_p(srows)
    if len(piv) == ncols:
        return []
    # ker[c][f]: entry c of free column f's kernel vector mod p, nonzero
    # entries only, from the last pivot up
    ker = {}
    for c in sorted(piv, reverse=True):
        acc = {}
        for j, y in piv[c]:
            kj = ker.get(j)
            if kj is None:  # j is free
                acc[j] = acc.get(j, 0) - y
            else:
                for f, z in kj.items():
                    acc[f] = acc.get(f, 0) - y * z
        ker[c] = {f: y for f, x in acc.items() if (y := x % _P)}
    lifted, D = [], 1
    for f in range(ncols - 1, -1, -1):
        if f in piv:
            continue
        v = {c: kc[f] for c, kc in ker.items() if f in kc}
        out = _lift(v, f, ncols, D) or _lift(v, f, ncols, 1)
        if out is None:
            return None
        lifted.append(out)
        D = out[1]
    meets = [[] for _ in range(ncols)]  # meets[j]: the rows with an entry at j
    for row in srows:
        for j in row[0]:
            meets[j].append(row)
    for num, _ in lifted:
        met = {id(row): row for j in compress(count(), num) for row in meets[j]}
        for cols, vals in met.values():
            if sum(map(mul, vals, map(num.__getitem__, cols))):
                return None
    zero = Fraction(0)
    return [[Fraction(x, D) if x else zero for x in num] for num, D in reversed(lifted)]


def shift_rows(cols, shifts, scale):
    """Linearize x |-> sum_b sum_j x_(b, j) scale^j z^j col_b, where each
    col_b is a vector of Laurent polynomials and j runs over the range
    `shifts`; unknown (b, j) is column b * len(shifts) + j - shifts[0].  The
    coefficient a of z^e in component i of col_b lands in row (i, e + j),
    column (b, j).  Returns (unit, rows): rows is {(component, exponent):
    row}, one row per coefficient some unknown touches, sorted by
    (component, exponent), and each row is the map's row times the integer
    `unit`, written sparse: a dict {column: int} of its nonzero cells.

    With scale = u/v in lowest terms, den the lcm of the denominators
    `f.den` of the column entries, j0 = min(shifts[0], 0) and
    j1 = max(shifts[-1], 0), the cell a scale^j of an entry's coefficient
    a = n / f.den is written as the integer n (den / f.den) u^(j - j0)
    v^(j1 - j), and unit = den v^j1 u^(-j0): entries are read as their
    integer numerators, with no `Fraction` formed.  Solvers make each row
    primitive, so the scaling costs their elimination nothing."""
    width = len(shifts)
    u, v = scale.numerator, scale.denominator
    j0, j1 = min(shifts[0], 0), max(shifts[-1], 0)
    powers = [u ** (j - j0) * v ** (j1 - j) for j in shifts]
    den = lcm(*(f.den for col in cols for f in col))
    rows = {}
    for b, col in enumerate(cols):
        for i, f in enumerate(col):
            factor = den // f.den
            for e, n in enumerate(f.nums, f.lo):
                if not n:
                    continue
                a = n * factor
                for t, (j, p) in enumerate(zip(shifts, powers), b * width):
                    row = rows.get((i, e + j))
                    if row is None:
                        row = rows[(i, e + j)] = {}
                    row[t] = a * p
    return den * v**j1 * u**-j0, dict(sorted(rows.items()))


def charpoly(a) -> LaurentPoly:
    """det(z*I - a) as a Laurent polynomial in z, by Hessenberg reduction
    over Q (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.2.9): O(n^3) field operations.

    Exact similarity transforms bring a to upper Hessenberg form h.  For
    each column j the first nonzero entry below the diagonal is swapped,
    row and column together, to row j + 1, and the entries under it are
    cleared, each row operation followed by its inverse on the columns.  A
    column with nothing below the diagonal is skipped: h is block
    triangular there.  The characteristic polynomials p_m of the leading
    m x m blocks then satisfy (1-indexed) p_0 = 1 and
        p_m = (z - h_mm) p_(m-1)
              - sum_i (h_(m,m-1) ... h_(m-i+1,m-i)) h_(m-i,m) p_(m-i-1),
    where a term's subdiagonal product stops at its first zero factor.
    Entries become Fractions on entry, so int input stays exact.
    """
    h = [[Fraction(x) for x in row] for row in a]
    n = len(h)
    for j in range(n - 2):
        r = next((i for i in range(j + 1, n) if h[i][j]), None)
        if r is None:
            continue
        if r != j + 1:
            h[r], h[j + 1] = h[j + 1], h[r]
            for row in h:
                row[r], row[j + 1] = row[j + 1], row[r]
        # row_i -= u_i row_(j+1) for every i > j + 1 at once, then the
        # inverse, col_(j+1) += u_i col_i: these row operations commute, and
        # rows past j are zero left of column j
        pivot = h[j + 1]
        tail = [(k, x) for k, x in enumerate(pivot) if x and k >= j]
        us = [(i, h[i][j] / pivot[j]) for i in range(j + 2, n) if h[i][j]]
        for i, u in us:
            row = h[i]
            for k, x in tail:
                row[k] -= u * x
        for row in h:
            row[j + 1] += sum((u * row[i] for i, u in us if row[i]), Fraction(0))
    polys = [[Fraction(1)]]
    for m in range(n):
        # (z - h[m][m]) p_m, then the terms that reach up column m
        prev = polys[m]
        p = [Fraction(0)] + prev
        for k, x in enumerate(prev):
            p[k] -= h[m][m] * x
        t = Fraction(1)
        for i in range(1, m + 1):
            t *= h[m - i + 1][m - i]
            if not t:
                break
            f = t * h[m - i][m]
            if f:
                for k, x in enumerate(polys[m - i]):
                    p[k] -= f * x
        polys.append(p)
    return LaurentPoly(0, polys[n])


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


def _deflate(ints, r, b):
    """The quotient of the integer polynomial `ints` (constant term first) by
    b*z - r over Z, or None when b*z - r does not divide it."""
    out, acc = [], 0
    for c in reversed(ints[1:]):
        # c = b * (this quotient coefficient) - r * (the one above it)
        acc, rem = divmod(c + r * acc, b)
        if rem:
            return None
        out.append(acc)
    return out[::-1] if ints[0] + r * acc == 0 else None


def rational_roots(p: LaurentPoly):
    """All rational roots with multiplicity, plus the degree left unsplit.

    Returns (sorted [(root, multiplicity)], remaining_degree).  Root 0 comes
    from a positive valuation; the rest from the rational root theorem on
    the primitive integer polynomial, each divided out once found.  By
    Gauss's lemma the quotient by b*z - r is primitive with end coefficients
    dividing the old ones, so the candidates only shrink.  Cauchy's bounds
    skip the pairs that cannot be roots, so the walk finds the same roots
    in the same order.  SearchExhausted when factoring an end coefficient
    needs a trial divisor above TRIAL_DIVISION_LIMIT.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    roots = []
    if p.bot > 0:
        roots.append((Fraction(0), p.bot))
    # the primitive part of p: its integer numerators (nonzero ends) over
    # their gcd
    content = gcd(*p.nums)
    ints = [n // content for n in p.nums]
    nums, dens = _divisors(ints[0]), _divisors(ints[-1])
    while len(ints) > 1:
        at_one, at_minus_one = sum(ints), sum(ints[::2]) - sum(ints[1::2])
        # Cauchy's bound on the roots and on their reciprocals: a root r/b
        # has |r|*lead <= b*(lead + max|lower|) and b*low <= |r|*(low +
        # max|higher|), so for each b only a slice of the sorted nums is tried
        low, lead = abs(ints[0]), abs(ints[-1])
        up, down = lead + max(map(abs, ints[:-1])), low + max(map(abs, ints[1:]))
        cands = (
            (r, b)
            for b in dens
            for a in nums[
                bisect_left(nums, -(-b * low // down)):bisect_right(nums, b * up // lead)
            ]
            if gcd(a, b) == 1
            for r in (a, -a)
        )
        # a root r/b in lowest terms makes b*z - r a factor over Z, so
        # b - r divides P(1) and b + r divides P(-1)
        root = next(
            (
                (r, b) for r, b in cands
                if _divides(b - r, at_one) and _divides(b + r, at_minus_one)
                and _deflate(ints, r, b) is not None
            ),
            None,
        )
        if root is None:
            break
        mult = 0
        while (quotient := _deflate(ints, *root)) is not None:
            ints, mult = quotient, mult + 1
        roots.append((Fraction(*root), mult))
        nums = [a for a in nums if ints[0] % a == 0]
        dens = [b for b in dens if ints[-1] % b == 0]
    return sorted(roots), len(ints) - 1


def jordan_structure_constant(a):
    """Jordan data [(eigenvalue, size), ...] of an exact rational matrix,
    sorted by (eigenvalue, -size).  NonSplitSpectrum if the characteristic
    polynomial has an irreducible factor of degree >= 2 over Q.

    The number of blocks of size >= k of an eigenvalue lam is
    rank B^(k-1) - rank B^k for B = v d (a - lam I), d the lcm of the
    denominators of a and v that of lam: an integer matrix whose powers
    have the ranks of those of a - lam I.  The rows of B^(k+1) span what
    R B spans, R the pivot rows of the echelon form of B^k, so each rank is
    one product R B and one `echelon`, and no power is formed.  No block is
    longer than the multiplicity m, so rank B^m = n - m and the chain stops
    there at the latest.  CertificateFailure if the blocks found do not
    cover the multiplicity."""
    n = len(a)
    roots, remaining = rational_roots(charpoly(a))
    if remaining:
        raise NonSplitSpectrum(
            f"characteristic polynomial has a non-split factor of degree {remaining}"
        )
    d = lcm(*(x.denominator for row in a for x in row))
    ints = [[x.numerator * (d // x.denominator) for x in row] for row in a]
    blocks = []
    for lam, mult in roots:
        u, v = lam.numerator, lam.denominator
        b = [[v * x - u * d if i == j else v * x for j, x in enumerate(row)]
             for i, row in enumerate(ints)]
        cols = list(zip(*b))
        ranks, rows = [n], b
        while ranks[-1] > n - mult and len(ranks) <= mult:
            pivots, reduced, _, _ = echelon([_primitive(row) for row in rows])
            ranks.append(len(pivots))
            rows = [[sum(x * y for x, y in zip(r, col)) for col in cols]
                    for r in reduced[: len(pivots)]]
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
