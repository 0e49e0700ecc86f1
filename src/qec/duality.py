"""Duality for cyclic modules with sigma-good generators.

For normalized p = p_0(z) + p_1(z) s + ... + s^t (p_0 a unit) the dual module
is again cyclic with sigma-good generator

    r = eps(p) * p_0^{-1} = sum_i s^{-i} p_i(z) p_0(z)^{-1},

where eps is the anti-automorphism fixing z and inverting s.  The machinery
here produces r, the pairing values <f, s^k e> of the dual generator against
the cyclic basis (by an exact two-sided recurrence), the closed form for
those values as signed composition sums, and executable certificates:
unitriangularity of the pairing table, vanishing of r applied to f, the
partition identities, and recovery of p (up to an explicit unit conjugation)
under a second dual.
"""

from __future__ import annotations

from .aq import AqElement, degrees, epsilon, good_normal_coeffs
from .errors import CertificateFailure, PreconditionViolation, SearchExhausted
from .laurent import ONE, ZERO, LaurentPoly, qshift
from .scalars import get_q


class GoodNormalForm:
    """Coefficients [p_0, ..., p_{t-1}] of a monic normalized generator;
    the top coefficient s^t is implicit and p_0 is a unit.  `_sums` memoizes
    the composition totals of `_composition_total` by (q, n), q as the pair
    (numerator, denominator), which hashes faster than the Fraction."""

    __slots__ = ("coeffs", "_sums")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs or not coeffs[0].is_unit():
            raise PreconditionViolation("normal form needs a unit p_0")
        self.coeffs = coeffs
        self._sums = {}

    @property
    def t(self):
        return len(self.coeffs)

    @property
    def p0(self):
        return self.coeffs[0]

    def coeff(self, i) -> LaurentPoly:
        """p_i for 0 <= i <= t (p_t = 1)."""
        if i == self.t:
            return ONE
        return self.coeffs[i]

    def element(self) -> AqElement:
        x = AqElement({i: f for i, f in enumerate(self.coeffs)})
        return x + AqElement.sigma(self.t)

    def __eq__(self, other):
        return isinstance(other, GoodNormalForm) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"GoodNormalForm({self.element()})"


def normalize_good(p: AqElement):
    """(u, nf) with u a unit and u*p the monic normal form nf."""
    u, coeffs = good_normal_coeffs(p)
    nf = GoodNormalForm(coeffs)
    if u * p != nf.element():
        raise CertificateFailure(f"unit times {p} is not its normal form")
    return u, nf


def good_dual(p: AqElement):
    """(r, Good(r)) presenting the dual module; deg_z and z-goodness carry
    over from p, and the width is unchanged."""
    from .modules import Good

    _, nf = normalize_good(p)
    p0inv = AqElement.from_laurent(nf.p0.inverse_unit())
    r = epsilon(nf.element()) * p0inv
    dp, dr = degrees(p), degrees(r)
    if (dr.deg_sigma, dr.deg_z) != (dp.deg_sigma, dp.deg_z):
        raise CertificateFailure(f"dual generator {r} changed the widths of {p}")
    if not dr.sigma_good:
        raise CertificateFailure(f"dual generator {r} is not sigma-good")
    return r, Good(r)


# -- pairing values ------------------------------------------------------------


class PairingTable:
    """Values a_s = <f, s^s e> for the dual generator f, extended both ways
    by the recurrence 0 = sum_i p_{t-i}(q^{s-t} z) a_{s-i} (s in Z); `_a`
    memoizes them per ambient q, keyed by q's (numerator, denominator)."""

    __slots__ = ("nf", "_a")

    def __init__(self, nf: GoodNormalForm):
        self.nf = nf
        self._a = {}

    def value(self, s: int) -> LaurentPoly:
        t = self.nf.t
        q = get_q()
        key = q.numerator, q.denominator
        a = self._a.get(key)
        if a is None:
            a = self._a[key] = {0: ONE, **dict.fromkeys(range(1, t), ZERO)}
        if s >= t:
            for m in range(max(a) + 1, s + 1):
                total = ZERO
                for i in range(1, t + 1):
                    total = total + qshift(self.nf.coeff(t - i), m - t) * a[m - i]
                a[m] = -total
        else:
            for m in range(min(a) - 1, s - 1, -1):
                # solve the recurrence at s' = m + t for the bottom term
                total = ZERO
                for i in range(t):
                    total = total + qshift(self.nf.coeff(t - i), m) * a[m + t - i]
                a[m] = -qshift(self.nf.p0, m).inverse_unit() * total
        return a[s]

    def table(self):
        """t x t matrix <s^{i-1} f, s^{j-1} e> = qshift(a_{j-i}, i-1);
        lower unitriangular by construction of f."""
        t = self.nf.t
        return [
            [qshift(self.value(j - i), i) for j in range(t)] for i in range(t)
        ]

    def is_unitriangular(self) -> bool:
        t = self.nf.t
        tab = self.table()
        for i in range(t):
            if tab[i][i] != ONE:
                return False
            for j in range(i + 1, t):
                if not tab[i][j].is_zero():
                    return False
        return True

    def annihilation_sum(self, s: int) -> LaurentPoly:
        """<r f, s^s e> read off this table; see `annihilation_sum`."""
        nf = self.nf
        p0inv = nf.p0.inverse_unit()
        total = LaurentPoly.zero()
        for i in range(nf.t + 1):
            total = total + qshift(nf.coeff(i) * p0inv * self.value(s + i), -i)
        return total


# -- composition sums and the closed form ---------------------------------------


def composition_sums(t: int, s: int):
    """Ordered tuples over [1..t] summing to s (empty list for s < 0, the
    empty tuple alone for s = 0)."""
    if s < 0:
        return []
    if s == 0:
        return [()]
    out = []
    for first in range(1, min(t, s) + 1):
        for rest in composition_sums(t, s - first):
            out.append((first,) + rest)
    return out


def pi_product(nf: GoodNormalForm, x) -> LaurentPoly:
    """(-1)^k prod_j p_{t - x_j}(q^{x_1 + ... + x_j} z)."""
    total = ONE
    acc = 0
    for xj in x:
        acc += xj
        total = total * qshift(nf.coeff(nf.t - xj), acc)
    return -total if len(x) % 2 else total


def _composition_total(nf: GoodNormalForm, n: int) -> LaurentPoly:
    """sum_{X(t, n)} Pi_x, enumerated once per normal form and ambient q."""
    q = get_q()
    key = (q.numerator, q.denominator, n)
    total = nf._sums.get(key)
    if total is None:
        total = LaurentPoly.zero()
        for x in composition_sums(nf.t, n):
            total = total + pi_product(nf, x)
        nf._sums[key] = total
    return total


def closed_form_value(nf: GoodNormalForm, s: int) -> LaurentPoly:
    """For s >= t: <f, s^s e> = -p_0 * sum over composition_sums(t, s-t)."""
    if s < nf.t:
        raise PreconditionViolation("closed form applies to s >= t")
    return -(nf.p0 * _composition_total(nf, s - nf.t))


def right_partition_sum(nf: GoodNormalForm, s: int) -> LaurentPoly:
    """sum_i p_{t-i}(q^s z) * sum_{X(t, s-i)} Pi_x; vanishes for s > 0."""
    total = LaurentPoly.zero()
    for i in range(nf.t + 1):
        total = total + qshift(nf.coeff(nf.t - i), s) * _composition_total(nf, s - i)
    return total


def left_partition_sum(nf: GoodNormalForm, s: int) -> LaurentPoly:
    """sum_i p_{t-i}(q^i z) * (sum_{X(t, s-i)} Pi_x)(q^i z); vanishes for
    s > 0."""
    total = LaurentPoly.zero()
    for i in range(nf.t + 1):
        inner = _composition_total(nf, s - i)
        total = total + qshift(nf.coeff(nf.t - i), i) * qshift(inner, i)
    return total


def annihilation_sum(nf: GoodNormalForm, s: int) -> LaurentPoly:
    """<r f, s^s e> = sum_i (p_i / p_0)(q^{-i} z) * a_{s+i}(q^{-i} z); the
    dual generator r kills f, so this vanishes for every s."""
    return PairingTable(nf).annihilation_sum(s)


def dual_certificate(p: AqElement, extra: int = 6) -> bool:
    """Executable certificate of the duality formula on one generator:
    unitriangular pairing table, recurrence = closed form on a sweep,
    both partition identities, and r f = 0 against the table.  Each
    composition total is enumerated once, and every check reads one table."""
    _, nf = normalize_good(p)
    pt = PairingTable(nf)
    if not pt.is_unitriangular():
        return False
    for s in range(nf.t, nf.t + extra + 1):
        if pt.value(s) != closed_form_value(nf, s):
            return False
    for s in range(1, nf.t + extra + 1):
        if not right_partition_sum(nf, s).is_zero():
            return False
        if not left_partition_sum(nf, s).is_zero():
            return False
    for s in range(-(nf.t + extra), nf.t + extra + 1):
        if not pt.annihilation_sum(s).is_zero():
            return False
    return True


# -- double dual -----------------------------------------------------------------


def double_dual_twist(p: AqElement) -> AqElement:
    """The generator the double dual recovers: p conjugated by the unit
    z^{-m_0} s^t, where m_0 is the z-exponent of the normalized p_0.  The
    twist is trivial exactly when t = 1 or all normalized coefficients are
    constant."""
    _, nf = normalize_good(p)
    _, m0 = nf.p0.unit_decompose()
    t = nf.t
    conj = (
        AqElement.sigma(t)
        * AqElement.monomial(1, -m0)
        * nf.element()
        * AqElement.monomial(1, m0)
        * AqElement.sigma(-t)
    )
    return conj


def double_dual_check(p: AqElement) -> bool:
    """Apply good_dual twice and test, by two-sided unit-cofactor division,
    that the result generates the same left ideal as the twist-corrected
    original generator."""
    from .ideals import membership_principal

    r, _ = good_dual(p)
    rr, _ = good_dual(r)
    target = double_dual_twist(p)
    return membership_principal(rr, target) and membership_principal(target, rr)


# -- elements good on both sides --------------------------------------------------


def mixed_good_element(x: AqElement, y: AqElement, n: int) -> AqElement:
    """(s^n + s^-n) x + (z^n + z^-n) y."""
    if n < 1:
        raise PreconditionViolation("n must be positive")
    sn = AqElement.sigma(n) + AqElement.sigma(-n)
    zn = AqElement.monomial(1, n) + AqElement.monomial(1, -n)
    return sn * x + zn * y


def first_mixed_good(x: AqElement, y: AqElement, n_max: int = 32):
    """(p, n) for the least n <= n_max making the mixed element good on both
    sides; SearchExhausted if none is."""
    if x.is_zero() or y.is_zero():
        raise PreconditionViolation("x and y must be nonzero")
    for n in range(1, n_max + 1):
        p = mixed_good_element(x, y, n)
        d = degrees(p)
        if d is not None and d.sigma_good and d.z_good:
            return p, n
    raise SearchExhausted("no two-sided-good mixed element", {"n_max": n_max})
