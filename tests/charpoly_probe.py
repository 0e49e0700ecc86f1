"""The line-subbundle probe by the characteristic polynomial of the
in-window map: the route `ideals.line_subbundle_probe` took before its
candidate scalars came from the Cramer relation of the dual, kept as the
differential oracle of the probe.

A solution of T(z) v(qz) = c z^k v(z) supported in the window satisfies
the in-window equations A v = c v, A the n(2W + 1)-square map whose rows
are those of v |-> z^-k T(z) v(qz) at the window's own exponents; so every
scalar with a solution in the window is a nonzero rational eigenvalue of A,
and each is solved by the shared window solver."""

from fractions import Fraction

from qec.linalg import charpoly, rational_roots
from qec.modules import _window_keys, _window_rows, slopes, window_eigenspace


def charpoly_probe(T, k_range, window):
    """The probe's answer, sorted by (k, c), with each vector scaled to a
    leading coefficient of one."""
    at_inf, at_zero = slopes(T)
    ends = {lam for lam, _ in at_inf} & {lam for lam, _ in at_zero}
    k_range = [k for k in dict.fromkeys(k_range) if k in ends]
    if not k_range:
        return []
    unit, rows = _window_rows(T, window)
    results = []
    for k in k_range:
        keys = _window_keys(T.n, window, k)
        A = [[0] * len(keys) for _ in keys]
        for a, key in zip(A, keys):
            for t, x in rows.get(key, {}).items():
                a[t] = Fraction(x, unit)
        for c, _ in rational_roots(charpoly(A))[0]:
            if c == 0:
                continue
            for vec in window_eigenspace(T, window, k, c):
                lead = next(f.coeff(f.lo) for f in vec if not f.is_zero())
                results.append((c, k, tuple(f * (1 / lead) for f in vec)))
    results.sort(key=lambda t: (t[1], t[0]))
    return results
