"""Randomized verification suites over exact instances.

Each suite draws `cases` seeded instances, checks one theorem on each, and
returns a report dict:

    {"suite", "seed", "cases", "passed", "skipped_unknown", "failures"}

Each case `_*_case(rng, ci, bounds)` returns its outcome: None when it
passes, `SKIPPED` when the bounded annihilator search returns Unknown or an
h0 is uncertified, or else a short description of the failure.
`verify_suite` alone counts the outcomes and prefixes each failure with
"case {ci}: ", so skips are counted, never silently folded into passes.
Reports are deterministic functions of (suite, seed, cases).
"""

from __future__ import annotations

import random

from .aq import AqElement, degrees, sigma_divide, to_z_form, z_divide
from .cohomology import cohomology, euler_form
from .duality import dual_certificate, double_dual_check, good_dual
from .errors import PreconditionViolation, UnknownSuite
from .ideals import cyclic_presentation
from .modules import (
    Good,
    MatrixModule,
    Unknown,
    dual,
    rank_A,
    rank_S,
    rigidity_check,
    torsion_tensor_rank_check,
)
from .samples import (
    rand_aq,
    rand_module,
    rand_sigma_good,
    rand_sigma_matrix,
    rand_torsion,
)


# the outcome of a case that cannot be decided: the bounded annihilator
# search returned Unknown, or an h0 is uncertified
SKIPPED = object()


def _division_case(rng, ci, bounds):
    a = rand_aq(rng, 3, 2)
    b = rand_aq(rng, 2, 2)
    z_mode = ci % 2 == 1
    bottom = (ci // 2) % 2 == 1
    da, db = degrees(a), degrees(b)
    key = (lambda d: d.deg_z) if z_mode else (lambda d: d.deg_sigma)
    r, w = (a, b) if key(da) >= key(db) else (b, a)
    dw = degrees(w)
    if z_mode:
        g, h, rem = z_divide(r, w, bottom=bottom)
        lhs = AqElement.from_sigma_poly(g) * r
        small = rem.is_zero() or degrees(rem).deg_z < dw.deg_z
    else:
        g, h, rem = sigma_divide(r, w, bottom=bottom)
        lhs = AqElement.from_laurent(g) * r
        small = rem.is_zero() or degrees(rem).deg_sigma < dw.deg_sigma
    if lhs != h * w + rem:
        return f"identity broken for r={r}, w={w}"
    if not small:
        return f"remainder too large for r={r}, w={w}"
    if z_mode:
        zf_w = to_z_form(w)
        extreme = zf_w[min(zf_w) if bottom else max(zf_w)]
    else:
        sup = w.sigma_support()
        extreme = w.coefficient(sup[0] if bottom else sup[-1])
    if extreme.is_unit() and not g.is_unit():
        return f"unit cofactor expected for w={w}"
    return None


def _riemann_roch_case(rng, ci, bounds):
    M = rand_module(rng, "lltg")
    rep = cohomology(M)
    rk = rank_S(M)
    if not rep.certified:
        return SKIPPED
    if rep.h0 - rep.h1 != rep.chi or rep.chi != -rk:
        return f"h0-h1={rep.h0 - rep.h1} chi={rep.chi} rank_S={rk} for {M!r}"
    return None


def _serre_case(rng, ci, bounds):
    M = rand_module(rng, "lltg")
    Md = dual(M)
    a, b = cohomology(M), cohomology(Md)
    if not a.certified or not b.certified:
        return SKIPPED
    if a.h0 != b.h0 or a.h1 != b.h1:
        return f"(h0,h1)={a.h0, a.h1} vs dual (h0,h1)={b.h0, b.h1} for {M!r}"
    return None


def _euler_symmetry_case(rng, ci, bounds):
    M = rand_module(rng, "lltg")
    N = rand_module(rng, "lltg")
    x = euler_form(M, N)
    y = euler_form(N, M)
    if x != y:
        return f"chi(M,N)={x} chi(N,M)={y} for {M!r}, {N!r}"
    return None


def _chi_rank_case(rng, ci, bounds):
    M = rand_module(rng, "ltgm")
    if isinstance(M, MatrixModule) and M.n > 2:
        M = rand_torsion(rng)
    rep = cohomology(M)
    # chi comes from the slopes; a matrix module's rank_S from the bounded
    # annihilator search, so the check compares two routes
    if isinstance(M, MatrixModule):
        found = cyclic_presentation(M, bounds)
        if found is None:
            return SKIPPED
        rk = found.rank_S
    else:
        rk = rank_S(M)
    if not rep.certified:
        return SKIPPED
    if rep.chi != -rk:
        return f"chi={rep.chi} rank_S={rk} for {M!r}"
    if rep.h0 > rank_A(M):
        return f"h0={rep.h0} exceeds rank_A={rank_A(M)} for {M!r}"
    if (rep.chi == 0) != (rk == 0):
        return f"chi={rep.chi} but rank_S={rk} for {M!r}"
    return None


def _tensor_rank_case(rng, ci, bounds):
    if rng.random() < 0.5:
        N = rand_module(rng, "l")
    else:
        N = Good(rand_sigma_good(rng, t_max=1))
    M = rand_torsion(rng, max_blocks=1, max_size=2)
    lhs, rhs = torsion_tensor_rank_check(N, M, bounds)
    if isinstance(lhs, Unknown):
        return SKIPPED
    if lhs != rhs:
        return f"search rank {lhs} != closed form {rhs} for {N!r} x {M!r}"
    return None


def _duality_case(rng, ci, bounds):
    p = rand_sigma_good(rng, t_max=3)
    r, D = good_dual(p)
    dp, dr = degrees(p), degrees(r)
    if dr.deg_z != dp.deg_z or dr.z_good != dp.z_good:
        return f"degree data not preserved for p={p}"
    if rank_A(D) != dp.deg_sigma or rank_S(D) != dp.deg_z:
        return f"dual ranks off for p={p}"
    if not dual_certificate(p, extra=3):
        return f"pairing certificate failed for p={p}"
    if not double_dual_check(p):
        return f"double dual failed for p={p}"
    return None


def _rigidity_case(rng, ci, bounds):
    roll = rng.random()
    if roll < 0.4:
        M = rand_sigma_matrix(rng, n_max=3)
    else:
        M = rand_module(rng, "ltg")
    if not rigidity_check(M):
        return f"rigidity failed for {M!r}"
    return None


_SUITES = {
    "division": _division_case,
    "riemann_roch": _riemann_roch_case,
    "serre": _serre_case,
    "euler_symmetry": _euler_symmetry_case,
    "chi_rank": _chi_rank_case,
    "tensor_rank": _tensor_rank_case,
    "duality_rank": _duality_case,
    "rigidity": _rigidity_case,
}


def suite_names():
    return sorted(_SUITES)


def verify_suite(name: str, cases: int = 100, seed: int = 0, bounds=None) -> dict:
    """Run one named suite and return its report dict."""
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {suite_names()}")
    if cases < 0:
        raise PreconditionViolation(f"cases must be >= 0, got {cases}")
    rng = random.Random(seed)
    case = _SUITES[name]
    outcomes = [case(rng, ci, bounds) for ci in range(cases)]
    return {
        "suite": name,
        "seed": seed,
        "cases": cases,
        "passed": outcomes.count(None),
        "skipped_unknown": outcomes.count(SKIPPED),
        "failures": [
            f"case {ci}: {o}" for ci, o in enumerate(outcomes) if o not in (None, SKIPPED)
        ],
    }
