"""The three workloads: request kinds, their inputs and their checks.

A request is a closure the timed loop calls once (`run`), plus a check the
harness calls afterwards, outside the timed region (`check`).  A check returns
(ok, certified): ok is False when the answer contradicts what the mathematics
or the recorded golden output fixes; certified is True when the answer is
exact and certified rather than Unknown or certified=False.

Each workload is a sequence of cycles.  A cycle sends every request kind
equally often, so every cycle costs about the same; the seed draws the
inputs of each cycle and their order.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import inputs
import oracle
from qec import aq, cli, duality, ideals, laurent, modules
from qec.cohomology import cohomology
from qec.errors import SearchExhausted

GOLDEN_PATH = Path(__file__).with_name("golden.json")
Q_VALUES = (Fraction(2), Fraction(3), Fraction(-1, 2))
Q_TEXT = {Fraction(2): "2", Fraction(3): "3", Fraction(-1, 2): "-1/2"}


class Request:
    __slots__ = ("kind", "q", "budget", "run", "check")

    def __init__(self, kind, q, budget, run, check):
        self.kind = kind
        self.q = q
        self.budget = budget
        self.run = run
        self.check = check


def _elem(x):
    return {(j, i): c for j, i, c in x.monomials()}


def _poly(f):
    return dict(f.terms())


def _interleave(rng, groups):
    """Spread each kind evenly over the cycle (a seeded random offset per
    kind), so that any stretch of a cycle has about the cycle's mix."""
    slots = []
    for reqs in groups:
        off = rng.random()
        slots.extend(((i + off) / len(reqs), rng.random(), r) for i, r in enumerate(reqs))
    slots.sort(key=lambda t: (t[0], t[1]))
    return [r for _, _, r in slots]


# -- algebra --------------------------------------------------------------------

ALGEBRA_BUDGET = 2.0
# the workload's request kinds, each sent equally often
ALGEBRA_KINDS = (
    "mul",
    "sigma_divide",
    "z_divide",
    "epsilon",
    "fourier",
    "det_and_inverse",
    "good_dual",
    "to_str",
)
# requests of each kind at each q in a cycle; divisions alternate between
# dividing from the top and from the bottom
ALGEBRA_PER_KIND_Q = 12


class Algebra:
    """Ring-level requests on inputs parsed once at set-up."""

    name = "algebra"

    def __init__(self, seed):
        rng = random.Random(f"algebra-pool-{seed}")
        self.seed = seed
        # every seed gets the same count of each size class; sizes drawn
        # freely made the mean request cost depend on the seed
        self.general = [
            self._parsed(inputs.rand_element(rng, i % 4, i // 4 % 4, exact=True))
            for i in range(240)
        ]
        self.good = [
            self._parsed(inputs.rand_sigma_good(rng, 1 + i % 3, 1 + i % 3))
            for i in range(120)
        ]
        self.both = self.general + self.good
        self.matrices = []
        for i in range(48):
            t, det = inputs.unit_det_matrix(rng, 2 + i % 2)
            strs = [[inputs.laurent_expr(e) for e in row] for row in t]
            self.matrices.append((laurent.LaurentMatrix.from_strs(strs), t, det))

    @staticmethod
    def _parsed(x):
        return aq.parse(inputs.element_expr(x)), x

    def warmup(self):
        rng = random.Random(f"algebra-warmup-{self.seed}")
        return [
            self._request(rng, kind, q, i)
            for kind in ALGEBRA_KINDS
            for q in Q_VALUES
            for i in range(2)
        ]

    def cycle(self, index):
        rng = random.Random(f"algebra-cycle-{self.seed}-{index}")
        groups = [
            [self._request(rng, kind, q, i) for q in Q_VALUES for i in range(ALGEBRA_PER_KIND_Q)]
            for kind in ALGEBRA_KINDS
        ]
        return _interleave(rng, groups)

    def _request(self, rng, kind, q, index):
        make = getattr(self, "_" + kind)
        if kind.endswith("_divide"):
            run, check = make(rng, q, bottom=index % 2 == 1)
        else:
            run, check = make(rng, q)
        return Request(kind, q, ALGEBRA_BUDGET, run, check)

    def _mul(self, rng, q):
        (x, ox), (y, oy) = rng.choice(self.general), rng.choice(self.general)
        return (lambda: x * y), (lambda out: (_elem(out) == oracle.aq_mul(ox, oy, q), True))

    def _pair(self, rng, width):
        a, b = rng.choice(self.general), rng.choice(self.both)
        return (a, b) if width(a[1]) >= width(b[1]) else (b, a)

    def _sigma_divide(self, rng, q, bottom):
        (r, orr), (w, ow) = self._pair(rng, oracle.s_width)
        ext = oracle.sigma_extreme(ow, bottom)

        def check(out):
            g, h, rem = out
            og, orem = {(e, 0): c for e, c in g.terms()}, _elem(rem)
            ok = oracle.aq_mul(og, orr, q) == oracle.aq_add(
                oracle.aq_mul(_elem(h), ow, q), orem
            )
            ok = ok and (not orem or oracle.s_width(orem) < oracle.s_width(ow))
            ok = ok and (not oracle.lp_is_unit(ext) or g.is_unit())
            return ok, True

        return (lambda: aq.sigma_divide(r, w, bottom=bottom)), check

    def _z_divide(self, rng, q, bottom):
        (r, orr), (w, ow) = self._pair(rng, oracle.z_width)
        unit_extreme = oracle.z_extreme_is_unit(ow, bottom)

        def check(out):
            g, h, rem = out
            og, orem = {(0, e): c for e, c in g.terms()}, _elem(rem)
            ok = oracle.aq_mul(og, orr, q) == oracle.aq_add(
                oracle.aq_mul(_elem(h), ow, q), orem
            )
            ok = ok and (not orem or oracle.z_width(orem) < oracle.z_width(ow))
            ok = ok and (not unit_extreme or g.is_unit())
            return ok, True

        return (lambda: aq.z_divide(r, w, bottom=bottom)), check

    def _epsilon(self, rng, q):
        x, ox = rng.choice(self.general)

        def run():
            e = aq.epsilon(x)
            return e, aq.epsilon(e)

        def check(out):
            e, back = out
            return _elem(e) == oracle.aq_epsilon(ox, q) and _elem(back) == ox, True

        return run, check

    def _fourier(self, rng, q):
        x, ox = rng.choice(self.general)

        def run():
            first = aq.fourier(x)
            return first, aq.fourier(aq.fourier(aq.fourier(first)))

        def check(out):
            first, back = out
            return _elem(first) == oracle.aq_fourier(ox, q) and _elem(back) == ox, True

        return run, check

    def _det_and_inverse(self, rng, q):
        mat, t, det = rng.choice(self.matrices)

        def check(out):
            d, inv = out
            if _poly(d) != det or inv is None:
                return False, True
            oinv = [[_poly(e) for e in row] for row in inv.rows]
            return oracle.mat_mul(t, oinv) == oracle.identity(len(t)), True

        return (lambda: laurent.det_and_inverse(mat)), check

    def _good_dual(self, rng, q):
        p, op = rng.choice(self.good)
        return (lambda: duality.good_dual(p)), (
            lambda out: (_elem(out[0]) == oracle.good_dual(op, q), True)
        )

    def _to_str(self, rng, q):
        x, ox = rng.choice(self.both)
        return (lambda: aq.to_str(x)), (lambda out: (out == oracle.aq_str(ox), True))


# -- search ------------------------------------------------------------------------

SEARCH_Q = Fraction(2)
PROBE_WINDOW = 10
# the ROADMAP's probe baseline: z - s - s^-1 at window 10 over k in [-4, 4]
PROBE_SWEEP = ("z - s - s^-1", tuple(range(-4, 5)))
# a fixed presentation with a nonempty answer: (descriptor, k)
PROBE_HITS = (
    ({"kind": "line", "c": "3", "m": 2}, 2),
)
# sigma-good generators that are not z-good: cohomology runs the window solver
GOOD_NOT_Z_GOOD = (
    "z - s - s^-1",
    "s - 1 - z + z*s^-1",
    "z + s^2 - s^-1",
    "s^2 - 3*s + 2 + z*s",
    "s^2 - 5*s + 4",
    "s - 2 + z*s^-1 - 2*z",
    "(s - 1)*(z - s - s^-1)",
)
LARGE_PRIMES = (1000000007, 998244353)
# bounds that a z-width-0 search cannot meet for an S-rank >= 1: rank_S
# runs out of them and returns Unknown
TIGHT_BOUNDS = ideals.SearchBounds(deg_sigma=2, deg_z=0, window=12)
# a 3x3 module whose rank_S search under the default bounds runs out of them
# and returns Unknown after about two minutes; it overruns its budget
SLOW_MS = (1, -1, 0)
# answerable request kinds; a cycle sends PER_KIND of each
SEARCH_KINDS = (
    "rank_S",
    "rank_S_unknown",
    "cohomology_good",
    "cohomology_matrix",
    "annihilator",
    "probe",
    "jordan",
    "torsion_tensor",
)
# the length of the fixed probe list, so each cycle probes every entry once
PER_KIND = 10
# 2 s, or 10 s for the kinds whose slowest inputs take seconds
SEARCH_BUDGET = {
    "rank_S": 2.0,
    "rank_S_unknown": 2.0,
    "rank_S_3x3": 2.0,
    "cohomology_good": 10.0,
    "cohomology_matrix": 10.0,
    "annihilator": 10.0,
    "probe": 10.0,
    "jordan": 2.0,
    "torsion_tensor": 2.0,
}


def fixed_probes():
    """(kind, descriptor, k) of every window-10 probe in a search cycle."""
    sweep = {"kind": "good", "p": PROBE_SWEEP[0]}
    probes = [("probe_sweep", sweep, k) for k in PROBE_SWEEP[1]]
    return probes + [("probe", desc, k) for desc, k in PROBE_HITS]


def probe_key(desc, k):
    return f"{json.dumps(desc, sort_keys=True)}|k={k}|w={PROBE_WINDOW}"


def _probe_check(golden, key, mat):
    """(c, k) set against the golden; each vector re-checked exactly:
    T(z) v(qz) = c z^k v(z)."""
    rows = [[_poly(e) for e in row] for row in mat.rows]

    def check(out):
        if [[oracle.scalar_str(c), k] for c, k, _ in out] != golden[key]:
            return False, True
        for c, k, vec in out:
            v = [_poly(f) for f in vec]
            vq = [oracle.lp_qshift(f, 1, SEARCH_Q) for f in v]
            lhs = [
                oracle.lp_sum(oracle.lp_mul(rows[i][j], vq[j]) for j in range(len(v)))
                for i in range(len(v))
            ]
            if lhs != [{e + k: c * a for e, a in f.items()} for f in v]:
                return False, True
        return True, True

    return check


class Search:
    """Module-level queries that run the bounded exact searches.

    A cycle sends PER_KIND requests of every kind in SEARCH_KINDS, then the
    slow 3x3 search and the large-prime tensor once each.  Kinds with fixed
    inputs (the probes, the non-z-good generators) step through their list
    across cycles, and the matrix modules step through S-ranks 0-4 (1-4
    where the answer is Unknown).  The other inputs of cycle i are drawn
    from a generator seeded with i alone, so every run sends the same
    requests and the seed orders them: drawn per seed, a cycle's few slow
    and fast coefficient draws moved p50 by a quarter from seed to seed.
    """

    name = "search"

    def __init__(self, seed, golden):
        self.seed = seed
        self.golden = golden["search"]
        self.probes = fixed_probes()

    def warmup(self):
        rng = random.Random("search-warmup")
        reqs = [self._request(rng, kind, 0) for kind in SEARCH_KINDS if kind != "probe"]
        # a small probe exercises the same code as the window-10 ones
        reqs.append(self._probe(*self.probes[0], window=4))
        return reqs

    def cycle(self, index):
        rng = random.Random(f"search-cycle-{index}")
        groups = [
            [self._request(rng, kind, index * PER_KIND + i) for i in range(PER_KIND)]
            for kind in SEARCH_KINDS
        ]
        groups.append([self._rank_S_3x3(rng), self._large_prime_tensor()])
        return _interleave(random.Random(f"search-order-{self.seed}-{index}"), groups)

    def _request(self, rng, kind, index):
        if kind == "probe":
            return self._probe(*self.probes[index % len(self.probes)])
        run, check = getattr(self, "_" + kind)(rng, index)
        return Request(kind, SEARCH_Q, SEARCH_BUDGET[kind], run, check)

    @staticmethod
    def _rank_S_of(desc, rank_s, bounds=None):
        def check(out):
            if isinstance(out, modules.Unknown):
                ub = out.upper_bound
                return ub is None or ub >= rank_s, False
            return out == rank_s, True

        return (lambda: modules.rank_S(modules.module_from_json(desc), bounds)), check

    def _rank_S(self, rng, index):
        ms = inputs.exponents(rng, index % 5)
        desc, rank_s, _ = inputs.gauge_module(rng, SEARCH_Q, ms=ms)
        return self._rank_S_of(desc, rank_s)

    def _rank_S_unknown(self, rng, index):
        ms = inputs.exponents(rng, 1 + index % 4)
        desc, rank_s, _ = inputs.gauge_module(rng, SEARCH_Q, ms=ms)
        return self._rank_S_of(desc, rank_s, TIGHT_BOUNDS)

    def _rank_S_3x3(self, rng):
        desc, rank_s, _ = inputs.gauge_module(rng, SEARCH_Q, ms=SLOW_MS, a_width=0)
        run, check = self._rank_S_of(desc, rank_s)
        return Request("rank_S_3x3", SEARCH_Q, SEARCH_BUDGET["rank_S_3x3"], run, check)

    def _cohomology_good(self, rng, index):
        base = GOOD_NOT_Z_GOOD[index % len(GOOD_NOT_Z_GOOD)]
        expr = inputs.unit_times(rng, _elem(aq.parse(base)), SEARCH_Q)
        want = self.golden["cohomology_good"][base]

        def check(out):
            got = {k: out.to_json()[k] for k in ("h0", "h1", "chi", "certified")}
            return got == want, out.certified

        return (lambda: cohomology(modules.Good(aq.parse(expr)))), check

    def _cohomology_matrix(self, rng, index):
        ms = inputs.exponents(rng, index % 5)
        desc, rank_s, h0 = inputs.gauge_module(rng, SEARCH_Q, ms=ms)

        def check(out):
            ok = out.h0 <= h0 and (not out.certified or out.h0 == h0)
            if not isinstance(out.h1, modules.Unknown):
                ok = ok and out.h1 == out.h0 + rank_s and out.chi == -rank_s
            return ok, out.certified

        return (lambda: cohomology(modules.module_from_json(desc))), check

    def _annihilator(self, rng, index):
        # Good modules of s-width 1 and 2 in turn; f of s- and z-width <= 1
        width = 1 + index % 2
        pm = inputs.element_expr(inputs.rand_sigma_good(rng, width, width, 1))
        f = inputs.element_expr(inputs.rand_element(rng, 1, 1, 1))

        def run():
            try:
                return ideals.annihilator_in_good(aq.parse(pm), aq.parse(f))
            except SearchExhausted as e:
                return e

        def check(out):
            if isinstance(out, SearchExhausted):
                return True, False
            T = modules.to_matrix(modules.Good(aq.parse(pm)))
            e0 = [laurent.ONE] + [laurent.ZERO] * (T.n - 1)
            v = modules.aq_act(aq.parse(f), T, e0)
            for gen in out.generators:
                if not all(c.is_zero() for c in modules.aq_act(gen, T, v)):
                    return False, True
            return aq.degrees(out.generators[0]).sigma_good, True

        return run, check

    def _jordan(self, rng, index):
        A, blocks = inputs.rand_jordan(rng)
        return (lambda: modules.jordan_structure(A)), (lambda out: (out == blocks, True))

    def _torsion_tensor(self, rng, index):
        # tensor and hom in turn
        a, b = inputs.rand_torsion_blocks(rng), inputs.rand_torsion_blocks(rng)
        if index % 2 == 0:
            op, want = "tensor", oracle.clebsch_gordan(a, b)
        else:
            op = "hom"
            want = oracle.clebsch_gordan([(1 / lam, n) for lam, n in a], b)
        da, db = inputs.torsion_desc(a), inputs.torsion_desc(b)
        return self._tensor_request(op, da, db, inputs.torsion_desc(want))

    @staticmethod
    def _tensor_request(op, da, db, want):
        # look the function up per call, so a traced run sees the wrapper
        def run():
            M, N = modules.module_from_json(da), modules.module_from_json(db)
            return getattr(modules, op)(M, N)

        return run, (lambda out: (modules.module_to_json(out) == want, True))

    def _large_prime_tensor(self):
        a, b = ([(Fraction(p), 1)] for p in LARGE_PRIMES)
        run, check = self._tensor_request(
            "tensor",
            inputs.torsion_desc(a),
            inputs.torsion_desc(b),
            inputs.torsion_desc(oracle.clebsch_gordan(a, b)),
        )
        return Request("torsion_tensor", SEARCH_Q, SEARCH_BUDGET["torsion_tensor"], run, check)

    def _probe(self, kind, desc, k, window=PROBE_WINDOW):
        T = modules.to_matrix(modules.module_from_json(desc))

        def run():
            fresh = modules.module_from_json(desc)
            return ideals.line_subbundle_probe(
                modules.to_matrix(fresh), range(k, k + 1), window=window
            )

        if window == PROBE_WINDOW:
            check = _probe_check(self.golden["probe"], probe_key(desc, k), T.mat)
        else:  # warm-up only; no golden at other windows
            check = lambda out: (True, True)  # noqa: E731
        return Request(kind, SEARCH_Q, SEARCH_BUDGET["probe"], run, check)


# -- session ------------------------------------------------------------------------

SESSION_BUDGET = {"readme": 10.0, "verify": 30.0, "pool": 10.0}

LINE32 = '{"kind":"line","c":"3","m":2}'
LINE21 = '{"kind":"line","c":"2","m":-1}'
LINE10 = '{"kind":"line","c":"1","m":0}'
LINE13 = '{"kind":"line","c":"1","m":3}'
TORS_README = (
    '{"kind":"torsion","blocks":[{"lambda":"1","size":2},{"lambda":"3","size":1}]}'
)
GOOD_README = '{"kind":"good","p":"s^2 - 3*s + 2"}'
GOOD_ZSS = '{"kind":"good","p":"z - s - s^-1"}'

README_EXAMPLES = (
    ["eval", "s*z"],
    ["--q", "3", "eval", "s*z"],
    ["div", "s^2 - 3*s + 2", "s - 2"],
    ["--output", "json", "mod", "info", LINE32],
    ["coh", TORS_README],
    ["euler", LINE10, LINE13],
    ["--output", "json", "dual", GOOD_README],
    ["pic", "mul", LINE32, LINE21],
    ["--strict", "coh", GOOD_ZSS],
)
SUITES = (
    "chi_rank",
    "division",
    "duality_rank",
    "euler_symmetry",
    "riemann_roch",
    "rigidity",
    "serre",
    "tensor_rank",
)

# the fixed descriptor pool; each recurs across several subcommands
LINES = (LINE32, LINE21, LINE10, LINE13, '{"kind":"line","c":"1/2","m":1}')
TORSIONS = (TORS_README, '{"kind":"torsion","blocks":[{"lambda":"2","size":1}]}')
GOODS = (GOOD_README, GOOD_ZSS, '{"kind":"good","p":"1 + z*s"}')
MATRICES = ('{"kind":"matrix","entries":[["z","1"],["0","1"]]}',)


def session_pool():
    """Pool entries (argv without --q); each runs at every q in every cycle."""
    pool = []
    for d in LINES + TORSIONS + GOODS + MATRICES:
        pool += [["coh", d], ["mod", "info", d], ["dual", d]]
    pool.append(["--output", "json", "coh", MATRICES[0]])
    pairs = [
        (LINE32, LINE21), (LINE10, LINE13), (LINE32, GOODS[0]), (GOODS[1], LINE21),
        (TORSIONS[0], TORSIONS[1]), (TORSIONS[1], LINE32), (LINE13, TORSIONS[0]),
        (TORSIONS[1], GOODS[1]), (MATRICES[0], TORSIONS[1]), (LINE21, MATRICES[0]),
    ]
    for a, b in pairs:
        pool += [["tensor", a, b], ["euler", a, b]]
    pool.append(["tensor", GOODS[0], GOODS[2]])
    for a, b in zip(LINES, LINES[1:] + LINES[:1]):
        pool += [["pic", "class", a], ["pic", "inv", a], ["pic", "mul", a, b], ["pic", "eq", a, b]]
    return pool


def with_q(argv, q):
    return [f"--q={Q_TEXT[q]}"] + argv


def session_requests():
    """Every (group, argv) the session can send; the golden file covers all."""
    out = [("readme", argv) for argv in README_EXAMPLES]
    out += [("verify", ["verify", s, "--cases", "25"]) for s in SUITES]
    out += [("pool", with_q(argv, q)) for argv in session_pool() for q in Q_VALUES]
    return out


def call_cli(argv):
    """(exit code, stdout) of one in-process CLI request."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


class Session:
    """In-process qec.cli.main requests, stdout and exit code against golden.

    The pool is fixed, so every cycle sends the same requests; the seed
    orders them.  A seed-drawn q per request made the slow tail, and so p90,
    differ from cycle to cycle.
    """

    name = "session"

    def __init__(self, seed, golden):
        self.seed = seed
        self.golden = golden["session"]
        self.pool = session_pool()

    def _request(self, group, argv):
        want = self.golden[json.dumps(argv)]

        def check(out):
            rc, stdout = out
            ok = rc == want["rc"] and stdout == want["stdout"]
            return ok, ok and want["certified"]

        # the ambient q outside a request is the default; --q scopes to it
        return Request(group, Fraction(2), SESSION_BUDGET[group], lambda: call_cli(argv), check)

    def warmup(self):
        reqs = [self._request("readme", argv) for argv in README_EXAMPLES]
        reqs += [self._request("verify", ["verify", s, "--cases", "25"]) for s in SUITES]
        return reqs

    def cycle(self, index):
        rng = random.Random(f"session-cycle-{self.seed}-{index}")
        groups = [
            [self._request("readme", argv) for argv in README_EXAMPLES],
            [self._request("verify", ["verify", s, "--cases", "25"]) for s in SUITES],
            [self._request("pool", with_q(argv, q)) for argv in self.pool for q in Q_VALUES],
        ]
        return _interleave(rng, groups)


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def build(name, seed):
    if name == "algebra":
        return Algebra(seed)
    if name == "search":
        return Search(seed, load_golden())
    if name == "session":
        return Session(seed, load_golden())
    raise ValueError(f"unknown workload {name!r}")

