"""qec benchmark: one command, three workloads, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 15 --trace 0

Each workload is a closed loop with one client in one thread: the next
request is sent only after the previous one returns.  Requests run in whole
cycles (a fixed mix of request kinds, see workloads.py) until the request
time reaches --seconds and at least 100 requests have completed.  Every
answer is checked outside the timed region; each request runs under a
per-request SIGALRM budget and inside its own ambient-q scope.  Reported
times are rescaled to a reference machine speed measured during the run
(speed.py); the table above the result line gives the wall figures too.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same loop with
every qec layer wrapped (tracing.py), replays the same requests untraced, and
prints the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`failed` counts wrong answers, unexpected exceptions and wrong exit codes;
requests over their time budget are counted in error_rate (and so in
success_ratio), not in `failed`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("algebra", "search", "session")
SETUP_REPEATS = 9
# at least ten latency samples beyond p90
MIN_REQUESTS = 100
TRACE_BUDGET_FACTOR = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-child",
        action="store_true",
        help="internal: time import qec plus input building, print seconds",
    )
    return ap.parse_args(argv)


def use_checkout_source(root):
    """Import qec from <root>/src only; refuse to run without it."""
    init = root / "src" / "qec" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a qec checkout")
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("QEC_Q", None)  # the CLI reads it; requests set q explicitly


def pin_to_one_cpu():
    """Run on one CPU, and so do the set-up processes: the vCPUs of a shared
    VM change speed independently, and the reference samples (speed.py) must
    see the CPU the requests run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_child(args):
    start = perf_counter()
    import workloads

    wl = workloads.build(args.workload, args.seed)
    wl.cycle(0)
    print(perf_counter() - start)


def measure_setup(args, root):
    """Median over fresh processes of import qec plus input building, in
    wall seconds, and the speed scale of reference samples taken between
    the processes."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--setup-child",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    times = []
    meter = speed.Meter()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
        meter.sample(3)
    return statistics.median(times), meter.scale()


# -- the closed loop -------------------------------------------------------------------


class OverBudget(BaseException):
    """Raised by SIGALRM inside a request that ran past its budget.  A
    BaseException, so library code catching Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise OverBudget()


class Loop:
    """Runs requests one at a time and tallies their outcomes."""

    def __init__(self, budget_factor=1.0, tracer=None, keep_requests=False):
        from qec.scalars import get_qparam, set_q, using_q

        self.get_qparam, self.set_q, self.using_q = get_qparam, set_q, using_q
        self.base_q = get_qparam()
        self.budget_factor = budget_factor
        self.tracer = tracer
        self.keep_requests = keep_requests
        self.requests = []  # kept only for the untraced replay
        # wall seconds; an array, since a float object per request would pin
        # allocator pages and make peak RSS grow with the request count
        self.latency = array("d")
        self.overrun_s = 0.0  # budgets of the requests abandoned at them
        self.speed = speed.Meter()
        self.kinds = []
        self.status = []  # ok, wrong, error, over_budget
        self.certified = 0
        self.problems = []

    def run(self, req):
        tracer = self.tracer
        if tracer is not None:
            tracer.start_request(len(self.latency), req.kind)
        out, status = None, "ok"
        with self.using_q(req.q):
            signal.setitimer(signal.ITIMER_REAL, req.budget * self.budget_factor)
            start = perf_counter()
            try:
                try:
                    out = req.run()
                finally:
                    elapsed = perf_counter() - start
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OverBudget:
                status = "over_budget"
                self.overrun_s += req.budget * self.budget_factor
            except Exception as e:  # a request must not stop the run
                status = "error"
                self.problems.append(f"{req.kind}: raised {e!r}")
        if self.get_qparam() != self.base_q:
            status = "wrong"
            self.problems.append(f"{req.kind}: ambient q not restored")
            self.set_q(self.base_q)
        if tracer is not None:
            tracer.end_request()
        if status == "ok":
            status = self._check(req, out)
        if self.keep_requests:
            self.requests.append(req)
        self.latency.append(elapsed)
        self.kinds.append(req.kind)
        self.status.append(status)
        self.speed.tick()
        return elapsed

    def _check(self, req, out):
        with self.using_q(req.q):
            try:
                ok, certified = req.check(out)
            except Exception as e:
                self.problems.append(f"{req.kind}: check raised {e!r}")
                return "wrong"
        if not ok:
            self.problems.append(f"{req.kind}: answer does not match")
            return "wrong"
        self.certified += bool(certified)
        return "ok"

    def cycles(self, wl, seconds, min_requests=MIN_REQUESTS):
        """Whole cycles until the wall time of the requests reaches
        `seconds` and at least `min_requests` of them have completed."""
        measured, index = 0.0, 0
        while measured < seconds or len(self.status) - self.count("over_budget") < min_requests:
            for req in wl.cycle(index):
                measured += self.run(req)
            index += 1

    def count(self, status):
        return self.status.count(status)

    def completed(self):
        """Indices of the requests that returned within their budget."""
        return [i for i, s in enumerate(self.status) if s != "over_budget"]

    def request_s(self, scale):
        """Time spent on requests: the completed ones times `scale`, plus
        the budgets of the abandoned ones."""
        return scale * sum(self.latency[i] for i in self.completed()) + self.overrun_s


def percentile(values, p):
    """Kernel estimate of quantile p: the order statistics weighted by a
    normal density around p whose width is the standard error of a sample
    quantile, sqrt(p(1 - p) / n), which is close to the Harrell-Davis
    estimator.  One order statistic jumps between runs where a few slow
    requests spread the tail thin; its weighted neighbours do not."""
    ordered = sorted(values)
    n = len(ordered)
    width = math.sqrt(p * (1 - p) / n)
    weights = [math.exp(-0.5 * (((i + 0.5) / n - p) / width) ** 2) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def end_to_end(loop, setup_s, scale, peak_rss_mb):
    """Figures of the timed loop: requests_per_s counts completed requests;
    the latency percentiles are over completed requests, since an abandoned
    one has no latency."""
    n = len(loop.latency)
    done = loop.completed()
    latency = [loop.latency[i] * scale for i in done]
    bad = n - loop.count("ok")
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (len(done) / loop.request_s(scale), "1/s"),
        "latency_p50_ms": (1000 * percentile(latency, 0.5), "ms"),
        "latency_p90_ms": (1000 * percentile(latency, 0.9), "ms"),
        "certified_ratio": (loop.certified / n, "ratio"),
        "success_ratio": (1 - bad / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# -- the traced run --------------------------------------------------------------------


def _fn(label, where):
    return [
        (f"{label}.calls", "count", where, lambda t: t.calls[label]),
        (f"{label}.total_s", "s", where, lambda t: t.total[label]),
        (f"{label}.self_s", "s", where, lambda t: t.self_time[label]),
    ]


def _ratio(num, den):
    return num / den if den else 0.0


# (name, unit, workloads on which it must read nonzero, value from the tracer)
PER_LAYER = [
    *_fn("linalg.rref", {"search", "session"}),
    ("linalg.rref.cells", "count", {"search"}, lambda t: t.counts["linalg.rref.cells"]),
    *_fn("linalg.nullspace", {"search", "session"}),
    *_fn("linalg.charpoly", {"search"}),
    *_fn("linalg.rational_roots", {"search"}),
    *_fn("ideals.cyclic_search", {"search", "session"}),
    *_fn("ideals.annihilator_space", {"search", "session"}),
    (
        "ideals.annihilator_space.nonempty_ratio",
        "ratio",
        {"search"},
        lambda t: _ratio(t.counts["nonempty"], t.calls["ideals.annihilator_space"]),
    ),
    *_fn("ideals.minimal_annihilator_width", {"search", "session"}),
    (
        "ideals.minimal_annihilator_width.cyclic_ratio",
        "ratio",
        {"search"},
        lambda t: _ratio(t.counts["cyclic"], t.calls["ideals.minimal_annihilator_width"]),
    ),
    *_fn("ideals.line_subbundle_probe", {"search"}),
    (
        "ideals.line_subbundle_probe.sweep_total_s",
        "s",
        {"search"},
        lambda t: _ratio(t.counts["sweep_total_s"], t.counts["sweeps"]),
    ),
    (
        "ideals.line_subbundle_probe.sweep_self_s",
        "s",
        {"search"},
        lambda t: _ratio(t.counts["sweep_self_s"], t.counts["sweeps"]),
    ),
    *_fn("cohomology.fixed_space", {"search", "session"}),
    *_fn("cohomology.stabilized_h0", {"search", "session"}),
    (
        "cohomology.stabilized_h0.windows_per_call",
        "count",
        {"search"},
        lambda t: _ratio(
            t.edges[("cohomology.stabilized_h0", "cohomology.fixed_space")],
            t.calls["cohomology.stabilized_h0"],
        ),
    ),
    (
        "cohomology.stabilized_h0.certified_ratio",
        "ratio",
        {"search"},
        lambda t: _ratio(t.counts["h0_certified"], t.calls["cohomology.stabilized_h0"]),
    ),
    *_fn("duality.pi_product", {"session"}),
    *_fn("duality.dual_certificate", {"session"}),
    *_fn("duality.good_dual", {"algebra", "session"}),
    *_fn("aq.AqElement.__mul__", {"algebra", "search", "session"}),
    *_fn("aq.sigma_divide", {"algebra", "session"}),
    *_fn("aq.z_divide", {"algebra", "session"}),
    *_fn("laurent.LaurentPoly.__mul__", {"algebra", "search", "session"}),
    *_fn("laurent.qshift", {"algebra", "search", "session"}),
    *_fn("laurent.divexact", {"algebra", "search"}),
    *_fn("laurent.det", {"algebra", "search"}),
    (
        "scalars.get_q.calls",
        "count",
        {"algebra", "search", "session"},
        lambda t: t.calls["scalars.get_q"],
    ),
    ("scalars.qpow.calls", "count", {"session"}, lambda t: t.calls["scalars.qpow"]),
    *_fn("modules.rank_S", {"search", "session"}),
    *_fn("modules.tensor", {"search", "session"}),
    *_fn("modules.dual", {"search", "session"}),
    *_fn("modules.jordan_structure", {"search"}),
    *_fn("suites.verify_suite", {"session"}),
    *_fn("cli.main", {"session"}),
]


def _count(key, test):
    def hook(tracer, args, result, dur, own):
        tracer.counts[key] += test(args, result)

    return hook


def _sweep(tracer, args, result, dur, own):
    """Probe time of the requests of the z - s - s^-1 sweep."""
    if tracer.kind == "probe_sweep":
        tracer.counts["sweep_total_s"] += dur
        tracer.counts["sweep_self_s"] += own


HOOKS = {
    "linalg.rref": _count(
        "linalg.rref.cells", lambda a, r: len(a[0]) * len(a[0][0]) if a[0] else 0
    ),
    "ideals.annihilator_space": _count("nonempty", lambda a, r: bool(r)),
    "ideals.minimal_annihilator_width": _count("cyclic", lambda a, r: r is None),
    "cohomology.stabilized_h0": _count("h0_certified", lambda a, r: bool(r[1])),
    "ideals.line_subbundle_probe": _sweep,
}


def traced_run(args, wl, root):
    from tracing import Tracer
    from workloads import PROBE_SWEEP

    tracer = Tracer()
    loop = Loop(TRACE_BUDGET_FACTOR, tracer, keep_requests=True)
    tracer.install(HOOKS)
    try:
        # no percentiles here, so one whole cycle is enough
        loop.cycles(wl, args.seconds, min_requests=1)
    finally:
        tracer.uninstall()
    done = loop.completed()
    tracer.counts["sweeps"] = sum(loop.kinds[i] == "probe_sweep" for i in done) / len(
        PROBE_SWEEP[1]
    )
    # the overhead compares the requests that completed both traced and not
    outside = tracer.outside
    replay = Loop(TRACE_BUDGET_FACTOR)
    for i in done:
        replay.run(loop.requests[i])
    if tracer.outside != outside:
        replay.problems.append("the untraced replay reached a traced function")
    loop.problems += replay.problems
    both = replay.completed()
    traced_s = loop.speed.scale() * sum(loop.latency[done[j]] for j in both)
    untraced_s = replay.speed.scale() * sum(replay.latency[j] for j in both)
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    metrics = {name: (fn(tracer), unit) for name, unit, _, fn in PER_LAYER}
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1, "ratio")
    zero = [
        name
        for name, _, where, _ in PER_LAYER
        if args.workload in where and metrics[name][0] == 0
    ]
    return loop, metrics, zero


# -- report ------------------------------------------------------------------------------


def print_kinds(loop):
    print(f"{'kind':<20}{'requests':>9}{'p50 ms':>11}{'max ms':>11}{'not ok':>8}  (wall)")
    for kind in sorted(set(loop.kinds)):
        lat = [l for l, k in zip(loop.latency, loop.kinds) if k == kind]
        bad = sum(1 for s, k in zip(loop.status, loop.kinds) if k == kind and s != "ok")
        print(
            f"{kind:<20}{len(lat):>9}{1000 * percentile(lat, 0.5):>11.2f}"
            f"{1000 * max(lat):>11.2f}{bad:>8}"
        )


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    use_checkout_source(root)
    sys.path.insert(0, str(HERE))
    pin_to_one_cpu()
    if args.setup_child:
        setup_child(args)
        return 0
    import workloads

    signal.signal(signal.SIGALRM, _on_alarm)
    if not args.trace:
        setup_wall, setup_scale = measure_setup(args, root)
    wl = workloads.build(args.workload, args.seed)
    warm = Loop()
    for req in wl.warmup():
        warm.run(req)
    # the inputs live for the whole run; keep the collector from rescanning them
    gc.collect()
    gc.freeze()
    if args.trace:
        loop, metrics, zero = traced_run(args, wl, root)
        wall = {}
    else:
        loop = Loop()
        loop.cycles(wl, args.seconds)
        # read before the figures are computed, whose lists grow with the
        # request count
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(loop, setup_wall * setup_scale, loop.speed.scale(), rss)
        wall = end_to_end(loop, setup_wall, 1.0, rss)
        zero = []
    wrong, error = loop.count("wrong"), loop.count("error")
    over = loop.count("over_budget")
    problems = warm.problems + loop.problems
    correct = not problems and warm.count("ok") == len(warm.status)
    n = len(loop.status)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"{n} requests in {sum(loop.latency):.2f} s wall: {wrong} wrong, {error} raised, "
        f"{over} over budget; error_rate {(wrong + error + over) / n:.4f} ratio; "
        f"speed scale {loop.speed.scale():.3f} over {len(loop.speed.samples)} samples"
    )
    print_kinds(loop)
    for name, (value, unit) in metrics.items():
        timed = name in wall and unit in ("s", "ms", "1/s")
        extra = f"   wall {wall[name][0]:.6f}" if timed else ""
        print(f"{name:<52}{value:>16.6f} {unit}{extra}")
    for problem in sorted(set(problems))[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for name in zero:
        print(f"error: per-layer metric {name} read zero on {args.workload}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": n,
                "failed": wrong + error,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 3 if zero else 0


if __name__ == "__main__":
    sys.exit(main())
