"""Record the golden outputs of the benchmark's fixed requests.

Run from the repository root:

    python3 perfbench/record_golden.py

It writes perfbench/golden.json: CLI stdout and exit code for every session
request, the (c, k) set of every fixed line-subbundle probe, and the
cohomology reports of the fixed non-z-good generators.  The committed file was
recorded at the commit that introduced the benchmark; rerun it only when a
change of output is intended, and say so.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qec import aq, ideals, modules  # noqa: E402
from qec.cohomology import cohomology  # noqa: E402
from qec.scalars import using_q  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads as wl  # noqa: E402


def session_certified(argv, rc, stdout):
    """Whether a CLI answer is exact and certified: no Unknown, no
    certified=False, and for suites no skipped case."""
    if rc != 0:
        return False
    if "verify" in argv:
        return " 0 skipped" in stdout and " 0 failed" in stdout
    lowered = stdout.lower()
    flags = ("unknown", "null", "certified = false", '"certified": false')
    return not any(t in lowered for t in flags)


def main():
    golden = {"search": {"probe": {}, "cohomology_good": {}}, "session": {}}
    with using_q(wl.SEARCH_Q):
        for _, desc, k in wl.fixed_probes():
            T = modules.to_matrix(modules.module_from_json(desc))
            t = time.perf_counter()
            found = ideals.line_subbundle_probe(T, range(k, k + 1), window=wl.PROBE_WINDOW)
            print(f"probe {desc} k={k}: {len(found)} hits, {time.perf_counter() - t:.2f}s")
            golden["search"]["probe"][wl.probe_key(desc, k)] = [
                [oracle.scalar_str(c), kk] for c, kk, _ in found
            ]
        rng = random.Random(0)
        for base in wl.GOOD_NOT_Z_GOOD:
            p = aq.parse(base)
            rep = cohomology(modules.Good(p)).to_json()
            want = {k: rep[k] for k in ("h0", "h1", "chi", "certified")}
            # u * p presents the same module, so the report may not change
            for _ in range(3):
                expr = inputs.unit_times(rng, wl._elem(p), wl.SEARCH_Q)
                other = cohomology(modules.Good(aq.parse(expr))).to_json()
                assert {k: other[k] for k in want} == want, (base, expr)
            print(f"cohomology {base}: {rep}")
            golden["search"]["cohomology_good"][base] = want
    for group, argv in wl.session_requests():
        with using_q(2):
            t = time.perf_counter()
            rc, stdout = wl.call_cli(argv)
            dt = time.perf_counter() - t
        if dt > 0.2:
            print(f"slow session request {dt:.2f}s: {argv}")
        golden["session"][json.dumps(argv)] = {
            "rc": rc,
            "stdout": stdout,
            "certified": session_certified(argv, rc, stdout),
        }
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.GOLDEN_PATH} ({len(golden['session'])} session requests)")


if __name__ == "__main__":
    main()
