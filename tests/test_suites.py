"""Every verification suite, at the settings the benchmark's session runs
them with: no failures, and every case passed or skipped, in pinned
numbers."""

import pytest

from qec.suites import suite_names, verify_suite

# (passed, skipped_unknown) at cases = 25, seed = 0, q = 2
TALLIES = {"chi_rank": (19, 6), "riemann_roch": (24, 1), "serre": (24, 1)}


@pytest.mark.parametrize("name", suite_names())
def test_suite_has_no_failures(name):
    report = verify_suite(name, cases=25, seed=0)
    assert report["failures"] == []
    assert report["passed"] + report["skipped_unknown"] == report["cases"] == 25
    assert (report["passed"], report["skipped_unknown"]) == TALLIES.get(name, (25, 0))
