"""Every verification suite, at the settings the benchmark's session runs
them with: no failures, and every case passed or skipped."""

import pytest

from qec.suites import suite_names, verify_suite


@pytest.mark.parametrize("name", suite_names())
def test_suite_has_no_failures(name):
    report = verify_suite(name, cases=25, seed=0)
    assert report["failures"] == []
    assert report["passed"] + report["skipped_unknown"] == report["cases"] == 25
