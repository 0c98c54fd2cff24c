"""Acceptance suite: every check of `qbret verify --suite all`, one test
each, at two seeds.

The checks and their tolerances live in `qbret.verify` and nowhere else;
`qbret verify --suite all` prints the same checks with their deviations.
"""

import pytest

from qbret.verify import run_suites

CHECKS = [pytest.param(result, id=f"{result.name}-{seed}")
          for seed in (0, 20240) for result in run_suites(["all"], seed)]


@pytest.mark.parametrize("check", CHECKS)
def test_check(check):
    assert check.passed, check.line()
