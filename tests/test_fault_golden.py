"""Golden fault schedules (``tests/fault_golden.py``): every faulty
run in the matrix must reproduce its pinned sha256 digest of outputs
and ``NetworkMetrics`` byte for byte."""

from __future__ import annotations

import pytest

from fault_golden import CASES, GOLDEN, case_digest


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fault_schedule_matches_golden_digest(name):
    assert case_digest(name) == GOLDEN[name]
