"""Acceptance battery: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or via
the CLI as `clonelab suite acceptance`.  Every criterion is exact at its
stated scale; there are no tolerances to tune.  Each criterion's `passed`
and `details` must also equal the checked-in `golden/acceptance.json`, read
through JSON as the CLI report writes them, so a change that alters a
report outside its timings fails here.
"""

import json
from pathlib import Path

import pytest

from clonelab.suites import ACCEPTANCE, DEFAULT_SEED

GOLDEN = json.loads((Path(__file__).parent / "golden" / "acceptance.json").read_text())


@pytest.mark.parametrize(
    "criterion", ACCEPTANCE, ids=[f"{c.cid:02d}-{c.criterion_name}" for c in ACCEPTANCE]
)
def test_acceptance_criterion(criterion):
    result = criterion(DEFAULT_SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {result.cid:02d} {result.name}: {status} ({result.elapsed:.2f}s)")
    assert result.passed, result.details
    golden = GOLDEN[f"{result.cid:02d}-{result.name}"]
    assert result.passed == golden["passed"]
    assert json.loads(json.dumps(result.details, default=str)) == golden["details"]
