"""Every pipeline output against the golden table (``tests/golden.py``):
the six ``reproduce`` targets and each shipped config, through ``cli.main``."""

import json

import pytest

from golden import GOLDEN_DIR, RUNS, collect, compare


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_the_golden_table(run, tmp_path):
    expected = json.loads((GOLDEN_DIR / f"{run}.json").read_text())
    mismatches = compare(expected, collect(run, tmp_path))
    assert not mismatches, "\n".join(mismatches[:20])
