"""The census coverage check's verdicts, on rows made up here.  The grid
itself is run by tests/census_coverage.py in CI, not here."""

import json

from census_coverage import DATA, outcomes, regressions


def _row(k, reason=None, match=True):
    return {"quantity": "alpha_k", "group": None, "p": 3, "n": 1, "k": k,
            "formula": 1, "oracle": "skipped" if reason else 1,
            "match": "n/a" if reason else match, "reason": reason}


def test_recorded_outcomes_pass_and_coverage_losses_fail():
    rows = [_row(0), _row(1, reason="past a cap")]
    recorded = outcomes(rows)
    assert recorded[0]["outcome"] == "checked" and recorded[1]["outcome"] == "past a cap"
    assert regressions(recorded, rows) == []
    assert regressions(recorded, [_row(0), _row(1)]) == []  # newly checked passes
    assert ["now skipped" in r for r in regressions(recorded, [_row(0, "cap"), rows[1]])] == [True]
    assert ["is gone" in r for r in regressions(recorded, rows[1:])] == [True]
    assert ["match is false" in r for r in regressions(recorded, [_row(0, match=False),
                                                                  rows[1]])] == [True]


def test_recorded_file_is_one_outcome_per_row():
    recorded = json.loads(DATA.read_text())
    keys = {(r["quantity"], r["group"], r["p"], r["n"], r["k"]) for r in recorded}
    assert len(keys) == len(recorded)
    assert all(isinstance(r["outcome"], str) and r["outcome"] for r in recorded)
