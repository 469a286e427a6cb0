"""Which rows of the oracle census grid are checked, against a recorded file.

Runs `extraspecial census --p-list 3,5,7 --n-list 1,2,3 --oracle --format
json` with every EXTRASPECIAL_* override cleared, and reduces each row to
its outcome: "checked" when an oracle value was compared, else the skip
reason.  Exits 1 if a row checked in tests/data/census_coverage.json is now
skipped or gone, or if any row's match is false; other changes are listed
and pass.  The grid takes several seconds, so it is a CI step, not a tier-1
test.  --write records the current outcomes instead:

    PYTHONPATH=src python tests/census_coverage.py [--write]
"""

import json
import os
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data" / "census_coverage.json"
GRID = ["census", "--p-list", "3,5,7", "--n-list", "1,2,3", "--oracle", "--format", "json"]
KEY = ("quantity", "group", "p", "n", "k")


def outcomes(rows) -> list:
    """One {quantity, group, p, n, k, outcome} record per census row."""
    return [{**{f: r[f] for f in KEY}, "outcome": r["reason"] or "checked"} for r in rows]


def regressions(recorded, rows) -> list:
    """Why the census rows fail against the recorded outcomes: a checked row
    now skipped or missing, or a false match; empty when they pass."""
    now = {tuple(r[f] for f in KEY): r for r in rows}
    problems = [f"{key}: match is false" for key, r in now.items() if r["match"] is False]
    for rec in recorded:
        key = tuple(rec[f] for f in KEY)
        if rec["outcome"] != "checked":
            continue
        if key not in now:
            problems.append(f"{key}: checked row is gone")
        elif now[key]["reason"]:
            problems.append(f"{key}: checked row now skipped: {now[key]['reason']}")
    return problems


def run_grid() -> list:
    env = {k: v for k, v in os.environ.items() if not k.startswith("EXTRASPECIAL_")}
    done = subprocess.run([sys.executable, "-m", "extraspecial.cli", *GRID], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv) -> int:
    rows = run_grid()
    if argv == ["--write"]:
        DATA.write_text("[\n" + ",\n".join(json.dumps(r) for r in outcomes(rows)) + "\n]\n")
        return 0
    if argv:
        sys.exit(__doc__)
    recorded = json.loads(DATA.read_text())
    problems = regressions(recorded, rows)
    for line in problems:
        print("FAIL", line)
    changed = [r for r in outcomes(rows) if r not in recorded]
    for r in changed:
        print("changed", json.dumps(r))
    checked = sum(r["reason"] is None for r in rows)
    print(f"{len(rows)} rows: {checked} checked, {len(rows) - checked} skipped, "
          f"{len(changed)} changed since {DATA.name}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
