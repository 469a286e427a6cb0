"""The verify battery keeps checking when python -O strips assert statements."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# a wrong closed form must still fail its check in an optimized interpreter
_SCRIPT = """
import sys
from extraspecial import counting, verifysuite
assert False, "assert statements are stripped"  # must not fire under -O
counting.end_order = lambda *args: -1
try:
    verifysuite.check_endo_count("es1", 3, 1)
except AssertionError as exc:
    print(exc)
    sys.exit(0)
sys.exit(3)
"""


def test_checks_fail_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "enumerated 729 != formula -1" in done.stdout
