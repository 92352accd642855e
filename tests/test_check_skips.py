"""The CI skip guard, `.github/check_skips.py`, on small JUnit reports."""

import subprocess
import sys
from pathlib import Path

import pytest

GUARD = Path(__file__).resolve().parents[1] / ".github" / "check_skips.py"
ALLOWED = "test_c"


def report(tmp_path, skipped):
    """A JUnit report of three tests, `skipped` among them skipped."""
    cases = []
    for name in ("test_a", "test_b", ALLOWED):
        body = ('<skipped type="pytest.skip" message="no">why</skipped>'
                if name in skipped else "")
        cases.append(f'<testcase classname="tests.test_x" name="{name}" '
                     f'time="0.01">{body}</testcase>')
    path = tmp_path / "report.xml"
    path.write_text('<?xml version="1.0" encoding="utf-8"?><testsuites>'
                    f'<testsuite name="pytest" errors="0" failures="0" '
                    f'skipped="{len(skipped)}" tests="3">{"".join(cases)}'
                    '</testsuite></testsuites>', encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("skipped, allowed, code", [
    ([ALLOWED], [ALLOWED], 0),              # exactly the allowed skips
    ([], [], 0),
    ([ALLOWED, "test_b"], [ALLOWED], 1),    # an extra skip
    ([], [ALLOWED], 1),                     # an allowed test that ran
], ids=["allowed", "none", "extra-skip", "allowed-not-skipped"])
def test_skip_guard(tmp_path, skipped, allowed, code):
    proc = subprocess.run([sys.executable, str(GUARD),
                           report(tmp_path, skipped), *allowed],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == code, proc.stderr
    assert ("skipped:" in proc.stderr) == bool(code)
