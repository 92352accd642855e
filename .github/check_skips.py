"""Fail unless the tests a JUnit report skips are exactly the named ones.

    python3 .github/check_skips.py REPORT.xml [TEST_NAME ...]

Exits 0 when the skipped test names, as the report gives them, equal the
names after the report file (with none, no test may be skipped), and 1 otherwise,
with both lists on stderr.
"""

import sys
import xml.etree.ElementTree as ET


def main(argv):
    report, *allowed = argv
    cases = ET.parse(report).iter("testcase")
    skipped = sorted(c.get("name") for c in cases
                     if c.find("skipped") is not None)
    if skipped != sorted(allowed):
        print(f"skipped: {skipped}; allowed: {sorted(allowed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
