"""A fixture for scripts/line_coverage.py: `python -m sample N` takes one
branch of `sign` and exits with sign(N) + 1; `unused` never runs."""

import sys


def sign(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def unused():
    return "never called"


if __name__ == "__main__":
    sys.exit(sign(int(sys.argv[1])) + 1)
