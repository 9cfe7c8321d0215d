#!/usr/bin/env python3
"""A digest of the CLI's bytes on the shipped inputs.

Usage, from the repository root:
    PYTHONPATH=src python3 scripts/cli_digest.py

Runs a fixed set of commands in process through `arthurcalc.cli.main`, from
the repository root: `check` on each `scenarios/*.json`, `batch scenarios`,
`global` on each `families/*.json`, and `orbits` on A, B, C and D at rank 8,
on D4 and on G2 (which is refused). Each runs in four modes: text,
`--certify`, `--format machine` and `--format machine --certify`. For each
command it prints one line: the sha256 of its stdout, the sha256 of its
stderr, its exit code and its argv. Two trees print the same lines exactly
when their CLI writes the same bytes on these commands;
`tests/golden/cli-digests.txt` holds the lines the package must print.
Standard library only.
"""

import hashlib
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from arthurcalc import cli

ROOT = Path(__file__).resolve().parent.parent

MODES = ([], ["--certify"], ["--format", "machine"], ["--format", "machine", "--certify"])


def commands() -> list[list[str]]:
    verbs = [["check", f"scenarios/{p.name}"] for p in sorted((ROOT / "scenarios").glob("*.json"))]
    verbs.append(["batch", "scenarios"])
    verbs += [["global", f"families/{p.name}"] for p in sorted((ROOT / "families").glob("*.json"))]
    verbs += [["orbits", family, "8"] for family in "ABCD"]
    verbs += [["orbits", "D", "4"], ["orbits", "G", "2"]]
    return [verb + mode for verb in verbs for mode in MODES]


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    out_sha, err_sha = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
    return f"{out_sha} {err_sha} {code} {' '.join(argv)}"


def main() -> int:
    os.chdir(ROOT)
    for argv in commands():
        print(digest(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
