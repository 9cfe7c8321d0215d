#!/usr/bin/env python3
"""A digest of the CLI's bytes on the shipped inputs.

Usage, from the repository root:
    PYTHONPATH=src python3 scripts/cli_digest.py

Runs a fixed set of commands in process through `arthurcalc.cli.main`, from
the repository root: `check` on each `scenarios/*.json`, `batch scenarios`,
`global` on each `families/*.json`, and `orbits` on A, B, C and D at rank 8,
on D4 and on G2 (which is refused). Each runs in four modes: text,
`--certify`, `--format machine` and `--format machine --certify`. Then come
the usage texts, once each: `--help`, `check --help`, no verb, an unknown
verb, `check` with no file, a bad `--format` value and `orbits A x`. argparse
ends these by raising `SystemExit`, whose code is kept; it wraps them to the
terminal width, so the script runs with `COLUMNS=80` and restores the old
value afterwards. For each command it prints one line: the sha256 of its
stdout, the sha256 of its stderr, its exit code and its argv. Two trees print
the same lines exactly when their CLI writes the same bytes on these
commands; `tests/golden/cli-digests.txt` holds the lines the package must
print. Standard library only.
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

USAGE = (
    ["--help"],
    ["check", "--help"],
    [],
    ["classify", "scenarios/a2-tempered.json"],
    ["check"],
    ["check", "scenarios/a2-tempered.json", "--format", "json"],
    ["orbits", "A", "x"],
)


def commands() -> list[list[str]]:
    verbs = [["check", f"scenarios/{p.name}"] for p in sorted((ROOT / "scenarios").glob("*.json"))]
    verbs.append(["batch", "scenarios"])
    verbs += [["global", f"families/{p.name}"] for p in sorted((ROOT / "families").glob("*.json"))]
    verbs += [["orbits", family, "8"] for family in "ABCD"]
    verbs += [["orbits", "D", "4"], ["orbits", "G", "2"]]
    return [verb + mode for verb in verbs for mode in MODES] + list(USAGE)


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as done:  # argparse's help and usage errors
            code = done.code
    out_sha, err_sha = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
    return f"{out_sha} {err_sha} {code} {' '.join(argv)}"


def main() -> int:
    os.chdir(ROOT)
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        for argv in commands():
            print(digest(argv))
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return 0


if __name__ == "__main__":
    sys.exit(main())
