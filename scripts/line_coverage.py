#!/usr/bin/env python3
"""The executable lines of a source tree that one run of a module never reaches.

Usage:
    python3 scripts/line_coverage.py [--source DIR] MODULE [ARGS...]

Runs `python -m MODULE ARGS` in this process under a `sys.settrace` hook
(and `threading.settrace`, for threads it starts) that records the lines
executed in the `*.py` files under DIR (default `src/arthurcalc`). When the
run ends, it prints `file:line` for each executable line of those files
that never ran, in file and line order, then a count on stderr, and exits
with the run's exit code. A line is executable if a compiled code object of
its file names it. Lines that only a subprocess runs are not seen, since
the hook lives in this process. Standard library only.

The package lines that tier-1 does not reach, from the repository root:

    PYTHONPATH=src python3 scripts/line_coverage.py pytest -q -p no:cacheprovider
"""

import argparse
import os
import runpy
import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType


def executable_lines(path: Path) -> set[int]:
    """The lines that some code object compiled from the file names."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # not None, nor a module's line 0
        todo.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def traced_run(module: str, args: list[str], files: set[str]) -> tuple[int, dict[str, set[int]]]:
    """Run the module as `__main__`; its exit code and the lines it ran in
    `files` (real paths), by file."""
    hits: dict[str, set[int]] = defaultdict(set)
    inside: dict[str, str | None] = {}  # a code object's file name -> its real path, if traced

    def line(frame, event, arg):
        if event == "line":
            hits[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            real = os.path.realpath(name)
            inside[name] = real if real in files else None
        return line if inside[name] else None

    sys.argv = [module, *args]
    sys.path[0] = os.getcwd()  # as `python -m` sets it
    threading.settrace(call)
    sys.settrace(call)
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as done:
        code = done.code if isinstance(done.code, int) else int(done.code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--source", default="src/arthurcalc", help="directory of traced files")
    parser.add_argument("module", help="the module to run, as with python -m")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="the module's arguments")
    options = parser.parse_args()
    files = {os.path.realpath(path): path for path in sorted(Path(options.source).glob("*.py"))}
    code, hits = traced_run(options.module, options.args, set(files))
    missed = total = 0
    for real, path in files.items():
        lines = executable_lines(path)
        total += len(lines)
        for number in sorted(lines - hits[real]):
            print(f"{path}:{number}")
            missed += 1
    print(f"{missed} of {total} executable lines unreached in {len(files)} files", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
