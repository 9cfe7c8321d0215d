#!/usr/bin/env python3
"""Median time of each pipeline stage over the scenario files of a directory.

Usage:
    python3 scripts/stage_times.py DIR [--rounds N]

Every `*.json` scenario in DIR goes through `parse_scenario_text`,
`run_scenario`, `emit_report_machine` and `parse_report_text`, in process,
once untimed (which fills the per-datum caches and finds failing files) and
then N timed rounds. A stage's time for one file is its median over the
rounds; the table gives the median of those over the files, in ms. Output
goes to stdout only. A file that fails in any stage is named on stderr, and
the exit code is 1.
"""

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

from arthurcalc.scenarios import (
    emit_report_machine,
    parse_report_text,
    parse_scenario_text,
    run_scenario,
)

STAGES = (parse_scenario_text, run_scenario, emit_report_machine, parse_report_text)


def run_stages(text: str) -> list[int]:
    """Nanoseconds per stage, each stage fed the previous one's output."""
    times = []
    value = text
    for stage in STAGES:
        start = perf_counter_ns()
        value = stage(value)
        times.append(perf_counter_ns() - start)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", type=Path, help="directory of scenario files")
    parser.add_argument("--rounds", type=int, default=5, help="timed rounds per file (default 5)")
    args = parser.parse_args()
    if args.rounds < 1:
        print("error: --rounds must be at least 1", file=sys.stderr)
        return 1

    texts, failed = {}, []
    for path in sorted(args.dir.glob("*.json")):
        try:
            texts[path] = path.read_text()
            run_stages(texts[path])
        except Exception as err:  # every failure is reported, not raised
            failed.append(path)
            print(f"error: {path}: {type(err).__name__}: {err}", file=sys.stderr)
    if failed:
        return 1
    if not texts:
        print(f"error: no *.json files in {args.dir}", file=sys.stderr)
        return 1

    per_file = [
        [statistics.median(column) for column in zip(*(run_stages(text) for _ in range(args.rounds)))]
        for text in texts.values()
    ]
    print(f"{len(texts)} scenarios, {args.rounds} timed rounds each")
    print("| stage | median ms |")
    print("| --- | --- |")
    for stage, column in zip(STAGES, zip(*per_file)):
        print(f"| `{stage.__name__}` | {statistics.median(column) / 1e6:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
