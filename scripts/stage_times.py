#!/usr/bin/env python3
"""Median time of each pipeline stage over the scenario files of a directory.

Usage:
    python3 scripts/stage_times.py DIR [--rounds N]

Every `*.json` scenario in DIR goes through `parse_scenario_text`,
`run_scenario`, `emit_report_machine` and `parse_report_text`, and then the
whole command `arthurcalc check FILE --format machine` (`check`: argument
parsing, reading the file, the pipeline and the report on a captured
stdout), in process, once untimed (which fills the per-datum caches and
finds failing files) and then N timed rounds. A stage's time for one file
is its median over the rounds; the table gives the median of those over
the files, in ms. Output goes to stdout only. A file that fails in any
stage is named on stderr, and the exit code is 1.

The warm caches hide the one-time cost of a root datum, which a cold
`arthurcalc check` process pays once. The last row, `datum`, shows it:
each distinct dual datum of the files is enumerated (its positive roots,
links and index) once per round from a fresh `RootDatum(spec, cartan)`,
and the row gives the median over the data of each datum's median.

The medians of one process move 5-10% with the host's load, more than
many changes move a stage. Compare stages within one run. To compare two
trees, alternate many separate runs of each, or alternate separate
`bench/run.py` runs (`bench/steady.py` gives a metric's median and
quartiles over seeds). Do not time both trees in one process: the copy
imported first runs about 10% slower.
"""

import argparse
import io
import statistics
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter_ns

from arthurcalc import cli
from arthurcalc.roots import RootDatum, build_root_datum, dual_datum
from arthurcalc.scenarios import (
    emit_report_machine,
    parse_report_text,
    parse_scenario_text,
    run_scenario,
)

STAGES = (parse_scenario_text, run_scenario, emit_report_machine, parse_report_text)
NAMES = [stage.__name__ for stage in STAGES] + ["check", "datum"]


def check(path: Path) -> str:
    """The machine report of `arthurcalc check PATH --format machine`."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["check", str(path), "--format", "machine"])
    if code:
        raise RuntimeError(f"check exited with code {code}")
    return out.getvalue()


def run_stages(path: Path, text: str) -> list[int]:
    """Nanoseconds per stage: the library stages, each fed the previous
    one's output, then the whole `check` command on the file."""
    times = []
    value = text
    for stage in STAGES:
        start = perf_counter_ns()
        value = stage(value)
        times.append(perf_counter_ns() - start)
    start = perf_counter_ns()
    check(path)
    times.append(perf_counter_ns() - start)
    return times


def enumerate_datum(datum: RootDatum) -> int:
    """Nanoseconds to enumerate a fresh copy of the datum."""
    fresh = RootDatum(datum.spec, datum.cartan)
    start = perf_counter_ns()
    fresh.positive_roots  # the first read runs the enumeration
    return perf_counter_ns() - start


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
            run_stages(path, texts[path])
        except Exception as err:  # every failure is reported, not raised
            failed.append(path)
            print(f"error: {path}: {type(err).__name__}: {err}", file=sys.stderr)
    if failed:
        return 1
    if not texts:
        print(f"error: no *.json files in {args.dir}", file=sys.stderr)
        return 1

    per_file = [
        [
            statistics.median(column)
            for column in zip(*(run_stages(path, text) for _ in range(args.rounds)))
        ]
        for path, text in texts.items()
    ]
    columns = [statistics.median(column) for column in zip(*per_file)]
    groups = {parse_scenario_text(text).group for text in texts.values()}
    data = {dual_datum(build_root_datum(group)) for group in groups}
    columns.append(
        statistics.median(
            statistics.median(enumerate_datum(datum) for _ in range(args.rounds)) for datum in data
        )
    )
    print(f"{len(texts)} scenarios, {args.rounds} timed rounds each")
    print("| stage | median ms |")
    print("| --- | --- |")
    for name, value in zip(NAMES, columns):
        print(f"| `{name}` | {value / 1e6:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
