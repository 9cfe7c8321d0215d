#!/usr/bin/env python3
"""arthurcalc benchmark: one seeded workload per run, outputs checked.

    python3 bench/run.py --workload batch-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src. With
--trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a separately traced run (see bench/README.md). The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

from hostspeed import HostSpeed
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUPS = 7  # cold set-ups per run; setup_s is their median
CHUNK_NS = 200_000_000  # item time between two host-speed scalings


@dataclass(frozen=True)
class Crash:
    """An exception escaping the program; always a wrong outcome."""

    message: str


def add_sources() -> bool:
    """Put the checkout's src/ first on sys.path; False if it has none."""
    src = ROOT / "src"
    if not (src / "arthurcalc" / "__init__.py").is_file():
        print(f"error: no arthurcalc sources under {src}; run from a checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True


def fresh_import():
    """Import arthurcalc from scratch, so every lru_cache starts empty."""
    for name in [n for n in sys.modules if n.split(".")[0] == "arthurcalc"]:
        del sys.modules[name]
    for layer in LAYERS:
        importlib.import_module(f"arthurcalc.{layer}")
    return SimpleNamespace(
        **{name: sys.modules[f"arthurcalc.{name}"] for name in LAYERS + ("errors",)}
    )


def safe_run(workload, lib, item):
    try:
        return workload.run(lib, item)
    except Exception as err:  # a crash is counted as a failed item, never fatal
        return Crash(f"{type(err).__name__}: {err}")


def set_up(workload, seed, workdir, tracer=None, clock=perf_counter_ns):
    """Import, generate the inputs and warm the program's caches; returns
    the seconds this took on `clock`, leaving out the writing of input files."""
    start = clock()
    lib = fresh_import()
    if tracer is not None:
        tracer.install()
    inputs = workload.generate(lib, seed, workdir)
    generated = clock()
    workload.write(inputs)
    written = clock()
    workload.warm(lib, inputs)
    return (clock() - written + generated - start) / 1e9, lib, inputs


def check_outputs(workload, lib, inputs, refs) -> dict[int, str]:
    """Independent check of every output of the first pass, outside any
    timing; later passes must reproduce those outputs exactly."""
    problems = {}
    for i, (item, out) in enumerate(zip(inputs, refs)):
        if isinstance(out, Crash):
            problems[i] = out.message
            continue
        try:
            problem = workload.check(lib, item, out)
        except Exception as err:  # a malformed output is a wrong outcome
            problem = f"checker could not read the output: {type(err).__name__}: {err}"
        if problem:
            problems[i] = problem
    return problems


class Loop:
    """Closed loop with one client over whole passes of the inputs, each
    pass in a fresh seeded order (the order alone moved principal-large's
    throughput by 8% between seeds, so every run averages several orders).
    The first pass's outputs become the references of later passes."""

    def __init__(self, workload, lib, inputs, seed):
        self.workload, self.lib, self.inputs = workload, lib, inputs
        self.rng = random.Random(seed)
        self.refs: list | None = None
        self.mismatched: list[set[int]] = []
        self.scales: list[float] = []  # host_scale of each chunk
        self.busy_ns = 0  # unscaled time spent in items

    def run_pass(self, latencies: array, tracer=None) -> float:
        """Append each item's host-scaled latency in ns; return the pass's
        items per second of scaled busy time."""
        workload, lib, inputs = self.workload, self.lib, self.inputs
        order = list(range(len(inputs)))
        self.rng.shuffle(order)
        outputs, wrong = [None] * len(inputs), set()
        tag = len(self.mismatched)
        chunk, busy, mark = [], 0, 0
        with HostSpeed() as host:
            for n, i in enumerate(order, 1):
                if tracer is not None:
                    tracer.item = f"{tag}:{i}"
                start = host.clock()
                out = safe_run(workload, lib, inputs[i])
                elapsed = host.clock() - start
                chunk.append(elapsed)
                busy += elapsed
                self.busy_ns += elapsed
                if self.refs is None:
                    outputs[i] = out
                elif out != self.refs[i]:
                    wrong.add(i)
                if busy >= CHUNK_NS or n == len(order):
                    scale = host.scale_since(mark)
                    mark = len(host.samples)
                    self.scales.append(scale)
                    latencies.extend(round(ns * scale) for ns in chunk)
                    chunk, busy = [], 0
        if self.refs is None:
            self.refs = outputs
        self.mismatched.append(wrong)
        return len(order) / (sum(latencies[-len(order):]) / 1e9)

    def failed(self, problems: dict[int, str]) -> int:
        """Items whose output failed the check or differed from pass one."""
        return sum(len(wrong | problems.keys()) for wrong in self.mismatched)


def report_problems(inputs, problems) -> None:
    for i, problem in list(problems.items())[:10]:
        print(f"check failed: {inputs[i]}: {problem}", file=sys.stderr)
    if len(problems) > 10:
        print(f"... and {len(problems) - 10} more", file=sys.stderr)


def metric(value, unit):
    return {"value": value, "unit": unit}


def cold_set_up(args, workdir) -> float:
    """One cold set-up, host-scaled, in a fresh interpreter (setup_probe.py),
    so the measuring process keeps its single import and its own peak RSS."""
    probe_dir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), args.workload, str(args.seed), probe_dir],
            capture_output=True, text=True, timeout=150,
        )
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit(f"set-up probe exited {done.returncode}:\n{done.stderr}")
    return float(done.stdout)


def end_to_end(args, workload, workdir) -> dict:
    # The cold set-ups are spread over the run, one after each pass, so
    # setup_s samples the same stretch of machine time as the items.
    _, lib, inputs = set_up(workload, args.seed, workdir)
    setups = [cold_set_up(args, workdir)]
    loop = Loop(workload, lib, inputs, args.seed)
    latencies = array("q")  # ns; compact, so the run's length barely moves peak RSS
    rates = []
    while not rates or loop.busy_ns < args.seconds * 1e9:
        rates.append(loop.run_pass(latencies))
        if len(setups) < SETUPS:
            setups.append(cold_set_up(args, workdir))
    while len(setups) < SETUPS:
        setups.append(cold_set_up(args, workdir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = check_outputs(workload, lib, inputs, loop.refs)
    report_problems(inputs, problems)
    failed = loop.failed(problems)
    passes = len(loop.mismatched)

    n = len(latencies)
    ordered = sorted(latencies)
    rank = math.ceil(workload.tail_percentile / 100 * n)
    tail_ms = ordered[rank - 1] / 1e6
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "items_per_s": metric(statistics.median(rates), "1/s"),
        "latency_p50_ms": metric(statistics.median(ordered) / 1e6, "ms"),
        "latency_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    print(
        f"{args.workload} seed {args.seed}: {SETUPS} cold set-ups, {passes} passes over "
        f"{len(inputs)} inputs, {n} items, closed loop with one client"
    )
    for name, m in metrics.items():
        print(f"  {name:16} {m['value']:14.4f} {m['unit']}")
    print(
        f"  latency_tail_ms is p{workload.tail_percentile:g} of {n} samples "
        f"({n - rank} beyond it)"
    )
    print("  items_per_s is the median over passes of items per busy second")
    print(
        f"  times are host-scaled: median factor {statistics.median(loop.scales):.4f} over "
        f"{len(loop.scales)} chunks (see bench/hostspeed.py)"
    )
    print(f"  failed_ratio     {failed / n:14.4f} ({failed} of {n} items wrong or unexpected)")
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}


def per_layer(args, workload, workdir) -> dict:
    tracer = Tracer()
    _, lib, inputs = set_up(workload, args.seed, workdir, tracer)
    tracer.uninstall()

    loop = Loop(workload, lib, inputs, args.seed)
    plain, traced = array("q"), array("q")
    spans = None
    start = perf_counter_ns()
    while spans is None or perf_counter_ns() - start < args.seconds * 1e9:
        loop.run_pass(plain)
        tracer.install()
        tracer.phase = "items"
        tracer.spans = [] if spans is None else None
        loop.run_pass(traced, tracer)
        tracer.uninstall()
        if spans is None:
            spans = tracer.spans
    passes = len(loop.mismatched) // 2

    tracer.install()
    tracer.phase = "check"
    problems = check_outputs(workload, lib, inputs, loop.refs)
    tracer.uninstall()
    report_problems(inputs, problems)
    failed = loop.failed(problems)

    items = len(traced)
    run, setup, check = (tracer.stats[phase] for phase in ("items", "setup", "check"))

    def calls(name):
        return metric(run[name].calls / items, "count")

    def self_s(prefix, stats=run, per=items):
        total = sum(s.self_s for n, s in stats.items() if n == prefix or n.startswith(prefix + "."))
        return metric(total / max(per, 1), "s")

    made = run["parameters.make_arthur_parameter"]
    metrics = {
        "parameters.langlands_parameter.calls": calls("parameters.langlands_parameter"),
        "roots.dominantize.calls": calls("roots.dominantize"),
        "lfactors.local_coefficient_ratio.calls": calls("lfactors.local_coefficient_ratio"),
        "lfactors.l_factor.calls": calls("lfactors.l_factor"),
        "parameters.evaluate_root.calls": calls("parameters.evaluate_root"),
        "lfactors.eigenvalues_built": metric(run["lfactors.l_factor"].results / items, "count"),
        "parameters.self_s": self_s("parameters"),
        "lfactors.self_s": self_s("lfactors"),
        "roots.dominantize.word_steps": metric(run["roots.dominantize"].results / items, "count"),
        "roots.dominantize.self_s": self_s("roots.dominantize"),
        "parameters.apply_word_parameter.self_s": self_s("parameters.apply_word_parameter"),
        "parameters.recover_arthur_data.self_s": self_s("parameters.recover_arthur_data"),
        "parameters.make_arthur_parameter.accept_ratio": metric(
            (made.calls - made.errors) / made.calls if made.calls else 0.0, "ratio"
        ),
        "sweeps.self_s": self_s("sweeps"),
        "nilpotent.validate_sl2_data.self_s": self_s("nilpotent.validate_sl2_data"),
        "nilpotent.sl2_from_partition.self_s": self_s("nilpotent.sl2_from_partition", setup, 1),
        "classifier.classify_packet.self_s": self_s("classifier.classify_packet"),
        "classifier.witness_root.calls": calls("classifier.witness_root"),
        "scenarios.parse_scenario_text.self_s": self_s("scenarios.parse_scenario_text"),
        "scenarios.run_scenario.self_s": self_s("scenarios.run_scenario"),
        "scenarios.emit_report_machine.self_s": self_s("scenarios.emit_report_machine"),
        "scenarios.parse_report_text.self_s": self_s(
            "scenarios.parse_report_text", check, check["scenarios.parse_report_text"].calls
        ),
        "scenarios.report_bytes": metric(run["scenarios.emit_report_machine"].results / items, "bytes"),
        "cli.main.self_s": self_s("cli.main"),
        "roots.build_root_datum.self_s": self_s("roots.build_root_datum", setup, 1),
        "trace.overhead_ratio": metric(sum(traced) / sum(plain), "ratio"),
    }

    table = (
        f"# {args.workload} seed {args.seed}: {passes} traced passes over {len(inputs)} inputs\n"
        f"# per item, traced passes\n{tracer.table('items', items)}\n"
        f"# set-up totals (cold caches)\n{tracer.table('setup', 1)}"
    )
    (OUT_DIR / f"{args.workload}.layers.txt").write_text(table)
    tracer.spans = spans
    tracer.write_spans(OUT_DIR / f"{args.workload}.spans.jsonl")
    print(table)
    for name, m in metrics.items():
        print(f"  {name:46} {m['value']:16.8g} {m['unit']}")
    print(f"  spans of the first traced pass: bench/out/{args.workload}.spans.jsonl ({len(spans)} spans)")
    return {"correct": failed == 0, "attempted": len(plain) + items, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not add_sources():
        return 2
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        run = per_layer if args.trace else end_to_end
        result = run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
