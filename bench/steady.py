#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median and
quartile spread, as the acceptance rule for BENCHMARK.json reads them.

    python3 bench/steady.py --workload principal-large --seeds 1-10 [--out FILE]

For every end-to-end metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and (q3 - q1) / median next to a third of
the metric's bound. With --trace 1 it runs the traced variant instead and
prints the per-layer spread. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for chunk in text.split(","):
        lo, _, hi = chunk.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", help="merge the summary into this JSON file, under the workload's name"
    )
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name) if not args.trace else None
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"], "median": median,
            "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values,
        }
        limit = f"{bound / 3:.4f}" if bound else "-"
        flag = "" if not bound or spread < bound / 3 else "  WIDE"
        print(f"  {name:46} median {median:14.6g} {summary[name]['unit']:6} "
              f"spread {spread:.4f} (bound/3 {limit}){flag}")
    if args.out:
        path = Path(args.out)
        recorded = json.loads(path.read_text()) if path.exists() else {}
        recorded["machine"] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
        section = recorded.setdefault("per_layer" if args.trace else "end_to_end", {})
        section[args.workload] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "all_correct": all(r["correct"] for r in results),
            "metrics": summary,
        }
        path.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
