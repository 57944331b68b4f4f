#!/usr/bin/env python3
"""Run every workload over several seeds and summarise each metric.

Usage, from the root of the repository:

    python3 perfbench/report.py --seeds 0-9 [--trace 0]

Each (workload, seed) is one ``perfbench/run.py`` process with the
BENCHMARK.json run length.  For every metric the table gives the median,
the quartiles (``statistics.quantiles(n=4)``), their distance as a share of
the median (the spread) and, for end-to-end metrics, the bound the spread
has to stay within.  The last line of stdout is the same summary as one
JSON object, keyed by workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile, and (q3 - q1) / median."""
    median = statistics.median(values)
    q1 = q3 = median
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seed_list(args.seeds):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload}: {len(runs)} runs, failed {failed}/{attempted}, "
              f"correct {all(r['correct'] for r in runs)}")
        summary[workload] = {"failed": failed, "attempted": attempted, "metrics": {}}
        for name, first in runs[0]["metrics"].items():
            entry = quartiles([r["metrics"][name]["value"] for r in runs])
            entry["unit"] = first["unit"]
            summary[workload]["metrics"][name] = entry
            bound = f"  bound {bounds[name]:.2f}" if name in bounds else ""
            print(f"  {name:48s} {entry['median']:12.6g} {entry['q1']:12.6g} "
                  f"{entry['q3']:12.6g} {first['unit']:6s} spread {entry['spread']:.3f}{bound}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
