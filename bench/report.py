"""Run every workload, untraced and traced, and print every metric.

Usage (from the repository root):

    python3 bench/report.py [--seed 1]

Each run is its own fresh process (``bench/run.py``), started one at a time,
so peak RSS and set-up time are never shared.  Every run measures for
``run_seconds`` of ``BENCHMARK.json``.  Prints one line per metric
(workload, trace mode, name, value, unit), then each workload's per-layer
table, and writes the lines to ``.bench_out/report-seed<seed>.tsv``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            line = run_one(workload, args.seed, seconds, trace)
            rows.append((workload, trace, "correct", line["correct"], ""))
            rows.append((workload, trace, "attempted", line["attempted"], "count"))
            rows.append((workload, trace, "failed", line["failed"], "count"))
            for name, m in line["metrics"].items():
                rows.append((workload, trace, name, m["value"], m["unit"]))
    text = "".join("\t".join(map(str, row)) + "\n" for row in rows)
    print("workload\ttrace\tmetric\tvalue\tunit")
    print(text, end="")
    for workload in WORKLOADS:
        table = ROOT / ".bench_out" / f"{workload}-seed{args.seed}-trace1" / "layers.tsv"
        print(f"\n# {workload}: per-layer table ({table.relative_to(ROOT)})")
        print(table.read_text(), end="")
    (ROOT / ".bench_out" / f"report-seed{args.seed}.tsv").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
