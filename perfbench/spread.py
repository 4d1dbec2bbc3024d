"""Run a workload once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload clip-scale --seeds 1-10

Spread is the distance between the first and third quartile of the values
(``statistics.quantiles(values, n=4)``) as a share of their median; a metric
is steady when its spread stays below a third of its bound in
``BENCHMARK.json``. Runs are untraced and sequential, one process at a time;
``--seconds`` defaults to the ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import relative_iqr  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--verbose", action="store_true", help="print every value")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        start = time.perf_counter()
        out = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={time.perf_counter() - start:.1f}s", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = f"{relative_iqr(vals):.3f}" if len(vals) >= 2 and med else ""
        bound = bounds.get(name)
        print(f"{name:45s} median {med:12.6g}  spread {spread:>6s}"
              + (f"  bound {bound}" if bound is not None else "")
              + ("  values " + " ".join(f"{v:.4g}" for v in vals) if args.verbose else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
