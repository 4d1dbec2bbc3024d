"""Run one slicekit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-small --seed 1 --seconds 50 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
same checkout, never from an installed copy. The last line of standard
output is the result object (``correct``, ``attempted``, ``failed``,
``metrics``); the line before it is the detail record: environment, sample
counts and percentiles, output digests and any failed check. Both are also
written to ``perfbench/.work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path("perfbench") / ".work"

# One BLAS thread and one computing process: threads x processes stays
# within the two cores of the reference machine.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-small", "clip-scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slicekit" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'slicekit'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(ROOT)]

    import slicekit

    if Path(slicekit.__file__).resolve().parent != SRC / "slicekit":
        print(f"perfbench: imported slicekit from {slicekit.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    from perfbench import envinfo, workloads

    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC, WORK)
    out["detail"]["environment"] = envinfo.record(ROOT, args.workload, args.seed)
    (WORK / args.workload / "result.json").write_text(json.dumps(out, indent=2))
    print(json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
