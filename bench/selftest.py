"""Self-test: a traced pass repeats every count exactly.

    python3 bench/selftest.py [--seed N] [--workload W ...]

Runs the traced worker twice per workload on one seed, each in a fresh
process, and fails if any per-layer metric other than a time differs
between the two. Counts that do not repeat cannot support a claim.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from inputs import WORKLOADS
from run import OUT_DIR, SRC, count_diff, spawn


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS),
                        choices=WORKLOADS)
    args = parser.parse_args()
    if not (SRC / "qpendulum" / "__init__.py").is_file():
        print(f"error: no qpendulum sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    failed = False
    for workload in args.workload:
        layers = []
        for i in range(2):
            record = spawn(workload, args.seed,
                           spans=OUT_DIR / f"selftest-spans-{workload}-{i}.csv")
            for out in record["cold"] + record["warm"]:
                if isinstance(out, dict) and "csv" in out:
                    Path(out["csv"]).unlink()
            layers.append(record["layers"])
        diff = count_diff(*layers)
        failed |= bool(diff)
        print(f"{workload}: {'FAIL ' + repr(diff) if diff else 'ok'} "
              f"({sum(not k.endswith('_s') for k in layers[0])} counts compared)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
