"""Check the traced runs: counts repeat exactly for a seed, the leading layer
of each workload is the expected one, and the tracing overhead is reported.

    python3 perfbench/trace_check.py --seed 1

Runs `run.py --trace 1` twice per workload with the same seed, one after
the other, and exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# the layer whose self time should lead each workload
LEADER = {"verify-all": "symalt.rho_an.self_s",
          "char-tables": "groupengine.dixon_character_table.self_s"}


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: outputs failed the checks\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in LEADER:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        counts = [k for k in first if k.endswith((".calls", ".yielded", ".computed", ".spans"))]
        differ = [k for k in counts if first[k] != second[k]]
        ranked = sorted((k for k in first if k.endswith(".self_s")), key=lambda k: -first[k])
        wall = first["trace.wall_s"]
        print(f"{workload}: {len(counts)} counts, "
              f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
        for k in ranked[:3]:
            print(f"  {k:45s} {first[k]:9.3f} s  {first[k] / wall:6.1%} of traced wall")
        for run in (first, second):
            print(f"  traced {run['trace.wall_s']:.3f} s, untraced "
                  f"{run['trace.untraced_wall_s']:.3f} s, overhead {run['trace.overhead_s']:+.3f} s")
        leader = LEADER[workload]
        if differ or ranked[0] != leader:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
