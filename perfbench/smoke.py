"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

Runs each workload (the ones BENCHMARK.json declares and the ones kept for
runs by hand) untraced and traced for one second on tiny problems and
asserts that the run exits 0, reports every metric BENCHMARK.json names
with its unit, and that no op failed (error_frac == 0).  It is not part
of the repository's test suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "7",
                    "--seconds", "1", "--trace", str(trace), "--tiny"]
            res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
            tag = f"{w} trace={trace}"
            if res.returncode != 0:
                problems.append(f"{tag}: exit {res.returncode}\n{res.stdout[-1500:]}{res.stderr[-1500:]}")
                continue
            out = json.loads(res.stdout.strip().splitlines()[-1])
            if out["failed"] != 0 or not out["correct"]:
                problems.append(f"{tag}: error_frac = {out['failed']}/{out['attempted']}")
            for m in expected[trace]:
                got = out["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{tag}: metric {m['name']} missing or not in {m['unit']}")
            print(f"ok  {tag}: {out['attempted']} ops, {len(out['metrics'])} metrics", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
