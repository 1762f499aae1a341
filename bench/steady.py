"""Steadiness check: run workloads over several seeds and report, for every
end-to-end metric, the quartile spread (Q3 - Q1) / median against a third
of its bound; then run the traced run twice on one seed and assert that
every exact counter repeats.

    python3 bench/steady.py --seeds 10 [--workload cli-ingest ...]

Exits 1 when a spread (other than setup_s) exceeds its bound or an exact
counter differs between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from ftbench.stats import quartile_spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output {detail['problems']}")
    return detail, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, args.seeds + 1):
            _, result = run(workload, seed, spec["run_seconds"], 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            spread = quartile_spread(vals)
            flag = "ok" if spread < bounds[name] / 3 else (
                "WIDE" if spread < bounds[name] else "OVER")
            if flag == "OVER" and name != "setup_s":
                ok = False
            print(f"{workload:15} {name:15} median {statistics.median(vals):12.6g}  "
                  f"spread {spread:7.4f}  bound {bounds[name]:.2f}  {flag}  "
                  f"{' '.join(f'{v:.4g}' for v in vals)}", flush=True)
        first, _ = run(workload, 1, spec["run_seconds"], 1)
        second, _ = run(workload, 1, spec["run_seconds"], 1)
        diff = {k for k in first["exact"].keys() | second["exact"].keys()
                if first["exact"].get(k) != second["exact"].get(k)}
        print(f"{workload:15} exact counters: {len(first['exact'])} "
              f"{'identical' if not diff else 'DIFFER: ' + ', '.join(sorted(diff))}", flush=True)
        ok = ok and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
