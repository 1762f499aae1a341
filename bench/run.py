"""Benchmark entry point: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload search --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics.  The last line of standard output is
the result object; the line before it carries the environment, sample
counts and exact counters.  ``--write-pins`` re-takes the default seed's
pinned outputs (see README.md).  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ftbench.metrics import END_TO_END, PER_LAYER, unit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("search", "compose-verify", "cli-ingest")
# Start-up probes run half before and half after the workload process, so
# their medians span the whole run rather than one moment of machine load.
SETUP_PROBES = 4  # set-up-only launches on each side of an untraced run
CLI_PROBES = 8  # `python -m ftmd` launches on each side of a traced run
PROBE_ARGV = ["-m", "ftmd", "generate", "path", "2"]
PROBE_OUT = "2 1\n0 1\n"
DEADLINE_S = 175.0


def env_for_child() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return env


def worker_argv(args, extra) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra, "--launched", repr(time.monotonic())]


def worker(args, extra, timeout: float) -> dict:
    """Launch the workload process and return its JSON line."""
    proc = subprocess.Popen(worker_argv(args, extra), cwd=ROOT, env=env_for_child(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def cli_launch_s() -> float:
    """Wall time of one trivial ``python -m ftmd`` launch."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *PROBE_ARGV], cwd=ROOT, env=env_for_child(),
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0 or done.stdout != PROBE_OUT:
        raise RuntimeError(f"startup probe failed: exit {done.returncode}")
    return elapsed


def probes(args, setups: list, launches: list, left) -> None:
    if args.trace:
        launches += [cli_launch_s() for _ in range(CLI_PROBES)]
    else:
        setups += [worker(args, ["--setup-only"], left())["setup_s"]
                   for _ in range(SETUP_PROBES)]


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="re-take the pinned outputs of the default seed")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ftmd" / "__init__.py").is_file():
        print(f"error: no ftmd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    try:
        if args.write_pins:
            return subprocess.run(worker_argv(args, ["--write-pins"]), cwd=ROOT,
                                  env=env_for_child()).returncode
        setups: list[float] = []
        launches: list[float] = []
        probes(args, setups, launches, left)
        res = worker(args, [], left())
        probes(args, setups, launches, left)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = dict(res["metrics"])
    if args.trace:
        metrics["cli_startup_s"] = statistics.median(launches)
    else:
        metrics["setup_s"] = statistics.median(setups + [res["setup_s"]])
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
    expected = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(expected):
        print(f"error: metrics {sorted(set(metrics) ^ set(expected))} do not match the list",
              file=sys.stderr)
        return 1
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "python": res["python"],
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "commit": git_commit(),
        },
        "samples": res.get("samples"),
        "blocks": res.get("blocks"),
        "setup_probes_s": setups,
        "cli_launches_s": launches,
        "rounds": res.get("rounds"),
        "exact": res.get("exact"),
        "problems": res["problems"],
    }
    print(json.dumps(detail, sort_keys=True))
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit(name)} for name in expected},
    }))
    if not correct:
        print(f"FAILED: {res['failed']} of {res['attempted']} instances; see above",
              file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
