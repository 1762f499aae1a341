"""One workload in its own process: set up from the seed, run the closed loop,
check every output, and print one JSON line for ``run.py``.

Not meant to be called directly; ``run.py`` launches it and passes the
monotonic time at launch, from which set-up time is measured.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pins"
sys.path.insert(0, str(ROOT / "src"))

import ftmd  # noqa: E402,F401  (set-up time includes the package import)

from ftbench.stats import block_medians, min_samples  # noqa: E402
from ftbench.tracing import Tracer  # noqa: E402
from ftbench.workloads import COUNTED_RULES, DEFAULT_SEED, KINDS, WORKLOADS, Checked  # noqa: E402

# Every run keeps at least this many samples, so p90 has ten beyond it.
MIN_SAMPLES = min_samples(0.9)
# Stop starting rounds after this much wall time, well inside the 180 s limit.
WALL_LIMIT_S = 150.0
MAX_REPORTED = 20
RULE_COUNTERS = tuple(f"compose.{rule}_{what}" for rule in COUNTED_RULES
                      for what in ("checked", "mismatch"))


class Outcomes:
    """Attempted and failed executions, with the first few problems printed."""

    def __init__(self, pins: dict | None, seed: int):
        self.pins = pins
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.summaries: dict[str, dict] = {}

    def record(self, inst, raw) -> Checked | None:
        self.attempted += 1
        if isinstance(raw, Exception):
            checked, problems = None, [f"raised {type(raw).__name__}: {raw}"]
        else:
            try:
                checked = KINDS[inst.kind][1](inst.args, raw)
            except Exception as exc:  # a malformed result must count, not abort the run
                checked, problems = None, [f"check raised {type(exc).__name__}: {exc}"]
            else:
                problems = list(checked.problems)
                summary = json.loads(json.dumps(checked.summary))
                self.summaries[inst.label] = summary
                problems += self._pin_problems(inst, summary)
        if problems:
            self.failed += 1
            for p in problems:
                if len(self.problems) < MAX_REPORTED:
                    print(f"FAIL {inst.label}: {p}", file=sys.stderr)
                self.problems.append(f"{inst.label}: {p}")
        return checked

    def _pin_problems(self, inst, summary) -> list[str]:
        if self.pins is None or not (self.seed == DEFAULT_SEED or inst.fixed):
            return []
        pinned = self.pins.get(inst.label)
        if pinned is None:
            return ["no pinned output for this instance"]
        if summary != pinned:
            return [f"output {json.dumps(summary)[:300]} differs from pin {json.dumps(pinned)[:300]}"]
        return []


def execute(inst):
    """The timed call; returns the raw result or the exception it raised."""
    try:
        return KINDS[inst.kind][0](inst.args)
    except Exception as exc:  # an unexpected exception is a failed instance
        return exc


def timed_loop(pool, seconds: float, outcomes: Outcomes) -> list[list[float]]:
    """Whole rounds until ``seconds`` of timed work and MIN_SAMPLES samples;
    returns each round's latencies in seconds."""
    rounds: list[list[float]] = []
    busy = 0.0
    wall0 = time.monotonic()
    while busy < seconds or sum(map(len, rounds)) < MIN_SAMPLES:
        if time.monotonic() - wall0 > WALL_LIMIT_S:
            break
        samples = []
        for inst in pool[len(rounds) % len(pool)]:
            t0 = time.perf_counter()
            raw = execute(inst)
            samples.append(time.perf_counter() - t0)
            outcomes.record(inst, raw)
        rounds.append(samples)
        busy += sum(samples)
    return rounds


def traced_window(pool, rounds: int, outcomes: Outcomes):
    """Each instance of the window runs once untraced and once traced, in
    alternating order; per-layer figures come from the traced runs."""
    tracer = Tracer()
    counters: Counter = Counter()
    plain_s = traced_s = 0.0
    k = 0
    for rnd in pool[:rounds]:
        for inst in rnd:
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.instance = k
                    with tracer.installed():
                        t0 = time.perf_counter()
                        raw = execute(inst)
                        traced_s += time.perf_counter() - t0
                    checked = outcomes.record(inst, raw)
                    if checked is not None:
                        counters.update(checked.counters)
                else:
                    t0 = time.perf_counter()
                    raw = execute(inst)
                    plain_s += time.perf_counter() - t0
                    outcomes.record(inst, raw)
            k += 1
    metrics = tracer.layer_metrics()
    for name in RULE_COUNTERS:
        metrics[name] = counters[name]
    metrics["trace.instances"] = k
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["error_rate"] = outcomes.failed / outcomes.attempted
    exact = {name: value for name, value in metrics.items() if isinstance(value, int)}
    exact.update({name: counters[name] for name in sorted(counters) if name.startswith("order.")})
    return metrics, exact


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    if workload.needs_files:
        workdir.mkdir(parents=True)
    try:
        pool = workload.pool(args.seed, workdir)
        # Set-up ends here, before the harness loads its pins.
        setup_s = time.monotonic() - args.launched
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        pin_path = PINS / f"{args.workload}.json"
        if args.write_pins:
            return write_pins(pool, args.seed, pin_path)
        pins = json.loads(pin_path.read_text())["outputs"] if pin_path.exists() else None
        outcomes = Outcomes(pins, args.seed)
        result: dict = {}
        if args.trace:
            result["metrics"], result["exact"] = traced_window(pool, workload.trace_rounds, outcomes)
        else:
            rounds = timed_loop(pool, args.seconds, outcomes)
            result["setup_s"] = setup_s
            result["metrics"], result["blocks"] = block_medians(rounds, MIN_SAMPLES, workload.period)
            result["samples"] = sum(map(len, rounds))
            result["rounds"] = len(rounds)
        if pins is None:
            outcomes.failed = max(outcomes.failed, 1)
            outcomes.problems.append(f"missing pin file {pin_path.name}")
            print(f"FAIL: missing pin file {pin_path}", file=sys.stderr)
        result.update(
            attempted=outcomes.attempted,
            failed=outcomes.failed,
            problems=outcomes.problems[:MAX_REPORTED],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            python=sys.version.split()[0],
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_pins(pool, seed: int, path: Path) -> int:
    """Run every instance of the default seed's pool once and pin its outputs."""
    if seed != DEFAULT_SEED:
        print(f"pins are taken at the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    outcomes = Outcomes(None, seed)
    for rnd in pool:
        for inst in rnd:
            outcomes.record(inst, execute(inst))
    if outcomes.failed:
        print(f"{outcomes.failed} instances failed; pins not written", file=sys.stderr)
        return 1
    lines = [f"{json.dumps(label)}: {json.dumps(summary, sort_keys=True)}"
             for label, summary in outcomes.summaries.items()]
    path.write_text(f'{{"seed": {seed}, "outputs": {{\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(outcomes.summaries)} pins to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
