"""Command-line interface: compute invariants, apply composition rules, and
cross-check them against the exact search.

Exit codes: 0 success, 1 malformed input, 2 order cap exceeded,
3 precondition failed, 4 formula/oracle mismatch (a finding).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache, partial
from pathlib import Path
from typing import Sequence

from .attach import decomposition_to_json, fdim_star
from .compose import RULES, TheoremResult, VerifyReport, decomposition_suite, verify
from .errors import FtmdError, InputFormatError, OrderCapExceeded, PreconditionFailed
from .families import FAMILY_NAMES, generate
from .graph import (Graph, decimal_label, format_edge_list, graph_from_json_dict, integer,
                    parse_edge_list)
from .resolve import FtReport, fdim, fdim_plus, metric_dimension, theta

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_CAP = 2
EXIT_PRECONDITION = 3
EXIT_MISMATCH = 4

ORACLE_CAP_ENV = "FTMD_ORACLE_CAP"

THEOREMS = tuple(RULES)


def _found(report: FtReport) -> tuple[int, list[int]]:
    return report.value, list(report.witness)


# invariant -> (needs --at, search(g, anchors, cap) -> (value, witness or None)).
# The searches are looked up in this module's globals at call time, so a
# caller that rebinds them (a tracer, a test's monkeypatch) is seen here.
INVARIANTS = {
    "mdim": (False, lambda g, _, cap: _found(metric_dimension(g, cap=cap))),
    "fdim": (False, lambda g, _, cap: _found(fdim(g, cap=cap))),
    "fdim-plus": (False, lambda g, _, cap: _found(fdim_plus(g, cap=cap))),
    "fdim-star": (True, lambda g, at, cap: _found(fdim_star(g, at, cap=cap))),
    "theta": (True, lambda g, at, cap: (theta(g, at, cap=cap), None)),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which this tool reserves
    # for cap violations; remap to the malformed-input code instead.
    def error(self, message: str):
        raise _UsageError(message)


# Built on the first call to main and reused: parse_args returns a fresh
# Namespace and stores nothing on the parser, and the cmd_* handlers read
# this module's globals when they run, so rebinding them still takes effect.
@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="ftmd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--oracle-cap", type=partial(decimal_label, what="--oracle-cap"),
                       help=f"order cap for exact searches (default: ${ORACLE_CAP_ENV} or built-in)")
        p.add_argument("--output", choices=("human", "json"), default="human")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the report")

    p = sub.add_parser("compute", help="exact invariant of a single graph")
    p.add_argument("--input", required=True, help="graph file")
    p.add_argument("--format", dest="input_format", choices=("edgelist", "json"),
                   default="edgelist")
    p.add_argument("--invariant", required=True, choices=tuple(INVARIANTS))
    p.add_argument("--at", default=None, help="comma-separated anchor vertices")
    common(p)
    p.set_defaults(run=cmd_compute)

    p = sub.add_parser("compose", help="apply a composition rule to a spec file")
    p.add_argument("--input", required=True, help="decomposition or rooted-product JSON")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--relaxed-cor3", action="store_true")
    common(p)
    p.set_defaults(run=cmd_compose)

    p = sub.add_parser("verify", help="cross-check a rule against the exact search")
    p.add_argument("--input", default=None, help="spec file (omit for --count batches)")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--relaxed-cor3", action="store_true")
    p.add_argument("--seed", type=partial(decimal_label, what="--seed"), default=0)
    p.add_argument("--count", type=partial(decimal_label, what="--count"),
                   help="verify this many seeded random instances instead of a file")
    common(p)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("generate", help="emit a named family graph or decomposition")
    p.add_argument("family", choices=FAMILY_NAMES)
    p.add_argument("size", type=partial(decimal_label, what="size"), nargs="?")
    p.set_defaults(run=cmd_generate)
    return parser


def _oracle_cap(cap: int | None) -> int | None:
    """The --oracle-cap flag, else $FTMD_ORACLE_CAP, else None (built-in caps)."""
    if cap is None and os.environ.get(ORACLE_CAP_ENV):
        cap = decimal_label(os.environ[ORACLE_CAP_ENV], ORACLE_CAP_ENV)
    return cap if cap is None else integer(cap, "oracle cap", 2)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not a text file: {exc}") from exc


def _load_graph(ns: argparse.Namespace) -> Graph:
    if ns.input_format == "json":
        return graph_from_json_dict(_load_json(ns.input))
    return parse_edge_list(_read_text(ns.input))


def _json_object(pairs: list) -> dict:
    """A decoded JSON object, refused when a key repeats (``json.loads``
    would keep its last value)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise InputFormatError(f"repeated key {key!r}")
    return obj


def _load_json(path: str):
    try:
        return json.loads(_read_text(path), object_pairs_hook=_json_object)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep to decode
        raise InputFormatError(f"{path}: bad JSON: {exc}") from exc


def _emit(payload: dict, ns: argparse.Namespace) -> None:
    if ns.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in payload.items():
        if key == "preconditions":
            print(f"{key:16}")
            for check in value:
                mark = "ok" if check["passed"] else "FAILED"
                print(f"    [{mark:6}] {check['name']}")
        elif key == "instances":
            for inst in value:
                status = "ok" if inst["ok"] else "MISMATCH"
                times = "".join(f" {k}={v}" for k, v in inst.items() if k.endswith("_s"))
                print(f"    #{inst['index']:<4} order={inst['order']:<3} "
                      f"formula={inst['formula']} oracle={inst['oracle']} {status}{times}")
        elif isinstance(value, (list, tuple)):
            print(f"{key:16} {' '.join(str(x) for x in value)}")
        elif isinstance(value, dict):
            print(f"{key:16} {' '.join(f'{k}={v}' for k, v in value.items())}")
        else:
            print(f"{key:16} {value}")


def _theorem_payload(res: TheoremResult) -> dict:
    payload: dict = {"theorem": res.theorem, "value": res.value}
    if res.components is not None:
        payload["components"] = list(res.components)
    if res.bounds is not None:
        payload["bounds"] = list(res.bounds)
    if res.witness is not None:
        payload["witness"] = list(res.witness)
        payload["witness_valid"] = res.witness_valid
    if res.detail:
        payload["detail"] = res.detail
    payload["preconditions"] = [
        {"name": name, "passed": ok} for name, ok in res.preconditions
    ]
    return payload


def _failure_payload(exc: PreconditionFailed) -> dict:
    return {
        "theorem": exc.theorem,
        "value": None,
        "failed": list(exc.failed),
        "preconditions": [{"name": name, "passed": ok} for name, ok in exc.checks],
    }


def cmd_compute(ns: argparse.Namespace) -> int:
    anchors = None
    if ns.at is not None:
        anchors = tuple(decimal_label(x, "--at vertex")
                        for x in str(ns.at).replace(",", " ").split())
        if not anchors or len(set(anchors)) < len(anchors):
            raise InputFormatError(f"--at needs one or more distinct vertices, got {ns.at!r}")
    g = _load_graph(ns)
    needs_at, search = INVARIANTS[ns.invariant]
    if needs_at != (anchors is not None):
        raise InputFormatError(f"{ns.invariant} {'needs' if needs_at else 'takes no'} --at")
    started = time.perf_counter()
    value, witness = search(g, anchors, ns.oracle_cap)
    elapsed = time.perf_counter() - started
    payload = {
        "invariant": ns.invariant,
        "n": g.n,
        "value": value,
        "witness": witness,
        "method": "oracle",
    }
    if anchors is not None:
        payload["anchors"] = list(anchors)
    if ns.timings:
        payload["timings"] = {"compute_s": round(elapsed, 6)}
    _emit(payload, ns)
    return EXIT_OK


def _timings(report: VerifyReport) -> dict:
    return {
        "formula_s": round(report.elapsed_formula, 6),
        "oracle_s": round(report.elapsed_oracle, 6),
    }


def cmd_compose(ns: argparse.Namespace) -> int:
    rule = RULES[ns.theorem]
    target = rule.load(_load_json(ns.input))
    started = time.perf_counter()
    res = rule.apply(target, ns.oracle_cap, ns.relaxed_cor3)
    elapsed = time.perf_counter() - started
    payload = _theorem_payload(res)
    if ns.timings:
        payload["timings"] = {"rule_s": round(elapsed, 6)}
    _emit(payload, ns)
    return EXIT_OK


def cmd_verify(ns: argparse.Namespace) -> int:
    if ns.input is not None and ns.count is not None:
        raise InputFormatError("verify takes --input or --count, not both")
    if ns.count is not None:
        return _verify_batch(ns)
    if ns.input is None:
        raise InputFormatError("verify needs --input or --count")
    target = RULES[ns.theorem].load(_load_json(ns.input))
    report = verify(target, ns.theorem, oracle_cap=ns.oracle_cap,
                    relaxed_cor3=ns.relaxed_cor3)
    payload = {
        "theorem": report.theorem,
        "formula": report.formula_value,
        "oracle": report.oracle_value,
        "ok": report.ok,
        "composite_order": report.composite_order,
    }
    if report.bounds is not None:
        payload["bounds"] = list(report.bounds)
    if report.witness_valid is not None:
        payload["witness_valid"] = report.witness_valid
    if ns.timings:
        payload["timings"] = _timings(report)
    _emit(payload, ns)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _verify_batch(ns: argparse.Namespace) -> int:
    theorem = ns.theorem
    batch = RULES[theorem].batch
    if batch is None:
        batched = "/".join(name for name, rule in RULES.items() if rule.batch is not None)
        raise InputFormatError(f"batch verification supports {batched}, not {theorem}")
    integer(ns.count, "--count", 1)
    condition, max_order = batch
    cap = ns.oracle_cap if ns.oracle_cap is not None else max_order
    decs = decomposition_suite(ns.seed, ns.count, (3, 4, 5), max_order, condition)
    instances = []
    failures = 0
    for idx, dec in enumerate(decs):
        report = verify(dec, theorem, oracle_cap=cap, relaxed_cor3=ns.relaxed_cor3)
        if not report.ok:
            failures += 1
        instance = {
            "index": idx,
            "order": report.composite_order,
            "formula": report.formula_value,
            "oracle": report.oracle_value,
            "ok": report.ok,
        }
        if ns.timings:
            instance.update(_timings(report))
        instances.append(instance)
    payload = {
        "theorem": theorem,
        "seed": ns.seed,
        "count": len(decs),
        "passed": len(decs) - failures,
        "failed": failures,
        "instances": instances,
    }
    _emit(payload, ns)
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def cmd_generate(ns: argparse.Namespace) -> int:
    made = generate(ns.family, ns.size)
    if isinstance(made, Graph):
        sys.stdout.write(format_edge_list(made))
    else:
        print(json.dumps(decomposition_to_json(made), indent=2, sort_keys=True))
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if "oracle_cap" in ns:  # every command but generate
            ns.oracle_cap = _oracle_cap(ns.oracle_cap)
        return ns.run(ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OrderCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except PreconditionFailed as exc:  # a rule's hypothesis: report which failed
        _emit(_failure_payload(exc), ns)
        return EXIT_PRECONDITION
    except (FtmdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
