"""The workloads: seeded instance pools, the timed call for each kind of
instance, and the untimed check of its output.

An instance is one closed-loop request.  ``run`` is the only timed part; it
starts from raw vertex counts and edge lists (or files, for the CLI), so no
library object survives from one execution to the next.  ``check`` runs
after the timer stops: it turns the raw result into the summary that the
default seed pins, and lists every problem it finds.

Library calls go through the ``ftmd`` submodules at call time
(``resolve.fdim``, not an imported ``fdim``), so the tracer's wrappers see
them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import ftmd.attach as attach
import ftmd.cli as cli
import ftmd.compose as compose
import ftmd.families as families
import ftmd.graph as graph
import ftmd.resolve as resolve

from .gen import FAMILIES, cycle_edges, edge_list_text, path_edges, random_connected

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Instance:
    label: str  # unique within a pool; the key of its pin
    kind: str
    args: dict
    fixed: bool = False  # same input for every seed, so its pin applies to any seed


@dataclass
class Checked:
    summary: dict
    problems: list[str] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)  # exact counts for the traced run


def _build(n, edges):
    return graph.build_graph(n, edges)


def _ft_ok(g, witness) -> bool:
    return len(witness) >= 2 and resolve.is_ft_resolving(g.dist, witness)


def _minimal_ft_ok(g, witness) -> bool:
    if not _ft_ok(g, witness):
        return False
    for x in witness:
        rest = [v for v in witness if v != x]
        if len(rest) >= 2 and resolve.is_ft_resolving(g.dist, rest):
            return False
    return True


def _theta_expected(g, at) -> int:
    bases = resolve.enumerate_ft_bases(g, cap=g.n)
    if resolve.is_resolving(g.dist, at):
        return len(bases[0])
    return max(len(set(b) & set(at)) for b in bases)


def invariant_problems(inv: str, g, value: int, witness, at=None) -> list[str]:
    """Re-check a computed invariant (named as on the CLI) from its definition."""
    if inv == "theta":
        expected = _theta_expected(g, at)
        return [] if value == expected else [f"theta at {at}: {value}, bases give {expected}"]
    if inv == "mdim":
        ok = bool(witness) and resolve.is_resolving(g.dist, witness)
    elif inv == "fdim":
        ok = _ft_ok(g, witness)
    elif inv == "fdim-plus":
        ok = _minimal_ft_ok(g, witness)
    else:  # fdim-star
        ok = not set(witness) & set(at) and attach.is_attaching_ft_resolving(g, at, witness)
    problems = []
    if len(witness) != value:
        problems.append(f"{inv}: witness {list(witness)} has size {len(witness)}, value {value}")
    if list(witness) != sorted(set(witness)):
        problems.append(f"{inv}: witness {list(witness)} is not sorted and distinct")
    if not ok:
        problems.append(f"{inv}: witness {list(witness)} fails the definition")
    return problems


# --- search kinds ----------------------------------------------------------------

SEARCHES = {
    "mdim": lambda g, a: resolve.metric_dimension(g),
    "fdim": lambda g, a: resolve.fdim(g, cap=a["cap"]),
    "fdim-plus": lambda g, a: resolve.fdim_plus(g, cap=a["cap"]),
    "fdim-star": lambda g, a: attach.fdim_star(g, a["at"], cap=a["cap"]),
    "theta": lambda g, a: resolve.theta(g, a["at"], cap=a["cap"]),
}


def run_search(a):
    g = _build(a["n"], a["edges"])
    return g, SEARCHES[a["invariant"]](g, a)


def check_search(a, raw):
    g, r = raw
    inv = a["invariant"]
    value, witness = (r, None) if inv == "theta" else (r.value, list(r.witness))
    return Checked({"value": value, "witness": witness},
                   invariant_problems(inv, g, value, witness, a.get("at")))


def run_bases(a):
    g = _build(a["n"], a["edges"])
    return g, resolve.enumerate_ft_bases(g, cap=a["cap"])


def check_bases(a, raw):
    g, bases = raw
    listed = [list(b) for b in bases]
    summary = {
        "count": len(listed),
        "first": listed[0] if listed else None,
        "sha1": hashlib.sha1(json.dumps(listed).encode()).hexdigest(),
    }
    problems = []
    if not listed:
        problems.append("enumerate_ft_bases: no basis returned")
    if listed != sorted(listed) or len({tuple(b) for b in listed}) != len(listed):
        problems.append("enumerate_ft_bases: bases not in strict lexicographic order")
    if len({len(b) for b in listed}) > 1:
        problems.append("enumerate_ft_bases: bases of different sizes")
    bad = [b for b in listed if not _ft_ok(g, b)]
    if bad:
        problems.append(f"enumerate_ft_bases: {len(bad)} bases fail, first {bad[0]}")
    return Checked(summary, problems)


def run_membership(a):
    g = _build(a["n"], a["edges"])
    return g, [resolve.in_some_ft_basis(g, v, cap=a["cap"]) for v in range(g.n)]


def check_membership(a, raw):
    g, flags = raw
    union = set().union(*resolve.enumerate_ft_bases(g, cap=g.n))
    wrong = [v for v, flag in enumerate(flags) if flag != (v in union)]
    problems = [f"in_some_ft_basis wrong at vertices {wrong}"] if wrong else []
    return Checked({"members": [v for v, flag in enumerate(flags) if flag]}, problems)


# --- compose-verify kinds --------------------------------------------------------


def run_prop9(a):
    base = _build(a["n"], a["edges"])
    bounds = compose.prop9_bounds(base, a["m"])
    spec = compose.uniform_rooted_spec(base, families.path_graph(a["m"]), 0)
    composite = compose.rooted_product(spec).composite
    return composite, bounds, resolve.fdim(composite, cap=composite.n)


def check_prop9(a, raw):
    composite, bounds, r = raw
    lo, hi = bounds.bounds
    problems = invariant_problems("fdim", composite, r.value, r.witness)
    if not bounds.witness_valid or not _ft_ok(composite, bounds.witness):
        problems.append(f"prop9: far-leaf witness {list(bounds.witness)} fails")
    if not lo <= r.value <= hi:
        problems.append(f"prop9: oracle {r.value} outside bounds [{lo}, {hi}]")
    summary = {"order": composite.n, "bounds": [lo, hi], "value": r.value,
               "witness": list(r.witness)}
    return Checked(summary, problems, Counter([f"order.{composite.n}"]))


# Rules whose mismatches are recorded defects (see README): counted, not failed.
COUNTED_RULES = ("cor3", "cor5", "prop7")


def _report_summary(rep) -> list:
    return [rep.formula_value, rep.oracle_value, rep.ok, rep.witness_valid, rep.composite_order]


def _rule_outcomes(theorem: str, reports) -> Checked:
    summary = {"reports": [_report_summary(rep) for rep in reports]}
    counters = Counter(f"order.{rep.composite_order}" for rep in reports)
    bad = [i for i, rep in enumerate(reports) if not rep.ok]
    problems = []
    if theorem in COUNTED_RULES:
        counters[f"compose.{theorem}_checked"] = len(reports)
        counters[f"compose.{theorem}_mismatch"] = len(bad)
    elif bad:
        problems.append(f"{theorem}: formula and search disagree on instances {bad}")
    if any(rep.witness_valid is False for rep in reports):
        problems.append(f"{theorem}: a rule witness failed its check")
    return Checked(summary, problems, counters)


def run_suite(a):
    decs = compose.decomposition_suite(a["suite_seed"], a["count"], (3, 4, 5),
                                       a["max_order"], a["condition"])
    return [compose.verify(d, a["theorem"], oracle_cap=a["max_order"]) for d in decs]


def check_suite(a, reports):
    out = _rule_outcomes(a["theorem"], reports)
    if len(reports) != a["count"]:
        out.problems.append(f"suite returned {len(reports)} of {a['count']} instances")
    return out


PIECES = {
    "K3": lambda: families.complete_graph(3),
    "K4": lambda: families.complete_graph(4),
    "K5": lambda: families.complete_graph(5),
    "C4": lambda: families.cycle_graph(4),
    "C5": lambda: families.cycle_graph(5),
    "C6": lambda: families.cycle_graph(6),
    "paw": families.paw_graph,
    "S3": lambda: families.star_graph(3),
    "S4": lambda: families.star_graph(4),
    "bowtie": families.bowtie_graph,
}
PIECE_ORDER = {"K3": 3, "K4": 4, "K5": 5, "C4": 4, "C5": 5, "C6": 6, "paw": 4, "S3": 4,
               "S4": 5, "bowtie": 5}


def run_rooted(a):
    base = _build(a["n"], a["edges"])
    spec = compose.uniform_rooted_spec(base, PIECES[a["piece"]](), a["root"])
    return [compose.verify(spec, a["theorem"], oracle_cap=a["n"] * PIECE_ORDER[a["piece"]])]


def check_rooted(a, reports):
    return _rule_outcomes(a["theorem"], reports)


def run_figure2(a):
    dec = families.figure2_decomposition()
    thm2 = compose.theorem2_fdim(dec)
    cor3 = compose.corollary3_fdim(dec, relaxed=True)
    return dec, thm2, cor3, compose.verify(dec, "thm2", oracle_cap=20)


def check_figure2(a, raw):
    dec, thm2, cor3, rep = raw
    problems = []
    if not (thm2.value == cor3.value == rep.formula_value == rep.oracle_value) or not rep.ok:
        problems.append(f"figure 2: thm2 {thm2.value}, relaxed cor3 {cor3.value}, "
                        f"oracle {rep.oracle_value}")
    if not thm2.witness_valid or not _ft_ok(dec.composite, thm2.witness):
        problems.append(f"figure 2: thm2 witness {list(thm2.witness)} fails")
    summary = {"thm2": thm2.value, "components": list(thm2.components),
               "witness": list(thm2.witness), "cor3_relaxed": cor3.value,
               "cor3_components": list(cor3.components), "oracle": rep.oracle_value}
    return Checked(summary, problems, Counter([f"order.{dec.composite.n}"]))


# --- cli-ingest kind -------------------------------------------------------------


def run_cli(a):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(a["argv"])
    return code, out.getvalue(), err.getvalue()


def _parse_human(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        fields[key] = rest.strip()
    return fields


def check_cli(a, raw):
    code, out, err = raw
    summary: dict = {"exit": code}
    problems = []
    if code != a["expect_exit"]:
        problems.append(f"exit {code}, expected {a['expect_exit']}: {err.strip()[:200]}")
        return Checked(summary, problems)
    spec = a.get("compute")
    if a.get("batch"):
        payload = json.loads(out)
        summary.update(passed=payload["passed"], failed=payload["failed"],
                       instances=[[i["order"], i["formula"], i["oracle"]]
                                  for i in payload["instances"]])
        if payload["failed"] or payload["count"] != a["batch"]:
            problems.append(f"verify batch: {payload['failed']} of {payload['count']} failed")
        return Checked(summary, problems,
                       Counter(f"order.{inst['order']}" for inst in payload["instances"]))
    if spec is None:
        return Checked(summary, problems)
    inv, at = spec["invariant"], spec.get("at")
    if a["output"] == "json":
        payload = json.loads(out)
        value, witness = payload["value"], payload["witness"]
    else:
        fields = _parse_human(out)
        value = int(fields["value"])
        witness = None if inv == "theta" else [int(x) for x in fields["witness"].split()]
    summary.update(value=value, witness=witness)
    problems += invariant_problems(inv, _build(spec["n"], spec["edges"]), value, witness, at)
    return Checked(summary, problems)


KINDS = {
    "search": (run_search, check_search),
    "bases": (run_bases, check_bases),
    "membership": (run_membership, check_membership),
    "prop9": (run_prop9, check_prop9),
    "suite": (run_suite, check_suite),
    "rooted": (run_rooted, check_rooted),
    "figure2": (run_figure2, check_figure2),
    "cli": (run_cli, check_cli),
}


# --- pools -----------------------------------------------------------------------
#
# A pool is a list of rounds.  Every round has the same mix of instance kinds
# and sizes; only the random graphs, anchors and suite seeds depend on the
# seed.  The timed loop stops only at a round boundary, so every run measures
# whole rounds and the mix behind each percentile is the same for every seed.


def _cap(n: int, default: int):
    return n if n > default else None


def _search_min_round(rng: random.Random, r: int) -> list[Instance]:
    out = []
    for n in range(14, 25):
        out.append(Instance(f"r{r}.fdim.n{n}", "search", {
            "invariant": "fdim", "n": n, "edges": random_connected(rng, n), "cap": _cap(n, 16)}))
    for n in range(10, 21):
        out.append(Instance(f"r{r}.mdim.n{n}", "search",
                            {"invariant": "mdim", "n": n, "edges": random_connected(rng, n)}))
    for n in range(10, 17):
        at = sorted(rng.sample(range(n), rng.randint(1, 3)))
        out.append(Instance(f"r{r}.fdim_star.n{n}", "search", {
            "invariant": "fdim-star", "n": n, "edges": random_connected(rng, n), "at": at,
            "cap": None}))
    for name, n, edges in (FAMILIES[(2 * r) % len(FAMILIES)], FAMILIES[(2 * r + 1) % len(FAMILIES)]):
        out.append(Instance(f"r{r}.fdim.{name}", "search",
                            {"invariant": "fdim", "n": n, "edges": edges, "cap": None},
                            fixed=True))
    return out


def _search_lattice_round(rng: random.Random, r: int) -> list[Instance]:
    p = 10 + r % 7
    c = 10 + r % 7 % 5
    out = [
        Instance(f"r{r}.fdim_plus.P{p}", "search", {
            "invariant": "fdim-plus", "n": p, "edges": path_edges(p), "cap": _cap(p, 14)},
            fixed=True),
        Instance(f"r{r}.fdim_plus.C{c}", "search", {
            "invariant": "fdim-plus", "n": c, "edges": cycle_edges(c), "cap": None},
            fixed=True),
    ]
    for n in range(10, 15):
        out.append(Instance(f"r{r}.fdim_plus.n{n}", "search", {
            "invariant": "fdim-plus", "n": n, "edges": random_connected(rng, n), "cap": None}))
    for n in range(10, 17):
        edges = random_connected(rng, n)
        out.append(Instance(f"r{r}.bases.n{n}", "bases", {"n": n, "edges": edges, "cap": None}))
        for j in range(2):
            at = sorted(rng.sample(range(n), 2))
            out.append(Instance(f"r{r}.theta{j}.n{n}", "search", {
                "invariant": "theta", "n": n, "edges": edges, "at": at, "cap": _cap(n, 14)}))
    for n in (10, 13, 16):
        out.append(Instance(f"r{r}.membership.n{n}", "membership",
                            {"n": n, "edges": random_connected(rng, n), "cap": None}))
    return out


def _search_round(rng: random.Random, r: int) -> list[Instance]:
    return _search_min_round(rng, r) + _search_lattice_round(rng, r)


def _compose_round(rng: random.Random, r: int) -> list[Instance]:
    out = []
    for j, (n, m) in enumerate(((2, 4), (3, 3), (4, 4), (5, 3), (5, 4), (6, 4))):
        out.append(Instance(f"r{r}.prop9.{j}", "prop9",
                            {"n": n, "edges": random_connected(rng, n, rng.randint(0, n)), "m": m}))
    for theorem, condition, max_order in (("thm2", "thm2", 16), ("prop1", None, 14),
                                          ("cor3", "cor3", 16)):
        for j in range(4):
            out.append(Instance(f"r{r}.{theorem}.{j}", "suite", {
                "theorem": theorem, "condition": condition, "max_order": max_order,
                "count": 1, "suite_seed": rng.randrange(2**31)}))
    names = sorted(PIECES)
    for j, theorem in enumerate(("cor5", "cor5", "prop7", "prop7")):
        piece = names[(4 * r + j) % len(names)]
        n = max(2, 12 // PIECE_ORDER[piece])  # composite of at most 12 vertices
        out.append(Instance(f"r{r}.{theorem}.{j}", "rooted", {
            "theorem": theorem, "n": n, "edges": random_connected(rng, n, rng.randint(0, n)),
            "piece": piece,
            "root": rng.randrange(PIECE_ORDER[piece])}))
    out.append(Instance(f"r{r}.figure2", "figure2", {}, fixed=True))
    return out


# Malformed inputs; each must exit 1.  (name, format, text builder)
def _malformed(kind: str, n: int, edges) -> tuple[str, str]:
    text = edge_list_text(n, edges)
    lines = text.splitlines()
    if kind == "count":
        return "edgelist", f"{n} {len(edges) + 1}\n" + "\n".join(lines[1:]) + "\n"
    if kind == "token":
        return "edgelist", "\n".join(lines[:-1] + ["x y"]) + "\n"
    if kind == "triple":
        return "edgelist", "\n".join(lines[:-1] + [lines[-1] + " 1"]) + "\n"
    if kind == "selfloop":
        return "edgelist", edge_list_text(n, edges + ((1, 1),))
    if kind == "duplicate":
        return "edgelist", edge_list_text(n, edges + (edges[0],))
    if kind == "range":
        return "edgelist", edge_list_text(n, edges + ((0, n),))
    if kind == "disconnected":
        return "edgelist", edge_list_text(n + 1, edges)
    if kind == "order":
        return "edgelist", "1 0\n"
    if kind == "empty":
        return "edgelist", "# nothing here\n\n"
    if kind == "json-syntax":
        return "json", json.dumps({"n": n, "edges": [list(e) for e in edges]})[:-2]
    if kind == "json-keys":
        return "json", json.dumps({"n": n})
    raise ValueError(kind)


MALFORMED = ("count", "token", "triple", "selfloop", "duplicate", "range", "disconnected",
             "order", "empty", "json-syntax", "json-keys")
# metric_dimension has no order cap, so an oversized mdim request would run
# without bound instead of exiting 2; the refusals use the capped invariants.
REFUSAL_SIZES = (300, 600, 1000, 1000, 1000, 2000, 3000)
REFUSAL_INVARIANTS = (("fdim", None), ("fdim-plus", None), ("fdim-star", "0"), ("theta", "0,1"))


def _cli_round(rng: random.Random, r: int, workdir: Path) -> list[Instance]:
    out = []

    def write(name: str, text: str) -> str:
        path = workdir / f"r{r}.{name}"
        path.write_text(text)
        return str(path)

    for j, n in enumerate((8, 9, 10, 11)):
        edges = random_connected(rng, n)
        fmt = "json" if j % 2 else "edgelist"
        text = (json.dumps({"n": n, "edges": [list(e) for e in edges]}) if fmt == "json"
                else edge_list_text(n, edges))
        path = write(f"g{j}.{fmt}", text)
        anchors = sorted(rng.sample(range(n), rng.randint(1, 2)))
        pair = sorted(rng.sample(range(n), 2))
        for i, (inv, at) in enumerate((("mdim", None), ("fdim", None), ("fdim-plus", None),
                                       ("fdim-star", anchors), ("theta", pair))):
            mode = "json" if (i + j + r) % 2 == 0 else "human"
            argv = ["compute", "--input", path, "--format", fmt, "--invariant", inv,
                    "--output", mode]
            if at is not None:
                argv += ["--at", ",".join(map(str, at))]
            out.append(Instance(f"r{r}.g{j}.{inv}.{mode}", "cli", {
                "argv": argv, "expect_exit": 0, "output": mode,
                "compute": {"invariant": inv, "n": n, "edges": edges, "at": at}}))
    for j in range(4):
        kind = MALFORMED[(4 * r + j) % len(MALFORMED)]
        n = rng.randint(6, 12)
        fmt, text = _malformed(kind, n, random_connected(rng, n))
        path = write(f"bad{j}.{fmt}", text)
        out.append(Instance(f"r{r}.bad.{kind}", "cli", {
            "argv": ["compute", "--input", path, "--format", fmt, "--invariant", "fdim"],
            "expect_exit": 1}))
    for j, n in enumerate(REFUSAL_SIZES):
        inv, at = REFUSAL_INVARIANTS[(r + j) % len(REFUSAL_INVARIANTS)]
        path = write(f"big{j}.edgelist", edge_list_text(n, random_connected(rng, n, n // 2)))
        argv = ["compute", "--input", path, "--invariant", inv]
        if at is not None:
            argv += ["--at", at]
        out.append(Instance(f"r{r}.refuse{j}.n{n}.{inv}", "cli", {"argv": argv, "expect_exit": 2}))
    argv = ["verify", "--theorem", "thm2", "--count", "50", "--seed", str(rng.randrange(2**31)),
            "--output", "json"]
    out.append(Instance(f"r{r}.verify.thm2", "cli",
                        {"argv": argv, "expect_exit": 0, "batch": 50}))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int  # rounds in the pool; the timed loop wraps around if it needs more
    period: int  # rounds after which the rotating parts of a round repeat
    trace_rounds: int  # the fixed window of the traced run
    make_round: object
    needs_files: bool = False

    def pool(self, seed: int, workdir: Path | None = None) -> list[list[Instance]]:
        rng = random.Random(f"{self.name}:{seed}")
        if self.needs_files:
            return [self.make_round(rng, r, workdir) for r in range(self.rounds)]
        return [self.make_round(rng, r) for r in range(self.rounds)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search", 42, 7, 7, _search_round),
        Workload("compose-verify", 60, 5, 30, _compose_round),
        Workload("cli-ingest", 7, 1, 1, _cli_round, needs_files=True),
    )
}
