"""Spans around the library's public calls, recorded from outside.

``Tracer.installed()`` rebinds every module-level name in the ``ftmd``
modules that refers to a traced function, wraps ``Graph.__post_init__``
(graph build) and the ``distinguisher_masks`` cached property (first
access per graph), and undoes all of it on exit.  Spans are kept in
memory; ``layer_metrics`` folds them into the per-layer figures.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import ftmd.attach
import ftmd.cli
import ftmd.compose
import ftmd.families
import ftmd.graph
import ftmd.resolve

from .stats import percentile

MODULES = (ftmd, ftmd.graph, ftmd.resolve, ftmd.attach, ftmd.compose, ftmd.families, ftmd.cli)

# layer -> public functions whose calls are that layer's spans
LAYERS = {
    "graph.parse": (ftmd.graph.parse_edge_list, ftmd.graph.graph_from_json_dict),
    "resolve.fdim": (ftmd.resolve.fdim,),
    "resolve.mdim": (ftmd.resolve.metric_dimension,),
    "resolve.fdim_plus": (ftmd.resolve.fdim_plus,),
    "resolve.bases": (
        ftmd.resolve.enumerate_ft_bases,
        ftmd.resolve.theta,
        ftmd.resolve.in_some_ft_basis,
    ),
    "attach.point_attach": (ftmd.attach.point_attach,),
    "attach.fdim_star": (ftmd.attach.fdim_star,),
    "attach.checks": (ftmd.attach.check_C1, ftmd.attach.check_C2),
    "compose.suite": (ftmd.compose.decomposition_suite,),
    "compose.rule": (
        ftmd.compose.prop1_lower_bound,
        ftmd.compose.theorem2_fdim,
        ftmd.compose.corollary3_fdim,
        ftmd.compose.block_graph_fdim,
        ftmd.compose.cor5_fdim,
        ftmd.compose.prop7_fdim,
        ftmd.compose.prop9_bounds,
    ),
    "compose.rooted_product": (ftmd.compose.rooted_product,),
    "compose.verify": (ftmd.compose.verify,),
    "cli.main": (ftmd.cli.main,),
}


@dataclass
class Span:
    layer: str
    name: str
    instance: int
    parent: Span | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0  # time covered by nested traced spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    verify_formula_s: float = 0.0  # summed VerifyReport.elapsed_formula
    verify_oracle_s: float = 0.0  # summed VerifyReport.elapsed_oracle
    instance: int = -1
    _stack: list[Span] = field(default_factory=list)

    def _span(self, layer: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, fn.__name__, self.instance, self._stack[-1] if self._stack else None)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                self.spans.append(span)
            if note is not None:
                note(args, result)
            return result

        return traced

    def _note_build(self, args, _result) -> None:
        n = args[0].n
        self.counts["graph.vertices"] += n
        self.counts["graph.dist_cells"] += n * n

    def _note_result(self, fn):
        if fn is ftmd.resolve.enumerate_ft_bases:
            return lambda _args, bases: self.counts.update({"resolve.bases_found": len(bases)})
        if fn is ftmd.compose.verify:
            def note(_args, report):
                self.verify_formula_s += report.elapsed_formula
                self.verify_oracle_s += report.elapsed_oracle
            return note
        if fn is ftmd.cli.main:
            return lambda _args, code: self.counts.update([f"cli.exit_{code}"])
        return None

    @contextmanager
    def installed(self):
        """Trace every call made inside the block."""
        undo = []
        for layer, fns in LAYERS.items():
            for fn in fns:
                wrapper = self._span(layer, fn, self._note_result(fn))
                for mod in MODULES:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, name, wrapper)
                            undo.append((mod, name, fn))
        graph_cls = ftmd.graph.Graph
        post_init = graph_cls.__post_init__
        graph_cls.__post_init__ = self._span("graph.build", post_init, self._note_build)
        undo.append((graph_cls, "__post_init__", post_init))
        dm = ftmd.graph.DistanceMatrix
        masks_prop = dm.__dict__["distinguisher_masks"]
        traced_prop = functools.cached_property(self._span("graph.masks", masks_prop.func))
        traced_prop.__set_name__(dm, "distinguisher_masks")
        dm.distinguisher_masks = traced_prop
        undo.append((dm, "distinguisher_masks", masks_prop))
        try:
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: ``<layer>_s`` is self time (nested traced spans
        excluded) except ``cli.main_s``, which is the whole call."""
        by_layer: dict[str, list[Span]] = {}
        for span in self.spans:
            by_layer.setdefault(span.layer, []).append(span)

        def self_s(layer: str) -> float:
            return sum((s.self_s for s in by_layer.get(layer, ())), 0.0)

        def calls(layer: str) -> int:
            return len(by_layer.get(layer, ()))

        fdim_ms = [s.duration * 1e3 for s in by_layer.get("resolve.fdim", ())]
        try:
            fdim_p90 = percentile(fdim_ms, 0.9)
        except ValueError:
            fdim_p90 = 0.0  # fewer than 100 calls: no p90 with ten samples beyond
        formula_s, oracle_s = self.verify_formula_s, self.verify_oracle_s
        main_spans = by_layer.get("cli.main", ())
        m = {
            "graph.parse_s": self_s("graph.parse"),
            "graph.build_s": self_s("graph.build"),
            "graph.builds": calls("graph.build"),
            "graph.vertices": self.counts["graph.vertices"],
            "graph.dist_cells": self.counts["graph.dist_cells"],
            "graph.masks_s": self_s("graph.masks"),
            "graph.masks": calls("graph.masks"),
            "resolve.fdim_s": self_s("resolve.fdim"),
            "resolve.fdim_calls": calls("resolve.fdim"),
            "resolve.fdim_p90_ms": fdim_p90,
            "resolve.mdim_s": self_s("resolve.mdim"),
            "resolve.mdim_calls": calls("resolve.mdim"),
            "resolve.fdim_plus_s": self_s("resolve.fdim_plus"),
            "resolve.fdim_plus_calls": calls("resolve.fdim_plus"),
            "resolve.bases_s": self_s("resolve.bases"),
            "resolve.bases_calls": calls("resolve.bases"),
            "resolve.bases_found": self.counts["resolve.bases_found"],
            "attach.point_attach_s": self_s("attach.point_attach"),
            "attach.point_attach_calls": calls("attach.point_attach"),
            "attach.fdim_star_s": self_s("attach.fdim_star"),
            "attach.fdim_star_calls": calls("attach.fdim_star"),
            "attach.checks_s": self_s("attach.checks"),
            "attach.checks_calls": calls("attach.checks"),
            "compose.suite_s": self_s("compose.suite"),
            "compose.suite_calls": calls("compose.suite"),
            "compose.rule_s": self_s("compose.rule"),
            "compose.rule_calls": calls("compose.rule"),
            "compose.rooted_product_s": self_s("compose.rooted_product"),
            "compose.rooted_product_calls": calls("compose.rooted_product"),
            "compose.verify_calls": calls("compose.verify"),
            "compose.verify_formula_s": formula_s,
            "compose.verify_oracle_s": oracle_s,
            "compose.oracle_share": oracle_s / (formula_s + oracle_s) if oracle_s else 0.0,
            "cli.main_s": sum((s.duration for s in main_spans), 0.0),
            "cli.calls": len(main_spans),
            "cli.self_s": sum((s.self_s for s in main_spans), 0.0),
        }
        for code in range(5):
            m[f"cli.exit_{code}"] = self.counts[f"cli.exit_{code}"]
        return m
