"""Names and units of the reported metrics; BENCHMARK.json lists the same."""

from __future__ import annotations

END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb")

PER_LAYER = (
    "graph.parse_s", "graph.build_s", "graph.builds", "graph.vertices", "graph.dist_cells",
    "graph.masks_s", "graph.masks",
    "resolve.fdim_s", "resolve.fdim_calls", "resolve.fdim_p90_ms", "resolve.mdim_s",
    "resolve.mdim_calls", "resolve.fdim_plus_s", "resolve.fdim_plus_calls", "resolve.bases_s",
    "resolve.bases_calls", "resolve.bases_found",
    "attach.point_attach_s", "attach.point_attach_calls", "attach.fdim_star_s",
    "attach.fdim_star_calls", "attach.checks_s", "attach.checks_calls",
    "compose.suite_s", "compose.suite_calls", "compose.rule_s", "compose.rule_calls",
    "compose.rooted_product_s", "compose.rooted_product_calls", "compose.verify_calls",
    "compose.verify_formula_s", "compose.verify_oracle_s", "compose.oracle_share",
    "compose.cor3_checked", "compose.cor3_mismatch", "compose.cor5_checked",
    "compose.cor5_mismatch", "compose.prop7_checked", "compose.prop7_mismatch",
    "cli.main_s", "cli.calls", "cli.self_s", "cli.exit_0", "cli.exit_1", "cli.exit_2",
    "cli.exit_3", "cli.exit_4",
    "cli_startup_s", "trace.instances", "trace.overhead_frac", "error_rate",
)

_UNITS = {"ops_per_s": "1/s", "peak_rss_mb": "MB", "compose.oracle_share": "fraction",
          "trace.overhead_frac": "fraction", "error_rate": "fraction"}


def unit(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"
