from __future__ import annotations

import json
import re

import pytest

from ftmd import decomposition_to_json, figure2_decomposition, format_edge_list
from ftmd import cycle_graph, complete_graph, path_graph, paw_graph, point_attach
from ftmd import fdim, fdim_plus, fdim_star, metric_dimension, theta
from ftmd import RootedProductSpec, rooted_spec_to_json, uniform_rooted_spec, verify
from ftmd.cli import INVARIANTS, _build_parser, main
from ftmd.compose import RULES
from ftmd.resolve import FtReport


def write_graph(tmp_path, g, name="g.edgelist"):
    path = tmp_path / name
    path.write_text(format_edge_list(g))
    return str(path)


def write_json(tmp_path, payload, name="spec.json"):
    """payload as JSON, or as written when it is already text."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def write_deep_json(tmp_path, depth=200_000):
    """An array nested deeper than the JSON decoder's recursion allows."""
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    return str(path)


def assert_one_error_line(err, fragment):
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# P2 with one path 0-1-2 per base vertex, rooted at the leaf 2: the
# composite is the path 2-3-0-1-5-4, whose far-leaf layer is {2, 4}
P2_P3_ROOTED_AT_2 = {
    "base": {"n": 2, "edges": [[0, 1]]},
    "family": {"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, "root": 2,
               "copies": "per-base-vertex"},
}


C4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}


class TestCompute:
    def test_fdim_cycle(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out = run(capsys, "compute", "--input", path, "--invariant", "fdim",
                        "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 3
        assert payload["witness"] == [0, 1, 2]
        assert payload["method"] == "oracle"

    def test_fdim_star_with_anchor(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(5))
        code, out = run(capsys, "compute", "--input", path, "--invariant", "fdim-star",
                        "--at", "2", "--output", "json")
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_mdim_complete(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(4))
        code, out = run(capsys, "compute", "--input", path, "--invariant", "mdim",
                        "--output", "json")
        assert code == 0
        assert json.loads(out)["value"] == 3

    def test_theta(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out = run(capsys, "compute", "--input", path, "--invariant", "theta",
                        "--at", "0,4", "--output", "json")
        assert code == 0
        assert json.loads(out)["value"] == 1

    @pytest.mark.parametrize("at", ["0_1", "01", "+1", "٣"])
    def test_at_vertex_must_be_plain_decimal(self, tmp_path, capsys, at):
        # int() reads each of these, "0_1" as vertex 1 and the Arabic-Indic
        # digit three as vertex 3; anchor keys in JSON follow the same rule
        path = write_graph(tmp_path, cycle_graph(8))
        assert main(["compute", "--input", path, "--invariant", "fdim-star", "--at", at]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: --at vertex {at!r} is not plain decimal\n")

    @pytest.mark.parametrize("invariant, at", [
        ("theta", ","), ("fdim-star", ""), ("fdim-star", "0,0")])
    def test_at_needs_distinct_vertices(self, tmp_path, capsys, invariant, at):
        # these printed theta 0 with a blank anchors line, the plain fdim,
        # and anchors "0 0" for the anchor set {0}
        path = write_graph(tmp_path, cycle_graph(4))
        assert main(["compute", "--input", path, "--invariant", invariant, "--at", at]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: --at needs one or more distinct vertices, got {at!r}\n")

    def test_at_vertices_split_on_commas_and_spaces(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(8))
        outputs = {run(capsys, "compute", "--input", path, "--invariant", "theta",
                       "--at", at, "--output", "json") for at in ("0,4", "0 4", " 0, 4 ")}
        assert len(outputs) == 1
        code, out = outputs.pop()
        assert code == 0 and json.loads(out)["anchors"] == [0, 4]

    def test_json_graph_input(self, tmp_path, capsys):
        path = write_json(tmp_path, {"n": 3, "edges": [[0, 1], [1, 2]]})
        code, out = run(capsys, "compute", "--input", path, "--format", "json",
                        "--invariant", "fdim", "--output", "json")
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_missing_anchor_flag(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(5))
        code, _ = run(capsys, "compute", "--input", path, "--invariant", "fdim-star")
        assert code == 1

    def test_cap_exceeded_exit_code(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(18))
        code, _ = run(capsys, "compute", "--input", path, "--invariant", "fdim")
        assert code == 2

    def test_env_cap_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FTMD_ORACLE_CAP", "18")
        path = write_graph(tmp_path, cycle_graph(18))
        code, out = run(capsys, "compute", "--input", path, "--invariant", "fdim",
                        "--output", "json")
        assert code == 0
        assert json.loads(out)["value"] == 3

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.edgelist"
        bad.write_text("3 5\n0 1\n")
        code, _ = run(capsys, "compute", "--input", str(bad), "--invariant", "fdim")
        assert code == 1

    def test_deeply_nested_json_is_bad_input(self, tmp_path, capsys):
        path = write_deep_json(tmp_path)
        assert main(["compute", "--input", path, "--format", "json",
                     "--invariant", "fdim"]) == 1
        assert_one_error_line(capsys.readouterr().err, "bad JSON")

    def test_usage_error_is_exit_one(self, capsys):
        code, _ = run(capsys, "compute", "--invariant", "not-a-thing", "--input", "x")
        assert code == 1

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_mdim_cap(self, tmp_path, capsys, monkeypatch, source):
        path = write_graph(tmp_path, path_graph(7))
        argv = ["compute", "--input", path, "--invariant", "mdim"]
        if source == "flag":
            argv += ["--oracle-cap", "6"]
        else:
            monkeypatch.setenv("FTMD_ORACLE_CAP", "6")
        assert main(argv) == 2
        assert "capped at order 6, got 7" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, env, message", [
        (["--oracle-cap", "1"], None, "oracle cap must be >= 2, got 1"),
        ([], "abc", "FTMD_ORACLE_CAP 'abc' is not plain decimal"),
    ], ids=["flag-below-two", "env-not-a-number"])
    def test_bad_oracle_cap(self, tmp_path, capsys, monkeypatch, flag, env, message):
        if env is not None:
            monkeypatch.setenv("FTMD_ORACLE_CAP", env)
        path = write_graph(tmp_path, cycle_graph(4))
        assert main(["compute", "--input", path, "--invariant", "fdim", *flag]) == 1
        assert_one_error_line(capsys.readouterr().err, message)

    @pytest.mark.parametrize("invariant", ["fdim-star", "theta"])
    def test_anchor_out_of_range(self, tmp_path, capsys, invariant):
        path = write_graph(tmp_path, cycle_graph(4))
        assert main(["compute", "--input", path, "--invariant", invariant, "--at", "0,7"]) == 1
        assert capsys.readouterr().err == "error: vertex set (0, 7) outside 0..3\n"

    def test_boolean_endpoints_are_refused(self, tmp_path, capsys):
        # JSON true/false load as bools, which isinstance(_, int) accepts
        path = write_json(tmp_path, {"n": 3, "edges": [[False, True], [True, 2]]})
        assert main(["compute", "--input", path, "--format", "json",
                     "--invariant", "fdim"]) == 1
        assert capsys.readouterr().err == (
            "error: graph JSON: vertex label False is not an integer\n")

    @pytest.mark.parametrize("input_format", ["edgelist", "json"])
    def test_binary_input(self, tmp_path, capsys, input_format):
        path = tmp_path / "g.bin"
        path.write_bytes(b"\xff\xfe\x00\x81")
        assert main(["compute", "--input", str(path), "--format", input_format,
                     "--invariant", "fdim"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a text file" in err


# What each invariant of the CLI table computes, called on the library
# directly: (value, witness or None).
LIBRARY = {
    "mdim": lambda g, at: metric_dimension(g),
    "fdim": lambda g, at: fdim(g),
    "fdim-plus": lambda g, at: fdim_plus(g),
    "fdim-star": lambda g, at: fdim_star(g, at),
    "theta": lambda g, at: theta(g, at),
}


class TestInvariantTable:
    @pytest.mark.parametrize("invariant", list(INVARIANTS))
    @pytest.mark.parametrize("graph", [cycle_graph(8), path_graph(5), paw_graph()],
                             ids=["C8", "P5", "paw"])
    def test_compute_matches_the_library(self, tmp_path, capsys, invariant, graph):
        needs_at, _ = INVARIANTS[invariant]
        argv = ["compute", "--input", write_graph(tmp_path, graph), "--invariant", invariant,
                "--output", "json"]
        if needs_at:
            argv += ["--at", "0,2"]
        code, out = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        expected = LIBRARY[invariant](graph, (0, 2))
        if isinstance(expected, int):
            assert (payload["value"], payload["witness"]) == (expected, None)
        else:
            assert payload["value"] == expected.value
            assert payload["witness"] == list(expected.witness)
        assert payload["method"] == "oracle"

    def test_table_calls_the_module_global(self, tmp_path, capsys, monkeypatch):
        import ftmd.cli as cli_mod

        calls = []

        def patched(g, cap=None):
            calls.append((g.n, cap))
            return FtReport(7, (0,), "oracle")

        path = write_graph(tmp_path, cycle_graph(8))
        argv = ("compute", "--input", path, "--invariant", "fdim", "--oracle-cap", "9",
                "--output", "json")
        # the parser is cached before the rebinding, as under the bench tracer
        assert run(capsys, *argv)[0] == 0
        hits = _build_parser.cache_info().hits
        monkeypatch.setattr(cli_mod, "fdim", patched)
        code, out = run(capsys, *argv)
        assert code == 0
        assert _build_parser.cache_info().hits == hits + 1
        assert calls == [(8, 9)]
        assert (json.loads(out)["value"], json.loads(out)["witness"]) == (7, [0])

    @pytest.mark.parametrize("invariant", ["fdim-star", "theta"])
    def test_needs_at(self, tmp_path, capsys, invariant):
        path = write_graph(tmp_path, cycle_graph(8))
        assert main(["compute", "--input", path, "--invariant", invariant]) == 1
        assert capsys.readouterr().err == f"error: {invariant} needs --at\n"

    @pytest.mark.parametrize("invariant", ["mdim", "fdim", "fdim-plus"])
    def test_takes_no_at(self, tmp_path, capsys, invariant):
        path = write_graph(tmp_path, cycle_graph(8))
        assert main(["compute", "--input", path, "--invariant", invariant, "--at", "99,-4"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {invariant} takes no --at\n")


class TestParserReuse:
    """main builds its parser once per process; no call may see another's
    options, output mode or environment."""

    def test_built_once(self, tmp_path):
        graph = write_graph(tmp_path, cycle_graph(8))
        spec = write_json(tmp_path, P2_P3_ROOTED_AT_2)
        _build_parser.cache_clear()
        for argv in (["compute", "--input", graph, "--invariant", "fdim"],
                     ["compose", "--input", spec, "--theorem", "prop9"],
                     ["verify", "--input", spec, "--theorem", "prop9"],
                     ["verify", "--theorem", "thm2", "--count", "2"],
                     ["generate", "cycle", "4"],
                     ["compute", "--input", graph, "--invariant", "theta", "--at", "0,4"]):
            assert main(argv) == 0
        assert _build_parser.cache_info().misses == 1

    def test_timings_do_not_carry_over(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(8))
        argv = ("compute", "--input", path, "--invariant", "fdim", "--output", "json")
        _, out = run(capsys, *argv, "--timings")
        assert "timings" in json.loads(out)
        _, out = run(capsys, *argv)
        assert "timings" not in json.loads(out)

    def test_anchors_do_not_carry_over(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(8))
        common = ("compute", "--input", path, "--output", "json")
        _, out = run(capsys, *common, "--invariant", "fdim-star", "--at", "0")
        assert json.loads(out)["anchors"] == [0]
        code, out = run(capsys, *common, "--invariant", "fdim")
        assert code == 0
        assert "anchors" not in json.loads(out)

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(8))
        assert run(capsys, "compute", "--input", path, "--invariant", "nope")[0] == 1
        code, out = run(capsys, "compute", "--input", path, "--invariant", "fdim",
                        "--output", "json")
        assert code == 0
        assert json.loads(out)["value"] == 3

    def test_help_then_valid_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--help"])
        assert exc.value.code == 0
        assert "--invariant" in capsys.readouterr().out
        code, out = run(capsys, "generate", "cycle", "8")
        assert code == 0
        assert out.splitlines()[0] == "8 8"

    def test_cap_environment_is_read_on_every_call(self, tmp_path, capsys, monkeypatch):
        path = write_graph(tmp_path, cycle_graph(8))
        argv = ("compute", "--input", path, "--invariant", "fdim")
        monkeypatch.delenv("FTMD_ORACLE_CAP", raising=False)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setenv("FTMD_ORACLE_CAP", "6")
        assert main(list(argv)) == 2
        assert_one_error_line(capsys.readouterr().err, "capped at order 6, got 8")


def write_edge_list(tmp_path, n, edges, name="big.edgelist"):
    path = tmp_path / name
    path.write_text("\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n")
    return str(path)


BIG = 3000
BIG_CYCLE = [(i, i + 1) for i in range(BIG - 1)] + [(0, BIG - 1)]


class TestOversizedInput:
    """A graph above the cap is refused after parse, validation and the one
    BFS of the connectivity check; the errors keep their order."""

    @pytest.mark.parametrize("invariant, at", [
        ("fdim", None), ("fdim-plus", None), ("fdim-star", "0"), ("theta", "0,1"),
    ])
    def test_refused_after_one_bfs(self, tmp_path, capsys, bfs_rows, invariant, at):
        path = write_edge_list(tmp_path, BIG, BIG_CYCLE)
        argv = ["compute", "--input", path, "--invariant", invariant]
        if at is not None:
            argv += ["--at", at]
        assert main(argv) == 2
        assert "capped at order" in capsys.readouterr().err
        assert bfs_rows == [0]

    def test_disconnected_is_malformed(self, tmp_path, capsys, bfs_rows):
        # m = n - 1 passes the edge count: a 2999-cycle with vertex 2999 isolated
        cycle = [(i, i + 1) for i in range(BIG - 2)] + [(0, BIG - 2)]
        path = write_edge_list(tmp_path, BIG, cycle)
        assert main(["compute", "--input", path, "--invariant", "fdim"]) == 1
        assert "unreachable from 0: [2999]" in capsys.readouterr().err
        assert bfs_rows == [0]

    @pytest.mark.parametrize("n, edges", [(BIG, BIG_CYCLE[:BIG - 2]), (1_000_000, [])])
    def test_too_few_edges_refused_before_bfs(self, tmp_path, capsys, bfs_rows, n, edges):
        path = write_edge_list(tmp_path, n, edges)
        assert main(["compute", "--input", path, "--invariant", "fdim"]) == 1
        assert capsys.readouterr().err == (
            f"error: {len(edges)} edges cannot connect {n} vertices\n")
        assert bfs_rows == []

    def test_self_loop_is_malformed(self, tmp_path, capsys, bfs_rows):
        path = write_edge_list(tmp_path, BIG, BIG_CYCLE + [(5, 5)])
        assert main(["compute", "--input", path, "--invariant", "fdim"]) == 1
        assert "self-loop at vertex 5" in capsys.readouterr().err
        assert bfs_rows == []


class TestCompose:
    def test_figure2_relaxed_cor3(self, tmp_path, capsys):
        path = write_json(tmp_path, decomposition_to_json(figure2_decomposition()))
        code, out = run(capsys, "compose", "--input", path, "--theorem", "cor3",
                        "--relaxed-cor3", "--oracle-cap", "20", "--output", "json")
        assert code == 0
        assert json.loads(out)["value"] == 11

    def test_rooted_cor5(self, tmp_path, capsys):
        spec = {
            "base": {"n": 3, "edges": [[0, 1], [1, 2]]},
            "family": {"graph": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]},
                       "root": 0, "copies": "per-base-vertex"},
        }
        path = write_json(tmp_path, spec)
        code, out = run(capsys, "compose", "--input", path, "--theorem", "cor5",
                        "--output", "json")
        assert code == 0
        assert json.loads(out)["value"] == 6

    def test_precondition_failure_exit_code(self, tmp_path, capsys):
        dec = {"pieces": [
            {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "anchors": {"0": "x"}},
            {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "anchors": {"0": "x"}},
        ]}
        path = write_json(tmp_path, dec)
        code, out = run(capsys, "compose", "--input", path, "--theorem", "thm2",
                        "--output", "json")
        assert code == 3
        payload = json.loads(out)
        assert payload["value"] is None
        assert "k >= 3" in payload["failed"]

    @pytest.mark.parametrize("family", [
        {"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, "root": True,
         "copies": "per-base-vertex"},
        [{"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, "root": False}] * 2,
    ], ids=["uniform", "list"])
    def test_boolean_root_is_refused(self, tmp_path, capsys, family):
        spec = {"base": {"n": 2, "edges": [[0, 1]]}, "family": family}
        path = write_json(tmp_path, spec)
        assert main(["compose", "--input", path, "--theorem", "prop7"]) == 1
        assert_one_error_line(capsys.readouterr().err, "is not an integer")

    @pytest.mark.parametrize("name", [None, 5], ids=["null", "number"])
    def test_non_string_anchor_name_is_refused(self, tmp_path, capsys, name):
        # str() would glue this anchor to a piece that declares "None" or "5"
        triangle = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
        dec = {"pieces": [{**triangle, "anchors": {"0": name}},
                          {**triangle, "anchors": {"0": str(name)}}]}
        path = write_json(tmp_path, dec)
        assert main(["compose", "--input", path, "--theorem", "thm2"]) == 1
        assert_one_error_line(capsys.readouterr().err, "is not a string")

    @pytest.mark.parametrize("key", ["1_0", " 1", "+1", "01"])
    def test_anchor_key_must_be_plain_decimal(self, tmp_path, capsys, key):
        # int() reads each of these, "1_0" as vertex 10 of the 12-cycle
        dec = {"pieces": [{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "anchors": {"0": "a"}},
                          {"n": 12, "edges": [[i, (i + 1) % 12] for i in range(12)],
                           "anchors": {key: "a"}}]}
        path = write_json(tmp_path, dec)
        assert main(["compose", "--input", path, "--theorem", "prop1"]) == 1
        assert_one_error_line(capsys.readouterr().err,
                              f"piece 1: anchor key {key!r} is not plain decimal")

    def test_second_spelling_of_an_anchor_key_is_refused(self, tmp_path, capsys):
        # "01" would replace anchor "a" of vertex 1, and piece 1 would then
        # share no known anchor
        triangle = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
        dec = {"pieces": [{**triangle, "anchors": {"1": "a", "01": "b"}},
                          {**triangle, "anchors": {"0": "a"}},
                          {**triangle, "anchors": {"0": "b"}}]}
        path = write_json(tmp_path, dec)
        assert main(["compose", "--input", path, "--theorem", "prop1"]) == 1
        assert_one_error_line(capsys.readouterr().err, "anchor key '01' is not plain decimal")

    def test_one_piece_c4_anchored_at_0(self, tmp_path, capsys):
        # the correct spelling of the file that TestUnknownKeys misspells
        path = write_json(tmp_path, {"pieces": [{**C4, "anchors": {"0": "a"}}]})
        code, out = run(capsys, "compose", "--input", path, "--theorem", "prop1",
                        "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 2 and payload["bounds"] == [2, 4]

    def test_anchor_free_piece_fails_thm2(self, tmp_path, capsys):
        path = write_json(tmp_path, {"pieces": [C4]})
        code, out = run(capsys, "compose", "--input", path, "--theorem", "thm2",
                        "--output", "json")
        assert code == 3
        assert "piece 0 has an attachment vertex" in json.loads(out)["failed"]

    def test_malformed_spec(self, tmp_path, capsys):
        path = write_json(tmp_path, {"pieces": "nope"})
        code, _ = run(capsys, "compose", "--input", path, "--theorem", "thm2")
        assert code == 1

    def test_deeply_nested_json_is_bad_input(self, tmp_path, capsys):
        path = write_deep_json(tmp_path)
        assert main(["compose", "--input", path, "--theorem", "thm2"]) == 1
        assert_one_error_line(capsys.readouterr().err, "bad JSON")

    def test_prop9_witness_in_the_specs_labelling(self, tmp_path, capsys):
        path = write_json(tmp_path, P2_P3_ROOTED_AT_2)
        code, out = run(capsys, "compose", "--input", path, "--theorem", "prop9",
                        "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"] == [2, 4] and payload["witness_valid"] is True

    def test_prop9_interior_root_exit_code(self, tmp_path, capsys):
        spec = uniform_rooted_spec(cycle_graph(4), path_graph(3), 1)
        path = write_json(tmp_path, rooted_spec_to_json(spec))
        code, out = run(capsys, "compose", "--input", path, "--theorem", "prop9",
                        "--output", "json")
        assert code == 3
        assert json.loads(out)["failed"] == ["root is a leaf of the path"]


class TestVerify:
    def test_figure2(self, tmp_path, capsys):
        path = write_json(tmp_path, decomposition_to_json(figure2_decomposition()))
        code, out = run(capsys, "verify", "--input", path, "--theorem", "cor3",
                        "--relaxed-cor3", "--oracle-cap", "20", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["formula"] == payload["oracle"] == 11

    def test_batch_thm2(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "thm2", "--count", "8",
                        "--seed", "3", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] == 8 and payload["failed"] == 0

    def test_batch_prop1(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "prop1", "--count", "10",
                        "--seed", "5", "--output", "json")
        assert code == 0
        assert json.loads(out)["failed"] == 0

    def test_batch_mismatch_exits_4(self, capsys):
        # strict cor3 on the seed-0 suite: instance 5 is a counterexample
        code, out = run(capsys, "verify", "--theorem", "cor3", "--count", "6",
                        "--output", "json")
        assert code == 4
        payload = json.loads(out)
        assert (payload["passed"], payload["failed"]) == (5, 1)

    def test_batch_deterministic_output(self, capsys):
        _, first = run(capsys, "verify", "--theorem", "thm2", "--count", "5",
                       "--seed", "9", "--output", "json")
        _, second = run(capsys, "verify", "--theorem", "thm2", "--count", "5",
                        "--seed", "9", "--output", "json")
        assert first == second

    def test_mismatch_exit_code(self, tmp_path, capsys, monkeypatch):
        # force a wrong oracle answer to exercise the finding path
        import ftmd.compose as compose_mod
        from ftmd.resolve import FtReport

        real = compose_mod.fdim

        def lying_fdim(g, cap=None):
            report = real(g, cap=cap)
            return FtReport(report.value + 1, report.witness, report.method)

        monkeypatch.setattr(compose_mod, "fdim", lying_fdim)
        path = write_json(tmp_path, decomposition_to_json(figure2_decomposition()))
        code, out = run(capsys, "verify", "--input", path, "--theorem", "thm2",
                        "--oracle-cap", "20", "--output", "json")
        assert code == 4
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("theorem", ["cor5", "prop7"])
    def test_shipped_rule_mismatch_exits_4(self, tmp_path, capsys, theorem):
        # [documented discrepancy] the rule gives 6, the search 4
        spec = uniform_rooted_spec(path_graph(2), cycle_graph(4), 0)
        path = write_json(tmp_path, rooted_spec_to_json(spec))
        code, out = run(capsys, "verify", "--input", path, "--theorem", theorem,
                        "--output", "json")
        assert code == 4
        assert (json.loads(out)["formula"], json.loads(out)["oracle"]) == (6, 4)

    def test_cap_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path, decomposition_to_json(figure2_decomposition()))
        code, _ = run(capsys, "verify", "--input", path, "--theorem", "thm2",
                      "--oracle-cap", "16")
        assert code == 2

    def test_oracle_cap_reaches_the_rule(self, tmp_path, capsys):
        # a C17 end piece: above the default anchored-search cap of 16
        dec = point_attach([
            (cycle_graph(17), {0: "a"}),
            (complete_graph(3), {0: "a", 1: "b"}),
            (complete_graph(3), {0: "b"}),
        ])
        path = write_json(tmp_path, decomposition_to_json(dec))
        code, out = run(capsys, "verify", "--input", path, "--theorem", "thm2",
                        "--oracle-cap", "21", "--output", "json")
        assert code == 0
        assert json.loads(out)["formula"] == json.loads(out)["oracle"] == 4

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_batch_count_below_one(self, capsys, count):
        assert main(["verify", "--theorem", "thm2", "--count", count]) == 1
        assert capsys.readouterr().err == f"error: --count must be >= 1, got {count}\n"

    def test_needs_input_or_count(self, capsys):
        assert main(["verify", "--theorem", "thm2"]) == 1
        assert capsys.readouterr().err == "error: verify needs --input or --count\n"

    def test_input_and_count_are_refused_together(self, tmp_path, capsys):
        # the batch once ran and the file was silently ignored
        path = write_json(tmp_path, decomposition_to_json(figure2_decomposition()))
        assert main(["verify", "--input", path, "--theorem", "thm2", "--count", "2"]) == 1
        assert capsys.readouterr().err == "error: verify takes --input or --count, not both\n"

    def test_batch_needs_a_batched_rule(self, capsys):
        code, _ = run(capsys, "verify", "--theorem", "blocks", "--count", "3")
        assert code == 1

    @pytest.mark.parametrize("command", ["compose", "verify"])
    def test_prop9_non_path_piece(self, tmp_path, capsys, command):
        spec = uniform_rooted_spec(cycle_graph(4), complete_graph(3), 0)
        path = write_json(tmp_path, rooted_spec_to_json(spec))
        assert main([command, "--input", path, "--theorem", "prop9"]) == 1
        assert "prop9 needs path pieces" in capsys.readouterr().err


# One small instance per rule on which every hypothesis holds:
# (target, --relaxed-cor3, cap).
AGREEMENT_CASES = {
    "prop1": (figure2_decomposition, False, 20),
    "thm2": (figure2_decomposition, False, 20),
    "cor3": (figure2_decomposition, True, 20),
    "blocks": (lambda: point_attach([
        (complete_graph(3), {0: "x", 1: "y"}),
        (complete_graph(4), {0: "x"}),
        (complete_graph(4), {0: "y"}),
    ]), False, 16),
    "cor5": (lambda: uniform_rooted_spec(path_graph(3), cycle_graph(5), 0), False, 16),
    "prop7": (lambda: uniform_rooted_spec(path_graph(3), complete_graph(4), 0), False, 16),
    "prop9": (lambda: uniform_rooted_spec(cycle_graph(4), path_graph(3), 0), False, 16),
}


@pytest.mark.parametrize("theorem", list(RULES))
def test_compose_verify_and_registry_agree(theorem, tmp_path, capsys):
    make, relaxed, cap = AGREEMENT_CASES[theorem]
    target = make()
    if isinstance(target, RootedProductSpec):
        path = write_json(tmp_path, rooted_spec_to_json(target))
    else:
        path = write_json(tmp_path, decomposition_to_json(target))
    argv = ["compose", "--input", path, "--theorem", theorem, "--oracle-cap", str(cap),
            "--output", "json"]
    if relaxed:
        argv.append("--relaxed-cor3")
    code, out = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    res = RULES[theorem].apply(target, cap, relaxed)
    assert payload["value"] == res.value
    assert payload.get("bounds") == (list(res.bounds) if res.bounds else None)
    report = verify(target, theorem, oracle_cap=cap, relaxed_cor3=relaxed)
    assert (report.formula_value, report.bounds) == (res.value, res.bounds)
    assert report.ok


class TestTimings:
    def test_compute(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out = run(capsys, "compute", "--input", path, "--invariant", "fdim",
                        "--timings", "--output", "json")
        assert code == 0
        assert set(json.loads(out)["timings"]) == {"compute_s"}

    def test_compose(self, tmp_path, capsys):
        path = write_json(tmp_path, P2_P3_ROOTED_AT_2)
        code, out = run(capsys, "compose", "--input", path, "--theorem", "prop9",
                        "--timings", "--output", "json")
        assert code == 0
        assert set(json.loads(out)["timings"]) == {"rule_s"}

    def test_verify(self, tmp_path, capsys):
        path = write_json(tmp_path, P2_P3_ROOTED_AT_2)
        code, out = run(capsys, "verify", "--input", path, "--theorem", "prop9",
                        "--timings", "--output", "json")
        assert code == 0
        assert set(json.loads(out)["timings"]) == {"formula_s", "oracle_s"}

    @pytest.mark.parametrize("command, names", [
        ("compute", ["compute_s"]),
        ("compose", ["rule_s"]),
        ("verify", ["formula_s", "oracle_s"]),
    ])
    def test_human_line_is_key_value_pairs(self, tmp_path, capsys, command, names):
        if command == "compute":
            argv = ["--input", write_graph(tmp_path, cycle_graph(8)), "--invariant", "fdim"]
        else:
            argv = ["--input", write_json(tmp_path, P2_P3_ROOTED_AT_2), "--theorem", "prop9"]
        code, out = run(capsys, command, *argv, "--timings")
        assert code == 0
        [line] = [line for line in out.splitlines() if line.startswith("timings")]
        # the same name=value form as the batch instance lines, no dict repr
        assert re.fullmatch(r"timings +" + " ".join(rf"{n}=\S+" for n in names), line)
        assert "{" not in line

    def test_verify_batch(self, capsys):
        argv = ["verify", "--theorem", "thm2", "--count", "3", "--timings"]
        code, out = run(capsys, *argv, "--output", "json")
        assert code == 0
        for inst in json.loads(out)["instances"]:
            assert inst["formula_s"] >= 0 and inst["oracle_s"] >= 0
        code, out = run(capsys, *argv)
        lines = [line for line in out.splitlines() if line.lstrip().startswith("#")]
        assert len(lines) == 3
        assert all(" ok formula_s=" in line and " oracle_s=" in line for line in lines)
        # without the flag the instances keep their five fields
        code, out = run(capsys, *argv[:-1], "--output", "json")
        assert all(set(inst) == {"index", "order", "formula", "oracle", "ok"}
                   for inst in json.loads(out)["instances"])


class TestGenerate:
    def test_cycle_edgelist(self, capsys):
        code, out = run(capsys, "generate", "cycle", "8")
        assert code == 0
        assert out.splitlines()[0] == "8 8"

    def test_figure2_json(self, capsys):
        code, out = run(capsys, "generate", "figure2")
        assert code == 0
        assert len(json.loads(out)["pieces"]) == 5

    def test_round_trips_into_compute(self, tmp_path, capsys):
        code, out = run(capsys, "generate", "star", "4")
        path = tmp_path / "s4.edgelist"
        path.write_text(out)
        code, out = run(capsys, "compute", "--input", str(path), "--invariant", "fdim",
                        "--output", "json")
        assert code == 0
        assert json.loads(out)["value"] == 4

    def test_bad_parameter(self, capsys):
        code, _ = run(capsys, "generate", "cycle", "2")
        assert code == 1

    @pytest.mark.parametrize("family, size", [("hypercube", "40"), ("complete", "100000")])
    def test_oversized_family_is_refused(self, capsys, family, size):
        assert main(["generate", family, size]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "edges")

    def test_ignores_the_cap_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("FTMD_ORACLE_CAP", "x")
        code, out = run(capsys, "generate", "cycle", "4")
        assert code == 0
        assert out.splitlines()[0] == "4 4"

    @pytest.mark.parametrize("flag", [["--oracle-cap", "1"], ["--oracle-cap", "9"],
                                      ["--output", "json"], ["--timings"]])
    def test_search_options_are_usage_errors(self, capsys, flag):
        assert main(["generate", "cycle", "4", *flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unrecognized arguments: ")


class TestPlainDecimalIntegers:
    """Every integer on the command line and in $FTMD_ORACLE_CAP is read as
    plain decimal, as --at vertices and anchor keys are: int() read "1_0" as
    10, "+4" and the Arabic-Indic digit four as 4, and " 1_6 " as 16."""

    @pytest.mark.parametrize("argv, env, message", [
        (["generate", "path", "1_0"], None, "size '1_0' is not plain decimal"),
        (["generate", "path", "+4"], None, "size '+4' is not plain decimal"),
        (["generate", "path", "٤"], None, "size '٤' is not plain decimal"),
        (["compute", "--invariant", "fdim", "--oracle-cap", "1_6"], None,
         "--oracle-cap '1_6' is not plain decimal"),
        (["compute", "--invariant", "fdim"], " 1_6 ",
         "FTMD_ORACLE_CAP ' 1_6 ' is not plain decimal"),
        (["verify", "--theorem", "thm2", "--count", "0_5"], None,
         "--count '0_5' is not plain decimal"),
        (["verify", "--theorem", "thm2", "--count", "1", "--seed", "01"], None,
         "--seed '01' is not plain decimal"),
    ], ids=["size-underscore", "size-plus", "size-arabic-indic", "oracle-cap", "env",
            "count", "seed"])
    def test_integer_must_be_plain_decimal(self, tmp_path, capsys, monkeypatch, argv, env,
                                           message):
        if env is not None:
            monkeypatch.setenv("FTMD_ORACLE_CAP", env)
        if argv[0] == "compute":
            argv = [*argv, "--input", write_graph(tmp_path, cycle_graph(4))]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestJsonRoundTrip:
    def test_reports_parse_back(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(8))
        _, out = run(capsys, "compute", "--input", path, "--invariant", "fdim",
                     "--output", "json")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload

    def test_same_config_byte_identical(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(8))
        _, first = run(capsys, "compute", "--input", path, "--invariant", "fdim",
                       "--output", "json")
        _, second = run(capsys, "compute", "--input", path, "--invariant", "fdim",
                        "--output", "json")
        assert first == second


P2 = {"n": 2, "edges": [[0, 1]]}
P3_ROOTED_AT_2 = {"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, "root": 2}


class TestUnknownKeys:
    """A key outside its object's schema is refused with exit 1 at every
    level, where it used to be ignored: a piece that spells "anchors" as
    "anchor" was read as anchor-free, so prop1 printed 4 instead of 2.  So
    is a key given twice, whose last value json.loads would keep, and a
    known key whose value has the wrong shape.  A nested graph that does not
    build is named too: a piece that repeats an edge once gave only "edge
    (0, 1) given twice"."""

    @pytest.mark.parametrize("argv, payload, message", [
        (["compute", "--format", "json", "--invariant", "fdim"],
         {**C4, "egdes": []}, "graph JSON: unknown key 'egdes'"),
        (["compose", "--theorem", "prop1"],
         {"pieces": [{**C4, "anchor": {"0": "a"}}]}, "piece 0: unknown key 'anchor'"),
        (["compose", "--theorem", "prop1"],
         {"pieces": [{**C4, "anchors": {"0": "a"}}], "name": "C4"},
         "decomposition JSON: unknown key 'name'"),
        (["compose", "--theorem", "prop9"],
         {**P2_P3_ROOTED_AT_2, "theorem": "prop9"},
         "rooted-product JSON: unknown key 'theorem'"),
        (["compose", "--theorem", "prop9"],
         {"base": P2, "family": [{**P3_ROOTED_AT_2, "copies": "per-base-vertex"}] * 2},
         "family entry 0: unknown key 'copies'"),
        (["compose", "--theorem", "prop9"],
         {"base": P2, "family": {**P3_ROOTED_AT_2, "copies": "per-base-vertex", "count": 2}},
         "uniform family: unknown key 'count'"),
        (["compose", "--theorem", "prop9"],
         {"base": {**P2, "anchors": {}}, "family": [P3_ROOTED_AT_2] * 2},
         "base: unknown key 'anchors'"),
        (["compose", "--theorem", "prop9"],
         {"base": P2, "family": [P3_ROOTED_AT_2,
                                 {**P3_ROOTED_AT_2, "graph": {**P2, "root": 1}}]},
         "family entry 1 graph: unknown key 'root'"),
        (["compose", "--theorem", "prop9"],
         {"base": P2, "family": {**P3_ROOTED_AT_2, "graph": {"n": 3}, "copies": "per-base-vertex"}},
         'uniform family graph needs "n" and "edges"'),
        # json.loads keeps the last value: prop1 ran with anchor "a" and exited 0
        (["compose", "--theorem", "prop1"],
         '{"pieces": [{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]],'
         ' "anchors": {"0": "b"}, "anchors": {"0": "a"}}]}',
         "repeated key 'anchors'"),
        (["compose", "--theorem", "prop1"],
         {"pieces": [{**C4, "anchors": [0]}]}, "piece 0: anchors must map vertex to name"),
        (["compose", "--theorem", "prop9"],
         {"base": P2, "family": {**P3_ROOTED_AT_2, "copies": "twice"}},
         'uniform family needs "copies": "per-base-vertex"'),
        (["compose", "--theorem", "prop1"],
         {"pieces": [{**C4, "anchors": {"0": "a"}},
                     {"n": 3, "edges": [[0, 1], [1, 0], [1, 2]], "anchors": {"0": "a"}}]},
         "piece 1: edge (0, 1) given twice"),
        (["compose", "--theorem", "prop9"],
         {"base": P2, "family": [P3_ROOTED_AT_2,
                                 {**P3_ROOTED_AT_2, "graph": {"n": 3, "edges": [[0, 1], [1, 5]]}}]},
         "family entry 1 graph: edge (1, 5) outside 0..2"),
    ], ids=["graph", "piece", "decomposition", "rooted-product", "family-entry",
            "uniform-family", "base-graph", "family-entry-graph", "uniform-family-graph",
            "repeated-key", "anchors-list", "copies-twice", "piece-build",
            "family-entry-graph-build"])
    def test_unknown_key_is_refused(self, tmp_path, capsys, argv, payload, message):
        path = write_json(tmp_path, payload)
        assert main([*argv, "--input", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, message)
