"""The input contract, on mutated files.

Valid graph, decomposition and rooted-product files have keys dropped,
replaced and added, values swapped for bools, floats, strings, nulls, lists
and huge integers, and list items duplicated.  Whatever comes out,
``cli.main`` answers with a documented exit code (0-4) and raises nothing,
and a file that its loader accepts holds only schema keys and comes back
unchanged from load, dump and load.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ftmd import (
    FtmdError,
    complete_graph,
    cycle_graph,
    decomposition_from_json,
    decomposition_to_json,
    graph_from_json_dict,
    graph_to_json_dict,
    path_graph,
    paw_graph,
    point_attach,
    rooted_spec_from_json,
    rooted_spec_to_json,
    uniform_rooted_spec,
)
from ftmd.cli import INVARIANTS, main

# The keys each object may hold, and the schema of each key's value (None:
# not an object).  A family is a list of entries or one uniform object.
GRAPH = {"n": None, "edges": None}
PIECE = {**GRAPH, "anchors": None}
ENTRY = {"graph": GRAPH, "root": None}
UNIFORM = {**ENTRY, "copies": None}
SCHEMAS = {
    "graph": GRAPH,
    "decomposition": {"pieces": [PIECE]},
    "rooted": {"base": GRAPH, "family": ([ENTRY], UNIFORM)},
}


def schema_keys_only(obj, schema) -> bool:
    if schema is None:
        return True
    if isinstance(schema, tuple):
        schema = schema[0] if isinstance(obj, list) else schema[1]
    if isinstance(schema, list):
        return all(schema_keys_only(item, schema[0]) for item in obj)
    return set(obj) <= set(schema) and all(schema_keys_only(v, schema[k]) for k, v in obj.items())


C4 = cycle_graph(4)
VALID = {
    "graph": [graph_to_json_dict(C4), graph_to_json_dict(paw_graph())],
    "decomposition": [decomposition_to_json(point_attach([
        (C4, {0: "a"}), (complete_graph(3), {0: "a", 1: "b"}), (path_graph(3), {1: "b"}),
    ]))],
    "rooted": [
        rooted_spec_to_json(uniform_rooted_spec(path_graph(2), C4, 0)),
        {"base": graph_to_json_dict(path_graph(2)),
         "family": {"graph": graph_to_json_dict(path_graph(3)), "root": 2,
                    "copies": "per-base-vertex"}},
    ],
}
LOADERS = {
    "graph": (graph_from_json_dict, graph_to_json_dict),
    "decomposition": (decomposition_from_json, decomposition_to_json),
    "rooted": (rooted_spec_from_json, rooted_spec_to_json),
}
COMMANDS = {
    "graph": [["compute", "--format", "json", "--invariant", name, *(["--at", "0"] if at else [])]
              for name, (at, _) in INVARIANTS.items()],
    "decomposition": [["compose", "--theorem", t] for t in ("prop1", "thm2", "cor3", "blocks")]
                     + [["verify", "--theorem", "thm2"]],
    "rooted": [["compose", "--theorem", t] for t in ("cor5", "prop7", "prop9")]
              + [["verify", "--theorem", "cor5"]],
}

JUNK = st.one_of(
    st.booleans(), st.none(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3), st.integers(-2, 6), st.integers(2**63, 2**80),
    st.lists(st.integers(-1, 4), max_size=3),
    st.dictionaries(st.sampled_from(["0", "1", "x"]), st.sampled_from(["a", "b"]), max_size=2),
)
KEYS = st.sampled_from(["n", "edges", "egdes", "anchors", "anchor", "pieces", "base",
                        "family", "graph", "root", "copies", "0", "1", "x"])


@st.composite
def mutated(draw, value):
    """value with one change at a drawn place inside it."""
    if isinstance(value, dict):
        op = draw(st.sampled_from(["descend", "drop", "replace", "add"])) if value else "add"
        if op == "add":
            return {**value, draw(KEYS): draw(JUNK)}
        key = draw(st.sampled_from(list(value)))
        if op == "drop":
            return {k: v for k, v in value.items() if k != key}
        return {**value, key: draw(mutated(value[key])) if op == "descend" else draw(JUNK)}
    if isinstance(value, list):
        op = (draw(st.sampled_from(["descend", "drop", "replace", "duplicate", "append"]))
              if value else "append")
        if op == "append":
            return [*value, draw(JUNK)]
        i = draw(st.integers(0, len(value) - 1))
        if op == "duplicate":
            return [*value[:i + 1], value[i], *value[i + 1:]]
        if op == "drop":
            return value[:i] + value[i + 1:]
        return [*value[:i], draw(mutated(value[i])) if op == "descend" else draw(JUNK),
                *value[i + 1:]]
    return draw(JUNK)


@st.composite
def mutated_files(draw):
    kind = draw(st.sampled_from(sorted(VALID)))
    obj = draw(st.sampled_from(VALID[kind]))
    for _ in range(draw(st.integers(0, 3))):
        obj = draw(mutated(obj))
    return kind, obj, draw(st.sampled_from(COMMANDS[kind]))


@settings(max_examples=200, derandomize=True, deadline=None,
          # the one file is rewritten for every example
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_files())
def test_mutated_files_keep_the_contract(tmp_path, capsys, case):
    kind, obj, command = case
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert main([*command, "--input", str(path)]) in range(5)
    capsys.readouterr()
    load, dump = LOADERS[kind]
    try:
        loaded = load(obj)
    except FtmdError:
        return
    assert schema_keys_only(obj, SCHEMAS[kind])
    assert load(json.loads(json.dumps(dump(loaded)))) == loaded
