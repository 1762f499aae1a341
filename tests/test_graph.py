from __future__ import annotations

import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings

import bruteforce as bf
from conftest import Index, connected_graphs, random_connected
from ftmd import (
    DisconnectedInput,
    DuplicateEdge,
    Graph,
    GraphBuildError,
    IllegalParameter,
    InputFormatError,
    InvalidVertexSet,
    OrderTooSmall,
    RootedPiece,
    SelfLoop,
    UnsupportedConfiguration,
    VertexOutOfRange,
    build_graph,
    c1_cases,
    c1_violation,
    check_C1,
    check_C2,
    complete_graph,
    cycle_graph,
    decomposition_suite,
    enumerate_ft_bases,
    fdim,
    fdim_plus,
    fdim_star,
    fdim_star_closed_form,
    format_edge_list,
    generate,
    graph_from_json_dict,
    hypercube_graph,
    in_some_ft_basis,
    is_attaching_ft_resolving,
    is_even_graph,
    is_ft_resolving,
    is_path_graph,
    is_resolving,
    metric_dimension,
    parse_edge_list,
    path_graph,
    paw_graph,
    point_attach,
    prop9_bounds,
    random_decomposition,
    star_graph,
    theta,
    verify,
)
from ftmd.graph import check_cap, json_fields


class TestBuildGraph:
    def test_minimal_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_four_cycle(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.degrees == (2, 2, 2, 2)

    def test_rejects_isolated_vertex(self):
        with pytest.raises(DisconnectedInput):
            build_graph(4, [(0, 1), (1, 2), (2, 0)])

    def test_unreachable_list_is_truncated(self):
        # K_78 has 3003 edges, enough to pass the edge count for n = 3000
        clique = list(itertools.combinations(range(78), 2))
        with pytest.raises(DisconnectedInput) as info:
            build_graph(3000, clique)
        assert str(info.value) == (
            f"vertices unreachable from 0: {list(range(78, 98))} and {3000 - 98} more")

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph(3, [(0, 1), (1, 1), (1, 2)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_graph(3, [(0, 1), (1, 0), (1, 2)])

    def test_rejects_order_below_two(self):
        with pytest.raises(OrderTooSmall):
            build_graph(1, [])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(VertexOutOfRange):
            build_graph(3, [(0, 1), (1, 3)])

    def test_edges_are_normalized(self):
        g = build_graph(3, [(2, 1), (1, 0)])
        assert g.edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_reversed_edges_give_canonical_edges_and_ascending_adjacency(self, seed):
        rng = random.Random(seed)
        ref = random_connected(rng, 30)
        given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in ref.edges]
        rng.shuffle(given)
        for g in (build_graph(ref.n, given), Graph(ref.n, tuple(given)),
                  Graph(ref.n, tuple(list(e) for e in given))):
            assert g.edges == tuple(sorted(tuple(sorted(e)) for e in given))
            assert all(type(e) is tuple for e in g.edges)
            for v, row in enumerate(g.adjacency):
                assert list(row) == sorted(w for e in given if v in e for w in e if w != v)

    def test_distances_built_on_first_use(self, bfs_rows):
        g = cycle_graph(40)
        assert bfs_rows == [0]  # the connectivity check only
        assert "dist" not in g.__dict__
        assert g.dist.d(0, 20) == 20
        assert "dist" in g.__dict__
        # row 0 comes from the connectivity check, so one BFS per vertex
        assert bfs_rows == list(range(40))
        g.dist
        assert len(bfs_rows) == 40


C6 = cycle_graph(6)

# Every public entry point that takes a vertex or a vertex set, called with
# the label x where it takes one.
VERTEX_ENTRY_POINTS = {
    "is_resolving": lambda x: is_resolving(C6.dist, [0, x]),
    "is_ft_resolving": lambda x: is_ft_resolving(C6.dist, [0, 1, x]),
    "theta": lambda x: theta(C6, [x]),
    "in_some_ft_basis": lambda x: in_some_ft_basis(C6, x),
    "fdim_star": lambda x: fdim_star(C6, [x]),
    "is_attaching_ft_resolving at": lambda x: is_attaching_ft_resolving(C6, [x], [0]),
    "is_attaching_ft_resolving f": lambda x: is_attaching_ft_resolving(C6, [0], [x]),
    "check_C1": lambda x: check_C1(C6, [0, x]),
    "c1_violation": lambda x: c1_violation(C6, [0, x]),
    "c1_cases": lambda x: c1_cases(C6, [0, x]),
    "check_C2": lambda x: check_C2(C6, [x]),
    "fdim_star_closed_form": lambda x: fdim_star_closed_form("path", 6, [x]),
    "point_attach": lambda x: point_attach([(C6, {x: "a"})]),
    "RootedPiece": lambda x: RootedPiece(C6, x),
    "build_graph": lambda x: build_graph(3, [(0, 1), (1, x)]),
    "Graph": lambda x: Graph(3, ((0, 1), (1, x))),
}


LABEL_CASES = [
    pytest.param(call, bad, id=f"{name}-{kind}")
    for kind, bad in [("float", 2.5), ("string", "1"), ("bool", True)]
    for name, call in VERTEX_ENTRY_POINTS.items()
]


@pytest.mark.parametrize("call, bad", LABEL_CASES)
def test_every_vertex_entry_point_refuses_non_integer_labels(call, bad):
    call(2)  # the same call on an integer label goes through
    with pytest.raises(InvalidVertexSet, match="integer"):
        call(bad)


C5 = cycle_graph(5)
SMALL_DEC = random_decomposition(0, 3, 7, condition="thm2")

# Every public entry point that takes a count, an order or a cap, called
# with x there: name -> (call, an integer the call takes, the parameter as
# the message names it, the least integer taken or None, the error raised).
COUNT_ENTRY_POINTS = {
    "Graph": (lambda x: Graph(x, ((0, 1), (1, 2))), 3, "graph order", None,
              IllegalParameter),
    "check_cap": (lambda x: check_cap(5, x, None, "search"), 5, "order cap", None,
                  IllegalParameter),
    "path_graph": (path_graph, 2, "path order", 2, IllegalParameter),
    "cycle_graph": (cycle_graph, 3, "cycle order", 3, IllegalParameter),
    "complete_graph": (complete_graph, 2, "complete graph order", 2, IllegalParameter),
    "star_graph": (star_graph, 1, "star leaf count", 1, IllegalParameter),
    "hypercube_graph": (hypercube_graph, 1, "hypercube dimension", 1, IllegalParameter),
    "generate": (lambda x: generate("path", x), 4, "family 'path' size", None,
                 IllegalParameter),
    "fdim_star_closed_form": (lambda x: fdim_star_closed_form("cycle", x, [1]), 3,
                              "cycle order", 3, UnsupportedConfiguration),
    "random_decomposition k": (lambda x: random_decomposition(0, x, 12), 1, "k", 1,
                               IllegalParameter),
    "random_decomposition max_order": (lambda x: random_decomposition(0, 3, x), 7,
                                       "max_order of 3 pool pieces", 7, IllegalParameter),
    "decomposition_suite count": (lambda x: decomposition_suite(0, x, (3,), 12), 0,
                                  "count", 0, IllegalParameter),
    "decomposition_suite k_choices": (lambda x: decomposition_suite(0, 1, (x,), 12), 1,
                                      "k_choices entry", 1, IllegalParameter),
    "prop9_bounds": (lambda x: prop9_bounds(paw_graph(), x), 2, "path_len", None,
                     IllegalParameter),
    **{f"{search.__name__} cap": (lambda x, search=search: search(C5, cap=x), 5, "order cap",
                                  None, IllegalParameter)
       for search in (metric_dimension, fdim, fdim_plus, enumerate_ft_bases)},
    "fdim_star cap": (lambda x: fdim_star(C5, [0], cap=x), 5, "order cap", None,
                      IllegalParameter),
    "theta cap": (lambda x: theta(C5, [0], cap=x), 5, "order cap", None, IllegalParameter),
    "in_some_ft_basis cap": (lambda x: in_some_ft_basis(C5, 0, cap=x), 5, "order cap", None,
                             IllegalParameter),
    "verify oracle_cap": (lambda x: verify(SMALL_DEC, "thm2", oracle_cap=x), 7, "order cap",
                          None, IllegalParameter),
}


@pytest.mark.parametrize("call, good, what, least, error", [
    pytest.param(*row, id=name) for name, row in COUNT_ENTRY_POINTS.items()
])
def test_every_count_entry_point_reads_integers_by_one_rule(call, good, what, least, error):
    call(good)  # an integer goes through
    call(Index(good))  # and so does any other operator.index type
    for bad in (2.5, "3", True):
        with pytest.raises(error, match=f"^{re.escape(f'{what} {bad!r} is not an integer')}$"):
            call(bad)
    if least is not None:
        with pytest.raises(error, match=f"^{re.escape(what)} must be >= {least}, got {least - 1}$"):
            call(least - 1)


@pytest.mark.parametrize("n, edges, error, message", [
    (3.0, ((0, 1), (1, 2)), IllegalParameter, "graph order 3.0 is not an integer"),
    (True, (), IllegalParameter, "graph order True is not an integer"),
    (3, ((0, 1), (0, 1, 2)), InputFormatError, "edge (0, 1, 2) is not a pair"),
    (3, ((0, 1), 2), InputFormatError, "edge 2 is not a pair"),
], ids=["float-order", "bool-order", "three-element-edge", "non-iterable-edge"])
def test_graph_refuses_a_bad_order_or_edge(n, edges, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Graph(n, edges)


def test_graph_stores_index_types_as_ints():
    g = Graph(Index(3), ((Index(2), 1), (0, Index(1))))
    assert g == Graph(3, ((0, 1), (1, 2))) and type(g.n) is int
    assert all(type(x) is int for e in g.edges for x in e)


class TestDistances:
    def test_path_distances(self):
        d = path_graph(3).dist
        assert d.d(0, 2) == 2
        assert d.d(0, 1) == 1

    def test_even_cycle_antipode(self):
        d = cycle_graph(6).dist
        assert all(d.d(v, (v + 3) % 6) == 3 for v in range(6))

    def test_complete_graph_all_ones(self):
        d = complete_graph(5).dist
        assert all(d.d(u, v) == 1 for u in range(5) for v in range(5) if u != v)

    def test_matches_networkx(self):
        for g in [path_graph(6), cycle_graph(7), paw_graph(), hypercube_graph(3)]:
            assert [list(r) for r in g.dist.rows] == bf.nx_distances(g.n, g.edges)


class TestDistinguisherMasks:
    """The mask tuple, order included, equals the definition-level one."""

    def test_atlas_graphs(self, atlas_upto_7):
        for g in atlas_upto_7:
            assert g.dist.distinguisher_masks == bf.distinguisher_masks(g.n, g.edges)

    @pytest.mark.parametrize("n", [8, 13, 24, 40, 64, 100])
    def test_random_graphs(self, n):
        g = random_connected(random.Random(n), n)
        assert g.dist.distinguisher_masks == bf.distinguisher_masks(g.n, g.edges)

    def test_two_byte_fields(self):
        # a diameter of 256 or more needs a second byte plane; P256, of
        # diameter 255, is the widest path with one
        tail = 300  # a 6-cycle with a path of `tail` edges hung at vertex 5
        tadpole = build_graph(6 + tail, [(i, (i + 1) % 6) for i in range(6)]
                              + [(i, i + 1) for i in range(5, 5 + tail)])
        assert path_graph(256).dist.diameter == 255
        assert path_graph(257).dist.diameter == 256 and tadpole.dist.diameter > 256
        for g in (path_graph(256), path_graph(257), tadpole):
            assert g.dist.distinguisher_masks == bf.distinguisher_masks(g.n, g.edges)


class TestEccentricity:
    def test_path(self):
        d = path_graph(5).dist
        assert d.diameter == 4
        assert d.eccentricities[0] == 4 and d.eccentricities[2] == 2

    def test_complete(self):
        d = complete_graph(4).dist
        assert d.diameter == 1 and set(d.eccentricities) == {1}

    def test_paw(self):
        # enumerated by hand: pendant sits at distance 2 from the far triangle pair
        d = paw_graph().dist
        assert d.diameter == 2
        assert d.eccentricities[3] == 2


class TestEvenGraph:
    def test_even_cycle(self):
        assert is_even_graph(cycle_graph(6).dist)

    def test_hypercube(self):
        assert is_even_graph(hypercube_graph(3).dist)

    def test_odd_cycle(self):
        assert not is_even_graph(cycle_graph(5).dist)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycles_even_iff_even_order(self, n):
        assert is_even_graph(cycle_graph(n).dist) == (n % 2 == 0)


class TestPathDetection:
    def test_path(self):
        assert is_path_graph(path_graph(6)) == (0, 5)

    def test_cycle(self):
        assert is_path_graph(cycle_graph(4)) is None

    def test_star(self):
        assert is_path_graph(star_graph(3)) is None

    def test_two_vertices(self):
        assert is_path_graph(path_graph(2)) == (0, 1)


def one_orbit(g):
    """Vertex transitivity: every vertex is in the orbit of vertex 0 under
    the reference automorphisms."""
    return {a[0] for a in bf.automorphisms(g.n, g.edges)} == set(range(g.n))


class TestVertexTransitive:
    """The reference orbit test that criterion 6 relies on."""

    def test_cycle(self):
        assert one_orbit(cycle_graph(7))

    def test_paw_degree_obstruction(self):
        assert not one_orbit(paw_graph())

    def test_complete_bipartite_33(self):
        # swapping sides and permuting within sides puts every vertex in one orbit
        k33 = build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        assert one_orbit(k33)

    def test_hypercube(self):
        assert one_orbit(hypercube_graph(3))

    def test_path_not_transitive(self):
        assert not one_orbit(path_graph(4))

    def test_transitive_implies_equal_eccentricities(self):
        for g in [cycle_graph(5), cycle_graph(8), complete_graph(4), hypercube_graph(3)]:
            if one_orbit(g):
                assert len(set(g.dist.eccentricities)) == 1


class TestTwinClasses:
    """The reference twin classes that criterion 8 relies on."""

    def test_complete(self):
        assert bf.twin_classes(4, complete_graph(4).edges) == ((0, 1, 2, 3),)

    def test_star(self):
        assert bf.twin_classes(4, star_graph(3).edges) == ((0,), (1, 2, 3))

    def test_path_all_singletons(self):
        assert bf.twin_classes(5, path_graph(5).edges) == ((0,), (1,), (2,), (3,), (4,))

    def test_four_cycle_false_twins(self):
        assert bf.twin_classes(4, cycle_graph(4).edges) == ((0, 2), (1, 3))

    def test_twins_agree_on_third_vertices(self):
        for g in [complete_graph(5), star_graph(4), paw_graph(), cycle_graph(4)]:
            d = g.dist
            for cls in bf.twin_classes(g.n, g.edges):
                for u, v in itertools.combinations(cls, 2):
                    for z in range(g.n):
                        if z not in (u, v):
                            assert d.d(u, z) == d.d(v, z)


@given(connected_graphs(max_n=9))
@settings(max_examples=60, deadline=None)
def test_distance_matrix_axioms(g):
    d = g.dist
    n = g.n
    edge_set = set(g.edges)
    for u in range(n):
        assert d.d(u, u) == 0
        for v in range(n):
            assert d.d(u, v) == d.d(v, u)
            assert 0 < d.d(u, v) < n or u == v
            assert (d.d(u, v) == 1) == ((min(u, v), max(u, v)) in edge_set)
            for w in range(n):
                assert d.d(u, w) <= d.d(u, v) + d.d(v, w)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = paw_graph()
        assert parse_edge_list(format_edge_list(g)).edges == g.edges

    def test_comments_and_blanks(self):
        text = "# a paw\n4 4\n\n0 1  # triangle\n0 2\n1 2\n2 3\n"
        assert parse_edge_list(text).edges == paw_graph().edges

    def test_wrong_edge_count(self):
        with pytest.raises(InputFormatError):
            parse_edge_list("3 5\n0 1\n1 2\n")

    def test_garbage_line(self):
        with pytest.raises(InputFormatError):
            parse_edge_list("2 1\n0 one\n")

    def test_empty(self):
        with pytest.raises(InputFormatError):
            parse_edge_list("# nothing\n")

    @pytest.mark.parametrize("edge", [["a", 1], [None, 1], [0.0, 1], [False, 1], [0, True]])
    def test_json_endpoints_must_be_integers(self, edge):
        with pytest.raises(InvalidVertexSet, match="is not an integer"):
            graph_from_json_dict({"n": 3, "edges": [edge, [1, 2]]})

    def test_json_order_must_not_be_boolean(self):
        # isinstance(True, int) holds, and True would build a 1-vertex graph
        with pytest.raises(IllegalParameter,
                           match="^graph JSON: graph order True is not an integer$"):
            graph_from_json_dict({"n": True, "edges": []})


class TestJsonFields:
    """The one reader of a JSON object's keys."""

    @pytest.mark.parametrize("obj, message", [
        ([4], "graph JSON must be an object"),
        ({"n": 4}, 'graph JSON needs "n" and "edges"'),
        ({"n": 2, "edges": [[0, 1]], "m": 1}, "graph JSON: unknown key 'm'"),
    ], ids=["not-an-object", "missing-key", "unknown-key"])
    def test_graph_shape_refusals(self, obj, message):
        with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
            graph_from_json_dict(obj)

    def test_values_in_key_order_with_absent_optional_as_none(self):
        obj = {"b": 2, "a": 1}
        assert json_fields(obj, "x", ("a", "b"), ("c",)) == [1, 2, None]
        assert json_fields({**obj, "c": 3}, "x", ("a", "b"), ("c",)) == [1, 2, 3]


def _parse_both(tmp_path, n, edges):
    """The graph (or error) each parser gives for n and edges, read back from files."""
    text_path = tmp_path / "g.edgelist"
    text_path.write_text("\n".join([f"{n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]) + "\n")
    json_path = tmp_path / "g.json"
    json_path.write_text(json.dumps({"n": n, "edges": [list(e) for e in edges]}))
    return (lambda: parse_edge_list(text_path.read_text()),
            lambda: graph_from_json_dict(json.loads(json_path.read_text())))


class TestParsersMatchBuildGraph:
    """The parsers construct the Graph from their int pairs directly; they
    must give what build_graph gives on the same input, error for error, the
    JSON parser's error prefixed "graph JSON: "."""

    @pytest.mark.parametrize("g", [paw_graph(), cycle_graph(9), hypercube_graph(3)])
    def test_same_graph(self, tmp_path, g):
        expected = build_graph(g.n, g.edges)
        for parse in _parse_both(tmp_path, g.n, list(g.edges)):
            assert parse() == expected

    @pytest.mark.parametrize("n, edges", [
        (1, []),
        (3, [(0, 3), (1, 1)]),
        (3, [(1, 1), (0, 3)]),
        (3, [(0, 1), (1, 0), (1, 2)]),
        (4, [(0, 1)]),
        (4, [(0, 1), (1, 2), (0, 2)]),
    ])
    def test_same_error(self, tmp_path, n, edges):
        with pytest.raises(GraphBuildError) as expected:
            build_graph(n, edges)
        for parse in _parse_both(tmp_path, n, edges):
            with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
                parse()

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (1, 2), (2, 1)], "edge (1, 2) given twice"),
        ([(1, 2), (0, 2), (2, 1)], "edge (1, 2) given twice"),
        ([(2, 0), (0, 1), (0, 2)], "edge (0, 2) given twice"),
    ])
    def test_reversed_duplicate_names_the_canonical_edge(self, tmp_path, edges, message):
        text, json_ = _parse_both(tmp_path, 3, edges)
        for parse, prefix in [(lambda: build_graph(3, edges), ""), (text, ""),
                              (json_, "graph JSON: ")]:
            with pytest.raises(DuplicateEdge, match=f"^{re.escape(prefix + message)}$"):
                parse()

    def test_comment_blank_and_trailing_hash_lines(self):
        text = ("# a paw\n\n   \n\t\n#\n  # indented comment\n4 4 # n m\n"
                "0 1#no space\n0 2 #\n# 7 8\n1 2\t# tab\n\n2 3\n# the end")
        assert parse_edge_list(text) == build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])

    @pytest.mark.parametrize("text, message", [
        ("# c\n\n3 2\n0 1 2 # three\n1 2\n", "line 4: expected two integers, got '0 1 2 # three'"),
        ("3 2\n0 1\n  # c\n5#6\n", "line 4: expected two integers, got '5#6'"),
        ("3 2\n0 1 # ok\n1 x # y\n", "line 3: invalid literal for int() with base 10: 'x'"),
        ("# only\n\n  # comments\n", "empty edge-list input"),
        ("3 2 # header\n0 1\n# 1 2\n", "header says 2 edges, found 1"),
    ])
    def test_comment_lines_keep_error_messages(self, text, message):
        with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
            parse_edge_list(text)
