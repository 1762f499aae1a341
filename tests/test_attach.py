from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import Index, connected_graphs, random_connected
from ftmd import (
    AnchorReuseWithinPiece,
    Graph,
    InputFormatError,
    InvalidVertexSet,
    NonTreeAttachment,
    OverlapError,
    UnsupportedConfiguration,
    c1_cases,
    c1_violation,
    check_C1,
    check_C2,
    complete_graph,
    cycle_graph,
    decomposition_from_json,
    decomposition_to_json,
    fdim,
    fdim_star,
    fdim_star_closed_form,
    figure2_decomposition,
    is_attaching_ft_resolving,
    metric_dimension,
    path_graph,
    paw_graph,
    point_attach,
    star_graph,
)


class TestPointAttach:
    def test_bowtie_from_two_triangles(self):
        dec = point_attach([
            (complete_graph(3), {0: "a"}),
            (complete_graph(3), {0: "a"}),
        ])
        assert dec.composite.n == 5
        assert frozenset().union(*map(dec.at_global, range(dec.k))) == {0}
        assert dec.at_global(0) == dec.at_global(1) == frozenset({0})

    def test_figure2_composite(self):
        dec = figure2_decomposition()
        assert dec.k == 5
        assert dec.composite.n == 20  # 24 piece vertices minus 4 identifications
        assert len(frozenset().union(*map(dec.at_global, range(dec.k)))) == 4
        assert [dec.piece_role(i) for i in range(5)] == [
            "end", "internal", "end", "internal", "end",
        ]

    def test_single_piece_without_anchors(self):
        dec = point_attach([(cycle_graph(6), {})])
        assert dec.composite.edges == cycle_graph(6).edges
        assert frozenset().union(*map(dec.at_global, range(dec.k))) == frozenset()
        assert dec.piece_role(0) == "unattached"

    def test_single_piece_with_declared_anchor(self):
        dec = point_attach([(cycle_graph(6), {0: "a"})])
        assert dec.at_local(0) == (0,)

    @pytest.mark.parametrize("name", [None, 5], ids=["none", "number"])
    def test_non_string_anchor_name_is_refused(self, name):
        # str() would glue this anchor to the first piece's "None" or "5"
        with pytest.raises(InputFormatError, match="^piece 1: anchor name .* is not a string$"):
            point_attach([(complete_graph(3), {0: str(name)}), (complete_graph(3), {1: name})])

    def test_no_pieces_refused(self):
        with pytest.raises(NonTreeAttachment, match="need at least one piece"):
            point_attach([])

    def test_anchor_vertex_out_of_range(self):
        with pytest.raises(InputFormatError, match="piece 1: anchor vertex 3 out of range"):
            point_attach([(complete_graph(3), {0: "a"}), (complete_graph(3), {3: "a"})])

    @pytest.mark.parametrize("spec, message", [
        # one vertex named "a" and "b": sorting the pairs kept "b" silently
        ([(path_graph(3), {1: "a", Index(1): "b"}), (cycle_graph(4), {0: "b"})],
         "piece 0: anchor vertex 1 given twice"),
        # a None name and a string one: sorting the pairs raised TypeError
        ([(path_graph(3), {0: "a"}), (cycle_graph(4), {0: None, Index(0): "a"})],
         "piece 1: anchor vertex 0 given twice"),
    ], ids=["two-names", "unsortable-names"])
    def test_anchor_vertex_given_twice_is_refused(self, spec, message):
        with pytest.raises(InputFormatError, match=f"^{message}$"):
            point_attach(spec)

    def test_anchor_reuse_within_piece(self):
        with pytest.raises(AnchorReuseWithinPiece):
            point_attach([(complete_graph(3), {0: "a", 1: "a"})])

    def test_unshared_piece_rejected(self):
        with pytest.raises(NonTreeAttachment):
            point_attach([
                (complete_graph(3), {0: "a"}),
                (complete_graph(3), {0: "b"}),
            ])

    def test_double_shared_piece_rejected(self):
        with pytest.raises(NonTreeAttachment):
            point_attach([
                (complete_graph(3), {0: "a", 1: "b"}),
                (complete_graph(3), {0: "a", 1: "b"}),
            ])

    def test_piece_vertex_sets_overlap_only_in_anchors(self):
        dec = figure2_decomposition()
        for i, j in itertools.combinations(range(dec.k), 2):
            vi = set(dec.global_ids[i])
            vj = set(dec.global_ids[j])
            assert vi & vj == set(dec.at_global(i) & dec.at_global(j))

    def test_pieces_isometric_in_composite(self):
        decs = [figure2_decomposition()]
        rng = random.Random(5)
        for _ in range(10):
            pieces = [random_connected(rng, rng.randint(2, 5)) for _ in range(3)]
            decs.append(point_attach([
                (pieces[0], {0: "a", pieces[0].n - 1: "b"}),
                (pieces[1], {rng.randrange(pieces[1].n): "a"}),
                (pieces[2], {rng.randrange(pieces[2].n): "b"}),
            ]))
        for dec in decs:
            comp = bf.nx_distances(dec.composite.n, dec.composite.edges)
            for i, piece in enumerate(dec.pieces):
                local = bf.nx_distances(piece.n, piece.edges)
                ids = dec.global_ids[i]
                for x in range(piece.n):
                    for y in range(piece.n):
                        assert comp[ids[x]][ids[y]] == local[x][y]

    def test_composite_distances_built_on_first_use(self, bfs_rows):
        pieces = [cycle_graph(6), complete_graph(4), path_graph(5)]
        bfs_rows.clear()
        dec = point_attach([
            (pieces[0], {0: "a", 3: "b"}),
            (pieces[1], {0: "a"}),
            (pieces[2], {2: "b"}),
        ])
        assert bfs_rows == [0]  # the composite's connectivity check only
        assert "dist" not in dec.composite.__dict__

    def test_at_least_two_end_pieces(self):
        rng = random.Random(11)
        for _ in range(10):
            pieces = [random_connected(rng, rng.randint(2, 5)) for _ in range(4)]
            dec = point_attach([
                (pieces[0], {0: "a"}),
                (pieces[1], {0: "a", pieces[1].n - 1: "b"}),
                (pieces[2], {0: "b", pieces[2].n - 1: "c"}),
                (pieces[3], {0: "c"}),
            ])
            ends = [i for i in range(dec.k) if dec.piece_role(i) == "end"]
            assert len(ends) >= 2


@st.composite
def tree_like_specs(draw):
    """1-5 random connected pieces of order 2-7.  Each piece after the first
    shares one name declared earlier, at a random vertex; each piece may
    declare up to two new names, and the first declares at least one."""
    spec = []
    declared: list[str] = []
    for i in range(draw(st.integers(1, 5))):
        piece = draw(connected_graphs(2, 7))
        amap = {}
        if i:
            amap[draw(st.integers(0, piece.n - 1))] = draw(st.sampled_from(declared))
        fresh = draw(st.sets(st.integers(0, piece.n - 1), min_size=0 if i else 1, max_size=2))
        for v in sorted(fresh - set(amap)):
            amap[v] = f"p{i}.{v}"
            declared.append(amap[v])
        spec.append((piece, amap))
    return spec


@given(tree_like_specs())
@settings(max_examples=80, deadline=None)
def test_pieces_are_isometric_in_tree_like_composites(spec):
    dec = point_attach(spec)
    assert dec.composite.n == sum(p.n for p, _ in spec) - (len(spec) - 1)
    comp = dec.composite.dist
    reference = bf.nx_distances(dec.composite.n, dec.composite.edges)
    for piece, ids in zip(dec.pieces, dec.global_ids):
        for x in range(piece.n):
            for y in range(piece.n):
                assert comp.d(ids[x], ids[y]) == piece.dist.d(x, y) == reference[ids[x]][ids[y]]


class TestAttachingFtResolving:
    def test_empty_candidate_needs_resolving_anchors(self):
        g = path_graph(5)
        assert is_attaching_ft_resolving(g, (0,), ())
        assert not is_attaching_ft_resolving(g, (2,), ())

    def test_center_anchor_with_both_leaves(self):
        assert is_attaching_ft_resolving(path_graph(5), (2,), (0, 4))

    def test_center_anchor_with_single_leaf_fails(self):
        assert not is_attaching_ft_resolving(path_graph(5), (2,), (0,))

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            is_attaching_ft_resolving(path_graph(5), (2,), (2, 4))

    def test_matches_reference(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_connected(rng, rng.randint(3, 7))
            dist = bf.nx_distances(g.n, g.edges)
            vs = list(range(g.n))
            rng.shuffle(vs)
            at = tuple(sorted(vs[: rng.randint(1, 2)]))
            f = tuple(sorted(vs[len(at): len(at) + rng.randint(0, 3)]))
            assert is_attaching_ft_resolving(g, at, f) == bf.attaching_ft_resolves(
                dist, g.n, at, f
            )


class TestFdimStar:
    def test_cycle_antipodal_pair(self):
        rep = fdim_star(cycle_graph(8), (0, 4))
        assert rep.value == 2
        assert rep.witness == (1, 2)

    def test_complete_small_anchor_set(self):
        assert fdim_star(complete_graph(6), (0, 1)).value == 4

    def test_complete_large_anchor_set(self):
        assert fdim_star(complete_graph(6), (0, 1, 2, 3, 4)).value == 0

    def test_two_byte_planes(self):
        # diameter 299: the wide masks go through the anchored cover search
        value = fdim_star(path_graph(300), [150], cap=300).value
        assert value == fdim_star_closed_form("path", 300, [150]) == 2

    def test_same_report_before_and_after_fdim(self):
        # the anchored searches share fdim's index and memo, which keys
        # each result by demand and anchor set
        rng = random.Random(28)
        for _ in range(12):
            n = rng.randint(8, 12)
            edges = random_connected(rng, n).edges
            resolving = metric_dimension(Graph(n, edges)).witness
            anchor_sets = [(), (n - 1,), tuple(sorted(rng.sample(range(n), 2))), resolving]
            before, after = Graph(n, edges), Graph(n, edges)
            fdim(after)
            for at in anchor_sets:
                report = fdim_star(before, at)
                assert fdim_star(after, at) == report
                assert report.witness == bf.first_attaching_set(n, edges, at)
            assert fdim_star(before, resolving).value == 0
            assert fdim(before) == fdim(after)

    def test_string_anchor_rejected(self):
        with pytest.raises(InvalidVertexSet, match="is not an integer"):
            fdim_star(cycle_graph(6), ["0"])

    def test_empty_anchor_set_degenerates_to_fdim(self):
        g = cycle_graph(6)
        assert fdim_star(g, ()).value == fdim(g).value

    def test_within_one_of_fdim_for_single_anchor(self):
        # a lone anchor that already resolves the graph (a path leaf) gives
        # 0 outright; everywhere else the value sits within one of fdim
        from ftmd import is_resolving

        for g in [cycle_graph(6), complete_graph(5), star_graph(4), paw_graph(),
                  path_graph(6)]:
            full = fdim(g).value
            for v in range(g.n):
                star = fdim_star(g, (v,)).value
                if is_resolving(g.dist, (v,)):
                    assert star == 0
                else:
                    assert star in (full, full - 1)

    def test_never_exceeds_fdim(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_connected(rng, rng.randint(3, 7))
            at = tuple(sorted(rng.sample(range(g.n), rng.randint(1, g.n - 1))))
            assert fdim_star(g, at).value <= fdim(g).value

    def test_zero_value_means_anchors_resolve(self):
        rng = random.Random(13)
        from ftmd import is_resolving

        for _ in range(30):
            g = random_connected(rng, rng.randint(3, 7))
            at = tuple(sorted(rng.sample(range(g.n), rng.randint(1, g.n - 1))))
            if fdim_star(g, at).value == 0:
                assert is_resolving(g.dist, at)


class TestClosedForms:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_paths_all_anchor_positions(self, n):
        g = path_graph(n)
        for v in range(n):
            expected = 2 if 0 < v < n - 1 else 0
            assert fdim_star_closed_form("path", n, (v,)) == expected
            assert fdim_star(g, (v,)).value == expected

    @pytest.mark.parametrize("n", range(3, 11))
    def test_cycles(self, n):
        g = cycle_graph(n)
        assert fdim_star_closed_form("cycle", n, (0,)) == 2
        assert fdim_star(g, (0,)).value == 2
        if n % 2 == 0:
            assert fdim_star_closed_form("cycle", n, (0, n // 2)) == 2
            assert fdim_star(g, (0, n // 2)).value == 2
        assert fdim_star_closed_form("cycle", n, (0, 1)) == 0
        assert fdim_star(g, (0, 1)).value == 0

    @pytest.mark.parametrize("n", range(2, 8))
    def test_complete(self, n):
        g = complete_graph(n)
        for k in range(1, n + 1):
            anchors = tuple(range(k))
            expected = n - k if k < n - 1 else 0
            assert fdim_star_closed_form("complete", n, anchors) == expected
            assert fdim_star(g, anchors).value == expected

    def test_unsupported(self):
        with pytest.raises(UnsupportedConfiguration):
            fdim_star_closed_form("paw", 4, (0,))
        with pytest.raises(UnsupportedConfiguration):
            fdim_star_closed_form("cycle", 6, ())
        with pytest.raises(UnsupportedConfiguration):
            fdim_star_closed_form("path", 5, (9,))

    @pytest.mark.parametrize("family, n, message", [
        ("path", 1, "path order must be >= 2, got 1"),
        ("cycle", 2, "cycle order must be >= 3, got 2"),
        ("complete", 1, "complete order must be >= 2, got 1"),
    ], ids=["path-1", "cycle-2", "complete-1"])
    def test_order_below_the_family_minimum(self, family, n, message):
        with pytest.raises(UnsupportedConfiguration, match=message):
            fdim_star_closed_form(family, n, (0,))


class TestConditionC1:
    def test_empty_anchor_set_refused(self):
        with pytest.raises(InvalidVertexSet, match="C1 needs a non-empty anchor set"):
            check_C1(cycle_graph(6), [])

    def test_all_vertices_anchored(self):
        assert check_C1(complete_graph(3), (0, 1, 2))
        assert 1 in c1_cases(complete_graph(3), (0, 1, 2))

    def test_cycle_antipodal_pair(self):
        assert check_C1(cycle_graph(8), (0, 4))
        assert 4 in c1_cases(cycle_graph(8), (0, 4))

    def test_star_leaves_diameter_two(self):
        assert check_C1(star_graph(3), (1, 2))
        assert 2 in c1_cases(star_graph(3), (1, 2))

    def test_path_adjacent_interior_anchors_fail(self):
        assert check_C1(path_graph(5), (1, 2)) is False
        assert c1_violation(path_graph(5), (1, 2)) is not None
        assert c1_cases(path_graph(5), (1, 2)) == ()

    def test_cases_are_sufficient(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_connected(rng, rng.randint(3, 7))
            at = tuple(sorted(rng.sample(range(g.n), rng.randint(1, g.n))))
            holds = check_C1(g, at)
            assert holds is (c1_violation(g, at) is None)
            if c1_cases(g, at):
                assert holds

    def test_violation_is_real(self):
        a1, v = c1_violation(path_graph(5), (1, 2))
        d = path_graph(5).dist
        assert all(d.d(a1, a2) < d.d(v, a2) for a2 in (1, 2))


class TestConditionC2:
    def test_paw_pendant(self):
        assert check_C2(paw_graph(), (3,))

    def test_path_leaf_rejected(self):
        assert not check_C2(path_graph(6), (0,))

    def test_path_interior_accepted(self):
        assert check_C2(path_graph(6), (2,))

    def test_two_anchors_rejected(self):
        assert not check_C2(cycle_graph(5), (0, 1))

    def test_implies_positive_star_dimension(self):
        for g in [paw_graph(), cycle_graph(6), complete_graph(4), path_graph(5),
                  star_graph(3)]:
            for v in range(g.n):
                if check_C2(g, (v,)):
                    assert fdim_star(g, (v,)).value >= 1


class TestDecompositionJson:
    def test_round_trip(self):
        dec = figure2_decomposition()
        payload = json.loads(json.dumps(decomposition_to_json(dec)))
        again = decomposition_from_json(payload)
        assert again.composite.edges == dec.composite.edges
        assert again.anchor_maps == dec.anchor_maps

    def test_schema_errors(self):
        with pytest.raises(InputFormatError):
            decomposition_from_json({"nope": []})
        with pytest.raises(InputFormatError):
            decomposition_from_json({"pieces": [{"n": 3}]})
        with pytest.raises(InputFormatError):
            decomposition_from_json(
                {"pieces": [{"n": 2, "edges": [[0, 1]], "anchors": {"x": "a"}}]}
            )

    def test_anchors_may_be_left_out_but_not_null(self):
        piece = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
        assert decomposition_from_json({"pieces": [piece]}).anchor_maps == ((),)
        with pytest.raises(InputFormatError, match="piece 0: 'anchors' may not be null"):
            decomposition_from_json({"pieces": [{**piece, "anchors": None}]})
