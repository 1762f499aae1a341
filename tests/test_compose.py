from __future__ import annotations

import hashlib
import json
import random

import pytest

import bruteforce as bf
from conftest import Index, atlas_connected
from ftmd import (
    IllegalParameter,
    PreconditionFailed,
    RootedPiece,
    RootedProductSpec,
    block_graph_fdim,
    bowtie_graph,
    complete_graph,
    cor5_fdim,
    cor8_check,
    corollary3_fdim,
    cycle_graph,
    decomposition_suite,
    decomposition_to_json,
    fdim,
    fdim_star,
    figure2_decomposition,
    is_path_graph,
    path_graph,
    paw_graph,
    point_attach,
    prop1_lower_bound,
    prop7_fdim,
    prop9_bounds,
    prop9_fdim,
    random_decomposition,
    rooted_product,
    rooted_spec_from_json,
    rooted_spec_to_json,
    star_graph,
    theorem2_fdim,
    uniform_rooted_spec,
    verify,
)


def clique_chain_with_full_middle():
    """Two 4-cliques on a triangle whose vertices are all anchors."""
    return point_attach([
        (complete_graph(3), {0: "x", 1: "y", 2: "z"}),
        (complete_graph(4), {0: "x"}),
        (complete_graph(4), {0: "y"}),
    ])


def clique_chain():
    return point_attach([
        (complete_graph(3), {0: "x", 1: "y"}),
        (complete_graph(4), {0: "x"}),
        (complete_graph(4), {0: "y"}),
    ])


def cycle_with_triangle_tail():
    """C17 with two triangles hung off it: 21 vertices, and an end piece
    above the default anchored-search cap of 16."""
    return point_attach([
        (cycle_graph(17), {0: "a"}),
        (complete_graph(3), {0: "a", 1: "b"}),
        (complete_graph(3), {0: "b"}),
    ])


class TestProp1:
    def test_bowtie_pieces(self):
        dec = point_attach([
            (complete_graph(3), {0: "a"}),
            (complete_graph(3), {0: "a"}),
        ])
        assert prop1_lower_bound(dec) == 4
        assert fdim(dec.composite).value >= 4

    def test_figure2(self):
        assert prop1_lower_bound(figure2_decomposition()) == 11

    def test_single_cycle_piece_with_anchor(self):
        dec = point_attach([(cycle_graph(6), {0: "a"})])
        assert prop1_lower_bound(dec) == 2

    def test_single_piece_without_anchor(self):
        dec = point_attach([(cycle_graph(6), {})])
        assert prop1_lower_bound(dec) == fdim(cycle_graph(6)).value


class TestTheorem2:
    def test_figure2_value_and_components(self):
        res = theorem2_fdim(figure2_decomposition())
        assert res.value == 11
        assert res.components == (3, 0, 2, 2, 4)
        assert res.witness_valid
        assert len(res.witness) == 11

    def test_clique_chain_with_full_middle(self):
        dec = clique_chain_with_full_middle()
        assert dec.composite.n == 9
        res = theorem2_fdim(dec)
        assert res.value == 6
        assert fdim(dec.composite).value == 6

    def test_shared_end_anchors_rejected(self):
        dec = point_attach([
            (complete_graph(3), {0: "x", 1: "y"}),
            (complete_graph(4), {0: "x"}),
            (complete_graph(4), {0: "x"}),
        ])
        with pytest.raises(PreconditionFailed) as err:
            theorem2_fdim(dec)
        assert "end attachment sets pairwise disjoint" in err.value.failed

    def test_two_pieces_rejected(self):
        dec = point_attach([
            (complete_graph(3), {0: "a"}),
            (complete_graph(3), {0: "a"}),
        ])
        with pytest.raises(PreconditionFailed) as err:
            theorem2_fdim(dec)
        assert "k >= 3" in err.value.failed


def test_theorem2_witness_checkable_beyond_oracle_cap():
    # the assembled witness stays verifiable on large composites because
    # the fault-tolerance check is polynomial, unlike the exact search
    parts = [(complete_graph(4), {0: "c0"})]
    for i in range(1, 16):
        if i % 2:
            parts.append((complete_graph(4), {0: f"c{i - 1}", 1: f"c{i}"}))
        else:
            parts.append((cycle_graph(6), {0: f"c{i - 1}", 3: f"c{i}"}))
    parts.append((complete_graph(4), {0: "c15"}))
    dec = point_attach(parts)
    assert dec.composite.n == 66
    res = theorem2_fdim(dec)
    assert res.value == 36
    assert res.witness_valid
    assert len(res.witness) == res.value


class TestCorollary3:
    def test_figure2_strict_fails_on_papers_own_pieces(self):
        with pytest.raises(PreconditionFailed) as err:
            corollary3_fdim(figure2_decomposition())
        assert "piece 1 anchors proper (At != V)" in err.value.failed
        assert "piece 3 fdim equals fdim-plus" in err.value.failed

    def test_figure2_relaxed(self):
        res = corollary3_fdim(figure2_decomposition(), relaxed=True)
        assert res.value == 11
        assert res.components == (3, 0, 2, 2, 4)

    def test_cycle_end_piece_contribution(self):
        # an end 6-cycle contributes fdim - theta = 3 - 1 = 2, matching its
        # anchored dimension
        from ftmd import fdim_star, theta

        g = cycle_graph(6)
        assert fdim(g).value - theta(g, (0,)) == 2 == fdim_star(g, (0,)).value

    def test_strict_mode_passes_on_compatible_pieces(self):
        dec = point_attach([
            (complete_graph(3), {0: "x", 1: "y"}),
            (star_graph(3), {1: "x"}),
            (paw_graph(), {3: "y"}),
        ])
        res = corollary3_fdim(dec)
        assert res.value == theorem2_fdim(dec).value == fdim(dec.composite).value


class TestBlockGraphs:
    def test_clique_chain(self):
        dec = clique_chain()
        res = block_graph_fdim(dec)
        assert res.value == 6
        assert res.components == (0, 3, 3)
        assert fdim(dec.composite).value == 6

    def test_clique_fan(self):
        dec = point_attach([
            (complete_graph(4), {0: "a", 1: "b", 2: "c"}),
            (complete_graph(4), {0: "a"}),
            (complete_graph(4), {0: "b"}),
            (complete_graph(4), {0: "c"}),
        ])
        assert dec.composite.n == 13
        res = block_graph_fdim(dec)
        assert res.value == 9
        assert fdim(dec.composite).value == 9

    def test_small_clique_rejected(self):
        dec = point_attach([
            (complete_graph(3), {0: "x", 1: "y"}),
            (complete_graph(2), {0: "x"}),
            (complete_graph(4), {0: "y"}),
        ])
        with pytest.raises(PreconditionFailed) as err:
            block_graph_fdim(dec)
        assert "piece 1 has r >= 3" in err.value.failed

    def test_non_clique_rejected(self):
        dec = point_attach([
            (cycle_graph(4), {0: "x", 1: "y"}),
            (complete_graph(3), {0: "x"}),
            (complete_graph(3), {0: "y"}),
        ])
        with pytest.raises(PreconditionFailed) as err:
            block_graph_fdim(dec)
        assert "piece 0 is complete" in err.value.failed


class TestRootedProduct:
    def test_two_paths_make_a_path(self):
        dec = rooted_product(uniform_rooted_spec(path_graph(2), path_graph(2), 0))
        assert dec.composite.n == 4
        assert is_path_graph(dec.composite) is not None

    def test_path_base_of_cycles(self):
        # three roots identified: 3 + 3 * (5 - 1) vertices
        dec = rooted_product(uniform_rooted_spec(path_graph(3), cycle_graph(5), 0))
        assert dec.composite.n == 15

    def test_cycle_base_of_stars(self):
        dec = rooted_product(uniform_rooted_spec(cycle_graph(4), star_graph(3), 0))
        assert dec.composite.n == 16

    def test_base_keeps_every_vertex_anchored(self):
        base = cycle_graph(4)
        dec = rooted_product(uniform_rooted_spec(base, star_graph(3), 0))
        assert dec.at_local(0) == tuple(range(base.n))
        assert dec.piece_role(0) == "internal"
        assert all(dec.piece_role(i) == "end" for i in range(1, dec.k))

    def test_root_outside_the_piece(self):
        with pytest.raises(IllegalParameter, match=r"root 5 outside 0\.\.2"):
            RootedPiece(path_graph(3), 5)

    def test_root_is_stored_as_an_int(self):
        # an operator.index root is kept as its int, so the spec dumps to
        # JSON and equal pieces compare (and share cor5's memo) as equal
        spec = uniform_rooted_spec(path_graph(2), path_graph(3), Index(2))
        assert spec.family[0].root.__class__ is int
        assert json.loads(json.dumps(rooted_spec_to_json(spec)))["family"][0]["root"] == 2
        assert spec == uniform_rooted_spec(path_graph(2), path_graph(3), 2)
        assert RootedPiece(path_graph(3), 2) == RootedPiece(path_graph(3), Index(2))

    def test_family_size_must_match_base(self):
        with pytest.raises(IllegalParameter):
            RootedProductSpec(path_graph(3), (RootedPiece(cycle_graph(5), 0),))

    def test_spec_json_round_trip(self):
        spec = uniform_rooted_spec(path_graph(3), cycle_graph(5), 2)
        again = rooted_spec_from_json(rooted_spec_to_json(spec))
        assert again == spec
        uniform = {
            "base": {"n": 2, "edges": [[0, 1]]},
            "family": {"graph": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
                       "root": 1, "copies": "per-base-vertex"},
        }
        spec2 = rooted_spec_from_json(uniform)
        assert spec2.base.n == 2 and len(spec2.family) == 2


class TestCor5:
    def test_stars_rooted_at_center(self):
        spec = uniform_rooted_spec(path_graph(2), star_graph(3), 0)
        res = cor5_fdim(spec)
        assert res.value == 6
        assert fdim(rooted_product(spec).composite).value == 6

    def test_cycles_pay_two_each(self):
        spec = uniform_rooted_spec(path_graph(3), cycle_graph(5), 0)
        assert cor5_fdim(spec).value == 6

    def test_cliques(self):
        spec = uniform_rooted_spec(path_graph(2), complete_graph(4), 0)
        assert cor5_fdim(spec).value == 6

    def test_path_piece_rooted_at_leaf_rejected(self):
        spec = uniform_rooted_spec(path_graph(2), path_graph(4), 0)
        with pytest.raises(PreconditionFailed):
            cor5_fdim(spec)

    def test_specializes_theorem2(self):
        specs = [
            uniform_rooted_spec(path_graph(2), star_graph(3), 0),
            uniform_rooted_spec(path_graph(3), cycle_graph(5), 1),
            uniform_rooted_spec(cycle_graph(4), complete_graph(3), 0),
        ]
        for spec in specs:
            assert cor5_fdim(spec).value == theorem2_fdim(rooted_product(spec)).value

    def test_each_distinct_piece_searched_once(self, monkeypatch):
        import ftmd.compose as compose_mod

        searched = []
        real = compose_mod.fdim

        def counting_fdim(g, cap=None):
            searched.append(g)
            return real(g, cap=cap)

        monkeypatch.setattr(compose_mod, "fdim", counting_fdim)
        uniform = uniform_rooted_spec(cycle_graph(4), cycle_graph(5), 0)
        res = cor5_fdim(uniform)
        assert len(searched) == 1
        assert res.components == (2, 2, 2, 2) and res.value == 8

        searched.clear()
        mixed = RootedProductSpec(path_graph(3), (
            RootedPiece(cycle_graph(5), 0),
            RootedPiece(star_graph(3), 0),
            RootedPiece(cycle_graph(5), 0),
        ))
        res = cor5_fdim(mixed)
        assert len(searched) == 2
        assert res.components == (2, 3, 2) and res.value == 7

    def test_distinct_pieces_searched_in_first_seen_order(self, monkeypatch):
        import ftmd.compose as compose_mod

        searched = []
        real = compose_mod.fdim
        monkeypatch.setattr(compose_mod, "fdim",
                            lambda g, cap=None: searched.append(g) or real(g, cap=cap))
        family = (RootedPiece(star_graph(3), 0), RootedPiece(cycle_graph(5), 0),
                  RootedPiece(star_graph(3), 0), RootedPiece(complete_graph(4), 0))
        res = cor5_fdim(RootedProductSpec(path_graph(4), family))
        assert searched == [star_graph(3), cycle_graph(5), complete_graph(4)]
        assert res.components == (3, 2, 3, 3)


class TestProp7:
    def test_non_uniform_family_refused(self):
        spec = RootedProductSpec(path_graph(2), (RootedPiece(cycle_graph(5), 0),
                                                 RootedPiece(star_graph(3), 0)))
        with pytest.raises(IllegalParameter, match="one isomorphic rooted piece"):
            prop7_fdim(spec)

    def test_star_root_in_no_basis(self):
        res = prop7_fdim(uniform_rooted_spec(path_graph(2), star_graph(3), 0))
        assert res.value == 6
        assert "case (i)" in res.detail

    def test_clique_root_in_some_basis(self):
        res = prop7_fdim(uniform_rooted_spec(path_graph(3), complete_graph(4), 0))
        assert res.value == 9
        assert "case (ii)" in res.detail

    def test_path_piece_rejected(self):
        with pytest.raises(PreconditionFailed) as err:
            prop7_fdim(uniform_rooted_spec(path_graph(3), path_graph(5), 2))
        assert "H is not a path" in err.value.failed

    def test_matches_oracle(self):
        cases = [
            (path_graph(2), star_graph(3), 0),
            (path_graph(3), complete_graph(4), 1),
            (path_graph(2), cycle_graph(5), 3),
        ]
        for g, h, v in cases:
            composite = rooted_product(uniform_rooted_spec(g, h, v)).composite
            assert prop7_fdim(uniform_rooted_spec(g, h, v)).value == fdim(composite).value


class TestCor8:
    def test_interior_path_root_hits_two_n(self):
        assert cor8_check(path_graph(3), path_graph(4), 1)

    def test_star_center_misses_two_n(self):
        assert cor8_check(path_graph(2), star_graph(3), 0)

    def test_small_base_path(self):
        assert cor8_check(path_graph(2), path_graph(4), 1)

    def test_usable_root_rejected(self):
        with pytest.raises(PreconditionFailed):
            cor8_check(path_graph(2), complete_graph(4), 0)


class TestProp9:
    def test_four_cycle_base(self):
        res = prop9_bounds(cycle_graph(4), 3)
        assert res.bounds == (4, 4)
        assert res.witness_valid
        composite = rooted_product(
            uniform_rooted_spec(cycle_graph(4), path_graph(3), 0)
        ).composite
        assert res.bounds[0] <= fdim(composite).value <= res.bounds[1]

    def test_small_path_base(self):
        res = prop9_bounds(path_graph(3), 2)
        assert res.bounds == (2, 3)

    def test_clique_base_pins_the_value(self):
        res = prop9_bounds(complete_graph(4), 2)
        assert res.bounds == (4, 4)
        composite = rooted_product(
            uniform_rooted_spec(complete_graph(4), path_graph(2), 0)
        ).composite
        assert fdim(composite).value == 4

    def test_interior_root_rejected(self):
        spec = uniform_rooted_spec(cycle_graph(4), path_graph(3), 1)
        with pytest.raises(PreconditionFailed) as err:
            prop9_fdim(spec)
        assert err.value.failed == ("root is a leaf of the path",)

    def test_trivial_path_rejected(self):
        with pytest.raises(PreconditionFailed) as err:
            prop9_bounds(cycle_graph(4), 1)
        assert err.value.failed == ("path is non-trivial (m >= 2)",)

    def test_far_leaf_layer_over_atlas(self):
        # every connected base of order 2-5, m = 2, 3, 4, both leaf roots
        specs = [uniform_rooted_spec(base, path_graph(m), root)
                 for base in atlas_connected(2, 5) for m in (2, 3, 4) for root in (0, m - 1)]
        assert len(specs) == 180
        for spec in specs:
            root, m = spec.family[0].root, spec.family[0].graph.n
            far = m - 1 - root
            dec = rooted_product(spec)
            layer = tuple(sorted(dec.global_ids[v + 1][far] for v in range(spec.base.n)))
            res = prop9_fdim(spec)
            assert res.witness == layer
            comp = dec.composite
            assert res.witness_valid
            assert bf.ft_resolves(bf.nx_distances(comp.n, comp.edges), comp.n, list(layer))


class TestWitnessChecksReadRows:
    """The rules check their witnesses on the composite's distance rows, so
    only a search on the composite builds its distinguisher masks."""

    def test_prop9_builds_no_composite_masks(self):
        spec = uniform_rooted_spec(cycle_graph(4), path_graph(3), 0)
        assert prop9_fdim(spec).witness_valid
        assert "distinguisher_masks" not in spec.decomposition.composite.dist.__dict__

    def test_thm2_builds_no_composite_masks(self):
        dec = figure2_decomposition()
        assert theorem2_fdim(dec).witness_valid
        assert "distinguisher_masks" not in dec.composite.dist.__dict__


class TestVerify:
    def test_figure2_relaxed_cor3(self):
        rep = verify(figure2_decomposition(), "cor3", oracle_cap=20, relaxed_cor3=True)
        assert rep.ok
        assert rep.formula_value == rep.oracle_value == 11

    def test_figure2_thm2(self):
        rep = verify(figure2_decomposition(), "thm2", oracle_cap=20)
        assert rep.ok and rep.witness_valid

    def test_blocks(self):
        assert verify(clique_chain(), "blocks", oracle_cap=16).ok

    def test_rooted_theorems(self):
        assert verify(uniform_rooted_spec(path_graph(3), cycle_graph(5), 0), "cor5",
                      oracle_cap=16).ok
        assert verify(uniform_rooted_spec(path_graph(3), complete_graph(4), 0), "prop7",
                      oracle_cap=16).ok
        assert verify(uniform_rooted_spec(cycle_graph(4), path_graph(3), 0), "prop9",
                      oracle_cap=16).ok

    def test_unknown_theorem(self):
        with pytest.raises(IllegalParameter):
            verify(clique_chain(), "thm99")

    @pytest.mark.parametrize("theorem, relaxed", [("thm2", False), ("cor3", True)])
    def test_oracle_cap_reaches_the_rule(self, theorem, relaxed):
        # the C17 end piece needs the caller's cap in the rule's own
        # per-piece searches, not only in the search on the composite
        rep = verify(cycle_with_triangle_tail(), theorem, oracle_cap=21, relaxed_cor3=relaxed)
        assert rep.ok
        assert rep.formula_value == rep.oracle_value == 4

    def test_rule_on_the_other_input_kind(self):
        spec = uniform_rooted_spec(path_graph(2), path_graph(3), 0)
        with pytest.raises(IllegalParameter, match="thm2 verifies a decomposition"):
            verify(spec, "thm2")

    def test_prop9_non_path_piece(self):
        spec = uniform_rooted_spec(cycle_graph(4), complete_graph(3), 0)
        with pytest.raises(IllegalParameter, match="prop9 needs path pieces"):
            verify(spec, "prop9")

    @pytest.mark.parametrize("theorem, spec", [
        ("cor5", lambda: uniform_rooted_spec(path_graph(3), cycle_graph(5), 0)),
        ("prop7", lambda: uniform_rooted_spec(path_graph(3), complete_graph(4), 0)),
        ("prop9", lambda: uniform_rooted_spec(cycle_graph(4), path_graph(3), 2)),
    ])
    def test_one_composite_per_spec(self, monkeypatch, theorem, spec):
        import ftmd.compose as compose_mod

        built = []
        real = compose_mod.rooted_product

        def counting(s):
            built.append(s)
            return real(s)

        monkeypatch.setattr(compose_mod, "rooted_product", counting)
        assert verify(spec(), theorem, oracle_cap=16).ok
        assert len(built) == 1


class TestRandomDecompositions:
    def test_deterministic_for_equal_seeds(self):
        a = decomposition_suite(7, 5, (3, 4), 16, "thm2")
        b = decomposition_suite(7, 5, (3, 4), 16, "thm2")
        for x, y in zip(a, b):
            assert x.composite.edges == y.composite.edges
            assert x.anchor_maps == y.anchor_maps

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("condition", ["thm2", "cor3"])
    def test_conditioned_instances_satisfy_hypotheses(self, condition, k):
        # the generator checks nothing after the build; these hold by construction
        from ftmd import fdim_plus
        from ftmd.compose import _attachment_checks

        for dec in decomposition_suite(2, 40, (k,), 16, condition):
            assert dec.k == k
            assert all(ok for _, ok in _attachment_checks(dec))
            assert dec.composite.n <= 16
            if condition == "cor3":
                for i, piece in enumerate(dec.pieces):
                    assert len(dec.at_local(i)) < piece.n
                    assert fdim(piece).value == fdim_plus(piece).value

    @pytest.mark.parametrize("condition, ks, max_order, digest", [
        ("thm2", (3, 4, 5), 16, "fef6232e1821c311bf7d3df77bbf6eebf4799997"),
        ("cor3", (3, 4, 5), 16, "514658c3ff78f7b91aa43b2214c7d4c45f42c8c8"),
        (None, (1, 2, 3, 4, 5), 14, "83f98b8760c017247deb64c56fa7e3c41a72c5ac"),
    ], ids=["thm2", "cor3", "unconditioned"])
    def test_draw_stream_is_pinned(self, condition, ks, max_order, digest):
        # suites, bench pins and verify --count output all follow this stream
        h = hashlib.sha1()
        for seed in range(5):
            for dec in decomposition_suite(seed, 20, ks, max_order, condition):
                h.update(json.dumps(decomposition_to_json(dec), sort_keys=True).encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("condition", ["thm2", "cor3"])
    def test_conditions_need_three_pieces(self, condition):
        with pytest.raises(IllegalParameter, match="needs k >= 3"):
            random_decomposition(0, 2, 16, condition=condition)

    @pytest.mark.parametrize("k, max_order, condition", [
        (3, 2, None), (5, 6, "thm2"), (3, 6, "thm2"),
    ])
    def test_refuses_orders_below_smallest_composite(self, k, max_order, condition):
        # k pieces of order 3 glued at k - 1 vertices need 2k + 1 vertices
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(IllegalParameter,
                           match=f"max_order of {k} pool pieces must be >= {2 * k + 1}, "
                                 f"got {max_order}$"):
            random_decomposition(rng, k, max_order, condition=condition)
        assert rng.getstate() == state  # refused before any draw

    def test_refuses_no_pieces(self):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(IllegalParameter, match="^k must be >= 1, got 0$"):
            random_decomposition(rng, 0, 10)
        assert rng.getstate() == state  # refused before any draw

    @pytest.mark.parametrize("ks", [[], [3, 0]], ids=["empty", "zero"])
    def test_suite_refuses_bad_k_choices(self, ks):
        with pytest.raises(IllegalParameter, match="k_choices"):
            decomposition_suite(0, 3, ks, 14)

    def test_smallest_composite_order_builds(self):
        dec = random_decomposition(0, 3, 7, condition="thm2")
        assert dec.k == 3 and dec.composite.n == 7

    def test_unconditioned_instances_respect_order(self):
        for dec in decomposition_suite(3, 10, (2, 3, 4, 5), 14):
            assert dec.composite.n <= 14

    def test_theorem_agreement_on_small_batch(self):
        for dec in decomposition_suite(4, 6, (3, 4), 12, "thm2"):
            res = theorem2_fdim(dec)
            assert res.value == bf.fdim(dec.composite.n, dec.composite.edges)
            assert res.witness_valid

    def test_cor3_condition_filters_pieces(self):
        from ftmd import fdim_plus

        for dec in decomposition_suite(5, 5, (3, 4), 16, "cor3"):
            res = corollary3_fdim(dec)
            assert res.value == theorem2_fdim(dec).value
            for i, piece in enumerate(dec.pieces):
                assert fdim(piece).value == fdim_plus(piece).value

    def test_unknown_condition(self):
        with pytest.raises(IllegalParameter):
            random_decomposition(0, 3, 16, condition="weird")

    def test_exhausted_attempts_raise_illegal_parameter(self):
        # 11 is the least order of five pool pieces, but each piece's budget
        # leaves no room for the pieces still to come: seed 0 dead-ends 500 times
        with pytest.raises(IllegalParameter, match="k=5 pieces within max_order=11"):
            random_decomposition(0, 5, 11)


class TestDocumentedDiscrepancies:
    """[documented discrepancy] Inputs on which a shipped rule disagrees with
    the exact search.  Each clause pins the rule's value as it stands (the
    rules are not changed) and the value that the search and the
    definition-level oracle in bruteforce.py both give."""

    def test_strict_cor3_overestimates_instance_28(self):
        decs = decomposition_suite(0, 50, (3, 4, 5), 16, "cor3")
        dec = decs[28]
        pieces = [(p.n, len(p.edges), dec.at_local(i)) for i, p in enumerate(dec.pieces)]
        # K4 internal at {1, 2}, a K4 end and a C4 end, order 10
        assert pieces == [(4, 6, (1, 2)), (4, 6, (3,)), (4, 4, (0,))]
        assert dec.composite.n == 10
        res = corollary3_fdim(dec)
        assert (res.value, res.components) == (8, (2, 3, 3))
        comp = dec.composite
        assert fdim(comp).value == bf.fdim(comp.n, comp.edges) == 7
        assert not verify(dec, "cor3", oracle_cap=16).ok
        assert sum(not verify(d, "cor3", oracle_cap=16).ok for d in decs) == 14

    @pytest.mark.parametrize("piece, root, formula, search", [
        (cycle_graph(4), 0, 6, 4),
        (bowtie_graph(), 0, 6, 4),
        (bowtie_graph(), 2, 8, 8),  # the bowtie rooted at its centre agrees
    ], ids=["C4-root0", "bowtie-root0", "bowtie-root2"])
    def test_cor5_and_prop7_on_p2_products(self, piece, root, formula, search):
        spec = uniform_rooted_spec(path_graph(2), piece, root)
        assert cor5_fdim(spec).value == formula
        assert prop7_fdim(uniform_rooted_spec(path_graph(2), piece, root)).value == formula
        comp = rooted_product(spec).composite
        assert fdim(comp).value == bf.fdim(comp.n, comp.edges) == search
        for theorem in ("cor5", "prop7"):
            assert verify(spec, theorem).ok is (formula == search)


class TestPerPieceCharacterisation:
    """The rules the search refutes fail exactly where their per-piece term
    differs from the anchored dimension ``fdim_star(piece, anchors)``, the
    term that ``thm2`` uses.  No rule's value is changed here."""

    def test_cor5_and_prop7_over_atlas_on_p2(self):
        specs = [uniform_rooted_spec(path_graph(2), h, r)
                 for h in atlas_connected(3, 6) if is_path_graph(h) is None
                 for r in range(h.n)]
        mismatches = 0
        for spec in specs:
            rp = spec.family[0]
            star = fdim_star(rp.graph, (rp.root,)).value
            search = fdim(spec.decomposition.composite).value
            assert search == 2 * star
            res = cor5_fdim(spec)
            assert prop7_fdim(spec).components == res.components
            # fdim(H) - [root lies in some basis]
            term = res.components[0]
            assert (res.value == search) is (term == star)
            mismatches += res.value != search
        assert (len(specs), mismatches) == (789, 277)

    def test_strict_cor3_over_seeded_suites(self):
        for seed in range(3):
            for dec in decomposition_suite(seed, 200, (3, 4, 5), 16, "cor3"):
                # fdim(piece) - theta(piece, anchors), one per piece
                terms = corollary3_fdim(dec).components
                stars = tuple(fdim_star(p, dec.at_local(i)).value
                              for i, p in enumerate(dec.pieces))
                assert verify(dec, "cor3").ok is (terms == stars)
