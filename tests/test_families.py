from __future__ import annotations

import pytest

from ftmd import (
    Decomposition,
    IllegalParameter,
    bowtie_graph,
    cycle_graph,
    fdim,
    figure2_decomposition,
    generate,
    hypercube_graph,
    is_even_graph,
    is_path_graph,
    path_graph,
    paw_graph,
    star_graph,
)
from ftmd import families


class TestGenerators:
    def test_cycle_antipode(self):
        g = generate("cycle", 8)
        assert g.dist.d(0, 4) == 4

    def test_hypercube(self):
        g = generate("hypercube", 3)
        assert g.n == 8
        assert len(g.edges) == 12
        assert g.dist.diameter == 3

    def test_paths_are_paths(self):
        for n in range(2, 9):
            assert is_path_graph(generate("path", n)) == (0, n - 1)

    def test_star_center_zero(self):
        g = star_graph(4)
        assert g.degrees[0] == 4

    def test_paw_shape(self):
        g = paw_graph()
        assert sorted(g.degrees) == [1, 2, 2, 3]
        assert g.degrees[3] == 1

    def test_bowtie_shape(self):
        g = bowtie_graph()
        assert g.n == 5
        assert g.degrees[2] == 4

    def test_even_graph_families(self):
        for k in (2, 3, 4):
            assert is_even_graph(cycle_graph(2 * k).dist)
        for d in (1, 2, 3, 4):
            assert is_even_graph(hypercube_graph(d).dist)

    def test_illegal_parameters(self):
        for family, size in [("path", 1), ("cycle", 2), ("star", 0),
                             ("hypercube", 0), ("complete", 1)]:
            with pytest.raises(IllegalParameter):
                generate(family, size)
        with pytest.raises(IllegalParameter):
            generate("paw", 4)
        with pytest.raises(IllegalParameter):
            generate("cycle")
        with pytest.raises(IllegalParameter):
            generate("unknown", 3)

    def test_edge_bound_refuses_before_building(self):
        for family, size in [("hypercube", 40), ("complete", 100_000), ("cycle", 10**6 + 1),
                             ("hypercube", 10**9)]:
            with pytest.raises(IllegalParameter, match="more than 1000000 edges"):
                generate(family, size)

    def test_edge_bound_counts_each_family_exactly(self, monkeypatch):
        monkeypatch.setattr(families, "MAX_EDGES", 12)
        for family, largest in [("path", 13), ("cycle", 12), ("complete", 5),
                                ("star", 12), ("hypercube", 3)]:
            assert len(generate(family, largest).edges) <= 12
            with pytest.raises(IllegalParameter):
                generate(family, largest + 1)


class TestFigure2:
    def test_is_a_five_piece_twenty_vertex_decomposition(self):
        dec = generate("figure2")
        assert isinstance(dec, Decomposition)
        assert dec.k == 5
        assert dec.composite.n == 20

    def test_anchor_layout(self):
        dec = figure2_decomposition()
        # cycle anchors sit antipodally, the paw hangs by its pendant
        cycle_at = dec.at_local(3)
        assert cycle_at == (0, 4)
        assert dec.pieces[3].dist.d(0, 4) == dec.pieces[3].dist.diameter
        assert dec.at_local(2) == (3,)
        assert dec.pieces[2].degrees[3] == 1

    def test_piece_sizes(self):
        dec = figure2_decomposition()
        assert [p.n for p in dec.pieces] == [4, 3, 4, 8, 5]


class TestFamilyTable:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_paths(self, n):
        assert fdim(path_graph(n)).value == 2

    @pytest.mark.parametrize("n", range(5, 11))
    def test_cycles(self, n):
        assert fdim(cycle_graph(n)).value == 3

    @pytest.mark.parametrize("t", range(3, 8))
    def test_stars(self, t):
        assert fdim(star_graph(t)).value == t

    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete(self, n):
        from ftmd import complete_graph

        assert fdim(complete_graph(n)).value == n
