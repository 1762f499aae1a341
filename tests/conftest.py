from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import strategies as st

from ftmd import Graph, build_graph


@st.composite
def connected_graphs(draw, min_n=2, max_n=8):
    """Random connected graph: a random tree plus extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extras = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    for u, v in extras:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))


class Index:
    """An ``operator.index`` type that is not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def random_connected(rng: random.Random, n: int):
    """Seeded random connected graph (tree plus extra edges)."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randrange(2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))


def atlas_connected(min_n: int, max_n: int):
    """Every connected graph with min_n..max_n vertices, one per iso class."""
    out = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if min_n <= n <= max_n and n >= 1 and nx.is_connected(g):
            out.append(build_graph(n, sorted(tuple(sorted(e)) for e in g.edges())))
    return out


@pytest.fixture
def bfs_rows(monkeypatch):
    """The source of every BFS row computed while the test runs, in order."""
    rows = []
    bfs_row = Graph._bfs_row

    def counted(self, source):
        rows.append(source)
        return bfs_row(self, source)

    monkeypatch.setattr(Graph, "_bfs_row", counted)
    return rows


@pytest.fixture(scope="session")
def atlas_upto_6():
    return atlas_connected(2, 6)


@pytest.fixture(scope="session")
def atlas_upto_7():
    return atlas_connected(2, 7)
