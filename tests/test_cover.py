from __future__ import annotations

import random
import tracemalloc

import pytest

from conftest import random_connected
from ftmd import (
    cycle_graph,
    enumerate_ft_bases,
    fdim,
    fdim_star,
    in_some_ft_basis,
    path_graph,
    theta,
)
from ftmd import cover as cover_module
from ftmd.cover import Cover


def test_rows_are_the_distinct_masks_by_size_and_inc_holds_each_vertex_rows():
    check_rows_and_inc()


@pytest.mark.parametrize("block", [5, 1])
def test_transpose_in_small_blocks_gives_the_same_index(monkeypatch, block):
    # small blocks run the transpose over many blocks of rows
    monkeypatch.setattr(cover_module, "TRANSPOSE_ROWS", block)
    check_rows_and_inc()


def index_graphs():
    rng = random.Random(3)
    return [path_graph(6), cycle_graph(7), *(random_connected(rng, n) for n in (8, 10, 12))]


def check_rows_and_inc():
    for g in index_graphs():
        masks = g.dist.distinguisher_masks
        cover = Cover(masks, g.n)
        distinct = set(masks)
        assert sorted(cover.rows) == sorted(distinct)
        assert len(cover.rows) == len(distinct)
        sizes = [r.bit_count() for r in cover.rows]
        assert sizes == sorted(sizes)
        for v in range(g.n):
            held = {i for i, r in enumerate(cover.rows) if r >> v & 1}
            assert {i for i in range(len(cover.rows)) if cover.inc[1 << v] >> i & 1} == held


def test_presorted_masks_give_the_same_index():
    # the masks come in pair order; sorting them by size first changes
    # nothing, since the rows are stably sorted by the same key
    for g in index_graphs():
        masks = g.dist.distinguisher_masks
        cover, presorted = Cover(masks, g.n), Cover(sorted(masks, key=int.bit_count), g.n)
        assert cover.rows == presorted.rows
        assert cover.inc == presorted.inc


def test_one_graph_builds_one_index(monkeypatch):
    # every search on a graph, anchored or not, runs on its one index
    builds = []
    build = Cover.__init__

    def counted(self, masks, n):
        builds.append(n)
        build(self, masks, n)

    monkeypatch.setattr(Cover, "__init__", counted)
    g = random_connected(random.Random(28), 10)
    fdim(g)
    for at in ((0,), (3, 9), (1, 4, 7)):
        fdim_star(g, at)
    theta(g, (0, 9))
    in_some_ft_basis(g, 5)
    enumerate_ft_bases(g)
    assert builds == [10]


def test_build_memory_is_bounded_by_the_transpose_block():
    # a 500-vertex graph has about 121 000 distinct masks; with Python
    # 3.11, joining every row's digits at once peaked at 140 MB of traced
    # allocations, block by block at 30 MB
    g = random_connected(random.Random(500), 500)
    masks = g.dist.distinguisher_masks
    tracemalloc.start()
    try:
        cover = Cover(masks, g.n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cover.rows) > 3 * cover_module.TRANSPOSE_ROWS
    assert peak < 60e6
