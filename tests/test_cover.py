from __future__ import annotations

import random
import tracemalloc

import pytest

from conftest import random_connected
from ftmd import cycle_graph, path_graph
from ftmd import cover as cover_module
from ftmd.cover import Cover


def test_rows_are_the_distinct_masks_by_size_and_inc_holds_each_vertex_rows():
    check_rows_and_inc()


@pytest.mark.parametrize("block", [5, 1])
def test_transpose_in_small_blocks_gives_the_same_index(monkeypatch, block):
    # small blocks run the transpose over many blocks of rows
    monkeypatch.setattr(cover_module, "TRANSPOSE_ROWS", block)
    check_rows_and_inc()


def check_rows_and_inc():
    rng = random.Random(3)
    graphs = [path_graph(6), cycle_graph(7), *(random_connected(rng, n) for n in (8, 10, 12))]
    for g in graphs:
        masks = g.dist.distinguisher_masks
        for universe in ((1 << g.n) - 1, (1 << g.n) - 1 & ~0b101):
            cover = Cover(masks, universe)
            distinct = {m & universe for m in masks}
            assert sorted(cover.rows) == sorted(distinct)
            assert len(cover.rows) == len(distinct)
            sizes = [r.bit_count() for r in cover.rows]
            assert sizes == sorted(sizes)
            for v in range(g.n):
                held = {i for i, r in enumerate(cover.rows) if r >> v & 1}
                assert {i for i in range(len(cover.rows)) if cover.inc[1 << v] >> i & 1} == held


def test_build_memory_is_bounded_by_the_transpose_block():
    # a 500-vertex graph has about 121 000 distinct masks; with Python
    # 3.11, joining every row's digits at once peaked at 140 MB of traced
    # allocations, block by block at 30 MB
    g = random_connected(random.Random(500), 500)
    masks = g.dist.distinguisher_masks
    tracemalloc.start()
    try:
        cover = Cover(masks, (1 << g.n) - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cover.rows) > 3 * cover_module.TRANSPOSE_ROWS
    assert peak < 60e6
