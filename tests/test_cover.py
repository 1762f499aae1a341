from __future__ import annotations

import random

from conftest import random_connected
from ftmd import cycle_graph, path_graph
from ftmd.cover import Cover


def test_rows_are_the_distinct_masks_by_size_and_inc_holds_each_vertex_rows():
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
