"""Seeded input generators.  They produce raw vertex counts and edge lists
only; graphs are built by the library inside the timed span, so every
execution of an instance pays for its own parse and build."""

from __future__ import annotations

import random

Edges = tuple[tuple[int, int], ...]


def random_connected(rng: random.Random, n: int, extra: int | None = None) -> Edges:
    """Random labelled connected graph: a random recursive tree, relabelled
    by a random permutation, plus ``extra`` distinct chords.

    The default of 3n/2 chords fixes the density, which keeps the exact
    searches' cost from varying as widely between graphs of one order as it
    does over mixed densities, so seeds differ less in total work.
    """
    if extra is None:
        extra = 3 * n // 2
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        a, b = perm[u], perm[v]
        edges.add((min(a, b), max(a, b)))
    target = min(n - 1 + extra, n * (n - 1) // 2)
    while len(edges) < target:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return tuple(sorted(edges))


def path_edges(n: int) -> Edges:
    return tuple((i, i + 1) for i in range(n - 1))


def cycle_edges(n: int) -> Edges:
    return tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)))


def complete_edges(n: int) -> Edges:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def star_edges(t: int) -> Edges:
    return tuple((0, i) for i in range(1, t + 1))


def hypercube_edges(d: int) -> Edges:
    n = 1 << d
    return tuple((v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b))


# Seed-independent family members: (label, n, edges).
FAMILIES: tuple[tuple[str, int, Edges], ...] = (
    *((f"P{n}", n, path_edges(n)) for n in (4, 8, 12, 16)),
    *((f"C{n}", n, cycle_edges(n)) for n in (5, 8, 11, 14)),
    *((f"K{n}", n, complete_edges(n)) for n in (4, 7, 10)),
    *((f"S{t}", t + 1, star_edges(t)) for t in (3, 6, 9)),
    *((f"Q{d}", 1 << d, hypercube_edges(d)) for d in (2, 3, 4)),
)


def edge_list_text(n: int, edges: Edges) -> str:
    """The library's plain edge-list format: "n m" then one "u v" per line."""
    return "".join([f"{n} {len(edges)}\n", *(f"{u} {v}\n" for u, v in edges)])
