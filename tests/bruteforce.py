"""Definition-level reference implementations used as independent checks.

Everything here recomputes from scratch: distances come from networkx, the
set predicates quantify directly over vertices, and the optima scan the
full subset lattice.  Nothing imports the package's search internals, so
agreement with the library is a genuine dual-route check.
"""

from __future__ import annotations

from itertools import chain, combinations

import networkx as nx
import numpy as np


def nx_distances(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    raw = dict(nx.all_pairs_shortest_path_length(g))
    return [[raw[u][v] for v in range(n)] for u in range(n)]


def distinguisher_masks(n, edges):
    """The mask of every pair u < v, in pair order: bit w is set when w is
    at different distances from u and v.  The comparison runs at every
    vertex of every pair, as whole distance rows at a time, and each row of
    comparisons is packed into the mask."""
    dist = np.array(nx_distances(n, edges))
    masks = []
    for u in range(n - 1):
        differs = dist[u] != dist[u + 1:]  # row j: the pair (u, u + 1 + j)
        packed = np.packbits(differs, axis=1, bitorder="little")
        masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return tuple(masks)


def representation(dist, subset, v):
    return tuple(dist[v][x] for x in subset)


def resolves(dist, n, subset):
    if not subset:
        return n == 1
    return len({representation(dist, subset, v) for v in range(n)}) == n


def ft_resolves(dist, n, subset):
    if len(subset) < 2:
        return False
    return all(resolves(dist, n, [x for x in subset if x != y]) for y in subset)


def all_subsets(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


# The first hit of an ascending scan in ``combinations`` order is the
# lexicographically first smallest set, which is the witness the library
# promises.

def first_resolving_set(n, edges):
    dist = nx_distances(n, edges)
    for r in range(1, n + 1):
        for s in combinations(range(n), r):
            if resolves(dist, n, s):
                return s
    raise AssertionError("V resolves every graph")


def first_ft_set(n, edges):
    dist = nx_distances(n, edges)
    for r in range(2, n + 1):
        for s in combinations(range(n), r):
            if ft_resolves(dist, n, s):
                return s
    raise AssertionError("V is fault-tolerant for n >= 2")


def metric_dimension(n, edges):
    return len(first_resolving_set(n, edges))


def fdim(n, edges):
    return len(first_ft_set(n, edges))


def ft_bases(n, edges):
    dist = nx_distances(n, edges)
    k = fdim(n, edges)
    return [s for s in combinations(range(n), k) if ft_resolves(dist, n, s)]


def minimal_ft_sets(n, edges):
    """All fault-tolerant sets without a fault-tolerant proper subset.

    Checks every proper subset by definition, deliberately not relying on
    the monotonicity shortcut the library uses.
    """
    dist = nx_distances(n, edges)
    ft = [s for s in all_subsets(range(n)) if ft_resolves(dist, n, s)]
    ft_frozen = {frozenset(s) for s in ft}
    return [s for s in ft if not any(other < frozenset(s) for other in ft_frozen)]


def first_largest_minimal_ft_set(n, edges):
    """Lexicographically first of the largest minimal fault-tolerant sets
    (``all_subsets`` lists each size in lexicographic order)."""
    sets = minimal_ft_sets(n, edges)
    largest = max(len(s) for s in sets)
    return next(s for s in sets if len(s) == largest)


def fdim_plus(n, edges):
    return len(first_largest_minimal_ft_set(n, edges))


def attaching_ft_resolves(dist, n, at, f):
    if not f:
        return resolves(dist, n, sorted(at))
    union = sorted(set(at) | set(f))
    return all(resolves(dist, n, [x for x in union if x != y]) for y in f)


def first_attaching_set(n, edges, at):
    dist = nx_distances(n, edges)
    free = [v for v in range(n) if v not in set(at)]
    for r in range(len(free) + 1):
        for f in combinations(free, r):
            if attaching_ft_resolves(dist, n, at, f):
                return f
    raise AssertionError("all non-anchor vertices together always qualify")


def fdim_star(n, edges, at):
    return len(first_attaching_set(n, edges, at))


def theta(n, edges, at):
    return theta_from_bases(nx_distances(n, edges), n, ft_bases(n, edges), at)


def theta_from_bases(dist, n, bases, at):
    if at and resolves(dist, n, sorted(at)):
        return len(bases[0])
    return max(len(set(b) & set(at)) for b in bases)


def twin_classes(n, edges):
    """Classes of mutual twins, ordered by smallest member: u and v are
    twins when every third vertex is at the same distance from both.  Each
    vertex's class is read off the pair relation directly, so the classes
    partition the vertices only because twinness is transitive."""
    dist = nx_distances(n, edges)

    def twins(u, v):
        return all(dist[u][z] == dist[v][z] for z in range(n) if z not in (u, v))

    return tuple(sorted({tuple(u for u in range(n) if u == v or twins(u, v))
                         for v in range(n)}))


def automorphisms(n, edges):
    """All adjacency-preserving permutations, by pruned backtracking."""
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    degrees = [len(a) for a in adjacency]
    image = [-1] * n
    used = [False] * n
    found = []

    def extend(v):
        if v == n:
            found.append(tuple(image))
            return
        for c in range(n):
            if used[c] or degrees[c] != degrees[v]:
                continue
            if all((w in adjacency[v]) == (image[w] in adjacency[c]) for w in range(v)):
                image[v] = c
                used[c] = True
                extend(v + 1)
                used[c] = False
                image[v] = -1

    extend(0)
    return found
