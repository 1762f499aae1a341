"""The exact searches against an independent integer program, at orders
brute force cannot reach.

A set resolves a graph when it meets every distinguisher mask once and is
fault-tolerant when it meets each one twice, so each minimum is the integer
program min sum(x) subject to x(M) >= d for every mask M (Chartrand, Eroh,
Johnson & Oellermann 2000; d = 2 after Hernando, Mora, Slater & Wood
2008).  The masks here are rebuilt from the distance rows, not read from
the library's cover kernel, and HiGHS solves the program.  Basis
membership and anchor overlap are the same program with vertices fixed in
at the fault-tolerant dimension.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from ftmd import build_graph, fdim, fdim_star, in_some_ft_basis, metric_dimension, theta

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")

SEED = 20
ORDERS = (20, 21, 22, 23, 24, 20, 22, 24)


def bench_kind_graph(rng: random.Random, n: int):
    """A random recursive tree, relabelled, plus 3n/2 distinct chords."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for v in range(1, n):
        a, b = perm[rng.randrange(v)], perm[v]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < n - 1 + 3 * n // 2:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return build_graph(n, sorted(edges))


def masks_from_rows(rows) -> list[list[int]]:
    """For each vertex pair, the vertices at different distances from the two."""
    n = len(rows)
    return [[w for w in range(n) if rows[w][u] != rows[w][v]]
            for u in range(n) for v in range(u + 1, n)]


def ilp_minimum(n, masks, demand, fixed_in=(), fixed_out=(), size=None):
    """A minimum set meeting every mask ``demand`` times, as a sorted list,
    or None when infeasible; ``size`` caps the number of chosen vertices."""
    a = np.zeros((len(masks) + 1, n))
    for i, m in enumerate(masks):
        a[i, m] = 1
    a[-1, :] = 1
    lower = np.full(len(masks) + 1, float(demand))
    lower[-1] = 0
    upper = np.full(len(masks) + 1, np.inf)
    upper[-1] = n if size is None else size
    lb, ub = np.zeros(n), np.ones(n)
    lb[list(fixed_in)] = 1
    ub[list(fixed_out)] = 0
    res = optimize.milp(np.ones(n), integrality=np.ones(n),
                        bounds=optimize.Bounds(lb, ub),
                        constraints=optimize.LinearConstraint(a, lower, upper))
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return [v for v in range(n) if res.x[v] > 0.5]


def ilp_lex_first(n, masks, demand, witness):
    """The lexicographically first set meeting every mask ``demand`` times
    among those of the size of ``witness``, one such set: fix each vertex
    in, in order, whenever the program stays feasible; a vertex of the
    current set needs no solve."""
    size = len(witness)
    chosen, banned = [], []
    for v in range(n):
        if len(chosen) == size:
            break
        if v not in witness:
            other = ilp_minimum(n, masks, demand, chosen + [v], banned, size)
            if other is None:
                banned.append(v)
                continue
            witness = other
        chosen.append(v)
    return sorted(witness)


def meets(masks, s, times) -> bool:
    return all(len(set(m) & set(s)) >= times for m in masks)


@pytest.fixture(scope="module")
def graphs():
    rng = random.Random(SEED)
    return [bench_kind_graph(rng, n) for n in ORDERS]


@pytest.mark.parametrize("search, demand", [(metric_dimension, 1), (fdim, 2)],
                         ids=["mdim", "fdim"])
def test_minimum_matches_the_integer_program(graphs, search, demand):
    for g in graphs:
        masks = masks_from_rows(g.dist.rows)
        report = search(g, cap=g.n)
        assert report.value == len(ilp_minimum(g.n, masks, demand))
        assert len(report.witness) == report.value
        assert meets(masks, report.witness, demand)


def test_anchored_minimum_matches_the_integer_program(graphs):
    rng = random.Random(SEED)
    for g in graphs:
        anchors = rng.sample(range(g.n), 2)
        masks = [m for m in masks_from_rows(g.dist.rows) if not set(m) & set(anchors)]
        report = fdim_star(g, anchors, cap=g.n)
        assert report.value == len(ilp_minimum(g.n, masks, 2, fixed_out=anchors))
        assert len(report.witness) == report.value
        assert not set(report.witness) & set(anchors)
        assert meets(masks, report.witness, 2)


@pytest.mark.parametrize("search, demand", [(metric_dimension, 1), (fdim, 2)],
                         ids=["mdim", "fdim"])
def test_lex_first_witness_matches_the_integer_program(graphs, search, demand):
    for g in graphs[:2]:
        report = search(g, cap=g.n)
        masks = masks_from_rows(g.dist.rows)
        assert meets(masks, report.witness, demand)
        assert list(report.witness) == ilp_lex_first(g.n, masks, demand, report.witness)


def ilp_theta(n, masks, value, anchors) -> int:
    """The most anchors that one set of ``value`` vertices meeting every mask
    twice can hold: anchor subsets largest first, at most 2 ** len(anchors)
    solves."""
    for k in range(len(anchors), 0, -1):
        for subset in combinations(anchors, k):
            if ilp_minimum(n, masks, 2, fixed_in=subset, size=value) is not None:
                return k
    return 0


def test_basis_membership_matches_the_integer_program(graphs):
    answers = set()
    for g in graphs[1:3]:
        masks = masks_from_rows(g.dist.rows)
        value = fdim(g, cap=g.n).value  # checked against the program above
        for v in range(5):
            member = ilp_minimum(g.n, masks, 2, fixed_in=(v,), size=value) is not None
            assert in_some_ft_basis(g, v, cap=g.n) == member, (g.n, v)
            answers.add(member)
    assert answers == {False, True}


def test_theta_matches_the_integer_program(graphs):
    anchors = (0, 3, 9)
    values = []
    for g in graphs[:3]:
        masks = masks_from_rows(g.dist.rows)
        assert not meets(masks, anchors, 1)  # else theta is fdim by definition
        value = fdim(g, cap=g.n).value
        values.append(ilp_theta(g.n, masks, value, anchors))
        assert theta(g, anchors, cap=g.n) == values[-1], g.n
    assert values == [3, 2, 1]
