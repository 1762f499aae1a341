"""Exact landmark-set computations: metric dimension, the fault-tolerant
variants, basis enumeration, and anchor-overlap statistics.

A set resolves the graph when the distance vectors against it are pairwise
distinct, and it is fault-tolerant when it still resolves after the loss
of any single member.  Checking a given set reads only its members'
distance rows.  A search reads the distinguisher masks instead, cached on
the distance matrix: each pair of vertices has one, the vertices at
different distances from the two.  A set resolves the graph iff it meets
every mask, and it survives the loss of any single member iff it meets
every mask twice.  Every search here is one of those multicover problems,
solved by the kernel in ``ftmd.cover`` on the distinct masks: minimum
covers by raising the size from a packing bound with include/exclude
branching on the scarcest mask, basis enumeration and membership with the
same branching at the minimum size, and the largest minimal cover by a
vertex-order search cut with each member's private masks.  Ties are always
broken toward the lexicographically smallest witness so outputs are
deterministic.  Each graph has one kernel index, on its distance matrix,
which remembers its minimum covers per demand and anchor set, so the
searches that build on them, ``fdim_star`` too, solve them once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cover import vertices
from .errors import InvalidVertexSet
from .graph import DistanceMatrix, Graph, check_cap, vertex_set

DEFAULT_ORACLE_CAP = 16
DEFAULT_LATTICE_CAP = 14


@dataclass(frozen=True)
class FtReport:
    """Outcome of an exact invariant computation."""

    value: int
    witness: tuple[int, ...]
    method: str = "oracle"

    @classmethod
    def from_search(cls, search: tuple[int, int]) -> FtReport:
        """The report of a search's (size, witness mask)."""
        value, witness = search
        return cls(value, tuple(vertices(witness)))


def is_resolving(d: DistanceMatrix, s: Iterable[int]) -> bool:
    """True when the distance vectors against s are pairwise distinct.

    Reads the |s| rows of s, not the distinguisher masks: O(n |s|).
    """
    sv = vertex_set(d.n, s)
    if not sv:
        raise InvalidVertexSet("a resolving set must be non-empty")
    return d.resolves(sv)


def is_ft_resolving(d: DistanceMatrix, s: Iterable[int]) -> bool:
    """True when s minus any single element still resolves.

    One ``is_resolving`` test per member on the other members' rows,
    O(n |s|²) and no masks: tens of microseconds for the witnesses the
    composition rules check (n <= 24), though s = V on P300 takes about
    0.4 s, more than building and testing the masks.
    """
    sv = vertex_set(d.n, s)
    if len(sv) < 2:
        raise InvalidVertexSet("a fault-tolerant resolving set needs at least 2 vertices")
    return all(d.resolves(sv[:i] + sv[i + 1:]) for i in range(len(sv)))


def metric_dimension(g: Graph, cap: int | None = None) -> FtReport:
    """Minimum resolving set: the smallest set meeting every distinguisher
    mask once, lexicographically first.

    The search runs on the distinct masks.  It raises the size from a
    greedy packing bound (pairwise disjoint masks each need their own
    landmark) and branches include/exclude on the first unmet mask, a
    smallest one.  Then it fixes vertices in order to recover the
    lexicographically first witness.  A twin pair's mask holds
    just the pair, so it is among the smallest and is branched on first; no
    separate twin-class rule is needed.  It runs uncapped unless ``cap`` is given.
    """
    check_cap(g.n, cap, None, "resolving search")
    return FtReport.from_search(g.dist.cover.minimum(1))


def fdim(g: Graph, cap: int | None = None) -> FtReport:
    """Smallest fault-tolerant resolving set, lexicographically first.

    The same search as ``metric_dimension`` with every mask needing two
    hits.  A mask with exactly two vertices (a twin pair) has no slack, so
    both twins are forced in before any branching.  The size and witness
    are remembered per graph, and basis enumeration, membership and
    ``theta`` reuse the size.
    """
    check_cap(g.n, cap, DEFAULT_ORACLE_CAP, "fault-tolerant search")
    return FtReport.from_search(g.dist.cover.minimum(2))


def enumerate_ft_bases(g: Graph, cap: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All fault-tolerant resolving sets of minimum size, in lexicographic order.

    One search at the minimum size that keeps every cover it reaches, with
    the branching and bounds of the minimum search.
    """
    check_cap(g.n, cap, DEFAULT_ORACLE_CAP, "basis enumeration")
    return tuple(tuple(vertices(b)) for b in g.dist.cover.all_covers(2))


def fdim_plus(g: Graph, cap: int | None = None) -> FtReport:
    """Maximum size of an inclusion-minimal fault-tolerant resolving set.

    A fault-tolerant set is minimal exactly when every member lies in some
    mask that the set meets exactly twice: dropping that member leaves the
    mask met once.  The search decides vertices in order on the distinct
    masks, include before exclude, and keeps the lexicographically first
    set of the largest size.  It skips vertices that lie in no mask still
    short of two hits, and cuts a branch when some member has no mask that
    could still end met exactly twice with enough undecided vertices
    outside it to lift the set above the best size found
    (``Cover.largest_minimal``).
    """
    check_cap(g.n, cap, DEFAULT_LATTICE_CAP, "minimal-set scan")
    return FtReport.from_search(g.dist.cover.largest_minimal)


def theta(g: Graph, at: Iterable[int], cap: int | None = None) -> int:
    """Largest overlap between the anchor set and any fault-tolerant basis,
    or the full fault-tolerant dimension when the anchors already resolve
    the graph on their own.

    Anchors are tried in order, in before out, and an anchor joins only
    when some basis holds it together with those already in; since any
    subset of a feasible anchor set is feasible, this finds the largest
    overlap without listing the bases.
    """
    check_cap(g.n, cap, DEFAULT_LATTICE_CAP, "anchor-overlap scan")
    av = vertex_set(g.n, at)
    value, _ = g.dist.cover.smallest(2)
    if g.dist.resolves(av):
        return value
    cover = g.dist.cover
    best = 0

    def walk(i: int, chosen: int, count: int) -> None:
        nonlocal best
        if count + len(av) - i <= best:
            return
        if i == len(av):
            best = count
            return
        bit = 1 << av[i]
        if cover.find(2, value, chosen | bit) is not None:
            walk(i + 1, chosen | bit, count + 1)
        walk(i + 1, chosen, count)

    walk(0, 0, 0)
    return best


def in_some_ft_basis(g: Graph, v: int, cap: int | None = None) -> bool:
    """Whether vertex v appears in at least one fault-tolerant basis: one
    search for a minimum cover with v forced in, unless the cached witness
    already holds v."""
    check_cap(g.n, cap, DEFAULT_ORACLE_CAP, "basis membership")
    (v,) = vertex_set(g.n, (v,))
    value, witness = g.dist.cover.smallest(2)
    return bool(witness >> v & 1) or g.dist.cover.find(2, value, chosen=1 << v) is not None
