"""Deterministic generators for the named graph families, plus the five-piece
worked composite shared by the tests and the CLI."""

from __future__ import annotations

from itertools import combinations

from .attach import Decomposition, point_attach
from .errors import IllegalParameter
from .graph import Graph, integer


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    n = integer(n, "path order", 2)
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """Cycle numbered along the walk."""
    n = integer(n, "cycle order", 3)
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    n = integer(n, "complete graph order", 2)
    return Graph(n, tuple(combinations(range(n), 2)))


def star_graph(t: int) -> Graph:
    """Star with center 0 and leaves 1..t."""
    t = integer(t, "star leaf count", 1)
    return Graph(t + 1, tuple((0, i) for i in range(1, t + 1)))


def paw_graph() -> Graph:
    """Triangle 0-1-2 with pendant vertex 3 attached to 2."""
    return Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))


def hypercube_graph(d: int) -> Graph:
    """d-cube with binary-label adjacency."""
    d = integer(d, "hypercube dimension", 1)
    n = 1 << d
    edges = []
    for v in range(n):
        for b in range(d):
            w = v ^ (1 << b)
            if v < w:
                edges.append((v, w))
    return Graph(n, tuple(edges))


def bowtie_graph() -> Graph:
    """Two triangles sharing vertex 2."""
    return Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))


def figure2_decomposition() -> Decomposition:
    """The five-piece worked composite on 20 vertices.

    A central triangle carries anchors a1, a2, a3; a 4-clique hangs at a1,
    the paw hangs by its pendant at a2, an 8-cycle spans a3 to a4 between
    antipodal positions, and a 5-clique hangs at a4.
    """
    return point_attach(
        [
            (complete_graph(4), {0: "a1"}),
            (complete_graph(3), {0: "a1", 1: "a2", 2: "a3"}),
            (paw_graph(), {3: "a2"}),
            (cycle_graph(8), {0: "a3", 4: "a4"}),
            (complete_graph(5), {0: "a4"}),
        ]
    )


MAX_EDGES = 10**6

# family -> (builder, edge count of the member of that size).  The count is
# checked before anything is built; hypercube clips its exponent, since every
# d past 16 is over the bound and 2 ** d of a huge d would itself be huge.
_SIZED = {
    "path": (path_graph, lambda n: n - 1),
    "cycle": (cycle_graph, lambda n: n),
    "complete": (complete_graph, lambda n: n * (n - 1) // 2),
    "star": (star_graph, lambda t: t),
    "hypercube": (hypercube_graph, lambda d: d * 2 ** min(d - 1, 64)),
}

_FIXED = {
    "paw": paw_graph,
    "bowtie": bowtie_graph,
    "figure2": figure2_decomposition,
}

FAMILY_NAMES = tuple(sorted(_SIZED) + sorted(_FIXED))


def generate(family: str, size: int | None = None) -> Graph | Decomposition:
    """Build the canonical member of a family; ``size`` is None for the fixed
    ones.  Members with more than ``MAX_EDGES`` edges are refused unbuilt."""
    if family in _SIZED:
        if size is None:
            raise IllegalParameter(f"family {family!r} needs a size parameter")
        build, edges = _SIZED[family]
        size = integer(size, f"family {family!r} size")
        if edges(size) > MAX_EDGES:
            raise IllegalParameter(
                f"family {family!r} of size {size} has more than {MAX_EDGES} edges"
            )
        return build(size)
    if family in _FIXED:
        if size is not None:
            raise IllegalParameter(f"family {family!r} takes no size parameter")
        return _FIXED[family]()
    raise IllegalParameter(f"unknown family {family!r}")
