"""Point-attached composites: anchor bookkeeping, the attachment variant of
fault-tolerant resolution, and the condition checkers used by the
composition rules.

Pieces are glued in order by identifying vertices that carry equal anchor
names.  Every piece after the first must share exactly one name that is
already declared, which keeps the arrangement tree-like; the other names
it declares become available to later pieces.  A name declared by a single
piece still marks its vertex as an attachment point, which is what lets a
one-piece decomposition carry a non-empty anchor set.

Tree-like glueing makes every shared vertex a cut vertex of the composite,
so no path can leave a piece and come back shorter: each piece is
isometric in the composite.  That is a property of the construction, not
checked per build, and the composite's distances are built only when
something first reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import (
    AnchorReuseWithinPiece,
    InputFormatError,
    InvalidVertexSet,
    NonTreeAttachment,
    OverlapError,
    UnsupportedConfiguration,
)
from .graph import (
    Graph,
    check_cap,
    decimal_label,
    graph_to_json_dict,
    integer,
    is_even_graph,
    is_path_graph,
    json_fields,
    json_graph,
    label,
    vertex_set,
)
from .resolve import DEFAULT_ORACLE_CAP, FtReport


@dataclass(frozen=True)
class Decomposition:
    """An ordered family of primary pieces glued at named anchor vertices."""

    pieces: tuple[Graph, ...]
    anchor_maps: tuple[tuple[tuple[int, str], ...], ...]
    composite: Graph
    global_ids: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.pieces)

    def at_local(self, i: int) -> tuple[int, ...]:
        """Attachment vertices of piece i in its own labeling."""
        return tuple(sorted(local for local, _ in self.anchor_maps[i]))

    def at_global(self, i: int) -> frozenset[int]:
        ids = self.global_ids[i]
        return frozenset(ids[local] for local, _ in self.anchor_maps[i])

    def piece_role(self, i: int) -> str:
        count = len(self.anchor_maps[i])
        if count == 0:
            return "unattached"
        return "end" if count == 1 else "internal"


def point_attach(spec: Sequence[tuple[Graph, Mapping[int, str]]]) -> Decomposition:
    """Glue the given pieces, identifying equal anchor names across pieces."""
    if not spec:
        raise NonTreeAttachment("need at least one piece")
    known: dict[str, int] = {}
    pieces: list[Graph] = []
    global_ids: list[tuple[int, ...]] = []
    anchor_maps: list[tuple[tuple[int, str], ...]] = []
    edges: list[tuple[int, int]] = []
    next_id = 0
    for index, (piece, amap) in enumerate(spec):
        by_local: dict[int, str] = {}
        for local, name in amap.items():
            local = label(local)
            if local in by_local:
                raise InputFormatError(f"piece {index}: anchor vertex {local} given twice")
            by_local[local] = name
        items = sorted(by_local.items())
        for local, name in items:
            if not isinstance(name, str):
                raise InputFormatError(f"piece {index}: anchor name {name!r} is not a string")
            if not 0 <= local < piece.n:
                raise InputFormatError(f"piece {index}: anchor vertex {local} out of range")
        names = [name for _, name in items]
        if len(set(names)) != len(names):
            raise AnchorReuseWithinPiece(f"piece {index} declares an anchor name twice")
        shared = [name for name in names if name in known]
        if index > 0 and len(shared) != 1:
            raise NonTreeAttachment(
                f"piece {index} shares {len(shared)} known anchors, needs exactly 1"
            )
        ids = []
        for local in range(piece.n):
            name = by_local.get(local)
            if name is not None and name in known:
                ids.append(known[name])
            else:
                ids.append(next_id)
                next_id += 1
                if name is not None:
                    known[name] = ids[-1]
        pieces.append(piece)
        global_ids.append(tuple(ids))
        anchor_maps.append(tuple(items))
        edges.extend((ids[u], ids[v]) for u, v in piece.edges)
    composite = Graph(next_id, tuple(edges))
    return Decomposition(tuple(pieces), tuple(anchor_maps), composite, tuple(global_ids))


def is_attaching_ft_resolving(g: Graph, at: Iterable[int], f: Iterable[int]) -> bool:
    """Anchored fault tolerance for a candidate set f outside the anchors.

    With f empty the anchors must resolve the graph by themselves;
    otherwise dropping any single member of f must leave f | at resolving.
    Anchors are never the failing element.
    """
    av = vertex_set(g.n, at)
    fv = vertex_set(g.n, f)
    overlap = set(av) & set(fv)
    if overlap:
        raise OverlapError(f"candidate set touches anchors: {sorted(overlap)}")
    # the definition, on the rows of f | at; fdim_star searches its mask
    # form, which its docstring derives
    if not fv:
        return g.dist.resolves(av)
    return all(g.dist.resolves([v for v in av + fv if v != y]) for y in fv)


def fdim_star(g: Graph, at: Iterable[int], cap: int | None = None) -> FtReport:
    """Minimum anchored fault-tolerant candidate set, lexicographically first.

    A set f outside the anchors passes ``is_attaching_ft_resolving`` iff it
    meets twice every distinguisher mask that no anchor meets.  A mask that
    an anchor meets always survives: with two anchors in it, or with one
    anchor and a member of f, two landmarks are left after any deletion
    from f; with one anchor and no member of f, the anchor alone remains.
    With f empty, every mask must be met: the anchors resolve the graph.
    So this is the anchored search of ``ftmd.cover`` on the graph's index.
    With no anchors it is the plain fault-tolerant dimension, which keeps
    sums over anchor-free one-piece decompositions well defined.
    """
    check_cap(g.n, cap, DEFAULT_ORACLE_CAP, "anchored search")
    at_mask = sum(1 << a for a in vertex_set(g.n, at))  # distinct anchors
    return FtReport.from_search(g.dist.cover.minimum(2, at_mask))


def fdim_star_closed_form(family: str, n: int, anchors: Iterable[int]) -> int:
    """Closed-form anchored dimension for canonically labeled families.

    Paths and cycles are numbered along the walk and complete graphs are
    symmetric, so the anchor positions fully determine the value: paths pay
    2 only for a single interior anchor, cycles pay 2 for a single anchor
    or an antipodal pair on an even cycle, and complete graphs pay the
    non-anchor count until n-1 anchors resolve everything.
    """
    if family not in ("path", "cycle", "complete"):
        raise UnsupportedConfiguration(f"no closed form for family {family!r}")
    n = integer(n, f"{family} order", 3 if family == "cycle" else 2, UnsupportedConfiguration)
    av = sorted(set(map(label, anchors)))
    if not av:
        raise UnsupportedConfiguration("need at least one anchor")
    if av[0] < 0 or av[-1] >= n:
        raise UnsupportedConfiguration(f"anchors outside 0..{n - 1}")
    if family == "path":
        return 2 if len(av) == 1 and 0 < av[0] < n - 1 else 0
    if family == "cycle":
        antipodal = len(av) == 2 and n % 2 == 0 and (av[1] - av[0]) % n == n // 2
        return 2 if len(av) == 1 or antipodal else 0
    return n - len(av) if len(av) < n - 1 else 0


def _c1_anchors(g: Graph, at: Iterable[int]) -> tuple[int, ...]:
    av = vertex_set(g.n, at)
    if not av:
        raise InvalidVertexSet("C1 needs a non-empty anchor set")
    return av


def c1_violation(g: Graph, at: Iterable[int]) -> tuple[int, int] | None:
    """The first (anchor, outside vertex) pair that breaks C1, or None.

    C1 is anchor-distance domination: from any anchor a1, every vertex v
    outside the anchors is dominated by some anchor a2 at least as far from
    a1 as from v.
    """
    av = _c1_anchors(g, at)
    d = g.dist
    anchored = set(av)
    for a1 in av:
        for v in range(g.n):
            if v not in anchored and not any(d.d(a1, a2) >= d.d(v, a2) for a2 in av):
                return a1, v
    return None


def check_C1(g: Graph, at: Iterable[int]) -> bool:
    """Condition C1 on an internal piece's anchors (see ``c1_violation``)."""
    return c1_violation(g, at) is None


def c1_cases(g: Graph, at: Iterable[int]) -> tuple[int, ...]:
    """Which of the four structural sufficient conditions for C1 apply:
    (1) every vertex is an anchor, (2) independent anchors in a diameter-2
    graph, (3) anchors pairwise at full mutual eccentricity, (4) even graph
    with antipodally closed anchors."""
    av = _c1_anchors(g, at)
    d = g.dist
    cases = []
    if len(av) == g.n:
        cases.append(1)
    if len(av) >= 2:
        if d.diameter == 2 and all(d.d(u, v) >= 2 for u, v in combinations(av, 2)):
            cases.append(2)
        ecc = d.eccentricities
        if all(ecc[u] == ecc[v] == d.d(u, v) for u, v in combinations(av, 2)):
            cases.append(3)
    if is_even_graph(d):
        anchored = set(av)
        diam = d.diameter
        if all(d.rows[u].index(diam) in anchored for u in av):
            cases.append(4)
    return tuple(cases)


def check_C2(g: Graph, at: Iterable[int]) -> bool:
    """Single anchor that is not the leaf of a path."""
    av = vertex_set(g.n, at)
    if len(av) != 1:
        return False
    leaves = is_path_graph(g)
    return leaves is None or av[0] not in leaves


# --- decomposition JSON format ----------------------------------------------
#
# { "pieces": [ { "n": int, "edges": [[u, v], ...],
#                 "anchors": { "<local-vertex>": "<anchor-name>" } }, ... ] }
#
# "anchors" is optional.  Equal anchor names across pieces are identified.

def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "pieces": [
            {
                **graph_to_json_dict(piece),
                "anchors": {str(local): name for local, name in dec.anchor_maps[i]},
            }
            for i, piece in enumerate(dec.pieces)
        ]
    }


def decomposition_from_json(obj) -> Decomposition:
    (pieces,) = json_fields(obj, "decomposition JSON", ("pieces",))
    if not isinstance(pieces, list):
        raise InputFormatError('decomposition JSON needs a "pieces" list')
    spec: list[tuple[Graph, dict[int, str]]] = []
    for idx, entry in enumerate(pieces):
        what = f"piece {idx}"
        n, edges, anchors = json_fields(entry, what, ("n", "edges"), ("anchors",))
        graph = json_graph(n, edges, what)
        if not isinstance(anchors, dict | None):
            raise InputFormatError(f"{what}: anchors must map vertex to name")
        amap = {decimal_label(key, f"{what}: anchor key"): value
                for key, value in (anchors or {}).items()}
        spec.append((graph, amap))
    return point_attach(spec)
