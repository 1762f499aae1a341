"""Immutable simple connected graphs with exact hop distances.

Vertices are dense integer labels 0..n-1; external names should be mapped
through a label table by the caller.  ``integer`` owns the rule for every
integer taken, label, order, size or cap (``operator.index``, bools refused),
and ``decimal_label`` the rule for text (plain decimal).  Construction reads
the order and the endpoints by it and checks connectivity: fewer than n - 1
edges are refused at once, and otherwise one breadth-first search decides,
so refusing an oversized graph costs O(n + m).  The all-pairs distance
matrix is built on first use of ``Graph.dist``, by breadth-first search from
every vertex but vertex 0, whose row the connectivity check already holds,
and every other module reads it from that cached matrix.

The distinguisher masks, which every search reads, are built from it in
bulk: each byte plane of the distance rows (one plane below diameter 256)
becomes one integer per row with a byte per vertex, a pair's mask is read
off the bytes of the XOR of its two rows, and the planes' masks are OR-ed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterable, Sequence

from .cover import Cover
from .errors import (
    DisconnectedInput,
    DuplicateEdge,
    FtmdError,
    IllegalParameter,
    InputFormatError,
    InvalidVertexSet,
    OrderCapExceeded,
    OrderTooSmall,
    SelfLoop,
    VertexOutOfRange,
)

UNREACHABLE_SHOWN = 20  # unreachable vertices named in a DisconnectedInput message


# byte 0 reads as the digit '0', every other byte as '1'
NONZERO = b"0" + b"1" * 255


def integer(v, what: str, least: int | None = None, error=IllegalParameter) -> int:
    """v as an int (``operator.index``), or error naming what: floats,
    strings and bools are refused, the last because JSON's ``true`` loads as
    ``True``, and so is an integer below least."""
    try:
        i = index(v)
    except TypeError:
        i = None
    if i is None or v.__class__ is bool:
        raise error(f"{what} {v!r} is not an integer")
    if least is not None and i < least:
        raise error(f"{what} must be >= {least}, got {i}")
    return i


def label(v) -> int:
    """v as a vertex label: ``integer``, refusing with ``InvalidVertexSet``."""
    return v if v.__class__ is int else integer(v, "vertex label", None, InvalidVertexSet)


def decimal_label(token: str, what: str) -> int:
    """token as the integer it spells in plain decimal, as ``str`` writes it
    ("10", "-4"); "01", "+1", "1_0", " 1", non-ASCII digits and other text
    are refused as "<what> <token!r> is not plain decimal"."""
    try:
        v = int(token)
        if str(v) == token:
            return v
    except (TypeError, ValueError):
        pass
    raise InputFormatError(f"{what} {token!r} is not plain decimal")


def vertex_set(n: int, vs: Iterable[int]) -> tuple[int, ...]:
    """The distinct labels of vs in ascending order, all inside 0..n-1."""
    out = tuple(sorted(set(map(label, vs))))
    if out and not (0 <= out[0] and out[-1] < n):
        raise InvalidVertexSet(f"vertex set {out} outside 0..{n - 1}")
    return out


def check_cap(n: int, cap: int | None, default: int | None, what: str) -> None:
    """Refuse order n above cap, or above default when cap is None; a None
    default leaves the computation uncapped."""
    limit = default if cap is None else integer(cap, "order cap")
    if limit is not None and n > limit:
        raise OrderCapExceeded(f"{what} capped at order {limit}, got {n}")


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path hop counts of a connected graph."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def d(self, u: int, w: int) -> int:
        return self.rows[u][w]

    def resolves(self, vs: Iterable[int]) -> bool:
        """Whether the distance vectors against the vertices vs are pairwise distinct."""
        return len(set(zip(*[self.rows[v] for v in vs]))) == self.n

    @cached_property
    def eccentricities(self) -> tuple[int, ...]:
        return tuple(max(row) for row in self.rows)

    @cached_property
    def diameter(self) -> int:
        return max(self.eccentricities)

    @cached_property
    def distinguisher_masks(self) -> tuple[int, ...]:
        """One bitmask per vertex pair: the vertices that tell the pair apart.

        Bit w of the mask for pair (u, v) is set when d(w, u) != d(w, v).
        A landmark set resolves the graph iff it meets every mask, and it
        tolerates any single failure iff it meets every mask twice.  Masks
        are sorted by population count: the scarcest pairs fail fastest, and
        the two-vertex masks, exactly the twin pairs, come first.

        The distance rows are split into byte planes, low byte first; below
        diameter 256 the one plane is the rows themselves.  Each plane packs
        into one integer per row, vertex w in byte w, and the bytes of the
        XOR of two packed rows, translated to binary digits, read back as
        the pair's mask in that plane; later planes are OR-ed into the first.
        """
        n, diameter = self.n, self.diameter
        planes = [self.rows] if diameter < 256 else (
            [bytes(x >> s & 255 for x in row) for row in self.rows]
            for s in range(0, diameter.bit_length(), 8))
        masks: list[int] = []
        for plane in planes:
            packed = [int.from_bytes(bytes(row), "little") for row in plane]
            pairs = (int((row_u ^ row_v).to_bytes(n, "big").translate(NONZERO), 2)
                     for u, row_u in enumerate(packed) for row_v in packed[u + 1:])
            if masks:
                for i, m in enumerate(pairs):
                    masks[i] |= m
            else:
                masks = list(pairs)
        masks.sort(key=int.bit_count)
        return tuple(masks)

    @cached_property
    def cover(self) -> Cover:
        """The distinct distinguisher masks, indexed for the exact searches,
        which remember their results on it."""
        return Cover(self.distinguisher_masks, self.n)


@dataclass(frozen=True)
class Graph:
    """Simple connected graph on vertices 0..n-1 with n >= 2; the order and
    the endpoints are read by ``integer``, so they are stored as ints."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.n
        if n.__class__ is not int:
            n = integer(n, "graph order")
            object.__setattr__(self, "n", n)
        if n < 2:
            raise OrderTooSmall(f"need at least 2 vertices, got {n}")
        seen: set[tuple[int, int]] = set()
        canon = []
        for e in self.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InputFormatError(f"edge {e!r} is not a pair") from None
            if u.__class__ is not int or v.__class__ is not int:
                u, v = label(u), label(v)
                e = (u, v)
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge {tuple(e)} outside 0..{n - 1}")
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
                e = (u, v)
            elif e.__class__ is not tuple:
                e = (u, v)
            if e in seen:
                raise DuplicateEdge(f"edge ({u}, {v}) given twice")
            seen.add(e)
            canon.append(e)
        if len(canon) < n - 1:
            raise DisconnectedInput(f"{len(canon)} edges cannot connect {n} vertices")
        canon.sort()  # in input order, so edges given sorted sort in one pass
        object.__setattr__(self, "edges", tuple(canon))
        reached = self._bfs_row(0)
        if min(reached) < 0:
            missing = [i for i, x in enumerate(reached) if x < 0]
            more = len(missing) - UNREACHABLE_SHOWN
            tail = f" and {more} more" if more > 0 else ""
            raise DisconnectedInput(
                f"vertices unreachable from 0: {missing[:UNREACHABLE_SHOWN]}{tail}")
        # row 0 of ``dist``, shared with it; not a field, so equality,
        # hashing and repr ignore it
        object.__setattr__(self, "_row0", tuple(reached))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        # the sorted edges list each vertex's smaller neighbours, ascending,
        # before its larger ones, so every row comes out ascending
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.adjacency)

    def _bfs_row(self, source: int) -> list[int]:
        dist = [-1] * self.n
        dist[source] = 0
        queue = [source]
        adj = self.adjacency
        for u in queue:  # the loop reads the vertices appended behind it
            du = dist[u] + 1
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = du
                    queue.append(w)
        return dist

    @cached_property
    def dist(self) -> DistanceMatrix:
        rows = [self._row0]
        rows += [tuple(self._bfs_row(s)) for s in range(1, self.n)]
        return DistanceMatrix(tuple(rows))


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Validate and build an immutable connected graph from vertex pairs."""
    return Graph(n, tuple(edges))


def is_even_graph(d: DistanceMatrix) -> bool:
    """True when every vertex has exactly one vertex at full diameter."""
    diam = d.diameter
    return all(sum(1 for x in row if x == diam) == 1 for row in d.rows)


def is_path_graph(g: Graph) -> tuple[int, int] | None:
    """Return the two leaf labels when g is a path, None otherwise."""
    degs = g.degrees
    leaves = [v for v, k in enumerate(degs) if k == 1]
    if len(leaves) == 2 and all(k <= 2 for k in degs):
        return leaves[0], leaves[1]
    return None


# --- edge-list text format -------------------------------------------------
#
# First line "n m", then m lines "u v" with 0-indexed endpoints.  Blank
# lines and '#' comments are ignored.

def parse_edge_list(text: str) -> Graph:
    """Parse the plain "n m" / "u v" text format into a Graph."""
    rows: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if "#" in raw:  # only lines with a comment split twice
            parts = raw.partition("#")[0].split()
        if not parts:
            continue
        if len(parts) != 2:
            raise InputFormatError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            rows.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise InputFormatError("empty edge-list input")
    n, m = rows[0]
    pairs = rows[1:]
    if len(pairs) != m:
        raise InputFormatError(f"header says {m} edges, found {len(pairs)}")
    return Graph(n, tuple(pairs))


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def json_fields(obj, what: str, required: Sequence[str], optional: Sequence[str] = ()) -> list:
    """obj's values for required + optional, an absent optional key as None (so a
    present one may not be null); a non-object, missing or unknown key is refused."""
    if not isinstance(obj, dict):
        raise InputFormatError(f"{what} must be an object")
    if not all(k in obj for k in required):
        raise InputFormatError(f"{what} needs " + " and ".join(f'"{k}"' for k in required))
    for k, v in obj.items():
        if k not in required and k not in optional:
            raise InputFormatError(f"{what}: unknown key {k!r}")
        if v is None and k in optional:
            raise InputFormatError(f"{what}: {k!r} may not be null")
    return [obj.get(k) for k in (*required, *optional)]


def graph_from_json_dict(obj) -> Graph:
    """Build a Graph from a {"n": int, "edges": [[u, v], ...]} payload."""
    return json_graph(*json_fields(obj, "graph JSON", ("n", "edges")), "graph JSON")


def json_graph(n, edges, what: str) -> Graph:
    """The Graph of the "n" and "edges" values of the JSON object what; each
    refusal names what, a refused build as its own type prefixed "<what>: "."""
    if not isinstance(edges, list):
        raise InputFormatError(f'{what}: "edges" must be a list')
    try:
        return Graph(n, tuple(edges))
    except FtmdError as exc:
        raise type(exc)(f"{what}: {exc}") from None
