"""Exact multicover search over vertex masks.

A landmark set resolves a graph when it meets every distinguisher mask
once, and it tolerates the loss of any one landmark when it meets every
mask twice: metric dimension and its fault-tolerant variants are hitting
set and 2-fold multicover problems over the same masks (Khuller,
Raghavachari & Rosenfeld 1996; Hernando, Mora, Slater & Wood 2008).  Every
exact search in the package runs on one ``Cover`` per graph, whose *rows*
are its distinct masks.  An anchored search takes a set of anchors that
are never chosen: a row that an anchor meets starts fully met, and the
rest must be met by the other vertices.

Search.  Rows are the bits of one integer, and each vertex keeps the set
of rows that contain it, so every step of the search is a handful of
integer operations.  A node knows the rows that still need one or two more
hits and the vertices not yet decided.  It fails when some row has fewer
free vertices than it needs and forces every free vertex of a row with no
slack.  Otherwise it branches include/exclude on a vertex of the first
unmet row, which is a smallest one since rows are sorted by size: the
vertex that meets the most unmet rows, the lowest on ties.  With one vertex
left to pick, the candidates are narrowed row by row; with two, one of them
lies in the first unmet row.  The only lower bound is taken once, before
the search: a greedy packing of pairwise disjoint rows sets the first size
tried; per-node bounds cut nodes here but cost more time than they save.
Results are remembered per demand and anchor set.

Witnesses.  For sets of one size, the lexicographically first one contains
the smallest element of the symmetric difference.  So once the minimum
size is known, fixing each vertex in, in order, whenever some minimum cover
agrees with the choices so far yields the lexicographically first minimum
cover; a vertex already in the current witness needs no search.

Largest minimal covers.  ``largest_minimal`` decides vertices in index
order instead, so its first cover of the final size is the
lexicographically first, and spends nearly all its time proving that no
larger minimal cover exists.  Its cut is a bound from private rows (every
member of a minimal 2-fold cover lies in a row met exactly twice), read
off counts taken once per suffix of the vertex order; the reading is in
its docstring.  The index is built a block of rows at a time, which bounds
the memory of the transpose at large orders.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable

# rows transposed at a time: bounds the joined digit string at this many
# times the order, instead of the row count times the order
TRANSPOSE_ROWS = 4096


def bits(mask: int) -> list[int]:
    """The one-bit parts of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def vertices(mask: int) -> list[int]:
    """The vertices of a vertex bitmask, ascending."""
    return [b.bit_length() - 1 for b in bits(mask)]


class Cover:
    """The distinct masks of a mask list over vertices 0..n-1, sorted by
    size, as the rows of the searches.

    ``inc`` maps each vertex, as its one-bit mask, to the rows that contain
    it, as a bitmask over row indices.
    """

    def __init__(self, masks: Iterable[int], n: int) -> None:
        rows = sorted(dict.fromkeys(masks), key=int.bit_count)
        columns = [0] * n
        spec = f"0{n}b"
        for start in range(0, len(rows), TRANSPOSE_ROWS):
            # transpose a block of row bitmasks: join their n-digit binary
            # strings, last row first, and vertex v's digits are every n-th
            # character from n - 1 - v, the block's column with its row i as
            # bit i; shifted by the block's first row, it joins v's column
            block = rows[start:start + TRANSPOSE_ROWS]
            joined = "".join([format(m, spec) for m in reversed(block)])
            columns = [c | int(joined[n - 1 - v::n], 2) << start for v, c in enumerate(columns)]
        self.rows = tuple(rows)
        self.n = n
        self.inc = {1 << v: column for v, column in enumerate(columns)}
        self.full = (1 << len(rows)) - 1
        self._smallest: dict[tuple[int, int], tuple[int, int]] = {}
        self._minimum: dict[tuple[int, int], tuple[int, int]] = {}

    def _unmet(self, anchors: int) -> int:
        """The rows that no anchor meets."""
        rows = self.full
        for b in bits(anchors):
            rows &= ~self.inc[b]
        return rows

    def _search(self, demand: int, budget: int, chosen: int, banned: int, anchors: int,
                on_cover: Callable[[int], bool]) -> bool:
        """Depth-first search for covers of at most ``budget`` vertices that
        contain ``chosen`` and avoid ``banned``, given ``anchors``.  Calls
        ``on_cover`` with each cover and stops once it returns True."""
        rows, inc = self.rows, self.inc

        def last_one(chosen: int, free: int, need1: int, need2: int) -> bool:
            # the last vertex must lie in every unmet row: narrow the
            # candidates row by row, smallest rows first
            if need2:
                return False
            cand = free
            while need1 and cand:
                low = need1 & -need1
                need1 ^= low
                cand &= rows[low.bit_length() - 1]
            while cand:
                low = cand & -cand
                cand ^= low
                if on_cover(chosen | low):
                    return True
            return False

        def last_two(chosen: int, free: int, need1: int, need2: int) -> bool:
            # both of the last two vertices lie in every row that needs two
            # more hits, and one of them lies in the first unmet row
            if need2:
                rest = need2
                while rest and free.bit_count() > 1:
                    low = rest & -rest
                    rest ^= low
                    free &= rows[low.bit_length() - 1]
                if free.bit_count() < 2:
                    return False
                pool = free
            else:
                pool = rows[(need1 & -need1).bit_length() - 1] & free
            while pool:
                low = pool & -pool
                pool ^= low
                free &= ~low
                x = inc[low]
                rest = (need1 & ~x) | (need2 & x)
                if rest:
                    if last_one(chosen | low, free, rest, need2 & ~x):
                        return True
                elif on_cover(chosen | low):
                    return True
            return False

        def visit(chosen: int, free: int, need1: int, need2: int, budget: int) -> bool:
            # need1, need2: rows that still need at least one, two more hits
            if not need1:
                return on_cover(chosen)
            if budget <= 2:
                if budget == 2:
                    return last_two(chosen, free, need1, need2)
                return budget == 1 and last_one(chosen, free, need1, need2)
            # c1..c3: unmet rows with at least 1..3 free vertices
            c1 = c2 = c3 = 0
            f = free
            while f:
                low = f & -f
                f ^= low
                x = inc[low] & need1
                if x:
                    c3 |= c2 & x
                    c2 |= c1 & x
                    c1 |= x
            if need1 & ~c1 or need2 & ~c2:
                return False
            once = need1 & ~need2
            tight = (once & ~c2) | (need2 & ~c3)
            if tight:
                force = rows[(tight & -tight).bit_length() - 1] & free
                k = force.bit_count()
                if k > budget:
                    return False
                for b in bits(force):
                    x = inc[b]
                    need1, need2 = (need1 & ~x) | (need2 & x), need2 & ~x
                return visit(chosen | force, free & ~force, need1, need2, budget - k)
            # branch on the first (smallest) unmet row, and there on the
            # vertex meeting the most unmet rows
            best = -1
            m = rows[(need1 & -need1).bit_length() - 1] & free
            while m:
                b = m & -m
                m ^= b
                hits = (inc[b] & need1).bit_count()
                if hits > best:
                    best, low = hits, b
            x = inc[low]
            if visit(chosen | low, free & ~low, (need1 & ~x) | (need2 & x), need2 & ~x,
                     budget - 1):
                return True
            return visit(chosen, free & ~low, need1, need2, budget)

        if chosen.bit_count() > budget:
            return False
        need1 = self._unmet(anchors)
        need2 = need1 if demand == 2 else 0
        for b in bits(chosen):
            x = inc[b]
            need1, need2 = (need1 & ~x) | (need2 & x), need2 & ~x
        free = ((1 << self.n) - 1) & ~(chosen | banned | anchors)
        return visit(chosen, free, need1, need2, budget - chosen.bit_count())

    def find(self, demand: int, budget: int, chosen: int = 0, banned: int = 0,
             anchors: int = 0) -> int | None:
        """Some cover of at most ``budget`` vertices that contains ``chosen``
        and avoids ``banned``, given ``anchors``, or None."""
        found: list[int] = []

        def stop(cover: int) -> bool:
            found.append(cover)
            return True

        self._search(demand, budget, chosen, banned, anchors, stop)
        return found[0] if found else None

    def all_covers(self, demand: int, size: int) -> list[int]:
        """Every cover of ``size`` vertices, in lexicographic order, when no
        smaller cover exists."""
        found: list[int] = []

        def keep(cover: int) -> bool:
            found.append(cover)
            return False

        self._search(demand, size, 0, 0, 0, keep)
        return sorted(found, key=vertices)

    def minimum(self, demand: int, anchors: int = 0) -> tuple[int, int]:
        """Size of the smallest cover given ``anchors`` and its
        lexicographically first witness; remembered per demand and anchors."""
        key = demand, anchors
        known = self._minimum.get(key)
        if known is None:
            size, witness = self.smallest(demand, anchors)
            known = self._minimum[key] = size, self._lex_first(demand, size, witness, anchors)
        return known

    def smallest(self, demand: int, anchors: int = 0) -> tuple[int, int]:
        """Size of the smallest cover given ``anchors`` and some cover of
        that size, by raising the size from a greedy packing bound;
        remembered per demand and anchors."""
        key = demand, anchors
        known = self._smallest.get(key)
        if known is None:
            known = self._smallest[key] = self._smallest_search(demand, anchors)
        return known

    def _smallest_search(self, demand: int, anchors: int) -> tuple[int, int]:
        bound = 0  # greedy packing of pairwise disjoint unmet rows
        cand = self._unmet(anchors)
        while cand:
            bound += demand
            for b in bits(self.rows[(cand & -cand).bit_length() - 1]):
                cand &= ~self.inc[b]
        for k in range(bound, self.n - anchors.bit_count() + 1):
            witness = self.find(demand, k, anchors=anchors)
            if witness is not None:
                return k, witness
        raise AssertionError("unreachable: every row keeps both vertices of its pair")

    def _lex_first(self, demand: int, size: int, witness: int, anchors: int) -> int:
        """The lexicographically first cover of ``size`` vertices given
        ``anchors``, given one such cover, when no smaller cover exists."""
        chosen = banned = 0
        for bit in bits(((1 << self.n) - 1) & ~anchors):
            if chosen.bit_count() == size:
                break
            if not witness & bit:
                other = self.find(demand, size, chosen | bit, banned, anchors)
                if other is None:
                    banned |= bit
                    continue
                witness = other
            chosen |= bit
        return witness

    @functools.cached_property
    def largest_minimal(self) -> tuple[int, int]:
        """Size of the largest inclusion-minimal 2-fold cover and the
        lexicographically first cover of that size; remembered.

        A 2-fold cover S is minimal exactly when each member lies in some
        row that S meets exactly twice: dropping the member leaves that row
        met once.  A superset mask is never the only such row, since the
        row inside it is met by the same two members.  Vertices are decided
        in order, include before exclude, so covers come up in
        lexicographic order and the first one of the final size is kept;
        a branch is cut once it cannot beat that size.

        The cut reads private rows.  A member's row that ends met exactly
        twice is met at most twice now; if it is met twice, none of the
        undecided vertices in it can join, and if once, just one can.  So
        when every such row of some member holds so many undecided vertices
        that the rest cannot lift the set above the best size, the branch
        is cut; a member left with no such row, the case that ends every
        branch once the set is a cover, is cut the same way.  The
        undecided vertices are always the ones after the last decided one,
        so one pass before the search finds, for every suffix of the vertex
        order and every k, the rows that hold fewer than k of its vertices,
        and each node tests each member with a few integer operations.
        Vertices in no row still short of two hits cannot join and are
        skipped, but the counts include them, which only weakens the cut.
        """
        inc, full = self.inc, self.full
        tops = bits((1 << self.n) - 1)
        rows_of = [inc[b] for b in tops]
        m = len(tops)
        # fewer[q][k]: the rows that hold fewer than k of the vertices
        # tops[q:]; a node at q has chosen at most q vertices, so k never
        # passes m + 1
        held = [full] + [0] * (m + 1)  # rows holding at least k of them
        fewer = [[]] * m
        for q in range(m - 1, -1, -1):
            x = rows_of[q]
            for k in range(m - q, 0, -1):
                held[k] |= held[k - 1] & x
            fewer[q] = [~h for h in held]
        best_size = best = 0

        def visit(chosen: int, members: tuple[int, ...], first: int,
                  h1: int, h2: int, h3: int, size: int) -> None:
            # members: the rows of each chosen vertex; h1, h2, h3: rows that
            # chosen meets at least once, twice, three times; vertices
            # before tops[first] are decided
            nonlocal best_size, best
            short, zero = full & ~h2, full & ~h1
            once, twice = h1 & ~h2, h2 & ~h3
            for q in range(first, m):
                x = rows_of[q]
                if not x & short:
                    continue
                lack = fewer[q]
                if short & lack[1] or zero & lack[2]:
                    return  # some row can no longer reach two hits
                # a member's row keeps it necessary only if fewer than t of
                # the undecided vertices lie in it (t + 1 when it is met once)
                t = size + m - q - best_size
                if t <= 0:
                    return
                keep = (twice & lack[t]) | (once & lack[t + 1])
                for y in members:
                    if not y & keep:
                        return
                n2, n3 = h2 | (h1 & x), h3 | (h2 & x)
                if n2 != full:
                    visit(chosen | tops[q], members + (x,), q + 1, h1 | x, n2, n3, size + 1)
                elif size >= best_size and all(y & ~n3 for y in members):
                    best_size, best = size + 1, chosen | tops[q]

        visit(0, (), 0, 0, 0, 0, 0)
        return best_size, best

