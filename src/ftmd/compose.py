"""Composition rules for point-attached graphs and rooted products.

Each rule computes the fault-tolerant dimension of a composite from
per-piece data, reports its hypothesis checks by name, and can be
cross-validated against the exact search on the composite.  Hypothesis
failures never fall back to the search silently; callers choose the
fallback explicitly.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .attach import (
    Decomposition,
    check_C1,
    check_C2,
    decomposition_from_json,
    fdim_star,
    point_attach,
)
from .errors import IllegalParameter, InputFormatError, PreconditionFailed
from .families import complete_graph, cycle_graph, path_graph, paw_graph, star_graph
from .graph import Graph, graph_to_json_dict, integer, is_path_graph, json_fields, json_graph, label
from .resolve import fdim, fdim_plus, in_some_ft_basis, is_ft_resolving, theta


@dataclass(frozen=True)
class TheoremResult:
    """Value of a composition rule plus its named hypothesis checks.

    A failed hypothesis check raises ``PreconditionFailed`` instead, so
    every listed check passed.  Rules that prove a range fill ``bounds``;
    ``value`` is None only when ``prop9``'s bounds differ.  When a rule
    produces an explicit landmark set on the composite it is machine-checked
    and the outcome is recorded in ``witness_valid``.
    """

    theorem: str
    value: int | None
    preconditions: tuple[tuple[str, bool], ...]
    witness: tuple[int, ...] | None = None
    witness_valid: bool | None = None
    components: tuple[int, ...] | None = None
    bounds: tuple[int, int] | None = None
    detail: str | None = None


def _require(theorem: str, checks: Sequence[tuple[str, bool]]) -> tuple[tuple[str, bool], ...]:
    checks = tuple(checks)
    if any(not ok for _, ok in checks):
        raise PreconditionFailed(theorem, checks)
    return checks


def prop1_lower_bound(dec: Decomposition, cap: int | None = None) -> int:
    """Additive lower bound: the composite dimension is at least the sum of
    the per-piece anchored dimensions.  Holds for any decomposition."""
    return sum(
        fdim_star(piece, dec.at_local(i), cap=cap).value
        for i, piece in enumerate(dec.pieces)
    )


def _tree_checks(dec: Decomposition,
                 piece_checks: Sequence[tuple[str, bool]]) -> list[tuple[str, bool]]:
    """The tree-shape checks of the attachment rules around their per-piece
    checks: k >= 3 first, then at least two end pieces, pairwise disjoint."""
    ends = [i for i in range(dec.k) if dec.piece_role(i) == "end"]
    disjoint = all(not (dec.at_global(a) & dec.at_global(b)) for a, b in combinations(ends, 2))
    return [("k >= 3", dec.k >= 3), *piece_checks,
            ("at least two end pieces", len(ends) >= 2),
            ("end attachment sets pairwise disjoint", disjoint)]


def _attachment_checks(dec: Decomposition) -> list[tuple[str, bool]]:
    checks = []
    for i, piece in enumerate(dec.pieces):
        role, at = dec.piece_role(i), dec.at_local(i)
        if role == "internal":
            checks.append((f"piece {i} (internal) satisfies C1", check_C1(piece, at)))
        elif role == "end":
            checks.append((f"piece {i} (end) satisfies C2", check_C2(piece, at)))
        else:
            checks.append((f"piece {i} has an attachment vertex", False))
    return _tree_checks(dec, checks)


def theorem2_fdim(dec: Decomposition, cap: int | None = None) -> TheoremResult:
    """Exact composite dimension as the sum of per-piece anchored dimensions.

    The witness is the union of the per-piece optimal candidate sets,
    mapped into the composite and re-checked there.
    """
    checks = _require("thm2", _attachment_checks(dec))
    components = []
    witness: list[int] = []
    for i, piece in enumerate(dec.pieces):
        report = fdim_star(piece, dec.at_local(i), cap=cap)
        components.append(report.value)
        ids = dec.global_ids[i]
        witness.extend(ids[v] for v in report.witness)
    witness_t = tuple(sorted(witness))
    valid = len(witness_t) >= 2 and is_ft_resolving(dec.composite.dist, witness_t)
    return TheoremResult(
        theorem="thm2",
        value=sum(components),
        preconditions=checks,
        witness=witness_t,
        witness_valid=valid,
        components=tuple(components),
    )


def corollary3_fdim(
    dec: Decomposition, relaxed: bool = False, cap: int | None = None
) -> TheoremResult:
    """Composite dimension as the per-piece sum of (fdim - theta).

    Strict mode additionally requires each piece to keep some non-anchor
    vertex and to have equal minimum and maximum minimal set sizes.
    Relaxed mode keeps only the attachment conditions and reproduces the
    worked-example arithmetic, whose pieces violate both extra hypotheses.
    """
    tag = "cor3-relaxed" if relaxed else "cor3"
    checks = _attachment_checks(dec)
    if not relaxed:
        for i, piece in enumerate(dec.pieces):
            checks.append(
                (f"piece {i} anchors proper (At != V)", len(dec.at_local(i)) < piece.n)
            )
            same = fdim(piece, cap=cap).value == fdim_plus(piece, cap=cap).value
            checks.append((f"piece {i} fdim equals fdim-plus", same))
    checks = _require(tag, checks)
    components = tuple(
        fdim(piece, cap=cap).value - theta(piece, dec.at_local(i), cap=cap)
        for i, piece in enumerate(dec.pieces)
    )
    return TheoremResult(tag, sum(components), checks, components=components)


def block_graph_fdim(dec: Decomposition) -> TheoremResult:
    """Clique-block composite: every block whose anchor count stays below
    its order minus one contributes its non-anchor count."""
    checks = []
    for i, piece in enumerate(dec.pieces):
        r = piece.n
        checks.append((f"piece {i} is complete", len(piece.edges) == r * (r - 1) // 2))
        checks.append((f"piece {i} has r >= 3", r >= 3))
    checks = _require("blocks", _tree_checks(dec, checks))
    components = tuple(
        piece.n - len(dec.at_local(i)) if len(dec.at_local(i)) < piece.n - 1 else 0
        for i, piece in enumerate(dec.pieces)
    )
    return TheoremResult("blocks", sum(components), checks, components=components)


# --- rooted products ---------------------------------------------------------


@dataclass(frozen=True)
class RootedPiece:
    graph: Graph
    root: int

    def __post_init__(self) -> None:
        root = label(self.root)
        if not 0 <= root < self.graph.n:
            raise IllegalParameter(f"root {root} outside 0..{self.graph.n - 1}")
        object.__setattr__(self, "root", root)  # as an int, for JSON and equality


@dataclass(frozen=True)
class RootedProductSpec:
    """A base graph plus one rooted piece per base vertex."""

    base: Graph
    family: tuple[RootedPiece, ...]

    def __post_init__(self) -> None:
        if len(self.family) != self.base.n:
            raise IllegalParameter(
                f"family has {len(self.family)} pieces for a base of order {self.base.n}"
            )

    @functools.cached_property
    def decomposition(self) -> Decomposition:
        """The rooted product, built on first use; the rules and ``verify``
        all read this one composite."""
        return rooted_product(self)


def uniform_rooted_spec(base: Graph, piece: Graph, root: int) -> RootedProductSpec:
    """One isomorphic copy of (piece, root) per base vertex."""
    return RootedProductSpec(base, tuple(RootedPiece(piece, root) for _ in range(base.n)))


def rooted_product(spec: RootedProductSpec) -> Decomposition:
    """Identify each base vertex with the root of its piece.

    The base joins as an internal piece with every vertex an attachment
    point; each rooted piece becomes an end piece anchored at its root.
    """
    parts: list[tuple[Graph, dict[int, str]]] = [
        (spec.base, {v: f"r{v}" for v in range(spec.base.n)})
    ]
    parts.extend((rp.graph, {rp.root: f"r{v}"}) for v, rp in enumerate(spec.family))
    return point_attach(parts)


def cor5_fdim(spec: RootedProductSpec, cap: int | None = None) -> TheoremResult:
    """Rooted-product dimension: each piece pays its full fault-tolerant
    dimension when its root sits in no fault-tolerant basis, one less when
    the root can serve in some basis.  Equal rooted pieces are evaluated
    once, so a uniform family costs one search."""
    checks: list[tuple[str, bool]] = [("base order >= 2", spec.base.n >= 2)]
    for i, rp in enumerate(spec.family):
        checks.append((f"piece {i} satisfies C2 at its root", check_C2(rp.graph, (rp.root,))))
    checks = _require("cor5", checks)
    per_piece = {rp: _rooted_term(rp, cap)[0] for rp in dict.fromkeys(spec.family)}
    components = tuple(per_piece[rp] for rp in spec.family)
    return TheoremResult("cor5", sum(components), checks, components=components)


def _rooted_term(rp: RootedPiece, cap: int | None) -> tuple[int, bool]:
    """A rooted piece's share of the product's dimension, fdim(H) less 1 when
    the root lies in some fault-tolerant basis of H, and whether it does."""
    value = fdim(rp.graph, cap=cap).value
    in_basis = in_some_ft_basis(rp.graph, rp.root, cap=cap)
    return value - in_basis, in_basis


def _uniform_of(spec: RootedProductSpec) -> RootedPiece:
    first = spec.family[0]
    if any(rp != first for rp in spec.family):
        raise IllegalParameter("this rule needs one isomorphic rooted piece per base vertex")
    return first


def prop7_fdim(spec: RootedProductSpec, cap: int | None = None) -> TheoremResult:
    """Uniform rooted product with a non-path piece: n copies each pay
    fdim(h), minus one each when the root can serve in some basis."""
    rp = _uniform_of(spec)
    h, v = rp.graph, rp.root
    checks = _require(
        "prop7",
        [
            ("H is not a path", is_path_graph(h) is None),
            ("root inside H", 0 <= v < h.n),
        ],
    )
    per_copy, in_basis = _rooted_term(rp, cap)
    detail = ("case (ii): root lies in some fault-tolerant basis" if in_basis
              else "case (i): root lies in no fault-tolerant basis")
    return TheoremResult(
        "prop7",
        spec.base.n * per_copy,
        checks,
        components=tuple(per_copy for _ in range(spec.base.n)),
        detail=detail,
    )


def cor8_check(g: Graph, h: Graph, v: int, cap: int | None = None) -> bool:
    """Characterization check: the composite dimension hits 2n exactly when
    h is a path rooted at an interior vertex.

    Requires a root outside every fault-tolerant basis of h; returns
    whether the equivalence holds on this instance (False is a finding).
    """
    if in_some_ft_basis(h, v, cap=cap):
        raise PreconditionFailed(
            "cor8", (("root lies in no fault-tolerant basis of H", False),)
        )
    composite = uniform_rooted_spec(g, h, v).decomposition.composite
    oracle = fdim(composite, cap=cap).value
    leaves = is_path_graph(h)
    path_with_inner_root = leaves is not None and v not in leaves
    return (oracle == 2 * g.n) == path_with_inner_root


def _prop9_checks(m: int, root_is_leaf: bool, g: Graph) -> list[tuple[str, bool]]:
    return [
        ("path is non-trivial (m >= 2)", m >= 2),
        ("root is a leaf of the path", root_is_leaf),
        ("base order >= 2", g.n >= 2),
    ]


def prop9_fdim(spec: RootedProductSpec, cap: int | None = None) -> TheoremResult:
    """Leaf-rooted path product: the dimension stays between fdim(g) and n,
    with the far-leaf layer V(G) x {v'} of the spec's own composite as an
    explicit checked witness; v' is the leaf of the path that is not the
    root."""
    rp = _uniform_of(spec)
    leaves = is_path_graph(rp.graph)
    if leaves is None:
        raise IllegalParameter("prop9 needs path pieces")
    checks = _require("prop9", _prop9_checks(rp.graph.n, rp.root in leaves, spec.base))
    far = leaves[0] if rp.root == leaves[1] else leaves[1]
    dec = spec.decomposition
    # piece 0 is the base, piece v + 1 the path rooted at base vertex v
    witness = tuple(sorted(ids[far] for ids in dec.global_ids[1:]))
    lower, upper = fdim(spec.base, cap=cap).value, spec.base.n
    return TheoremResult(
        "prop9",
        value=lower if lower == upper else None,
        preconditions=checks,
        witness=witness,
        witness_valid=is_ft_resolving(dec.composite.dist, witness),
        bounds=(lower, upper),
    )


def prop9_bounds(g: Graph, path_len: int, cap: int | None = None) -> TheoremResult:
    """``prop9_fdim`` on the canonical spec: one path_graph(path_len) rooted
    at its leaf 0 per vertex of g."""
    path_len = integer(path_len, "path_len")
    if path_len < 2:  # no path to build: fail the hypothesis instead
        _require("prop9", _prop9_checks(path_len, True, g))
    return prop9_fdim(uniform_rooted_spec(g, path_graph(path_len), 0), cap=cap)


# --- rooted-product JSON format -----------------------------------------------
#
# { "base": {"n": ..., "edges": ...},
#   "family": [ {"graph": {...}, "root": int}, ... ] }
# or, for one isomorphic piece per base vertex:
# { "base": ..., "family": {"graph": {...}, "root": int, "copies": "per-base-vertex"} }

def rooted_spec_to_json(spec: RootedProductSpec) -> dict:
    return {
        "base": graph_to_json_dict(spec.base),
        "family": [
            {"graph": graph_to_json_dict(rp.graph), "root": rp.root} for rp in spec.family
        ],
    }


def _rooted_piece(obj, what: str, *extra: str) -> tuple:
    """A family entry's RootedPiece, then the values of its extra keys."""
    graph, root, *rest = json_fields(obj, what, ("graph", "root", *extra))
    graph = json_graph(*json_fields(graph, f"{what} graph", ("n", "edges")), f"{what} graph")
    return RootedPiece(graph, root), *rest


def rooted_spec_from_json(obj) -> RootedProductSpec:
    base, family = json_fields(obj, "rooted-product JSON", ("base", "family"))
    base = json_graph(*json_fields(base, "base", ("n", "edges")), "base")
    if isinstance(family, dict):
        piece, copies = _rooted_piece(family, "uniform family", "copies")
        if copies != "per-base-vertex":
            raise InputFormatError('uniform family needs "copies": "per-base-vertex"')
        return RootedProductSpec(base, (piece,) * base.n)
    if not isinstance(family, list):
        raise InputFormatError('"family" must be a list or a uniform-copies object')
    return RootedProductSpec(base, tuple(_rooted_piece(entry, f"family entry {idx}")[0]
                                         for idx, entry in enumerate(family)))


# --- theorem registry --------------------------------------------------------
#
# The one table that ``verify`` and the CLI dispatch on.  Entries call the
# rule functions through this module's globals at call time, so rebinding a
# name here (``theorem2_fdim``, ``fdim``) reaches every caller.


@dataclass(frozen=True)
class Rule:
    """A composition rule: the input it reads and how to apply it.

    ``apply(target, cap, relaxed_cor3)`` passes ``cap`` to every per-piece
    search.  ``batch`` is the generator condition and maximum order of
    ``verify --count`` batches, or None when the rule has no batch.
    """

    kind: type
    load: Callable[[object], Decomposition | RootedProductSpec]
    apply: Callable[..., TheoremResult]
    batch: tuple[str | None, int] | None = None


def _prop1(dec: Decomposition, cap: int | None, _relaxed: bool) -> TheoremResult:
    lower = prop1_lower_bound(dec, cap=cap)
    return TheoremResult("prop1", lower, (), bounds=(lower, dec.composite.n))


_ON_DECOMPOSITIONS = (Decomposition, decomposition_from_json)
_ON_ROOTED_SPECS = (RootedProductSpec, rooted_spec_from_json)

RULES: dict[str, Rule] = {
    "prop1": Rule(*_ON_DECOMPOSITIONS, _prop1, batch=(None, 14)),
    "thm2": Rule(*_ON_DECOMPOSITIONS, lambda dec, cap, _: theorem2_fdim(dec, cap=cap),
                 batch=("thm2", 16)),
    "cor3": Rule(*_ON_DECOMPOSITIONS,
                 lambda dec, cap, relaxed: corollary3_fdim(dec, relaxed=relaxed, cap=cap),
                 batch=("cor3", 16)),
    "blocks": Rule(*_ON_DECOMPOSITIONS, lambda dec, cap, _: block_graph_fdim(dec)),
    "cor5": Rule(*_ON_ROOTED_SPECS, lambda spec, cap, _: cor5_fdim(spec, cap=cap)),
    "prop7": Rule(*_ON_ROOTED_SPECS, lambda spec, cap, _: prop7_fdim(spec, cap=cap)),
    "prop9": Rule(*_ON_ROOTED_SPECS, lambda spec, cap, _: prop9_fdim(spec, cap=cap)),
}


# --- oracle cross-validation -------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    """Formula-versus-search comparison on one composite instance."""

    theorem: str
    formula_value: int | None
    bounds: tuple[int, int] | None
    oracle_value: int
    ok: bool
    witness_valid: bool | None
    composite_order: int
    elapsed_formula: float
    elapsed_oracle: float


def verify(
    target: Decomposition | RootedProductSpec,
    theorem: str,
    oracle_cap: int | None = None,
    relaxed_cor3: bool = False,
) -> VerifyReport:
    """Cross-check a composition rule against the exact search on its composite.

    The rule's per-piece searches and the search on the composite share
    ``oracle_cap``.  A rule that proves a range passes when the search lands
    in it, any other rule when it matches the search; a rule witness that
    fails its check fails either way.
    """
    rule = RULES.get(theorem)
    if rule is None:
        raise IllegalParameter(f"unknown theorem {theorem!r}")
    if not isinstance(target, rule.kind):
        noun = "a decomposition" if rule.kind is Decomposition else "a rooted-product spec"
        raise IllegalParameter(f"{theorem} verifies {noun}")
    dec = target if rule.kind is Decomposition else target.decomposition
    composite = dec.composite

    t0 = time.perf_counter()
    res = rule.apply(target, oracle_cap, relaxed_cor3)
    t1 = time.perf_counter()
    oracle = fdim(composite, cap=oracle_cap).value
    t2 = time.perf_counter()

    if res.bounds is not None:
        ok = res.bounds[0] <= oracle <= res.bounds[1]
    else:
        ok = res.value == oracle
    return VerifyReport(
        theorem=theorem,
        formula_value=res.value,
        bounds=res.bounds,
        oracle_value=oracle,
        ok=ok and res.witness_valid is not False,
        witness_valid=res.witness_valid,
        composite_order=composite.n,
        elapsed_formula=t1 - t0,
        elapsed_oracle=t2 - t1,
    )


# --- seeded random decompositions ---------------------------------------------

_POOL: dict[str, Graph] = {
    **{f"K{r}": complete_graph(r) for r in (3, 4, 5)},
    **{f"C{r}": cycle_graph(r) for r in (4, 5, 6, 7, 8)},
    "paw": paw_graph(),
    "S3": star_graph(3),
    "S4": star_graph(4),
    **{f"P{r}": path_graph(r) for r in (3, 4, 5)},
}


_MIN_PIECE = min(g.n for g in _POOL.values())
_MAX_ATTEMPTS = 500


def random_decomposition(
    seed_or_rng: int | random.Random,
    k: int,
    max_order: int,
    condition: str | None = None,
) -> Decomposition:
    """Draw a reproducible decomposition from the fixed piece pool.

    ``condition`` None gives an unconstrained tree-like glueing; "thm2"
    draws anchor placements so the attachment conditions hold, and "cor3"
    additionally keeps only pieces with proper anchors and equal
    minimum/maximum minimal set sizes.  Both conditions need k >= 3, and
    ``max_order`` must hold k of the smallest pool pieces.  Piece budgets
    reserve no room for later pieces, so near that order every draw can
    dead-end; after ``_MAX_ATTEMPTS`` of them that raises ``IllegalParameter``.
    """
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) else random.Random(seed_or_rng)
    if condition not in (None, "thm2", "cor3"):
        raise IllegalParameter(f"unknown generator condition {condition!r}")
    k = integer(k, "k", 1)
    if condition is not None and k < 3:
        raise IllegalParameter(f"condition {condition!r} needs k >= 3, got {k}")
    # k pieces glued at k - 1 shared vertices, each of the smallest order
    max_order = integer(max_order, f"max_order of {k} pool pieces",
                        _MIN_PIECE + (k - 1) * (_MIN_PIECE - 1))
    for _ in range(_MAX_ATTEMPTS):
        dec = _try_random_decomposition(rng, k, max_order, condition)
        if dec is not None:
            return dec
    raise IllegalParameter(f"no decomposition of k={k} pieces within max_order={max_order} "
                           f"(condition {condition!r}) in {_MAX_ATTEMPTS} attempts")


@functools.cache
def _admissible_anchors(name: str, need: int) -> tuple[tuple[int, ...], ...]:
    """The anchor sets of ``need`` vertices on pool piece ``name`` that pass
    its attachment condition: C2 for an end (one anchor), C1 otherwise."""
    g = _POOL[name]
    check = check_C2 if need == 1 else check_C1
    return tuple(s for s in combinations(range(g.n), need) if check(g, s))


@functools.cache
def _minimal_sizes_agree(name: str) -> bool:
    """Whether pool piece ``name`` has equal minimum and maximum minimal
    fault-tolerant set sizes, the piece condition of strict ``cor3``."""
    g = _POOL[name]
    return fdim(g).value == fdim_plus(g).value


def _try_random_decomposition(
    rng: random.Random, k: int, max_order: int, condition: str | None
) -> Decomposition | None:
    """One draw, or None when it dead-ends.

    The order budget keeps the composite within ``max_order``.  A
    conditioned draw (k >= 3) meets every attachment check by construction:
    each piece's anchors come from ``_admissible_anchors``; a tree on k >= 2
    pieces has at least two leaves, which are the end pieces; and each
    anchor vertex joins one piece to one child, so two ends could share it
    only as the root and its single child, that is for k = 2.
    """
    names: list[str] = []
    total = 0
    for i in range(k):
        budget = max_order - total + (0 if i == 0 else 1)
        fits = [nm for nm in _POOL if _POOL[nm].n <= budget]
        if not fits:
            return None
        names.append(rng.choice(fits))
        total += _POOL[names[i]].n - (0 if i == 0 else 1)
    pieces = [_POOL[nm] for nm in names]

    children: list[list[int]] = [[] for _ in range(k)]
    for i in range(1, k):
        children[rng.randrange(i)].append(i)  # piece i's parent
    need = [len(children[i]) + (1 if i > 0 else 0) for i in range(k)]

    # Per piece, in stream order: the vertex identified with its parent (not
    # for piece 0), which takes the name the parent gave it, then one vertex
    # per child, named a{i}.{vertex} unless it is that same vertex.
    # Conditioned runs draw the whole anchor set from the subsets that pass
    # the piece's condition.
    name_for: dict[int, str] = {}  # child -> name of its attachment vertex
    spec = []
    for i, g in enumerate(pieces):
        if condition is None:
            drawn = [rng.randrange(g.n) for _ in range(need[i])]
        else:
            options = _admissible_anchors(names[i], need[i])
            if not options:
                return None
            drawn = list(rng.choice(options))
            rng.shuffle(drawn)
            drawn.reverse()
        amap: dict[int, str] = {}
        anchors = iter(drawn)
        if i > 0:
            amap[next(anchors)] = name_for[i]
        for c, local in zip(children[i], anchors):
            name_for[c] = amap.setdefault(local, f"a{i}.{local}")
        spec.append((g, amap))

    # Only after the last draw, so a rejected attempt consumes the same
    # draws whichever piece it rejects.
    if condition == "cor3":
        for i, piece in enumerate(pieces):
            if need[i] == piece.n or not _minimal_sizes_agree(names[i]):
                return None
    return point_attach(spec)


def decomposition_suite(
    seed: int,
    count: int,
    k_choices: Sequence[int],
    max_order: int,
    condition: str | None = None,
) -> list[Decomposition]:
    """A reproducible batch of random decompositions (one shared rng stream)."""
    count = integer(count, "count", 0)
    ks = [integer(k, "k_choices entry", 1) for k in k_choices]
    if not ks:
        raise IllegalParameter("k_choices must be non-empty")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        out.append(random_decomposition(rng, rng.choice(ks), max_order, condition))
    return out
