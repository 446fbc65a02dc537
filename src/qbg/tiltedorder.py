"""
Tilted Bruhat order: w <=_u v when w lies on a shortest u -> v path in the
quantum Bruhat graph, i.e. l(u,w) + l(w,v) = l(u,v).  Intervals [u,v] do
not depend on the base point, so the subscript is dropped.

Membership in [u,v] has two independent routes: the length identity on the
built graph, and the prefix criteria (for one shift sequence / for all
shift sequences), which need no graph.  The equivalence of the routes is a
theorem and is exercised by the test suites, so the two implementations
are deliberately kept apart.

The exists_shift criterion reads only the prefix sets {w_1..w_k}, so per
pair it is a set of admissible nodes of the lattice of subsets of [n],
read off `latticepath._pair_table`; [u, v] is the set of chains from the
empty set to [n] through them.  `interval_nodes` keeps the nodes on such a
chain, an int that names [u, v]; `interval_member_set` walks them, not S_n.
"""
from __future__ import annotations

import json
from functools import lru_cache
from typing import NamedTuple

from .errors import InternalInvariantError, PreconditionError, ResourceLimitError
from .latticepath import _check_perms, _gale_leq, _pair_table, _prefix_masks, _prefix_paths
from .permcore import Perm, format_permutation
from .qbgraph import MAX_GRAPH_N, QbgEdge, QuantumBruhatGraph, edge_dot, edge_record
from .qbgraph import _bfs, _check_format, _check_vertices, _geodesic_marks, _json_list, _Monomials


def tilted_leq(base: Perm, w: Perm, v: Perm, g: QuantumBruhatGraph) -> bool:
    """w <=_base v via the length identity (criterion on the graph)."""
    dist_from_base = g.distance_vector_from(base)
    dist_from_w = g.distance_vector_from(w)
    _check_vertices(g, v)
    i_w, i_v = g.index[w], g.index[v]
    if min(dist_from_base[i_w], dist_from_w[i_v], dist_from_base[i_v]) < 0:
        raise InternalInvariantError("graph is not strongly connected")
    return dist_from_base[i_w] + dist_from_w[i_v] == dist_from_base[i_v]


def interval_members_criterion(u: Perm, v: Perm, w: Perm, mode: str) -> bool:
    """
    Graph-free membership tests for w in [u, v].

    mode="exists_shift": some per-column shift puts the k-prefix of w
    between those of u and v, for every k.  mode="all_shifts": every shift
    valid for (u, v) in column k does.
    """
    if mode not in ("exists_shift", "all_shifts"):
        raise PreconditionError(f"unknown mode {mode!r} (expected exists_shift or all_shifts)")
    u, v, w = _check_perms(u, v, w)
    if mode == "exists_shift":
        return all(
            below & above
            for (_, below), (_, above) in zip(_prefix_paths(u, w), _prefix_paths(w, v))
        )
    n = len(u)
    for k, (_, shifts) in enumerate(_prefix_paths(u, v), start=1):
        uk, vk, wk = u[:k], v[:k], w[:k]
        for r in shifts:
            if not (_gale_leq(uk, wk, r, n) and _gale_leq(wk, vk, r, n)):
                return False
    return True


# one entry per (u, v) pair; at n = 7 an entry is a 128-bit int
@lru_cache(maxsize=4096)
def admissible_nodes(u: Perm, v: Perm) -> int:
    """
    The value sets S that pass the exists_shift test of column |S| against
    (u, v): the paths of (u[k], S) and (S, v[k]) share a valid shift, with
    u[k], v[k] the k-prefix sets.  Returned as a set of nodes, bit
    value_mask(S) set for each such S; the empty set and [n] always pass.
    Since the test reads only the prefix sets, [u, v] is exactly the set of
    w whose chain of prefix sets runs through these nodes.  Each node costs
    two reads of the pair table, made once n <= MAX_GRAPH_N is checked.
    """
    u, v = _check_perms(u, v)
    n = len(u)
    if n > MAX_GRAPH_N:
        raise ResourceLimitError(f"interval enumeration is bounded at n <= {MAX_GRAPH_N}")
    paths, _ = _pair_table(n)
    below, above = [0, *(A << n for A in _prefix_masks(u))], [0, *_prefix_masks(v)]
    full = (1 << n) - 1
    nodes = 1 | 1 << full
    for S in range(1, full):
        k = S.bit_count()
        if paths[below[k] | S] & paths[S << n | above[k]]:
            nodes |= 1 << S
    return nodes


def interval_nodes(u: Perm, v: Perm) -> int:
    """
    The admissible nodes of (u, v) on a chain from the empty set to [n]:
    kept going forward when some S - r is, then back when some S + r is,
    each pass shifting the whole node mask by every r until it stops
    growing.  [u, v] is the set of chains through them, so one int names
    [u, v]: two pairs share their node set exactly when they share their
    member set.
    """
    nodes, n = admissible_nodes(u, v), len(u)
    full = (1 << n) - 1
    every = (2 << full) - 1
    # for each value bit b, the nodes S without it: runs of b set bits, b clear
    lacks = [(b, every // ((1 << 2 * b) - 1) * ((1 << b) - 1)) for b in (1 << r for r in range(n))]
    ahead, last = 1, 0
    while ahead != last:
        last = ahead
        for b, lack in lacks:
            ahead |= nodes & (ahead & lack) << b
    kept, last = 1 << full, 0
    while kept != last:
        last = kept
        for b, lack in lacks:
            kept |= ahead & kept >> b & lack
    return kept


# an entry is a set of up to n! permutations.  `stratify` looks up 161 at
# n = 4 (47 hits), 346 at n = 5 (27 hits) and 1,436 at n = 6 (24 hits, 512
# kept); it names and compares strata by `interval_nodes`
@lru_cache(maxsize=512)
def interval_member_set(u: Perm, v: Perm) -> frozenset[Perm]:
    """
    All of [u, v], graph-free: the chains through `interval_nodes`, which
    reach no dead end, one value added per step, read as words (in
    lexicographic order).  Bounded like the graph: n <= MAX_GRAPH_N.
    """
    nodes, n = interval_nodes(u, v), len(u)
    words: list[tuple[Perm, int]] = [((), 0)]  # (word, its value set)
    for _ in range(n):
        words = [((*w, x), T) for w, S in words for x in range(1, n + 1)
                 if (T := S | 1 << (x - 1)) != S and nodes >> T & 1]
    return frozenset(w for w, _ in words)


class TiltedInterval(NamedTuple):
    bottom: Perm
    top: Perm
    members: frozenset[Perm]
    rank: dict[Perm, int]

    @property
    def length(self) -> int:
        return self.rank[self.top]


def interval(u: Perm, v: Perm, g: QuantumBruhatGraph) -> TiltedInterval:
    """[u, v] computed from the graph, with rank(w) = l(u, w): the vertices
    on a shortest u -> v walk, read off one BFS from u that stops once v
    is reached."""
    _check_vertices(g, u, v)
    end = g.index[v]
    dist_from_u = _bfs(g, g.index[u], end)
    on_walk = _geodesic_marks(g, dist_from_u, end)
    rank = {w: d for w, d, on in zip(g.vertices, dist_from_u, on_walk) if on}
    return TiltedInterval(u, v, frozenset(rank), rank)


def cover_edges(g: QuantumBruhatGraph, rank: dict[Perm, int]) -> list[QbgEdge]:
    """
    Cover relations of a ranked set of vertices: the graph edges from a
    ranked vertex to a ranked vertex one rank higher, in (source, target)
    order.  Linear in the edges leaving the ranked vertices.
    """
    vertices = g.vertices
    edges = []
    for source in sorted(rank):
        above = rank[source] + 1
        for j, root, exps in g.out_adj[g.index[source]]:
            target = vertices[j]
            if rank.get(target) == above:
                edges.append(QbgEdge(source, target, root, exps))
    return edges


def hasse_export(ti: TiltedInterval, g: QuantumBruhatGraph, fmt: str) -> str:
    """DOT (rank-grouped) or JSON rendering of the interval's diagram in g.
    Each label and each distinct monomial is formatted once, and the
    members are grouped by rank in one pass."""
    _check_format(fmt)
    edges = cover_edges(g, ti.rank)
    members = sorted(ti.members)
    labels = {w: format_permutation(w) for w in members}
    if fmt == "dot":
        by_rank: list[list[str]] = [[] for _ in range(ti.length + 1)]
        for w in members:
            by_rank[ti.rank[w]].append(f'"{labels[w]}";')
        weights = _Monomials()
        lines = ["digraph hasse {", "  rankdir=BT;",
                 *(f"  {{ rank=same; {' '.join(names)} }}" for names in by_rank),
                 *(edge_dot(labels[e.source], labels[e.target], weights[e.exps]) for e in edges),
                 "}"]
        return "\n".join(lines) + "\n"
    quoted = {w: json.dumps(labels[w]) for w in members}
    ranks = [f'    {{\n      "perm": {quoted[w]},\n      "rank": {ti.rank[w]}\n    }}'
             for w in members]
    records = [edge_record(quoted[e.source], quoted[e.target], e.root, e.exps) for e in edges]
    return (f'{{\n  "bottom": {quoted[ti.bottom]},\n  "edges": {_json_list(records)},\n'
            f'  "length": {ti.length},\n  "members": {_json_list(ranks)},\n'
            f'  "top": {quoted[ti.top]}\n}}\n')
