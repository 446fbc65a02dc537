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

The Hasse diagram export is written by `qbgraph._edge_chunks`, which holds
the DOT and JSON formats alone, one piece per cover row (`_cover_rows`).
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .errors import InternalInvariantError, PreconditionError, ResourceLimitError
from .latticepath import _check_perms, _gale_leq, _pair_table, _prefix_masks, _prefix_paths
from .permcore import Perm, format_permutation
from .qbgraph import MAX_GRAPH_N, QuantumBruhatGraph, Row, _bfs, _check_format
from .qbgraph import _check_vertices, _edge_chunks, _geodesic_marks, _json_items


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


def _cover_rows(g: QuantumBruhatGraph, rank: dict[Perm, int]) -> Iterator[tuple[int, Row]]:
    """Cover relations of a ranked set of vertices: per ranked vertex, in
    vertex order, its index and its row's edges into a ranked vertex one
    rank higher.  Each row is read when its pair is taken."""
    vertices, index = g.vertices, g.index
    for source in sorted(rank):
        above, x = rank[source] + 1, index[source]
        yield x, tuple(e for e in g.out_adj[x] if rank.get(vertices[e[0]]) == above)


def hasse_export(ti: TiltedInterval, g: QuantumBruhatGraph, fmt: str) -> str:
    """DOT (rank-grouped) or JSON text of the interval's diagram in g."""
    _check_format(fmt)
    return "".join(_hasse_chunks(ti, g, fmt))


def _hasse_chunks(ti: TiltedInterval, g: QuantumBruhatGraph, fmt: str) -> Iterator[str]:
    """`hasse_export` in pieces (`fmt` unchecked): `_edge_chunks` over the
    cover rows, with the members by rank in the DOT header and the member
    list in the JSON footer.  Each label is formatted once."""
    members = sorted(ti.members)
    quoted = {g.index[w]: f'"{format_permutation(w)}"' for w in members}
    if fmt == "dot":
        by_rank: list[list[str]] = [[] for _ in range(ti.length + 1)]
        for w, name in zip(members, quoted.values()):
            by_rank[ti.rank[w]].append(f"{name};")
        head = "".join(["digraph hasse {\n  rankdir=BT;\n",
                        *(f"  {{ rank=same; {' '.join(line)} }}\n" for line in by_rank)])
        tail = "}\n"
    else:
        ranks = "".join(_json_items(
            f'    {{\n      "perm": {name},\n      "rank": {ti.rank[w]}\n    }}'
            for w, name in zip(members, quoted.values())))
        head = f'{{\n  "bottom": {quoted[g.index[ti.bottom]]},\n  "edges": '
        tail = (f',\n  "length": {ti.length},\n  "members": {ranks},\n'
                f'  "top": {quoted[g.index[ti.top]]}\n}}\n')
    yield from _edge_chunks(head, quoted, _cover_rows(g, ti.rank), tail, fmt)
