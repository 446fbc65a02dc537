"""
The quantum Bruhat graph on S_n: a weighted digraph with an edge
w -> w t_{ij} whenever the Coxeter length goes up by 1 (weight 1) or down
by 2(j-i)-1 (weight q_i ... q_{j-1}).

Weights live in additive exponent form: a monomial in q_1..q_{n-1} is the
tuple of its exponents, products are componentwise sums and divisibility
is componentwise <=.  Two independent routes to the minimal weight between
a pair of permutations are provided: breadth-first search on the built
graph (the oracle) and the closed-form prefix-depth formula, which needs
no graph at all.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    InternalInvariantError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
)
from .latticepath import depth
from .permcore import (
    Perm,
    Root,
    all_permutations,
    all_roots,
    apply_transposition,
    coxeter_length,
    format_permutation,
    is_reflection_ordering,
    parse_permutation,
    prefix_set,
    shifted_less,
)

QExponent = tuple[int, ...]

#: Largest n for which a full graph is built (5040 vertices, 56,196 edges).
MAX_GRAPH_N = 7


def zero_exponent(n: int) -> QExponent:
    return (0,) * (n - 1)


def exponent_add(a: QExponent, b: QExponent) -> QExponent:
    return tuple(x + y for x, y in zip(a, b))


def exponent_divides(a: QExponent, b: QExponent) -> bool:
    """Does q^a divide q^b, i.e. a <= b componentwise?"""
    return all(x <= y for x, y in zip(a, b))


def monomial_str(exps: QExponent) -> str:
    """
    Monomial text: "1" for the zero exponent, else "q{i}" factors joined
    by "*" with "^e" for e >= 2.

    >>> monomial_str((1, 1, 2, 2, 1, 1))
    'q1*q2*q3^2*q4^2*q5*q6'
    """
    parts = []
    for i, e in enumerate(exps, start=1):
        if e == 1:
            parts.append(f"q{i}")
        elif e >= 2:
            parts.append(f"q{i}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class QbgEdge:
    source: Perm
    target: Perm
    root: Root
    exps: QExponent


def edge_weight(w: Perm, t: Root) -> QExponent | None:
    """
    The exponent vector of the edge w -> w t, or None if there is no edge.
    Membership is decided by the length conditions: up edges raise the
    length by 1 and carry the zero exponent, down edges change it by
    1 - 2(j - i) and carry the indicator of positions i..j-1.

    >>> edge_weight((3, 2, 1), (1, 3))
    (1, 1)
    >>> edge_weight((2, 3, 1), (1, 3)) is None
    True
    """
    n = len(w)
    i, j = t
    delta = coxeter_length(apply_transposition(w, t)) - coxeter_length(w)
    if delta == 1:
        return zero_exponent(n)
    if delta == 1 - 2 * (j - i):
        return tuple(1 if i <= p <= j - 1 else 0 for p in range(1, n))
    return None


class QuantumBruhatGraph:
    """
    Immutable after construction.  Vertices are all of S_n in lexicographic
    order; adjacency is exposed both as tuples of QbgEdge and as an
    integer-indexed form for the batch drivers.
    """

    def __init__(self, n: int, edges: Sequence[QbgEdge]):
        self.n = n
        self.vertices: tuple[Perm, ...] = tuple(all_permutations(n))
        self.index: dict[Perm, int] = {w: i for i, w in enumerate(self.vertices)}
        out: list[list[QbgEdge]] = [[] for _ in self.vertices]
        inc: list[list[QbgEdge]] = [[] for _ in self.vertices]
        for e in edges:
            out[self.index[e.source]].append(e)
            inc[self.index[e.target]].append(e)
        self.out_edges: dict[Perm, tuple[QbgEdge, ...]] = {
            w: tuple(sorted(out[i], key=lambda e: e.target))
            for i, w in enumerate(self.vertices)
        }
        self.in_edges: dict[Perm, tuple[QbgEdge, ...]] = {
            w: tuple(sorted(inc[i], key=lambda e: e.source))
            for i, w in enumerate(self.vertices)
        }
        # index-form adjacency: (target_index, exps) sorted by target
        self.out_idx: list[tuple[tuple[int, QExponent], ...]] = [
            tuple((self.index[e.target], e.exps) for e in self.out_edges[w])
            for w in self.vertices
        ]
        self.in_idx: list[tuple[tuple[int, QExponent], ...]] = [
            tuple((self.index[e.source], e.exps) for e in self.in_edges[w])
            for w in self.vertices
        ]

    def edge_count(self) -> int:
        return sum(len(es) for es in self.out_edges.values())

    def all_edges(self) -> Iterator[QbgEdge]:
        for w in self.vertices:
            yield from self.out_edges[w]

    def distances_from(self, u: Perm) -> dict[Perm, int]:
        """Unweighted BFS distances from u to every vertex."""
        dist = self.distance_vector_from(u)
        return {w: dist[i] for i, w in enumerate(self.vertices)}

    def distances_to(self, v: Perm) -> dict[Perm, int]:
        """Unweighted BFS distances from every vertex to v."""
        dist = self.distance_vector_to(v)
        return {w: dist[i] for i, w in enumerate(self.vertices)}

    def distance_vector_from(self, u: Perm) -> list[int]:
        """BFS distances from u, indexed by vertex index."""
        return self._bfs(self.index[u], self.out_idx)

    def distance_vector_to(self, v: Perm) -> list[int]:
        """BFS distances to v, indexed by vertex index."""
        return self._bfs(self.index[v], self.in_idx)

    def _bfs(self, start: int, adjacency) -> list[int]:
        dist = [-1] * len(self.vertices)
        dist[start] = 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y, _ in adjacency[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist


def build_graph(n: int) -> QuantumBruhatGraph:
    """
    The full quantum Bruhat graph on S_n.

    >>> g = build_graph(3)
    >>> g.edge_count()
    15
    """
    if not 1 <= n <= MAX_GRAPH_N:
        raise ResourceLimitError(f"graph construction is bounded at n <= {MAX_GRAPH_N}")
    roots = all_roots(n)
    edges = []
    for w in all_permutations(n):
        for t in roots:
            exps = edge_weight(w, t)
            if exps is not None:
                edges.append(QbgEdge(w, apply_transposition(w, t), t, exps))
    return QuantumBruhatGraph(n, edges)


def _check_vertices(g: QuantumBruhatGraph, *perms: Perm) -> None:
    for w in perms:
        if w not in g.index:
            raise PreconditionError(f"{w} is not a vertex of the graph on S_{g.n}")


def oracle_distance(g: QuantumBruhatGraph, u: Perm, v: Perm) -> tuple[int, QExponent]:
    """
    Shortest-path length from u to v and the weight of one shortest path,
    found by BFS.  The representative path is the lexicographically least
    one (by successor one-line notation); all shortest paths share the same
    weight, which is tested separately rather than assumed here.
    """
    _check_vertices(g, u, v)
    dist_to_v = g.distances_to(v)
    length = dist_to_v[u]
    if length < 0:
        raise InternalInvariantError("graph is not strongly connected")
    exps = zero_exponent(g.n)
    w = u
    while w != v:
        step = next(
            e for e in g.out_edges[w] if dist_to_v[e.target] == dist_to_v[w] - 1
        )
        exps = exponent_add(exps, step.exps)
        w = step.target
    return length, exps


def formula_weight(u: Perm, v: Perm) -> QExponent:
    """
    The minimal-weight exponent vector, computed with no graph: coordinate
    k is the depth of the comparison path of the k-prefixes of u and v.

    >>> formula_weight((3, 2, 1), (2, 1, 3))
    (1, 1)
    """
    n = len(u)
    if len(v) != n:
        raise PreconditionError("permutations must have the same size")
    return tuple(
        depth(prefix_set(u, k), prefix_set(v, k), n) for k in range(1, n)
    )


def graph_distance(u: Perm, v: Perm) -> int:
    """
    Shortest-path length, graph-free: every path satisfies
    len = l(v) - l(u) + 2 deg(weight), and a minimal-weight path has
    exponent vector formula_weight(u, v).
    """
    return coxeter_length(v) - coxeter_length(u) + 2 * sum(formula_weight(u, v))


def shortest_path_weight_sets(
    g: QuantumBruhatGraph, u: Perm
) -> dict[Perm, frozenset[QExponent]]:
    """
    For every target v, the set of weights over ALL shortest u -> v paths,
    via dynamic programming over the BFS layers (a prefix of a shortest
    path is shortest, so the recursion is exact).
    """
    _check_vertices(g, u)
    dist = g.distances_from(u)
    order = sorted(g.vertices, key=lambda w: (dist[w], w))
    weights: dict[Perm, frozenset[QExponent]] = {u: frozenset([zero_exponent(g.n)])}
    for w in order:
        if w == u:
            continue
        acc: set[QExponent] = set()
        for e in g.in_edges[w]:
            if dist[e.source] == dist[w] - 1:
                acc.update(exponent_add(prev, e.exps) for prev in weights[e.source])
        weights[w] = frozenset(acc)
    return weights


def all_shortest_paths(
    g: QuantumBruhatGraph, u: Perm, v: Perm
) -> list[tuple[QbgEdge, ...]]:
    """Explicit enumeration of every shortest u -> v path (small cases)."""
    _check_vertices(g, u, v)
    dist_to_v = g.distances_to(v)
    paths: list[tuple[QbgEdge, ...]] = []

    def extend(w: Perm, acc: list[QbgEdge]) -> None:
        if w == v:
            paths.append(tuple(acc))
            return
        for e in g.out_edges[w]:
            if dist_to_v[e.target] == dist_to_v[w] - 1:
                acc.append(e)
                extend(e.target, acc)
                acc.pop()

    extend(u, [])
    return paths


def path_weight(path: Sequence[QbgEdge], n: int) -> QExponent:
    exps = zero_exponent(n)
    for e in path:
        exps = exponent_add(exps, e.exps)
    return exps


# ---------------------------------------------------------------------------
# The greedy minimal path


def bfp_greedy_path(u: Perm, v: Perm) -> list[QbgEdge]:
    """
    The unique path whose edge labels increase in the lexicographic
    reflection ordering e1-e2, e1-e3, ..., e1-en, e2-e3, ...

    Stage k fixes position k: starting from p = k, repeatedly swap position
    k with the smallest later position whose value beats the current one in
    the shifted order that declares v_k largest (minimum v_k + 1); position
    k inevitably ends up holding v_k.  The result has minimal length and
    weight, which the test suites check against the graph oracle.
    """
    n = len(u)
    if len(v) != n:
        raise PreconditionError("permutations must have the same size")
    w = u
    edges: list[QbgEdge] = []
    for k in range(1, n + 1):
        target = v[k - 1]
        base = target % n + 1  # shifted order with target on top
        prev = k
        while w[k - 1] != target:
            p = next(
                (
                    p
                    for p in range(prev + 1, n + 1)
                    if shifted_less(base, w[k - 1], w[p - 1], n)
                ),
                None,
            )
            if p is None:
                raise InternalInvariantError("greedy stage ran out of positions")
            exps = edge_weight(w, (k, p))
            if exps is None:
                raise InternalInvariantError(
                    f"greedy step {format_permutation(w)} x t_{{{k},{p}}} is not an edge"
                )
            nxt = apply_transposition(w, (k, p))
            edges.append(QbgEdge(w, nxt, (k, p), exps))
            w = nxt
            prev = p
    return edges


# ---------------------------------------------------------------------------
# Label-increasing paths


def increasing_paths(
    g: QuantumBruhatGraph, u: Perm, v: Perm, ordering: Sequence[Root]
) -> list[tuple[QbgEdge, ...]]:
    """
    Every directed u -> v path whose label sequence strictly increases in
    the given reflection ordering.  Exactly one such path is predicted for
    each pair; returning them all keeps the uniqueness testable.
    """
    found = increasing_paths_from(g, u, ordering)
    return found.get(v, [])


def increasing_paths_from(
    g: QuantumBruhatGraph, u: Perm, ordering: Sequence[Root]
) -> dict[Perm, list[tuple[QbgEdge, ...]]]:
    """All label-increasing paths out of u, grouped by endpoint."""
    _check_vertices(g, u)
    if not is_reflection_ordering(tuple(ordering), g.n):
        raise PreconditionError("ordering is not a valid reflection ordering")
    position = {root: i for i, root in enumerate(ordering)}
    found: dict[Perm, list[tuple[QbgEdge, ...]]] = {}
    acc: list[QbgEdge] = []

    def extend(w: Perm, floor: int) -> None:
        found.setdefault(w, []).append(tuple(acc))
        for e in g.out_edges[w]:
            pos = position[e.root]
            if pos > floor:
                acc.append(e)
                extend(e.target, pos)
                acc.pop()

    extend(u, -1)
    return found


# ---------------------------------------------------------------------------
# Export formats


def export_graph(g: QuantumBruhatGraph, fmt: str) -> str:
    """
    DOT: one node per permutation (one-line label) and a "weight" edge
    attribute holding the monomial text.  JSON: schema documented in the
    README ({"n", "vertices", "edges": [{"source","target","root","exps"}]}).
    """
    if fmt == "dot":
        lines = ["digraph qbg {"]
        for w in g.vertices:
            lines.append(f'  "{format_permutation(w)}";')
        for e in g.all_edges():
            lines.append(
                f'  "{format_permutation(e.source)}" -> '
                f'"{format_permutation(e.target)}" '
                f'[weight="{monomial_str(e.exps)}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "n": g.n,
            "vertices": [format_permutation(w) for w in g.vertices],
            "edges": [
                {
                    "source": format_permutation(e.source),
                    "target": format_permutation(e.target),
                    "root": list(e.root),
                    "exps": list(e.exps),
                }
                for e in g.all_edges()
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise PreconditionError(f"unknown format {fmt!r} (expected dot or json)")


def graph_from_json(text: str) -> QuantumBruhatGraph:
    """Reader for the JSON export; round-trips build_graph output."""
    try:
        payload = json.loads(text)
        n = payload["n"]
        edges = [
            QbgEdge(
                parse_permutation(item["source"]),
                parse_permutation(item["target"]),
                tuple(item["root"]),
                tuple(item["exps"]),
            )
            for item in payload["edges"]
        ]
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed graph JSON: {exc}") from exc
    return QuantumBruhatGraph(n, edges)
