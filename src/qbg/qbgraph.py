"""
The quantum Bruhat graph on S_n: a weighted digraph with an edge
w -> w t_{ij} whenever the Coxeter length goes up by 1 (weight 1) or down
by 2(j-i)-1 (weight q_i ... q_{j-1}).

Weights live in additive exponent form: a monomial in q_1..q_{n-1} is the
tuple of its exponents, products are componentwise sums and divisibility
is componentwise <=.  Two independent routes to the minimal weight between
a pair of permutations are provided: breadth-first search on the built
graph (the oracle) and the closed-form prefix-depth formula, which needs
no graph at all.  The graph stores each edge once, and every question
about shortest u -> v walks (the oracle, intervals, weight sets) reads one
BFS from u; the weight sets take it from their caller.  `build_graph`
scans each row when it is first read, and the oracle and intervals stop
that BFS once v is reached, so they scan only the rows of vertices nearer
to u than v.

The edge set is derived twice, by code that shares nothing: `_edge_exps`
applies the length rule to one root, and `_out_edges`, one scan per
position, writes one vertex's finished adjacency row of neighbour
indices; the tests pin the two against each other.

The export formats live here alone, in one generator, `_edge_chunks`, one
piece per row, which the graph (`_export_chunks`) and Hasse diagram
(`tiltedorder._hasse_chunks`) exports call.  A pass over the rows keeps
none it scans, so the `graph` command, which exports a fresh graph,
holds one row at a time (a traced peak under 2 MB at n = 7, in both
formats).

Label-increasing paths (Brenti-Fomin-Postnikov: one per pair and
reflection ordering, a shortest one) are enumerated, not assumed unique:
`increasing_path_lengths` labels the rows once per ordering and keeps each
path as its length, per source and endpoint.
"""
from __future__ import annotations

import json
from collections import deque
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InternalInvariantError, ParseError, PreconditionError, ResourceLimitError
from .latticepath import _check_perms, prefix_paths
from .permcore import (
    Perm, Root, _check_root, _excerpt, all_permutations, all_roots, apply_transposition,
    coxeter_length, format_permutation, is_reflection_ordering, parse_permutation,
    validate_permutation,
)

QExponent = tuple[int, ...]
#: One vertex's out-edges as (neighbour index, root, exps), sorted by neighbour.
Row = tuple[tuple[int, Root, QExponent], ...]
Adjacency = tuple[Row, ...]

#: Largest n for which a full graph is built (5040 vertices, 56,196 edges).
MAX_GRAPH_N = 7

_neighbour = itemgetter(0)  # of an out-edge (neighbour index, root, exps)


def zero_exponent(n: int) -> QExponent:
    return (0,) * (n - 1)


def exponent_add(a: QExponent, b: QExponent) -> QExponent:
    return tuple(x + y for x, y in zip(a, b))


def exponent_divides(a: QExponent, b: QExponent) -> bool:
    """Does q^a divide q^b, i.e. a <= b componentwise?"""
    return all(x <= y for x, y in zip(a, b))


def _pack(exps: QExponent) -> int:
    """The exponents as one int, 16 bits per coordinate, so that adding two
    packed weights adds their exponents while no coordinate reaches 2^16."""
    return sum(e << 16 * p for p, e in enumerate(exps))


def _unpack(packed: int, n: int) -> QExponent:
    return tuple(packed >> 16 * p & 0xFFFF for p in range(n - 1))


def monomial_str(exps: QExponent) -> str:
    """
    Monomial text: "1" for the zero exponent, else "q{i}" factors joined
    by "*" with "^e" for e >= 2.

    >>> monomial_str((1, 1, 2, 2, 1, 1))
    'q1*q2*q3^2*q4^2*q5*q6'
    """
    parts = [f"q{i}" if e == 1 else f"q{i}^{e}" for i, e in enumerate(exps, start=1) if e > 0]
    return "*".join(parts) or "1"


class QbgEdge(NamedTuple):
    source: Perm
    target: Perm
    root: Root
    exps: QExponent


def edge_weight(w: Perm, t: Root) -> QExponent | None:
    """
    The exponent vector of the edge w -> w t, or None if there is no edge.
    Membership is decided by the length conditions: up edges raise the
    length by 1 and carry the zero exponent, down edges change it by
    1 - 2(j - i) and carry the indicator of positions i..j-1.  The change
    is counted directly: with m values strictly between w_i and w_j at
    positions strictly between i and j, swapping w_i < w_j adds 2m + 1
    inversions and swapping w_i > w_j removes as many.

    >>> edge_weight((3, 2, 1), (1, 3))
    (1, 1)
    >>> edge_weight((2, 3, 1), (1, 3)) is None
    True
    """
    n = len(validate_permutation(w))
    return _edge_exps(w, _check_root(t, n), n)


def _edge_exps(w: Perm, t: Root, n: int) -> QExponent | None:
    """`edge_weight(w, t)` unchecked: w a permutation of [n] and t a root of S_n."""
    i, j = t
    a, b = w[i - 1], w[j - 1]
    lo, hi = min(a, b), max(a, b)
    m = sum(1 for x in w[i:j - 1] if lo < x < hi)
    zero, roots = _root_exps(n)
    if a < b:
        return zero if m == 0 else None
    if m == j - i - 1:
        return roots[i - 1][j - 1][1]
    return None


# one entry per n, of C(n, 2) tuples of n - 1 ints
@lru_cache(maxsize=8)
def _root_exps(n: int) -> tuple[QExponent, tuple[tuple, ...]]:
    """The exponent tuples of S_n's edges, one object each: the zero tuple of
    up edges, and at [i - 1][j - 1] the root (i, j) with the indicator of
    positions i..j-1 that its down edges carry."""
    rows: list[list] = [[None] * n for _ in range(n)]
    for i, j in all_roots(n):
        rows[i - 1][j - 1] = ((i, j), tuple(1 if i <= p < j else 0 for p in range(1, n)))
    return zero_exponent(n), tuple(map(tuple, rows))


def _out_edges(w: Perm, n: int, index: Mapping[Perm, int]) -> Row:
    """The adjacency row of w: every edge w -> w t as (index[w t], t, exps),
    sorted by neighbour index, with no length count.  For each position i,
    one walk over j = i+1..n keeps the least value above w_i so far (n + 1
    before any) and the least value so far (w_i before any).  (i, j) is an
    up edge when w_i < w_j < that least value above, and a down edge when no
    value above w_i came before and w_j < the least value."""
    zero, roots = _root_exps(n)
    word = list(w)
    out = []
    for i, a in enumerate(w):
        above, least, row = n + 1, a, roots[i]
        for j in range(i + 1, n):
            b = w[j]
            if a < b < above:
                above, exps = b, zero
            elif above > n and b < least:
                least, exps = b, row[j][1]
            else:
                continue
            word[i], word[j] = b, a
            out.append((index[tuple(word)], row[j][0], exps))
            word[i], word[j] = a, b
    out.sort()  # the neighbours are distinct, so only they are compared
    return tuple(out)


class _Rows(dict):
    """
    The `out_adj` of `build_graph`: row x is `_out_edges(vertices[x], n,
    index)`, scanned and stored when x is first indexed.  A row is a pure
    function of x, so two threads that fill one row write equal tuples.
    Iterating yields every row in index order, a stored row as it is and
    any other scanned and not stored, so a full pass reads each row once
    and keeps none it scanned.  It holds the graph's vertices and index,
    never the graph: a reference back would make a cycle, and each graph
    would then wait for the cyclic garbage collector.
    """
    __slots__ = ("_vertices", "_n", "_index")

    def __init__(self, vertices: tuple[Perm, ...], n: int, index: dict[Perm, int]):
        super().__init__()
        self._vertices, self._n, self._index = vertices, n, index

    def __missing__(self, x: int) -> Row:
        row = self[x] = _out_edges(self._vertices[x], self._n, self._index)
        return row

    def __iter__(self) -> Iterator[Row]:
        n, index, stored = self._n, self._index, self.get
        for x, w in enumerate(self._vertices):
            row = stored(x)
            yield _out_edges(w, n, index) if row is None else row


class QuantumBruhatGraph:
    """
    Immutable after construction, apart from rows filled on first read.
    Vertices are all of S_n in lexicographic order and `index` maps each to
    its position.  Adjacency is one index array: out_adj[i] holds
    (j, root, exps) for every edge i -> j, sorted by neighbour index;
    `_geodesic_marks` finds shortest walks on it.  QbgEdge values are made
    only on demand (all_edges).  The graph on S_n is `build_graph`'s, whose
    rows are scanned when read; this constructor takes any edge list on
    S_n, n in 1..MAX_GRAPH_N, holds its rows in a tuple, and keeps repeated
    targets in their given order.
    """

    def __init__(self, n: int, edges: Iterable[tuple[Perm, Perm, Root, QExponent]]):
        self.n = n
        self.vertices, self.index = vertices, index = _vertex_index(n)
        out: list[list] = [[] for _ in vertices]
        for edge in edges:
            try:
                source, target, root, exps = edge
                out[index[source]].append((index[target], root, exps))
            # ValueError: not four fields; TypeError: unhashable, e.g. a list
            except (KeyError, TypeError, ValueError):
                raise PreconditionError(f"{_excerpt(repr(edge))} is not an edge (source, target, "
                                        f"root, exps) between vertices of S_{n}") from None
        self.out_adj: Adjacency = tuple(tuple(sorted(r, key=itemgetter(0))) for r in out)

    def edge_count(self) -> int:
        return sum(len(row) for row in self.out_adj)

    def all_edges(self) -> Iterator[QbgEdge]:
        """Every edge, in (source, target) order."""
        vertices = self.vertices
        for source, row in zip(vertices, self.out_adj):
            for j, root, exps in row:
                yield QbgEdge(source, vertices[j], root, exps)

    def distance_vector_from(self, u: Perm) -> list[int]:
        """BFS distances from u, indexed by vertex index (-1: unreachable)."""
        _check_vertices(self, u)
        return _bfs(self, self.index[u])


def build_graph(n: int) -> QuantumBruhatGraph:
    """
    The quantum Bruhat graph on S_n, n checked before any vertex is listed.
    Its rows (`_Rows`) are scanned by `_out_edges` when read, each already
    sorted by neighbour index; a query from u to v reads only the rows
    nearer to u than v.  Edges share one object per root and per distinct
    exponent tuple (at most C(n,2) + 1 of them), those of `_root_exps(n)`.

    >>> g = build_graph(3)
    >>> g.edge_count()
    15
    """
    g = QuantumBruhatGraph.__new__(QuantumBruhatGraph)
    g.n = n
    g.vertices, g.index = _vertex_index(n)
    g.out_adj = _Rows(g.vertices, n, g.index)
    return g


def _vertex_index(n: int) -> tuple[tuple[Perm, ...], dict[Perm, int]]:
    """Check n, then list S_n in lexicographic order and map each vertex to
    its position: the setup of every graph."""
    _check_graph_n(n)
    vertices = tuple(all_permutations(n))
    return vertices, {w: i for i, w in enumerate(vertices)}


def _check_graph_n(n: int) -> None:
    if n < 1:
        raise PreconditionError(f"graphs are built for n >= 1, got n = {n}")
    if n > MAX_GRAPH_N:
        raise ResourceLimitError(f"graph construction is bounded at n <= {MAX_GRAPH_N}")


def _check_vertices(g: QuantumBruhatGraph, *perms: Perm) -> None:
    for w in perms:
        try:
            g.index[w]
        except (KeyError, TypeError):  # TypeError: unhashable, e.g. a list
            raise PreconditionError(f"{w} is not a vertex of the graph on S_{g.n}") from None


def _bfs(g: QuantumBruhatGraph, start: int, end: int | None = None) -> list[int]:
    """
    BFS distances from vertex index `start`, indexed by vertex index (-1:
    not reached).  With an `end`, the search stops as soon as `end` is
    reached.  Every layer nearer than `end`'s is complete by then, and
    those are all that `_geodesic_marks` reads, so the rows of vertices at
    `end`'s distance or beyond are never read.  An unreachable `end` is
    left at -1.
    """
    rows = g.out_adj
    dist = [-1] * len(g.vertices)
    dist[start] = 0
    if start == end:
        return dist
    queue = deque([start])
    while queue:
        x = queue.popleft()
        step = dist[x] + 1
        for y, _, _ in rows[x]:
            if dist[y] < 0:
                dist[y] = step
                if y == end:
                    return dist
                queue.append(y)
    return dist


def _geodesic_marks(g: QuantumBruhatGraph, dist: list[int], end: int) -> list[bool]:
    """
    Which vertices lie on a shortest walk from the source to vertex index
    `end`, given the source's BFS distances `dist`, complete at least for
    every vertex nearer than `end`.  Worked back from the far end over
    out-edges, one BFS layer at a time: x is marked when an out-neighbour
    is among the marked vertices one layer further from the source.
    """
    total = dist[end]
    if total < 0:
        raise InternalInvariantError("graph is not strongly connected")
    layers: list[list[int]] = [[] for _ in range(total)]
    for x, d in enumerate(dist):
        if 0 <= d < total:
            layers[d].append(x)
    marks = [False] * len(dist)
    marks[end] = True
    rows, ahead = g.out_adj, {end}
    for layer in reversed(layers):
        ahead = {x for x in layer if not ahead.isdisjoint(map(_neighbour, rows[x]))}
        for x in ahead:
            marks[x] = True
    return marks


def oracle_distance(g: QuantumBruhatGraph, u: Perm, v: Perm) -> tuple[int, QExponent]:
    """
    Shortest-path length from u to v and the weight of one shortest path,
    found by BFS.  The representative path is the lexicographically least
    one (by successor one-line notation): each step takes the first
    out-neighbour one step further from u that is on a shortest walk to v.
    All shortest paths share one weight, tested separately, not assumed.
    The BFS stops once v is reached.
    """
    _check_vertices(g, u, v)
    end = g.index[v]
    dist = _bfs(g, g.index[u], end)
    marks = _geodesic_marks(g, dist, end)
    length = dist[end]
    exps = zero_exponent(g.n)
    x = g.index[u]
    for step in range(1, length + 1):
        x, _, e = next(e for e in g.out_adj[x] if marks[e[0]] and dist[e[0]] == step)
        exps = exponent_add(exps, e)
    return length, exps


def formula_weight(u: Perm, v: Perm) -> QExponent:
    """
    The minimal-weight exponent vector, computed with no graph: coordinate
    k is the depth of the comparison path of the k-prefixes of u and v.

    >>> formula_weight((3, 2, 1), (2, 1, 3))
    (1, 1)
    """
    return tuple(d for d, _ in prefix_paths(u, v))


def graph_distance(u: Perm, v: Perm) -> int:
    """
    Shortest-path length, graph-free: every path satisfies
    len = l(v) - l(u) + 2 deg(weight), and a minimal-weight path has
    exponent vector formula_weight(u, v).
    """
    return coxeter_length(v) - coxeter_length(u) + 2 * sum(formula_weight(u, v))


def shortest_path_weight_sets(g: QuantumBruhatGraph, dist: list[int]) -> list[frozenset[QExponent]]:
    """
    Per vertex index, the weights of ALL shortest walks from the source with
    BFS distances `dist` (empty if unreachable), pushed along out-edges that
    step one layer further (exact: prefixes of shortest walks are shortest).

    >>> g = build_graph(3)
    >>> shortest_path_weight_sets(g, g.distance_vector_from((3, 2, 1)))[g.index[(2, 1, 3)]]
    frozenset({(1, 1)})
    """
    # weights packed inside the walk: a shortest walk is shorter than |S_n|
    # steps and raises each coordinate by at most 1 per step
    steps: dict[QExponent, int] = {}
    weights: list[set[int]] = [set() for _ in dist]
    weights[dist.index(0)].add(0)
    for x in sorted(range(len(dist)), key=dist.__getitem__):  # stable: ties by index
        for y, _, exps in g.out_adj[x]:
            if dist[y] == dist[x] + 1:
                if exps not in steps:
                    steps[exps] = _pack(exps)
                step = steps[exps]
                weights[y].update([prev + step for prev in weights[x]])
    unpacked = {packed: _unpack(packed, g.n) for packed in set().union(*weights)}
    return [frozenset([unpacked[packed] for packed in row]) for row in weights]


# ---------------------------------------------------------------------------
# The greedy minimal path


def _greedy_stage(word: list[int], k: int, target: int, n: int) -> list[tuple[int, QExponent]]:
    """
    Stage k of `bfp_greedy_path`, in place on `word` (a permutation of [n]
    as a list): starting from p = k, repeatedly swap position k with the
    smallest later position whose value beats the current one in the
    shifted order that declares `target` largest (minimum target + 1),
    until position k holds `target`.  Returns (p, exps) for each step
    t_{k,p}, its weight by the length rule of `_edge_exps`.
    """
    base = target % n + 1
    steps: list[tuple[int, QExponent]] = []
    p = k
    while word[k - 1] != target:
        # x has rank (x - base) % n in the shifted order with minimum base
        rank = (word[k - 1] - base) % n
        p = next((q for q in range(p + 1, n + 1) if (word[q - 1] - base) % n > rank), None)
        if p is None:
            raise InternalInvariantError("greedy stage ran out of positions")
        exps = _edge_exps(word, (k, p), n)
        if exps is None:
            raise InternalInvariantError(
                f"greedy step {format_permutation(tuple(word))} x t_{{{k},{p}}} is not an edge"
            )
        steps.append((p, exps))
        word[k - 1], word[p - 1] = word[p - 1], word[k - 1]
    return steps


def bfp_greedy_path(u: Perm, v: Perm) -> list[QbgEdge]:
    """
    The unique path whose edge labels increase in the lexicographic
    reflection ordering e1-e2, e1-e3, ..., e1-en, e2-e3, ...

    Stage k (`_greedy_stage`) fixes position k, which inevitably ends up
    holding v_k.  The result has minimal length and weight, which the test
    suites check against the graph oracle.
    """
    u, v = _check_perms(u, v)
    n = len(u)
    word, w = list(u), u
    edges: list[QbgEdge] = []
    for k, target in enumerate(v, start=1):
        for p, exps in _greedy_stage(word, k, target, n):
            t = (k, p)
            edges.append(QbgEdge(w, apply_transposition(w, t), t, exps))
            w = edges[-1].target
    return edges


# ---------------------------------------------------------------------------
# Label-increasing paths


def increasing_path_lengths(g: QuantumBruhatGraph,
                            ordering: Sequence[Root]) -> Iterator[list[list[int]]]:
    """
    Per source, in vertex order, a list indexed by endpoint of the lengths
    of all paths between them whose labels strictly increase in the given
    reflection ordering, one entry per path; one entry, the distance, is
    predicted.  The ordering is checked when called, and the sources are
    then walked lazily, one at a time.
    """
    if not is_reflection_ordering(tuple(ordering), g.n):
        raise PreconditionError("ordering is not a valid reflection ordering")
    position = {root: i for i, root in enumerate(ordering)}
    # each row as (label position, neighbour index), highest label first
    rows = [sorted([(position[root], x) for x, root, _ in row], reverse=True) for row in g.out_adj]
    return (_increasing_lengths(rows, source) for source in range(len(rows)))


def _increasing_lengths(rows: list[list[tuple[int, int]]], source: int) -> list[list[int]]:
    """One source of `increasing_path_lengths`: a path may leave w by the
    edges labelled above its last label, a prefix of w's row."""
    lengths: list[list[int]] = [[] for _ in rows]
    # the stack of paths still to extend, as three int stacks: no tuple per path
    ends, floors, steps = [source], [-1], [0]
    while ends:
        w, floor, length = ends.pop(), floors.pop(), steps.pop()
        lengths[w].append(length)
        length += 1
        for pos, x in rows[w]:
            if pos <= floor:
                break
            ends.append(x)
            floors.append(pos)
            steps.append(length)
    return lengths


# ---------------------------------------------------------------------------
# Export formats


# The JSON exports are written as text, byte for byte what
# json.dumps(payload, indent=2, sort_keys=True) writes, whose encoder runs
# in pure Python when indenting.  A one-line label holds only digits and
# commas, so its JSON string literal is its quoted DOT name "label".


@lru_cache(maxsize=256)
def _json_ints(values: tuple[int, ...]) -> str:
    """A list of ints as the value of a field of an edge record."""
    return "[\n" + ",\n".join(f"        {x}" for x in values) + "\n      ]" if values else "[]"


def _json_items(items: Iterable[str]) -> Iterator[str]:
    """A top-level field's list, one piece per item as it is taken, each
    item one or more entries written at depth 2."""
    sep = "[\n"
    for item in items:
        yield sep + item
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


class _Monomials(dict):
    """Monomial text by exponent tuple, each formatted on its first lookup."""
    __slots__ = ()

    def __missing__(self, exps: QExponent) -> str:
        text = self[exps] = monomial_str(exps)
        return text


def _edge_chunks(head: str, quoted: Sequence[str] | Mapping[int, str],
                 rows: Iterable[tuple[int, Row]], tail: str, fmt: str) -> Iterator[str]:
    """An export in `fmt` ("dot" or "json", unchecked) in pieces: `head`,
    the edges of each (source index, row) pair, taken as they are written,
    and `tail`.  `quoted[x]` is the quoted label of vertex x."""
    yield head
    if fmt == "dot":
        weights = _Monomials()
        for x, row in rows:
            yield "".join([f'  {quoted[x]} -> {quoted[j]} [weight="{weights[exps]}"];\n'
                           for j, _, exps in row])
    else:
        yield from _json_items(",\n".join([
            f'    {{\n      "exps": {_json_ints(exps)},\n      "root": {_json_ints(root)},\n'
            f'      "source": {quoted[x]},\n      "target": {quoted[j]}\n    }}'
            for j, root, exps in row]) for x, row in rows if row)
    yield tail


def export_graph(g: QuantumBruhatGraph, fmt: str) -> str:
    """
    DOT: one node per permutation (one-line label) and a "weight" edge
    attribute holding the monomial text.  JSON: schema documented in the
    README ({"n", "vertices", "edges": [{"source","target","root","exps"}]}).
    The text is `_export_chunks(g, fmt)`, joined.
    """
    _check_format(fmt)
    return "".join(_export_chunks(g, fmt))


def _export_chunks(g: QuantumBruhatGraph, fmt: str) -> Iterator[str]:
    """The export of g in pieces (`fmt` unchecked): `_edge_chunks` over
    one pass of g's rows, in vertex order, with the vertex lines in the DOT
    header and the vertex list in the JSON footer."""
    quoted = [f'"{format_permutation(w)}"' for w in g.vertices]
    if fmt == "dot":
        head, tail = "".join(["digraph qbg {\n", *(f"  {q};\n" for q in quoted)]), "}\n"
    else:
        names = "".join(_json_items(f"    {q}" for q in quoted))
        head, tail = '{\n  "edges": ', f',\n  "n": {g.n},\n  "vertices": {names}\n}}\n'
    yield from _edge_chunks(head, quoted, enumerate(g.out_adj), tail, fmt)


def _check_format(fmt: str) -> None:
    """Refuse an export format other than dot or json, before any work."""
    if fmt not in ("dot", "json"):
        raise PreconditionError(f"unknown format {fmt!r} (expected dot or json)")


def graph_from_json(text: str) -> QuantumBruhatGraph:
    """
    Reader for the JSON export; round-trips build_graph output.  n must be
    an int in 1..MAX_GRAPH_N, checked before any vertex is listed.
    """
    try:
        payload = json.loads(text)
    # ValueError: not JSON, or an int longer than Python's digit limit
    except (RecursionError, ValueError) as exc:
        raise ParseError(f"malformed graph JSON: {exc}") from exc
    try:
        n, items = payload["n"], payload["edges"]
        if type(n) is not int or n < 1:
            raise ParseError(f"malformed graph JSON: n {_excerpt(json.dumps(n))} "
                             "is not an int >= 1")
        _check_graph_n(n)
        roots = set(all_roots(n))
        edges = [_json_edge(item, n, roots) for item in items]
    except (KeyError, TypeError, RecursionError) as exc:
        raise ParseError(f"malformed graph JSON: {exc}") from exc
    return QuantumBruhatGraph(n, edges)


def _json_edge(item: dict, n: int, roots: set[Root]) -> tuple[Perm, Perm, Root, QExponent]:
    """One record of the "edges" list, checked against S_n: two permutations
    of [n], a root of S_n and n - 1 exponents, all ints, none negative."""
    ends = [parse_permutation(w) if isinstance(w, str) else ()
            for w in (item["source"], item["target"])]
    root, exps = item["root"], item["exps"]
    ints = all(isinstance(x, list) and all(type(i) is int for i in x) for x in (root, exps))
    if not (ints and len(ends[0]) == len(ends[1]) == len(exps) + 1 == n
            and tuple(root) in roots and min(exps, default=0) >= 0):
        raise ParseError(f"malformed graph JSON: {_excerpt(json.dumps(item))} "
                         f"is not an edge of S_{n}")
    return ends[0], ends[1], tuple(root), tuple(exps)
