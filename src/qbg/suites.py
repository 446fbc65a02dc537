"""
Named verification suites behind `qbg verify`.  Each suite checks one
family of invariants exhaustively at desk scale and reports instance
counts; the acceptance tests run them at their contractual sizes.

All comparisons are exact; a suite passes only with zero violations.  A
suite reuses what it holds: one BFS per source, subintervals read off
[u, v], coordinate flags built once.  Where a check depends on less than
the instance, it runs once per distinct state and counts every instance
it covers: `distance` and `bfp` read each pair's closed-form weight off
the depths of `latticepath._pair_table`, whose valid shifts `tilted` and
`flat-count` play against a sorting table (`_sorting_table`); `bfp` runs
each greedy stage once per (word, k, v_k); `flat-count` decides
find_flat's shift, the flat test and the ledger size once per column
state; `tilted` decides each prefix criterion per column state
(u_k, v_k, S); `samepath` counts walks per (vertex, length, weight);
`stratify` names each stratum by its `tiltedorder.interval_nodes` int and
tests each nested pair's open cell in the pass that names it;
and `equivalence` and `fixedpoints` run the membership routes on all
coordinate flags at once (`exactgeom._FlagFamily`), one bitset per pair,
with `fixedpoints` comparing it to the interval read off the BFS layers
as a bitset.  Every route still decides every instance.

Each suite records what fails in a `_Findings` and returns its body, which
prints the full counts.  `run_suite` checks n and the sample count against
`LIMITS`, 0 and `MAX_SAMPLES` before it calls the suite, and alone decides the
SuiteResult: PASS when nothing failed, and as details the first five notes
and then the first ten failure messages, so a failing run holds at most
fifteen strings at any n.
"""
from __future__ import annotations

import random
from itertools import combinations, product
from math import comb
from operator import or_
from typing import Callable, NamedTuple

from . import diagrams, exactgeom, qbgraph, tiltedorder
from .errors import InternalInvariantError, PreconditionError, ResourceLimitError, SamplingError
from .latticepath import _gale_leq, _pair_table, _prefix_masks, prefix_paths
from .permcore import (
    Perm,
    all_permutations,
    coxeter_length,
    format_permutation,
    identity,
    long_cycle_rotate,
    longest_element,
    reduced_words_of_longest,
    reflection_ordering,
    value_mask,
)
from .qbgraph import (
    QuantumBruhatGraph,
    _geodesic_marks,
    _pack,
    _unpack,
    build_graph,
    edge_weight,
    exponent_divides,
    increasing_path_lengths,
    shortest_path_weight_sets,
)


class SuiteResult(NamedTuple):
    name: str
    n: int
    ok: bool
    body: str
    details: list[str]

    def report(self) -> str:
        lines = [f"suite={self.name} n={self.n}", self.body]
        lines.extend(self.details)
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


class _Findings:
    """What a suite found: the failure count, the first ten failure messages,
    each made by its callable only when kept, and the first five notes."""

    MESSAGES, NOTES = 10, 5

    def __init__(self) -> None:
        self.failures = 0
        self.messages: list[str] = []
        self.notes: list[str] = []

    def fail(self, message: Callable[[], str] | None = None, count: int = 1) -> None:
        self.failures += count
        if message is not None and len(self.messages) < self.MESSAGES:
            self.messages.append(message())

    def note(self, message: str) -> None:
        if len(self.notes) < self.NOTES:
            self.notes.append(message)


def _tuple_text(*perms: Perm) -> str:
    """Permutations as the reports name them: "(u, v)" in one-line notation."""
    return f"({', '.join(map(format_permutation, perms))})"


# ---------------------------------------------------------------------------


def suite_distance(n: int, seed: int, samples: int, found: _Findings) -> str:
    """Closed-form weight and length agree with the BFS oracle on all pairs:
    with the BFS distance and with the weight of every shortest path.  The
    weight's k-th coordinate is the depth of the path of the k-prefix sets,
    read from the pair table's depths."""
    g = build_graph(n)
    lengths = [coxeter_length(w) for w in g.vertices]
    _, depths = _pair_table(n)
    prefixes = list(map(_prefix_masks, g.vertices))
    pairs = 0
    for i, u in enumerate(g.vertices):
        dist = g.distance_vector_from(u)
        weight_sets = shortest_path_weight_sets(g, dist)
        for j, (v, weight) in enumerate(zip(g.vertices, _weights_from(i, prefixes, depths, n))):
            pairs += 1
            # graph_distance's closed form, on the weight already in hand
            if weight_sets[j] != {weight} or dist[j] != lengths[j] - lengths[i] + 2 * sum(weight):
                found.fail(lambda: f"mismatch at {_tuple_text(u, v)}")
    return f"{pairs} pairs, {found.failures} mismatches"


def suite_samepath(n: int, seed: int, samples: int, found: _Findings) -> str:
    """
    All shortest paths between a pair carry one common weight; every walk
    within two steps of geodesic length carries a weight divisible by it,
    with equality only at geodesic length.

    The walks from u are counted, not listed: layer L maps each vertex to
    the weights of the bounded walks of length L that end there, with the
    number of walks of each.  Both checks run once per (vertex, L, weight),
    and each counts its walks, into the violations too when it fails.
    """
    g = build_graph(n)
    pairs = walks = 0
    # weights packed: a bounded walk is shorter than |S_n| + 2 steps and
    # raises each coordinate by at most 1 per step; indexed, so each row is
    # stored for the BFS runs below rather than scanned again
    steps = [[(t, _pack(exps)) for t, _, exps in g.out_adj[x]] for x in range(len(g.vertices))]
    for u in g.vertices:
        dist = g.distance_vector_from(u)
        weight_sets = shortest_path_weight_sets(g, dist)
        for v, weights in zip(g.vertices, weight_sets):
            pairs += 1
            if len(weights) != 1:
                found.fail(lambda: f"several shortest-path weights for {_tuple_text(u, v)}")
        minimal = [next(iter(weights)) for weights in weight_sets]
        layer: dict[int, dict[int, int]] = {g.index[u]: {0: 1}}
        length = 0
        while layer:
            following: dict[int, dict[int, int]] = {}
            for w_idx, weights in layer.items():
                ref = minimal[w_idx]
                for packed, count in weights.items():
                    walks += count
                    exps = _unpack(packed, n)
                    if not exponent_divides(ref, exps):
                        w = g.vertices[w_idx]
                        found.fail(lambda: "walk weight below minimum at "
                                   + format_permutation(w), count)
                    elif exps == ref and length != dist[w_idx]:
                        found.fail(lambda: "minimal weight on a non-shortest walk from "
                                   + format_permutation(u), count)
                for t_idx, step in steps[w_idx]:
                    if length + 1 <= dist[t_idx] + 2:
                        reached = following.setdefault(t_idx, {})
                        for packed, count in weights.items():
                            reached[packed + step] = reached.get(packed + step, 0) + count
            layer = following
            length += 1
    return f"{pairs} pairs, {walks} bounded walks, {found.failures} violations"


def suite_bfp(n: int, seed: int, samples: int, found: _Findings) -> str:
    """
    The greedy label-increasing path has oracle length, the closed-form
    weight (read from the pair table as in `distance`) and increasing labels.

    Stage k of the path from u to v depends only on the word w that the
    earlier stages left and on v_k, so each (w, k, v_k) runs `_greedy_stage`
    once, into a table keyed by the int x n^2 + (k - 1) n + v_k - 1, x the
    index of w.  An entry holds the index of the word after the stage, its
    step count, its packed weight and its first and last label ranks (None
    for both when it takes no step or its labels do not increase).  From
    each u the targets are walked as a prefix tree, in increasing order at
    each depth, so that its leaves come in vertex order; length, weight and
    label order add up along the walk.  Stage n takes no step, since
    position n then holds the one value left, so a leaf is reached after
    stage n - 1.
    """
    g = build_graph(n)
    _, depths = _pair_table(n)
    prefixes = list(map(_prefix_masks, g.vertices))
    rank = {t: r for r, t in enumerate(qbgraph.all_roots(n))}
    # weights packed: a greedy path is shorter than |S_n| steps and raises
    # each coordinate by at most 1 per step
    stages: dict[int, tuple] = {}
    unpacked: dict[int, tuple[int, ...]] = {}
    leaves: list[tuple[int, int, int | None, bool]] = []

    def stage(key: int, x: int, k: int, target: int) -> tuple:
        word = list(g.vertices[x])
        steps = qbgraph._greedy_stage(word, k, target, n)
        labels = [rank[k, p] for p, _ in steps]
        increasing = labels and all(a < b for a, b in zip(labels, labels[1:]))
        first, last = (labels[0], labels[-1]) if increasing else (None, None)
        packed = sum(_pack(exps) for _, exps in steps)
        entry = stages[key] = (g.index[tuple(word)], len(steps), packed, first, last)
        return entry

    def walk(x: int, k: int, rest: tuple[int, ...], length: int, weight: int,
             top: int | None, increasing: bool) -> None:
        base = (x * n + k - 1) * n - 1
        for pos, target in enumerate(rest):
            key = base + target
            y, count, packed, first, last = stages.get(key) or stage(key, x, k, target)
            if count:
                state = (length + count, weight + packed, last,
                         increasing and first is not None and top < first)
            else:
                state = (length, weight, top, increasing)
            if k == n - 1:
                leaves.append(state)
            else:
                walk(y, k + 1, rest[:pos] + rest[pos + 1:], *state)

    for i, u in enumerate(g.vertices):
        dist = g.distance_vector_from(u)
        formulas = _weights_from(i, prefixes, depths, n)
        leaves.clear()
        if n == 1:
            leaves.append((0, 0, -1, True))
        else:
            walk(i, 1, tuple(range(1, n + 1)), 0, 0, -1, True)
        if len(leaves) != len(g.vertices):
            raise InternalInvariantError(
                f"greedy prefix tree from {format_permutation(u)} has {len(leaves)} leaves"
            )
        for j, (length, weight, _, increasing) in enumerate(leaves):
            if weight not in unpacked:
                unpacked[weight] = _unpack(weight, n)
            if length != dist[j] or unpacked[weight] != formulas[j] or not increasing:
                found.fail(lambda: f"greedy path wrong for {_tuple_text(u, g.vertices[j])}")
    return f"{len(g.vertices) ** 2} pairs, {found.failures} violations"


def suite_increasing(n: int, seed: int, samples: int, found: _Findings) -> str:
    """Every reflection ordering admits exactly one increasing path per pair,
    and it is a shortest one: the lengths of the pair's increasing paths,
    each listed, must be [d(u, v)]."""
    g = build_graph(n)
    words = reduced_words_of_longest(n)
    expected_words = {3: 2, 4: 16}
    if n in expected_words and len(words) != expected_words[n]:
        found.fail(lambda: f"expected {expected_words[n]} reduced words, found {len(words)}")
    checked = 0
    # per source, what its lengths must equal: [d(u, v)] at each endpoint v
    expected = [[[d] for d in g.distance_vector_from(u)] for u in g.vertices]
    for word in sorted(words):
        per_source = increasing_path_lengths(g, reflection_ordering(word))
        for u, lengths, wanted in zip(g.vertices, per_source, expected):
            checked += len(lengths)
            if lengths != wanted:
                for v, paths, one in zip(g.vertices, lengths, wanted):
                    if paths != one:
                        found.fail(lambda: f"word {word}: {len(paths)} paths for "
                                   f"{_tuple_text(u, v)}")
    return f"{len(words)} orderings, {checked} pairs, {found.failures} violations"


def suite_rotation(n: int, seed: int, samples: int, found: _Findings) -> str:
    """Rotating all values by the long cycle preserves the unweighted edges."""
    checked = 0
    roots = qbgraph.all_roots(n)
    for w in all_permutations(n):
        rotated = long_cycle_rotate(w)
        for t in roots:
            checked += 1
            if (edge_weight(w, t) is None) != (edge_weight(rotated, t) is None):
                found.fail()
    return f"{checked} vertex-root pairs, {found.failures} violations"


_FIGURE_D132_EDGES = {
    ((1, 3, 2), (1, 2, 3)),
    ((1, 3, 2), (2, 3, 1)),
    ((1, 3, 2), (3, 1, 2)),
    ((1, 2, 3), (2, 1, 3)),
    ((2, 3, 1), (2, 1, 3)),
    ((2, 3, 1), (3, 2, 1)),
    ((3, 1, 2), (3, 2, 1)),
}


def base_poset_hasse(g: QuantumBruhatGraph, dist: list[int]) -> set[tuple[Perm, Perm]]:
    """Cover relations of the order whose base point has BFS distances
    `dist`: graph edges that step one rank further from the base."""
    covers = tiltedorder._cover_rows(g, dict(zip(g.vertices, dist)))
    return {(g.vertices[x], g.vertices[j]) for x, row in covers for j, _, _ in row}


def _weights_from(
    i: int, prefixes: list[list[int]], depths: dict[int, int], n: int
) -> list[tuple[int, ...]]:
    """The closed-form weight of (u, v) for u the vertex with index i and v
    every vertex: coordinate k is the depth of the k-prefix sets' path."""
    high = [A << n for A in prefixes[i]]
    return [tuple([depths[A | B] for A, B in zip(high, masks)]) for masks in prefixes]


def _sorting_table(paths: dict[int, frozenset[int]], n: int) -> dict[int, frozenset[int]]:
    """The shifts r with A <=_r B (`_gale_leq`), keyed like the path table
    `paths` and sharing nothing with it but its objects for equal sets."""
    shared = {s: s for s in paths.values()}
    sorting: dict[int, frozenset[int]] = {}
    shifts = range(1, n + 1)
    for k in range(1, n):
        subsets = [(value_mask(A), A) for A in combinations(shifts, k)]
        for (a, A), (b, B) in product(subsets, repeat=2):
            by_sorting = frozenset(r for r in shifts if _gale_leq(A, B, r, n))
            sorting[a << n | b] = shared.setdefault(by_sorting, by_sorting)
    return sorting


def _distance_layers(dist: list[list[int]]) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """The BFS layers as bitsets over the vertices: per vertex i, d -> the w
    with d(i, w) = d, and d -> the w with d(w, i) = d."""
    from_u: list[dict[int, int]] = [{} for _ in dist]
    to_v: list[dict[int, int]] = [{} for _ in dist]
    for i, row in enumerate(dist):
        for k, d in enumerate(row):
            from_u[i][d] = from_u[i].get(d, 0) | 1 << k
            to_v[k][d] = to_v[k].get(d, 0) | 1 << i
    return from_u, to_v


def _interval_bits(from_u: dict[int, int], to_v: dict[int, int], total: int) -> int:
    """The w on a shortest u -> v path, as a bitset: the OR over d of
    {d(u, w) = d} AND {d(w, v) = total - d}, from u's and v's layers."""
    out = 0
    for d, near in from_u.items():
        out |= near & to_v.get(total - d, 0)
    return out


def suite_tilted(n: int, seed: int, samples: int, found: _Findings) -> str:
    """
    The three membership criteria agree on every (u, v, w) triple: the BFS
    length identity, exists_shift on the path route (the valid shifts of
    (u_k, w_k) and (w_k, v_k) meet in every column k) and all_shifts on the
    sorting route (every valid shift of (u_k, v_k) puts w_k between them).
    The prefix criteria read only prefix sets, so each is decided once per
    column state (u_k, v_k, S) from the two tables, as the set of vertices
    with k-prefix set S that fail it there.  Per pair (u, v) each route
    gives a bitmask over all w, and the three are compared bit by bit.
    """
    g = build_graph(n)
    vertices = g.vertices
    everyone = (1 << len(vertices)) - 1
    prefixes = list(map(_prefix_masks, vertices))
    holders: dict[int, int] = {}  # the vertices with each prefix set
    for k, masks in enumerate(prefixes):
        for S in masks:
            holders[S] = holders.get(S, 0) | 1 << k
    paths, _ = _pair_table(n)
    sorting = _sorting_table(paths, n)
    failing: dict[int, tuple[int, int]] = {}  # (exists_shift, all_shifts) per (A, B)
    for key, need in paths.items():
        A, B = key >> n, key & ((1 << n) - 1)
        exists_out = all_out = 0
        for S, held in holders.items():
            if S.bit_count() == A.bit_count():
                if not paths[A << n | S] & paths[S << n | B]:
                    exists_out |= held
                if not need <= sorting[A << n | S] & sorting[S << n | B]:
                    all_out |= held
        failing[key] = exists_out, all_out
    dist = [g.distance_vector_from(u) for u in vertices]
    from_u, to_v = _distance_layers(dist)
    for i, u in enumerate(vertices):
        for j, v in enumerate(vertices):
            by_length = _interval_bits(from_u[i], to_v[j], dist[i][j])
            by_exists = by_all = everyone
            for A, B in zip(prefixes[i], prefixes[j]):
                exists_out, all_out = failing[A << n | B]
                by_exists &= ~exists_out
                by_all &= ~all_out
            split = (by_length ^ by_exists) | (by_length ^ by_all)
            # the body prints no count, so no message past the tenth is formatted
            while split and len(found.messages) < found.MESSAGES:
                w = vertices[(split & -split).bit_length() - 1]
                found.fail(lambda: f"criteria split on {_tuple_text(u, v, w)}")
                split &= split - 1
    if n == 3:
        base_row = dist[g.index[(1, 3, 2)]]
        if sorted(base_row) != [0, 1, 1, 1, 2, 2]:
            found.fail(lambda: "rank profile of the base-132 order is wrong")
        if base_poset_hasse(g, base_row) != _FIGURE_D132_EDGES:
            found.fail(lambda: "cover relations of the base-132 order are wrong")
    verdict = "violations" if found.failures else "equivalences hold"
    return f"{len(vertices) ** 3} triples, {verdict}"


def suite_flat_count(n: int, seed: int, samples: int, found: _Findings) -> str:
    """
    find_flat yields flat sequences and the ledgers have the right size.

    Column k of a pair reads only its column state: the (k-1)- and k-prefix
    sets of u and v, keyed as the prefix-set pairs of columns k - 1 and k.
    The state fixes find_flat's a_k (the least shift valid for both pairs,
    from the path table), is_flat's test of a_k on both pairs (from the
    sorting table) and the size of the column's ledger.  Each distinct state
    is decided once, from the first pair that reaches it, and every pair
    adds up its columns.
    """
    g = build_graph(n)
    paths, _ = _pair_table(n)
    sorting = _sorting_table(paths, n)
    prefixes = list(map(_prefix_masks, g.vertices))
    states: dict[int, tuple[int, bool, int]] = {}  # (a_k, flat, ledger size)

    def decide(u: Perm, v: Perm, k: int, before: int, key: int) -> tuple[int, bool, int]:
        shifts = paths[key] & paths[before] if k > 1 else paths[key]
        if not shifts:
            raise InternalInvariantError(
                f"no common shift for columns {k - 1} and {k} of {_tuple_text(u, v)}"
            )
        r = min(shifts)
        if r not in sorting[key] or k > 1 and r not in sorting[before]:
            return r, False, 0
        # the column passes shift_leq, so its unchecked ledger is counted
        return r, True, len(diagrams._ledger_column(u, v, k, r, n))

    pairs = x_checked = 0
    total = comb(n, 2)
    for i, u in enumerate(g.vertices):
        dist = g.distance_vector_from(u)
        high = [A << n for A in prefixes[i]]
        for j, v in enumerate(g.vertices):
            pairs += 1
            columns = []
            before = 0
            for k, key in enumerate(map(or_, high, prefixes[j]), start=1):
                state = before << 2 * n | key
                if state not in states:
                    states[state] = decide(u, v, k, before, key)
                columns.append(states[state])
                before = key
            if not all(flat for _, flat, _ in columns):
                found.fail(lambda: f"find_flat not flat for {_tuple_text(u, v)}")
                continue
            count = sum(size for _, _, size in columns)
            if count != total - dist[j]:
                found.fail(lambda: f"ledger size {count} != {total - dist[j]} for "
                           f"{_tuple_text(u, v)}")
            if n <= 4 and dist[j] >= 1:
                a = tuple(r for r, _, _ in columns)
                for x, on, d in zip(g.vertices, _geodesic_marks(g, dist, j), dist):
                    if not on or d != dist[j] - 1:
                        continue
                    try:
                        count_x = len(diagrams.equations_with_x(u, v, a, x))
                    except PreconditionError as exc:
                        found.fail(lambda: f"x-ledger rejected {_tuple_text(u, v, x)}: {exc}")
                        continue
                    x_checked += 1
                    if count_x != total - dist[j]:
                        found.fail(
                            lambda: f"x-ledger size {count_x} != {total - dist[j]} for "
                            f"{_tuple_text(u, v, x)}"
                        )
    if x_checked:
        found.note(f"{x_checked} coatom ledgers checked")
    return f"{pairs} pairs, " + ("violations" if found.failures else "count law holds")


def suite_fixedpoints(n: int, seed: int, samples: int, found: _Findings) -> str:
    """Coordinate flags sit in exactly the varieties of intervals containing
    them.  Per pair (u, v) two bitsets over all w are compared: the interval
    from the BFS layers, and the multi-Plucker route on every coordinate
    flag at once."""
    g = build_graph(n)
    vertices = g.vertices
    dist = [g.distance_vector_from(u) for u in vertices]
    from_u, to_v = _distance_layers(dist)
    family = exactgeom._FlagFamily([exactgeom.permutation_flag(w) for w in vertices])
    for i, u in enumerate(vertices):
        for j, v in enumerate(vertices):
            split = _interval_bits(from_u[i], to_v[j], dist[i][j]) ^ family.plucker(u, v)
            while split:
                w = vertices[(split & -split).bit_length() - 1]
                found.fail(lambda: f"fixed point split on {_tuple_text(u, v, w)}")
                split &= split - 1
    return f"{len(vertices) ** 3} triples, {found.failures} violations"


def _draw_pairs(
    n: int, seed: int, fixed: list[tuple[Perm, Perm]], count: int
) -> list[tuple[Perm, Perm]]:
    """
    The fixed pairs, then distinct random pairs of S_n until there are
    `count`, or every pair of S_n x S_n when it has fewer.
    """
    rng = random.Random(seed)
    perms = list(all_permutations(n))
    pairs = list(dict.fromkeys(fixed))
    seen = set(pairs)
    count = min(count, len(perms) ** 2)
    while len(pairs) < count:
        pair = (rng.choice(perms), rng.choice(perms))
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs


def _all_shift_sequences(u: Perm, v: Perm) -> list[tuple[int, ...]]:
    per_column = [sorted(shifts) for _, shifts in prefix_paths(u, v)]
    return [tuple(a) for a in product(*per_column)]


def suite_equivalence(n: int, seed: int, samples: int, found: _Findings) -> str:
    """
    The rank, per-column, and multi-Plucker membership routes agree (open
    and closed) on sampled, generic, and coordinate flags, for every shift
    sequence valid for the pair.  The sampled and generic flags go through
    the per-flag routes; the coordinate flags through the routes' family
    form, one bitset per route with a bit per flag.
    """
    fixed = [((4, 3, 2, 1), (3, 1, 4, 2))] if n == 4 else []
    fixed += [(identity(n), longest_element(n)), (identity(n), identity(n))]
    pairs = _draw_pairs(n, seed, fixed, max(50, samples))
    rng = random.Random(seed + 1)
    flags_used = checks = 0
    coordinate = [exactgeom.permutation_flag(w) for w in all_permutations(n)]
    family = exactgeom._FlagFamily(coordinate)
    cells = (False, True)
    for idx, (u, v) in enumerate(pairs):
        shift_seqs = _all_shift_sequences(u, v)
        flags: list[exactgeom.Flag] = []
        for s in range(5):
            try:
                flags.append(exactgeom.sample_in_open_stratum(u, v, seed * 1000 + idx * 10 + s))
            except SamplingError as exc:
                found.fail(lambda: f"sampler failed for {_tuple_text(u, v)}: {exc}")
        flags.extend(exactgeom.random_flag(n, rng) for _ in range(5))
        flags_used += len(flags) + len(coordinate)
        references = [
            (F, open_cell, exactgeom.member_T_plucker(u, v, F, open_cell))
            for F in flags
            for open_cell in cells
        ]
        by_plucker = [family.plucker(u, v, open_cell) for open_cell in cells]
        # shift sequence outermost, so each (u, v, a) plan is built once
        for a in shift_seqs:
            for F, open_cell, reference in references:
                checks += 1
                by_rank = exactgeom.member_T_rank(u, v, a, F, open_cell)
                by_grass = exactgeom.member_T_grassmann(u, v, a, F, open_cell)
                if not by_rank == by_grass == reference:
                    found.fail(lambda: f"memberships split on {_tuple_text(u, v)}, "
                               f"a={a}, open={open_cell}")
            checks += 2 * len(coordinate)
            splits = [
                (family.rank(u, v, a, open_cell) ^ reference)
                | (family.grassmann(u, v, a, open_cell) ^ reference)
                for open_cell, reference in zip(cells, by_plucker)
            ]
            if any(splits):  # the per-flag order: flag by flag, closed then open
                for bit in range(len(coordinate)):
                    for open_cell, split in zip(cells, splits):
                        if split >> bit & 1:
                            found.fail(lambda: f"memberships split on {_tuple_text(u, v)}, "
                                       f"a={a}, open={open_cell}")
    return (f"{len(pairs)} pairs, {flags_used} flags, {checks} checks, "
            f"{found.failures} disagreements")


Classes = dict[int, tuple[tuple[Perm, Perm], int]]


def _subinterval_classes(u: Perm, v: Perm, F: exactgeom.Flag) -> Classes:
    """
    Subintervals of [u, v] grouped by their `tiltedorder.interval_nodes`
    (one int per member set), in the order of their first (x, y) pair: each
    node set maps to that pair and its `seen` bits.  A subinterval is a
    geodesically nested pair: x and y on a common shortest u -> v path in
    that order (member-set containment alone is weaker and would break the
    disjointness being tested).  For x in [u, v] those y are exactly
    [x, v], by the triangle inequality.  Each pair's open cell is tested on
    F as it is named, while its admissible nodes are cached; a class's
    `seen` has bit 0 set if a pair fails and bit 1 if one passes.
    """
    classes: Classes = {}
    for x in sorted(tiltedorder.interval_member_set(u, v)):
        for y in sorted(tiltedorder.interval_member_set(x, v)):
            nodes = tiltedorder.interval_nodes(x, y)
            first, seen = classes.get(nodes, ((x, y), 0))
            classes[nodes] = first, seen | 1 << exactgeom.member_T_plucker(x, y, F, True)
    return classes


def _stratify_one(u: Perm, v: Perm, F: exactgeom.Flag, found: _Findings) -> None:
    want = tiltedorder.interval_nodes(u, v)
    label = exactgeom.stratum(u, v, F)
    located = tiltedorder.interval_nodes(label.x, label.y)
    if located != want:
        found.fail(
            lambda: f"stratum of a {_tuple_text(u, v)} sample is "
            f"{format_permutation(label.x)}, {format_permutation(label.y)}"
        )
    elif (label.x, label.y) != (u, v):
        found.note(
            f"label {_tuple_text(label.x, label.y)} names the same stratum as {_tuple_text(u, v)}"
        )
    a = diagrams.find_flat(u, v)
    closed = exactgeom.member_T_rank(u, v, a, F, False)
    open_ = exactgeom.member_T_rank(u, v, a, F, True)
    chart = F.plucker_perm(u) != 0 and F.plucker_perm(v) != 0
    if open_ != (closed and chart):
        found.fail(lambda: f"chart law fails for {_tuple_text(u, v)}")
    if not exactgeom.all_equations_vanish(F, diagrams.equations(u, v, a)):
        found.fail(lambda: f"ledger does not vanish on a {_tuple_text(u, v)} sample")


def _disjointness(u: Perm, v: Perm, classes: Classes, found: _Findings) -> None:
    hits = 0
    for _, seen in classes.values():
        if seen == 3:
            found.note(f"open test splits within one member set under {_tuple_text(u, v)}")
        hits += seen >> 1
    if hits != 1:
        found.fail(lambda: f"flag passes {hits} open strata inside "
                   f"{_tuple_text(u, v)}, expected 1")


def suite_stratify(n: int, seed: int, samples: int, found: _Findings) -> str:
    """Sampler round trips, the chart law, and stratum disjointness."""
    if n <= 3:
        pairs = [(u, v) for u in all_permutations(n) for v in all_permutations(n)]
    else:
        fixed = [((4, 3, 2, 1), (3, 1, 4, 2))] if n == 4 else []
        fixed += [(identity(n), longest_element(n))]
        pairs = _draw_pairs(n, seed, fixed, max(10, samples))
    stratified = 0
    for idx, (u, v) in enumerate(pairs):
        try:
            F = exactgeom.sample_in_open_stratum(u, v, seed * 100 + idx)
        except SamplingError as exc:
            found.fail(lambda: f"sampler failed for {_tuple_text(u, v)}: {exc}")
            continue
        stratified += 1
        _stratify_one(u, v, F, found)
        classes = _subinterval_classes(u, v, F)
        _disjointness(u, v, classes, found)
        # a flag sampled on the boundary must land in its own substratum
        whole = tiltedorder.interval_nodes(u, v)
        proper = [first for nodes, (first, _) in classes.items() if nodes != whole]
        if proper:
            x, y = proper[len(proper) // 2]
            try:
                G = exactgeom.sample_in_open_stratum(x, y, seed * 100 + idx + 7)
            except SamplingError as exc:
                found.fail(lambda: "sampler failed for substratum "
                           f"{_tuple_text(x, y)}: {exc}")
                continue
            if not exactgeom.member_T_plucker(u, v, G, False):
                found.fail(lambda: f"substratum sample of {_tuple_text(x, y)} escapes "
                           f"{_tuple_text(u, v)}")
                continue
            label = exactgeom.stratum(u, v, G)
            if tiltedorder.interval_nodes(label.x, label.y) != tiltedorder.interval_nodes(x, y):
                found.fail(lambda: f"boundary flag of {_tuple_text(u, v)} located in the "
                           "wrong stratum")
            _disjointness(x, y, _subinterval_classes(x, y, G), found)
    return f"{stratified} sampled flags, {found.failures} violations"


def suite_plucker(n: int, seed: int, samples: int, found: _Findings) -> str:
    """Incidence relations hold exactly on random coordinates of real flags."""
    rng = random.Random(seed)
    flags = [exactgeom.random_flag(n, rng) for _ in range(max(2, samples // 2))]
    flags.append(exactgeom.permutation_flag(longest_element(n)))
    flags.append(exactgeom.sample_in_open_stratum(identity(n), longest_element(n), seed))
    universe = list(range(1, n + 1))
    checked = 0
    for F in flags:
        for _ in range(100):
            k = rng.randint(2, n - 1)
            I = rng.sample(universe, k)
            J = rng.sample(universe, k - 1)
            checked += 1
            if not exactgeom.incidence_product_rule_holds(F, I, J):
                found.fail()
            if n >= 4:
                r = rng.randint(3, n - 1)
                s = rng.randint(1, r - 2)
                I = rng.sample(universe, r)
                J = rng.sample(universe, s)
                j = rng.choice([x for x in universe if x not in J])
                checked += 2
                if not exactgeom.incidence_sum_rule_holds(F, I, J):
                    found.fail()
                if not exactgeom.incidence_exchange_rule_holds(F, I, J, j):
                    found.fail()
    return f"{len(flags)} flags, {checked} relations, {found.failures} violations"


SUITES = {
    "distance": (suite_distance, 4),
    "samepath": (suite_samepath, 3),
    "bfp": (suite_bfp, 4),
    "increasing": (suite_increasing, 3),
    "rotation": (suite_rotation, 4),
    "tilted": (suite_tilted, 3),
    "flat-count": (suite_flat_count, 4),
    "fixedpoints": (suite_fixedpoints, 3),
    "equivalence": (suite_equivalence, 4),
    "stratify": (suite_stratify, 3),
    "plucker": (suite_plucker, 4),
}


#: The sizes each suite runs at, (least, most).  `run_suite` refuses any
#: other n before work starts; the reason for each bound is beside it.
LIMITS = {
    "distance": (1, qbgraph.MAX_GRAPH_N),  # builds the graph on S_n
    "samepath": (1, 6),  # 28 s at n = 6; each n up multiplies the work some fifty-fold
    "bfp": (1, qbgraph.MAX_GRAPH_N),  # builds the graph on S_n
    "increasing": (1, 5),  # lists every reduced word of w0 first: 292,864 at n = 6
    "rotation": (2, qbgraph.MAX_GRAPH_N),  # S_1 has no roots; n = 8 took 11 s
    "tilted": (1, 6),  # (n!)^3 triples, 1.3 x 10^11 at n = 7
    "flat-count": (1, qbgraph.MAX_GRAPH_N),  # builds the graph on S_n
    "fixedpoints": (1, 6),  # (n!)^2 bitsets of n! flags: 24-29 s at n = 6, 49x the pairs at 7
    # n! coordinate flags per pair and sequence, 3,730 sequences a pair at n = 7: 48-52 s there
    "equivalence": (1, 7),
    # the subinterval pairs of (id, w0): 98,407, the whole suite 4.5-4.9 s and
    # 66 MB at n = 6; 3,550,919 at n = 7, where the cost is unmeasured
    "stratify": (1, 6),
    "plucker": (3, exactgeom.MAX_TABLE_N),  # no incidence relation below 3; flags above 7
}

#: Largest --samples: the sampled suites draw about that many pairs or flags.
MAX_SAMPLES = 1000


def run_suite(name: str, n: int | None = None, seed: int = 0, samples: int = 5) -> SuiteResult:
    if name not in SUITES:
        raise PreconditionError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        )
    fn, default_n = SUITES[name]
    if n is None:
        n = default_n
    least, most = LIMITS[name]
    if n < least:
        raise PreconditionError(f"suite {name} needs n >= {least}, got {n}")
    if n > most:
        raise ResourceLimitError(f"suite {name} is bounded at n <= {most}")
    if samples < 0:
        raise PreconditionError(f"suites need samples >= 0, got {samples}")
    if samples > MAX_SAMPLES:
        raise ResourceLimitError(f"suites are bounded at samples <= {MAX_SAMPLES}, got {samples}")
    found = _Findings()
    body = fn(n, seed, samples, found)
    return SuiteResult(name, n, not found.failures, body, found.notes + found.messages)
