import functools
import gc
import hashlib
import json
import random
import sys
import threading
import weakref
from collections import deque
from math import comb

import pytest
from hypothesis import given, strategies as st

from qbg import qbgraph, tiltedorder
from qbg.errors import InternalInvariantError, ParseError, PreconditionError, ResourceLimitError
from qbg.permcore import (
    all_permutations,
    all_roots,
    apply_transposition,
    coxeter_length,
    cyclic_contains,
    format_permutation,
    parse_permutation,
    reduced_words_of_longest,
    reflection_ordering,
)
from qbg.qbgraph import (
    bfp_greedy_path,
    build_graph,
    edge_weight,
    export_graph,
    formula_weight,
    graph_distance,
    graph_from_json,
    increasing_path_lengths,
    monomial_str,
    oracle_distance,
    shortest_path_weight_sets,
    zero_exponent,
)
from qbg.tiltedorder import hasse_export, interval

from oracles import checked_greedy_path, cover_edges, increasing_paths_from, path_weight


class BackwardRule:
    """
    The shortest-walk rule that reads BFS distances *to* the end vertex,
    over in-edges collected from all_edges(): w is on a shortest u -> v walk
    when d(u, w) + d(w, v) = d(u, v), and the lexicographically least walk
    steps, at each vertex, to the first out-neighbour whose distance to v is
    one less.  The reference for the library's single forward BFS.
    """

    def __init__(self, g):
        self.out = {w: [] for w in g.vertices}
        self.into = {w: [] for w in g.vertices}
        for e in g.all_edges():
            self.out[e.source].append(e)
            self.into[e.target].append(e.source)
        self.n = g.n

    @staticmethod
    def _bfs(start, step):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in step(x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    def to(self, v):
        return self._bfs(v, self.into.__getitem__)

    def walk(self, u, v):
        to_v = self.to(v)
        length = to_v[u]
        exps, w = zero_exponent(self.n), u
        for remaining in range(length - 1, -1, -1):
            e = next(e for e in self.out[w] if to_v[e.target] == remaining)
            exps, w = qbgraph.exponent_add(exps, e.exps), e.target
        return length, exps

    def ranks(self, u, v):
        from_u = self._bfs(u, lambda x: [e.target for e in self.out[x]])
        to_v = self.to(v)
        return {w: d for w, d in from_u.items() if w in to_v and d + to_v[w] == from_u[v]}


# every pair for n <= 4, seeded pairs at n = 5
PAIR_SIZES = [(1, None), (2, None), (3, None), (4, None), (5, 400)]


def _pairs(g, count):
    if count is None:
        return [(u, v) for u in g.vertices for v in g.vertices]
    rng = random.Random(g.n)
    return [(rng.choice(g.vertices), rng.choice(g.vertices)) for _ in range(count)]


FIG1_WEIGHTED = {
    ((1, 3, 2), (1, 2, 3)): (0, 1),
    ((3, 1, 2), (1, 3, 2)): (1, 0),
    ((3, 2, 1), (3, 1, 2)): (0, 1),
    ((3, 2, 1), (2, 3, 1)): (1, 0),
    ((2, 3, 1), (2, 1, 3)): (0, 1),
    ((2, 1, 3), (1, 2, 3)): (1, 0),
    ((3, 2, 1), (1, 2, 3)): (1, 1),
}


class TestEdgeWeight:
    def test_down_edge_full(self):
        assert edge_weight((3, 2, 1), (1, 3)) == (1, 1)

    def test_down_edge_single(self):
        assert edge_weight((1, 3, 2), (2, 3)) == (0, 1)

    def test_missing_edge(self):
        assert edge_weight((2, 3, 1), (1, 3)) is None

    def test_up_edge(self):
        assert edge_weight((1, 2, 3), (1, 2)) == (0, 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_length_change(self, n):
        for w in all_permutations(n):
            for i, j in all_roots(n):
                delta = coxeter_length(apply_transposition(w, (i, j))) - coxeter_length(w)
                if delta == 1:
                    expected = zero_exponent(n)
                elif delta == 1 - 2 * (j - i):
                    expected = tuple(1 if i <= p <= j - 1 else 0 for p in range(1, n))
                else:
                    expected = None
                assert edge_weight(w, (i, j)) == expected

    @pytest.mark.parametrize("w", [(1, 1, 2), (0, 1, 2), (1, 2, 4)])
    def test_rejects_non_permutations(self, w):
        # (1, 1, 2) once read as an up edge of weight (0, 0)
        with pytest.raises(PreconditionError, match="not a permutation"):
            edge_weight(w, (1, 3))

    @pytest.mark.parametrize("t", [(0, 2), (2, 2), (2, 1), (1, 4)])
    def test_root_out_of_range(self, t):
        with pytest.raises(PreconditionError):
            edge_weight((1, 2, 3), t)

    @pytest.mark.parametrize(
        "t", [(1, 2, 3), 5, (1,), "12", (1, "3"), (1.0, 3.0), tuple(range(9999))]
    )
    def test_root_that_is_not_a_pair_of_ints(self, t):
        with pytest.raises(PreconditionError, match="is not a pair") as info:
            edge_weight((1, 2, 3), t)
        assert len(str(info.value)) < 120

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cyclic_criterion_agrees(self, n):
        # edge exists iff every value between the swapped positions lies
        # strictly between the endpoint values read cyclically
        for w in all_permutations(n):
            for i, j in all_roots(n):
                expected = all(
                    cyclic_contains(
                        w[j - 1], w[i - 1], w[k - 1], n, include_a=False, include_b=False
                    )
                    for k in range(i + 1, j)
                )
                assert (edge_weight(w, (i, j)) is not None) == expected


class TestBuildGraph:
    def test_n3_figure(self):
        g = build_graph(3)
        assert g.edge_count() == 15
        weighted = {
            (e.source, e.target): e.exps for e in g.all_edges() if any(e.exps)
        }
        assert weighted == FIG1_WEIGHTED

    def test_n2(self):
        g = build_graph(2)
        edges = {(e.source, e.target, e.exps) for e in g.all_edges()}
        assert edges == {((1, 2), (2, 1), (0,)), ((2, 1), (1, 2), (1,))}

    def test_min_outdegree(self):
        for n in (2, 3, 4):
            g = build_graph(n)
            assert min(len(row) for row in g.out_adj) >= n - 1

    def test_n4_edge_count(self):
        # frozen from enumeration; the cyclic-criterion test cross-checks
        # the per-edge predicate independently
        assert build_graph(4).edge_count() == 104

    def test_weight_shapes(self):
        # an edge carries either the zero exponent or the indicator of the
        # positions between its root's endpoints
        for n in (2, 3, 4):
            for e in build_graph(n).all_edges():
                i, j = e.root
                indicator = tuple(1 if i <= p < j else 0 for p in range(1, n))
                assert e.exps in (zero_exponent(n), indicator)

    @pytest.mark.parametrize("n, error", [(0, PreconditionError), (8, ResourceLimitError)])
    def test_constructor_checks_n_before_listing_vertices(self, monkeypatch, n, error):
        def refused(n):
            raise AssertionError(f"vertices of S_{n} listed")

        monkeypatch.setattr(qbgraph, "all_permutations", refused)
        with pytest.raises(error):
            qbgraph.QuantumBruhatGraph(n, [])

    @pytest.mark.parametrize("edge", [
        ((1, 2, 3), (1, 2, 4), (2, 3), (0, 0)),
        ((1, 2), (2, 1), (1, 2), (0, 0)),
        ([1, 2, 3], (1, 3, 2), (2, 3), (0, 0)),
        ((1, 2, 3), tuple(range(100)), (2, 3), (0, 0)),
        ((1, 2, 3),),
        5,
    ])
    def test_constructor_refuses_what_is_not_an_edge_of_the_group(self, edge):
        with pytest.raises(PreconditionError, match=r"is not an edge .* of S_3$") as exc:
            qbgraph.QuantumBruhatGraph(3, [edge])
        assert len(str(exc.value)) < 150

    def test_trivial_group(self):
        g = build_graph(1)
        assert g.vertices == ((1,),)
        assert g.edge_count() == 0
        assert formula_weight((1,), (1,)) == ()
        assert monomial_str(()) == "1"

    def test_resource_bound(self):
        with pytest.raises(ResourceLimitError):
            build_graph(8)

    @pytest.mark.parametrize("n", [0, -2])
    def test_sizes_below_one_refused(self, n):
        with pytest.raises(PreconditionError, match=f"n >= 1, got n = {n}$"):
            build_graph(n)


def length_rule_edges(n):
    """Every edge by the single-root length rule: (w, w t, t, edge_weight(w, t))."""
    return {
        (w, apply_transposition(w, t), t, exps)
        for w in all_permutations(n)
        for t in all_roots(n)
        if (exps := edge_weight(w, t)) is not None
    }


class SelfIndex(dict):
    """A vertex index for sizes with no graph: each key is its own index."""

    def __missing__(self, key):
        return key


class TestScan:
    """The per-position scan that builds the graph against the length rule."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_edge_set_matches_the_length_rule(self, n):
        edges = {(e.source, e.target, e.root, e.exps) for e in build_graph(n).all_edges()}
        assert edges == length_rule_edges(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_adjacency_matches_the_length_rule(self, n):
        # the whole index array, row order included, not only the edge set
        g = build_graph(n)
        rows = [[] for _ in g.vertices]
        for source, target, root, exps in length_rule_edges(n):
            rows[g.index[source]].append((g.index[target], root, exps))
        assert tuple(g.out_adj) == tuple(tuple(sorted(row)) for row in rows)

    def test_n7_edge_count(self):
        assert build_graph(7).edge_count() == 56196

    def test_n7_adjacency_digest(self):
        # sha256 of repr(out_adj) as the per-edge builder, which looked up
        # both endpoints of every edge and sorted each row by key, wrote it
        digest = "951e6de671b9b4f92f01b0cf92e89cbcae72b4832b66470099202bc506429b33"
        assert hashlib.sha256(repr(tuple(build_graph(7).out_adj)).encode()).hexdigest() == digest

    @given(st.integers(8, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_scan_matches_the_length_rule_beyond_the_graph(self, word):
        # no graph is built at these sizes: the scan is checked vertex by
        # vertex, through an index that maps each neighbour to itself
        w, n = tuple(word), len(word)
        scanned = {t: (target, exps) for target, t, exps in qbgraph._out_edges(w, n, SelfIndex())}
        counted = {
            t: (apply_transposition(w, t), exps)
            for t in all_roots(n)
            if (exps := edge_weight(w, t)) is not None
        }
        assert scanned == counted

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_single_edge_queries_return_the_graph_tuples(self, n):
        g = build_graph(n)
        for e in g.all_edges():
            assert edge_weight(e.source, e.root) is e.exps
        held = {(e.source, e.target): e.exps for e in g.all_edges()}
        for u, v in _pairs(g, 20):
            for e in bfp_greedy_path(u, v):
                assert e.exps is held[(e.source, e.target)]


class TestRepresentation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rows_sorted_by_neighbour_index(self, n):
        g = build_graph(n)
        for row in g.out_adj:
            neighbours = [j for j, _, _ in row]
            assert neighbours == sorted(neighbours)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_all_edges_in_source_target_order(self, n):
        g = build_graph(n)
        pairs = [(e.source, e.target) for e in g.all_edges()]
        assert pairs == sorted(pairs)
        assert len(pairs) == g.edge_count()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exponent_tuples_are_interned(self, n):
        g = build_graph(n)
        distinct = {id(e) for row in g.out_adj for _, _, e in row}
        assert len(distinct) <= comb(n, 2) + 1

    @pytest.mark.parametrize("n, count", PAIR_SIZES)
    def test_oracle_matches_the_backward_rule(self, n, count):
        g = build_graph(n)
        reference = BackwardRule(g)
        for u, v in _pairs(g, count):
            walk = reference.walk(u, v)
            assert oracle_distance(g, u, v) == walk
            assert walk == (graph_distance(u, v), formula_weight(u, v))

    @pytest.mark.parametrize("n, count", PAIR_SIZES)
    def test_interval_matches_the_backward_rule(self, n, count):
        g = build_graph(n)
        reference = BackwardRule(g)
        for u, v in _pairs(g, count):
            ti = interval(u, v, g)
            assert ti.rank == reference.ranks(u, v)
            assert ti.members == frozenset(ti.rank)

    # Every edge of the quantum Bruhat graph changes the length by an odd
    # amount, so none joins two vertices of one BFS layer; a graph read from
    # JSON may have such an edge, between 132 and 312 here, in either
    # direction, so the test does not depend on the order a layer is visited.
    @pytest.mark.parametrize("inside", [((3, 1, 2), (1, 3, 2)), ((1, 3, 2), (3, 1, 2))])
    def test_interval_skips_an_edge_inside_a_bfs_layer(self, inside):
        a, d = (1, 2, 3), (2, 3, 1)
        x, y = inside
        g = qbgraph.QuantumBruhatGraph(
            3, [(s, t, (1, 2), (0, 0)) for s, t in [(a, x), (a, y), (x, y), (y, d)]]
        )
        ti = interval(a, d, g)
        assert ti.rank == BackwardRule(g).ranks(a, d) == {a: 0, y: 1, d: 2}
        assert oracle_distance(g, a, d) == BackwardRule(g).walk(a, d) == (2, (0, 0))

    def test_unreachable_end_is_refused(self):
        g = qbgraph.QuantumBruhatGraph(3, [((1, 2, 3), (1, 3, 2), (2, 3), (0, 0))])
        for route in (oracle_distance, lambda g, u, v: interval(u, v, g)):
            with pytest.raises(InternalInvariantError, match="not strongly connected"):
                route(g, (1, 3, 2), (1, 2, 3))

    def test_an_end_the_bfs_runs_out_before_is_refused(self):
        """The BFS from 123 reaches 132, 312 and 321 and runs out of vertices
        without finding 213."""
        edges = [((1, 2, 3), (1, 3, 2), (2, 3), (0, 0)), ((1, 3, 2), (3, 1, 2), (1, 2), (0, 0)),
                 ((3, 1, 2), (3, 2, 1), (2, 3), (0, 0)), ((3, 2, 1), (1, 2, 3), (1, 3), (1, 1))]
        g = qbgraph.QuantumBruhatGraph(3, edges)
        for route in (oracle_distance, lambda g, u, v: interval(u, v, g)):
            with pytest.raises(InternalInvariantError, match="not strongly connected"):
                route(g, (1, 2, 3), (2, 1, 3))


# every pair for n <= 5, seeded pairs at n = 6 and 7
ON_DEMAND_SIZES = [(1, None), (2, None), (3, None), (4, None), (5, None), (6, 60), (7, 12)]


@functools.lru_cache(maxsize=None)
def reference_graph(n):
    """The graph on S_n from the edge list of the length rule, rows in a
    tuple: built with no `_out_edges` scan."""
    return qbgraph.QuantumBruhatGraph(n, length_rule_edges(n))


def _queries(g, u, v):
    ti = interval(u, v, g)
    return ti, oracle_distance(g, u, v), hasse_export(ti, g, "dot"), hasse_export(ti, g, "json")


class TestRowsOnDemand:
    """The graph of `build_graph`, whose rows are scanned on first read,
    answers every query as the graph built from the length rule's edge list
    does, and a query from u to v reads only the rows of vertices nearer to
    u than v."""

    @pytest.mark.parametrize("n, count", ON_DEMAND_SIZES)
    def test_queries_match_the_built_graph(self, n, count):
        reference = reference_graph(n)
        for u, v in _pairs(reference, count):
            assert _queries(build_graph(n), u, v) == _queries(reference, u, v)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_iterating_readers_never_see_a_part_filled_graph(self, n):
        reference = reference_graph(n)
        g = build_graph(n)
        interval(g.vertices[0], g.vertices[min(1, n - 1)], g)  # fills one row
        ordering = reflection_ordering(next(iter(reduced_words_of_longest(n))))
        assert g.edge_count() == reference.edge_count()
        assert list(g.all_edges()) == list(reference.all_edges())
        for fmt in ("dot", "json"):
            assert export_graph(g, fmt) == export_graph(reference, fmt)
        assert list(increasing_path_lengths(g, ordering)) == list(
            increasing_path_lengths(reference, ordering))
        assert tuple(g.out_adj) == reference.out_adj

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_rows_are_stored_when_indexed_not_when_iterated(self, n):
        g = build_graph(n)
        assert tuple(g.out_adj) == reference_graph(n).out_adj
        assert list(g.out_adj.keys()) == []
        read = list(range(0, len(g.vertices), 2))
        rows = [g.out_adj[x] for x in read]
        assert sorted(g.out_adj.keys()) == read
        passed = tuple(g.out_adj)  # a later pass yields each stored row itself
        assert all(passed[x] is row for x, row in zip(read, rows))
        assert sorted(g.out_adj.keys()) == read

    def test_edge_count_of_a_fresh_graph_keeps_no_row(self):
        g = build_graph(7)
        assert g.edge_count() == 56196
        assert list(g.out_adj.keys()) == []

    def test_a_query_reads_only_the_rows_nearer_than_its_end(self, monkeypatch):
        built = reference_graph(7)
        scan, scanned = qbgraph._out_edges, []

        def counted(w, n, index):
            scanned.append(w)
            return scan(w, n, index)

        monkeypatch.setattr(qbgraph, "_out_edges", counted)
        near = ((1, 2, 3, 4, 5, 6, 7), (2, 1, 3, 4, 5, 6, 7))
        pairs = [(near[0], near[0]), near, *_pairs(built, 12)]
        for u, v in pairs:
            dist = built.distance_vector_from(u)
            d = dist[built.index[v]]
            nearer = {w for w, e in zip(built.vertices, dist) if e < d}
            for route in (oracle_distance, lambda g, u, v: interval(u, v, g)):
                scanned.clear()
                route(build_graph(7), u, v)
                assert sorted(scanned) == sorted(nearer)  # each row once, and only those
        assert len(nearer) < len(built.vertices)
        scanned.clear()
        interval(*near, build_graph(7))
        assert scanned == [near[0]]  # a near pair reads one row of 5,040

    def test_a_graph_is_freed_without_the_cyclic_collector(self):
        """The row store holds no reference back to its graph, so dropping
        the last reference frees the graph at once, rows and all."""
        gc.disable()
        try:
            g = build_graph(5)
            interval((1, 2, 3, 4, 5), (5, 4, 3, 2, 1), g)
            ref = weakref.ref(g)
            del g
            assert ref() is None
        finally:
            gc.enable()

    def test_threads_filling_one_graph_agree(self):
        reference = reference_graph(6)
        pairs = _pairs(reference, 20)
        expected = [interval(u, v, reference) for u, v in pairs]
        shared = build_graph(6)
        barrier = threading.Barrier(6, timeout=60)
        results = [None] * 6

        def worker(i):
            barrier.wait()
            order = pairs[::-1] if i % 2 else pairs
            found = {(u, v): interval(u, v, shared) for u, v in order}
            results[i] = [found[pair] for pair in pairs]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert all(r == expected for r in results)
        assert tuple(shared.out_adj) == reference.out_adj


class TestDistances:
    def test_oracle_example(self):
        g = build_graph(3)
        assert oracle_distance(g, (3, 2, 1), (2, 1, 3)) == (2, (1, 1))

    def test_oracle_reflexive(self):
        g = build_graph(3)
        assert oracle_distance(g, (1, 3, 2), (1, 3, 2)) == (0, (0, 0))

    @pytest.mark.parametrize("bad", [(1, 2), (1, 1, 2), [1, 2, 3], "123", ([1], 2, 3)])
    def test_bfs_refuses_a_non_vertex_source(self, bad):
        g = build_graph(3)
        with pytest.raises(PreconditionError, match="not a vertex"):
            g.distance_vector_from(bad)
        for u, v in [(bad, (2, 1, 3)), ((2, 1, 3), bad)]:
            with pytest.raises(PreconditionError, match="not a vertex"):
                oracle_distance(g, u, v)

    @pytest.mark.parametrize("bad", [(1, 2), [1, 2, 3]])
    def test_both_endpoints_are_checked_before_the_bfs(self, monkeypatch, bad):
        def no_bfs(*args):
            raise AssertionError("the BFS ran before the endpoints were checked")

        monkeypatch.setattr(qbgraph, "_bfs", no_bfs)
        monkeypatch.setattr(tiltedorder, "_bfs", no_bfs)
        g = build_graph(3)
        for u, v in [(bad, (2, 1, 3)), ((2, 1, 3), bad)]:
            for route in (oracle_distance, lambda g, u, v: interval(u, v, g)):
                with pytest.raises(PreconditionError, match="not a vertex"):
                    route(g, u, v)

    def test_weight_sets_find_the_source_by_its_distance(self):
        """Unreachable vertices carry distance -1 and sort before the source,
        so the source is the vertex at distance 0, not the first in order."""
        edges = [((1, 3, 2), (3, 1, 2), (1, 2), (0, 0)), ((3, 1, 2), (3, 2, 1), (2, 3), (0, 1)),
                 ((1, 2, 3), (1, 3, 2), (2, 3), (0, 0))]
        g = qbgraph.QuantumBruhatGraph(3, edges)
        dist = g.distance_vector_from((1, 3, 2))
        assert dist[0] == -1
        expected = {(1, 3, 2): {(0, 0)}, (3, 1, 2): {(0, 0)}, (3, 2, 1): {(0, 1)}}
        assert shortest_path_weight_sets(g, dist) == [
            frozenset(expected.get(w, ())) for w in g.vertices
        ]

    def test_formula_examples(self):
        assert formula_weight((3, 2, 1), (2, 1, 3)) == (1, 1)
        assert formula_weight((2, 1, 3), (2, 1, 3)) == (0, 0)
        u = parse_permutation("7364152")
        v = parse_permutation("2513746")
        assert formula_weight(u, v) == (1, 1, 2, 2, 1, 1)
        assert monomial_str(formula_weight(u, v)) == "q1*q2*q3^2*q4^2*q5*q6"

    def test_weight_sets_are_singletons(self):
        g = build_graph(3)
        for u in g.vertices:
            for weights in shortest_path_weight_sets(g, g.distance_vector_from(u)):
                assert len(weights) == 1

    def test_closed_form_distance(self):
        g = build_graph(3)
        for u in g.vertices:
            dist = g.distance_vector_from(u)
            for v in g.vertices:
                assert graph_distance(u, v) == dist[g.index[v]]

    def test_size_mismatch(self):
        with pytest.raises(PreconditionError):
            formula_weight((1, 2), (1, 2, 3))


class TestGreedyPath:
    def test_trivial(self):
        assert bfp_greedy_path((2, 1, 3), (2, 1, 3)) == []

    def test_small_pair_matches_oracle(self):
        g = build_graph(3)
        path = bfp_greedy_path((3, 2, 1), (2, 1, 3))
        assert len(path) == 2
        assert path_weight(path, 3) == (1, 1)

    def test_first_stage_table(self):
        # stage one of the n = 9 walk that moves 4 into the first position
        u = parse_permutation("657913428")
        v = parse_permutation("456791328")
        path = bfp_greedy_path(u, v)
        stage1 = [(e.root, e.exps) for e in path if e.root[0] == 1]
        assert [r for r, _ in stage1] == [(1, 3), (1, 4), (1, 5), (1, 6), (1, 7)]
        weights = [monomial_str(exps) for _, exps in stage1]
        assert weights == ["1", "1", "q1*q2*q3*q4", "1", "1"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_against_oracle(self, n):
        g = build_graph(n)
        for u in g.vertices:
            dist = g.distance_vector_from(u)
            for v in g.vertices:
                path = bfp_greedy_path(u, v)
                assert len(path) == dist[g.index[v]]
                assert path_weight(path, n) == formula_weight(u, v)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_checked_greedy_on_all_pairs(self, n):
        perms = list(all_permutations(n))
        for u in perms:
            for v in perms:
                assert bfp_greedy_path(u, v) == checked_greedy_path(u, v)

    def test_matches_checked_greedy_on_seeded_pairs_n6(self):
        rng = random.Random(6)
        perms = list(all_permutations(6))
        for _ in range(3000):
            u, v = rng.choice(perms), rng.choice(perms)
            assert bfp_greedy_path(u, v) == checked_greedy_path(u, v)

    @pytest.mark.parametrize("bad", [(1, 1, 2), (1, 2, 4), (0, 1, 2)])
    def test_rejects_non_permutations(self, bad):
        with pytest.raises(PreconditionError):
            bfp_greedy_path(bad, (1, 2, 3))
        with pytest.raises(PreconditionError):
            bfp_greedy_path((1, 2, 3), bad)


def lengths_between(g, ordering, u, v):
    return list(increasing_path_lengths(g, ordering))[g.index[u]][g.index[v]]


class TestIncreasingPaths:
    def test_empty_path(self):
        g = build_graph(3)
        ordering = reflection_ordering((1, 2, 1))
        assert lengths_between(g, ordering, (2, 1, 3), (2, 1, 3)) == [0]

    def test_unique_path(self):
        g = build_graph(3)
        ordering = reflection_ordering((1, 2, 1))
        lengths = lengths_between(g, ordering, (3, 2, 1), (1, 2, 3))
        assert len(lengths) == 1
        assert lengths[0] == oracle_distance(g, (3, 2, 1), (1, 2, 3))[0]

    def test_invalid_ordering(self):
        g = build_graph(3)
        with pytest.raises(PreconditionError):
            increasing_path_lengths(g, ((1, 3), (1, 2), (2, 3)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lengths_are_those_of_the_listed_paths(self, n):
        g = build_graph(n)
        for word in reduced_words_of_longest(n):
            ordering = reflection_ordering(word)
            for u, lengths in zip(g.vertices, increasing_path_lengths(g, ordering)):
                listed = increasing_paths_from(g, u, ordering)
                for v, found in zip(g.vertices, lengths):
                    assert sorted(found) == sorted(map(len, listed.get(v, [])))


def old_edge_dot(e):
    return (
        f'  "{format_permutation(e.source)}" -> '
        f'"{format_permutation(e.target)}" '
        f'[weight="{monomial_str(e.exps)}"];'
    )


def old_edge_record(e):
    return {
        "source": format_permutation(e.source),
        "target": format_permutation(e.target),
        "root": list(e.root),
        "exps": list(e.exps),
    }


def old_export_graph(g, fmt):
    """The exporter that formatted both labels of every edge anew."""
    if fmt == "dot":
        lines = ["digraph qbg {"]
        for w in g.vertices:
            lines.append(f'  "{format_permutation(w)}";')
        lines.extend(map(old_edge_dot, g.all_edges()))
        lines.append("}")
        return "\n".join(lines) + "\n"
    payload = {
        "n": g.n,
        "vertices": [format_permutation(w) for w in g.vertices],
        "edges": [old_edge_record(e) for e in g.all_edges()],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def old_hasse_export(ti, g, fmt):
    edges = cover_edges(g, ti.rank)
    if fmt == "dot":
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for r in range(ti.length + 1):
            row = sorted(w for w in ti.members if ti.rank[w] == r)
            names = " ".join(f'"{format_permutation(w)}";' for w in row)
            lines.append(f"  {{ rank=same; {names} }}")
        lines.extend(map(old_edge_dot, edges))
        lines.append("}")
        return "\n".join(lines) + "\n"
    payload = {
        "bottom": format_permutation(ti.bottom),
        "top": format_permutation(ti.top),
        "length": ti.length,
        "members": [
            {"perm": format_permutation(w), "rank": ti.rank[w]} for w in sorted(ti.members)
        ],
        "edges": [old_edge_record(e) for e in edges],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestExport:
    @pytest.mark.parametrize("fmt", ["dot", "json"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_bytes_match_the_per_edge_writer(self, n, fmt):
        g = build_graph(n)
        assert export_graph(g, fmt) == old_export_graph(g, fmt)

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_hasse_bytes_match_the_per_edge_writer(self, fmt):
        g = build_graph(4)
        for u, v in _pairs(g, 40):
            ti = interval(u, v, g)
            assert hasse_export(ti, g, fmt) == old_hasse_export(ti, g, fmt)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    def test_hasse_json_matches_the_encoder(self, n):
        g = build_graph(n)
        for u, v in _pairs(g, 40):
            ti = interval(u, v, g)
            assert hasse_export(ti, g, "json") == old_hasse_export(ti, g, "json")

    def test_dot_counts(self):
        text = export_graph(build_graph(3), "dot")
        edge_lines = [ln for ln in text.splitlines() if "->" in ln]
        assert len(edge_lines) == 15
        assert sum('weight="1"' not in ln for ln in edge_lines) == 7

    def test_dot_n2(self):
        text = export_graph(build_graph(2), "dot")
        assert '"12" -> "21" [weight="1"];' in text
        assert '"21" -> "12" [weight="q1"];' in text

    def test_json_roundtrip(self):
        g = build_graph(3)
        text = export_graph(g, "json")
        assert json.loads(text)["n"] == 3
        g2 = graph_from_json(text)
        original = {(e.source, e.target, e.root, e.exps) for e in g.all_edges()}
        recovered = {(e.source, e.target, e.root, e.exps) for e in g2.all_edges()}
        assert original == recovered

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_json_roundtrip_keeps_the_adjacency(self, n):
        g = build_graph(n)
        assert graph_from_json(export_graph(g, "json")).out_adj == tuple(g.out_adj)

    def test_unknown_format(self):
        with pytest.raises(PreconditionError):
            export_graph(build_graph(2), "xml")

    def test_unknown_format_refused_before_any_label_is_written(self, monkeypatch):
        calls = []

        def counted(w):
            calls.append(w)
            return format_permutation(w)

        def no_covers(g, rank):
            raise AssertionError("cover rows read for a refused format")

        for module in (qbgraph, tiltedorder):
            monkeypatch.setattr(module, "format_permutation", counted)
        monkeypatch.setattr(tiltedorder, "_cover_rows", no_covers)
        g = build_graph(7)
        ti = interval(g.vertices[0], g.vertices[-1], g)
        with pytest.raises(PreconditionError, match="unknown format 'xml'"):
            export_graph(g, "xml")
        with pytest.raises(PreconditionError, match="unknown format 'xml'"):
            hasse_export(ti, g, "xml")
        assert calls == []


def json_export_with(change):
    """The JSON export of the graph on S_3 with its payload passed through `change`."""
    payload = json.loads(export_graph(build_graph(3), "json"))
    change(payload)
    return json.dumps(payload)


def set_first_edge(field, value):
    return lambda payload: payload["edges"][0].update({field: value})


class TestGraphFromJson:
    @pytest.mark.parametrize("n", ["3", 3.0, True, 0, -1, None])
    def test_n_must_be_a_positive_int(self, n):
        with pytest.raises(ParseError, match="malformed graph JSON: n .* is not an int >= 1$"):
            graph_from_json(json_export_with(lambda payload: payload.update(n=n)))

    @pytest.mark.parametrize("n", [8, 9, 10 ** 6])
    def test_n_above_the_bound_refused_before_any_vertex_is_listed(self, monkeypatch, n):
        text = json_export_with(lambda payload: payload.update(n=n))
        monkeypatch.setattr(qbgraph, "all_permutations", None)
        with pytest.raises(ResourceLimitError, match=f"n <= {qbgraph.MAX_GRAPH_N}"):
            graph_from_json(text)

    @pytest.mark.parametrize("change", [
        set_first_edge("target", "1234"),
        set_first_edge("source", 123),
        set_first_edge("root", [1, 4]),
        set_first_edge("root", [1.0, 2]),
        set_first_edge("root", "12"),
        set_first_edge("exps", [1]),
        set_first_edge("exps", [1, -1]),
        set_first_edge("exps", [1, True]),
    ])
    def test_malformed_edges_refused(self, change):
        with pytest.raises(ParseError, match="malformed graph JSON: .* is not an edge of S_3$"):
            graph_from_json(json_export_with(change))

    @pytest.mark.parametrize("change, message", [
        (set_first_edge("source", "122"), "duplicate value 2"),
        (lambda payload: payload["edges"][0].pop("root"), "malformed graph JSON: 'root'"),
        (lambda payload: payload.update(edges=7), "malformed graph JSON"),
    ])
    def test_unreadable_edges_refused(self, change, message):
        with pytest.raises(ParseError, match=message):
            graph_from_json(json_export_with(change))

    @pytest.mark.parametrize("text", ["[]", "{", "[" * 100000])
    def test_malformed_documents_refused(self, text):
        with pytest.raises(ParseError, match="malformed graph JSON"):
            graph_from_json(text)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
    @pytest.mark.parametrize("change", [
        lambda payload: payload.update(n="BIG"),
        set_first_edge("exps", [1, "BIG"]),
        lambda payload: payload.update(ignored="BIG"),
    ])
    def test_an_int_past_the_digit_limit_is_a_parse_error(self, change):
        # the JSON decoder refuses such an int with a plain ValueError
        text = json_export_with(change).replace('"BIG"', "9" * 5000)
        with pytest.raises(ParseError, match="^malformed graph JSON: Exceeds the limit") as info:
            graph_from_json(text)
        assert len(str(info.value)) < 200


def test_monomial_text():
    assert monomial_str(zero_exponent(4)) == "1"
    assert monomial_str((1, 0, 2)) == "q1*q3^2"
