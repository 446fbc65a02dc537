import hashlib
import json
import random
from itertools import combinations, product

import pytest

from qbg import qbgraph
from qbg.errors import InternalInvariantError, PreconditionError
from qbg.latticepath import _pair_table, depth, shifted_gale_leq, valid_shifts
from qbg.permcore import (
    all_permutations,
    identity,
    longest_element,
    parse_permutation,
    prefix_set,
    value_mask,
)
from qbg.qbgraph import QuantumBruhatGraph, build_graph, edge_weight, graph_distance
from qbg.suites import _FIGURE_D132_EDGES, _sorting_table, base_poset_hasse
from qbg.tiltedorder import (
    admissible_nodes,
    hasse_export,
    interval,
    interval_member_set,
    interval_members_criterion,
    interval_nodes,
    tilted_leq,
)

import oracles
from oracles import cover_edges


def bruhat_leq(u, v):
    """Prefix dominance: the classical strong-order comparison."""
    n = len(u)
    for k in range(1, n):
        if any(a > b for a, b in zip(sorted(u[:k]), sorted(v[:k]))):
            return False
    return True


@pytest.fixture(scope="module")
def g3():
    return build_graph(3)


@pytest.fixture(scope="module")
def g4():
    return build_graph(4)


class TestTiltedLeq:
    def test_figure_chain(self, g3):
        base = (1, 3, 2)
        assert tilted_leq(base, (2, 3, 1), (3, 2, 1), g3)
        assert tilted_leq(base, base, (3, 2, 1), g3)

    def test_reflexive(self, g3):
        for u in g3.vertices:
            assert tilted_leq(u, u, u, g3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_identity_base_is_bruhat_order(self, n):
        g = build_graph(n)
        e = identity(n)
        for w in g.vertices:
            for v in g.vertices:
                assert tilted_leq(e, w, v, g) == bruhat_leq(w, v)

    @pytest.mark.parametrize("bad", [(1, 1, 2), (1, 2), (1, 2, 3, 4), (0, 1, 2), [1, 2, 3]])
    def test_refuses_a_non_vertex(self, g3, bad):
        e, w0 = (1, 2, 3), (3, 2, 1)
        for args in [(bad, e, w0), (e, bad, w0), (e, w0, bad)]:
            with pytest.raises(PreconditionError, match="not a vertex"):
                tilted_leq(*args, g3)

    def test_unreachable_vertex_is_refused(self):
        # 123 -> 132 is the only edge, so 123 cannot be reached from 132;
        # the distances then read -1 + 0 == -1
        g = QuantumBruhatGraph(3, [((1, 2, 3), (1, 3, 2), (2, 3), (0, 0))])
        with pytest.raises(InternalInvariantError, match="not strongly connected"):
            tilted_leq((1, 3, 2), (1, 2, 3), (1, 2, 3), g)


class TestCriteria:
    def test_example_membership(self):
        u = parse_permutation("263145")
        v = parse_permutation("465123")
        x = parse_permutation("265143")
        assert interval_members_criterion(u, v, x, "exists_shift")
        assert interval_members_criterion(u, v, x, "all_shifts")

    def test_endpoints(self):
        u, v = (1, 3, 2), (3, 2, 1)
        for w in (u, v):
            assert interval_members_criterion(u, v, w, "exists_shift")
            assert interval_members_criterion(u, v, w, "all_shifts")

    def test_non_member(self, g3):
        u, v, w = (1, 3, 2), (3, 2, 1), (1, 2, 3)
        assert not tilted_leq(u, u, w, g3) or not tilted_leq(u, w, v, g3)
        assert not interval_members_criterion(u, v, w, "exists_shift")

    @pytest.mark.parametrize("mode", ["exists_shift", "all_shifts"])
    @pytest.mark.parametrize("w", [(2, 1), (1, 2, 3, 4), (1, 2, 4)])
    def test_both_modes_reject_a_bad_w(self, mode, w):
        with pytest.raises(PreconditionError):
            interval_members_criterion((1, 2, 3), (3, 2, 1), w, mode)

    def test_unknown_mode(self):
        with pytest.raises(Exception):
            interval_members_criterion((1, 2), (2, 1), (1, 2), "sometimes")

    def test_exhaustive_equivalence_n3(self, g3):
        for u in g3.vertices:
            dist_u = g3.distance_vector_from(u)
            for j, v in enumerate(g3.vertices):
                for k, w in enumerate(g3.vertices):
                    by_len = (
                        dist_u[k] + g3.distance_vector_from(w)[j] == dist_u[j]
                    )
                    assert by_len == interval_members_criterion(u, v, w, "all_shifts")
                    assert by_len == interval_members_criterion(u, v, w, "exists_shift")

    def test_seeded_equivalence_n4(self, g4):
        rng = random.Random(4)
        dist = {u: g4.distance_vector_from(u) for u in g4.vertices}
        for _ in range(2000):
            u, v, w = (rng.choice(g4.vertices) for _ in range(3))
            by_len = dist[u][g4.index[w]] + dist[w][g4.index[v]] == dist[u][g4.index[v]]
            assert by_len == tilted_leq(u, w, v, g4)
            assert by_len == interval_members_criterion(u, v, w, "all_shifts")
            assert by_len == interval_members_criterion(u, v, w, "exists_shift")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_suite_shift_tables_match_both_routes(n):
    """The tables per pair of prefix sets: the pair table's paths are
    valid_shifts and its depths the path's depth, and the suites' sorting
    table is the shifts passing the Gale test."""
    paths, depths = _pair_table(n)
    sorting = _sorting_table(paths, n)
    universe = range(1, n + 1)
    keys = set()
    for k in range(1, n):
        for A, B in product(combinations(universe, k), repeat=2):
            key = value_mask(A) << n | value_mask(B)
            keys.add(key)
            assert paths[key] == valid_shifts(A, B, n)
            assert sorting[key] == {r for r in universe if shifted_gale_leq(A, B, r, n)}
            assert depths[key] == depth(A, B, n)
    assert set(paths) == set(sorting) == set(depths) == keys
    # one object per distinct shift set
    tables = [*paths.values(), *sorting.values()]
    assert len(set(map(id, tables))) == len(set(tables))


class TestInterval:
    @pytest.mark.parametrize("bad", [(1, 1, 2), (1, 2), (1, 2, 3, 4), [1, 2, 3]])
    def test_refuses_a_non_vertex(self, g3, bad):
        for u, v in [(bad, (2, 1, 3)), ((2, 1, 3), bad)]:
            with pytest.raises(PreconditionError, match="not a vertex"):
                interval(u, v, g3)

    def test_point(self, g3):
        ti = interval((2, 1, 3), (2, 1, 3), g3)
        assert ti.members == {(2, 1, 3)}
        assert ti.length == 0

    def test_figure_interval(self, g3):
        ti = interval((1, 3, 2), (3, 2, 1), g3)
        assert ti.members == {(1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)}
        assert sorted(ti.rank.values()) == [0, 1, 1, 2]

    @pytest.mark.parametrize("n", [3, 4])
    def test_whole_group(self, n):
        g = build_graph(n)
        ti = interval(identity(n), longest_element(n), g)
        assert len(ti.members) == len(g.vertices)

    def test_contains_coatom_example(self):
        # checked without a graph: n = 6 membership via the shift criterion
        members = interval_member_set(
            parse_permutation("263145"), parse_permutation("465123")
        )
        assert parse_permutation("265143") in members

    @pytest.mark.parametrize("n", [3, 4])
    def test_gradedness(self, n):
        g = build_graph(n)
        pairs = [(u, v) for u in list(g.vertices)[:6] for v in list(g.vertices)[-6:]]
        for u, v in pairs:
            ti = interval(u, v, g)
            covers = cover_edges(g, ti.rank)
            for w in ti.members:
                if ti.rank[w] < ti.length:
                    assert any(e.source == w for e in covers)

    def test_base_independence_n3(self, g3):
        for w in g3.vertices:
            for v in g3.vertices:
                reference = interval(w, v, g3).members
                for base in g3.vertices:
                    if tilted_leq(base, w, v, g3):
                        via_base = {
                            x
                            for x in g3.vertices
                            if tilted_leq(base, w, x, g3) and tilted_leq(base, x, v, g3)
                        }
                        assert via_base == reference

    def test_base_independence_n4_sampled(self, g4):
        rng = random.Random(0)
        verts = list(g4.vertices)
        for _ in range(30):
            w, v = rng.choice(verts), rng.choice(verts)
            reference = interval(w, v, g4).members
            bases = [b for b in verts if tilted_leq(b, w, v, g4)]
            for base in rng.sample(bases, min(4, len(bases))):
                via_base = {
                    x
                    for x in g4.vertices
                    if tilted_leq(base, w, x, g4) and tilted_leq(base, x, v, g4)
                }
                assert via_base == reference

    def test_cor_chain_inheritance(self, g4):
        # sampled pairs: every subinterval endpoint pair stays comparable
        # under every shift sequence valid for the ambient pair
        pairs = [((4, 3, 2, 1), (3, 1, 4, 2)), ((2, 1, 4, 3), (4, 3, 2, 1))]
        for u, v in pairs:
            members = interval_member_set(u, v)
            total = graph_distance(u, v)
            per_col = [
                sorted(valid_shifts(prefix_set(u, k), prefix_set(v, k), 4))
                for k in range(1, 4)
            ]
            nested = [
                (x, y)
                for x in members
                for y in members
                if graph_distance(u, x) + graph_distance(x, y) + graph_distance(y, v)
                == total
            ]
            for a in product(*per_col):
                for x, y in nested:
                    for k in range(1, 4):
                        assert shifted_gale_leq(
                            prefix_set(x, k), prefix_set(y, k), a[k - 1], 4
                        )


def walked_member_set(u, v):
    """[u, v] by filtering all of S_n through the exists_shift criterion:
    how interval_member_set found it before it walked chains."""
    return frozenset(
        w
        for w in all_permutations(len(u))
        if interval_members_criterion(u, v, w, "exists_shift")
    )


class TestChainEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_walk_on_all_pairs(self, n):
        perms = list(all_permutations(n))
        for u in perms:
            for v in perms:
                assert interval_member_set(u, v) == walked_member_set(u, v)

    @pytest.mark.parametrize("n, count", [(5, 40), (6, 6)])
    def test_matches_the_walk_on_seeded_pairs(self, n, count):
        rng = random.Random(n)
        perms = list(all_permutations(n))
        pairs = [(identity(n), longest_element(n))]
        pairs += [(rng.choice(perms), rng.choice(perms)) for _ in range(count)]
        for u, v in pairs:
            assert interval_member_set(u, v) == walked_member_set(u, v)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_admissible_nodes_pass_every_shift(self, n):
        # node by node, against the sorting route under every shift valid
        # for the column (the all_shifts reading of the same test)
        perms = list(all_permutations(n))
        for u in perms:
            for v in perms:
                nodes = admissible_nodes(u, v)
                for k in range(n + 1):
                    u_k, v_k = prefix_set(u, k), prefix_set(v, k)
                    shifts = valid_shifts(u_k, v_k, n)
                    for S in combinations(range(1, n + 1), k):
                        expected = all(
                            shifted_gale_leq(u_k, S, r, n) and shifted_gale_leq(S, v_k, r, n)
                            for r in shifts
                        )
                        assert bool(nodes >> value_mask(S) & 1) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_admissible_nodes_match_the_walk_on_all_pairs(self, n):
        perms = list(all_permutations(n))
        for u in perms:
            for v in perms:
                assert admissible_nodes(u, v) == oracles.admissible_nodes(u, v)

    @pytest.mark.parametrize("n", [6, 7])
    def test_admissible_nodes_match_the_walk_on_seeded_pairs(self, n):
        rng = random.Random(n)
        perms = list(all_permutations(n))
        pairs = [(identity(n), longest_element(n)), (longest_element(n), identity(n))]
        pairs += [(rng.choice(perms), rng.choice(perms)) for _ in range(500)]
        for u, v in pairs:
            assert admissible_nodes(u, v) == oracles.admissible_nodes(u, v)

    def test_admissible_nodes_reject_bad_pairs(self):
        for u, v in [((1, 1, 2), (1, 2, 3)), ((1, 2, 3), (2, 1))]:
            with pytest.raises(PreconditionError):
                admissible_nodes(u, v)


def chain_nodes(members):
    """The OR over the members w of their chains of prefix sets, k = 0..n."""
    return sum({1 << value_mask(w[:k]) for w in members for k in range(len(w) + 1)})


def assert_nodes_name_intervals(pairs):
    """interval_nodes is the chain OR of the members, and two pairs share
    their node set exactly when they share their member set; returns how
    many pairs have admissible nodes off every full chain."""
    by_nodes, by_members = {}, {}
    pruned = 0
    for u, v in pairs:
        members, nodes = interval_member_set(u, v), interval_nodes(u, v)
        assert nodes == chain_nodes(members)
        by_nodes.setdefault(nodes, set()).add(members)
        by_members.setdefault(members, set()).add(nodes)
        pruned += nodes != admissible_nodes(u, v)
    assert all(len(found) == 1 for found in by_nodes.values())
    assert all(len(found) == 1 for found in by_members.values())
    return pruned


class TestIntervalNodes:
    @pytest.mark.parametrize("n, pruned", [(1, 0), (2, 0), (3, 6), (4, 224)])
    def test_name_the_interval_on_all_pairs(self, n, pruned):
        perms = list(all_permutations(n))
        assert assert_nodes_name_intervals(product(perms, perms)) == pruned

    def test_raw_admissible_nodes_would_split_member_sets(self):
        # why the pruning is needed: keyed by admissible_nodes, 142 of the
        # 321 member sets at n = 4 would fall into more than one class
        keys = {}
        for u, v in product(all_permutations(4), repeat=2):
            keys.setdefault(interval_member_set(u, v), set()).add(admissible_nodes(u, v))
        assert (len(keys), sum(len(found) > 1 for found in keys.values())) == (321, 142)

    @pytest.mark.parametrize("n, count", [(5, 3), (6, 1)])
    def test_name_the_interval_on_the_subintervals_of_seeded_pairs(self, n, count):
        # the nested pairs (x, y) of seeded pairs and their reverses (y, x),
        # which often share a member set with another pair, so that the
        # "only if" direction is tested, not just the "if"
        rng = random.Random(n)
        perms = list(all_permutations(n))
        pairs = []
        for u, v in [(rng.choice(perms), rng.choice(perms)) for _ in range(count)]:
            for x in sorted(interval_member_set(u, v)):
                for y in sorted(interval_member_set(x, v)):
                    pairs += [(x, y), (y, x)]
        assert assert_nodes_name_intervals(pairs) > 0
        assert len({interval_nodes(x, y) for x, y in pairs}) < len(pairs)


def old_hasse_edges(ti):
    """Covers by the definition: member pairs one rank apart that differ by
    a transposition which is a graph edge, as (source, target, root, exps)."""
    edges = []
    for w in sorted(ti.members):
        for x in sorted(ti.members):
            if ti.rank[x] != ti.rank[w] + 1:
                continue
            diff = [p for p in range(1, len(w) + 1) if w[p - 1] != x[p - 1]]
            if len(diff) != 2:
                continue
            exps = edge_weight(w, tuple(diff))
            if exps is not None:
                edges.append((w, x, tuple(diff), exps))
    return edges


class TestHasse:
    @pytest.mark.parametrize("n", [3, 4])
    def test_cover_edges_match_the_definition(self, n):
        g = build_graph(n)
        for u in g.vertices:
            for v in g.vertices:
                ti = interval(u, v, g)
                assert cover_edges(g, ti.rank) == old_hasse_edges(ti)

    def test_covers_of_the_full_interval_are_the_up_edges(self):
        g = build_graph(5)
        ti = interval(identity(5), longest_element(5), g)
        covers = {(e.source, e.target) for e in cover_edges(g, ti.rank)}
        up = {(e.source, e.target) for e in g.all_edges() if not any(e.exps)}
        assert covers == up

    def test_figure_poset(self, g3):
        assert base_poset_hasse(g3, g3.distance_vector_from((1, 3, 2))) == _FIGURE_D132_EDGES

    def test_export_dot(self, g3):
        ti = interval((1, 3, 2), (3, 2, 1), g3)
        text = hasse_export(ti, g3, "dot")
        assert text.count("->") == 4
        assert '"132"' in text

    def test_export_json(self, g3):
        ti = interval((1, 3, 2), (3, 2, 1), g3)
        payload = json.loads(hasse_export(ti, g3, "json"))
        assert payload["length"] == 2
        assert len(payload["members"]) == 4
        assert len(payload["edges"]) == 4

    def test_point_export(self, g3):
        ti = interval((3, 1, 2), (3, 1, 2), g3)
        payload = json.loads(hasse_export(ti, g3, "json"))
        assert payload["members"] == [{"perm": "312", "rank": 0}]
        assert payload["edges"] == []

    def test_bruhat_interval_matches_classical_covers(self, g3):
        ti = interval(identity(3), longest_element(3), g3)
        covers = {(e.source, e.target) for e in cover_edges(g3, ti.rank)}
        classical = set()
        for w in all_permutations(3):
            for x in all_permutations(3):
                lw = sum(a > b for i, a in enumerate(w) for b in w[i + 1 :])
                lx = sum(a > b for i, a in enumerate(x) for b in x[i + 1 :])
                if lx == lw + 1 and bruhat_leq(w, x):
                    classical.add((w, x))
        assert covers == classical

    def test_edges_are_graph_edges(self, g3):
        ti = interval((1, 3, 2), (3, 2, 1), g3)
        for e in cover_edges(g3, ti.rank):
            assert edge_weight(e.source, e.root) == e.exps

    # sha256 of the exports as written when each cover edge formatted its own monomial
    @pytest.mark.parametrize("u, v, fmt, digest", [
        ("463152", "215634", "dot",
         "58473a7c67e36b3d1e62ba8e38732b5b2d3370593876d85512b324bbb743b272"),
        ("463152", "215634", "json",
         "56adf28e61fefe29423bb7fdc327c7db708da06843f99bdca3b35e9c40a09f2c"),
        ("1234567", "7654321", "dot",
         "9e4bbb3162a1e9f4d29b262db9a16e24c657bea9836412cdcbfa0525bcf3aa93"),
        ("1234567", "7654321", "json",
         "744833ae0776aa218a4bcc3158f7761a0a6d66efe9d98b8e15bad140d7c62365"),
    ])
    def test_exports_keep_their_pinned_bytes(self, u, v, fmt, digest):
        u, v = parse_permutation(u), parse_permutation(v)
        g = build_graph(len(u))
        text = hasse_export(interval(u, v, g), g, fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("u, v, distinct", [
        ("463152", "215634", 16),
        ("1234567", "7654321", 1),
    ])
    def test_dot_formats_each_distinct_monomial_once(self, monkeypatch, u, v, distinct):
        """Once 33,984 calls for (id, w0) at n = 7, one per cover edge."""
        u, v = parse_permutation(u), parse_permutation(v)
        g = build_graph(len(u))
        ti = interval(u, v, g)
        formatted, monomial_str = [], qbgraph.monomial_str

        def counted(exps):
            formatted.append(exps)
            return monomial_str(exps)

        monkeypatch.setattr(qbgraph, "monomial_str", counted)
        hasse_export(ti, g, "dot")
        assert sorted(formatted) == sorted({e.exps for e in cover_edges(g, ti.rank)})
        assert len(formatted) == distinct
