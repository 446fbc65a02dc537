import json
import random
from itertools import product
from math import comb

import pytest

from qbg.diagrams import (
    EquationSet,
    PluckerEquation,
    _ledger,
    _ledger_column,
    coatom_positions,
    equation_str,
    equations,
    equations_to_json,
    equations_with_x,
    find_flat,
    is_flat,
    render_diagram,
    signed_sorted_insert,
    tilted_rothe,
)
from qbg.errors import PreconditionError
from qbg.latticepath import prefix_paths
from qbg.permcore import (
    all_permutations,
    identity,
    longest_element,
    parse_permutation,
    prefix_set,
)
from qbg.qbgraph import build_graph, graph_distance
from qbg.tiltedorder import interval

from oracles import inverse, shifted_less

BAD_PAIRS = [
    ((2, 2, 2), (2, 2, 2), "not a permutation"),
    ((1, 2, 3), (1, 2, 4), "not a permutation"),
    ((1, 2, 3), (1, 2, 3, 4), "same size"),
]


def rothe_cells_by_definition(w, a, down):
    """Cells (i, k) with w^{-1}(i) > k and i below (down) or above (up) w_k
    in the shifted order with minimum a_k, found by scanning every row."""
    n = len(w)
    w_inv = inverse(w)
    cells = set()
    for k in range(1, n):
        r = a[k - 1]
        wk_rank = (w[k - 1] - r) % n
        for i in range(1, n + 1):
            if w_inv[i - 1] <= k:
                continue
            i_rank = (i - r) % n
            if i_rank < wk_rank if down else i_rank > wk_rank:
                cells.add((i, k))
    return cells


def sorted_ledger(u, v, a):
    """Reference ledger: one equation per cell with a freshly built prefix
    set, down cells then up cells, sorted into (column, cell, origin) order
    at the end."""
    eqs = []
    for w, down, origin in ((u, True, "down"), (v, False, "up")):
        for i, k in sorted(rothe_cells_by_definition(w, a, down), key=lambda c: (c[1], c[0])):
            subset, sign = signed_sorted_insert(prefix_set(w, k - 1), i)
            eqs.append(PluckerEquation("vanish", k, (i, k), origin, (subset,), (sign,)))
    eqs.sort(key=lambda e: (e.column, e.cell, e.origin))
    return EquationSet(u, v, tuple(a), None, tuple(eqs))


def valid_shift_sequences(u, v):
    return list(product(*(sorted(shifts) for _, shifts in prefix_paths(u, v))))


class TestFlat:
    def test_equal_pair(self):
        for a in [(1, 1, 1), (3, 2, 4), (4, 4, 4)]:
            assert is_flat((2, 4, 1, 3), (2, 4, 1, 3), a)

    def test_example_n6(self):
        u = parse_permutation("263145")
        v = parse_permutation("465123")
        assert is_flat(u, v, (2, 2, 2, 6, 6))

    def test_not_flat(self):
        # (4,2,2) compares all prefixes of the pair but fails the k = 2
        # one-shorter condition: {4} is not below {3} once 2 is smallest
        assert not is_flat((4, 3, 2, 1), (3, 1, 4, 2), (4, 2, 2))

    @pytest.mark.parametrize("u, v, message", BAD_PAIRS)
    def test_rejects_non_permutations(self, u, v, message):
        with pytest.raises(PreconditionError, match=message):
            is_flat(u, v, (1, 1))

    def test_find_flat_equal(self):
        assert find_flat((3, 1, 2), (3, 1, 2)) == (1, 1)

    def test_find_flat_bruhat(self):
        assert find_flat(identity(5), longest_element(5)) == (1, 1, 1, 1)

    def test_find_flat_paper_pair(self):
        a = find_flat((4, 3, 2, 1), (3, 1, 4, 2))
        assert a == (4, 4, 2)
        assert is_flat((4, 3, 2, 1), (3, 1, 4, 2), a)

    @pytest.mark.parametrize("n", [3, 4])
    def test_find_flat_always_flat(self, n):
        for u in all_permutations(n):
            for v in all_permutations(n):
                assert is_flat(u, v, find_flat(u, v))

    def test_flat_descends_to_subintervals(self):
        g = build_graph(4)
        for u, v in [((4, 3, 2, 1), (3, 1, 4, 2)), ((2, 1, 3, 4), (1, 4, 2, 3))]:
            a = find_flat(u, v)
            ti = interval(u, v, g)
            for x in ti.members:
                for y in ti.members:
                    if (
                        graph_distance(u, x)
                        + graph_distance(x, y)
                        + graph_distance(y, v)
                        == ti.length
                    ):
                        assert is_flat(x, y, a)


class TestDiagrams:
    def test_figure_down(self):
        assert tilted_rothe((4, 3, 2, 1), (4, 4, 2), "down") == {(1, 2), (2, 2)}

    def test_figure_up(self):
        assert tilted_rothe((3, 1, 4, 2), (4, 4, 2), "up") == {(2, 2)}

    def test_identity_empty(self):
        assert tilted_rothe(identity(4), (1, 1, 1), "down") == frozenset()

    def test_plain_cut_is_rothe_diagram_of_inverse(self):
        for w in all_permutations(4):
            cells = tilted_rothe(w, (1, 1, 1), "down")
            w_inv = inverse(w)
            classical = {
                (i, k)
                for i in range(1, 5)
                for k in range(1, 5)
                if w_inv[i - 1] > k and w[k - 1] > i
            }
            assert cells == classical

    def test_bad_kind(self):
        with pytest.raises(PreconditionError):
            tilted_rothe((2, 1), (1,), "left")

    @pytest.mark.parametrize("w", [(2, 2, 2), (1, 2, 4), (0, 1, 2)])
    @pytest.mark.parametrize("kind", ["down", "up"])
    def test_rejects_non_permutations(self, w, kind):
        with pytest.raises(PreconditionError, match="not a permutation"):
            tilted_rothe(w, (1, 1), kind)

    @pytest.mark.parametrize("a", [(8, 6, 6), (4, 2, 0), (5, 1, 1)])
    @pytest.mark.parametrize("kind", ["down", "up"])
    def test_rejects_shifts_out_of_range(self, a, kind):
        with pytest.raises(PreconditionError):
            tilted_rothe((4, 3, 2, 1), a, kind)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_definition_for_every_shift_sequence(self, n):
        for w in all_permutations(n):
            w_inv = inverse(w)
            later = [(i, k) for k in range(1, n) for i in range(1, n + 1) if w_inv[i - 1] > k]
            for a in product(range(1, n + 1), repeat=n - 1):
                down = {(i, k) for i, k in later if shifted_less(a[k - 1], i, w[k - 1], n)}
                up = {(i, k) for i, k in later if shifted_less(a[k - 1], w[k - 1], i, n)}
                assert tilted_rothe(w, a, "down") == down
                assert tilted_rothe(w, a, "up") == up

    @pytest.mark.parametrize("n", [4, 5])
    def test_equal_pair_column_counts(self, n):
        rng = random.Random(n)
        for w in [identity(n), longest_element(n)]:
            a = tuple(rng.randint(1, n) for _ in range(n - 1))
            cells = [*tilted_rothe(w, a, "down"), *tilted_rothe(w, a, "up")]
            for k in range(1, n):
                assert sum(1 for cell in cells if cell[1] == k) == n - k


class TestEquations:
    def test_figure_ledger(self):
        es = equations((4, 3, 2, 1), (3, 1, 4, 2), (4, 4, 2))
        assert len(es) == 3
        subsets = {eq.subsets[0] for eq in es.equations}
        assert subsets == {frozenset({1, 4}), frozenset({2, 4}), frozenset({2, 3})}
        assert graph_distance((4, 3, 2, 1), (3, 1, 4, 2)) == comb(4, 2) - 3

    def test_equal_pair_full_ledger(self):
        for n in (3, 4):
            w = identity(n)
            assert len(equations(w, w, (1,) * (n - 1))) == comb(n, 2)

    def test_bruhat_top_no_equations(self):
        assert len(equations(identity(4), longest_element(4), (1, 1, 1))) == 0

    def test_rejects_incomparable(self):
        with pytest.raises(PreconditionError):
            equations((4, 3, 2, 1), (3, 1, 4, 2), (1, 1, 1))

    @pytest.mark.parametrize("u, v, message", BAD_PAIRS)
    def test_rejects_non_permutations(self, u, v, message):
        # (2,2,2) against itself once gave an empty ledger
        with pytest.raises(PreconditionError, match=message):
            equations(u, v, (1, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_sorted_ledger_for_every_shift_sequence(self, n):
        for u in all_permutations(n):
            for v in all_permutations(n):
                for a in valid_shift_sequences(u, v):
                    got = equations_to_json(equations(u, v, a))
                    assert got == equations_to_json(sorted_ledger(u, v, a))

    def test_matches_sorted_ledger_on_seeded_pairs_n5(self):
        rng = random.Random(5)
        perms = list(all_permutations(5))
        for _ in range(60):
            u, v = rng.choice(perms), rng.choice(perms)
            for a in valid_shift_sequences(u, v):
                got = equations_to_json(equations(u, v, a))
                assert got == equations_to_json(sorted_ledger(u, v, a))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ledger_is_its_columns_in_order(self, n):
        for u in all_permutations(n):
            for v in all_permutations(n):
                for a in valid_shift_sequences(u, v):
                    columns = [_ledger_column(u, v, k, a[k - 1], n) for k in range(1, n)]
                    assert _ledger(u, v, a) == tuple(eq for column in columns for eq in column)
                    for k, column in enumerate(columns, start=1):
                        assert {eq.column for eq in column} <= {k}

    def test_json_roundtrip(self):
        es = equations((4, 3, 2, 1), (3, 1, 4, 2), (4, 4, 2))
        payload = json.loads(equations_to_json(es))
        assert payload["count"] == 3
        assert all(eq["kind"] == "vanish" for eq in payload["equations"])


class TestCoatomLedger:
    def setup_method(self):
        self.u = parse_permutation("263145")
        self.v = parse_permutation("465123")
        self.x = parse_permutation("265143")
        self.a = (2, 2, 2, 6, 6)

    def test_positions(self):
        assert coatom_positions(self.v, self.x) == (1, 5)

    def test_positions_reject_non_coatom(self):
        with pytest.raises(PreconditionError):
            coatom_positions(self.v, self.v)

    @pytest.mark.parametrize("v, x", [
        ((1, 2), (2, 1, 3)),  # once read as the coatom (1, 2)
        ((1, 2, 3), (1, 2)),  # once an IndexError
        ((1, 1, 3), (1, 3, 1)),
        ((1, 2, 4), (2, 1, 4)),
    ])
    def test_positions_reject_bad_permutations(self, v, x):
        with pytest.raises(PreconditionError):
            coatom_positions(v, x)

    def test_count_law(self):
        es = equations_with_x(self.u, self.v, self.a, self.x)
        assert len(es) == comb(6, 2) - graph_distance(self.u, self.v)

    def test_quadratic_minor(self):
        es = equations_with_x(self.u, self.v, self.a, self.x)
        quadratics = [eq for eq in es.equations if eq.kind == "quadratic"]
        assert len(quadratics) == 1
        eq = quadratics[0]
        assert eq.subsets == (
            frozenset({1, 2, 3, 5, 6}),
            frozenset({4}),
            frozenset({3}),
            frozenset({1, 2, 4, 5, 6}),
        )
        assert "P[1,2,3,5,6]*P[4] - P[3]*P[1,2,4,5,6] = 0" in equation_str(eq)

    def test_requires_flat(self):
        with pytest.raises(PreconditionError, match="flat"):
            equations_with_x((4, 3, 2, 1), (3, 1, 4, 2), (4, 2, 2), (4, 3, 1, 2))

    def test_requires_member(self):
        u, v = (4, 3, 2, 1), (3, 1, 4, 2)
        with pytest.raises(PreconditionError, match="member|interval"):
            equations_with_x(u, v, find_flat(u, v), (4, 1, 3, 2))

    def test_requires_coatom_distance(self):
        with pytest.raises(PreconditionError):
            equations_with_x(self.u, self.v, self.a, self.v)

    def test_classical_coatoms_n3(self):
        # strong-order pair with all its coatoms: counts match the law
        g = build_graph(3)
        u, v = identity(3), longest_element(3)
        a = find_flat(u, v)
        ti = interval(u, v, g)
        coatoms = [x for x in ti.members if ti.rank[x] == ti.length - 1]
        assert len(coatoms) == 2
        for x in coatoms:
            es = equations_with_x(u, v, a, x)
            assert len(es) == comb(3, 2) - ti.length
            assert all(eq.kind == "vanish" for eq in es.equations)


class TestRendering:
    def test_cells_line(self):
        text = render_diagram((4, 3, 2, 1), (4, 4, 2), "down")
        assert "cells: (1,2) (2,2)" in text

    def test_floor_marks(self):
        text = render_diagram((4, 3, 2, 1), (4, 4, 2), "down")
        assert "---" in text

    def test_empty_diagram(self):
        text = render_diagram(identity(3), (1, 1), "down")
        assert "cells: (none)" in text
