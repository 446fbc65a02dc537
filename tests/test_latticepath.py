import random
from itertools import accumulate, combinations

import pytest
from hypothesis import given, strategies as st

from qbg.diagrams import find_flat
from qbg.errors import PreconditionError
from qbg.latticepath import (
    _gale_leq,
    depth,
    find_shift_sequence,
    path_heights,
    prefix_paths,
    shift_leq,
    shifted_gale_leq,
    shifted_interval,
    valid_shifts,
)
from qbg.permcore import (
    all_permutations,
    cyclic_set,
    identity,
    longest_element,
    parse_permutation,
)
from qbg.qbgraph import formula_weight, graph_distance

from oracles import shifted_key


def brute_shifts(A, B, n):
    """Independent route: sort both sets under every shift and compare."""
    out = set()
    for r in range(1, n + 1):
        key = lambda x: (x - r) % n
        if all(key(a) <= key(b) for a, b in zip(sorted(A, key=key), sorted(B, key=key))):
            out.add(r)
    return frozenset(out)


def rewalked_prefix_paths(u, v):
    """Reference: walk the path of every pair of k-prefixes from scratch."""
    n = len(u)
    out = []
    for k in range(1, n):
        A, B = frozenset(u[:k]), frozenset(v[:k])
        heights = list(accumulate(((i in A) - (i in B) for i in range(1, n + 1)), initial=0))
        low = min(heights)
        out.append((-low, frozenset(x + 1 for x in range(n) if heights[x] == low)))
    return out


class TestPath:
    def test_paper_heights(self):
        assert path_heights({3, 4, 6, 7}, {1, 2, 3, 5}, 7) == (-1, -2, -2, -1, -2, -1, 0)
        assert depth({3, 4, 6, 7}, {1, 2, 3, 5}, 7) == 2

    def test_equal_sets_flat(self):
        # all steps horizontal: every height is 0
        assert path_heights({2, 4}, {2, 4}, 5) == (0,) * 5
        assert depth({2, 4}, {2, 4}, 5) == 0

    def test_single_ascent(self):
        assert path_heights({1}, {2}, 2) == (1, 0)
        assert depth({1}, {2}, 2) == 0

    def test_size_mismatch(self):
        with pytest.raises(PreconditionError):
            path_heights({1, 2}, {3}, 3)


class TestDepth:
    def test_paper_example(self):
        assert depth({3, 4, 6, 7}, {1, 2, 3, 5}, 7) == 2

    def test_first_column_example(self):
        assert depth({7}, {2}, 7) == 1

    def test_equal(self):
        assert depth({1, 3}, {1, 3}, 4) == 0


class TestValidShifts:
    def test_paper_example(self):
        assert valid_shifts({3, 4, 6, 7}, {1, 2, 3, 5}, 7) == {3, 4, 6}

    def test_second_column_example(self):
        assert valid_shifts({4, 3}, {3, 1}, 4) == {2, 3, 4}

    def test_equal_sets(self):
        assert valid_shifts({2, 3}, {2, 3}, 4) == {1, 2, 3, 4}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_sorting_route(self, n):
        for k in range(n + 1):
            for A in combinations(range(1, n + 1), k):
                for B in combinations(range(1, n + 1), k):
                    got = valid_shifts(A, B, n)
                    assert got == brute_shifts(A, B, n)
                    assert got, "some shift must always exist"


class TestGaleOrder:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_sorting_by_shifted_key(self, n):
        for r in range(1, n + 1):
            key = lambda x: shifted_key(r, x, n)
            for k in range(n + 1):
                for A in combinations(range(1, n + 1), k):
                    for B in combinations(range(1, n + 1), k):
                        expected = all(
                            key(a) <= key(b)
                            for a, b in zip(sorted(A, key=key), sorted(B, key=key))
                        )
                        assert shifted_gale_leq(A, B, r, n) == expected

    def test_ordinary(self):
        assert shifted_gale_leq({1, 2}, {3, 4}, 1, 4)

    def test_shifted(self):
        assert shifted_gale_leq({4, 3}, {3, 1}, 4, 4)

    def test_ordinary_fails(self):
        assert not shifted_gale_leq({4, 3}, {3, 1}, 1, 4)

    @pytest.mark.parametrize("r", [0, 9])
    def test_rejects_shifts_out_of_range(self, r):
        # r = 9 = n + 5 used to act as r = 1, and r = 0 as r = n
        with pytest.raises(PreconditionError, match="out of range 1..4"):
            shifted_gale_leq({1, 2}, {3, 4}, r, 4)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_unchecked_kernel_on_prefix_slices(self, n):
        perms = list(all_permutations(n))
        for u in perms:
            for v in perms[:: max(1, len(perms) // 12)]:
                for k in range(n + 1):
                    for r in range(1, n + 1):
                        expected = shifted_gale_leq(set(u[:k]), set(v[:k]), r, n)
                        assert _gale_leq(u[:k], v[:k], r, n) == expected

    @given(st.data())
    def test_unchecked_kernel_matches_checked_compare(self, data):
        n = data.draw(st.integers(1, 9))
        k = data.draw(st.integers(0, n))
        r = data.draw(st.integers(1, n))
        u = tuple(data.draw(st.permutations(range(1, n + 1))))
        v = tuple(data.draw(st.permutations(range(1, n + 1))))
        assert _gale_leq(u[:k], v[:k], r, n) == shifted_gale_leq(
            frozenset(u[:k]), frozenset(v[:k]), r, n
        )

    @given(st.data())
    def test_depth_zero_is_plain_gale(self, data):
        n = data.draw(st.integers(1, 7))
        k = data.draw(st.integers(0, n))
        A = frozenset(data.draw(st.permutations(range(1, n + 1)))[:k])
        B = frozenset(data.draw(st.permutations(range(1, n + 1)))[:k])
        assert (depth(A, B, n) == 0) == shifted_gale_leq(A, B, 1, n)

    @pytest.mark.parametrize("n", [3, 5])
    def test_depth_sum_vanishes_only_on_equality(self, n):
        for k in range(n + 1):
            for A in combinations(range(1, n + 1), k):
                for B in combinations(range(1, n + 1), k):
                    both_flat = depth(A, B, n) + depth(B, A, n) == 0
                    assert both_flat == (set(A) == set(B))


class TestShiftedInterval:
    def test_singleton_chain(self):
        assert shifted_interval({1}, {3}, 1, 3) == {
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        }

    def test_point_interval(self):
        assert shifted_interval({2, 4}, {2, 4}, 3, 5) == {frozenset({2, 4})}

    def test_wrapped_interval(self):
        # under 4 < 1 < 2 < 3 the sorted pairs are (4,3) and (1,3); only the
        # middle element can move through 1, giving exactly two members
        assert shifted_interval({4, 3}, {3, 1}, 4, 4) == {
            frozenset({3, 4}),
            frozenset({1, 3}),
        }

    def test_incomparable_rejected(self):
        with pytest.raises(PreconditionError):
            shifted_interval({3, 4}, {1, 2}, 1, 4)

    @pytest.mark.parametrize("r", [0, 9])
    def test_rejects_shifts_out_of_range(self, r):
        with pytest.raises(PreconditionError, match="out of range 1..4"):
            shifted_interval({1, 2}, {3, 4}, r, 4)

    @pytest.mark.parametrize("n", [4, 5])
    def test_interval_independent_of_shift(self, n):
        # same interval and same window counts for every valid shift
        for k in range(1, n):
            for A in combinations(range(1, n + 1), k):
                for B in combinations(range(1, n + 1), k):
                    shifts = sorted(valid_shifts(A, B, n))
                    reference = shifted_interval(A, B, shifts[0], n)
                    for r in shifts[1:]:
                        assert shifted_interval(A, B, r, n) == reference
                    for r, r2 in zip(shifts, shifts[1:]):
                        window = cyclic_set(r, r2, n, include_b=False)
                        counts = {len(frozenset(A) & window), len(frozenset(B) & window)}
                        counts.update(len(I & window) for I in reference)
                        assert len(counts) == 1


class TestShiftSequences:
    def test_equal(self):
        assert find_shift_sequence((2, 1, 3), (2, 1, 3)) == (1, 1)

    def test_identity_to_longest(self):
        assert find_shift_sequence(identity(4), longest_element(4)) == (1, 1, 1)

    def test_paper_pair(self):
        assert find_shift_sequence((4, 3, 2, 1), (3, 1, 4, 2)) == (4, 2, 2)

    def test_shift_leq(self):
        u, v = (4, 3, 2, 1), (3, 1, 4, 2)
        assert shift_leq(u, v, (4, 2, 2))
        assert not shift_leq(u, v, (1, 1, 1))
        assert shift_leq(u, v, find_shift_sequence(u, v))

    @pytest.mark.parametrize("a", [(8, 6, 6), (4, 2, 0), (5, 1, 1)])
    def test_shift_leq_rejects_shifts_out_of_range(self, a):
        with pytest.raises(PreconditionError):
            shift_leq((4, 3, 2, 1), (3, 1, 4, 2), a)

    @pytest.mark.parametrize(
        "u, v, message",
        [
            ((2, 2, 2), (2, 2, 2), "not a permutation"),
            ((1, 2, 3), (3, 2, 2), "not a permutation"),
            ((1, 2, 3), (1, 2, 3, 4), "same size"),
        ],
    )
    def test_shift_leq_rejects_non_permutations(self, u, v, message):
        # the first and last pairs once compared as True
        with pytest.raises(PreconditionError, match=message):
            shift_leq(u, v, (1, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_prefix_paths_match_sorting_route(self, n):
        perms = list(all_permutations(n))
        for u in perms:
            for v in perms:
                shifts = [s for _, s in prefix_paths(u, v)]
                assert shifts == [brute_shifts(u[:k], v[:k], n) for k in range(1, n)]

    @pytest.mark.parametrize("n", [8, 20, 40])
    def test_prefix_paths_match_rewalk_and_sorting_route(self, n):
        rng = random.Random(n)
        for _ in range(30):
            u = tuple(rng.sample(range(1, n + 1), n))
            v = tuple(rng.sample(range(1, n + 1), n))
            got = prefix_paths(u, v)
            assert got == rewalked_prefix_paths(u, v)
            assert [s for _, s in got] == [
                {r for r in range(1, n + 1) if shifted_gale_leq(u[:k], v[:k], r, n)}
                for k in range(1, n)
            ]

    @pytest.mark.parametrize(
        "fn", [formula_weight, graph_distance, find_flat, find_shift_sequence]
    )
    @pytest.mark.parametrize("bad", [(1, 1, 2), (0, 1, 2), (1, 2, 4), (2, 1)])
    def test_per_column_callers_reject_non_permutations(self, fn, bad):
        with pytest.raises(PreconditionError):
            fn(bad, (1, 2, 3))
        with pytest.raises(PreconditionError):
            fn((1, 2, 3), bad)

    def test_example_pair_n6(self):
        u = parse_permutation("263145")
        v = parse_permutation("465123")
        assert shift_leq(u, v, (2, 2, 2, 6, 6))
