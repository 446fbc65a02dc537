import pytest
from hypothesis import given, strategies as st

from qbg.errors import ParseError, PreconditionError
from qbg.permcore import (
    all_permutations,
    all_roots,
    apply_transposition,
    coxeter_length,
    cyclic_contains,
    cyclic_set,
    format_permutation,
    identity,
    is_reflection_ordering,
    long_cycle_rotate,
    longest_element,
    parse_permutation,
    prefix_set,
    reduced_words_of_longest,
    reflection_ordering,
)

from qbg.qbgraph import edge_weight

from oracles import inverse, shifted_less


class TestParse:
    def test_digit_string(self):
        assert parse_permutation("321") == (3, 2, 1)

    def test_comma_separated(self):
        assert parse_permutation("7,3,6,4,1,5,2") == (7, 3, 6, 4, 1, 5, 2)

    def test_duplicate_named(self):
        with pytest.raises(ParseError, match="duplicate value 2"):
            parse_permutation("122")

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_permutation("124")

    def test_empty(self):
        with pytest.raises(ParseError, match="empty"):
            parse_permutation("  ")

    def test_bad_token(self):
        with pytest.raises(ParseError, match="'x'"):
            parse_permutation("1,x,3")

    @pytest.mark.parametrize("text", ["\u00b21", "1,\u00b2", "\u0661\u0662"])
    def test_non_ascii_digits_refused(self, text):
        # str.isdigit accepts superscripts and other scripts' digits
        with pytest.raises(ParseError, match="invalid token"):
            parse_permutation(text)

    def test_values_past_the_int_digit_limit_are_out_of_range(self):
        message = r"^value '9{60}'\.\.\. out of range 1\.\.2 in '1,9{58}'\.\.\.$"
        with pytest.raises(ParseError, match=message):
            parse_permutation("1," + "9" * 5000)
        assert parse_permutation("1," + "0" * 5000 + "2") == (1, 2)

    def test_format_roundtrip(self):
        for text in ("321", "7,3,6,4,1,5,2", "123456789"):
            w = parse_permutation(text)
            assert parse_permutation(format_permutation(w)) == w
        assert format_permutation(tuple(range(1, 11))) == "1,2,3,4,5,6,7,8,9,10"


class TestLengthAndTranspositions:
    def test_identity_length(self):
        assert coxeter_length((1, 2, 3)) == 0

    def test_longest_length(self):
        assert coxeter_length((3, 2, 1)) == 3

    def test_3142(self):
        # inversions of 3142: (3,1), (3,2), (4,2)
        assert coxeter_length((3, 1, 4, 2)) == 3

    def test_adjacent_swap(self):
        assert apply_transposition((1, 2, 3), (1, 2)) == (2, 1, 3)

    def test_full_reversal_swap(self):
        assert apply_transposition((3, 2, 1), (1, 3)) == (1, 2, 3)

    def test_long_example(self):
        w = parse_permutation("465123")
        assert apply_transposition(w, (1, 5)) == parse_permutation("265143")

    def test_root_out_of_range(self):
        with pytest.raises(PreconditionError):
            apply_transposition((1, 2), (1, 3))

    @pytest.mark.parametrize(
        "t", [(1, 2, 3), 5, (1,), "12", (1, "3"), (1.0, 3.0), tuple(range(9999))]
    )
    def test_root_that_is_not_a_pair_of_ints(self, t):
        with pytest.raises(PreconditionError, match="is not a pair") as info:
            apply_transposition((1, 2, 3), t)
        assert len(str(info.value)) < 120

    @pytest.mark.parametrize("w", [(1,) * 20000, tuple(range(2, 9999))])
    def test_long_non_permutation_is_quoted_in_part(self, w):
        with pytest.raises(PreconditionError, match="not a permutation of") as info:
            edge_weight(w, (1, 2))
        assert len(str(info.value)) < 120

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_length_changes_by_odd_amount(self, n):
        for w in all_permutations(n):
            for t in all_roots(n):
                delta = coxeter_length(apply_transposition(w, t)) - coxeter_length(w)
                assert delta % 2 == 1


class TestPrefixSet:
    def test_paper_prefix(self):
        assert prefix_set(parse_permutation("7364152"), 4) == {3, 4, 6, 7}

    def test_two_letters(self):
        assert prefix_set((4, 3, 2, 1), 2) == {3, 4}

    def test_empty_prefix(self):
        assert prefix_set((2, 1), 0) == frozenset()

    def test_bad_k(self):
        with pytest.raises(PreconditionError):
            prefix_set((2, 1), 3)


class TestCyclicIntervals:
    def test_ordinary_open(self):
        assert cyclic_contains(1, 3, 2, 4, include_a=False, include_b=False)

    def test_wrapped_open(self):
        # walking 3 -> 4 -> 1 meets exactly 4 strictly in between
        assert cyclic_contains(3, 1, 4, 4, include_a=False, include_b=False)
        assert not cyclic_contains(3, 1, 2, 4, include_a=False, include_b=False)

    def test_half_open_degenerate_is_empty(self):
        for k in range(1, 7):
            assert not cyclic_contains(5, 5, k, 6, include_b=False)
            assert not cyclic_contains(5, 5, k, 6, include_a=False)

    def test_closed_degenerate_is_singleton(self):
        assert cyclic_set(5, 5, 6) == {5}

    def test_zero_right_endpoint(self):
        assert cyclic_set(4, 0, 6) == {4, 5, 6}

    def test_wrapped_closed(self):
        assert cyclic_set(5, 2, 6) == {5, 6, 1, 2}

    @given(st.data())
    def test_rotation_equivariance(self, data):
        n = data.draw(st.integers(2, 8))
        a = data.draw(st.integers(1, n))
        b = data.draw(st.integers(1, n))
        k = data.draw(st.integers(1, n))
        ia = data.draw(st.booleans())
        ib = data.draw(st.booleans())
        rotate = lambda x: x % n + 1
        assert cyclic_contains(a, b, k, n, include_a=ia, include_b=ib) == cyclic_contains(
            rotate(a), rotate(b), rotate(k), n, include_a=ia, include_b=ib
        )


class TestShiftedOrder:
    def test_ordinary(self):
        assert shifted_less(1, 2, 5, 5)

    def test_wrapped(self):
        # order 4 < 5 < 1 < 2 < 3
        assert shifted_less(4, 5, 2, 5)

    def test_paper_greedy_order(self):
        # order 5 < 6 < ... < 9 < 1 < ... < 4
        assert shifted_less(5, 6, 4, 9)

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_strict_total_order(self, n):
        for r in range(1, n + 1):
            chain = sorted(range(1, n + 1), key=lambda x: (x - r) % n)
            assert chain[0] == r
            assert chain[-1] == (r - 2) % n + 1
            for i, x in enumerate(chain):
                assert not shifted_less(r, x, x, n)
                for y in chain[i + 1 :]:
                    assert shifted_less(r, x, y, n)
                    assert not shifted_less(r, y, x, n)


class TestLongCycle:
    def test_identity(self):
        assert long_cycle_rotate((1, 2, 3)) == (2, 3, 1)

    def test_reversal(self):
        assert long_cycle_rotate((3, 2, 1)) == (1, 3, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_order_n(self, n):
        for w in all_permutations(n):
            rotated = w
            for _ in range(n):
                rotated = long_cycle_rotate(rotated)
            assert rotated == w


class TestReflectionOrderings:
    def test_paper_example(self):
        assert reflection_ordering((3, 1, 2, 1, 3, 2)) == (
            (3, 4),
            (1, 2),
            (1, 4),
            (2, 4),
            (1, 3),
            (2, 3),
        )

    def test_small_example(self):
        assert reflection_ordering((1, 2, 1)) == ((1, 2), (1, 3), (2, 3))

    def test_not_reduced(self):
        with pytest.raises(PreconditionError):
            reflection_ordering((1, 1))

    def test_wrong_product(self):
        with pytest.raises(PreconditionError):
            reflection_ordering((1, 2, 2))

    def test_bad_letter(self):
        with pytest.raises(PreconditionError):
            reflection_ordering((1, 3, 1))

    @pytest.mark.parametrize("n,count", [(3, 2), (4, 16)])
    def test_word_census_and_betweenness(self, n, count):
        words = reduced_words_of_longest(n)
        assert len(words) == count
        assert len(set(words)) == count
        for word in words:
            ordering = reflection_ordering(word)
            assert is_reflection_ordering(ordering, n)

    def test_betweenness_rejects_shuffle(self):
        assert not is_reflection_ordering(((1, 3), (1, 2), (2, 3)), 3)


def test_inverse_and_helpers():
    assert inverse((3, 1, 4, 2)) == (2, 4, 1, 3)
    assert identity(4) == (1, 2, 3, 4)
    assert longest_element(4) == (4, 3, 2, 1)
