import random
import sys
import threading
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd

import pytest

from qbg import exactgeom, suites
from qbg.diagrams import equations, find_flat
from qbg.errors import ParseError, PreconditionError, ResourceLimitError, SamplingError
from qbg.exactgeom import (
    MAX_TABLE_N,
    Flag,
    _det,
    _integer_row,
    all_equations_vanish,
    complete_to_permutation,
    format_matrix,
    incidence_exchange_rule_holds,
    incidence_product_rule_holds,
    incidence_sum_rule_holds,
    member_T_grassmann,
    member_T_plucker,
    member_T_rank,
    nullspace_basis,
    parse_matrix,
    permutation_flag,
    plucker_minus,
    plucker_minus_plus,
    plucker_plus,
    random_flag,
    sample_in_open_stratum,
    stratum,
)
from qbg.latticepath import prefix_paths, shifted_interval, valid_shifts
from qbg.permcore import (
    all_permutations,
    cyclic_set,
    identity,
    longest_element,
    parse_permutation,
    prefix_set,
    value_mask,
)
from qbg.tiltedorder import interval_member_set, interval_members_criterion

import oracles
from oracles import _rank, chi_rotate, chi_set, rank_region


class TestMatrixFormat:
    def test_roundtrip(self):
        m = Flag([[1, Fraction(3, 4)], [Fraction(-2), 5]]).matrix
        assert parse_matrix(format_matrix(m)) == m

    def test_parse_example(self):
        m = parse_matrix("2\n1 3/4\n-2 5\n")
        assert m[0][1] == Fraction(3, 4)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_matrix("two\n1 2\n3 4\n")

    def test_wrong_row_count(self):
        with pytest.raises(ParseError):
            parse_matrix("2\n1 2\n")

    def test_bad_entry(self):
        with pytest.raises(ParseError):
            parse_matrix("1\n1/0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "2\n1e20000000 0\n0 1\n",  # int() and Fraction() take exponents
            "\u0662\n\u0661 0\n0 1_0\n",  # and other digits, and underscores
            "2\n\u0661 0\n0 1\n",
            "2\n1 0\n0 1_0\n",
            "2\n1.5 0\n0 1\n",
            "2\n1 0\n0 1/-2\n",
            "2\n1 0\n0 1//2\n",
            "2\n1 0\n0 0x10\n",
            "2\n1 0\n0 inf\n",
            "+2\n1 0\n0 1\n",
            "2.0\n1 0\n0 1\n",
            "1" * 5000 + "\n",  # past Python's limit on int digits
            "1\n" + "1" * 5000 + "\n",
        ],
    )
    def test_only_the_documented_grammar(self, text):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_matrix(text)
        assert time.perf_counter() - start < 1

    def test_signed_integers_and_ratios(self):
        m = parse_matrix("2\n+3 -0\n-7/3 +7/3\n")
        assert m == ((3, 0), (Fraction(-7, 3), Fraction(7, 3)))


class TestFlag:
    def test_identity_pluckers(self):
        F = permutation_flag(identity(3))
        for k in range(1, 4):
            assert F.plucker(range(1, k + 1)) == 1

    def test_permutation_pluckers(self):
        for w in all_permutations(3):
            F = permutation_flag(w)
            for k in range(1, 3):
                assert F.plucker(prefix_set(w, k)) in (-1, 1)
                for K in combinations(range(1, 4), k):
                    if frozenset(K) != prefix_set(w, k):
                        assert F.plucker(K) == 0

    @pytest.mark.parametrize("bad", [0.1, 1.0, "x", "1", float("nan"), None, 1j])
    def test_entries_must_be_exact(self, bad):
        with pytest.raises(PreconditionError, match="int or Fraction"):
            Flag([[bad, 0], [0, 1]])

    @pytest.mark.parametrize("rows", [
        [[Fraction(1, 2), 0], [0, 2.0]],
        [[1, Fraction(1, 3)], [0.5, 1]],
    ])
    def test_a_float_anywhere_is_refused(self, rows):
        with pytest.raises(PreconditionError, match="int or Fraction"):
            Flag(rows)

    def test_matrix_rebuilt_from_the_integer_rows_round_trips(self):
        rng = random.Random(7)
        flags = [random_flag(4, rng), permutation_flag((2, 4, 1, 3)), _rational_flag(rng, 5),
                 sample_in_open_stratum(parse_permutation("263145"), parse_permutation("465123"))]
        flags.append(Flag([[1, Fraction(3, 4)], [Fraction(-2, 6), 5]]))
        for F in flags:
            m = F.matrix
            assert all(type(x) is Fraction for row in m for x in row)
            assert Flag(m).matrix == m
            assert format_matrix(Flag(m).matrix) == format_matrix(m)
        assert flags[-1].matrix == ((1, Fraction(3, 4)), (Fraction(-1, 3), 5))

    def test_singular_rejected(self):
        with pytest.raises(PreconditionError):
            Flag([[1, 2], [2, 4]])

    def test_empty_plucker(self):
        F = random_flag(3, 0)
        assert F.plucker([]) == 1

    @pytest.mark.parametrize("rows", [[1, 1], [2, 3, 2], (3, 3, 3)])
    def test_plucker_refuses_a_repeated_row(self, rows):
        # a repeated row is no row set: P_{1} is not a minor on two rows
        with pytest.raises(PreconditionError, match="repeats a row"):
            random_flag(3, 1).plucker(rows)

    @pytest.mark.parametrize("w", [(1, 1, 2), (1, 2), (1, 2, 4), (1, 2, 3, 4), ()])
    def test_plucker_perm_needs_a_permutation_of_size_n(self, w):
        with pytest.raises(PreconditionError):
            random_flag(3, 1).plucker_perm(w)

    def test_refused_beyond_the_table_bound_before_work(self):
        for n in (MAX_TABLE_N + 1, 30):
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError, match=f"bounded at n <= {MAX_TABLE_N}"):
                Flag(rows)
            assert time.perf_counter() - start < 2


class TestIncidenceRelations:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_product_rule(self, n):
        rng = random.Random(n)
        F = random_flag(n, rng)
        for _ in range(50):
            k = rng.randint(2, n - 1)
            I = rng.sample(range(1, n + 1), k)
            J = rng.sample(range(1, n + 1), k - 1)
            assert incidence_product_rule_holds(F, I, J)

    @pytest.mark.parametrize("n", [4, 5])
    def test_sum_and_exchange_rules(self, n):
        rng = random.Random(n)
        F = random_flag(n, rng)
        for _ in range(50):
            r = rng.randint(3, n - 1)
            s = rng.randint(1, r - 2)
            I = rng.sample(range(1, n + 1), r)
            J = rng.sample(range(1, n + 1), s)
            j = rng.choice([x for x in range(1, n + 1) if x not in J])
            assert incidence_sum_rule_holds(F, I, J)
            assert incidence_exchange_rule_holds(F, I, J, j)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_integer_minors_agree_with_the_fraction_coordinates(self, n):
        # the rational flags carry column scales other than 1
        rng = random.Random(300 + n)
        flags = [random_flag(n, rng), _rational_flag(rng, n)]
        for seed in range(2):
            u, v = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
            flags.append(sample_in_open_stratum(u, v, seed))
        assert any(F._scale[-1] > 1 for F in flags)
        for F in flags:
            for rule, I, J, j in _random_relations(rng, n, 40):
                assert RULES[rule](F, I, J, j) and _by_fractions(F, rule, I, J, j)

    @pytest.mark.parametrize("n", [4, 5])
    def test_a_changed_minor_breaks_both_evaluations_together(self, n):
        F = _rational_flag(random.Random(n), n)
        F._minors = list(F._minors)
        F._minors[value_mask({1, n})] += 1
        verdicts = []
        for rule, I, J, j in _every_relation(n):
            verdict = RULES[rule](F, I, J, j)
            assert verdict == _by_fractions(F, rule, I, J, j)
            verdicts.append((rule, verdict))
        assert {rule for rule, verdict in verdicts if not verdict} == set(RULES)

    @pytest.mark.parametrize("call", [
        lambda F: incidence_product_rule_holds(F, [1, 5], [2]),
        lambda F: incidence_product_rule_holds(F, [0, 1], [2]),
        lambda F: incidence_product_rule_holds(F, [1, 2], [5]),
        lambda F: incidence_sum_rule_holds(F, [1, 2, 5], [3]),
        lambda F: incidence_sum_rule_holds(F, [1, 2, 3], [0]),
        lambda F: incidence_exchange_rule_holds(F, [1, 2, 3], [4], 5),
        lambda F: incidence_exchange_rule_holds(F, [1, 2, 3], [4], 0),
        lambda F: incidence_exchange_rule_holds(F, [1, 2, 7], [4], 3),
        lambda F: plucker_plus(F, [1, 2], 5),
        lambda F: plucker_minus(F, [1, 5], 1),
        lambda F: plucker_minus(F, [1, 2], 3),
        lambda F: plucker_minus_plus(F, [1, 2], 1, 5),
    ])
    def test_rows_and_indices_out_of_range_are_refused(self, call):
        with pytest.raises(PreconditionError):
            call(random_flag(4, 2))


RULES = {
    "product": lambda F, I, J, j: incidence_product_rule_holds(F, I, J),
    "sum": lambda F, I, J, j: incidence_sum_rule_holds(F, I, J),
    "exchange": incidence_exchange_rule_holds,
}


def _by_fractions(F, rule, I, J, j):
    """The same relation in Fractions, from the public signed coordinates."""
    I, J = frozenset(I), frozenset(J)
    if rule == "exchange":
        lhs = F.plucker(I) * plucker_plus(F, J, j)
        return lhs == sum(plucker_minus_plus(F, I, i, j) * plucker_plus(F, J, i) for i in I)
    rhs = sum(plucker_minus(F, I, i) * plucker_plus(F, J, i) for i in I)
    return (F.plucker(I) * F.plucker(J) if rule == "product" else 0) == rhs


def _random_relations(rng, n, count):
    """`count` random instances of each relation on [n], as the plucker suite draws them."""
    universe = range(1, n + 1)
    for _ in range(count):
        k = rng.randint(2, n - 1)
        yield "product", rng.sample(universe, k), rng.sample(universe, k - 1), None
        if n >= 4:
            r = rng.randint(3, n - 1)
            I, J = rng.sample(universe, r), rng.sample(universe, rng.randint(1, r - 2))
            j = rng.choice([x for x in universe if x not in J])
            yield "sum", I, J, None
            yield "exchange", I, J, j


def _every_relation(n):
    subsets = [K for k in range(n + 1) for K in combinations(range(1, n + 1), k)]
    for I, J in product(subsets, repeat=2):
        if len(I) == len(J) + 1:
            yield "product", I, J, None
        elif len(I) - len(J) >= 2:
            yield "sum", I, J, None
            for j in range(1, n + 1):
                if j not in J:
                    yield "exchange", I, J, j


def _rational_flag(rng, n):
    """A flag on a random rational matrix (see `_random_rows`)."""
    while True:
        try:
            return Flag(_random_rows(rng, n, n, rational=True))
        except PreconditionError:
            continue


def _sequence_coordinate(F, seq):
    """P of an index sequence by its sorting permutation: zero on a repeat,
    else the sign of that permutation times the sorted-subset coordinate."""
    if len(set(seq)) != len(seq):
        return 0
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return (-1) ** inversions * F.plucker(seq)


class TestSignedCoordinates:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_match_the_sequence_signs(self, n):
        rng = random.Random(100 + n)
        universe = range(1, n + 1)
        for F in (random_flag(n, rng), random_flag(n, rng)):
            for _ in range(60):
                k = rng.randint(1, n)
                I = sorted(rng.sample(universe, k))
                i = rng.choice(I)
                j = rng.choice(universe)
                rest = [x for x in I if x != i]
                # moving i from its place in I to the end
                sign = (-1) ** (len(I) - 1 - I.index(i))
                assert plucker_plus(F, rest, j) == _sequence_coordinate(F, rest + [j])
                assert plucker_minus(F, I, i) == sign * _sequence_coordinate(F, rest)
                assert plucker_minus_plus(F, I, i, j) == sign * _sequence_coordinate(
                    F, rest + [j]
                )


class TestRankRegion:
    def test_full_rows(self):
        F = random_flag(4, 1)
        for k in range(5):
            assert rank_region(F, range(1, 5), k) == k

    def test_empty_region(self):
        F = random_flag(3, 2)
        assert rank_region(F, [], 2) == 0

    @pytest.mark.parametrize("region", [[0], [4], [1, 4], [-1, 2], [0, 1, 2, 3]])
    def test_rows_out_of_range(self, region):
        F = random_flag(3, 2)
        with pytest.raises(PreconditionError, match="out of range 1..3"):
            rank_region(F, region, 1)

    def test_permutation_counts(self):
        for w in all_permutations(4):
            F = permutation_flag(w)
            for k in range(5):
                for size in range(5):
                    for S in combinations(range(1, 5), size):
                        assert rank_region(F, S, k) == len(prefix_set(w, k) & set(S))


class TestChiRotation:
    def test_identity_becomes_cycle(self):
        m = permutation_flag(identity(3)).matrix
        rotated = chi_rotate(m)
        assert rotated == permutation_flag((2, 3, 1)).matrix

    def test_order_n(self):
        m = random_flag(4, 3).matrix
        rotated = m
        for _ in range(4):
            rotated = chi_rotate(rotated)
        assert rotated == m

    def test_minor_sign_law(self):
        n = 4
        m = random_flag(n, 4).matrix
        F, G = Flag(m), Flag(chi_rotate(m))
        for k in range(1, n + 1):
            for K in combinations(range(1, n + 1), k):
                sign = (-1) ** (k - 1) if n in K else 1
                assert G.plucker(chi_set(K, n)) == sign * F.plucker(K)


class TestMembership:
    def test_fixed_points_match_interval(self):
        u, v = (1, 3, 2), (3, 2, 1)
        members = interval_member_set(u, v)
        for w in all_permutations(3):
            F = permutation_flag(w)
            assert member_T_plucker(u, v, F) == (w in members)

    def test_whole_flag_variety(self):
        u, v = identity(3), longest_element(3)
        F = random_flag(3, 5)
        a = (1, 1)
        assert member_T_plucker(u, v, F, True)
        assert member_T_rank(u, v, a, F, True)
        assert member_T_grassmann(u, v, a, F, True)

    def test_point_variety(self):
        u = (2, 1, 3)
        assert member_T_plucker(u, u, permutation_flag(u))
        assert not member_T_plucker(u, u, random_flag(3, 6))

    def test_generic_flag_rejected(self):
        u, v = (4, 3, 2, 1), (3, 1, 4, 2)
        F = random_flag(4, 7)
        assert not member_T_plucker(u, v, F)
        assert not member_T_grassmann(u, v, (4, 4, 2), F)

    # (u, v, a) of one size against a flag of another, in both directions
    @pytest.mark.parametrize(
        "u, v, a, n",
        [
            ((1, 2, 3, 4), (4, 3, 2, 1), (1, 1, 1), 3),
            ((1, 2, 3), (3, 2, 1), (1, 1), 4),
        ],
    )
    @pytest.mark.parametrize("route", [member_T_rank, member_T_grassmann])
    def test_routes_refuse_a_flag_of_another_size(self, route, u, v, a, n):
        for F in (permutation_flag(identity(n)), random_flag(n, 3)):
            with pytest.raises(PreconditionError, match="match the flag's size"):
                route(u, v, a, F)

    def test_rank_requires_comparable_shift(self):
        with pytest.raises(PreconditionError):
            member_T_rank((4, 3, 2, 1), (3, 1, 4, 2), (1, 1, 1), random_flag(4, 8))

    def test_three_routes_agree_on_samples(self):
        u, v = (4, 3, 2, 1), (3, 1, 4, 2)
        flags = [sample_in_open_stratum(u, v, s) for s in range(3)]
        flags += [random_flag(4, 9), permutation_flag((2, 1, 4, 3))]
        for F in flags:
            for open_cell in (False, True):
                reference = member_T_plucker(u, v, F, open_cell)
                for a2 in (2, 3, 4):
                    a = (4, a2, 2)
                    assert member_T_rank(u, v, a, F, open_cell) == reference
                    assert member_T_grassmann(u, v, a, F, open_cell) == reference


class TestStratum:
    def test_fixed_point_is_its_own_stratum(self):
        u, v = (1, 3, 2), (3, 2, 1)
        for w in interval_member_set(u, v):
            label = stratum(u, v, permutation_flag(w))
            assert (label.x, label.y) == (w, w)

    def test_generic_flag_tops_out(self):
        label = stratum(identity(4), longest_element(4), random_flag(4, 10))
        assert (label.x, label.y) == (identity(4), longest_element(4))

    def test_sampler_roundtrip(self):
        u, v = (4, 3, 2, 1), (3, 1, 4, 2)
        F = sample_in_open_stratum(u, v, 11)
        label = stratum(u, v, F)
        assert (label.x, label.y) == (u, v)
        assert member_T_plucker(label.x, label.y, F, True)

    def test_rejects_non_member(self):
        with pytest.raises(PreconditionError):
            stratum((2, 1, 3), (2, 1, 3), random_flag(3, 12))


class TestCompletion:
    def test_fixed_point_completion(self):
        for w in all_permutations(4):
            F = permutation_flag(w)
            for k in range(1, 4):
                assert complete_to_permutation(F, prefix_set(w, k)) == w

    def test_generic_completion(self):
        F = random_flag(4, 13)
        for I in [{2}, {1, 3}, {2, 3, 4}]:
            w = complete_to_permutation(F, I)
            assert prefix_set(w, len(I)) == frozenset(I)
            assert F.plucker_perm(w) != 0

    def test_requires_nonzero(self):
        F = permutation_flag((2, 1, 3))
        with pytest.raises(PreconditionError):
            complete_to_permutation(F, {1})

    def test_in_stratum_completion_lands_in_interval(self):
        u, v = (4, 3, 2, 1), (3, 1, 4, 2)
        F = sample_in_open_stratum(u, v, 14)
        members = interval_member_set(u, v)
        for k in range(1, 4):
            w = complete_to_permutation(F, prefix_set(u, k))
            assert w in members


class TestSampler:
    def test_full_variety_sample(self):
        F = sample_in_open_stratum(identity(3), longest_element(3), 0)
        assert member_T_plucker(identity(3), longest_element(3), F, True)

    def test_point_sample(self):
        u = (2, 1, 4, 3)
        F = sample_in_open_stratum(u, u, 1)
        assert member_T_plucker(u, u, F, True)

    def test_deterministic(self):
        u, v = (4, 3, 2, 1), (3, 1, 4, 2)
        assert (
            sample_in_open_stratum(u, v, 5).matrix
            == sample_in_open_stratum(u, v, 5).matrix
        )

    def test_equations_vanish_on_samples(self):
        u, v = (4, 3, 2, 1), (3, 1, 4, 2)
        a = find_flat(u, v)
        es = equations(u, v, a)
        for s in range(3):
            assert all_equations_vanish(sample_in_open_stratum(u, v, s), es)

    def test_incomparable_pair_samples(self):
        u, v = (3, 4, 2, 1), (1, 2, 3, 4)
        F = sample_in_open_stratum(u, v, 2)
        assert member_T_plucker(u, v, F, True)

    def test_worked_n6_pair_roundtrip(self):
        u = parse_permutation("263145")
        v = parse_permutation("465123")
        F = sample_in_open_stratum(u, v, 0)
        assert member_T_plucker(u, v, F, True)
        label = stratum(u, v, F)
        assert (label.x, label.y) == (u, v)

    def test_chart_equation_biconditional(self):
        # on the chart (both endpoint products nonzero), vanishing of the
        # whole ledger is the same thing as open membership
        u, v = (4, 3, 2, 1), (3, 1, 4, 2)
        a = find_flat(u, v)
        es = equations(u, v, a)
        flags = [sample_in_open_stratum(u, v, s) for s in range(3)]
        flags += [random_flag(4, 40 + s) for s in range(3)]
        for F in flags:
            on_chart = F.plucker_perm(u) != 0 and F.plucker_perm(v) != 0
            if not on_chart:
                continue
            assert all_equations_vanish(F, es) == member_T_plucker(u, v, F, True)


def test_direct_sum_of_complementary_windows():
    # two valid cuts split the rows of a sampled member into independent
    # complementary windows whose ranks add up to the column count
    u, v = (4, 3, 2, 1), (3, 1, 4, 2)
    n, k = 4, 2
    shifts = sorted(valid_shifts(prefix_set(u, k), prefix_set(v, k), n))
    assert shifts == [2, 3, 4]
    for s in range(3):
        F = sample_in_open_stratum(u, v, 20 + s)
        for r in shifts:
            for r2 in shifts:
                if r == r2:
                    continue
                one = cyclic_set(r, r2, n, include_b=False)
                other = cyclic_set(r2, r, n, include_b=False)
                assert rank_region(F, one, k) + rank_region(F, other, k) == k


# ---------------------------------------------------------------------------
# The integer kernel against sympy, an independent exact oracle (test-only)


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def _random_rows(rng, rows, cols, rational):
    """A random matrix of at most a random rank: the product of a rows x r
    and an r x cols factor, or a full random draw; rational ones divide
    every entry by a random denominator."""
    def entry():
        num = rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 7)) if rational else num

    if rng.random() < 0.5:
        return [[entry() for _ in range(cols)] for _ in range(rows)]
    inner = rng.randint(0, min(rows, cols))
    left = [[entry() for _ in range(inner)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(inner)]
    return [
        [sum((left[i][t] * right[t][j] for t in range(inner)), 0) for j in range(cols)]
        for i in range(rows)
    ]


def _to_fraction(x):
    return Fraction(int(x.p), int(x.q))


def _oracle(sympy, rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


class TestIntegerKernel:
    def test_rank_and_determinant_on_integers(self, sympy):
        rng = random.Random(0)
        singular = 0
        for _ in range(150):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = _random_rows(rng, rows, cols, rational=False)
            assert _rank(m) == sympy.Matrix(m).rank()
            if rows == cols:
                det = sympy.Matrix(m).det()
                singular += det == 0
                assert _det(m) == det
        assert singular > 5

    def test_rank_determinant_and_nullspace_on_rationals(self, sympy):
        rng = random.Random(1)
        for _ in range(120):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = _random_rows(rng, rows, cols, rational=True)
            oracle = _oracle(sympy, m)
            ints = [_integer_row(row) for row in m]
            assert _rank(ints) == oracle.rank()
            if rows == cols:
                assert (_det(ints) == 0) == (oracle.det() == 0)
            expected = [[_to_fraction(x) for x in vec] for vec in oracle.nullspace()]
            assert nullspace_basis(m, cols) == expected

    def test_empty_and_zero_nullspace(self):
        identity3 = [[Fraction(i == j) for j in range(3)] for i in range(3)]
        assert nullspace_basis([], 3) == identity3
        assert nullspace_basis([[0, 0, 0]], 3) == identity3
        assert nullspace_basis(identity3, 3) == []

    def test_plucker_coordinates_are_exact_minors(self, sympy):
        rng = random.Random(2)
        flags = [sample_in_open_stratum((4, 3, 2, 1), (3, 1, 4, 2), s) for s in range(2)]
        flags.append(
            sample_in_open_stratum(parse_permutation("263145"), parse_permutation("465123"), 0)
        )
        while len(flags) < 8:
            n = rng.randint(2, 5)
            try:
                flags.append(Flag(_random_rows(rng, n, n, rational=True)))
            except PreconditionError:
                continue
        for F in flags:
            n = F.n
            for k in range(1, n + 1):
                for I in combinations(range(1, n + 1), k):
                    minor = _oracle(sympy, [F.matrix[r - 1][:k] for r in I]).det()
                    assert F.plucker(I) == _to_fraction(minor)


# Matrices the exact Fraction-elimination sampler produced for these
# (u, v, seed); the integer kernel must reproduce them byte for byte.
PINNED_SAMPLES = {
    ("4312", "3142", 332): "4\n-37 -1776/35 7 0\n0 0 0 -55\n33 95 79 -100\n35 48 51 -43\n",
    ("21435", "54132", 307): (
        "5\n0 77 9 74 -12\n63 -105/2 72569/2458 -1 -75\n30 -25 51835/3687 60 -47\n"
        "-24 33 -29 -47 72\n95 23 -95 49 92\n"
    ),
    ("324165", "561423", 241): (
        "6\n0 0 -40 61 -10 -57\n0 -74 52 4221543/17462 84 78\n"
        "76 -10 -54705/1088 4617/544 216809/1088 58\n36 79 66 -34 -65 -41\n"
        "92 81 39 -32 64 30\n0 -84 -58 89 -97 28\n"
    ),
    ("4173265", "1362547", 825): (
        "7\n-31 -72 1071/4094 242499/2852 -5 402057345/2929004 -70\n"
        "0 62 3286/89 -71 98 -97 -47\n0 89 53 50 -34 -44 -84\n"
        "64 -1504/23 3264/25 896/25 73 -34 -25\n88 -2068/23 4488/25 1232/25 -28 26 -57\n"
        "-25 1175/46 -51 -14 -28 35 31\n46 -47 -92 50 -24 -83 -94\n"
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED_SAMPLES))
def test_sampled_matrices_are_unchanged(key):
    u, v, seed = key
    F = sample_in_open_stratum(parse_permutation(u), parse_permutation(v), seed)
    assert format_matrix(F.matrix) == PINNED_SAMPLES[key]


# ---------------------------------------------------------------------------
# Flags finished from integer columns, and seeded generic flags


def _flag_state(F):
    return F.n, F._rows, F._scale, F._minors, F._live, F._windows, F.matrix


def test_a_flag_from_integer_columns_equals_the_flag_of_its_fractions():
    # column c is cols[c] / dens[c]; entries that share a factor with their
    # denominator, whole columns divisible by it, zero and negative entries
    rng = random.Random(41)
    seen = {"shared factor": 0, "whole column": 0, "zero": 0, "negative": 0, "singular": 0}
    for trial in range(700):
        n = trial % 7 + 1
        dens = [rng.choice([1, 2, 4, 6, 12, 30, 60]) for _ in range(n)]
        cols = [
            [rng.choice([0, 0, rng.randint(-9, 9), rng.randint(-9, 9) * d]) for _ in range(n)]
            for d in dens
        ]
        matrix = [[Fraction(col[r], d) for col, d in zip(cols, dens)] for r in range(n)]
        try:
            expected = Flag(matrix)
        except PreconditionError:
            seen["singular"] += 1
            with pytest.raises(PreconditionError, match="singular"):
                Flag._from_columns(cols, dens)
            continue
        assert _flag_state(Flag._from_columns(cols, dens)) == _flag_state(expected)
        divisors = [gcd(d, *col) for col, d in zip(cols, dens)]
        seen["shared factor"] += any(1 < g < d for g, d in zip(divisors, dens))
        seen["whole column"] += any(g == d > 1 for g, d in zip(divisors, dens))
        seen["zero"] += any(0 in col for col in cols)
        seen["negative"] += any(x < 0 for col in cols for x in col)
    assert min(seen.values()) > 20, seen


# random_flag(n, seed) for pinned seeds; (1, 159) and (2, 7709) draw a
# singular matrix first, so they pin the redraw too
PINNED_RANDOM_FLAGS = {
    (1, 159): "1\n-57\n",
    (2, 7709): "2\n88 -40\n21 81\n",
    (3, 5): "3\n59 -35 89\n-9 76 89\n66 35 -93\n",
    (7, 7): (
        "7\n-18 -62 1 66 -88 -82 37\n-76 -7 49 -86 29 -46 -91\n-78 11 7 -83 -39 -77 41\n"
        "8 -85 44 -69 -43 61 60\n49 -85 47 49 1 -88 -44\n-89 42 -66 -26 7 -64 38\n"
        "-70 46 -22 43 74 -54 -74\n"
    ),
}


def test_seeded_random_flags_are_unchanged():
    for (n, seed), text in PINNED_RANDOM_FLAGS.items():
        assert format_matrix(random_flag(n, seed).matrix) == text
    assert random.Random(159).randint(-100, 100) == 0
    rng = random.Random(3)  # one generator, two flags drawn from it in turn
    assert [format_matrix(random_flag(4, rng).matrix) for _ in range(2)] == [
        "4\n-40 51 39 -67\n-6 54 21 60\n48 -84 55 -97\n20 -34 41 -41\n",
        "4\n-51 83 20 38\n40 21 1 63\n-62 -41 62 -62\n33 -1 89 -97\n",
    ]


# ---------------------------------------------------------------------------
# The window table and the membership plans


def _table_flags():
    flags = [random_flag(n, 30 + n) for n in range(1, 7)]
    flags += [permutation_flag(w) for w in [(2, 1, 3), (3, 1, 4, 2), (2, 5, 1, 4, 3)]]
    flags += [sample_in_open_stratum((4, 3, 2, 1), (3, 1, 4, 2), s) for s in range(2)]
    flags.append(
        sample_in_open_stratum(parse_permutation("263145"), parse_permutation("465123"), 1)
    )
    return flags


def test_window_table_matches_rank_region():
    for F in _table_flags():
        n = F.n
        for start in range(1, n + 1):
            for length in range(n + 1):
                rows = {(start - 1 + t) % n + 1 for t in range(length)}
                for k in range(n + 1):
                    assert F.window_rank(start, length, k) == rank_region(F, rows, k)


def test_window_rank_bounds():
    F = random_flag(3, 0)
    for args in [(0, 1, 1), (4, 1, 1), (1, 4, 1), (1, 1, 4), (1, -1, 1)]:
        with pytest.raises(PreconditionError):
            F.window_rank(*args)


def test_bad_shift_sequence_raises_on_every_call():
    u, v = (4, 3, 2, 1), (3, 1, 4, 2)
    F = random_flag(4, 8)
    for route in (member_T_rank, member_T_grassmann):
        for open_cell in (False, True, False):
            with pytest.raises(PreconditionError):
                route(u, v, (1, 1, 1), F, open_cell)
            assert route(u, v, (4, 2, 2), F, open_cell) is False


def test_one_flag_read_from_several_threads():
    # the minor table, the live set and the window table are all built with
    # the flag, so the threads only read; half of them start with the window
    # ranks, half with the chain route
    u, v = (4, 3, 2, 1), (3, 1, 4, 2)
    matrix = sample_in_open_stratum(u, v, 3).matrix
    shift_seqs = [(4, a2, 2) for a2 in (2, 3, 4)]

    def survey(F, reverse):
        subsets = [K for k in range(5) for K in combinations(range(1, 5), k)]
        windows = [(s, length, k) for s in range(1, 5) for length in range(5) for k in range(5)]
        perms = list(all_permutations(4))
        if reverse:
            subsets, windows, perms = subsets[::-1], windows[::-1], perms[::-1]
        parts = [
            lambda: sorted((w, F.window_rank(*w)) for w in windows),
            lambda: sorted((K, F.plucker(K)) for K in subsets),
            lambda: sorted((w, F.plucker_perm(w)) for w in perms),
            lambda: [
                (member_T_rank(u, v, a, F, oc), member_T_grassmann(u, v, a, F, oc))
                for a in shift_seqs
                for oc in (False, True)
            ],
            lambda: [member_T_plucker(u, v, F, oc) for oc in (False, True)],
            lambda: (F._live, list(F._minors)),
        ]
        order = range(len(parts))[::-1] if reverse else range(len(parts))
        seen = {i: parts[i]() for i in order}
        return [seen[i] for i in range(len(parts))]

    expected = survey(Flag(matrix), reverse=False)
    shared = Flag(matrix)
    barrier = threading.Barrier(6, timeout=60)
    results = [None] * 6

    def worker(i):
        barrier.wait()
        results[i] = survey(shared, reverse=i % 2 == 1)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)
    assert expected[3] == [(True, True)] * 6


# ---------------------------------------------------------------------------
# The minor table and the multi-Plucker chain route, against the S_n walk


def _oracle_flags(n):
    """Generic, coordinate (most minors zero) and sampled flags of size n,
    and the pairs whose open strata were sampled."""
    rng = random.Random(60 + n)
    perms = list(all_permutations(n))
    flags = [random_flag(n, rng) for _ in range(2)]
    flags += [permutation_flag(w) for w in rng.sample(perms, min(4, len(perms)))]
    pairs = [(identity(n), longest_element(n))]
    pairs += [(rng.choice(perms), rng.choice(perms)) for _ in range(3)]
    flags += [sample_in_open_stratum(u, v, 70 + s) for s, (u, v) in enumerate(pairs)]
    return flags, pairs


def test_minor_table_matches_the_elimination_kernel():
    # sampled flags at n = 6 and 7: the pinned samples, read back
    for n in range(1, 8):
        if n <= 5:
            flags = _oracle_flags(n)[0]
        else:
            w = tuple(random.Random(n).sample(range(1, n + 1), n))
            flags = [random_flag(n, n), permutation_flag(w)]
        flags += [
            Flag(parse_matrix(text)) for text in PINNED_SAMPLES.values() if text[0] == str(n)
        ]
        for F in flags:
            assert len(F._minors) == 2 ** n
            for k in range(n + 1):
                for I in combinations(range(1, n + 1), k):
                    minor = _det([F._rows[r - 1][:k] for r in I])
                    assert F._minors[value_mask(I)] == minor
                    assert F.plucker(I) == Fraction(minor, F._scale[k])


def test_every_nonzero_minor_lies_on_a_nonzero_chain():
    # why the live set of a flag is its set of nonzero minors: each one
    # completes to a w through it with P_w != 0
    for n in range(1, 6):
        for F in _oracle_flags(n)[0]:
            nonzero = [S for S in range(2 ** n) if F._minors[S]]
            assert F._live == sum(1 << S for S in nonzero)
            for S in nonzero:
                I = {r for r in range(1, n + 1) if S >> (r - 1) & 1}
                w = complete_to_permutation(F, I)
                assert prefix_set(w, len(I)) == I and F.plucker_perm(w) != 0


@lru_cache(maxsize=None)
def _walked_members(u, v):
    return frozenset(
        w
        for w in all_permutations(len(u))
        if interval_members_criterion(u, v, w, "exists_shift")
    )


def walked_member_T_plucker(u, v, F, open_cell=False):
    """The multi-Plucker route as an S_n walk: P_w for every w outside [u, v],
    then P_u and P_v; how member_T_plucker decided before it read chains."""
    members = _walked_members(u, v)
    for w in all_permutations(F.n):
        if w not in members and F.plucker_perm(w) != 0:
            return False
    if open_cell:
        return F.plucker_perm(u) != 0 and F.plucker_perm(v) != 0
    return True


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chain_route_matches_the_walk(n):
    perms = list(all_permutations(n))
    flags, sampled = _oracle_flags(n)
    if n <= 4:
        pairs = [(u, v) for u in perms for v in perms]
    else:
        rng = random.Random(n)
        pairs = sampled + [(rng.choice(perms), rng.choice(perms)) for _ in range(40)]
    outcomes = set()
    for F in flags:
        for u, v in pairs:
            for open_cell in (False, True):
                got = member_T_plucker(u, v, F, open_cell)
                assert got == walked_member_T_plucker(u, v, F, open_cell)
                outcomes.add((open_cell, got))
    assert len(outcomes) == (2 if n == 1 else 4)


def test_chain_route_reads_no_coordinate_and_no_window(monkeypatch):
    u, v = (4, 3, 2, 1), (3, 1, 4, 2)
    flags = [sample_in_open_stratum(u, v, 0), random_flag(4, 9), permutation_flag((2, 1, 4, 3))]
    flags.append(sample_in_open_stratum((4, 3, 1, 2), (3, 1, 4, 2), 1))
    expected = [[walked_member_T_plucker(u, v, F, oc) for oc in (False, True)] for F in flags]
    assert {tuple(e) for e in expected} == {(True, True), (False, False), (True, False)}

    def refuse(*args, **kwargs):
        raise AssertionError("the multi-Plucker route read a coordinate or a window")

    for name in ("plucker", "plucker_perm", "window_rank"):
        monkeypatch.setattr(Flag, name, refuse)
    for F in flags:  # a read of the window table now fails on None
        monkeypatch.setattr(F, "_windows", None)
    assert [[member_T_plucker(u, v, F, oc) for oc in (False, True)] for F in flags] == expected


# ---------------------------------------------------------------------------
# The mask builders against the value-set builders they replaced


def _shift_sequences(u, v):
    """Every shift sequence a with u <=_a v."""
    return product(*(sorted(shifts) for _, shifts in prefix_paths(u, v)))


def _assert_builders_agree(u, v, a):
    n = len(u)
    slots, bounds, get = exactgeom._rank_plan(u, v, a, n)
    ref_slots, ref_bounds = oracles._rank_plan(u, v, a, n)
    assert len(slots) == len(ref_slots)
    assert set(zip(slots, bounds)) == set(zip(ref_slots, ref_bounds))
    table = bytes(i % 251 for i in range((n + 1) * n * (n + 1)))
    assert get(table) == tuple(table[s] for s in slots)
    off, ends = exactgeom._grassmann_plan(u, v, a, n)
    ref_off, ref_ends = oracles._grassmann_plan(u, v, a, n)
    assert sorted(off) == sorted(ref_off) and ends == ref_ends
    ref_caps = oracles._sampler_caps(u, v, a)
    assert exactgeom._sampler_caps(u, v, a) == [
        {value_mask(S): cap for S, cap in caps.items()} for caps in ref_caps
    ]


def _assert_jump_rows_agree(F):
    n = F.n
    for k, cut, backward in product(range(1, n), range(1, n + 1), (False, True)):
        jumps = exactgeom._rank_jump_rows(F, k, cut, backward)
        assert jumps == value_mask(oracles._rank_jump_rows(F, k, cut, backward))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mask_builders_match_the_set_builders_on_every_pair(n):
    perms = list(all_permutations(n))
    for u in perms:
        for v in perms:
            for a in _shift_sequences(u, v):
                _assert_builders_agree(u, v, a)
    for w in perms:
        _assert_jump_rows_agree(permutation_flag(w))
    for F in _oracle_flags(n)[0]:
        _assert_jump_rows_agree(F)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_mask_builders_match_the_set_builders_on_seeded_pairs(n):
    rng = random.Random(80 + n)
    for _ in range(6):
        u = tuple(rng.sample(range(1, n + 1), n))
        v = tuple(rng.sample(range(1, n + 1), n))
        sequences = list(_shift_sequences(u, v))
        for a in {find_flat(u, v), sequences[0], rng.choice(sequences)}:
            _assert_builders_agree(u, v, a)
        _assert_jump_rows_agree(random_flag(n, rng))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_window_masks_match_the_brute_force_window(n):
    for k in range(n + 1):
        subsets = [frozenset(K) for K in combinations(range(1, n + 1), k)]
        for A, B in product(subsets, repeat=2):
            for r in valid_shifts(A, B, n):
                window = {value_mask(K) for K in shifted_interval(A, B, r, n)}
                assert exactgeom._window_masks(A, B, r, n) == window


def test_equivalence_lists_each_window_once(monkeypatch):
    for cached in (exactgeom._window_masks, exactgeom._plans, exactgeom._sampler_caps):
        cached.cache_clear()
    calls = []

    def counted(*args):
        calls.append(args)
        return shifted_interval(*args)

    monkeypatch.setattr(exactgeom, "shifted_interval", counted)
    assert suites.run_suite("equivalence", 4).ok
    assert calls and len(calls) == len(set(calls))


# (u, v, seed) at n = 5..7: each open-stratum sample is located in its own stratum
SEEDED_STRATA = [
    ("35142", "21453", 5),
    ("52413", "41532", 17),
    ("12345", "54321", 3),
    ("431652", "265134", 8),
    ("615243", "346125", 21),
    ("3716254", "5273641", 4),
    ("1234567", "7654321", 9),
]


@pytest.mark.parametrize("u, v, seed", SEEDED_STRATA)
def test_seeded_samples_locate_their_own_stratum(u, v, seed):
    u, v = parse_permutation(u), parse_permutation(v)
    F = sample_in_open_stratum(u, v, seed)
    assert stratum(u, v, F) == (u, v)
    _assert_jump_rows_agree(F)


# ---------------------------------------------------------------------------
# The routes on a family of flags against the per-flag routes


def _family_flags(n):
    """Every coordinate flag of size n, then generic and sampled ones."""
    return [permutation_flag(w) for w in all_permutations(n)] + _oracle_flags(n)[0]


def _assert_family_matches_the_routes(family, flags, u, v, sequences):
    def bits(route, *args):
        return sum(route(*args, F, open_cell) << i for i, F in enumerate(flags))

    for open_cell in (False, True):
        assert family.plucker(u, v, open_cell) == bits(member_T_plucker, u, v)
        for a in sequences:
            assert family.rank(u, v, a, open_cell) == bits(member_T_rank, u, v, a)
            assert family.grassmann(u, v, a, open_cell) == bits(member_T_grassmann, u, v, a)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_family_routes_match_the_per_flag_routes_on_every_pair(n):
    flags = _family_flags(n)
    family = exactgeom._FlagFamily(flags)
    assert family.everyone == (1 << len(flags)) - 1
    perms = list(all_permutations(n))
    for u in perms:
        for v in perms:
            _assert_family_matches_the_routes(family, flags, u, v, list(_shift_sequences(u, v)))


def test_family_routes_match_the_per_flag_routes_on_seeded_pairs_n5():
    flags = _family_flags(5)
    family = exactgeom._FlagFamily(flags)
    rng = random.Random(95)
    pairs = _oracle_flags(5)[1] + [
        (tuple(rng.sample(range(1, 6), 5)), tuple(rng.sample(range(1, 6), 5))) for _ in range(6)
    ]
    for u, v in pairs:
        sequences = list(_shift_sequences(u, v))
        picked = {find_flat(u, v), sequences[0], sequences[-1], rng.choice(sequences)}
        _assert_family_matches_the_routes(family, flags, u, v, picked)


def test_each_family_route_reads_only_its_own_table():
    u, v, a = (4, 3, 2, 1), (3, 1, 4, 2), (4, 2, 2)
    full = exactgeom._FlagFamily(_family_flags(4))
    tables = ("_exactly", "_at_most", "_nonzero", "_live")
    routes = [("rank", (a,), ("_exactly", "_at_most")), ("grassmann", (a,), ("_nonzero",)),
              ("plucker", (), ("_live",))]
    for name, extra, own in routes:
        family = exactgeom._FlagFamily(_family_flags(4))
        for table in tables:
            if table not in own:  # a read of another route's table fails on None
                setattr(family, table, None)
        for open_cell in (False, True):
            got = getattr(family, name)(u, v, *extra, open_cell)
            assert got == getattr(full, name)(u, v, *extra, open_cell)


def test_family_routes_refuse_pairs_of_another_size():
    family = exactgeom._FlagFamily(_family_flags(3))
    with pytest.raises(PreconditionError):
        family.plucker((2, 1), (1, 2))
    for route in (family.rank, family.grassmann):
        with pytest.raises(PreconditionError):
            route((2, 1), (1, 2), (1,))


# ---------------------------------------------------------------------------
# The sampler on integer columns against the Fraction sampler


def _sampled(sampler, u, v, seed):
    try:
        return sampler(u, v, seed).matrix
    except SamplingError as exc:
        return str(exc), exc.column


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_sampler_matches_the_fraction_sampler_on_seeded_pairs(n):
    rng = random.Random(110 + n)
    for _ in range(20 if n <= 6 else 8):
        u = tuple(rng.sample(range(1, n + 1), n))
        v = tuple(rng.sample(range(1, n + 1), n))
        seed = rng.randrange(10**6)
        expected = _sampled(oracles.sample_in_open_stratum, u, v, seed)
        assert _sampled(sample_in_open_stratum, u, v, seed) == expected


def test_the_sampler_eliminates_each_built_column_once_per_mask(monkeypatch):
    # with the caps planned, this sample makes 811 eliminations when every
    # built column is eliminated again for every binding mask at every column
    # (49 of them for the flag's tables); carrying each mask's pivots, and
    # skipping the full-length windows, leaves fewer than 600
    u, v = parse_permutation("1763254"), parse_permutation("3214756")
    expected = sample_in_open_stratum(u, v, 78782).matrix
    calls = []
    add_row = exactgeom._add_row

    def counted(pivots, row):
        calls.append(len(row))
        return add_row(pivots, row)

    monkeypatch.setattr(exactgeom, "_add_row", counted)
    assert sample_in_open_stratum(u, v, 78782).matrix == expected
    assert 0 < len(calls) < 600


def test_integer_kernel_spans_the_kernel():
    rng = random.Random(7)
    for _ in range(200):
        ncols = rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(0, ncols))]
        if rows and rng.random() < 0.5:  # a dependent row
            rows.append([x + y for x, y in zip(rows[0], rows[-1])])
        pivots = []
        for row in rows:
            exactgeom._add_row(pivots, row)
        kernel = exactgeom._integer_kernel(pivots, ncols)
        assert all(isinstance(x, int) for vec in kernel for x in vec)
        assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in rows for vec in kernel)
        assert len(kernel) == ncols - len(pivots) == _rank(kernel)
