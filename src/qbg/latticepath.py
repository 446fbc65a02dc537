"""
The comparison lattice path of a pair of equal-size value sets, its depth,
the shifted Gale order, and shift sequences.

For A, B subsets of [n] with |A| = |B|, the path takes one step per value
i = 1..n: up if i is in A only, down if i is in B only, horizontal
otherwise.  It starts and ends at height 0; its depth is how far it dips
below the axis.  A <=_r B in the shifted Gale order exactly when the path
touches its minimum height at x-coordinate r - 1, which is what makes the
depth/valid-shift machinery below equivalent to elementwise comparison of
sorted sets (the two routes are kept separate so tests can play them
against each other).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterable

from .errors import PreconditionError
from .permcore import Perm, prefix_set, shifted_key, shifted_sorted, validate_permutation

ValueSet = frozenset[int]


def _check_pair(a_set: Iterable[int], b_set: Iterable[int], n: int) -> tuple[ValueSet, ValueSet]:
    A, B = frozenset(a_set), frozenset(b_set)
    if len(A) != len(B):
        raise PreconditionError(f"sets must have equal size, got {len(A)} and {len(B)}")
    for s in (A, B):
        for v in s:
            if not 1 <= v <= n:
                raise PreconditionError(f"value {v} out of range 1..{n}")
    return A, B


def _heights(A: ValueSet, B: ValueSet, n: int) -> list[int]:
    """Heights of the comparison path after 0..n steps; the one pass every
    reading below is taken from."""
    return list(accumulate(((i in A) - (i in B) for i in range(1, n + 1)), initial=0))


def _depth_and_shifts(A: ValueSet, B: ValueSet, n: int) -> tuple[int, frozenset[int]]:
    """
    The depth, and the valid shifts r: r - 1 runs over the x in 0..n-1
    where the minimum height is attained.  The path ends at the height it
    starts from, so that set is never empty.
    """
    heights = _heights(A, B, n)
    low = min(heights)
    return -low, frozenset(x + 1 for x in range(n) if heights[x] == low)


def path_heights(a_set: Iterable[int], b_set: Iterable[int], n: int) -> tuple[int, ...]:
    """
    Heights after steps 1..n.

    >>> path_heights({3, 4, 6, 7}, {1, 2, 3, 5}, 7)
    (-1, -2, -2, -1, -2, -1, 0)
    """
    return tuple(_heights(*_check_pair(a_set, b_set, n), n)[1:])


def depth(a_set: Iterable[int], b_set: Iterable[int], n: int) -> int:
    return _depth_and_shifts(*_check_pair(a_set, b_set, n), n)[0]


def valid_shifts(a_set: Iterable[int], b_set: Iterable[int], n: int) -> frozenset[int]:
    """All r in [n] with A <=_r B, read off the path.  Never empty."""
    return _depth_and_shifts(*_check_pair(a_set, b_set, n), n)[1]


def prefix_paths(u: Perm, v: Perm) -> list[tuple[int, frozenset[int]]]:
    """
    (depth, valid shifts) of the comparison path of the k-prefixes of u and
    v, for the columns k = 1..n-1.

    >>> prefix_paths((4, 3, 2, 1), (3, 1, 4, 2))
    [(1, frozenset({4})), (1, frozenset({2, 3, 4})), (1, frozenset({2}))]
    """
    u, v = validate_permutation(u), validate_permutation(v)
    n = len(u)
    if len(v) != n:
        raise PreconditionError("permutations must have the same size")
    return [_depth_and_shifts(frozenset(u[:k]), frozenset(v[:k]), n) for k in range(1, n)]


def shifted_gale_leq(a_set: Iterable[int], b_set: Iterable[int], r: int, n: int) -> bool:
    """
    Sort both sets increasingly under the shifted order with minimum r and
    compare elementwise.  Independent of the path route above.
    """
    A, B = _check_pair(a_set, b_set, n)
    a_sorted = shifted_sorted(r, A, n)
    b_sorted = shifted_sorted(r, B, n)
    return all(
        shifted_key(r, x, n) <= shifted_key(r, y, n)
        for x, y in zip(a_sorted, b_sorted)
    )


def shifted_interval(
    a_set: Iterable[int], b_set: Iterable[int], r: int, n: int
) -> frozenset[ValueSet]:
    """
    All K with |K| = |A| and A <=_r K <=_r B, by brute-force enumeration
    of k-subsets.  Deliberately unclever; this is an oracle.
    """
    A, B = _check_pair(a_set, b_set, n)
    if not shifted_gale_leq(A, B, r, n):
        raise PreconditionError(f"sets are not comparable under shift r={r}")
    return _shifted_interval_cached(A, B, r, n)


@lru_cache(maxsize=16384)
def _shifted_interval_cached(A: ValueSet, B: ValueSet, r: int, n: int) -> frozenset[ValueSet]:
    from itertools import combinations

    k = len(A)
    return frozenset(
        frozenset(K)
        for K in combinations(range(1, n + 1), k)
        if shifted_gale_leq(A, K, r, n) and shifted_gale_leq(K, B, r, n)
    )


def shift_leq(u: Perm, v: Perm, a: tuple[int, ...]) -> bool:
    """u <=_a v: every prefix pair compares under its per-column shift."""
    n = len(u)
    if len(a) != n - 1:
        raise PreconditionError(f"shift sequence must have length {n - 1}, got {len(a)}")
    return all(
        shifted_gale_leq(prefix_set(u, k), prefix_set(v, k), a[k - 1], n)
        for k in range(1, n)
    )


def find_shift_sequence(u: Perm, v: Perm) -> tuple[int, ...]:
    """
    Some a with u <=_a v; always exists.  Smallest valid shift per column,
    for determinism.

    >>> find_shift_sequence((4, 3, 2, 1), (3, 1, 4, 2))
    (4, 2, 2)
    """
    return tuple(min(shifts) for _, shifts in prefix_paths(u, v))
