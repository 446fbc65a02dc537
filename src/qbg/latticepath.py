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

One walk, `_walk`, moves the path.  It keeps the heights after 0..n steps
in a list and takes value pairs (a, b) one at a time: adding a to A and b
to B raises the heights after steps a..b-1 by one when a < b, lowers those
after steps b..a-1 by one when a > b, and moves nothing else.  Fed the
pairs (u_k, v_k) it gives the path of every pair of k-prefixes in turn,
so `prefix_paths` builds no prefix sets; fed the elements of A and B in
any pairing it gives the path of (A, B).  `_pair_table(n)` reads every
pair of equal-size proper subsets of [n] once; no other module walks one.

Public functions validate their input once.  The `_`-prefixed kernels
(`_walk`, `_prefix_paths`, `_prefix_masks`, `_pair_table`, `_gale_leq`)
check nothing; they are called, here and from the other layers, only on
input that a public function has already checked.  `_gale_leq` takes any
iterables of distinct in-range values of equal count, so it reads prefix
slices `u[:k]` and no prefix sets are built.  `shifted_interval` is a
checked, uncached brute-force oracle.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import le
from typing import Iterable

from .errors import PreconditionError
from .permcore import Perm, validate_permutation

ValueSet = frozenset[int]
#: (depth, valid shifts) of one comparison path.
Reading = tuple[int, frozenset[int]]


def _check_pair(a_set: Iterable[int], b_set: Iterable[int], n: int) -> tuple[ValueSet, ValueSet]:
    A, B = frozenset(a_set), frozenset(b_set)
    if len(A) != len(B):
        raise PreconditionError(f"sets must have equal size, got {len(A)} and {len(B)}")
    for s in (A, B):
        for v in s:
            if not 1 <= v <= n:
                raise PreconditionError(f"value {v} out of range 1..{n}")
    return A, B


def _check_shift(r: int, n: int) -> None:
    if not 1 <= r <= n:
        raise PreconditionError(f"shift {r} out of range 1..{n}")


def _check_perms(*perms: Perm) -> tuple[Perm, ...]:
    """The permutations as tuples, once each is checked and all share one size."""
    checked = tuple(map(validate_permutation, perms))
    n = len(checked[0])
    for w in checked:
        if len(w) != n:
            raise PreconditionError("permutations must have the same size")
    return checked


def _walk(heights: list[int], pairs: Iterable[tuple[int, int]]) -> list[Reading]:
    """
    Move the path in `heights` (the heights after 0..n steps) through the
    value pairs one at a time, and read (depth, valid shifts) after each:
    r - 1 runs over the x in 0..n-1 where the minimum height is attained.
    The path ends at the height it starts from, so that set is never empty.
    """
    steps = range(1, len(heights))
    readings = []
    for a, b in pairs:
        if a < b:
            for x in range(a, b):
                heights[x] += 1
        else:
            for x in range(b, a):
                heights[x] -= 1
        low = min(heights)
        readings.append((-low, frozenset([r for r, h in zip(steps, heights) if h == low])))
    return readings


def _whole_path(a_set: Iterable[int], b_set: Iterable[int], n: int) -> tuple[list[int], Reading]:
    """The heights after 0..n steps of the path of (A, B), and its reading."""
    A, B = _check_pair(a_set, b_set, n)
    heights = [0] * (n + 1)
    # a pair of equal values moves nothing, so (0, 0) first reads the start
    # and two empty sets get a reading too
    return heights, _walk(heights, [(0, 0), *zip(sorted(A), sorted(B))])[-1]


def path_heights(a_set: Iterable[int], b_set: Iterable[int], n: int) -> tuple[int, ...]:
    """
    Heights after steps 1..n.

    >>> path_heights({3, 4, 6, 7}, {1, 2, 3, 5}, 7)
    (-1, -2, -2, -1, -2, -1, 0)
    """
    return tuple(_whole_path(a_set, b_set, n)[0][1:])


def depth(a_set: Iterable[int], b_set: Iterable[int], n: int) -> int:
    return _whole_path(a_set, b_set, n)[1][0]


def valid_shifts(a_set: Iterable[int], b_set: Iterable[int], n: int) -> frozenset[int]:
    """All r in [n] with A <=_r B, read off the path.  Never empty."""
    return _whole_path(a_set, b_set, n)[1][1]


def prefix_paths(u: Perm, v: Perm) -> list[Reading]:
    """
    (depth, valid shifts) of the comparison path of the k-prefixes of u and
    v, for the columns k = 1..n-1.

    >>> prefix_paths((4, 3, 2, 1), (3, 1, 4, 2))
    [(1, frozenset({4})), (1, frozenset({2, 3, 4})), (1, frozenset({2}))]
    """
    return _prefix_paths(*_check_perms(u, v))


def _prefix_paths(u: Perm, v: Perm) -> list[Reading]:
    """`prefix_paths` of two permutations of one size, unchecked."""
    return _walk([0] * (len(u) + 1), zip(u[:-1], v[:-1]))


def _prefix_masks(w: Perm) -> list[int]:
    """The k-prefix sets of w, k = 1..n-1, as `value_mask` bitmasks."""
    masks = []
    S = 0
    for x in w[:-1]:
        S |= 1 << (x - 1)
        masks.append(S)
    return masks


# one entry per n; the callers bound n at 7, where the table holds 3,430 pairs
@lru_cache(maxsize=8)
def _pair_table(n: int) -> tuple[dict[int, frozenset[int]], dict[int, int]]:
    """(valid shifts, depth) of the path of every pair (A, B) of k-subsets
    of [n], 1 <= k < n, keyed A << n | B; read only, one object per shift
    set.  Grown depth first: one `_walk` step (a, b) adds a to A, b to B."""
    paths: dict[int, frozenset[int]] = {}
    depths: dict[int, int] = {}
    shared: dict[frozenset[int], frozenset[int]] = {}

    def grow(A: int, B: int, k: int, heights: list[int]) -> None:
        for a in range(A.bit_length() + 1, n + 1):
            grown_A = A | 1 << (a - 1)
            for b in range(B.bit_length() + 1, n + 1):
                grown_B, after = B | 1 << (b - 1), heights[:]
                ((depth, shifts),) = _walk(after, [(a, b)])
                key = grown_A << n | grown_B
                paths[key], depths[key] = shared.setdefault(shifts, shifts), depth
                if k + 2 < n:
                    grow(grown_A, grown_B, k + 1, after)

    if n > 1:
        grow(0, 0, 0, [0] * (n + 1))
    return paths, depths


def shifted_gale_leq(a_set: Iterable[int], b_set: Iterable[int], r: int, n: int) -> bool:
    """
    Sort both sets increasingly under the shifted order with minimum r and
    compare elementwise: each element is replaced by its shifted rank
    (x - r) mod n once, and the ranks are sorted.  Independent of the path
    route above; it reads no heights.  The shift r must be in 1..n.
    """
    A, B = _check_pair(a_set, b_set, n)
    _check_shift(r, n)
    return _gale_leq(A, B, r, n)


def _gale_leq(A: Iterable[int], B: Iterable[int], r: int, n: int) -> bool:
    """`shifted_gale_leq` on distinct values in 1..n, equal counts, r in 1..n; unchecked."""
    a_ranks = sorted([(x - r) % n for x in A])
    b_ranks = sorted([(y - r) % n for y in B])
    return all(map(le, a_ranks, b_ranks))


def shifted_interval(
    a_set: Iterable[int], b_set: Iterable[int], r: int, n: int
) -> frozenset[ValueSet]:
    """
    All K with |K| = |A| and A <=_r K <=_r B, by brute-force enumeration
    of k-subsets.  Deliberately unclever; this is an oracle.
    """
    A, B = _check_pair(a_set, b_set, n)
    _check_shift(r, n)
    if not _gale_leq(A, B, r, n):
        raise PreconditionError(f"sets are not comparable under shift r={r}")
    return frozenset(
        frozenset(K)
        for K in combinations(range(1, n + 1), len(A))
        if _gale_leq(A, K, r, n) and _gale_leq(K, B, r, n)
    )


def check_shift_sequence(a: tuple[int, ...], n: int) -> None:
    """A shift sequence for S_n has n - 1 entries, each in 1..n."""
    if len(a) != n - 1:
        raise PreconditionError(f"shift sequence must have length {n - 1}, got {len(a)}")
    for r in a:
        _check_shift(r, n)


def shift_leq(u: Perm, v: Perm, a: tuple[int, ...]) -> bool:
    """u <=_a v: every prefix pair compares under its per-column shift."""
    u, v = _check_perms(u, v)
    n = len(u)
    check_shift_sequence(a, n)
    return all(_gale_leq(u[:k], v[:k], a[k - 1], n) for k in range(1, n))


def find_shift_sequence(u: Perm, v: Perm) -> tuple[int, ...]:
    """
    Some a with u <=_a v; always exists.  Smallest valid shift per column,
    for determinism.

    >>> find_shift_sequence((4, 3, 2, 1), (3, 1, 4, 2))
    (4, 2, 2)
    """
    return tuple(min(shifts) for _, shifts in prefix_paths(u, v))
