"""
Permutations of [n] = {1, ..., n} in one-line notation, together with the
cyclic-interval / shifted-order vocabulary everything else is built on.

Conventions used throughout the package:

- A permutation is a tuple of the values 1..n, ``w = (w_1, ..., w_n)``, so
  ``w[i-1]`` is the value at position ``i``.
- Composition is ``(u v)(i) = u(v(i))``; multiplying on the right by the
  transposition ``t = (i, j)`` exchanges the entries at positions i and j.
- A root is a pair ``(i, j)`` with ``1 <= i < j <= n``, printed ``e{i}-e{j}``.
- Cyclic intervals are read by walking forward ``a -> a+1 -> ... -> b``
  (values wrap at n).  Two conventions circulate for the wrapped case a > b;
  we use the walk-forward reading {a+1,...,n} u {1,...,b-1} for the open
  interval, which is the one that makes membership rotation-equivariant:
  k in (a,b)_c iff k+1 in (a+1,b+1)_c.  Degenerate cases: [j,j]_c = {j},
  [j,j)_c = (j,j]_c = (j,j)_c = {} and a right endpoint of 0 is read as n,
  so [j,0]_c = {j,...,n}.
"""
from __future__ import annotations

import itertools
from math import isqrt
from typing import Iterable, Iterator, Sequence

from .errors import ParseError, PreconditionError

Perm = tuple[int, ...]
Root = tuple[int, int]


def validate_permutation(w: Sequence[int]) -> Perm:
    """w as a tuple, once it lists each of 1..n exactly once, n = len(w) >= 1."""
    if not w or sorted(w) != list(range(1, len(w) + 1)):
        raise PreconditionError(f"not a permutation of 1..{len(w)}: {_excerpt(repr(tuple(w)))}")
    return tuple(w)


def _excerpt(text: str, limit: int = 60) -> str:
    """`text` quoted for an error message, cut after `limit` characters."""
    return repr(text) if len(text) <= limit else repr(text[:limit]) + "..."


def parse_permutation(text: str) -> Perm:
    """
    Parse one-line notation, either a digit string (n <= 9) or a
    comma-separated list of integers, written in the ASCII digits 0-9.

    >>> parse_permutation("321")
    (3, 2, 1)
    >>> parse_permutation("7,3,6,4,1,5,2")
    (7, 3, 6, 4, 1, 5, 2)
    """
    text = text.strip()
    if not text:
        raise ParseError("empty permutation")
    if "," in text:
        tokens = [tok.strip() for tok in text.split(",")]
    else:
        tokens = list(text)
    n = len(tokens)
    width = len(str(n))
    word = []
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise ParseError(f"invalid token {_excerpt(tok)} in permutation {_excerpt(text)}")
        digits = tok.lstrip("0") or "0"
        if len(digits) > width:  # out of range, and int() refuses past 4300 digits
            raise ParseError(f"value {_excerpt(digits)} out of range 1..{n} in {_excerpt(text)}")
        word.append(int(digits))
    seen: set[int] = set()
    for value in word:
        if value < 1 or value > n:
            raise ParseError(f"value {value} out of range 1..{n} in {_excerpt(text)}")
        if value in seen:
            raise ParseError(f"duplicate value {value} in {_excerpt(text)}")
        seen.add(value)
    return tuple(word)


def format_permutation(w: Perm) -> str:
    """One-line text form: digits for n <= 9, comma-separated above."""
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """w_0 = n n-1 ... 1."""
    return tuple(range(n, 0, -1))


def all_permutations(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic one-line order."""
    return itertools.permutations(range(1, n + 1))


def coxeter_length(w: Perm) -> int:
    """
    Number of inversions #{(i,j) : i < j, w_i > w_j}.

    >>> coxeter_length((3, 2, 1))
    3
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def _check_root(t: Root, n: int) -> Root:
    """t as a root (i, j) of S_n: a pair of ints with 1 <= i < j <= n."""
    i, j = t if isinstance(t, (tuple, list)) and len(t) == 2 else (None, None)
    if not (isinstance(i, int) and isinstance(j, int) and 1 <= i < j <= n):
        raise PreconditionError(f"root {_excerpt(repr(t))} is not a pair 1 <= i < j <= {n}")
    return i, j


def apply_transposition(w: Perm, t: Root) -> Perm:
    """
    Right multiplication w * t_{ij}: exchange the entries at positions i, j.

    >>> apply_transposition((3, 2, 1), (1, 3))
    (1, 2, 3)
    """
    i, j = _check_root(t, len(w))
    word = list(w)
    word[i - 1], word[j - 1] = word[j - 1], word[i - 1]
    return tuple(word)


def prefix_set(w: Perm, k: int) -> frozenset[int]:
    """The value set {w_1, ..., w_k}; k = 0 gives the empty set."""
    if not 0 <= k <= len(w):
        raise PreconditionError(f"prefix length {k} out of range 0..{len(w)}")
    return frozenset(w[:k])


def value_mask(values: Iterable[int]) -> int:
    """
    A value set as an int: bit x - 1 is set for each value x, so the
    subsets of [n] are the ints 0 .. 2^n - 1.

    >>> value_mask({1, 3})
    5
    """
    mask = 0
    for x in values:
        mask |= 1 << (x - 1)
    return mask


def long_cycle_rotate(w: Perm) -> Perm:
    """
    Apply the long cycle (1 2 ... n) on values: every value v becomes v+1
    (mod n), positions untouched.

    >>> long_cycle_rotate((1, 2, 3))
    (2, 3, 1)
    """
    n = len(w)
    return tuple(v % n + 1 for v in w)


def all_roots(n: int) -> list[Root]:
    """Positive roots (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


# ---------------------------------------------------------------------------
# Cyclic intervals


def cyclic_contains(
    a: int,
    b: int,
    k: int,
    n: int,
    *,
    include_a: bool = True,
    include_b: bool = True,
) -> bool:
    """
    Is k in the cyclic interval from a to b (walk-forward reading)?

    Openness is controlled per endpoint; the fully closed interval is the
    default.  A right endpoint b = 0 is read as n.

    >>> cyclic_contains(3, 1, 4, 4, include_a=False, include_b=False)
    True
    >>> cyclic_contains(5, 5, 2, 6, include_b=False)
    False
    """
    if not 1 <= a <= n:
        raise PreconditionError(f"left endpoint {a} out of range 1..{n}")
    if b == 0:
        b = n
    if not 1 <= b <= n:
        raise PreconditionError(f"right endpoint {b} out of range 0..{n}")
    if not 1 <= k <= n:
        raise PreconditionError(f"value {k} out of range 1..{n}")
    if a == b:
        return include_a and include_b and k == a
    pos = (k - a) % n
    width = (b - a) % n
    if pos == 0:
        return include_a
    if pos == width:
        return include_b
    return pos < width


def cyclic_set(
    a: int,
    b: int,
    n: int,
    *,
    include_a: bool = True,
    include_b: bool = True,
) -> frozenset[int]:
    """The cyclic interval from a to b as a set, same conventions as above."""
    return frozenset(
        k
        for k in range(1, n + 1)
        if cyclic_contains(a, b, k, n, include_a=include_a, include_b=include_b)
    )


# ---------------------------------------------------------------------------
# Reflection orderings


def reflection_ordering(reduced_word: Sequence[int]) -> tuple[Root, ...]:
    """
    The reflection ordering induced by a reduced word for the longest
    permutation: the k-th root is the image of the k-th simple root under
    the product of the first k-1 letters.

    The word uses 1-based simple-generator indices.  Raises if the word is
    not a reduced word for w_0 (wrong length, bad letters, or wrong product).

    >>> reflection_ordering((1, 2, 1))
    ((1, 2), (1, 3), (2, 3))
    """
    length = len(reduced_word)
    n = (1 + isqrt(1 + 8 * length)) // 2
    if n * (n - 1) // 2 != length:
        raise PreconditionError(
            f"word of length {length} cannot be a reduced word for any w_0"
        )
    if n == 1:
        return ()
    for letter in reduced_word:
        if not 1 <= letter <= n - 1:
            raise PreconditionError(f"letter {letter} out of range 1..{n - 1}")
    sigma = list(range(1, n + 1))
    roots: list[Root] = []
    for letter in reduced_word:
        i, j = sigma[letter - 1], sigma[letter]
        if i > j:
            # the word revisits an inversion, so it is not reduced
            raise PreconditionError(
                f"word {tuple(reduced_word)} is not reduced (repeats e{j}-e{i})"
            )
        roots.append((i, j))
        sigma[letter - 1], sigma[letter] = sigma[letter], sigma[letter - 1]
    if tuple(sigma) != longest_element(n):
        raise PreconditionError(
            f"word {tuple(reduced_word)} is not a reduced word for w_0"
        )
    return tuple(roots)


def is_reflection_ordering(roots: Sequence[Root], n: int) -> bool:
    """
    Betweenness test: for every i < j < k, the root (i,k) must appear
    between (i,j) and (j,k).
    """
    if sorted(roots) != all_roots(n):
        return False
    position = {root: idx for idx, root in enumerate(roots)}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                lo, hi = sorted((position[(i, j)], position[(j, k)]))
                if not lo < position[(i, k)] < hi:
                    return False
    return True


def reduced_words_of_longest(n: int) -> list[tuple[int, ...]]:
    """
    All reduced words for w_0 in S_n, enumerated by peeling right descents.
    Exponential; meant for validation at n <= 4.
    """

    def words(w: Perm) -> list[tuple[int, ...]]:
        if coxeter_length(w) == 0:
            return [()]
        out: list[tuple[int, ...]] = []
        for i in range(1, len(w)):
            if w[i - 1] > w[i]:
                shorter = apply_transposition(w, (i, i + 1))
                out.extend(word + (i,) for word in words(shorter))
        return out

    return words(longest_element(n))
