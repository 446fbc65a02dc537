"""
Exact-rational flags, Plucker coordinates, and tilted Richardson membership.

Everything here is exact: zero tests are literal equality, and no floating
point appears anywhere.  A flag is an invertible n x n matrix of ints and
Fractions; its k-th space is the span of the first k columns, and P_I is
the minor on rows I and the first |I| columns.

A flag keeps a column-scaled integer copy of its matrix, read off each
entry's numerator and denominator, and is finished when it is made: the
table of all its 2^n minors P_I (times the column scales), each by Laplace
expansion from the minors one row smaller; its live set, the row sets on a
chain of nonzero minors from the empty set to [n]; and the rank of every
cyclic row window on every column prefix.  A window of all n rows needs
no elimination: the matrix is invertible, so its rank on k columns is k.
Every rank, determinant and nullspace comes from one fraction-free
integer elimination kernel (Bareiss).  The sampler keeps each column it
builds as integers over one denominator, carries for each rank cap's row
mask the pivots of the built columns restricted to it, so no column is
eliminated twice for one mask, and finishes the flag from its integer
columns; the incidence relations compare integer sums of minors.
Fractions appear only at the API boundary: `Flag.matrix`, `Flag.plucker`
and `Flag.plucker_perm`.

Membership of a flag in the (open) tilted Richardson variety of a pair
(u, v) is decided three provably equivalent ways: rank bounds on cyclic
row windows, per-column rotated Grassmannian Richardson conditions, and
vanishing of the multi-Plucker coordinates P_w for w outside [u, v].  P_w
is the product of the minors on the prefix sets of w, so the last one is
a check on chains of the subset lattice: every live row set must be an
admissible prefix set of [u, v] (`tiltedorder.admissible_nodes`).  The
routes share nothing on purpose, and their agreement is part of the
verification suites: the rank route reads only window ranks, the
per-column route only the minors P_I, and the multi-Plucker route only
the live set.  The first two are checked and planned once per (u, v, a,
n), in one bounded cache, `_plans`; the rank plans read the slots and
windows of every cyclic scan from one table per n, `_scan_steps`.  A
`_FlagFamily` runs the three routes on a list of flags at once, one bit
per flag in each answer, each route reading its plan against its own
table of bitsets.

Sets of values or rows are value masks (`permcore.value_mask`), the index
of the minor table and the live set.  Each shifted Gale window is listed
once by the brute-force `latticepath.shifted_interval` and kept as masks
in one bounded cache, `_window_masks`; prefix sets are read off
`latticepath._prefix_masks`.
"""
from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import gcd, lcm, prod
from operator import itemgetter, le, mul, or_
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

from .diagrams import EquationSet, PluckerEquation, find_flat, signed_sorted_insert
from .errors import (
    InternalInvariantError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
    SamplingError,
)
from .latticepath import _gale_leq, _prefix_masks, shift_leq, shifted_interval
from .permcore import Perm, _excerpt, format_permutation, validate_permutation, value_mask
from .tiltedorder import admissible_nodes

Matrix = tuple[tuple[Fraction, ...], ...]

#: A flag holds all 2^n of its minors, so flags, and with them the sampler,
#: `stratum` and every membership route, only run up to here.  The table
#: alone would fit much further (n * 2^(n-1) multiply-adds); the bound stays
#: at 7 until the sampler and `stratum` are measured and tested above it.
MAX_TABLE_N = 7

#: Numerators of random rational draws are uniform on [-SAMPLE_BOUND, SAMPLE_BOUND].
SAMPLE_BOUND = 100

#: The sampler draws each column up to MAX_COLUMN_TRIES times before it
#: starts the flag over, at most MAX_RESTARTS times.
MAX_COLUMN_TRIES = 40
MAX_RESTARTS = 8


# ---------------------------------------------------------------------------
# The exact integer kernel
#
# Every rank, determinant, window rank and nullspace below comes from one
# fraction-free elimination (Bareiss 1968) over int.  Rows enter one at a
# time and are reduced against the pivot rows found so far by the two-term
# Bareiss update; its division by the previous pivot is exact by
# Sylvester's identity, so every entry stays an integer minor of the input
# and nothing grows beyond the Hadamard bound.

Pivots = list[tuple[int, Sequence[int]]]


def _add_row(pivots: Pivots, row: Sequence[int]) -> int | None:
    """
    Reduce an integer row against the pivot rows and, if anything is left,
    append it as a new pivot at its leftmost nonzero column.  Returns that
    column, or None when the row lies in the span of the earlier rows.  The
    pivot columns stay distinct and each pivot row vanishes left of its
    own, so the rank on the first k columns is the number of pivot columns
    below k.
    """
    prev = 1
    vec = row
    for col, prow in pivots:
        p, f = prow[col], vec[col]
        vec = [(p * x - f * y) // prev for x, y in zip(vec, prow)]
        prev = p
    for col, x in enumerate(vec):
        if x:
            pivots.append((col, vec))
            return col
    return None


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the last Bareiss pivot, signed
    by the order in which the pivot columns were found."""
    pivots: Pivots = []
    for row in rows:
        if _add_row(pivots, row) is None:
            return 0
    if not pivots:
        return 1
    cols = [col for col, _ in pivots]
    inversions = sum(1 for i, c in enumerate(cols) for d in cols[i + 1:] if c > d)
    col, last = pivots[-1]
    return -last[col] if inversions % 2 else last[col]


def _free_columns(pivots: Pivots, ncols: int) -> list[int]:
    """The columns without a pivot, in order."""
    pivot_cols = {col for col, _ in pivots}
    return [c for c in range(ncols) if c not in pivot_cols]


def _integer_kernel(pivots: Pivots, ncols: int) -> list[list[int]]:
    """
    Integer vectors spanning the kernel of the pivot rows' span: one per
    free column, 1 there and 0 at the other free columns, solved by back
    substitution from the rightmost pivot column (each pivot row vanishes
    left of its own), the vector scaled up whenever a division is inexact.
    Every scale is positive, so each vector is the only kernel vector with
    1 at its free column and 0 at the others, times the positive integer it
    holds there: over that entry, the vectors are the canonical basis that
    the reduced row echelon form gives.
    """
    order = sorted(pivots, key=lambda piv: piv[0], reverse=True)
    basis = []
    for free in _free_columns(pivots, ncols):
        vec = [0] * ncols
        vec[free] = 1
        for col, prow in order:
            total, p = sum(x * y for x, y in zip(prow, vec)), prow[col]
            scale = abs(p) // gcd(total, p)
            if scale != 1:
                vec = [x * scale for x in vec]
                total *= scale
            vec[col] = -total // p
        basis.append(vec)
    return basis


def _slot(k: int, start: int, length: int, n: int) -> int:
    """Where the window table keeps the rank of the `length` rows cyclically
    from row `start` (1-based) on the first k columns."""
    return (k * n + start - 1) * (n + 1) + length


def _window_table(rows: Sequence[Sequence[int]]) -> bytes:
    """Rank of every cyclic row window on the first k columns, for every k,
    at `_slot(k, start, length, n)`: one incremental elimination per start
    row gives lengths 1..n-1 and all k at once.  A window of all n rows
    needs no elimination: a flag's matrix is invertible (its constructor
    refuses a singular one first), so that window has rank k on k columns."""
    n = len(rows)
    table = bytearray((n + 1) * n * (n + 1))
    full = bytes(range(n + 1))
    for start in range(n):
        pivots: Pivots = []
        ranks = [0] * (n + 1)
        # the slots of one window on k = 0..n columns, n(n + 1) apart
        for length in range(1, n):
            col = _add_row(pivots, rows[(start + length - 1) % n])
            if col is not None:
                for k in range(col + 1, n + 1):
                    ranks[k] += 1
            table[start * (n + 1) + length::n * (n + 1)] = bytes(ranks)
        table[start * (n + 1) + n::n * (n + 1)] = full
    return bytes(table)


# ---------------------------------------------------------------------------
# Matrices and the text format


#: A matrix entry: an optionally signed run of ASCII digits, optionally
#: followed by "/" and a second run; int() and Fraction() take far more.
_ENTRY = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _entry(token: str, row: str) -> Fraction:
    """One matrix entry of `row`, or a ParseError quoting a bounded part of each."""
    reason = "entries are integers or p/q"
    try:
        if _ENTRY.fullmatch(token):
            return Fraction(token)
    except ZeroDivisionError:
        reason = "zero denominator"
    except ValueError as exc:  # past Python's limit on int digits
        reason = str(exc)
    raise ParseError(f"bad rational {_excerpt(token)} in row {_excerpt(row)}: {reason}")


def parse_matrix(text: str) -> Matrix:
    """
    Plain-text format: first line n in ASCII digits, then n lines of n
    entries separated by whitespace, each an integer or "p/q" (see _ENTRY).
    Error messages quote at most a bounded prefix of the offending line.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix file")
    try:
        if not (lines[0].isascii() and lines[0].isdigit()):
            raise ValueError("not a run of ASCII digits")
        n = int(lines[0])  # past Python's limit on int digits this raises too
    except ValueError as exc:
        raise ParseError(f"first line must be the size n, got {_excerpt(lines[0])}") from exc
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        tokens = ln.split()
        if len(tokens) != n:
            raise ParseError(f"expected {n} entries per row, got {len(tokens)}: {_excerpt(ln)}")
        rows.append(tuple([_entry(token, ln) for token in tokens]))
    return tuple(rows)


def format_matrix(m: Matrix) -> str:
    lines = [str(len(m))]
    for row in m:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Flags


def _minor_table(rows: Sequence[Sequence[int]]) -> list[int]:
    """
    Every minor on a row set S and the first |S| columns, at index
    value_mask(S); entry 0 is 1.  Each entry is the Laplace expansion along
    its last column of the entries one row smaller: row r of S contributes
    rows[r][|S| - 1] * t[S - r], negated when an odd number of rows of S
    lie above r.  n * 2^(n-1) multiply-adds in all.
    """
    n = len(rows)
    table = [1] * (1 << n)
    for S in range(1, 1 << n):
        col = S.bit_count() - 1
        total = 0
        sign = 1
        for r in range(n - 1, -1, -1):
            bit = 1 << r
            if S & bit:
                total += sign * rows[r][col] * table[S ^ bit]
                sign = -sign
        table[S] = total
    return table


def _check_table_n(n: int) -> None:
    if n > MAX_TABLE_N:
        raise ResourceLimitError(
            f"a flag holds all 2^n of its minors; flags are bounded at n <= {MAX_TABLE_N}"
        )


class Flag:
    """
    An invertible exact-rational matrix of size n <= MAX_TABLE_N, immutable
    and finished when built (see the module notes).  Each column is kept
    multiplied by the lcm of its denominators, its scale.  That keeps every
    space of the flag and every rank, and multiplies each P_I by the product
    of the first |I| scales, which `plucker` divides back out.
    """

    def __init__(self, matrix: Sequence[Sequence[object]]):
        n = len(matrix)
        if n == 0 or any(len(row) != n for row in matrix):
            raise PreconditionError("flag matrices must be square and nonempty")
        _check_table_n(n)
        bad = [x for row in matrix for x in row if not isinstance(x, (int, Fraction))]
        if bad:
            raise PreconditionError(f"matrix entries must be int or Fraction, got {bad[0]!r}")
        scales = [lcm(*(x.denominator for x in col)) for col in zip(*matrix)]
        self._finish(
            tuple(
                tuple(x.numerator * (s // x.denominator) for x, s in zip(row, scales))
                for row in matrix
            ),
            scales,
        )

    @classmethod
    def _from_columns(cls, cols: Sequence[Sequence[int]], dens: Sequence[int]) -> Flag:
        """
        The flag of the matrix whose column c is cols[c] / dens[c], each
        denominator positive, equal to `Flag` of those Fractions without
        making one: the lcm of the column's reduced denominators, its scale,
        is d // gcd(d, *col), and its integer copy is col // gcd(d, *col).
        """
        flag = cls.__new__(cls)
        common = [gcd(d, *col) for col, d in zip(cols, dens)]
        flag._finish(
            tuple(zip(*[[x // g for x in col] for col, g in zip(cols, common)])),
            [d // g for d, g in zip(dens, common)],
        )
        return flag

    def _finish(self, rows: tuple[tuple[int, ...], ...], scales: Sequence[int]) -> None:
        """Build the tables of the matrix whose column c is column c of the
        integer rows over scales[c], or refuse it when it is singular."""
        self.n = len(rows)
        self._rows = rows
        self._scale = tuple(accumulate(scales, mul, initial=1))
        self._minors = _minor_table(rows)
        if self._minors[-1] == 0:
            raise PreconditionError("matrix is singular; a flag needs full rank")
        # The live row sets, as a set of nodes: those on a chain of nonzero
        # minors from the empty set to [n].  On an invertible matrix that is
        # every S with P_S != 0: a nonsingular minor on S leaves one on some
        # S - r once its last column goes, and extends to one on some S + r
        # because the first |S| + 1 columns have full rank.
        self._live = sum(1 << S for S, minor in enumerate(self._minors) if minor)
        self._windows = _window_table(rows)

    @property
    def matrix(self) -> Matrix:
        """The matrix as Fractions: each integer column over its scale."""
        scales = [b // a for a, b in zip(self._scale, self._scale[1:])]
        return tuple(tuple(map(Fraction, row, scales)) for row in self._rows)

    def _minor(self, rows: Collection[int]) -> int:
        """P_I times the product of the first |I| column scales, I the rows."""
        if rows and not (1 <= min(rows) and max(rows) <= self.n):
            raise PreconditionError(f"row set {sorted(set(rows))} out of range 1..{self.n}")
        mask = value_mask(rows)
        if mask.bit_count() != len(rows):
            raise PreconditionError(f"row list {_excerpt(str(rows))} repeats a row")
        return self._minors[mask]

    def plucker(self, values: Iterable[int]) -> Fraction:
        """P_I: minor on the distinct rows I (sorted) and the first |I| columns; P_{} = 1."""
        rows = list(values)
        return Fraction(self._minor(rows), self._scale[len(rows)])

    def plucker_perm(self, w: Perm) -> Fraction:
        """P_w: the product of the prefix coordinates of w, a permutation of size n."""
        w = validate_permutation(w)
        n = self.n
        if len(w) != n:
            raise PreconditionError(f"P_w needs a permutation of size {n}, got {len(w)}")
        numerator = prod(map(self._minors.__getitem__, _prefix_masks(w)))
        return Fraction(numerator, prod(self._scale[1:n]))

    def window_rank(self, start: int, length: int, k: int) -> int:
        """Rank of the `length` rows cyclically from row `start` (start,
        start + 1, ... mod n) restricted to the first k columns."""
        n = self.n
        if not (1 <= start <= n and 0 <= length <= n and 0 <= k <= n):
            raise PreconditionError(
                f"window ({start}, {length}) on {k} columns out of range for n={n}"
            )
        return self._windows[_slot(k, start, length, n)]


def permutation_flag(w: Perm) -> Flag:
    """The coordinate flag of w: matrix with a 1 at (w(i), i)."""
    validate_permutation(w)
    n = len(w)
    _check_table_n(n)
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        rows[w[i - 1] - 1][i - 1] = 1
    return Flag(rows)


def random_flag(n: int, seed: int | random.Random) -> Flag:
    """A generic flag: integer entries uniform on [-SAMPLE_BOUND, SAMPLE_BOUND]."""
    if n < 1:  # no draw of an empty matrix is a flag, so redrawing would never end
        raise PreconditionError(f"a flag needs n >= 1, got {n}")
    _check_table_n(n)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    while True:
        rows = [[rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for _ in range(n)] for _ in range(n)]
        try:
            return Flag(rows)
        except PreconditionError:  # the minor table found it singular: draw again
            pass


# ---------------------------------------------------------------------------
# The incidence relations
#
# The relations read signed coordinates as the flag's integer minors (P_K
# is minor[K] / scale[|K|]), each sign from diagrams.signed_sorted_insert,
# the rule the ledgers use.


def _signed_minor(F: Flag, I: frozenset[int], drop: int | None, add: int | None) -> int:
    """
    P_{(I - drop) + add} times the scale of its row count: drop `drop`, a
    member of I, from sorted I, with the sign (-1)^(k - position), then
    append `add`, zero when it is already there; either index may be None.
    """
    sign = 1
    if drop is not None:
        I = I - {drop}
        sign = signed_sorted_insert(I, drop)[1]
    if add is not None:
        if add in I:
            return 0
        I, flip = signed_sorted_insert(I, add)
        sign *= flip
    return sign * F._minor(I)


def _incidence_sum(F: Flag, I: frozenset[int], J: frozenset[int], j: int | None = None) -> int:
    """
    sum_{i in I} P_{(I - i) + j} P_{J + i}, j None for P_{I - i} P_{J + i},
    on the integer minors.  Each relation below is homogeneous: every term
    on both sides has the one positive denominator scale[|I|] scale[|J|]
    (product rule), scale[|I| - 1] scale[|J| + 1] (sum rule) or scale[|I|]
    scale[|J| + 1] (exchange rule), so comparing integer sums is exact.
    """
    return sum(_signed_minor(F, I, i, j) * _signed_minor(F, J, None, i) for i in I)


def incidence_product_rule_holds(F: Flag, I: Iterable[int], J: Iterable[int]) -> bool:
    """P_I P_J = sum_{i in I} P_{I-i} P_{J+i} for |I| = |J| + 1."""
    I_set, J_set = frozenset(I), frozenset(J)
    if len(I_set) != len(J_set) + 1:
        raise PreconditionError("product rule needs |I| = |J| + 1")
    return F._minor(I_set) * F._minor(J_set) == _incidence_sum(F, I_set, J_set)


def incidence_sum_rule_holds(F: Flag, I: Iterable[int], J: Iterable[int]) -> bool:
    """sum_{i in I} P_{I-i} P_{J+i} = 0 for |I| - |J| >= 2."""
    I_set, J_set = frozenset(I), frozenset(J)
    if len(I_set) - len(J_set) < 2:
        raise PreconditionError("sum rule needs |I| - |J| >= 2")
    return _incidence_sum(F, I_set, J_set) == 0


def incidence_exchange_rule_holds(F: Flag, I: Iterable[int], J: Iterable[int], j: int) -> bool:
    """
    P_I P_{J+j} = sum_{i in I} P_{I-i+j} P_{J+i} for |I| - |J| >= 2 and
    j not in J.  (The sign convention here is the one actual minors obey:
    it follows from the general incidence relation with the singleton
    exchange set {j}.)
    """
    I_set, J_set = frozenset(I), frozenset(J)
    if len(I_set) - len(J_set) < 2:
        raise PreconditionError("exchange rule needs |I| - |J| >= 2")
    if j in J_set:
        raise PreconditionError("exchange rule needs j outside J")
    lhs = F._minor(I_set) * _signed_minor(F, J_set, None, j)
    return lhs == _incidence_sum(F, I_set, J_set, j)


# ---------------------------------------------------------------------------
# The three membership definitions
#
# What the rank and the per-column route read of (u, v, a) does not depend
# on the flag: `_plans` checks (u, v, a) and plans both once per (u, v, a, n)
# in one bounded cache.  A failed check is never stored, so a bad shift
# sequence, or a pair of another size than the flag, raises on every call.

#: Entries of `_plans`, one per (u, v, a, n), and of `_sampler_caps`, one
#: per (u, v, a): every shift sequence of a pair fits at n <= 4.
PLAN_CACHE_SIZE = 64


# one entry per (A, B, r, n); `verify` holds 140 to 561 of them, the sampler
# 167 after 30 samples at n = 7
@lru_cache(maxsize=1024)
def _window_masks(A: frozenset[int], B: frozenset[int], r: int, n: int) -> frozenset[int]:
    """The shifted Gale window of (A, B, r), the sets K with A <=_r K <=_r
    B, as value masks; listed by the brute-force `shifted_interval`."""
    return frozenset(map(value_mask, shifted_interval(A, B, r, n)))


# one entry per n; flags stop at MAX_TABLE_N
@lru_cache(maxsize=MAX_TABLE_N)
def _scan_steps(n: int) -> dict[tuple[int, int, bool], tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every scan of the rank route on n rows, keyed (k, cut, backward) for
    k = 1..n-1.  A scan takes the rows cyclically from the cut, forward
    cut, cut + 1, ... or backward cut - 1, cut - 2, ...; it is kept as each
    step's slot in the window table on the first k columns (the rows so far
    are a cyclic window) and the mask of that window, so step i adds the
    row windows[i] & ~windows[i - 1]."""
    steps = {}
    for k, cut, backward in product(range(1, n), range(1, n + 1), (False, True)):
        slots, windows, window = [], [], 0
        for length in range(1, n + 1):
            row = (cut - 1 - length) % n + 1 if backward else (cut + length - 2) % n + 1
            # a backward window starts at the row just scanned, a forward one at the cut
            slots.append(_slot(k, row if backward else cut, length, n))
            window |= 1 << (row - 1)
            windows.append(window)
        steps[k, cut, backward] = tuple(slots), tuple(windows)
    return steps


def _rank_plan(u: Perm, v: Perm, a: tuple[int, ...], n: int) -> tuple[tuple, tuple, Callable]:
    """
    The windows of the rank route as slots in a flag's window table, their
    bounds, and a getter of those slots: on column i, each window scanned
    forward from the cut a_i may have rank at most |u[:i] & window|, and
    each window scanned backward from it at most |v[:i] & window|.
    """
    steps = _scan_steps(n)
    slots: list[int] = []
    bounds: list[int] = []
    for i, refs in enumerate(zip(_prefix_masks(u), _prefix_masks(v)), start=1):
        for backward, ref in zip((False, True), refs):
            scan_slots, windows = steps[i, a[i - 1], backward]
            slots += scan_slots
            bounds += [(ref & window).bit_count() for window in windows]
    # at n = 1 there is no slot, and itemgetter needs at least one
    return tuple(slots), tuple(bounds), itemgetter(*slots) if slots else lambda ranks: ()


def _grassmann_plan(u: Perm, v: Perm, a: tuple[int, ...], n: int) -> tuple[tuple, tuple]:
    """For every column k, the masks of the k-subsets outside the shifted
    Gale window of (u[:k], v[:k], a_k); and the masks of the endpoint sets
    u[:k], v[:k] of every column."""
    windows = [_window_masks(frozenset(u[:k]), frozenset(v[:k]), a[k - 1], n) for k in range(1, n)]
    off = tuple(K for K in range(1, (1 << n) - 1) if K not in windows[K.bit_count() - 1])
    return off, tuple(M for ends in zip(_prefix_masks(u), _prefix_masks(v)) for M in ends)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plans(u: Perm, v: Perm, a: tuple[int, ...], n: int) -> tuple[tuple, tuple]:
    """The rank and the Grassmann plan of (u, v, a) on n rows, checked once."""
    if len(u) != n or len(v) != n:
        raise PreconditionError("permutations must match the flag's size")
    if not shift_leq(u, v, a):
        raise PreconditionError("u is not below v under the supplied shift sequence")
    return _rank_plan(u, v, a, n), _grassmann_plan(u, v, a, n)


def member_T_rank(u: Perm, v: Perm, a: tuple[int, ...], F: Flag, open_cell: bool = False) -> bool:
    """
    Rank-window route: for every column i and window endpoint j, the rows
    cyclically at or after the cut a_i satisfy the bound from u and the
    rows before it the bound from v (equalities for the open cell).
    """
    (_, bounds, get), _ = _plans(tuple(u), tuple(v), tuple(a), F.n)
    got = get(F._windows)
    return got == bounds if open_cell else all(map(le, got, bounds))


def member_T_grassmann(
    u: Perm, v: Perm, a: tuple[int, ...], F: Flag, open_cell: bool = False
) -> bool:
    """
    Per-column route: column k must land in the rotated Grassmannian
    Richardson variety of (u[k], v[k], a_k), i.e. every P_K with K outside
    the shifted Gale interval vanishes; the open cell also needs the two
    endpoint coordinates nonzero.
    """
    _, (off, ends) = _plans(tuple(u), tuple(v), tuple(a), F.n)
    minors = F._minors
    if any(minors[K] for K in off):
        return False
    return not open_cell or all(minors[K] for K in ends)


def member_T_plucker(u: Perm, v: Perm, F: Flag, open_cell: bool = False) -> bool:
    """
    Multi-Plucker route, needing no shift sequence: P_w vanishes for every
    w outside [u, v]; the open cell adds P_u P_v != 0.  The w with P_w != 0
    are the chains of nonzero minors and [u, v] is the set of chains of
    admissible nodes, so the first condition says that every live row set
    of F (see Flag) is admissible, and P_w != 0 that the chain of w is live.
    """
    n = F.n
    if len(u) != n or len(v) != n:
        raise PreconditionError("permutations must match the flag's size")
    if F._live & ~admissible_nodes(tuple(u), tuple(v)):
        return False
    if open_cell:
        return all(F._live >> S & 1 for S in _prefix_masks(u) + _prefix_masks(v))
    return True


class _FlagFamily:
    """
    The three routes on a list of flags of one size at once, each answer a
    bitset with bit i for flag i.  Each route reads its own table, as the
    per-flag route reads its own part of a flag: per window-table slot and
    rank r, the flags of rank at most r there and of rank exactly r (rank
    route); per node K, the flags with P_K != 0 (per-column route); per
    node S, the flags with S live (multi-Plucker route).
    """

    def __init__(self, flags: Sequence[Flag]):
        n = self.n = flags[0].n
        self.everyone = (1 << len(flags)) - 1
        exactly = [[0] * (n + 1) for _ in flags[0]._windows]
        nonzero = [0] * (1 << n)
        live = [0] * (1 << n)
        for i, F in enumerate(flags):
            bit = 1 << i
            for at, rank in zip(exactly, F._windows):
                at[rank] |= bit
            for K, minor in enumerate(F._minors):
                if minor:
                    nonzero[K] |= bit
            for S in range(1 << n):
                if F._live >> S & 1:
                    live[S] |= bit
        self._exactly = exactly
        self._at_most = [list(accumulate(at, or_)) for at in exactly]
        self._nonzero = nonzero
        self._live = live

    def rank(self, u: Perm, v: Perm, a: tuple[int, ...], open_cell: bool = False) -> int:
        """`member_T_rank` on every flag: the AND over the plan's slots."""
        (slots, bounds, _), _ = _plans(tuple(u), tuple(v), tuple(a), self.n)
        table = self._exactly if open_cell else self._at_most
        out = self.everyone
        for s, b in zip(slots, bounds):
            out &= table[s][b]
        return out

    def grassmann(self, u: Perm, v: Perm, a: tuple[int, ...], open_cell: bool = False) -> int:
        """`member_T_grassmann` on every flag: no off-window P_K nonzero, and
        for the open cell the endpoint coordinates nonzero."""
        _, (off, ends) = _plans(tuple(u), tuple(v), tuple(a), self.n)
        nonzero = self._nonzero
        out = self.everyone
        for K in off:
            out &= ~nonzero[K]
        if open_cell:
            for K in ends:
                out &= nonzero[K]
        return out

    def plucker(self, u: Perm, v: Perm, open_cell: bool = False) -> int:
        """`member_T_plucker` on every flag: no non-admissible node live, and
        for the open cell the chains of u and v live."""
        n = self.n
        if len(u) != n or len(v) != n:
            raise PreconditionError("permutations must match the flag's size")
        admissible = admissible_nodes(tuple(u), tuple(v))
        live = self._live
        out = self.everyone
        for S in range(1 << n):
            if not admissible >> S & 1:
                out &= ~live[S]
        if open_cell:
            for S in _prefix_masks(u) + _prefix_masks(v):
                out &= live[S]
        return out


# ---------------------------------------------------------------------------
# Stratum location


class StratumLabel(NamedTuple):
    x: Perm
    y: Perm


def _rank_jump_rows(F: Flag, k: int, cut: int, backward: bool) -> int:
    """The mask of the rows where the rank of the first k columns jumps
    while scanning cyclically from the cut (see `_scan_steps`)."""
    slots, windows = _scan_steps(F.n)[k, cut, backward]
    ranks = F._windows
    jumps = prev = before = 0
    for slot, window in zip(slots, windows):
        rank = ranks[slot]
        if rank > prev:
            jumps |= window & ~before
        prev, before = rank, window
    return jumps


def stratum(u: Perm, v: Perm, F: Flag) -> StratumLabel:
    """
    Locate the unique open stratum of the tilted Richardson variety of
    (u, v) containing F.  Scanning the rows of each column space cyclically
    from the flat cut (forward for the bottom label, backward for the top)
    yields nested rank-jump sets whose layers spell out the pair (x, y).
    """
    if not member_T_plucker(u, v, F, open_cell=False):
        raise PreconditionError("flag is not a member of the tilted Richardson variety")
    n = F.n
    a = find_flat(u, v)
    x_word: list[int] = []
    y_word: list[int] = []
    I_prev = J_prev = 0
    for k in range(1, n + 1):
        if k < n:
            I_k = _rank_jump_rows(F, k, a[k - 1], backward=False)
            J_k = _rank_jump_rows(F, k, a[k - 1], backward=True)
        else:
            I_k = J_k = (1 << n) - 1
        # the previous set has k - 1 rows, so these two make it a proper subset
        for name, cur, prev in (("forward", I_k, I_prev), ("backward", J_k, J_prev)):
            if cur.bit_count() != k or prev & ~cur:
                raise InternalInvariantError(
                    f"{name} rank-jump sets fail to nest at column {k}"
                )
        x_word.append((I_k & ~I_prev).bit_length())
        y_word.append((J_k & ~J_prev).bit_length())
        I_prev, J_prev = I_k, J_k
    x, y = tuple(x_word), tuple(y_word)
    for k in range(1, n):
        chain = (u[:k], x[:k], y[:k], v[:k])
        for lo, hi in zip(chain, chain[1:]):
            if not _gale_leq(lo, hi, a[k - 1], n):
                raise InternalInvariantError(
                    f"stratum label breaks the shifted chain at column {k}"
                )
    if not member_T_plucker(x, y, F, open_cell=True):
        raise InternalInvariantError("located stratum rejects its own flag")
    return StratumLabel(x, y)


# ---------------------------------------------------------------------------
# Completion of a nonvanishing coordinate to a permutation


def complete_to_permutation(F: Flag, values: Iterable[int]) -> Perm:
    """
    Given P_I != 0, produce w with w[|I|] = I and P_w != 0, by shrinking I
    one full-rank step at a time and then growing it back up to [n]
    (smallest usable row at each step, for determinism).  A step is
    usable when the row set it reaches is live (see Flag).
    """
    I = frozenset(values)
    if F.plucker(I) == 0:
        raise PreconditionError("P_I vanishes; completion needs a nonzero coordinate")
    n, live = F.n, F._live
    word: dict[int, int] = {}
    shrink = (True, range(len(I), 0, -1))
    grow = (False, range(len(I) + 1, n + 1))
    for inside, positions in (shrink, grow):
        cur = value_mask(I)
        for pos in positions:
            for r in range(1, n + 1):
                bit = 1 << (r - 1)
                if bool(cur & bit) == inside and live >> (cur ^ bit) & 1:
                    break
            else:
                kind = "shrink" if inside else "growth"
                raise InternalInvariantError(f"no full-rank {kind} step exists")
            word[pos] = r
            cur ^= bit
    w = tuple(word[pos] for pos in range(1, n + 1))
    if F.plucker_perm(w) == 0:
        raise InternalInvariantError("completion produced a vanishing P_w")
    return w


# ---------------------------------------------------------------------------
# Equation evaluation and the stratum sampler


def equation_vanishes(F: Flag, eq: PluckerEquation) -> bool:
    if eq.kind == "vanish":
        return F.plucker(eq.subsets[0]) == 0
    s0, s1, s2, s3 = eq.signs
    lhs = s0 * s1 * F.plucker(eq.subsets[0]) * F.plucker(eq.subsets[1])
    rhs = s2 * s3 * F.plucker(eq.subsets[2]) * F.plucker(eq.subsets[3])
    return lhs == rhs


def all_equations_vanish(F: Flag, es: EquationSet) -> bool:
    return all(equation_vanishes(F, eq) for eq in es.equations)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _sampler_caps(u: Perm, v: Perm, a: tuple[int, ...]) -> list[dict[int, int]]:
    """
    Projection-rank caps for the column sampler.  A space whose Plucker
    coordinates vanish outside the level-j window has row matroid with
    every basis inside the window, so for any row mask S its projection
    rank is at most max over window members K of |K & S|.  Those caps
    bind every earlier column as well (each column lies in every later
    space of the flag), so column k obeys, for each S, the minimum cap
    over levels j >= k: one running list over all S, folded from level
    n - 1 down.  Entry k-1 of the returned list maps S to that minimum;
    vacuous caps (>= |S|) are dropped.  Planned once per (u, v, a), like
    the membership plans; the list is shared and only read.
    """
    n = len(u)
    running = [S.bit_count() for S in range(1 << n)]
    caps: list[dict[int, int]] = [{} for _ in range(n)]
    for j in range(n - 1, 0, -1):
        window = _window_masks(frozenset(u[:j]), frozenset(v[:j]), a[j - 1], n)
        for S in range(1, 1 << n):
            running[S] = min(running[S], max((K & S).bit_count() for K in window))
        caps[j - 1] = {S: cap for S, cap in enumerate(running) if cap < S.bit_count()}
    return caps


def sample_in_open_stratum(u: Perm, v: Perm, seed: int = 0) -> Flag:
    """
    A random rational flag in the open stratum of (u, v), built column by
    column with exact integer elimination.  Column k must respect every
    projection-rank cap the level windows impose (which makes all the
    off-window Plucker coordinates of its level vanish, plus everything
    deeper levels force on it, since the column lies inside every later
    space of the flag); the caps are linear in the column once earlier
    columns are fixed.  A cap on the rows of a mask S binds once the built
    columns restricted to S reach it: the new column's restriction must
    then stay in their span.  For each mask the sampler carries the pivots
    of those restrictions, extended by one `_add_row` per column it has
    not yet seen, so no built column is eliminated twice for one mask; the
    constraint rows a mask at its cap imposes are kept with its pivots and
    made again only when they gain one.  A random point of the solution
    space is drawn on its canonical basis (`_integer_kernel`'s vectors,
    scaled to integers over one denominator), redrawn until the chart
    coordinates of the column are nonzero, and kept as integers over that
    denominator; the finished flag is made from those integer columns
    (`Flag._from_columns`), so the sampler makes no Fraction.  That flag
    is re-verified through the Plucker membership route, so n is bounded
    like a flag: n <= MAX_TABLE_N, checked first.
    """
    n = len(u)
    if len(v) != n:
        raise PreconditionError("permutations must have the same size")
    _check_table_n(n)
    a = find_flat(u, v)
    caps_for_column = _sampler_caps(tuple(u), tuple(v), a)
    # the chart minors of column k, on the rows u[:k] and v[:k]; one
    # determinant serves both where the two row sets are equal
    charts = [(u[:k],) if set(u[:k]) == set(v[:k]) else (u[:k], v[:k]) for k in range(n + 1)]
    rng = random.Random(seed)
    last_failure = n
    for _ in range(MAX_RESTARTS):
        # column c is cols[c] / dens[c], a column of integers over one denominator
        cols: list[list[int]] = []
        dens: list[int] = []
        # per mask S: how many built columns its pivots hold, the pivots of
        # those columns restricted to the rows of S, and the constraint rows
        # their kernel gives (None until the mask is at its cap)
        carried: dict[int, tuple[int, Pivots, list[list[int]] | None]] = {}
        for k in range(1, n + 1):
            pivots: Pivots = []
            for S, cap in caps_for_column[k - 1].items():
                if cap >= k:  # k columns have rank at most k
                    continue
                rows_idx = [r for r in range(n) if S >> r & 1]
                done, held, lifted = carried.get(S, (0, [], None))
                for col in cols[done:]:
                    if _add_row(held, [col[r] for r in rows_idx]) is not None:
                        lifted = None  # a new pivot shrinks the kernel
                if len(held) > cap:
                    raise InternalInvariantError(
                        f"partial matrix broke a rank cap at column {k}"
                    )
                if len(held) == cap and lifted is None:
                    # each kernel vector of the restricted columns (they may
                    # be scaled, which keeps the span) is one constraint
                    lifted = []
                    for lam in _integer_kernel(held, len(rows_idx)):
                        coeffs = [0] * n
                        for m, r in enumerate(rows_idx):
                            coeffs[r] = lam[m]
                        lifted.append(coeffs)
                carried[S] = len(cols), held, lifted
                if len(held) < cap:  # below the cap the new column is free
                    continue
                for coeffs in lifted:
                    _add_row(pivots, coeffs)
            # the draw is made on the canonical basis of the solution space,
            # the same in any order and any spanning set of the constraints:
            # each kernel vector b over its entry d at its free column, all
            # over den, the lcm of the reduced denominators d / gcd(b)
            basis = _integer_kernel(pivots, n)
            ends = [b[f] for f, b in zip(_free_columns(pivots, n), basis)]
            den = lcm(*(d // gcd(*b) for d, b in zip(ends, basis)))
            scaled = [[x * den // d for x in b] for d, b in zip(ends, basis)]
            accepted = None
            if basis:
                for _attempt in range(MAX_COLUMN_TRIES):
                    draw = [rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for _ in basis]
                    col = [sum(c * b[r] for c, b in zip(draw, scaled)) for r in range(n)]
                    trial = cols + [col]
                    # scaling a column keeps a minor's zero test
                    if all(
                        _det([[c[r - 1] for c in trial] for r in rows]) != 0
                        for rows in charts[k]
                    ):
                        accepted = col
                        break
            if accepted is None:
                last_failure = k
                break
            cols.append(accepted)
            dens.append(den)
        else:
            flag = Flag._from_columns(cols, dens)
            if member_T_plucker(u, v, flag, open_cell=True):
                return flag
            last_failure = n
    raise SamplingError(
        f"could not sample the open stratum of ({format_permutation(u)}, "
        f"{format_permutation(v)}); column {last_failure} kept failing",
        column=last_failure,
    )
