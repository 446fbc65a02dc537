"""
Reference helpers the tests check the library against.  None of them
carries a statement of the paper of its own, so they live here, beside
their tests, and the library does not ship them.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from qbg.errors import PreconditionError
from qbg.exactgeom import Flag, Matrix, Pivots, _add_row
from qbg.permcore import Perm


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for pos, value in enumerate(w, start=1):
        inv[value - 1] = pos
    return tuple(inv)


# ---------------------------------------------------------------------------
# Shifted linear order


def shifted_key(r: int, x: int, n: int) -> int:
    """Rank of x in the order r < r+1 < ... < n < 1 < ... < r-1."""
    return (x - r) % n


def shifted_less(r: int, a: int, b: int, n: int) -> bool:
    """
    Is a strictly before b in the shifted linear order with minimum r?

    >>> shifted_less(4, 5, 2, 5)
    True
    """
    return shifted_key(r, a, n) < shifted_key(r, b, n)


# ---------------------------------------------------------------------------
# Rank windows


def _rank(rows: Iterable[Sequence[int]]) -> int:
    pivots: Pivots = []
    for row in rows:
        _add_row(pivots, row)
    return len(pivots)


def rank_region(F: Flag, region: Iterable[int], k: int) -> int:
    """Rank of the rows in `region` restricted to the first k columns."""
    rows_idx = sorted(frozenset(region))
    if not 0 <= k <= F.n:
        raise PreconditionError(f"column count {k} out of range 0..{F.n}")
    if rows_idx and not 1 <= rows_idx[0] <= rows_idx[-1] <= F.n:
        raise PreconditionError(f"row set {rows_idx} out of range 1..{F.n}")
    if not rows_idx or k == 0:
        return 0
    return _rank(F._rows[r - 1][:k] for r in rows_idx)


# ---------------------------------------------------------------------------
# Cyclic rotation


def chi_rotate(m: Matrix) -> Matrix:
    """Cyclic row rotation: (row_1, ..., row_n) becomes (row_n, row_1, ...)."""
    return (m[-1],) + m[:-1]


def chi_set(values: Iterable[int], n: int) -> frozenset[int]:
    """The companion index rotation i -> i + 1 (mod n)."""
    return frozenset(i % n + 1 for i in values)
