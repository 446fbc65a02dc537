"""
Tilted Rothe diagrams and the vanishing-equation ledgers they generate.

A shift sequence a is *flat* for (u, v) when u <=_a v and each a_k also
compares the (k-1)-prefixes.  The diagram of u below the per-column cut
("down") collects cells (i, k) with i below u_k in the column's shifted
order and i not yet used by u; the diagram of v above the cut ("up") is
the mirror.  Each cell names one Plucker coordinate that must vanish, and
for flat a the ledger has exactly C(n,2) - l(u,v) equations, which the
suites check against the graph oracle.

All Plucker indices are normalized to sorted-subset form immediately; the
sign swallowed by the normalization is recorded on the equation so the
quadratic relations keep their meaning.

The public functions check their permutations and shift sequence once.
One unchecked kernel, `_column_cells`, holds the cell rule; both
`tilted_rothe` and the column builder `_ledger_column` read it.  `_ledger`
joins the columns in order, so the equations come in (column, cell,
origin) order and nothing is sorted; `equations_with_x` rewrites only the
up equations.  A column's equations read only its column state (the
(k-1)-prefix sets, u_k, v_k and a_k), so `suite_flat_count` sizes
`_ledger_column` once per state, after its flat test has passed, and adds
the sizes up per pair.  `is_flat` (the sorting route) and `find_flat`
(the path route) stay separate, so each checks the other.
"""
from __future__ import annotations

import json
from typing import NamedTuple

from .errors import InternalInvariantError, PreconditionError
from .latticepath import _check_perms, _gale_leq, check_shift_sequence, prefix_paths, shift_leq
from .permcore import (
    Perm,
    cyclic_contains,
    format_permutation,
    validate_permutation,
)
from .qbgraph import graph_distance
from .tiltedorder import interval_members_criterion

Cell = tuple[int, int]  # (i, k): row value i, column k


def is_flat(u: Perm, v: Perm, a: tuple[int, ...]) -> bool:
    """u <=_a v plus the prefix condition u[k-1] <=_{a_k} v[k-1], k = 2..n-1."""
    if not shift_leq(u, v, a):
        return False
    n = len(u)
    return all(_gale_leq(u[:k - 1], v[:k - 1], a[k - 1], n) for k in range(2, n))


def find_flat(u: Perm, v: Perm) -> tuple[int, ...]:
    """
    A flat sequence for (u, v): column k takes the smallest shift valid for
    both the (k-1)- and k-prefixes.  The intersection is never empty; an
    empty one signals a bug, not bad input.
    """
    shifts = [s for _, s in prefix_paths(u, v)]
    out = []
    for k, candidates in enumerate(shifts, start=1):
        if k >= 2:
            candidates &= shifts[k - 2]
        if not candidates:
            raise InternalInvariantError(
                f"no common shift for columns {k - 1} and {k} of "
                f"({format_permutation(u)}, {format_permutation(v)})"
            )
        out.append(min(candidates))
    return tuple(out)


def tilted_rothe(w: Perm, a: tuple[int, ...], kind: str) -> frozenset[Cell]:
    """
    Diagram cells.  kind="down": {(i,k) : i <_{a_k} w_k, w^{-1}(i) > k};
    kind="up":   {(i,k) : i >_{a_k} w_k, w^{-1}(i) > k}.

    >>> sorted(tilted_rothe((4, 3, 2, 1), (4, 4, 2), "down"))
    [(1, 2), (2, 2)]
    """
    n = len(validate_permutation(w))
    check_shift_sequence(a, n)
    if kind not in ("down", "up"):
        raise PreconditionError(f"kind must be 'down' or 'up', got {kind!r}")
    down = kind == "down"
    return frozenset(
        (i, k) for k in range(1, n) for i in _column_cells(w, k, a[k - 1], n, down)
    )


def _column_cells(w: Perm, k: int, r: int, n: int, down: bool) -> set[int]:
    """
    The rows i of the cells in column k: the values after position k (so
    w^{-1}(i) > k) that rank below w_k (down) or above it (up) in the
    shifted order r < r+1 < ... < n < 1 < ... < r-1, where x has rank
    (x - r) % n.  Unchecked: w a permutation, 1 <= k < n, 1 <= r <= n.
    """
    wk_rank = (w[k - 1] - r) % n
    if down:
        return {i for i in w[k:] if (i - r) % n < wk_rank}
    return {i for i in w[k:] if (i - r) % n > wk_rank}


def signed_sorted_insert(prefix: frozenset[int], extra: int) -> tuple[frozenset[int], int]:
    """
    Normalize the index list (sorted prefix, extra) to sorted-subset form.
    Returns (subset, sign): the coordinate equals sign * P_subset.
    """
    if extra in prefix:
        raise InternalInvariantError(f"repeated index {extra} in Plucker subset")
    sign = -1 if sum(1 for p in prefix if p > extra) % 2 else 1
    return prefix | {extra}, sign


class PluckerEquation(NamedTuple):
    """
    kind="vanish": signs[0] * P_{subsets[0]} = 0 (one cell, one coordinate).
    kind="quadratic": s0 s1 P_{S0} P_{S1} - s2 s3 P_{S2} P_{S3} = 0.
    """

    kind: str
    column: int
    cell: Cell
    origin: str  # down | up | up-shifted | up-minor
    subsets: tuple[frozenset[int], ...]
    signs: tuple[int, ...]


class EquationSet(NamedTuple):
    u: Perm
    v: Perm
    a: tuple[int, ...]
    x: Perm | None
    equations: tuple[PluckerEquation, ...]

    def __len__(self) -> int:
        return len(self.equations)


def _vanish(prefix: frozenset[int], extra: int, cell: Cell, origin: str) -> PluckerEquation:
    subset, sign = signed_sorted_insert(prefix, extra)
    return PluckerEquation("vanish", cell[1], cell, origin, (subset,), (sign,))


def equations(u: Perm, v: Perm, a: tuple[int, ...]) -> EquationSet:
    """
    The vanishing ledger of (u, v, a): one equation P_{u[k-1] + i} = 0 per
    down cell (i, k), one equation P_{v[k-1] + i} = 0 per up cell.
    """
    if not shift_leq(u, v, a):
        raise PreconditionError("u is not below v under the supplied shift sequence")
    return EquationSet(u, v, tuple(a), None, _ledger(u, v, a))


def _ledger(u: Perm, v: Perm, a: tuple[int, ...]) -> tuple[PluckerEquation, ...]:
    """
    The equations of `equations(u, v, a)` in (column, cell, origin) order:
    the columns of `_ledger_column` one after another.  Unchecked: (u, v, a)
    must pass shift_leq.
    """
    n = len(u)
    return tuple(eq for k in range(1, n) for eq in _ledger_column(u, v, k, a[k - 1], n))


def _ledger_column(u: Perm, v: Perm, k: int, r: int, n: int) -> list[PluckerEquation]:
    """
    The equations of column k under the shift r: the rows in increasing
    order, and on a row that is a down cell of u and an up cell of v, down
    first.  They read only the (k-1)-prefix sets, u_k, v_k and r (the
    values after position k are the rest).  Unchecked, as `_ledger`.
    """
    down = _column_cells(u, k, r, n, True)
    up = _column_cells(v, k, r, n, False)
    u_prefix, v_prefix = frozenset(u[:k - 1]), frozenset(v[:k - 1])
    eqs = []
    for i in range(1, n + 1):
        if i in down:
            eqs.append(_vanish(u_prefix, i, (i, k), "down"))
        if i in up:
            eqs.append(_vanish(v_prefix, i, (i, k), "up"))
    return eqs


def coatom_positions(v: Perm, x: Perm) -> tuple[int, int]:
    """The (p, q) with x = v t_{pq}; errors unless exactly two entries differ."""
    v, x = _check_perms(v, x)
    diff = [p for p in range(1, len(v) + 1) if v[p - 1] != x[p - 1]]
    if len(diff) != 2:
        raise PreconditionError(
            f"{format_permutation(x)} is not {format_permutation(v)} times a transposition"
        )
    return diff[0], diff[1]


def equations_with_x(u: Perm, v: Perm, a: tuple[int, ...], x: Perm) -> EquationSet:
    """
    The ledger of (u, v, a) rewritten through a coatom x = v t_{pq} of the
    interval (flat a required).  Down cells keep their equations; up cells
    shared with the diagram of x swap in the x-prefix; the remaining up
    cells become either a shifted vanishing coordinate (columns strictly
    between p and q) or, in column q, a quadratic two-by-two relation.
    """
    n = len(u)
    if not is_flat(u, v, a):
        raise PreconditionError("shift sequence is not flat for (u, v)")
    if not interval_members_criterion(u, v, x, "exists_shift"):
        raise PreconditionError("x is not a member of the interval [u, v]")
    if graph_distance(u, x) != graph_distance(u, v) - 1:
        raise PreconditionError("x is not one step below v in the interval")
    p, q = coatom_positions(v, x)
    xp, xq = x[p - 1], x[q - 1]
    up_x = [_column_cells(x, k, a[k - 1], n, False) for k in range(1, n)]

    # each rewrite keeps its cell and every up origin sorts after "down",
    # so the ledger's (column, cell, origin) order holds without a sort
    eqs = []
    for eq in _ledger(u, v, a):
        i, k = eq.cell
        if eq.origin == "down":
            eqs.append(eq)
        elif i in up_x[k - 1]:
            eqs.append(_vanish(frozenset(x[:k - 1]), i, eq.cell, "up"))
        elif i == xp and p < k < q:
            eqs.append(_vanish(frozenset(x[:k - 1]), xq, eq.cell, "up-shifted"))
        elif k == q and cyclic_contains(xp, xq, i, n, include_a=False, include_b=False):
            x_p, x_q = frozenset(x[:p - 1]), frozenset(x[:q - 1])
            pairs = ((x_q, i), (x_p, xq), (x_p, i), (x_q, xq))
            subsets, signs = zip(*(signed_sorted_insert(S, j) for S, j in pairs))
            eqs.append(PluckerEquation("quadratic", k, eq.cell, "up-minor", subsets, signs))
        else:
            raise InternalInvariantError(
                f"up cell {eq.cell} fits no rewrite case for x = {format_permutation(x)}"
            )
    return EquationSet(u, v, tuple(a), x, tuple(eqs))


# ---------------------------------------------------------------------------
# Rendering


def render_diagram(w: Perm, a: tuple[int, ...], kind: str) -> str:
    """
    ASCII grid: rows are values 1..n top to bottom, columns 1..n.  "#" is a
    diagram cell, "o" the entry of w in that column, "-" marks the
    per-column floor (drawn immediately above value a_k).
    """
    n = len(w)
    cells = tilted_rothe(w, a, kind)
    dots = {(w[k - 1], k) for k in range(1, n + 1)}
    floors = {k: a[k - 1] for k in range(1, n)}

    def separator(after_row: int) -> str | None:
        marks = [
            "---" if floors.get(k) == after_row + 1 else "   " for k in range(1, n + 1)
        ]
        if all(m == "   " for m in marks):
            return None
        return "    |" + "".join(marks)

    lines = [f"{kind} diagram of {format_permutation(w)}, cuts a={','.join(map(str, a))}"]
    header = "     " + "".join(f"{k:^3}" for k in range(1, n + 1))
    lines.append(header)
    top = separator(0)
    if top:
        lines.append(top)
    for r in range(1, n + 1):
        row = []
        for k in range(1, n + 1):
            if (r, k) in cells:
                row.append(" # ")
            elif (r, k) in dots:
                row.append(" o ")
            else:
                row.append(" . ")
        lines.append(f"{r:>3} |" + "".join(row))
        sep = separator(r)
        if sep and r < n:
            lines.append(sep)
    cell_list = " ".join(
        f"({i},{k})" for i, k in sorted(cells, key=lambda c: (c[1], c[0]))
    )
    lines.append(f"cells: {cell_list if cell_list else '(none)'}")
    return "\n".join(lines)


def _subset_key(subset: frozenset[int]) -> str:
    return ",".join(str(i) for i in sorted(subset))


def equation_str(eq: PluckerEquation) -> str:
    if eq.kind == "vanish":
        sign = "" if eq.signs[0] == 1 else "-"
        return f"{sign}P[{_subset_key(eq.subsets[0])}] = 0"
    s01 = eq.signs[0] * eq.signs[1]
    s23 = eq.signs[2] * eq.signs[3]
    lead = "" if s01 == 1 else "-"
    mid = "-" if s23 == 1 else "+"
    return (
        f"{lead}P[{_subset_key(eq.subsets[0])}]*P[{_subset_key(eq.subsets[1])}] "
        f"{mid} P[{_subset_key(eq.subsets[2])}]*P[{_subset_key(eq.subsets[3])}] = 0"
    )


def equations_to_json(es: EquationSet) -> str:
    payload = {
        "u": format_permutation(es.u),
        "v": format_permutation(es.v),
        "a": list(es.a),
        "x": format_permutation(es.x) if es.x is not None else None,
        "count": len(es.equations),
        "equations": [
            {
                "kind": eq.kind,
                "column": eq.column,
                "cell": list(eq.cell),
                "origin": eq.origin,
                "subsets": [sorted(s) for s in eq.subsets],
                "signs": list(eq.signs),
            }
            for eq in es.equations
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
