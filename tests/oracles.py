"""
Reference helpers the tests check the library against.  None of them
carries a statement of the paper of its own, so they live here, beside
their tests, and the library does not ship them.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Sequence

from qbg import exactgeom
from qbg.diagrams import find_flat
from qbg.errors import InternalInvariantError, PreconditionError, SamplingError
from qbg.exactgeom import (
    MAX_COLUMN_TRIES, MAX_RESTARTS, SAMPLE_BOUND, Flag, Matrix, Pivots, _add_row,
    _check_table_n, _det, _free_columns, _integer_kernel, _slot, member_T_plucker,
)
from qbg.latticepath import _check_perms, _walk, shifted_interval
from qbg.permcore import (
    Perm, Root, apply_transposition, cyclic_set, format_permutation, is_reflection_ordering,
    prefix_set, value_mask,
)
from qbg.qbgraph import (
    QbgEdge, QExponent, QuantumBruhatGraph, _check_vertices, edge_weight, exponent_add,
    zero_exponent,
)
from qbg.tiltedorder import _cover_rows


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
# The greedy minimal path


def checked_greedy_path(u: Perm, v: Perm) -> list[QbgEdge]:
    """Reference greedy path through the shifted_less oracle, which picks
    each position, and the checked edge_weight, which weighs each step."""
    n = len(u)
    w = u
    edges = []
    for k in range(1, n + 1):
        target = v[k - 1]
        base = target % n + 1
        prev = k
        while w[k - 1] != target:
            p = next(
                p for p in range(prev + 1, n + 1) if shifted_less(base, w[k - 1], w[p - 1], n)
            )
            exps = edge_weight(w, (k, p))
            assert exps is not None
            nxt = apply_transposition(w, (k, p))
            edges.append(QbgEdge(w, nxt, (k, p), exps))
            w, prev = nxt, p
    return edges


def path_weight(path: Sequence[QbgEdge], n: int) -> QExponent:
    exps = zero_exponent(n)
    for e in path:
        exps = exponent_add(exps, e.exps)
    return exps


# ---------------------------------------------------------------------------
# Shortest-walk weights


def shortest_walk_weights(g: QuantumBruhatGraph, u: Perm) -> list[frozenset[QExponent]]:
    """
    Per vertex index, the weights of every shortest walk from u (empty if
    unreachable), read from no BFS list: walk forward from u one length at
    a time, keeping per vertex the weights of the walks of that length, and
    answer each vertex with the set at the first length that reaches it.
    A length that reaches no new vertex ends the walk: no vertex lies at
    that distance, so none lies further.
    """
    _check_vertices(g, u)
    found: list[frozenset[QExponent] | None] = [None] * len(g.vertices)
    layer = {g.index[u]: {zero_exponent(g.n)}}
    while any(found[x] is None for x in layer):
        for x, weights in layer.items():
            if found[x] is None:
                found[x] = frozenset(weights)
        following: dict[int, set[QExponent]] = {}
        for x, weights in layer.items():
            for y, _, exps in g.out_adj[x]:
                following.setdefault(y, set()).update(exponent_add(w, exps) for w in weights)
        layer = following
    return [frozenset() if weights is None else weights for weights in found]


# ---------------------------------------------------------------------------
# Label-increasing paths


def increasing_paths_from(g: QuantumBruhatGraph, u: Perm,
                          ordering: Sequence[Root]) -> dict[Perm, list[tuple[QbgEdge, ...]]]:
    """
    Every directed path out of u whose label sequence strictly increases
    in the given reflection ordering, grouped by endpoint.  Exactly one
    such path is predicted for each endpoint; returning them all keeps the
    uniqueness testable.
    """
    _check_vertices(g, u)
    if not is_reflection_ordering(tuple(ordering), g.n):
        raise PreconditionError("ordering is not a valid reflection ordering")
    position = {root: i for i, root in enumerate(ordering)}
    vertices = g.vertices
    found: dict[Perm, list[tuple[QbgEdge, ...]]] = {}
    acc: list[QbgEdge] = []

    def extend(w: int, floor: int) -> None:
        found.setdefault(vertices[w], []).append(tuple(acc))
        for x, root, exps in g.out_adj[w]:
            pos = position[root]
            if pos > floor:
                acc.append(QbgEdge(vertices[w], vertices[x], root, exps))
                extend(x, pos)
                acc.pop()

    extend(g.index[u], -1)
    return found


# ---------------------------------------------------------------------------
# Cover edges


def cover_edges(g: QuantumBruhatGraph, rank: dict[Perm, int]) -> list[QbgEdge]:
    """The edges of `tiltedorder._cover_rows`, in (source, target) order."""
    vertices = g.vertices
    return [QbgEdge(vertices[x], vertices[j], root, exps)
            for x, row in _cover_rows(g, rank) for j, root, exps in row]


# ---------------------------------------------------------------------------
# Admissible nodes, one walk per pair


def admissible_nodes(u: Perm, v: Perm) -> int:
    """
    The value sets S that pass the exists_shift test of column |S| against
    (u, v): the paths of (u[k], S) and (S, v[k]) share a valid shift, with
    u[k], v[k] the k-prefix sets.  Returned as a set of nodes, bit
    value_mask(S) set for each such S; the empty set and [n] always pass.
    Since the test reads only the prefix sets, [u, v] is exactly the set of
    w whose chain of prefix sets runs through these nodes.

    The subsets are visited depth first, each grown from its largest
    element, and both paths follow along incrementally: adding x to S as
    its (k+1)-th element moves the path of (u[k], S) by the pair (u_{k+1}, x)
    and that of (S, v[k]) by (x, v_{k+1}), one `_walk` step each.  So every
    subset costs two one-step walks; the callers bound n.
    """
    u, v = _check_perms(u, v)
    n = len(u)

    def extend(S: int, k: int, below: list[int], above: list[int]) -> int:
        """The admissible nodes among the supersets of the k-set S grown
        by larger elements, up to size n - 1."""
        nodes = 0
        for x in range(S.bit_length() + 1, n + 1):
            T = S | 1 << (x - 1)
            next_below, next_above = below[:], above[:]
            ((_, shifts_below),) = _walk(next_below, [(u[k], x)])
            ((_, shifts_above),) = _walk(next_above, [(x, v[k])])
            if shifts_below & shifts_above:
                nodes |= 1 << T
            if k + 2 < n:
                nodes |= extend(T, k + 1, next_below, next_above)
        return nodes

    return 1 | 1 << ((1 << n) - 1) | extend(0, 0, [0] * (n + 1), [0] * (n + 1))


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


# ---------------------------------------------------------------------------
# The membership plans, the sampler caps and the rank-jump sets on value
# sets.  These are the library's builders as they were before they moved
# to value masks, kept unchanged (less their plan cache and its check) as the reference
# the mask builders must agree with.


def _rank_plan(
    u: Perm, v: Perm, a: tuple[int, ...], n: int
) -> tuple[tuple[int, ...], bytes]:
    """
    The windows of the rank route as positions in a flag's window table,
    with their bounds: for column i and endpoint j, the rows cyclically
    from the cut a_i through j may have rank at most |u[i] & window|, and
    the rows from j up to the cut at most |v[i] & window|.
    """
    slots: list[int] = []
    bounds: list[int] = []
    for i in range(1, n):
        u_i, v_i = prefix_set(u, i), prefix_set(v, i)
        cut = a[i - 1]
        for j in range(1, n + 1):
            for start, window, ref in (
                (cut, cyclic_set(cut, j, n), u_i),
                (j, cyclic_set(j, cut - 1, n), v_i),
            ):
                slots.append(_slot(i, start, len(window), n))
                bounds.append(len(ref & window))
    return tuple(slots), bytes(bounds)


def _grassmann_plan(
    u: Perm, v: Perm, a: tuple[int, ...], n: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For every column k, the masks of the k-subsets outside the shifted
    Gale window of (u[k], v[k], a_k); and the masks of the endpoint sets
    u[k], v[k] of every column."""
    off: list[int] = []
    ends: list[int] = []
    for k in range(1, n):
        u_k, v_k = prefix_set(u, k), prefix_set(v, k)
        window = shifted_interval(u_k, v_k, a[k - 1], n)
        for K in combinations(range(1, n + 1), k):
            if frozenset(K) not in window:
                off.append(value_mask(K))
        ends += (value_mask(u_k), value_mask(v_k))
    return tuple(off), tuple(ends)


def _rank_jump_rows(F: Flag, k: int, cut: int, backward: bool) -> frozenset[int]:
    """
    Rows where the rank of the first k columns jumps while scanning
    cyclically from the cut: forward cut, cut + 1, ...; backward cut - 1,
    cut - 2, ....  Each prefix of the scan is a cyclic window.
    """
    n = F.n
    ranks = F._windows
    jumps = set()
    prev = 0
    for length in range(1, n + 1):
        if backward:
            row = (cut - 1 - length) % n + 1
            rank = ranks[_slot(k, row, length, n)]
        else:
            row = (cut + length - 2) % n + 1
            rank = ranks[_slot(k, cut, length, n)]
        if rank > prev:
            jumps.add(row)
        prev = rank
    return frozenset(jumps)


def _sampler_caps(u: Perm, v: Perm, a: tuple[int, ...]) -> list[dict[tuple[int, ...], int]]:
    """
    Projection-rank caps for the column sampler.  A space whose Plucker
    coordinates vanish outside the level-j window has row matroid with
    every basis inside the window, so for any row subset S its projection
    rank is at most max over window members K of |K and S|.  Those caps
    bind every earlier column as well (each column lies in every later
    space of the flag), so column k obeys, for each S, the minimum cap
    over levels j >= k.  Entry k-1 of the returned list maps S to that
    suffix minimum; vacuous caps (>= |S|) are dropped.
    """
    n = len(u)
    subsets = [
        tuple(sorted(S))
        for size in range(1, n + 1)
        for S in combinations(range(1, n + 1), size)
    ]
    per_level: list[dict[tuple[int, ...], int]] = []
    for j in range(1, n):
        window = shifted_interval(prefix_set(u, j), prefix_set(v, j), a[j - 1], n)
        caps = {}
        for S in subsets:
            S_set = frozenset(S)
            caps[S] = max(len(K & S_set) for K in window)
        per_level.append(caps)
    suffix: list[dict[tuple[int, ...], int]] = [dict() for _ in range(n)]
    running: dict[tuple[int, ...], int] = {}
    for j in range(n - 1, 0, -1):
        for S, cap in per_level[j - 1].items():
            if S not in running or cap < running[S]:
                running[S] = cap
        suffix[j - 1] = {S: cap for S, cap in running.items() if cap < len(S)}
    return suffix


# ---------------------------------------------------------------------------
# The sampler on Fraction columns
#
# exactgeom's sampler keeps each column as integers over one denominator;
# this is the same draw on Fraction columns, eliminated as rationals, and
# the two must give the same matrix.


def _nullspace(pivots: Pivots, ncols: int) -> list[list[Fraction]]:
    """
    The canonical basis of the kernel of the pivot rows' span: reduce them
    to the (unique) reduced row echelon form, then one basis vector per
    free column, with a 1 there and minus that column of the RREF at the
    pivot columns.
    """
    reduced: dict[int, list[Fraction]] = {}
    for col, prow in sorted(pivots, key=lambda piv: piv[0], reverse=True):
        row = [Fraction(x, prow[col]) for x in prow]
        for c, other in reduced.items():
            f = row[c]
            if f:
                row = [x - f * y for x, y in zip(row, other)]
        reduced[col] = row
    basis = []
    for free in range(ncols):
        if free in reduced:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for col, row in reduced.items():
            vec[col] = -row[free]
        basis.append(vec)
    return basis


def _integer_row(row: Iterable[Fraction]) -> list[int]:
    """Clear the denominators of a rational row (scaling a row changes no
    rank, no zero test and no kernel)."""
    row = list(row)
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def nullspace_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """The canonical basis of {x : Rx = 0}, the one the reduced row echelon
    form gives: per free column, 1 there and 0 at the other free columns,
    read off exactgeom's integer kernel.  Every row must have ncols entries."""
    pivots: Pivots = []
    for row in rows:
        ints = _integer_row(row)
        if len(ints) != ncols:
            raise PreconditionError(f"rows must have {ncols} entries, got {len(ints)}")
        _add_row(pivots, ints)
    kernel = _integer_kernel(pivots, ncols)
    ends = [vec[f] for f, vec in zip(_free_columns(pivots, ncols), kernel)]
    return [[Fraction(x, d) for x in vec] for d, vec in zip(ends, kernel)]


def _cap_constraints(
    cols: list[list[Fraction]], S: int, cap: int, n: int
) -> list[list[Fraction]] | None:
    """
    Keep rank(rows of the mask S, built columns + new column) at most cap.
    If the built columns already sit at the cap, the new column's
    restriction must stay inside their restricted span, a linear condition;
    below the cap the new column is unconstrained; above it, the partial
    matrix is already bad.
    """
    rows_idx = [r for r in range(n) if S >> r & 1]
    pivots: Pivots = []
    for col in cols:
        _add_row(pivots, _integer_row(col[r] for r in rows_idx))
    rank = len(pivots)
    if rank > cap:
        return None
    if rank < cap:
        return []
    out = []
    for lam in _nullspace(pivots, len(rows_idx)):
        coeffs = [Fraction(0)] * n
        for m, r in enumerate(rows_idx):
            coeffs[r] = lam[m]
        out.append(coeffs)
    return out


def sample_in_open_stratum(u: Perm, v: Perm, seed: int = 0) -> Flag:
    """
    A random rational flag in the open stratum of (u, v), built column by
    column with exact rational elimination.  Column k must respect every
    projection-rank cap the level windows impose (which makes all the
    off-window Plucker coordinates of its level vanish, plus everything
    deeper levels force on it, since the column lies inside every later
    space of the flag); the caps are linear in the column once earlier
    columns are fixed.  A random point of the solution space is drawn,
    redrawn until the chart coordinates of the column are nonzero, and
    the finished flag is re-verified through the Plucker membership route,
    so n is bounded like a flag: n <= MAX_TABLE_N, checked first.
    """
    n = len(u)
    if len(v) != n:
        raise PreconditionError("permutations must have the same size")
    _check_table_n(n)
    a = find_flat(u, v)
    caps_for_column = exactgeom._sampler_caps(u, v, a)
    rng = random.Random(seed)
    last_failure = n
    for _ in range(MAX_RESTARTS):
        cols: list[list[Fraction]] = []
        for k in range(1, n + 1):
            constraints: list[list[Fraction]] = []
            # the solution space, and with it the draw, is the same in any
            # order of the constraints: nullspace_basis is canonical
            for S, cap in caps_for_column[k - 1].items():
                if cap >= k:  # k columns have rank at most k
                    continue
                extra = _cap_constraints(cols, S, cap, n)
                if extra is None:
                    raise InternalInvariantError(
                        f"partial matrix broke a rank cap at column {k}"
                    )
                constraints.extend(extra)
            basis = nullspace_basis(constraints, n)
            accepted = None
            if basis:
                for _attempt in range(MAX_COLUMN_TRIES):
                    draw = [
                        Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND))
                        for _ in basis
                    ]
                    col = [
                        sum((c * b[r] for c, b in zip(draw, basis)), Fraction(0))
                        for r in range(n)
                    ]
                    trial = cols + [col]
                    if all(
                        _det([_integer_row(c[r - 1] for c in trial) for r in rows]) != 0
                        for rows in (u[:k], v[:k])
                    ):
                        accepted = col
                        break
            if accepted is None:
                last_failure = k
                break
            cols.append(accepted)
        else:
            flag = Flag([[cols[c][r] for c in range(n)] for r in range(n)])
            if member_T_plucker(u, v, flag, open_cell=True):
                return flag
            last_failure = n
    raise SamplingError(
        f"could not sample the open stratum of ({format_permutation(u)}, "
        f"{format_permutation(v)}); column {last_failure} kept failing",
        column=last_failure,
    )
