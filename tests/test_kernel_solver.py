"""The one kernel solver: `exactgeom._integer_kernel` against the rational
reduced row echelon form, `nullspace_basis` on it, and the sampler that
draws on its vectors; and what the sampler plans once per (u, v, a)."""
import random
from fractions import Fraction

import pytest

from qbg import exactgeom, latticepath, suites
from qbg.diagrams import find_flat
from qbg.errors import PreconditionError
from qbg.exactgeom import nullspace_basis, sample_in_open_stratum
from qbg.permcore import parse_permutation

import oracles


def _random_integer_rows(rng, ncols):
    """No rows, independent rows, or the rows of a lower-rank product, with
    zero rows and combinations of earlier rows mixed in."""
    nrows = rng.randint(0, ncols + 1)
    if rng.random() < 0.3:
        inner = rng.randint(0, ncols)
        left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(nrows)]
        right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(inner)]
        rows = [
            [sum(row[t] * right[t][j] for t in range(inner)) for j in range(ncols)]
            for row in left
        ]
    else:
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.4:  # a dependent row
        a, b = rng.choice(rows), rng.choice(rows)
        c = rng.randint(-3, 3)
        rows.append([c * x - y for x, y in zip(a, b)])
    if rng.random() < 0.2:
        rows.insert(rng.randint(0, len(rows)), [0] * ncols)
    return rows


def test_integer_kernel_over_its_free_entries_is_the_rref_basis():
    # each integer kernel vector is the canonical one (1 at its free column,
    # 0 at the other free columns) times its positive entry at that column
    rng = random.Random(24)
    seen = {"no rows": 0, "zero row": 0, "dependent row": 0}
    for trial in range(2400):
        ncols = trial % 8 + 1
        rows = _random_integer_rows(rng, ncols)
        pivots = []
        added = [exactgeom._add_row(pivots, row) for row in rows]
        seen["no rows"] += not rows
        seen["zero row"] += any(not any(row) for row in rows)
        seen["dependent row"] += any(col is None and any(row) for col, row in zip(added, rows))
        pivot_cols = {col for col, _ in pivots}
        free = [c for c in range(ncols) if c not in pivot_cols]
        kernel = exactgeom._integer_kernel(pivots, ncols)
        assert len(kernel) == len(free)
        assert all(vec[f] > 0 for f, vec in zip(free, kernel))
        normalised = [[Fraction(x, vec[f]) for x in vec] for f, vec in zip(free, kernel)]
        assert normalised == oracles._nullspace(pivots, ncols)
    assert min(seen.values()) > 50, seen


@pytest.mark.parametrize("rows, ncols", [([[1, 2]], 3), ([[1, 2, 3]], 2), ([[1, 2], [1]], 2)])
def test_nullspace_basis_refuses_rows_of_another_length(rows, ncols):
    with pytest.raises(PreconditionError, match=f"rows must have {ncols} entries"):
        nullspace_basis(rows, ncols)


def test_sampler_makes_no_fraction(monkeypatch):
    # one draw that needs no restart: the finished flag is made from the
    # integer columns and their denominators, not from n^2 Fraction entries
    made = []
    make = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(exactgeom, "MAX_RESTARTS", 1)
    u, v = parse_permutation("35142"), parse_permutation("54321")
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    sample_in_open_stratum(u, v, 0)
    monkeypatch.undo()
    assert made == []


def test_sampler_caps_are_planned_once_per_pair():
    # equivalence samples five flags for each pair it draws, on one plan of caps
    exactgeom._sampler_caps.cache_clear()
    assert suites.run_suite("equivalence", 4).ok
    info = exactgeom._sampler_caps.cache_info()
    assert (info.misses, info.hits) == (50, 200)


def test_each_plan_checks_its_shift_sequence_once(monkeypatch):
    # the rank and the per-column route read one plan per (u, v, a), checked once
    calls = []
    check = exactgeom.shift_leq

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(exactgeom, "shift_leq", counted)
    exactgeom._plans.cache_clear()
    assert suites.run_suite("equivalence", 4).ok
    info = exactgeom._plans.cache_info()
    assert info.misses > 0 and info.hits > 0
    assert len(calls) == info.misses


def test_plans_read_the_windows_without_checking_them_again(monkeypatch):
    """Each window's sets are checked once, when `shifted_interval` lists it
    into the window cache; the Grassmann plan and the caps read it there."""
    u, v = parse_permutation("263145"), parse_permutation("465123")
    a = find_flat(u, v)
    checked = []
    check = latticepath._check_pair

    def counted(*args):
        checked.append(args)
        return check(*args)

    monkeypatch.setattr(latticepath, "_check_pair", counted)
    exactgeom._window_masks.cache_clear()
    exactgeom._grassmann_plan(u, v, a, len(u))
    exactgeom._sampler_caps.__wrapped__(u, v, a)
    assert len(checked) == len(u) - 1
