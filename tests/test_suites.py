"""
The `verify` suites and the size guards: every size ends in bounded time or
is refused up front, and the pair requests of the sampled suites never
exceed what S_n x S_n holds.
"""
import signal
from contextlib import contextmanager

import pytest

from qbg import exactgeom, qbgraph, suites, tiltedorder
from qbg.cli import main
from qbg.errors import PreconditionError, ResourceLimitError, SamplingError


@contextmanager
def time_limit(seconds: float):
    """Fail (instead of hanging) when the body runs longer than `seconds`."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("needs SIGALRM")

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n, pairs", [(2, 4), (3, 36)])
def test_equivalence_on_small_n_covers_every_pair(capsys, n, pairs):
    with time_limit(60):
        code = main(["verify", "--suite", "equivalence", "--n", str(n)])
    out = capsys.readouterr().out
    assert code == 0
    assert f"\n{pairs} pairs, " in out


def test_pair_request_is_capped_at_all_pairs():
    fixed = [((4, 3, 2, 1), (3, 1, 4, 2)), ((1, 2, 3, 4), (4, 3, 2, 1))]
    with time_limit(10):
        pairs = suites._draw_pairs(4, 0, fixed, 600)
    assert len(pairs) == len(set(pairs)) == 24 * 24
    assert pairs[:2] == fixed


def test_fixed_pairs_are_not_repeated():
    one = ((1,), (1,))
    assert suites._draw_pairs(1, 0, [one, one], 50) == [one]


def test_sampled_suite_bodies_at_n4():
    with time_limit(60):
        stratify = suites.run_suite("stratify", 4, 0, 5)
    assert stratify.body == "10 sampled flags, 0 violations"


def test_stratify_samples_only_pairs_of_its_own_size(monkeypatch):
    lengths = []

    def refuse(u, v, seed):
        lengths.append(len(u))
        raise SamplingError("refused", 1)

    monkeypatch.setattr(exactgeom, "sample_in_open_stratum", refuse)
    with time_limit(30):
        result = suites.run_suite("stratify", 5, 0, 5)
    assert not result.ok
    assert lengths and set(lengths) == {5}


# Sizes at which a suite would check nothing: every suite below n = 1,
# rotation at n = 1 (no roots) and plucker below n = 3 (no relations).
LEAST_N = {"rotation": 2, "plucker": 3}
TOO_SMALL = [
    (n, name)
    for n in (0, -1)
    for name in ("distance", "rotation", "plucker", "stratify", "equivalence")
] + [(1, "rotation"), (1, "plucker"), (2, "plucker")]


@pytest.mark.parametrize("n, name", TOO_SMALL)
def test_suites_refuse_sizes_below_one(capsys, n, name):
    with pytest.raises(PreconditionError):
        suites.run_suite(name, n)
    assert main(["verify", "--suite", name, "--n", str(n)]) == 2
    least = LEAST_N[name] if n >= 1 else 1
    assert f"n >= {least}" in capsys.readouterr().err


# Sizes at which a suite could not end: equivalence and stratify list all
# of S_n, rotation walks every vertex and root, increasing lists every
# reduced word of w0.  Each is refused before that work starts.
TOO_LARGE = [
    (n, name, bound)
    for name, bound in [
        ("equivalence", exactgeom.MAX_TABLE_N),
        ("stratify", exactgeom.MAX_TABLE_N),
        ("rotation", qbgraph.MAX_GRAPH_N),
        ("increasing", suites.MAX_INCREASING_N),
    ]
    for n in (bound + 1, 12)
]


@pytest.mark.parametrize("n, name, bound", TOO_LARGE)
def test_suites_refuse_sizes_that_cannot_end(capsys, n, name, bound):
    with time_limit(10):
        with pytest.raises(ResourceLimitError):
            suites.run_suite(name, n)
        assert main(["verify", "--suite", name, "--n", str(n)]) == 2
    assert f"bounded at n <= {bound}" in capsys.readouterr().err


def test_interval_member_set_refuses_n_beyond_the_graph_bound():
    u = tuple(range(1, 9))
    entries = tiltedorder.interval_member_set.cache_info().currsize
    for _ in range(2):  # a raise is not cached: the second call refuses too
        with time_limit(10), pytest.raises(ResourceLimitError):
            tiltedorder.interval_member_set(u, u)
    assert tiltedorder.interval_member_set.cache_info().currsize == entries


def test_stratify_refuses_a_matrix_beyond_the_table_bound(capsys, tmp_path):
    path = tmp_path / "id10.mat"
    rows = [" ".join("1" if i == j else "0" for j in range(10)) for i in range(10)]
    path.write_text("10\n" + "\n".join(rows) + "\n")
    with time_limit(10):
        code = main(["stratify", "--matrix", str(path), "--u", "id", "--v", "w0", "--n", "10"])
    assert code == 2
    assert "bounded at n <= 7" in capsys.readouterr().err
