"""
The `verify` suites: every size ends in bounded time, and the pair requests of
the sampled suites never exceed what S_n x S_n holds.
"""
import signal
from contextlib import contextmanager

import pytest

from qbg import suites
from qbg.cli import main


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
