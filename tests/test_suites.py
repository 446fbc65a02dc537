"""
The `verify` suites and the size guards: every size ends in bounded time or
is refused up front, and the pair requests of the sampled suites never
exceed what S_n x S_n holds.
"""
import hashlib
import random
import signal
import time
import tracemalloc
from contextlib import contextmanager
from functools import lru_cache
from math import comb, factorial
from pathlib import Path

import pytest

from qbg import diagrams, exactgeom, latticepath, qbgraph, suites, tiltedorder
from qbg.cli import main
from qbg.errors import PreconditionError, ResourceLimitError, SamplingError
from qbg.permcore import (
    all_permutations,
    coxeter_length,
    format_permutation,
    reduced_words_of_longest,
    reflection_ordering,
)
from qbg.qbgraph import (
    QuantumBruhatGraph,
    exponent_add,
    exponent_divides,
    formula_weight,
    graph_distance,
    shortest_path_weight_sets,
    zero_exponent,
)

from oracles import increasing_paths_from, path_weight


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


# Every suite is refused, before any work, at each n below its least size
# (where it would check nothing) and above its largest (where it could not
# end, or a flag refuses), as `suites.LIMITS` states them.
TOO_SMALL = [
    (n, name) for name, (least, _) in suites.LIMITS.items() for n in range(-1, least)
]


@pytest.mark.parametrize("n, name", TOO_SMALL)
def test_suites_refuse_sizes_below_one(capsys, n, name):
    with time_limit(10):
        with pytest.raises(PreconditionError):
            suites.run_suite(name, n)
        assert main(["verify", "--suite", name, "--n", str(n)]) == 2
    assert f"n >= {suites.LIMITS[name][0]}" in capsys.readouterr().err


TOO_LARGE = [
    (n, name, bound) for name, (_, bound) in suites.LIMITS.items() for n in (bound + 1, 12, 600)
]


@pytest.mark.parametrize("n, name, bound", TOO_LARGE)
def test_suites_refuse_sizes_that_cannot_end(capsys, n, name, bound):
    with time_limit(10):
        with pytest.raises(ResourceLimitError):
            suites.run_suite(name, n)
        assert main(["verify", "--suite", name, "--n", str(n)]) == 2
    assert f"bounded at n <= {bound}" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suites_refuse_more_samples_than_the_bound(capsys, name):
    samples = suites.MAX_SAMPLES + 1
    with time_limit(10):
        with pytest.raises(ResourceLimitError):
            suites.run_suite(name, None, 0, samples)
        assert main(["verify", "--suite", name, "--samples", str(samples)]) == 2
    assert f"samples <= {suites.MAX_SAMPLES}" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suites_refuse_a_negative_sample_count_before_work(capsys, monkeypatch, name):
    """--samples -7 once ran as the suite's least sample count."""
    def no_work(*args):
        raise AssertionError("the suite ran")

    monkeypatch.setitem(suites.SUITES, name, (no_work, suites.SUITES[name][1]))
    with pytest.raises(PreconditionError, match="samples >= 0, got -7"):
        suites.run_suite(name, None, 0, -7)
    assert main(["verify", "--suite", name, "--samples", "-7"]) == 2
    assert capsys.readouterr().err == "error: suites need samples >= 0, got -7\n"
    with pytest.raises(AssertionError, match="the suite ran"):
        suites.run_suite(name, None, 0, 0)

def test_every_default_size_lies_in_its_range():
    assert suites.LIMITS.keys() == suites.SUITES.keys()
    for name, (_, default_n) in suites.SUITES.items():
        least, most = suites.LIMITS[name]
        assert least <= default_n <= most, name


def test_the_readme_suite_table_states_the_limits():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| suite "):]
    header, _, *rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in table[: table.index("\n\n")].splitlines()
    ]
    at_range, at_default = header.index("n range"), header.index("default n")
    stated = {}
    for row in rows:
        least, most = row[at_range].split("–")
        stated[row[0].strip("`")] = (int(least), int(most)), int(row[at_default])
    assert stated == {
        name: (suites.LIMITS[name], default_n) for name, (_, default_n) in suites.SUITES.items()
    }


def test_stratify_refuses_n_7_at_once(capsys):
    # (id, w0) alone has 3,550,919 subinterval pairs at n = 7
    start = time.perf_counter()
    with time_limit(10):
        with pytest.raises(ResourceLimitError):
            suites.run_suite("stratify", 7)
        assert main(["verify", "--suite", "stratify", "--n", "7"]) == 2
    assert time.perf_counter() - start < 2
    assert "bounded at n <= 6" in capsys.readouterr().err


def test_interval_member_set_refuses_n_beyond_the_graph_bound():
    u = tuple(range(1, 9))
    entries = tiltedorder.interval_member_set.cache_info().currsize
    for _ in range(2):  # a raise is not cached: the second call refuses too
        with time_limit(10), pytest.raises(ResourceLimitError):
            tiltedorder.interval_member_set(u, u)
    assert tiltedorder.interval_member_set.cache_info().currsize == entries


def test_admissible_nodes_refuse_n_8_before_the_pair_table_is_read():
    u, v = tuple(range(1, 9)), tuple(range(8, 0, -1))
    caches = (tiltedorder.admissible_nodes, latticepath._pair_table)
    entries = [cache.cache_info().currsize for cache in caches]
    start = time.perf_counter()
    for _ in range(2):  # a raise is not cached: the second call refuses too
        with time_limit(10), pytest.raises(ResourceLimitError, match="n <= 7"):
            tiltedorder.admissible_nodes(u, v)
    assert time.perf_counter() - start < 1
    assert [cache.cache_info().currsize for cache in caches] == entries


def test_interval_nodes_refuse_n_8_before_the_pair_table_is_read():
    u, v = tuple(range(1, 9)), tuple(range(8, 0, -1))
    caches = (tiltedorder.admissible_nodes, latticepath._pair_table)
    entries = [cache.cache_info().currsize for cache in caches]
    start = time.perf_counter()
    for _ in range(2):
        with time_limit(10), pytest.raises(ResourceLimitError, match="n <= 7"):
            tiltedorder.interval_nodes(u, v)
    assert time.perf_counter() - start < 1
    assert [cache.cache_info().currsize for cache in caches] == entries


def test_stratify_refuses_a_matrix_beyond_the_table_bound(capsys, tmp_path):
    path = tmp_path / "id10.mat"
    rows = [" ".join("1" if i == j else "0" for j in range(10)) for i in range(10)]
    path.write_text("10\n" + "\n".join(rows) + "\n")
    with time_limit(10):
        code = main(["stratify", "--matrix", str(path), "--u", "id", "--v", "w0", "--n", "10"])
    assert code == 2
    assert "bounded at n <= 7" in capsys.readouterr().err


# The sha256 of each suite's reports at --seed 0 and --samples 5, joined
# with no separator over the sizes least..most: a refactor must leave every
# report byte-identical, also at sizes the benchmark does not run.
GOLDEN_REPORTS = {
    "distance": (1, 5, "884141965a5f6a895999f836c3081171b1345de0c84703473305eded120372fd"),
    "samepath": (1, 4, "73fc3e5dc2ed09d4dcd9523f6f6657c9521fe2b18d98010e92a339a3f5aef704"),
    "bfp": (1, 5, "8383b161bc9a89bac541c55586b2717fd04fe8d28144e1c9075820d13e9f6996"),
    "increasing": (1, 4, "28b6d01598a8720e7a342f4bf1c0ff454479e9b1ec2dea49eafab3f3357b8b51"),
    "rotation": (2, 5, "3f74a270b752ea439adcc7c3f41d856bea9d9a47c4570ca07b842bffe82e6948"),
    "tilted": (1, 4, "5f30890a9145b4e5e2297773bd02df2eee57842ae5a95f10373f2040dac181fc"),
    "flat-count": (1, 5, "cdec0c5be44443630e28aa70d80ffe7dd0b2317ac0df4449d341baca6c55e58a"),
    "fixedpoints": (1, 4, "fb165d046c676ddc6b2e065342d3ceb3d2554d4ef64d7a929bce77bc33671e96"),
    "equivalence": (1, 4, "35e8120e77790eceabf457bd6d271f35b59dbccf16739f3db61cdfe50aed2b46"),
    "stratify": (1, 4, "f22b41832a081a4fac316ec98a6f7fb65d7d0a6f8ddceb2b3b2b754b9bca8363"),
    "plucker": (3, 6, "e47db8a392f287a8509db02a6393b2414a864c788715a5ec06da170203e7ca96"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_reports_are_byte_identical_to_the_golden_digests(name):
    least, most, digest = GOLDEN_REPORTS[name]
    reports = "".join(suites.run_suite(name, n, 0, 5).report() for n in range(least, most + 1))
    assert hashlib.sha256(reports.encode()).hexdigest() == digest


def test_a_failing_suite_keeps_ten_messages_not_one_per_failure(monkeypatch):
    """With no shortest-path weights every pair at n = 6 fails; the run
    counts all 518,400 but keeps ten messages.  One kept message per
    failure peaks at about 45 MB of traced allocations; ten, near 1 MB."""
    monkeypatch.setattr(suites, "shortest_path_weight_sets", lambda g, dist: [set()] * len(dist))
    tracemalloc.start()
    try:
        with time_limit(120):  # tracing slows the run about ninefold
            result = suites.run_suite("distance", 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.body == "518400 pairs, 518400 mismatches"
    assert len(result.details) == 10 and not result.ok
    assert peak < 10_000_000


def test_a_failing_suite_formats_only_the_messages_it_keeps(monkeypatch):
    """Every pair at n = 5 fails; only the ten kept messages name their
    pair, so `_tuple_text` runs ten times, not once per failure (14,400)."""
    calls = []
    tuple_text = suites._tuple_text

    def counted(*perms):
        calls.append(perms)
        return tuple_text(*perms)

    monkeypatch.setattr(suites, "shortest_path_weight_sets", lambda g, dist: [set()] * len(dist))
    monkeypatch.setattr(suites, "_tuple_text", counted)
    result = suites.run_suite("distance", 5)
    assert result.body == "14400 pairs, 14400 mismatches"
    assert len(calls) <= 10
    assert result.details == [f"mismatch at {tuple_text(*perms)}" for perms in calls]


def test_run_suite_lists_five_notes_then_ten_messages_and_decides_the_verdict(monkeypatch):
    def noisy(n, seed, samples, found):
        for i in range(12):
            if i < 7:
                found.note(f"note {i}")
            found.fail(None if i == 4 else lambda: f"failure {i}")
        return f"{found.failures} failures"

    def quiet(n, seed, samples, found):
        return "nothing checked"

    for name, fn in (("noisy", noisy), ("quiet", quiet)):
        monkeypatch.setitem(suites.SUITES, name, (fn, 2))
        monkeypatch.setitem(suites.LIMITS, name, (1, 3))
    result = suites.run_suite("noisy")
    assert not result.ok
    failures = [f"failure {i}" for i in range(12) if i != 4][:10]
    assert result.report().split("\n") == [
        "suite=noisy n=2", "12 failures", *(f"note {i}" for i in range(5)), *failures, "FAIL",
    ]
    result = suites.run_suite("quiet")
    assert result.ok and result.details == []
    assert result.report() == "suite=quiet n=2\nnothing checked\nPASS"


# The suites as they were written first: every triple through both library
# criteria, every bounded walk popped from a stack, and every pair through
# the public formula_weight, bfp_greedy_path, find_flat and is_flat and a
# whole ledger.  They read suites.build_graph, so a patched graph reaches
# them too.


def stack_samepath(n):
    g = suites.build_graph(n)
    fmt = format_permutation
    bad, pairs, walks = [], 0, 0
    for u in g.vertices:
        dist = g.distance_vector_from(u)
        weight_sets = shortest_path_weight_sets(g, dist)
        for v in g.vertices:
            pairs += 1
            if len(weight_sets[g.index[v]]) != 1:
                bad.append(f"several shortest-path weights for ({fmt(u)}, {fmt(v)})")
        minimal = [next(iter(weight_sets[g.index[w]])) for w in g.vertices]
        stack = [(g.index[u], 0, zero_exponent(n))]
        while stack:
            w_idx, length, exps = stack.pop()
            walks += 1
            ref = minimal[w_idx]
            if not exponent_divides(ref, exps):
                bad.append(f"walk weight below minimum at {fmt(g.vertices[w_idx])}")
            elif exps == ref and length != dist[w_idx]:
                bad.append(f"minimal weight on a non-shortest walk from {fmt(u)}")
            for t_idx, _, e_exps in g.out_adj[w_idx]:
                if length + 1 <= dist[t_idx] + 2:
                    stack.append((t_idx, length + 1, exponent_add(exps, e_exps)))
    body = f"{pairs} pairs, {walks} bounded walks, {len(bad)} violations"
    return suites.SuiteResult("samepath", n, not bad, body, bad[:10])


def criterion_tilted(n):
    g = suites.build_graph(n)
    fmt = format_permutation
    dist = [g.distance_vector_from(u) for u in g.vertices]
    bad, triples = [], 0
    for i, u in enumerate(g.vertices):
        for j, v in enumerate(g.vertices):
            for k, w in enumerate(g.vertices):
                triples += 1
                by_length = dist[i][k] + dist[k][j] == dist[i][j]
                by_all = tiltedorder.interval_members_criterion(u, v, w, "all_shifts")
                by_exists = tiltedorder.interval_members_criterion(u, v, w, "exists_shift")
                if not by_length == by_all == by_exists:
                    bad.append(f"criteria split on ({fmt(u)}, {fmt(v)}, {fmt(w)})")
    if n == 3:
        base = (1, 3, 2)
        if sorted(g.distance_vector_from(base)) != [0, 1, 1, 1, 2, 2]:
            bad.append("rank profile of the base-132 order is wrong")
        if suites.base_poset_hasse(g, g.distance_vector_from(base)) != suites._FIGURE_D132_EDGES:
            bad.append("cover relations of the base-132 order are wrong")
    body = f"{triples} triples, " + ("equivalences hold" if not bad else "violations")
    return suites.SuiteResult("tilted", n, not bad, body, bad[:10])


def per_pair_distance(n):
    g = suites.build_graph(n)
    fmt = format_permutation
    lengths = [coxeter_length(w) for w in g.vertices]
    pairs, mismatches = 0, []
    for i, u in enumerate(g.vertices):
        dist = g.distance_vector_from(u)
        weight_sets = shortest_path_weight_sets(g, dist)
        for j, v in enumerate(g.vertices):
            pairs += 1
            weight = formula_weight(u, v)
            if weight_sets[j] != {weight} or dist[j] != lengths[j] - lengths[i] + 2 * sum(weight):
                mismatches.append(f"mismatch at ({fmt(u)}, {fmt(v)})")
    body = f"{pairs} pairs, {len(mismatches)} mismatches"
    return suites.SuiteResult("distance", n, not mismatches, body, mismatches[:10])


def per_pair_bfp(n):
    g = suites.build_graph(n)
    fmt = format_permutation
    root_rank = {t: i for i, t in enumerate(qbgraph.all_roots(n))}
    pairs, bad = 0, []
    for u in g.vertices:
        dist = g.distance_vector_from(u)
        for j, v in enumerate(g.vertices):
            pairs += 1
            path = qbgraph.bfp_greedy_path(u, v)
            labels = [root_rank[e.root] for e in path]
            increasing = all(a < b for a, b in zip(labels, labels[1:]))
            weight = path_weight(path, n)
            if len(path) != dist[j] or weight != formula_weight(u, v) or not increasing:
                bad.append(f"greedy path wrong for ({fmt(u)}, {fmt(v)})")
    body = f"{pairs} pairs, {len(bad)} violations"
    return suites.SuiteResult("bfp", n, not bad, body, bad[:10])


def per_pair_flat_count(n):
    g = suites.build_graph(n)
    fmt = format_permutation
    total = comb(n, 2)
    pairs, x_checked, bad = 0, 0, []
    for u in g.vertices:
        dist = g.distance_vector_from(u)
        for j, v in enumerate(g.vertices):
            pairs += 1
            a = diagrams.find_flat(u, v)
            if not diagrams.is_flat(u, v, a):
                bad.append(f"find_flat not flat for ({fmt(u)}, {fmt(v)})")
                continue
            count = len(diagrams._ledger(u, v, a))
            if count != total - dist[j]:
                bad.append(f"ledger size {count} != {total - dist[j]} for ({fmt(u)}, {fmt(v)})")
            if n <= 4 and dist[j] >= 1:
                for x, on, d in zip(g.vertices, qbgraph._geodesic_marks(g, dist, j), dist):
                    if not on or d != dist[j] - 1:
                        continue
                    try:
                        count_x = len(diagrams.equations_with_x(u, v, a, x))
                    except PreconditionError as exc:
                        bad.append(f"x-ledger rejected ({fmt(u)}, {fmt(v)}, {fmt(x)}): {exc}")
                        continue
                    x_checked += 1
                    if count_x != total - dist[j]:
                        bad.append(
                            f"x-ledger size {count_x} != {total - dist[j]} for "
                            f"({fmt(u)}, {fmt(v)}, {fmt(x)})"
                        )
    body = f"{pairs} pairs, " + ("count law holds" if not bad else "violations")
    details = [f"{x_checked} coatom ledgers checked"] if x_checked else []
    return suites.SuiteResult("flat-count", n, not bad, body, details + bad[:10])


def per_source_increasing(n):
    g = suites.build_graph(n)
    fmt = format_permutation
    words = reduced_words_of_longest(n)
    expected_words = {3: 2, 4: 16}
    bad, checked = [], 0
    if n in expected_words and len(words) != expected_words[n]:
        bad.append(f"expected {expected_words[n]} reduced words, found {len(words)}")
    dists = [g.distance_vector_from(u) for u in g.vertices]
    for word in sorted(words):
        ordering = reflection_ordering(word)
        for u, dist in zip(g.vertices, dists):
            found = increasing_paths_from(g, u, ordering)
            for j, v in enumerate(g.vertices):
                checked += 1
                paths = found.get(v, [])
                if len(paths) != 1 or len(paths[0]) != dist[j]:
                    bad.append(f"word {word}: {len(paths)} paths for ({fmt(u)}, {fmt(v)})")
    body = f"{len(words)} orderings, {checked} pairs, {len(bad)} violations"
    return suites.SuiteResult("increasing", n, not bad, body, bad[:10])


def per_triple_fixedpoints(n):
    g = suites.build_graph(n)
    fmt = format_permutation
    dist = [g.distance_vector_from(u) for u in g.vertices]
    flags = [exactgeom.permutation_flag(w) for w in g.vertices]
    bad, triples = [], 0
    for i, u in enumerate(g.vertices):
        for j, v in enumerate(g.vertices):
            for k, w in enumerate(g.vertices):
                triples += 1
                in_interval = dist[i][k] + dist[k][j] == dist[i][j]
                if exactgeom.member_T_plucker(u, v, flags[k]) != in_interval:
                    bad.append(f"fixed point split on ({fmt(u)}, {fmt(v)}, {fmt(w)})")
    body = f"{triples} triples, {len(bad)} violations"
    return suites.SuiteResult("fixedpoints", n, not bad, body, bad[:10])


def per_flag_equivalence(n, seed=0):
    fmt = format_permutation
    fixed = [((4, 3, 2, 1), (3, 1, 4, 2))] if n == 4 else []
    fixed += [(tuple(range(1, n + 1)), tuple(range(n, 0, -1))), (tuple(range(1, n + 1)),) * 2]
    pairs = suites._draw_pairs(n, seed, fixed, 50)
    rng = random.Random(seed + 1)
    coordinate = [exactgeom.permutation_flag(w) for w in all_permutations(n)]
    bad, flags_used, checks = [], 0, 0
    for idx, (u, v) in enumerate(pairs):
        flags = []
        for s in range(5):
            try:
                flags.append(exactgeom.sample_in_open_stratum(u, v, seed * 1000 + idx * 10 + s))
            except SamplingError as exc:
                bad.append(f"sampler failed for ({fmt(u)}, {fmt(v)}): {exc}")
        flags.extend(exactgeom.random_flag(n, rng) for _ in range(5))
        flags.extend(coordinate)
        flags_used += len(flags)
        for a in suites._all_shift_sequences(u, v):
            for F in flags:
                for open_cell in (False, True):
                    checks += 1
                    by_rank = exactgeom.member_T_rank(u, v, a, F, open_cell)
                    by_grass = exactgeom.member_T_grassmann(u, v, a, F, open_cell)
                    if not by_rank == by_grass == exactgeom.member_T_plucker(u, v, F, open_cell):
                        bad.append(f"memberships split on ({fmt(u)}, {fmt(v)}), "
                                   f"a={a}, open={open_cell}")
    body = f"{len(pairs)} pairs, {flags_used} flags, {checks} checks, {len(bad)} disagreements"
    return suites.SuiteResult("equivalence", n, not bad, body, bad[:10])


REFERENCES = {
    "samepath": stack_samepath,
    "tilted": criterion_tilted,
    "distance": per_pair_distance,
    "bfp": per_pair_bfp,
    "flat-count": per_pair_flat_count,
    "increasing": per_source_increasing,
    "fixedpoints": per_triple_fixedpoints,
    "equivalence": per_flag_equivalence,
}
REFERENCE_SIZES = {
    "samepath": 4, "tilted": 4, "distance": 5, "bfp": 5, "flat-count": 5, "increasing": 4,
    "fixedpoints": 4, "equivalence": 4,
}


@pytest.mark.parametrize("name, n", [
    (name, n) for name in sorted(REFERENCES) for n in range(1, REFERENCE_SIZES[name] + 1)
])
def test_report_matches_the_per_triple_and_per_walk_suite(name, n):
    with time_limit(60):
        assert suites.run_suite(name, n).report() == REFERENCES[name](n).report()


def broken_graph(n, change):
    """The graph on S_n with its edge list passed through `change`."""
    g = qbgraph.build_graph(n)
    edges = [(e.source, e.target, e.root, e.exps) for e in g.all_edges()]
    return QuantumBruhatGraph(n, change(edges))


def bump_a_down_edge(edges):
    index = next(i for i, e in enumerate(edges) if any(e[3]))
    source, target, root, exps = edges[index]
    edges[index] = (source, target, root, (exps[0] + 1, *exps[1:]))
    return edges


def drop_an_edge(edges):
    return edges[1:]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name, change", [
    ("samepath", bump_a_down_edge), ("tilted", drop_an_edge), ("increasing", drop_an_edge),
])
def test_a_broken_graph_fails_as_in_the_per_triple_and_per_walk_suite(monkeypatch, name, change, n):
    g = broken_graph(n, change)
    monkeypatch.setattr(suites, "build_graph", lambda size: g)
    with time_limit(60):
        result, reference = suites.run_suite(name, n), REFERENCES[name](n)
    assert not result.ok and not reference.ok
    assert result.body == reference.body
    if name == "tilted":  # splits are listed in (u, v, w) order by both
        assert result.details == reference.details
        assert result.details[0].startswith("criteria split on ")
    elif name == "increasing":  # pairs are listed in (word, u, v) order by both
        assert result.details == reference.details
    else:  # one line per failing walk there, per failing (vertex, length, weight) here
        assert not result.body.endswith(" 0 violations")
        assert 0 < len(result.details) <= 10


@pytest.fixture
def fresh_pair_table():
    """The cached pair table cleared before and after the test, so a table
    built with a patched kernel reaches neither this test nor a later one."""
    latticepath._pair_table.cache_clear()
    yield
    latticepath._pair_table.cache_clear()


@pytest.mark.parametrize("kernel", ["_walk", "_gale_leq"])
def test_each_prefix_route_reads_its_own_kernel(monkeypatch, fresh_pair_table, kernel):
    """With one kernel made to call every shift valid, the route that reads
    it puts every w in [u, u] (for exists_shift, every shift of (u_k, w_k)
    is valid, and for all_shifts, every shift puts w_k between u_k and u_k),
    so the first split is the first non-member of [123, 123]."""
    if kernel == "_walk":  # the path table's kernel
        owner = latticepath

        def every_shift(heights, pairs):
            return [(0, frozenset(range(1, len(heights)))) for _ in pairs]
    else:  # the suites' sorting table's
        owner = suites

        def every_shift(A, B, r, n):
            return True
    monkeypatch.setattr(owner, kernel, every_shift)
    result = suites.run_suite("tilted", 3)
    assert not result.ok
    assert result.details[0] == "criteria split on (123, 123, 132)"


def test_distance_reads_its_weights_from_the_path_table(monkeypatch, fresh_pair_table):
    """A pair table that reads every depth one too deep breaks the weight of
    every pair, while the per-pair suite, which walks through prefix_paths,
    still passes."""
    table = suites._pair_table

    def one_deeper(n):
        paths, depths = table(n)
        return paths, {key: d + 1 for key, d in depths.items()}

    monkeypatch.setattr(suites, "_pair_table", one_deeper)
    result = suites.run_suite("distance", 3)
    assert result.body == "36 pairs, 36 mismatches"
    assert result.details[0] == "mismatch at (123, 123)"
    assert per_pair_distance(3).ok


@pytest.mark.parametrize("n", [3, 4])
def test_a_broken_sorting_kernel_fails_flat_count_as_in_the_per_pair_suite(monkeypatch, n):
    """A Gale test that reads shift r as r + 1 (mod n) is the flat test of
    both routes: the state table's through suites._gale_leq, is_flat's
    through the latticepath and diagrams copies."""
    gale = suites._gale_leq

    def next_shift(A, B, r, n):
        return gale(A, B, r % n + 1, n)

    for owner in (suites, diagrams, latticepath):
        monkeypatch.setattr(owner, "_gale_leq", next_shift)
    with time_limit(60):
        result, reference = suites.run_suite("flat-count", n), per_pair_flat_count(n)
    assert not result.ok
    assert any(line.startswith("find_flat not flat for ") for line in result.details)
    assert result.report() == reference.report()


def test_a_broken_cell_rule_fails_flat_count_as_in_the_per_pair_suite(monkeypatch):
    """Cells read one shift off: the ledger of each state is built by the
    same cell rule as a whole ledger, so both suites see the same sizes."""
    cells = diagrams._column_cells

    def next_shift(w, k, r, n, down):
        return cells(w, k, r % n + 1, n, down)

    monkeypatch.setattr(diagrams, "_column_cells", next_shift)
    with time_limit(60):
        result, reference = suites.run_suite("flat-count", 5), per_pair_flat_count(5)
    assert not result.ok
    assert result.details[0].startswith("ledger size ")
    assert result.report() == reference.report()


def drop_the_last_step(steps):
    return steps[:-1]


def reverse_the_steps(steps):
    return steps[::-1]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("change", [drop_the_last_step, reverse_the_steps])
def test_a_broken_greedy_stage_fails_bfp_as_in_the_per_pair_suite(monkeypatch, change, n):
    """A stage kernel that still moves v_k into place but returns its steps
    one short, or out of label order, reaches the stage table and the public
    bfp_greedy_path alike.  One short breaks every pair u != v; out of order
    breaks every pair with a stage of two or more steps."""
    stage = qbgraph._greedy_stage

    def broken(word, k, target, size):
        return change(stage(word, k, target, size))

    monkeypatch.setattr(qbgraph, "_greedy_stage", broken)
    with time_limit(60):
        result, reference = suites.run_suite("bfp", n), per_pair_bfp(n)
    assert not result.ok and not reference.ok
    assert result.body == reference.body
    assert result.details == reference.details
    if change is drop_the_last_step:
        pairs = factorial(n) ** 2
        assert result.body == f"{pairs} pairs, {pairs - factorial(n)} violations"


def loosen_the_first_rank_bound(plan):
    """The rank plan with its first bound one higher: a window of one row
    may then have rank one more than the route allows."""
    def loosened(u, v, a, n):
        slots, bounds, get = plan(u, v, a, n)
        return slots, (bounds[0] + 1,) + bounds[1:], get
    return loosened


def drop_the_node_of_one(nodes):
    """admissible_nodes without the node {1}: every w with w(1) = 1 leaves
    every interval it was in."""
    return lambda u, v: nodes(u, v) & ~(1 << 1)


@pytest.mark.parametrize("name, kernel, change, n", [
    ("equivalence", "_rank_plan", loosen_the_first_rank_bound, 3),
    ("equivalence", "_rank_plan", loosen_the_first_rank_bound, 4),
    ("fixedpoints", "admissible_nodes", drop_the_node_of_one, 3),
    ("fixedpoints", "admissible_nodes", drop_the_node_of_one, 4),
])
def test_a_broken_membership_kernel_fails_as_in_the_per_flag_suite(
    monkeypatch, name, kernel, change, n
):
    """The family routes and the per-flag routes read the same patched
    kernel; they count the same failures and list them in the same order.
    The rank plan is built uncached and kept in `_plans`, so that cache is
    emptied first, and again after, so no patched plan outlives the test."""
    monkeypatch.setattr(exactgeom, kernel, change(getattr(exactgeom, kernel)))
    exactgeom._plans.cache_clear()
    try:
        with time_limit(60):
            result, reference = suites.run_suite(name, n), REFERENCES[name](n)
    finally:
        exactgeom._plans.cache_clear()
    assert not result.ok
    assert result.report() == reference.report()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_interval_bits_match_the_per_triple_length_identity(n):
    g = qbgraph.build_graph(n)
    dist = [g.distance_vector_from(u) for u in g.vertices]
    from_u, to_v = suites._distance_layers(dist)
    size = len(g.vertices)
    for i in range(size):
        for j in range(size):
            expected = sum(1 << k for k in range(size) if dist[i][k] + dist[k][j] == dist[i][j])
            assert suites._interval_bits(from_u[i], to_v[j], dist[i][j]) == expected


def test_flat_count_at_n6_decides_column_states_not_pairs():
    """518,400 pairs: per-pair ledgers took about 49 s (2-CPU host)."""
    with time_limit(20):
        assert suites.run_suite("flat-count", 6).ok


def test_bfp_at_n6_walks_stage_states_not_pairs():
    """518,400 pairs: one greedy path per pair took about 22 s (2-CPU host)."""
    with time_limit(10):
        assert suites.run_suite("bfp", 6).body == "518400 pairs, 0 violations"


def test_increasing_at_n5_walks_path_lengths_not_path_tuples():
    """11,059,200 pairs: one tuple of edges per path took about 25 s (2-CPU host)."""
    with time_limit(15):
        result = suites.run_suite("increasing", 5)
    assert result.body == "768 orderings, 11059200 pairs, 0 violations"


def count_calls(monkeypatch, owner, name):
    """Patch owner.name to record each call's arguments as they were at the
    call (lists copied: a kernel may change them in place), and return the
    record."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(tuple(tuple(a) if isinstance(a, list) else a for a in args))
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name, n, runs", [
    ("distance", 4, 24), ("samepath", 4, 24), ("flat-count", 4, 24), ("tilted", 3, 6),
    ("increasing", 4, 24),
])
def test_one_bfs_per_source(monkeypatch, name, n, runs):
    calls = count_calls(monkeypatch, QuantumBruhatGraph, "distance_vector_from")
    with time_limit(60):
        assert suites.run_suite(name, n).ok
    assert len(calls) == runs
    assert sorted(u for _, u in calls) == sorted(set(u for _, u in calls))


@pytest.mark.parametrize("n, states", [(3, 30), (4, 216), (5, 1680)])
def test_bfp_runs_each_greedy_stage_state_once(monkeypatch, n, states):
    calls = count_calls(monkeypatch, qbgraph, "_greedy_stage")
    with time_limit(60):
        assert suites.run_suite("bfp", n).ok
    assert len(calls) == len(set(calls)) == states


@pytest.mark.parametrize("n, orderings", [(3, 2), (4, 16)])
def test_increasing_checks_and_labels_each_ordering_once(monkeypatch, n, orderings):
    calls = count_calls(monkeypatch, qbgraph, "is_reflection_ordering")
    with time_limit(60):
        assert suites.run_suite("increasing", n).ok
    assert len(calls) == len(set(calls)) == orderings


def test_equivalence_builds_each_coordinate_flag_once(monkeypatch):
    calls = count_calls(monkeypatch, exactgeom, "permutation_flag")
    with time_limit(60):
        assert suites.run_suite("equivalence", 3).ok
    assert sorted(calls) == [(w,) for w in all_permutations(3)]


def pairwise_subinterval_classes(u, v):
    """The subinterval classes by the length identity on every pair of
    members: (x, y) with d(u, x) + d(x, y) + d(y, v) = d(u, v)."""
    members = sorted(tiltedorder.interval_member_set(u, v))
    d = lru_cache(maxsize=None)(graph_distance)
    classes = {}
    for x in members:
        for y in members:
            if d(u, x) + d(x, y) + d(y, v) == d(u, v):
                classes.setdefault(tiltedorder.interval_member_set(x, y), []).append((x, y))
    return sorted(classes.items(), key=lambda kv: kv[1][0])


def assert_classes_match_the_pairwise_oracle(u, v, F):
    """The same classes in the same order, each kept as its first pair: the
    oracle names a class by its member set and the library by its node set,
    so every rep of an oracle class has the library class's node set, and
    no two oracle classes share one.  Up to n = 4, each class's `seen` bits
    are read off the open test of F on every rep the oracle lists."""
    classes = suites._subinterval_classes(u, v, F)
    expected = pairwise_subinterval_classes(u, v)
    assert [first for first, _ in classes.values()] == [reps[0] for _, reps in expected]
    assert len({tiltedorder.interval_nodes(*reps[0]) for _, reps in expected}) == len(expected)
    for (nodes, (first, seen)), (member_set, reps) in zip(classes.items(), expected):
        assert tiltedorder.interval_member_set(*first) == member_set
        assert all(tiltedorder.interval_nodes(x, y) == nodes for x, y in reps)
        if len(u) <= 4:
            assert seen == sum({1 << exactgeom.member_T_plucker(x, y, F, True) for x, y in reps})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subinterval_classes_match_the_pairwise_length_identity(n):
    perms = list(all_permutations(n))
    with time_limit(60):
        for u in perms:
            for v in perms:
                F = exactgeom.sample_in_open_stratum(u, v, 7)
                assert_classes_match_the_pairwise_oracle(u, v, F)
                assert_classes_match_the_pairwise_oracle(u, v, exactgeom.permutation_flag(u))


def test_subinterval_classes_match_the_pairwise_length_identity_on_seeded_pairs_n5():
    rng = random.Random(5)
    perms = list(all_permutations(5))
    with time_limit(120):
        for _ in range(100):
            u, v = rng.choice(perms), rng.choice(perms)
            assert_classes_match_the_pairwise_oracle(u, v, exactgeom.permutation_flag(u))


def test_stratify_names_strata_by_node_sets_not_member_sets():
    """Strata are grouped and compared by `interval_nodes`, so at n = 5 the
    suite looks up 346 member sets, not one per nested pair (5,478), and
    its traced peak from cold member sets is about 2.4 MB (9.6 MB then)."""
    tiltedorder.interval_member_set.cache_clear()
    tracemalloc.start()
    try:
        with time_limit(60):  # tracing slows the run severalfold
            result = suites.run_suite("stratify", 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    info = tiltedorder.interval_member_set.cache_info()
    assert result.ok
    assert info.hits + info.misses <= 400
    assert peak < 5_000_000


def test_stratify_at_n6_tests_each_nested_pair_while_it_is_named():
    """About 117,000 nested pairs: testing their open cells in a second pass,
    after the 4,096 cached node sets had turned over, made 230,880 of them
    and took about 7 s (2-CPU host)."""
    tiltedorder.admissible_nodes.cache_clear()
    with time_limit(20):
        assert suites.run_suite("stratify", 6).ok
    assert tiltedorder.admissible_nodes.cache_info().misses <= 120_000


def test_subinterval_classes_use_no_graph_distance(monkeypatch):
    def refuse(u, v):
        raise AssertionError("graph_distance called")

    F = exactgeom.permutation_flag((1, 2, 3, 4))
    monkeypatch.setattr(qbgraph, "prefix_paths", refuse)
    classes = suites._subinterval_classes((1, 2, 3, 4), (4, 3, 2, 1), F)
    assert len(classes) > 24  # more strata than the interval's 24 members
