import argparse
import hashlib
import json
import os
import sys
import time
import tracemalloc

import pytest

from qbg import cli, exactgeom, qbgraph, tiltedorder
from qbg.cli import MAX_CLI_N, MAX_MATRIX_BYTES, main
from qbg.errors import ResourceLimitError
from qbg.exactgeom import (
    Flag,
    format_matrix,
    member_T_plucker,
    parse_matrix,
    permutation_flag,
    random_flag,
)
from qbg.permcore import identity, longest_element, parse_permutation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_formula(self, capsys):
        code, out, _ = run(capsys, "dist", "321", "213")
        assert code == 0
        assert out == "ell=2 weight=q1*q2\n"

    def test_oracle_and_both(self, capsys):
        code, out, _ = run(capsys, "dist", "321", "213", "--oracle")
        assert (code, out) == (0, "ell=2 weight=q1*q2\n")
        code, out, _ = run(capsys, "dist", "321", "213", "--both")
        assert (code, out) == (0, "ell=2 weight=q1*q2 agree=yes\n")

    def test_large_formula(self, capsys):
        code, out, _ = run(capsys, "dist", "7364152", "2513746")
        assert code == 0
        assert "weight=q1*q2*q3^2*q4^2*q5*q6" in out

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "dist", "123", "123")
        assert (code, out) == (0, "ell=0 weight=1\n")

    def test_mismatched_sizes(self, capsys):
        code, _, err = run(capsys, "dist", "123", "21")
        assert code == 2
        assert "different sizes" in err

    def test_bad_permutation(self, capsys):
        code, _, err = run(capsys, "dist", "122", "321")
        assert code == 2
        assert "duplicate" in err

    def test_non_ascii_digit(self, capsys):
        code, out, err = run(capsys, "dist", "\u00b21", "21")
        assert (code, out) == (2, "")
        assert "invalid token" in err

    def test_refused_above_the_cli_bound_before_work(self, capsys):
        big = ",".join(map(str, range(MAX_CLI_N + 1, 0, -1)))
        start = time.perf_counter()
        code, out, err = run(capsys, "dist", "id", big)
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert f"bounded at n <= {MAX_CLI_N}" in err
        code, out, _ = run(capsys, "dist", "id", big[big.index(",") + 1:])
        assert code == 0 and out.startswith("ell=")

    def test_every_explicit_permutation_is_bounded(self, capsys):
        big = ",".join(map(str, range(MAX_CLI_N + 1, 0, -1)))
        for args in ([big, "321"], ["321", big]):
            code, out, err = run(capsys, "dist", *args)
            assert (code, out) == (2, "")
            assert f"bounded at n <= {MAX_CLI_N}, got n = {MAX_CLI_N + 1}" in err

    @pytest.mark.parametrize("u", [
        "1," + "9" * 5000,  # past the 4300 digits int() reads
        ",".join(["1"] * 30000),  # 60 KB of one repeated value
        "1," + "x" * 60000,
    ])
    def test_hostile_permutation_refused_in_one_short_line(self, capsys, u):
        start = time.perf_counter()
        code, out, err = run(capsys, "dist", u, "1,2")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 400

    @pytest.mark.parametrize("args, parsed", [
        (["dist", "321", "213"], ["321", "213"]),
        (["diagram", "4321", "w0"], ["4321"]),
        (["interval", "id", "w0", "--n", "3"], []),
    ])
    def test_each_explicit_permutation_is_parsed_once(self, capsys, monkeypatch, args, parsed):
        seen = []

        def counted(text):
            seen.append(text)
            return parse_permutation(text)

        monkeypatch.setattr(cli, "parse_permutation", counted)
        code, _, _ = run(capsys, *args)
        assert code == 0
        assert seen == parsed

    @pytest.mark.parametrize("mode, calls", [([], 1), (["--both"], 1), (["--oracle"], 0)])
    def test_the_formula_is_computed_once(self, capsys, monkeypatch, mode, calls):
        formula, seen = qbgraph.formula_weight, []

        def counted(u, v):
            seen.append((u, v))
            return formula(u, v)

        monkeypatch.setattr(qbgraph, "formula_weight", counted)
        code, out, _ = run(capsys, "dist", "7364152", "2513746", *mode)
        assert code == 0
        assert out.startswith("ell=7 weight=q1*q2*q3^2*q4^2*q5*q6")
        assert len(seen) == calls

    @pytest.mark.parametrize("mode", ["--both", "--oracle"])
    def test_graph_bound_refused_before_the_formula(self, capsys, monkeypatch, mode):
        def no_formula(u, v):
            raise AssertionError("the formula ran before the graph bound was checked")

        monkeypatch.setattr(qbgraph, "formula_weight", no_formula)
        code, out, err = run(capsys, "dist", "12345678", "87654321", mode)
        assert (code, out) == (2, "")
        assert "bounded at n <= 7" in err


# a pair at distance 1, and one at distance 7 whose nearer vertices are 2,258 of 5,040
@pytest.mark.parametrize("u_text, v_text", [("1234567", "2134567"), ("7364152", "2513746")])
@pytest.mark.parametrize("command, reads_v", [
    (["interval"], False),
    (["interval", "--hasse", "--format", "json"], True),
    (["dist", "--both"], False),
    (["dist", "--oracle"], False),
])
def test_a_graph_query_scans_only_rows_nearer_than_v(capsys, monkeypatch, u_text, v_text,
                                                      command, reads_v):
    """`interval` and the BFS oracle scan the rows of the vertices nearer to
    u than v, each once; the Hasse diagram also reads v's row."""
    u, v = parse_permutation(u_text), parse_permutation(v_text)
    built = qbgraph.build_graph(7)
    dist = built.distance_vector_from(u)
    d = dist[built.index[v]]
    nearer = [w for w, e in zip(built.vertices, dist) if e < d]
    scan, scanned = qbgraph._out_edges, []

    def counted(w, n, index):
        scanned.append(w)
        return scan(w, n, index)

    monkeypatch.setattr(qbgraph, "_out_edges", counted)
    code, out, _ = run(capsys, command[0], u_text, v_text, *command[1:])
    assert code == 0 and out
    assert sorted(scanned) == sorted(nearer + [v] * reads_v)
    assert len(scanned) < len(built.vertices) // 2


#: sha256 of the n = 7 graph exports, as written when the whole graph was built first
GRAPH7_SHA256 = {
    "dot": "1a1253d9ce08fca84b77eefc1b18079119cdd6a4aa8a0ea63a33606ca001907b",
    "json": "38b75be00512792e483e18df862bc757d99dde2b9f546b31a62d436f34a5bd77",
}


class TestGraph:
    def test_dot(self, capsys, tmp_path):
        out_file = tmp_path / "g3.dot"
        code, _, _ = run(capsys, "graph", "--n", "3", "--format", "dot", "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert sum("->" in ln for ln in text.splitlines()) == 15

    def test_json_stdout(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "2", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["edges"]) == 2

    def test_over_bound(self, capsys):
        code, _, err = run(capsys, "graph", "--n", "12")
        assert code == 2
        assert "bounded" in err

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_under_bound(self, capsys, n):
        code, out, err = run(capsys, "graph", "--n", n)
        assert (code, out) == (2, "")
        assert err == f"error: graphs are built for n >= 1, got n = {n}\n"

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_output_is_the_export_of_the_built_graph(self, capsys, tmp_path, n, fmt):
        expected = qbgraph.export_graph(qbgraph.build_graph(n), fmt)
        assert run(capsys, "graph", "--n", str(n), "--format", fmt) == (0, expected, "")
        out_file = tmp_path / f"g.{fmt}"
        argv = ["graph", "--n", str(n), "--format", fmt, "--out", str(out_file)]
        assert run(capsys, *argv) == (0, "", "")
        assert out_file.read_bytes() == expected.encode()
        if n == 7:
            assert hashlib.sha256(expected.encode()).hexdigest() == GRAPH7_SHA256[fmt]

    def test_scans_each_row_once_in_index_order_and_keeps_none(self, capsys, monkeypatch):
        build, graphs = qbgraph.build_graph, []
        scan, scanned = qbgraph._out_edges, []

        def kept(n):
            graphs.append(build(n))
            return graphs[-1]

        def counted(w, n, index):
            scanned.append(index[w])
            return scan(w, n, index)

        monkeypatch.setattr(qbgraph, "build_graph", kept)
        monkeypatch.setattr(qbgraph, "_out_edges", counted)
        code, out, _ = run(capsys, "graph", "--n", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GRAPH7_SHA256["dot"]
        assert scanned == list(range(5040))
        assert [list(g.out_adj.keys()) for g in graphs] == [[]]

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_the_n7_export_holds_one_row_at_a_time(self, capsys, tmp_path, fmt):
        """Once the graph, the line list and the whole text were held: a
        traced peak of about 16 MB (DOT) and 43 MB (JSON); now about 2 MB."""
        out_file = tmp_path / f"g.{fmt}"
        tracemalloc.start()
        try:
            result = run(capsys, "graph", "--n", "7", "--format", fmt, "--out", str(out_file))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (0, "", "")
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == GRAPH7_SHA256[fmt]
        assert peak < 4_000_000

    def test_an_unwritable_out_is_refused_before_any_row_is_scanned(self, capsys, monkeypatch,
                                                                    tmp_path):
        scanned = []
        monkeypatch.setattr(qbgraph, "_out_edges", lambda w, n, index: scanned.append(w))
        code, out, err = run(capsys, "graph", "--n", "7", "--out",
                             str(tmp_path / "no-such-dir" / "g.dot"))
        assert (code, out) == (2, "")
        assert err.startswith("i/o error: ")
        assert scanned == []

    @pytest.mark.parametrize("n, message", [("8", "bounded at n <= 7"), ("0", "n >= 1, got n = 0")])
    def test_a_refused_n_neither_creates_nor_truncates_the_out_file(self, capsys, tmp_path, n,
                                                                    message):
        out_file = tmp_path / "g.dot"
        argv = ["graph", "--n", n, "--out", str(out_file)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err
        assert not out_file.exists()
        out_file.write_text("kept")
        assert run(capsys, *argv)[:2] == (2, "")
        assert out_file.read_text() == "kept"


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize("args", [
    ["interval", "id", "w0"],
    ["diagram", "id", "w0"],
    ["sample", "--u", "id", "--v", "w0"],
    ["stratify", "--matrix", "no-such-matrix-file", "--u", "id", "--v", "w0"],
])
def test_sizes_below_one_refused_before_work(capsys, args, n):
    """The message names the --n given; stratify refuses it before it opens
    the matrix file, which does not exist."""
    code, out, err = run(capsys, *args, "--n", n)
    assert (code, out) == (2, "")
    assert err == f"usage error: --n must be at least 1, got --n {n}\n"


@pytest.mark.parametrize("args, size", [
    (["interval", "123", "321"], 3),
    (["diagram", "4321", "w0"], 4),
    (["sample", "--u", "id", "--v", "321"], 3),
    (["stratify", "--matrix", "no-such-matrix-file", "--u", "123", "--v", "321"], 3),
])
def test_an_n_that_contradicts_an_explicit_permutation_is_refused_before_work(
    capsys, args, size
):
    """Once --n 9 printed the n = 3 interval; stratify now refuses it before
    it opens the matrix file, which does not exist."""
    code, out, err = run(capsys, *args, "--n", "9")
    assert (code, out) == (2, "")
    assert err == f"usage error: --n 9 contradicts a permutation of size {size}\n"
    if args[0] != "stratify":
        code, out, _ = run(capsys, *args, "--n", str(size))
        assert code == 0 and out


class TestInterval:
    def test_members(self, capsys):
        code, out, _ = run(capsys, "interval", "132", "321")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ell=2 members=4"
        assert "0 132" in lines and "2 321" in lines

    def test_contains_coatom(self, capsys):
        code, out, _ = run(capsys, "interval", "263145", "465123")
        assert code == 0
        assert "265143" in out

    def test_point(self, capsys):
        code, out, _ = run(capsys, "interval", "123", "123")
        assert code == 0
        assert out.splitlines()[0] == "ell=0 members=1"

    def test_hasse(self, capsys):
        code, out, _ = run(capsys, "interval", "132", "321", "--hasse", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["edges"]) == 4


#: sha256 of the Hasse exports of (1234567, 7654321), as `TestHasse` pins them
HASSE7_SHA256 = {
    "dot": "9e4bbb3162a1e9f4d29b262db9a16e24c657bea9836412cdcbfa0525bcf3aa93",
    "json": "744833ae0776aa218a4bcc3158f7761a0a6d66efe9d98b8e15bad140d7c62365",
}


class TestIntervalHasse:
    @pytest.mark.parametrize("fmt", ["dot", "json"])
    @pytest.mark.parametrize("u, v", [("132", "321"), ("263145", "465123"),
                                      ("7364152", "2513746")])
    def test_output_is_the_hasse_export(self, capsys, tmp_path, u, v, fmt):
        u_perm, v_perm = parse_permutation(u), parse_permutation(v)
        g = qbgraph.build_graph(len(u_perm))
        expected = tiltedorder.hasse_export(tiltedorder.interval(u_perm, v_perm, g), g, fmt)
        argv = ["interval", u, v, "--hasse", "--format", fmt]
        assert run(capsys, *argv) == (0, expected, "")
        out_file = tmp_path / f"h.{fmt}"
        assert run(capsys, *argv, "--out", str(out_file)) == (0, "", "")
        assert out_file.read_bytes() == expected.encode()

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_the_n7_export_holds_one_cover_row_at_a_time(self, capsys, tmp_path, fmt):
        """Once every cover edge, the line or record list and the whole text
        were held: a traced peak of about 16 MB (DOT) and 33 MB (JSON); now
        about 7 MB, most of it the rows the interval's BFS reads."""
        out_file = tmp_path / f"h.{fmt}"
        argv = ["interval", "1234567", "7654321", "--hasse", "--format", fmt]
        tracemalloc.start()
        try:
            result = run(capsys, *argv, "--out", str(out_file))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (0, "", "")
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == HASSE7_SHA256[fmt]
        assert peak < 10_000_000

    def test_an_unwritable_out_is_refused_before_any_cover_row_is_read(self, capsys, monkeypatch,
                                                                       tmp_path):
        read = []
        monkeypatch.setattr(tiltedorder, "_cover_rows", lambda g, rank: read.append(rank))
        code, out, err = run(capsys, "interval", "263145", "465123", "--hasse", "--out",
                             str(tmp_path / "no-such-dir" / "h.dot"))
        assert (code, out) == (2, "")
        assert err.startswith("i/o error: ")
        assert read == []


class TestDiagram:
    def test_figure_cells(self, capsys):
        code, out, _ = run(capsys, "diagram", "4321", "3142", "--a", "4,4,2")
        assert code == 0
        assert "cells: (1,2) (2,2)" in out
        assert "cells: (2,2)" in out
        assert "count=3" in out and "C(n,2)-ell=3" in out

    def test_auto_flat(self, capsys):
        code, out, _ = run(capsys, "diagram", "4321", "3142")
        assert code == 0
        assert "a=4,4,2" in out
        assert "flat=yes" in out

    def test_coatom_ledger(self, capsys):
        code, out, _ = run(
            capsys, "diagram", "263145", "465123", "--a", "2,2,2,6,6", "--x", "265143"
        )
        assert code == 0
        assert out.count("up-minor") == 1
        assert "count=11" in out

    def test_equal_pair_count(self, capsys):
        code, out, _ = run(capsys, "diagram", "2413", "2413")
        assert code == 0
        assert "count=6" in out

    def test_invalid_a(self, capsys):
        code, _, err = run(capsys, "diagram", "4321", "3142", "--a", "1,1,1")
        assert code == 2
        assert "not below" in err

    @pytest.mark.parametrize("args", [
        ["id", "w0", "--n", str(MAX_CLI_N + 1)],
        ["w0", ",".join(map(str, [MAX_CLI_N + 1, *range(1, MAX_CLI_N + 1)]))],
    ])
    def test_refused_above_the_cli_bound_before_work(self, capsys, args):
        start = time.perf_counter()
        code, out, err = run(capsys, "diagram", *args)
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert f"bounded at n <= {MAX_CLI_N}" in err

    @pytest.mark.parametrize("a", ["\u0664,\u0664,\u0662", "4,4,\u00b2", "4,+4,2", "4,4_0,2"])
    def test_shift_sequence_in_ascii_digits_only(self, capsys, a):
        code, out, err = run(capsys, "diagram", "4321", "3142", "--a", a)
        assert (code, out) == (2, "")
        assert "usage error: bad shift sequence" in err
        code, out, _ = run(capsys, "diagram", "4321", "3142", "--a", " 4, 4 ,2 ")
        assert code == 0 and "count=3" in out

    def test_shift_past_the_int_digit_limit(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "diagram", "4321", "3142", "--a", "9" * 5000)
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err.startswith("usage error: bad shift sequence ")
        assert err.endswith("entries are in 1..4\n") and err.count("\n") == 1 and len(err) < 400
        code, out, _ = run(capsys, "diagram", "4321", "3142", "--a", "0" * 5000 + "4,4,2")
        assert code == 0 and out.startswith("u=4321 v=3142 a=4,4,2\n")

    def test_out_of_range_shift(self, capsys):
        # read mod n, 8,6,6 would act as 4,2,2 under a header naming 8,6,6
        code, out, err = run(capsys, "diagram", "4321", "3142", "--a", "8,6,6")
        assert (code, out) == (2, "")
        assert "out of range 1..4" in err

    def test_invalid_x(self, capsys):
        # 4132 = 3142 times a transposition, but it sits outside the interval
        code, _, err = run(capsys, "diagram", "4321", "3142", "--x", "4132")
        assert code == 2
        assert "interval" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "diagram", "4321", "3142", "--json")
        assert code == 0
        assert json.loads(out)["count"] == 3


class TestStratify:
    def test_identity_flag(self, capsys, tmp_path):
        path = tmp_path / "id.mat"
        path.write_text(format_matrix(permutation_flag(identity(4)).matrix))
        code, out, _ = run(
            capsys, "stratify", "--matrix", str(path), "--u", "id", "--v", "w0", "--n", "4"
        )
        assert code == 0
        assert "x=1234 y=1234" in out
        assert "open-membership=yes" in out

    def test_permutation_flag(self, capsys, tmp_path):
        path = tmp_path / "w.mat"
        path.write_text(format_matrix(permutation_flag((2, 3, 1)).matrix))
        code, out, _ = run(capsys, "stratify", "--matrix", str(path), "--u", "132", "--v", "321")
        assert code == 0
        assert "x=231 y=231" in out

    def test_sample_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "f.mat"
        code, _, _ = run(
            capsys, "sample", "--u", "4321", "--v", "3142", "--seed", "3", "--out", str(path)
        )
        assert code == 0
        code, out, _ = run(capsys, "stratify", "--matrix", str(path), "--u", "4321", "--v", "3142")
        assert code == 0
        assert "x=4321 y=3142" in out

    # sha256 of the file `qbg sample --out` writes for each (u, v, seed), as
    # written by the sampler on Fraction columns: the sampled bytes must not drift
    @pytest.mark.parametrize("u, v, seed, digest", [
        ("52413", "41532", 12, "424ee8545cde4edfb4ed7f9dffed61d59a9ebfdb3fa64bbb4bd48c35ac878b3e"),
        ("431652", "265134", 31,
         "f46fe54972da376e365b7686f35bf7b5a8dcd69bd5d05116b2a658d5e96f1420"),
        ("3716254", "5273641", 47,
         "dc559ceaa41638802c7b24d3db57facad50e8ab7a784a21ca77cc67c444b154b"),
    ])
    def test_sample_file_bytes_are_pinned(self, capsys, tmp_path, u, v, seed, digest):
        path = tmp_path / "s.mat"
        argv = ["sample", "--u", u, "--v", v, "--seed", str(seed), "--out", str(path)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_non_member_reported(self, capsys, tmp_path):
        path = tmp_path / "g.mat"
        path.write_text(format_matrix(random_flag(3, 5).matrix))
        code, out, _ = run(capsys, "stratify", "--matrix", str(path), "--u", "213", "--v", "213")
        assert code == 1
        assert "not a member" in out

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"2\n1e20000000 0\n0 1\n", "bad rational"),
            ("\u0662\n\u0661 0\n0 1_0\n".encode(), "size n"),
            (b"2\n1 0\n0 \xff\n", "not UTF-8"),
            (b"2\n1 0\n0 1\n" + b" " * MAX_MATRIX_BYTES, "bounded at"),
        ],
    )
    def test_hostile_matrix_file_refused(self, capsys, tmp_path, data, message):
        path = tmp_path / "h.mat"
        path.write_bytes(data)
        start = time.perf_counter()
        code, out, err = run(capsys, "stratify", "--matrix", str(path), "--u", "12", "--v", "21")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\n" + "1 " * 400_000 + "\n0 1\n", "expected 2 entries per row, got 400000: '1 1 "),
            ("2\n1 " + "x" * 400_000 + "\n0 1\n", "bad rational 'xxx"),
            ("2\n1 " + "1" * 5000 + "\n0 1\n", "bad rational '111"),
            ("2\n1 " + "1" * 4000 + "/0\n0 1\n", "zero denominator"),
            ("1" * 400_000 + "\n", "size n, got '111"),
        ],
        ids=["entry-count", "bad-token", "digit-limit", "zero-denominator", "first-line"],
    )
    def test_long_lines_quoted_in_bounded_messages(self, capsys, tmp_path, text, message):
        path = tmp_path / "long.mat"
        path.write_text(text)
        code, out, err = run(capsys, "stratify", "--matrix", str(path), "--u", "12", "--v", "21")
        assert (code, out) == (2, "")
        assert message in err and err.count("\n") == 1
        assert len(err) < 400

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_matrix_file_refused(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "stratify", "--matrix", "/dev/zero", "--u", "12", "--v", "21")
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert "bounded at" in err

    def test_largest_valid_entries_fit_the_byte_bound(self):
        # 49 entries, each two runs of the most digits Python turns into an int
        entry = "-" + "9" * 4300 + "/" + "7" * 4300
        text = "7\n" + "\n".join(" ".join([entry] * 7) for _ in range(7)) + "\n"
        assert len(text.encode()) <= MAX_MATRIX_BYTES
        assert len(parse_matrix(text)) == 7


class TestSample:
    def test_writes_member_flag(self, capsys, tmp_path):
        path = tmp_path / "s.mat"
        code, _, _ = run(
            capsys, "sample", "--u", "4321", "--v", "3142", "--out", str(path)
        )
        assert code == 0
        F = Flag(parse_matrix(path.read_text()))
        u, v = parse_permutation("4321"), parse_permutation("3142")
        assert member_T_plucker(u, v, F, True)

    def test_point_pattern(self, capsys):
        code, out, _ = run(capsys, "sample", "--u", "213", "--v", "213")
        assert code == 0
        F = Flag(parse_matrix(out))
        assert member_T_plucker(parse_permutation("213"), parse_permutation("213"), F, True)

    def test_refused_beyond_the_table_bound_before_work(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "sample", "--u", "id", "--v", "w0", "--n", "14")
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert "n <= 7" in err
        for n in (8, 600):
            for build in (lambda: random_flag(n, 0), lambda: permutation_flag(identity(n))):
                start = time.perf_counter()
                with pytest.raises(ResourceLimitError, match="n <= 7"):
                    build()
                assert time.perf_counter() - start < 2

    def test_symbolic_needs_size(self, capsys):
        code, _, err = run(capsys, "sample", "--u", "id", "--v", "w0")
        assert code == 2
        assert "--n" in err

    def test_symbolic_with_size(self, capsys):
        code, out, _ = run(capsys, "sample", "--u", "id", "--v", "w0", "--n", "3")
        assert code == 0
        F = Flag(parse_matrix(out))
        assert member_T_plucker(identity(3), longest_element(3), F, True)

    def test_a_failed_sample_names_its_column_once(self, capsys, monkeypatch):
        monkeypatch.setattr(exactgeom, "MAX_COLUMN_TRIES", 0)  # no draw is ever tried
        code, out, err = run(capsys, "sample", "--u", "213", "--v", "213")
        assert (code, out) == (1, "")
        assert err == ("error: could not sample the open stratum of (213, 213); "
                       "column 1 kept failing\n")


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "distance", "--n", "3")
        assert code == 0
        assert "36 pairs, 0 mismatches" in out
        assert out.rstrip().endswith("PASS")

    def test_counts_line(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "tilted", "--n", "3")
        assert code == 0
        assert "216 triples, equivalences hold" in out

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "everything"])
        assert exc.value.code == 2

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "verify", "--suite", "stratify", "--n", "3", "--seed", "1")
        _, second, _ = run(capsys, "verify", "--suite", "stratify", "--n", "3", "--seed", "1")
        assert first == second


def test_dist_n_sizes_the_shorthands(capsys):
    assert run(capsys, "dist", "id", "w0", "--n", "3") == (0, "ell=3 weight=1\n", "")
    code, out, err = run(capsys, "dist", "123", "w0", "--n", "4")
    assert (code, out) == (2, "")
    assert err == "usage error: --n 4 contradicts a permutation of size 3\n"


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["frobnicate"], ["frobnicate", "321"],
    *([name, "-h"] for name in
      ("dist", "graph", "interval", "diagram", "stratify", "sample", "verify")),
    ["dist", "312"],
    ["dist", "312", "231", "extra"],
    ["dist", "312", "231", "--zzz"],
    ["dist", "312", "231", "--oracle", "--both"],
    ["dist", "312", "231", "--bo"],
    ["graph", "--n", "3", "--format", "xml"],
    ["verify", "--suite", "distance", "--n", "x"],
    ["dist", "--", "312", "231"],
    ["dist", "312", "--", "231"],
    ["interval", "132", "321", "--hasse", "--format", "json"],
    ["diagram", "4321", "3142", "--a", "4,4,2"],
], ids=" ".join)
def test_one_command_parser_matches_the_full_tree(capsys, monkeypatch, argv):
    """Exit code, stdout and stderr are those of the full tree's route."""
    fast = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert fast == _outcome(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["dist", "321", "213"],
    ["dist", "id", "w0", "--n", "3", "--bo"],
    ["dist", "--", "312", "231"],
    ["graph", "--n=2", "--form", "json", "--out", "g.json"],
    ["interval", "132", "321", "--hasse"],
    ["diagram", "4321", "3142", "--x", "4312", "--json"],
    ["stratify", "--matrix", "f.mat", "--u", "id", "--v", "w0", "--n", "3"],
    ["sample", "--u", "4321", "--v", "3142", "--seed", "1", "--out", "f.mat"],
    ["verify", "--suite", "tilted", "--samples", "0"],
], ids=" ".join)
def test_one_command_parser_reads_the_full_trees_namespace(argv):
    full = vars(cli.build_parser().parse_args(argv))
    assert full.pop("command") == argv[0]
    assert vars(cli._parse(argv)) == full


@pytest.fixture
def parsers_built(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_a_command_builds_only_its_own_parser(capsys, parsers_built):
    assert run(capsys, "dist", "321", "213") == (0, "ell=2 weight=q1*q2\n", "")
    assert parsers_built == ["qbg dist"]


def test_the_console_script_reads_sys_argv(capsys, monkeypatch, parsers_built):
    """The `qbg` script calls main() with no argument."""
    monkeypatch.setattr(sys, "argv", ["qbg", "dist", "321", "213"])
    assert main() == 0
    assert capsys.readouterr().out == "ell=2 weight=q1*q2\n"
    assert parsers_built == ["qbg dist"]
