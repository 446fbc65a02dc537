"""Command-line front end.  Subcommands: dist, graph, interval, diagram,
stratify, sample, verify.  All reports are deterministic given --seed.

One table, `_COMMANDS`, holds each subcommand's help line and the function
that adds its arguments and handler.  When the first argument names a
command, `main` builds that command's parser alone (`qbg dist`, as the full
tree would name it), so a run pays for its own options only.  The full tree
of `build_parser()` is built from the same table, and is kept for what
argparse reports at the top level: `qbg -h`, a missing or unknown command,
and arguments the command leaves unrecognised."""
from __future__ import annotations

import argparse
import sys
from typing import Iterable

from . import diagrams, exactgeom, qbgraph, suites, tiltedorder
from .errors import ParseError, QbgError, ResourceLimitError, SamplingError
from .permcore import (
    Perm,
    _excerpt,
    coxeter_length,
    format_permutation,
    identity,
    longest_element,
    parse_permutation,
)

#: Permutations on the command line are refused above this size before any
#: work: the `diagram` ledger is Theta(n^3) text (5 MB and 0.5 s at n = 200,
#: 83 MB and 11 s at n = 500), and `dist` grows about as n^2 (4 s at
#: n = 4000; times on a 2-CPU host).  The library functions take any n.
MAX_CLI_N = 200

#: `stratify --matrix` reads at most this many bytes.  Flags stop at n = 7
#: and Python refuses ints of more than 4300 digits, so a valid matrix file
#: holds at most 49 entries of two such runs each, about 0.5 MB; the bound
#: leaves the same again for whitespace.
MAX_MATRIX_BYTES = 1 << 20


class UsageError(QbgError):
    pass


_ALIASES = ("id", "w0", "w_0")


def _resolve_perm(text: str, n_hint: int | None) -> Perm:
    alias = text.strip().lower()
    if alias in _ALIASES:
        if n_hint is None:
            raise UsageError(
                f"{text!r} needs the size; give the other permutation explicitly or pass --n"
            )
        return identity(n_hint) if alias == "id" else longest_element(n_hint)
    return parse_permutation(text)


def _perm_pair(u_text: str, v_text: str, n_flag: int | None) -> tuple[Perm, Perm]:
    if n_flag is not None and n_flag < 1:
        raise UsageError(f"--n must be at least 1, got --n {n_flag}")
    texts = (u_text, v_text)
    # each explicit permutation is parsed once; --n sizes the shorthands only when both are
    explicit = {t: parse_permutation(t) for t in texts if t.strip().lower() not in _ALIASES}
    sizes = [len(w) for w in explicit.values()] or [n_flag]
    clash = [size for size in sizes if n_flag is not None and size != n_flag]
    if clash:
        raise UsageError(f"--n {n_flag} contradicts a permutation of size {clash[0]}")
    if sizes[0] is not None and max(sizes) > MAX_CLI_N:
        raise ResourceLimitError(
            f"permutations are bounded at n <= {MAX_CLI_N}, got n = {max(sizes)}"
        )
    u, v = (explicit.get(t) or _resolve_perm(t, sizes[0]) for t in texts)
    if len(u) != len(v):
        raise UsageError(f"permutations have different sizes {len(u)} and {len(v)}")
    return u, v


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write the text, or its pieces in order as they come, to the file
    `out` (UTF-8) or to stdout.  The file is opened before the first piece
    is taken."""
    pieces = (text,) if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def cmd_dist(args: argparse.Namespace) -> int:
    u, v = _perm_pair(args.u, args.v, args.n)
    if args.mode in ("oracle", "both"):
        # the graph checks n <= MAX_GRAPH_N before the formula is computed
        ell_o, weight_o = qbgraph.oracle_distance(qbgraph.build_graph(len(u)), u, v)
    if args.mode == "oracle":
        ell, weight = ell_o, weight_o
    else:
        weight = qbgraph.formula_weight(u, v)
        # graph_distance's closed form, on the weight already in hand
        ell = coxeter_length(v) - coxeter_length(u) + 2 * sum(weight)
    line = f"ell={ell} weight={qbgraph.monomial_str(weight)}"
    if args.mode == "both":
        agree = "yes" if (ell, weight) == (ell_o, weight_o) else "no"
        line += f" agree={agree}"
    print(line)
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    """Check n, list S_n, open the output, then write each row's piece of
    the export as it is scanned: no row or whole text is held, and a
    refused n or an unwritable --out costs no scan."""
    _emit(qbgraph._export_chunks(qbgraph.build_graph(args.n), args.format), args.out)
    return 0


def cmd_interval(args: argparse.Namespace) -> int:
    u, v = _perm_pair(args.u, args.v, args.n)
    g = qbgraph.build_graph(len(u))
    ti = tiltedorder.interval(u, v, g)
    if args.hasse:
        _emit(tiltedorder._hasse_chunks(ti, g, args.format), args.out)
        return 0
    lines = [f"ell={ti.length} members={len(ti.members)}"]
    for w in sorted(ti.members, key=lambda w: (ti.rank[w], w)):
        lines.append(f"{ti.rank[w]} {format_permutation(w)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_diagram(args: argparse.Namespace) -> int:
    u, v = _perm_pair(args.u, args.v, args.n)
    n = len(u)
    if args.a == "auto":
        a = diagrams.find_flat(u, v)
    else:
        tokens = [tok.strip() for tok in args.a.split(",")]
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise UsageError(f"bad shift sequence {_excerpt(args.a)}: "
                             "entries are ASCII digits 0-9 separated by commas")
        digits = [tok.lstrip("0") or "0" for tok in tokens]
        if max(map(len, digits)) > len(str(n)):  # and int() refuses past 4300 digits
            raise UsageError(f"bad shift sequence {_excerpt(args.a)}: entries are in 1..{n}")
        a = tuple(map(int, digits))
    lines = [
        f"u={format_permutation(u)} v={format_permutation(v)} a={','.join(map(str, a))}",
        "",
        diagrams.render_diagram(u, a, "down"),
        "",
        diagrams.render_diagram(v, a, "up"),
        "",
    ]
    if args.x is None:
        eqset = diagrams.equations(u, v, a)
    else:
        x = _resolve_perm(args.x, n)
        eqset = diagrams.equations_with_x(u, v, a, x)
        lines.append(f"x={format_permutation(x)}")
    if args.json:
        _emit(diagrams.equations_to_json(eqset), args.out)
        return 0
    for eq in eqset.equations:
        lines.append(f"col {eq.column} cell ({eq.cell[0]},{eq.cell[1]}) [{eq.origin}]: "
                     f"{diagrams.equation_str(eq)}")
    ell = qbgraph.graph_distance(u, v)
    expected = n * (n - 1) // 2 - ell
    flat = diagrams.is_flat(u, v, a)
    lines.append(
        f"count={len(eqset)} flat={'yes' if flat else 'no'} "
        f"C(n,2)-ell={expected} ell={ell}"
    )
    if flat and len(eqset) != expected:
        lines.append("WARNING: flat ledger size does not match C(n,2)-ell")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _read_matrix_file(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read(MAX_MATRIX_BYTES + 1)
    if len(data) > MAX_MATRIX_BYTES:
        raise ResourceLimitError(f"matrix files are bounded at {MAX_MATRIX_BYTES} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"matrix file is not UTF-8: {exc}") from exc


def cmd_stratify(args: argparse.Namespace) -> int:
    u, v = _perm_pair(args.u, args.v, args.n)
    matrix = exactgeom.parse_matrix(_read_matrix_file(args.matrix))
    F = exactgeom.Flag(matrix)
    if not exactgeom.member_T_plucker(u, v, F, open_cell=False):
        print(
            f"flag is not a member of the tilted Richardson variety of "
            f"({format_permutation(u)}, {format_permutation(v)})"
        )
        return 1
    label = exactgeom.stratum(u, v, F)
    print(f"x={format_permutation(label.x)} y={format_permutation(label.y)}")
    print("open-membership=yes")  # the locator has checked its label's open test on F
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    u, v = _perm_pair(args.u, args.v, args.n)
    try:
        F = exactgeom.sample_in_open_stratum(u, v, args.seed)
    except SamplingError as exc:
        print(f"error: {exc} (failing column {exc.column})", file=sys.stderr)
        return 1
    _emit(exactgeom.format_matrix(F.matrix), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    result = suites.run_suite(args.suite, args.n, args.seed, args.samples)
    print(result.report())
    return 0 if result.ok else 1


def _pair_args(p: argparse.ArgumentParser, named: bool) -> None:
    """u and v, as the required --u and --v when `named`, then --n."""
    for name in ("--u", "--v") if named else ("u", "v"):
        p.add_argument(name, **({"required": True} if named else {}))
    p.add_argument("--n", type=int, help="size when using the id/w0 shorthands")


def _dist_args(p: argparse.ArgumentParser) -> None:
    _pair_args(p, named=False)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--formula", dest="mode", action="store_const", const="formula")
    mode.add_argument("--oracle", dest="mode", action="store_const", const="oracle")
    mode.add_argument("--both", dest="mode", action="store_const", const="both")
    p.set_defaults(mode="formula", func=cmd_dist)


def _graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_graph)


def _interval_args(p: argparse.ArgumentParser) -> None:
    _pair_args(p, named=False)
    p.add_argument("--hasse", action="store_true")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_interval)


def _diagram_args(p: argparse.ArgumentParser) -> None:
    _pair_args(p, named=False)
    p.add_argument("--a", default="auto", help="shift sequence k1,k2,... or auto")
    p.add_argument("--x", help="interval coatom for the rewritten ledger")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagram)


def _stratify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", required=True)
    _pair_args(p, named=True)
    p.set_defaults(func=cmd_stratify)


def _sample_args(p: argparse.ArgumentParser) -> None:
    _pair_args(p, named=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", required=True, choices=sorted(suites.SUITES))
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=5)
    p.set_defaults(func=cmd_verify)


#: Each subcommand's help line and the function that adds its arguments and
#: handler, in the order `qbg -h` lists them.  Both parsers read this table.
_COMMANDS = {
    "dist": ("minimal path length and weight between two permutations", _dist_args),
    "graph": ("export the full graph", _graph_args),
    "interval": ("members of a tilted Bruhat interval", _interval_args),
    "diagram": ("tilted Rothe diagrams and their equations", _diagram_args),
    "stratify": ("locate the stratum containing a flag", _stratify_args),
    "sample": ("sample a flag in an open stratum", _sample_args),
    "verify": ("run a named invariant suite", _verify_args),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbg",
        description="Quantum Bruhat graph computations and tilted Richardson geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with the named command's parser alone; fall back to the full
    tree, which prints the top-level usage and errors, when argv names no
    command or leaves arguments unrecognised."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is not None:
        parser = argparse.ArgumentParser(prog=f"qbg {argv[0]}")
        entry[1](parser)
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except QbgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
