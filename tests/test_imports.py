"""`import qbg` stays light: a cold process pays for every module the
package loads, so it must not pull in the dataclass machinery; and what
the package keeps in memory stays bounded."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: `dataclasses` and what importing it loads.
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "linecache", "copy"}


def _modules_after(code: str) -> set[str]:
    """Names in sys.modules after running code in a fresh interpreter."""
    script = f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(out.split())


def test_import_loads_no_dataclass_machinery():
    bare = _modules_after("")
    loaded = _modules_after("import qbg, qbg.cli")
    assert "qbg.cli" in loaded
    assert sorted((loaded - bare) & HEAVY) == []


def test_every_cache_is_bounded():
    found = []
    for path in sorted((SRC / "qbg").glob("*.py")):
        module = importlib.import_module(f"qbg.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else target.id
                if name in ("lru_cache", "cache"):
                    # a cache inside a function could not be checked here
                    cached = getattr(module, node.name)
                    found.append(f"{path.stem}.{node.name}")
                    assert cached.cache_parameters()["maxsize"] is not None, found[-1]
    assert "tiltedorder.interval_member_set" in found
    assert "exactgeom._window_masks" in found


def _imported(module: str) -> set[str]:
    """The modules a qbg module imports from and the names it imports."""
    tree = ast.parse((SRC / "qbg" / f"{module}.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {node.module for node in imports if isinstance(node, ast.ImportFrom)}
    return modules | {alias.name for node in imports for alias in node.names}


def test_exactgeom_reads_value_sets_as_masks():
    # the flag indexes its tables by value mask, so the plans and the
    # sampler build no frozensets or tuples of values
    imported = _imported("exactgeom")
    assert "value_mask" in imported
    assert imported.isdisjoint({"prefix_set", "cyclic_set", "shifted_gale_leq", "combinations"})


def test_the_export_format_lives_in_qbgraph_alone():
    # tiltedorder hands the Hasse diagram's header, cover rows and footer to
    # qbgraph's one edge writer, so it needs no encoder or format helper
    imported = _imported("tiltedorder")
    assert "_edge_chunks" in imported
    assert imported.isdisjoint({"json", "edge_dot", "edge_record", "_json_list", "_Monomials"})
    qbgraph = importlib.import_module("qbg.qbgraph")
    assert not hasattr(qbgraph, "edge_dot") and not hasattr(qbgraph, "edge_record")


def _attributes_read(module: str, owner: str) -> set[str]:
    """The attributes a qbg module reads off the name `owner`."""
    tree = ast.parse((SRC / "qbg" / f"{module}.py").read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == owner}


def test_there_is_one_graph_on_s_n():
    # the graph command exports the graph of build_graph, and dist and
    # interval query it, so the CLI names no row or vertex helper of qbgraph
    helpers = {"_out_edges", "_vertex_index", "_graph_on_demand"}
    assert "build_graph" in _attributes_read("cli", "qbgraph")
    assert _attributes_read("cli", "qbgraph").isdisjoint(helpers)
    assert _imported("cli").isdisjoint(helpers)
    qbgraph = importlib.import_module("qbg.qbgraph")
    assert not hasattr(qbgraph, "_graph_on_demand")
    assert not hasattr(qbgraph.QuantumBruhatGraph, "_list_vertices")


def _top_level_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_public_name_has_a_reader():
    # a public name that no library code reads and the package does not
    # export carries nothing the library states; a helper only the tests
    # read belongs in tests/oracles.py
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "qbg").glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = [f"{module}.{name}" for module, tree in trees.items() for node in tree.body
              for name in _top_level_names(node)
              if not name.startswith("_") and name not in read | exported]
    assert unread == []
