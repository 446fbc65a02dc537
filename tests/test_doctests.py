"""Every docstring example in the package runs and passes, the paper's
worked examples among them, and so does the README's library sketch."""
import ast
import doctest
import importlib
import pkgutil
from pathlib import Path

import qbg

README = Path(__file__).resolve().parent.parent / "README.md"


def test_docstring_examples_pass():
    attempted = 0
    for info in pkgutil.iter_modules(qbg.__path__):
        module = importlib.import_module(f"qbg.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, f"{info.name}: {result.failed} failing examples"
        attempted += result.attempted
    assert attempted > 0


def test_readme_library_sketch():
    """Run the Python block under "Library sketch"; an expression line with a
    comment must print as the comment reads up to its first colon."""
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        comment = lines[stmt.end_lineno - 1].partition("#")[2]
        if isinstance(stmt, ast.Expr) and comment:
            expected = comment.strip().split(":", 1)[0]
            assert repr(eval(source, namespace)) == expected, source
            checked.append(expected)
        else:
            exec(source, namespace)
    assert len(checked) == 4
