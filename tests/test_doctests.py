"""Every docstring example in the package runs and passes, the paper's
worked examples among them."""
import doctest
import importlib
import pkgutil

import qbg


def test_docstring_examples_pass():
    attempted = 0
    for info in pkgutil.iter_modules(qbg.__path__):
        module = importlib.import_module(f"qbg.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, f"{info.name}: {result.failed} failing examples"
        attempted += result.attempted
    assert attempted > 0
