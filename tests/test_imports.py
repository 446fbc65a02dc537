"""`import qbg` stays light: a cold process pays for every module the
package loads, so it must not pull in the dataclass machinery."""
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
