"""Self-test: every workload runs in smoke mode, has no failed job,
returns exactly the metrics BENCHMARK.json names, and prints every metric
of the catalogue with its unit."""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import END_TO_END, PER_LAYER  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert re.search(r"^failed_frac 0\.0000 \(0 of \d+ jobs failed\)$", proc.stdout, re.M)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = END_TO_END if trace == 0 else PER_LAYER
    for name, (unit, *_) in printed.items():
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines), name


def test_refuses_to_run_without_a_source_tree(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "cli-oneshot",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_trace_finds_a_function_left_unwrapped():
    """A module-level container still holding an original after install
    is reported; right after install nothing is."""
    script = (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import qbg.cli\n"
        "from calltrace import Tracer\n"
        "import qbg.qbgraph as g\n"
        "original = g.build_graph\n"
        "t = Tracer(); t.install()\n"
        "assert t.unpatched() == [], t.unpatched()\n"
        "g.TABLE = {'build': (original, 1)}\n"
        "print(t.unpatched())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[\"qbg.qbgraph.TABLE['build'][0]\"]"


def test_normalise_scales_by_the_snippet_timings_around_a_span():
    from hostspeed import REFERENCE_S, Sampler

    s = Sampler()
    # Snippets at t=0, 1, 2, 3, 4, 5; the host runs at half speed from t=2.
    s.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    s.durations = [REFERENCE_S] * 2 + [2 * REFERENCE_S] * 4
    raw, norm = s.normalise(2.5, 3.5)
    assert raw == pytest.approx(1.0 - 2 * REFERENCE_S)
    # Inside: t=3; two on each side: t=1, 2 and 4, 5.
    assert norm == pytest.approx(raw * (1 + 0.5 * 4) / 5)
