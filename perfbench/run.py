"""
The qbg benchmark.  Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-graph --seed 1 --seconds 30 --trace 0

A run repeats passes of the workload's fixed job list, each in a fresh
interpreter (perfbench/child.py), until --seconds have gone and at least
MIN_PASSES passes are done.  With --trace 0 it prints the end-to-end
metrics, whose times are normalised to a reference host speed
(perfbench/hostspeed.py); with --trace 1 it alternates untraced and
traced passes and prints the per-layer metrics.  Every job's output is
checked and digested; the last line of standard output is the JSON
result.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import END_TO_END, PER_LAYER, WORKLOADS, jobs  # noqa: E402

DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
# The geometry suites take up to 25% longer on the same input under one
# string-hash seed than under another (set iteration order).  Every pass
# runs under this one, so that runs differ by their inputs and code only.
HASH_SEED = "0"
# Set-up-only children started before the passes: setup_s is the median of
# these samples and one per pass.
SETUP_SAMPLES = 8
MIN_PASSES = 3
# No pass starts that is expected to end after this, and a pass still
# running at the limit is killed, so that the run exits well inside 180 s.
HARD_LIMIT_S = 160.0


def run_child(root: Path, work: Path, args, workload: str, name: str, timeout: float, *,
              traced: bool = False, setup_only: bool = False) -> dict | None:
    """Run child.py once; its result, or None if it failed or was killed."""
    result = work / f"{name}.json"
    request = {
        "src": str(root / "src"),
        "workload": workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": traced,
        "setup_only": setup_only,
        "job_limit_s": WORKLOADS[workload],
        "result": str(result),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            cwd=work, timeout=max(timeout, 1.0), capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    except subprocess.TimeoutExpired:
        print(f"{name} killed after {timeout:.0f} s")
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"{name} ended with code {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def measure(root: Path, args, workload: str, min_passes: int) -> tuple[list, list[tuple[bool, dict | None]]]:
    """Set-up samples, then (traced, result) per pass.  A failed child ends
    the run; it is recorded as a pass without result."""
    work = root / ".perfbench" / "tmp" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    passes: list[tuple[bool, dict | None]] = []
    start = time.perf_counter()
    try:
        setups = [run_child(root, work, args, workload, f"setup-{i}", 60.0, setup_only=True)
                  for i in range(SETUP_SAMPLES)]
        if None in setups:
            return [s for s in setups if s], [(False, None)]
        last = 0.0
        while True:
            elapsed = time.perf_counter() - start
            if len(passes) >= min_passes and elapsed + last > args.seconds:
                break
            if passes and elapsed + last > HARD_LIMIT_S:
                break
            traced = bool(args.trace) and len(passes) % 2 == 1
            t0 = time.perf_counter()
            result = run_child(root, work, args, workload, f"pass-{len(passes)}",
                               HARD_LIMIT_S + 10 - elapsed, traced=traced)
            last = time.perf_counter() - t0
            passes.append((traced, result))
            if result is None:
                break
        return setups, passes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_jobs(passes: list[dict | None], job_count: int, stored: dict) -> tuple[int, int, list[str]]:
    """Count attempted and failed jobs.  A job fails on a wrong exit code,
    a missing marker, a crash, the time limit, a digest that differs from
    the stored one for the same argv, or one that differs between passes."""
    attempted = failed = 0
    problems: list[str] = []
    first: dict[str, str] = {}
    for p in passes:
        if p is None:
            attempted += job_count
            failed += job_count
            problems.append(f"a pass produced no result; its {job_count} jobs count as failed")
            continue
        for job in p["jobs"]:
            attempted += 1
            error = job["error"]
            want = stored.get(job["key"])
            if error is None and want is not None and want != job["digest"]:
                error = "output digest differs from the stored one"
            if error is None and first.setdefault(job["key"], job["digest"]) != job["digest"]:
                error = "output digest differs between passes"
            if error is not None:
                failed += 1
                problems.append(f"{job['key']}: {error}")
    return attempted, failed, problems


def end_to_end(setups: list[dict], plain: list[dict]) -> dict[str, float]:
    """Medians over the passes (and the set-up-only children), of times
    normalised to the reference host speed; the times as measured are
    printed beside them.  req_p50_ms is the median over passes of each
    pass's median job time, so that one pass slowed where the speed
    samples missed it does not move it; req_p90_ms pools the passes'
    jobs, to have at least ten samples beyond it."""
    latencies = [j["seconds"] * 1000 for p in plain for j in p["jobs"]]
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    samples = setups + plain
    print(f"set-up samples: {len(samples)}; latency samples: {len(latencies)}, "
          f"{sum(1 for x in latencies if x > p90)} beyond p90; "
          f"speed samples per pass: {statistics.median(p['snippets'] for p in plain):.0f}")
    print(f"as measured: setup_s {statistics.median(p['setup_raw_s'] for p in samples):.6g} s, "
          f"wall_s {statistics.median(p['wall_raw_s'] for p in plain):.6g} s, "
          f"req_p50_ms {statistics.median(statistics.median(j['raw_s'] for j in p['jobs']) for p in plain) * 1000:.6g} ms")
    return {
        "setup_s": statistics.median(p["setup_s"] for p in samples),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        "req_p50_ms": statistics.median(statistics.median(j["seconds"] for j in p["jobs"])
                                        for p in plain) * 1000,
        "req_p90_ms": p90,
    }


def per_layer(plain: list[dict], traced: list[dict], trace_file: Path) -> tuple[dict[str, float], bool]:
    """Per-layer metrics (medians over the traced passes) and whether every
    wrapped function was reached through its wrapper everywhere."""
    values = {name: (statistics.median_low if unit == "count" else statistics.median)(
                  p["trace"]["metrics"][name] for p in traced)
              for name, (unit, *_) in PER_LAYER.items() if name != "trace.overhead_ratio"}
    traced_wall = statistics.median(p["wall_raw_s"] for p in traced)
    plain_wall = statistics.median(p["wall_raw_s"] for p in plain)
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    t = traced[0]
    acc = t["trace"]["accounts"]
    print(f"traced wall_s {traced_wall:.4f} s, untraced wall_s {plain_wall:.4f} s (as measured); "
          f"instrumentation share of the traced wall_s {acc['instrumentation_s'] / t['wall_raw_s']:.3f} "
          f"(wrapper cost {acc['cost_plain_us']:.3f} us a call, {acc['cost_group_us']:.3f} us "
          "for a group member)")
    remainder = t["wall_raw_s"] - acc["top_level_s"]
    print(f"traced time: module self times {acc['self_s']:.6f} s + instrumentation "
          f"{acc['instrumentation_s']:.6f} s + unwrapped remainder {remainder:.6f} s = "
          f"{acc['self_s'] + acc['instrumentation_s'] + remainder:.6f} s; "
          f"traced wall_s {t['wall_raw_s']:.6f} s")
    unpatched = sorted({where for p in traced for where in p["trace"]["unpatched"]})
    for where in unpatched:
        print(f"FAILED trace: {where} still holds an unwrapped function")
    cache = t["trace"]["member_set_cache"]
    print(f"interval_member_set cache: {cache['hits']} hits, {cache['misses']} misses")
    trace_file.write_text(json.dumps(t["trace"]["functions"], indent=1), encoding="utf-8")
    print(f"per-function trace written to {trace_file}")
    return values, not unpatched


def run_workload(root: Path, args, workload: str) -> dict:
    """Measure one workload, print its report and return the result."""
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg()[0],
    }
    job_list = jobs(workload, args.seed, args.smoke)
    tables = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    stored = tables.get(workload, {})
    min_passes = 1 if args.smoke else MIN_PASSES
    if args.trace:
        min_passes = max(min_passes, 2)

    setups, passes = measure(root, args, workload, min_passes)
    attempted, failed, problems = check_jobs([p for _, p in passes], len(job_list), stored)
    plain = [p for traced, p in passes if p is not None and not traced]
    traced = [p for is_traced, p in passes if p is not None and is_traced]
    correct = failed == 0 and bool(plain) and (not args.trace or bool(traced))

    print(f"workload={workload} seed={args.seed} trace={args.trace} smoke={args.smoke} "
          f"passes={len(passes)} jobs/pass={len(job_list)} python={env['python']} "
          f"nproc={env['nproc']} loadavg={env['loadavg_at_start']:.2f}")
    for line in problems[:20]:
        print(f"FAILED {line}")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} jobs failed)")
    checked = sum(1 for p in plain + traced for j in p["jobs"] if j["key"] in stored)
    print(f"digests: {checked} job outputs compared with the stored table, "
          f"{attempted - checked} with the other passes only")
    if plain:
        for job in plain[0]["jobs"]:
            if job["body"] is not None:
                print(f"instances: {job['key']}: {job['body']}")
        print(f"instances per pass: {sum(job['instances'] for job in plain[0]['jobs'])}")

    metrics: dict[str, dict] = {}
    if plain and not args.trace:
        values = end_to_end(setups, plain)
        metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]}
                   for name in END_TO_END}
    if plain and traced:
        trace_file = Path(".perfbench") / f"trace-{workload}-seed{args.seed}.json"
        values, complete = per_layer(plain, traced, trace_file)
        correct = correct and complete
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, *_) in PER_LAYER.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    if args.write_digests:
        if correct:
            tables[workload] = {**stored, **{j["key"]: j["digest"] for j in plain[0]["jobs"]}}
            DIGESTS.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"stored {len(plain[0]['jobs'])} digests in {DIGESTS.relative_to(root)}")
        else:
            print("digests not stored: the run was not correct")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.out:
        record = {"workload": workload, "seed": args.seed, "trace": args.trace,
                  "smoke": args.smoke, "env": env,
                  "pass_wall_s": [p["wall_s"] for p in plain],
                  "pass_wall_raw_s": [p["wall_raw_s"] for p in plain], **result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="a workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one pass per mode, for the self-test")
    parser.add_argument("--out", help="append the run record to this JSON-lines file")
    parser.add_argument("--write-digests", action="store_true",
                        help=f"store this run's output digests (seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qbg" / "__init__.py").is_file():
        print(f"no qbg source tree at {root / 'src' / 'qbg'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.write_digests and args.seed != DEFAULT_SEED:
        print(f"--write-digests needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(root, args, args.workload)))
        return 0
    results = {workload: run_workload(root, args, workload) for workload in WORKLOADS}
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
