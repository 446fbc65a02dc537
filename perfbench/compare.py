"""
Compare two result sets of the benchmark, for example parent and change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each argument is a JSON-lines file written by ``run.py --out``.  For every workload and metric it prints each side's
median and quartiles, the pairs won by the change (runs paired by seed,
ties counting for neither side) and a verdict:

- improved: the change wins at least 9/10 of the pairs, and the medians
  differ in its favour by more than the parent's quartile spread;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json (for a per-layer metric, which has no
  bound: loses 9/10 of the pairs by more than the parent's spread);
- unresolved: the parent's own quartile spread, as a share of its median,
  is wider than the bound, and not every change run beats every parent run;
- unchanged: otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path: Path) -> dict:
    """(workload, metric) -> {seed: [values]}, from correct runs only."""
    data: dict = defaultdict(lambda: defaultdict(list))
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if not rec.get("correct") or rec.get("smoke"):
            continue
        for name, m in rec["metrics"].items():
            data[(rec["workload"], name)][rec["seed"]].append(m["value"])
    return data


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict, change: dict, better: str, bound: float | None) -> tuple[str, int, int]:
    sign = 1 if better == "lower" else -1  # positive gain means the change is better
    p_all = [v for vs in parent.values() for v in vs]
    c_all = [v for vs in change.values() for v in vs]
    pairs = [(p, c) for seed in sorted(set(parent) & set(change))
             for p, c in zip(parent[seed], change[seed])]
    won = sum(1 for p, c in pairs if sign * (p - c) > 0)
    lost = sum(1 for p, c in pairs if sign * (p - c) < 0)
    p1, pm, p3 = quartiles(p_all)
    cm = statistics.median(c_all)
    spread = p3 - p1
    gain = sign * (pm - cm)
    if pairs and won >= 0.9 * len(pairs) and gain > spread:
        return "improved", won, len(pairs)
    if bound is None:
        if pairs and lost >= 0.9 * len(pairs) and -gain > spread:
            return "worse", won, len(pairs)
        return "unchanged", won, len(pairs)
    if -gain > bound * abs(pm):
        return "worse", won, len(pairs)
    all_better = all(sign * (p - c) > 0 for p in p_all for c in c_all)
    if pm and spread / abs(pm) > bound and not all_better:
        return "unresolved", won, len(pairs)
    return "unchanged", won, len(pairs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':16} {'metric':34} {'parent q1/median/q3':>32} "
          f"{'change q1/median/q3':>32} {'won':>7}  verdict")
    worse = False
    fewest = None
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        if name not in metrics:
            continue
        better, bound = metrics[name]
        p = quartiles([v for vs in parent[key].values() for v in vs])
        c = quartiles([v for vs in change[key].values() for v in vs])
        result, won, n = verdict(parent[key], change[key], better, bound)
        worse |= result == "worse" and bound is not None
        fewest = n if fewest is None else min(fewest, n)
        print(f"{workload:16} {name:34} {p[0]:10.4g} {p[1]:10.4g} {p[2]:10.4g} "
              f"{c[0]:10.4g} {c[1]:10.4g} {c[2]:10.4g} {won:3}/{n:<3}  {result}")
    if fewest is not None and fewest < 10:
        print(f"only {fewest} runs paired by seed on some rows; a gain needs at least 10 pairs")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
