"""Report-only comparison of two sets of benchmark runs (or the spread of one).

Usage, from the repository root::

    python3 perfbench/compare.py .perfbench/runs/base [.perfbench/runs/change]

A set is a directory written by ``runset.py``.  For every workload and
metric the report gives each side's median and quartiles and the spread
(quartile distance over the median).  With two sets it adds the ratio of
the change's median to the base's and a verdict:

* ``unresolved`` — either side's spread exceeds the metric's bound, unless
  every run of the change reads better than every run of the base;
* ``worse`` — the change's median is worse than the base's by more than the
  bound;
* ``better`` — the change's median is better by more than the bound;
* ``same`` — otherwise.

A gain smaller than the bound reads ``same``: two ten-seed sets of the same
code, run one after the other on a shared 2-core host, had medians up to 12%
apart, beyond the spread within either set (see README.md).

Per-layer metrics (traced runs) have no bound; they get ratios, no verdict.
The report also gives each side's share of failed operations.  It changes
nothing and always exits with code 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path):
    """``{(workload, trace): [result, ...]}`` from a directory of run results."""
    runs: Dict[tuple, List[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        workload, _seed, trace, _ = path.name.rsplit(".", 3)
        runs[(workload, trace)].append(json.loads(path.read_text()))
    return runs


def summary(values: List[float]) -> Optional[tuple]:
    if not values:
        return None
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    b, n = summary(base), summary(new)
    sign = 1.0 if better == "higher" else -1.0
    if max(b[3], n[3]) > bound:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return "better"
        return "unresolved"
    change = sign * (n[0] - b[0]) / abs(b[0]) if b[0] else 0.0
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    base = load_set(args.base)
    change = load_set(args.change) if args.change else {}

    for key in sorted(set(base) | set(change)):
        workload, trace = key
        sides = [("base", base.get(key, []))] + ([("change", change.get(key, []))] if args.change else [])
        print(f"\n== {workload} ({'traced' if trace == 'trace1' else 'untraced'})")
        for label, runs in sides:
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            share = failed / attempted if attempted else 0.0
            print(f"   {label}: {len(runs)} run(s), failed {failed}/{attempted} = {share:.6f}")
        names = sorted({name for _, runs in sides for r in runs for name in r["metrics"]})
        for name in names:
            spec = specs.get(name, {})
            bound = spec.get("bound")
            columns = []
            values = {}
            for label, runs in sides:
                values[label] = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                s = summary(values[label])
                columns.append(
                    "-" if s is None else f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}] spread {s[3]:.3f}"
                )
            line = f"   {name:32s} " + "  |  ".join(columns)
            if bound is not None:
                line += f"  (bound {bound})"
            if args.change and values["base"] and values["change"]:
                b, n = summary(values["base"]), summary(values["change"])
                ratio = n[0] / b[0] if b[0] else float("nan")
                line += f"  ratio {ratio:.4f} of base {b[0]:.6g}"
                if bound is not None:
                    line += f"  -> {verdict(values['base'], values['change'], spec['better'], bound)}"
            elif bound is not None and values["base"]:
                s = summary(values["base"])
                line += "  steady" if s[3] <= bound else "  TOO WIDE"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
