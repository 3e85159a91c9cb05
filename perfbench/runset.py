"""Run the benchmark several times, one seed per run, and keep every result.

Usage, from the repository root::

    python3 perfbench/runset.py --out .perfbench/runs/base --seeds 1-10 [--trace 1]

Every workload in ``BENCHMARK.json`` is run once per seed, one run after
another, each in a fresh process, with the run length from
``BENCHMARK.json``.  Each run's last line of output (its JSON
result) is written to ``<out>/<workload>.seed<n>.trace<t>.json``; a run that
prints no result is reported and the set goes on.  ``compare.py`` reads the
directories this writes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10", help="an inclusive range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    missing = 0
    for workload in (w["name"] for w in config["workloads"]):
        for seed in seed_list(args.seeds):
            command = list(config["command"]) + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]), "--trace", str(args.trace),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                missing += 1
                print(f"{workload} seed {seed}: exit {done.returncode}, no result\n{done.stderr[-2000:]}", file=sys.stderr)
                continue
            (args.out / f"{workload}.seed{seed}.trace{args.trace}.json").write_text(lines[-1] + "\n")
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: exit {done.returncode}, "
                  f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
