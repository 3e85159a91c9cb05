"""The repository's benchmark: one workload per run, checked outputs, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds of the workload and prints the per-layer metrics
(see ``tracing.py``) of the traced rounds, plus ``trace.overhead``, the
traced over the untraced throughput; its spans are written to
``.perfbench/traces/``.  Every output is checked against the benchmark's own
reference computations (``reference.py``); an output that fails a check
counts its operation as failed, and the run then exits with code 1 after
printing its result.  The program is imported from ``src/`` of the checkout
the benchmark sits in, never from elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run; the median is reported as ``setup_s``.
SETUP_REPEATS = 3


def _import_program() -> None:
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"cannot import the program from {source}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != source.resolve():
        sys.exit(f"imported repro from {repro.__file__}, not from {source}")


def _workloads():
    from churn_replay import ChurnReplay
    from serve_mixed import ServeMixed
    from sweep_warm import SweepWarm

    return {w.name: w for w in (ServeMixed, SweepWarm, ChurnReplay)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import reference
    from common import layer_metrics, metric_units, peak_rss_mb, run_phase, run_traced

    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    seed = args.seed % 2**32  # numpy seeds must be non-negative
    failures = reference.self_test(seed)
    if failures:
        for failure in failures:
            print(f"self-test failed: {failure}", file=sys.stderr)
        return 3

    workload = workloads[args.workload](seed)
    work_dir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        setups = []
        for attempt in range(SETUP_REPEATS):
            workload.close()
            started = time.perf_counter()
            workload.setup(work_dir / f"setup-{attempt}")
            setups.append(time.perf_counter() - started)
        workload.prepare_checks()

        if args.trace:
            from tracing import Tracer, install_layers

            tracer = Tracer()
            untraced, phase = run_traced(workload, tracer, install_layers, args.seconds)
            units = metric_units("per_layer")
            values = {name: 0.0 for name in units}
            values.update(layer_metrics(tracer, units, phase.rounds))
            values.update(workload.traced_metrics(tracer, phase))
            values["trace.overhead"] = phase.throughput / untraced.throughput
            attempted = untraced.attempted + phase.attempted
            failed = untraced.failed + phase.failed
            tracer.write(
                ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "rounds": phase.rounds},
            )
        else:
            phase = run_phase(workload, args.seconds, workload.min_ops)
            values = {
                "setup_s": statistics.median(setups),
                "throughput_ops_s": phase.throughput,
                "latency_p50_ms": phase.latency_ms(50),
                "latency_tail_ms": phase.latency_ms(workload.tail_percentile),
                "utility_lp_ratio": statistics.fmean(phase.ratios) if phase.ratios else 0.0,
                "peak_rss_mb": peak_rss_mb(),
            }
            units = metric_units("end_to_end")
            attempted, failed = phase.attempted, phase.failed
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
