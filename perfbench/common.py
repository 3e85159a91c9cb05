"""What every workload shares: the measured phase, its tallies and the metric tables."""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Set

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def metric_units(table: str) -> Dict[str, str]:
    """``name -> unit`` of one metric table of BENCHMARK.json.

    An untraced run prints the ``end_to_end`` table, a traced run the
    ``per_layer`` one.  Per-layer counts and times are per round of the
    workload (one round is one fixed set of operations), so they do not grow
    with the run length.
    """
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in config[table]}


@dataclass
class Phase:
    """Tallies of one measured phase: whole rounds of a workload's operations."""

    rounds: int = 0
    attempted: int = 0
    busy_seconds: float = 0.0  # time the operations took (checks excluded)
    round_rates: List[float] = field(default_factory=list)  # operations per busy second
    latencies: List[float] = field(default_factory=list)
    round_starts: List[int] = field(default_factory=list)  # index into latencies
    ratios: List[float] = field(default_factory=list)
    failed_operations: Set[tuple] = field(default_factory=set)
    problems: List[str] = field(default_factory=list)

    def fail(self, operation: tuple, problems: List[str]) -> None:
        """Count ``operation`` (round, index) as failed, once, keeping its first problems."""
        self.failed_operations.add(operation)
        if len(self.problems) < 20:
            self.problems.extend(f"{operation}: {problem}" for problem in problems[:3])

    @property
    def failed(self) -> int:
        return len(self.failed_operations)

    @property
    def throughput(self) -> float:
        """Median over rounds of operations per busy second (robust to a slow round)."""
        return statistics.median(self.round_rates) if self.round_rates else 0.0

    def latency_ms(self, q: float) -> float:
        """The ``q``-th latency percentile in milliseconds.

        When every round alone leaves at least ten operations beyond the
        percentile, it is taken per round and the median over rounds is
        reported, so one round slowed by the host does not move it;
        otherwise it is taken over all operations of the phase.
        """
        bounds = self.round_starts + [len(self.latencies)]
        rounds = [self.latencies[a:b] for a, b in zip(bounds, bounds[1:])]
        if rounds and min(len(r) for r in rounds) * (1 - q / 100) >= 10:
            return statistics.median(percentile_ms(r, q) for r in rounds)
        return percentile_ms(self.latencies, q)

    def run_round(self, workload) -> None:
        attempted, busy = self.attempted, self.busy_seconds
        self.round_starts.append(len(self.latencies))
        workload.run_round(self)
        self.rounds += 1
        if self.busy_seconds > busy:
            self.round_rates.append((self.attempted - attempted) / (self.busy_seconds - busy))

    def report_problems(self) -> None:
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)


def run_phase(workload, seconds: float, min_ops: int) -> Phase:
    """Run whole rounds until ``seconds`` have passed and ``min_ops`` were attempted."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while phase.rounds == 0 or time.perf_counter() < deadline or phase.attempted < min_ops:
        phase.run_round(workload)
    phase.report_problems()
    return phase


def run_traced(workload, tracer, install, seconds: float) -> tuple:
    """Alternate untraced and traced rounds for ``seconds``; returns both phases.

    Pairs run in ABBA order, so a drift of the host's speed during the run
    does not bias the traced-over-untraced throughput ratio.
    """
    untraced, traced = Phase(), Phase()

    def traced_round() -> None:
        install(tracer)
        workload.recording = True
        try:
            traced.run_round(workload)
        finally:
            workload.recording = False
            tracer.uninstall()

    deadline = time.perf_counter() + seconds
    pair = 0
    while pair == 0 or time.perf_counter() < deadline:
        if pair % 2 == 0:
            untraced.run_round(workload)
            traced_round()
        else:
            traced_round()
            untraced.run_round(workload)
        pair += 1
    for phase in (untraced, traced):
        phase.report_problems()
    return untraced, traced


def percentile_ms(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1e3 if values else 0.0


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, names, rounds: int) -> Dict[str, float]:
    """The generic per-layer values: calls, busy and self time per round."""
    totals = tracer.totals()
    counters = tracer.counters
    values: Dict[str, float] = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if kind in ("calls", "busy_s", "self_s") and layer in totals:
            calls, busy, own = totals[layer]
            values[name] = {"calls": calls, "busy_s": busy, "self_s": own}[kind] / rounds
    lp_calls, lp_busy, lp_self = totals.get("lp", (0, 0.0, 0.0))
    values["lp.instances"] = counters.get("lp.instances", 0.0) / rounds
    values["lp.highs_busy_s"] = totals.get("lp.highs", (0, 0.0, 0.0))[1] / rounds
    values["lp.assembly_self_s"] = lp_self / rounds
    load_calls = totals.get("store.load_lp", (0, 0.0, 0.0))[0]
    values["store.load_lp.hit_ratio"] = (
        counters.get("store.load_lp.hits", 0.0) / load_calls if load_calls else 0.0
    )
    values["pipeline.local_search.moves"] = counters.get("pipeline.local_search.moves", 0.0) / rounds
    values["churn.repair.moves"] = counters.get("churn.repair.moves", 0.0) / rounds
    return values
