"""sweep-warm: the paper's line-up over a user-count sweep, serial, warm store.

The set-up stores every job's LP, and the serial executor re-executes the
plan (``resume=False``) once per round, so each job builds its instance,
runs all seven algorithms from the stored LP (``lp_solves == 0``) and
evaluates them.  HiGHS never runs here: local search, rounding, evaluation,
instance build and the executor carry the time.
"""

from __future__ import annotations

import time
from typing import Dict, List

import reference
from common import Phase

LINE_UP = ("AVG", "AVG-D", "AVG-D+LS", "PER", "FMG", "GRF", "SDP")
#: An odd number of equally sized classes keeps the median and p90 job
#: inside one class (18 and 26 users) instead of between two.
USER_COUNTS = (10, 14, 18, 22, 26)
REPETITIONS = 8
NUM_ITEMS = 30
NUM_SLOTS = 3
#: Rows held to the approximation guarantee (AVG is only 4-approximate in
#: expectation, the baselines not at all).
GUARANTEED = ("AVG-D", "AVG-D+LS")


class SweepWarm:
    name = "sweep-warm"
    tail_percentile = 90.0
    min_ops = 100  # ten jobs beyond p90

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.store = None
        self.captured: List = []
        self._restore = None
        self.recording = False

    def setup(self, work_dir) -> None:
        from repro.core.pipeline import SolveContext
        from repro.core.registry import build_runners
        from repro.experiments.executor import SerialExecutor, compile_sweep
        from repro.experiments.figures import InstanceSweepFactory
        from repro.store import ArtifactStore

        factory = InstanceSweepFactory(
            dataset="timik", vary="n", num_items=NUM_ITEMS, num_slots=NUM_SLOTS
        )
        self.plan = compile_sweep(
            "sweep-warm", "paper line-up vs n", USER_COUNTS, factory,
            build_runners(list(LINE_UP)), seed=self.seed, repetitions=REPETITIONS,
        )
        self.store = ArtifactStore(work_dir / "store")
        for job in self.plan.jobs:
            SolveContext(factory(job.value, job.rep_seed), store=self.store).fractional()
        self.executor = SerialExecutor(store=self.store, resume=False)

    def prepare_checks(self) -> None:
        """LP bounds per job, and a hook that keeps each evaluated result.

        Job reports carry utilities but not configurations, so the hook on
        the executor's ``evaluate_result`` lookup hands the benchmark the
        (instance, result) pairs it evaluates; it adds one list append per
        algorithm run.
        """
        import repro.experiments.executor as executor

        factory = self.plan.instance_factory
        bounds = reference.solve_bounds(
            [reference.bound_problem(factory(job.value, job.rep_seed)) for job in self.plan.jobs]
        )
        self.bounds = {job.index: bound for job, bound in zip(self.plan.jobs, bounds)}
        original = executor.evaluate_result
        captured = self.captured

        def evaluate_result(instance, result):
            captured.append((instance, result))
            return original(instance, result)

        executor.evaluate_result = evaluate_result
        self._restore = lambda: setattr(executor, "evaluate_result", original)

    def close(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None
        if self.store is not None:
            self.store.close()
            self.store = None

    def run_round(self, phase: Phase) -> None:
        jobs = self.executor.iter_run(self.plan)
        while True:
            started = time.perf_counter()
            try:
                job = next(jobs)
            except StopIteration:
                break
            except Exception as exc:  # the executor stops at the failing job
                phase.busy_seconds += time.perf_counter() - started
                position = phase.attempted % len(self.plan.jobs)
                for job in self.plan.jobs[position:]:  # the rest of the round is lost
                    phase.fail((phase.rounds, job.index), [repr(exc)])
                phase.attempted += len(self.plan.jobs) - position
                self.captured.clear()
                break
            elapsed = time.perf_counter() - started
            phase.busy_seconds += elapsed
            phase.latencies.append(elapsed)
            phase.attempted += 1
            evaluated, self.captured[:] = list(self.captured), []
            problems, ratios = self._check(job, evaluated)
            if problems:
                phase.fail((phase.rounds, job.job_index), problems)
            else:
                phase.ratios.extend(ratios)

    def _check(self, job, evaluated) -> tuple:
        bound = self.bounds[job.job_index]
        problems: List[str] = []
        if job.provenance.get("lp_solves") != 0:
            problems.append(f"lp_solves={job.provenance.get('lp_solves')} on a warm store")
        if [result.algorithm for _, result in evaluated] != list(job.reports):
            problems.append("evaluated results do not match the job's reports")
            return problems, []
        ratios: List[float] = []
        for (instance, result), (name, report) in zip(evaluated, job.reports.items()):
            assignment = result.configuration.assignment
            row = [f"{name}: {p}" for p in reference.config_problems(assignment, instance.num_items, instance.num_slots)]
            if not row:
                recomputed = reference.utility(
                    instance.preference, instance.edges, instance.social,
                    instance.social_weight, assignment,
                )
                row = [
                    f"{name}: {p}"
                    for p in reference.utility_problems(report.total_utility, recomputed)
                    + reference.bound_problems(recomputed, bound, quarter=name in GUARANTEED)
                ]
            problems.extend(row)
            ratios.append(report.total_utility / bound)
        utilities: Dict[str, float] = {name: r.total_utility for name, r in job.reports.items()}
        if utilities["AVG-D+LS"] < utilities["AVG-D"] - reference.UTILITY_RTOL * abs(utilities["AVG-D"]):
            problems.append(f"AVG-D+LS {utilities['AVG-D+LS']!r} below AVG-D {utilities['AVG-D']!r}")
        return problems, ratios

    def traced_metrics(self, tracer, phase: Phase) -> Dict[str, float]:
        return {}
