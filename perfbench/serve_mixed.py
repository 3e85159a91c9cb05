"""serve-mixed: two closed-loop clients against an in-process ``SolverService``.

Half of each round's requests come from *returning* groups, whose LP the
set-up stored by serving them once; the other half come from groups the
service has not seen.  Every round starts a service on a fresh copy of the
warmed store, so every round pays the same mix of store hits and cold
block-diagonal LP solves.  This is the only workload with HiGHS, LP
assembly, micro-batching and store writes on the request path, and the only
one where a store hit waits behind the cold solve it was batched with.
"""

from __future__ import annotations

import shutil
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

import reference
from common import Phase, percentile_ms

#: Users per group; each group has ``m = 2n + 10`` items and ``k = 3`` slots.
GROUP_SIZES = (10, 14, 20, 28)
RETURNING = 32
NEW = 32
CLIENTS = 2


class ServeMixed:
    name = "serve-mixed"
    tail_percentile = 95.0
    min_ops = 200  # ten requests beyond p95

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.store = None
        self.service = None

    # -- inputs --------------------------------------------------------- #
    def _group(self, index: int):
        from repro.data import datasets

        n = GROUP_SIZES[index % len(GROUP_SIZES)]
        seed = int(np.random.default_rng([self.seed, index]).integers(2**31 - 1))
        return datasets.make_instance(
            "timik", num_users=n, num_items=2 * n + 10, num_slots=3, seed=seed
        )

    # -- set-up ---------------------------------------------------------- #
    def setup(self, work_dir) -> None:
        from repro.serving import SolverService
        from repro.store import ArtifactStore

        self.work_dir = work_dir
        self.groups = [self._group(i) for i in range(RETURNING + NEW)]
        rng = np.random.default_rng([self.seed, RETURNING + NEW])
        self.request_seeds = rng.integers(2**31 - 1, size=RETURNING + NEW).tolist()
        self.rounds_done = 0
        warm = ArtifactStore(work_dir / "warm")
        with SolverService(store=warm) as service:
            self.first_answers = [
                service.solve(group, seed=self.request_seeds[i], timeout=120)
                .result.configuration.assignment.copy()
                for i, group in enumerate(self.groups[:RETURNING])
            ]
        warm.close()
        self._start_service()

    def _start_service(self) -> None:
        """A service on a fresh copy of the warmed store."""
        from repro.serving import SolverService
        from repro.store import ArtifactStore

        round_dir = self.work_dir / "round"
        shutil.rmtree(round_dir, ignore_errors=True)
        shutil.copytree(self.work_dir / "warm", round_dir)
        self.store = ArtifactStore(round_dir)
        self.store.index.connection  # open the index now, as a running service has it open
        self.service = SolverService(store=self.store)

    def prepare_checks(self) -> None:
        self.bounds = reference.solve_bounds(
            [reference.bound_problem(group) for group in self.groups]
        )
        # Answers and service counters of the rounds run while recording
        # (the traced rounds), for the serving.* metrics.
        self.recording = False
        self.recorded: List = []
        self.recorded_stats: Dict[str, int] = defaultdict(int)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.store is not None:
            self.store.close()
            self.store = None

    # -- one round ------------------------------------------------------- #
    def run_round(self, phase: Phase) -> None:
        groups = self.groups
        # Returning (index < RETURNING) and new groups interleaved in a fresh
        # order each round, so a run averages over many co-batched pairs.
        order = np.random.default_rng([self.seed, RETURNING + NEW + 1, self.rounds_done])
        pending = order.permutation(len(groups)).tolist()
        self.rounds_done += 1
        lock = threading.Lock()
        answers: Dict[int, object] = {}
        errors: Dict[int, BaseException] = {}
        latencies: List[float] = []

        def client() -> None:
            while True:
                with lock:
                    if not pending:
                        return
                    index = pending.pop(0)
                started = time.perf_counter()
                try:
                    answer = self.service.solve(
                        groups[index], seed=self.request_seeds[index], timeout=120
                    )
                except Exception as exc:  # counted as a failed operation
                    errors[index] = exc
                    continue
                latencies.append(time.perf_counter() - started)
                answers[index] = answer

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.busy_seconds += time.perf_counter() - started
        phase.attempted += len(groups)
        phase.latencies.extend(latencies)
        if self.recording:
            self.recorded.extend(answers.values())
            for key, value in self.service.stats().items():
                self.recorded_stats[key] += value

        for index, exc in errors.items():
            phase.fail((phase.rounds, index), [repr(exc)])
        for index, answer in answers.items():
            returning = index < RETURNING
            problems = self._check(groups[index], answer, self.bounds[index])
            if returning and not np.array_equal(
                answer.result.configuration.assignment, self.first_answers[index]
            ):
                problems.append("returning group got another configuration than in set-up")
            if answer.cache_hit != returning:
                kind = "returning" if returning else "new"
                problems.append(f"cache_hit={answer.cache_hit} for a {kind} group")
            if problems:
                phase.fail((phase.rounds, index), problems)
            else:
                phase.ratios.append(answer.result.objective / self.bounds[index])
        # The next round's service starts now, outside the timed requests.
        self.close()
        self._start_service()

    @staticmethod
    def _check(group, answer, bound: float) -> List[str]:
        assignment = answer.result.configuration.assignment
        problems = reference.config_problems(assignment, group.num_items, group.num_slots)
        if problems:
            return problems
        recomputed = reference.utility(
            group.preference, group.edges, group.social, group.social_weight, assignment
        )
        return reference.utility_problems(
            answer.result.objective, recomputed
        ) + reference.bound_problems(recomputed, bound, quarter=True)

    # -- traced run ------------------------------------------------------ #
    def traced_metrics(self, tracer, phase: Phase) -> Dict[str, float]:
        """serving.* values from ServeResult fields, service stats and the spans."""
        answers, stats = self.recorded, self.recorded_stats
        batch_spans = [s for s in tracer.spans if s[2] == "serving.batch"]
        lp_under = tracer.children_time({s[0] for s in batch_spans}, "lp")
        blocked: List[float] = []
        for answer in answers:
            if not answer.cache_hit:
                continue
            # The batcher opened this request's batch at submit + queue wait.
            span = _containing(batch_spans, answer.submitted_at + answer.queue_seconds)
            blocked.append(lp_under.get(span[0], 0.0) if span else 0.0)
        return {
            "serving.queue_wait_ms": percentile_ms([a.queue_seconds for a in answers], 50),
            "serving.batch_size": stats["completed"] / max(1, stats["batches"]),
            "serving.cache_hit_ratio": stats["cache_hits"] / max(1, stats["completed"]),
            "serving.hit_blocked_ms": float(np.mean(blocked)) * 1e3 if blocked else 0.0,
        }


def _containing(spans, moment: float) -> Optional[tuple]:
    for span in spans:
        if span[4] <= moment <= span[5]:
            return span
    return None
