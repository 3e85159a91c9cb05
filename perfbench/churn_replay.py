"""churn-replay: one ``ChurnEngine`` session absorbing a seeded churn trace.

The set-up builds the engine (one warm-started AVG-D solve of the initial
active set).  Every round replays the same join/leave/drift trace from a
copy of that engine, one timed ``apply_event`` per operation, so the
incremental path — ``DynamicSession``, the ``DeltaEvaluator`` row operations
and the event-local repair — carries the time.  At fixed checkpoints, outside
the timed events, the engine's running utility is checked against the
benchmark's recompute on the active users under a preference table the
benchmark maintains from the trace's own drift rows.
"""

from __future__ import annotations

import copy
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np

import reference
from common import Phase, percentile_ms

NUM_USERS = 130
NUM_ITEMS = 80
NUM_SLOTS = 3
NUM_EVENTS = 3000
CHECK_EVERY = 500
#: Checkpoints that also get the LP bound (each is a ~2 s solve at ~120
#: active users, so not every checkpoint gets one).
BOUND_AT = (1500, 3000)
#: The trace starts with 90% of the users present, near the level its
#: join-heavy mix settles at, and is long, so the mean work per event depends
#: little on the seed (a 1000-event trace from the generator's default 60%
#: varied by about 10% between seeds).
INITIAL_ACTIVE = 0.9
#: One instance for every seed; the seed draws the trace (initial active set,
#: events, drifted rows).  With an instance per seed, the set-up's initial
#: AVG-D solve varied with the instance and ``setup_s`` spread up to 0.29 over
#: ten seeds; on one instance it spread 0.18-0.19.
INSTANCE_SEED = 12345


class ChurnReplay:
    name = "churn-replay"
    # p99 would qualify, but it reads the few dearest events of one seed's
    # trace: over ten seeds its spread was 0.18-0.35, against a bound of 0.25.
    tail_percentile = 95.0
    min_ops = 3000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.store = None

    def setup(self, work_dir) -> None:
        from repro.data import datasets, make_churn_trace
        from repro.extensions.churn import ChurnEngine
        from repro.store import ArtifactStore

        trace_seed = int(np.random.default_rng([self.seed, 11]).integers(2**31 - 1))
        self.instance = datasets.make_instance(
            "timik", num_users=NUM_USERS, num_items=NUM_ITEMS, num_slots=NUM_SLOTS,
            seed=INSTANCE_SEED,
        )
        self.trace = make_churn_trace(
            self.instance, num_events=NUM_EVENTS, seed=trace_seed,
            initial_active_fraction=INITIAL_ACTIVE,
        )
        self.store = ArtifactStore(work_dir / "store")
        self.engine = ChurnEngine(self.instance, self.trace.initial_active, store=self.store)

    def prepare_checks(self) -> None:
        """Active set and drifted preferences at every checkpoint, plus the
        LP bound at the ``BOUND_AT`` ones."""
        active = np.asarray(self.trace.initial_active, dtype=bool).copy()
        preference = np.array(self.instance.preference, dtype=float)
        self.checkpoints: Dict[int, tuple] = {}
        for position, event in enumerate(self.trace.events, start=1):
            if event.kind == "join":
                active[event.user] = True
            elif event.kind == "leave":
                active[event.user] = False
            else:
                preference[event.user] = event.preference
            if position % CHECK_EVERY == 0:
                self.checkpoints[position] = (active.copy(), preference.copy(), None)
        bounds = reference.solve_bounds(
            [reference.bound_problem(self.instance, *self.checkpoints[p][:2]) for p in BOUND_AT]
        )
        for position, bound in zip(BOUND_AT, bounds):
            self.checkpoints[position] = (*self.checkpoints[position][:2], bound)
        # Per-kind latencies and re-solves of the rounds run while recording
        # (the traced rounds), for the churn.* metrics.
        self.recording = False
        self.kind_latencies: Dict[str, List[float]] = defaultdict(list)
        self.resolves = 0

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None

    def run_round(self, phase: Phase) -> None:
        engine = copy.deepcopy(self.engine)
        resolves_before = engine.resolves
        for position, event in enumerate(self.trace.events, start=1):
            phase.attempted += 1
            started = time.perf_counter()
            try:
                engine.apply_event(event)
            except Exception as exc:  # the session state is unknown after this
                phase.busy_seconds += time.perf_counter() - started
                for lost in range(position, len(self.trace.events) + 1):
                    phase.fail((phase.rounds, lost), [repr(exc)])
                phase.attempted += len(self.trace.events) - position
                return
            elapsed = time.perf_counter() - started
            phase.busy_seconds += elapsed
            phase.latencies.append(elapsed)
            if self.recording:
                self.kind_latencies[event.kind].append(elapsed)
            if position in self.checkpoints:
                problems, ratio = self._check(engine, *self.checkpoints[position])
                if problems:
                    phase.fail((phase.rounds, position), problems)
                elif ratio is not None:
                    phase.ratios.append(ratio)
        if self.recording:
            self.resolves += engine.resolves - resolves_before

    def _check(self, engine, active, preference, bound) -> tuple:
        session = engine.session
        if not np.array_equal(session.active, active):
            return ["the engine's active set differs from the trace's"], 0.0
        ids = np.nonzero(active)[0]
        assignment = session.configuration.assignment
        problems = reference.config_problems(assignment, NUM_ITEMS, NUM_SLOTS, users=ids)
        if problems:
            return problems, 0.0
        # The active subgroup's arrays, as the bound is built from them.
        sub_preference, edges, social, lam, _ = reference.bound_problem(
            self.instance, active, preference
        )
        recomputed = reference.utility(sub_preference, edges, social, lam, assignment[ids])
        reported = engine.current_utility()
        problems = reference.utility_problems(reported, recomputed)
        if bound is None:
            return problems, None
        return problems + reference.bound_problems(recomputed, bound, quarter=False), reported / bound

    def traced_metrics(self, tracer, phase: Phase) -> Dict[str, float]:
        return {
            "churn.join_ms": percentile_ms(self.kind_latencies["join"], 50),
            "churn.leave_ms": percentile_ms(self.kind_latencies["leave"], 50),
            "churn.drift_ms": percentile_ms(self.kind_latencies["drift"], 50),
            "churn.resolves": self.resolves / max(1, phase.rounds),
        }
