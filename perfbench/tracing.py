"""Outside-in tracing: wrappers on the program's layer entry points.

The program has no spans of its own yet, so the traced run wraps the public
entry points of each layer from the outside.  Each wrapper replaces the
attribute its callers look up at call time: a method on its class, or a
module-level name in *every* ``repro`` module that imported the function
(``from repro.core.lp import solve_lp_relaxation`` binds a copy per module),
plus algorithm-registry entries whose runner is the function.  Everything
is restored by :meth:`Tracer.uninstall`.

A span records its name, thread, start, end and parent span; spans stay in
memory and are written out once, at the end.  A layer's self time is its
span's duration minus the time of the spans it directly contains.  Hot leaf
entry points (the objective engine's per-cell probes) are only counted and
timed, never recorded one by one, so a run with hundreds of thousands of
probes keeps a bounded span list.  Wrapped entry points must not call
themselves recursively: a nested span of the same name would be counted
twice in its layer's busy time.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Extra counts taken from a call: ``counter(args, result) -> {suffix: amount}``.
Counter = Callable[[tuple, Any], Dict[str, float]]


class Tracer:
    """Installs span wrappers and aggregates calls, busy and self time per name."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, int, float, float]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._threads: List[Dict[str, List[float]]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore: List[Callable[[], None]] = []
        self._lock = threading.Lock()

    # -- per-thread state ------------------------------------------------ #
    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.totals
        except AttributeError:
            local.stack = []
            local.totals = defaultdict(lambda: [0, 0.0, 0.0])
            with self._lock:
                self._threads.append(local.totals)
            return local.stack, local.totals

    def _count(self, name: str, counter: Optional[Counter], args: tuple, result: Any) -> None:
        if counter is None:
            return
        with self._lock:
            for suffix, amount in counter(args, result).items():
                self.counters[f"{name}.{suffix}"] += amount

    # -- wrappers --------------------------------------------------------- #
    def span(self, fn: Callable, name: str, counter: Optional[Counter] = None) -> Callable:
        """``fn`` wrapped in a recorded span named ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            stack, totals = tracer._thread_state()
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent = 0
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                entry = totals[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                tracer.spans.append(
                    (frame[0], parent, name, threading.get_ident(), start, end)
                )
            tracer._count(name, counter, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def leaf(self, fn: Callable, name: str) -> Callable:
        """``fn`` counted and timed without a span record (hot entry points)."""
        tracer = self

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack, totals = tracer._thread_state()
                if stack:
                    stack[-1][1] += duration
                entry = totals[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration

        timed.__wrapped__ = fn
        return timed

    # -- installation ----------------------------------------------------- #
    def wrap_method(self, cls: type, attr: str, name: str, *, counter: Optional[Counter] = None, leaf: bool = False) -> None:
        """Replace ``cls.attr`` (looked up on the class at every call)."""
        original = cls.__dict__[attr]
        wrapped = self.leaf(original, name) if leaf else self.span(original, name, counter)
        setattr(cls, attr, wrapped)
        self._restore.append(lambda: setattr(cls, attr, original))

    def wrap_function(self, module: str, attr: str, name: str, *, counter: Optional[Counter] = None) -> None:
        """Replace ``module.attr`` and every other binding of the same object.

        Scans the loaded ``repro`` modules for names bound to the function,
        and the algorithm registry for specs whose runner it is.
        """
        original = getattr(sys.modules[module], attr)
        wrapped = self.span(original, name, counter)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append(lambda mod=mod, key=key: setattr(mod, key, original))
        registry = sys.modules.get("repro.core.registry")
        specs = getattr(registry, "_REGISTRY", {})
        for key, spec in list(specs.items()):
            if spec.runner is original:
                specs[key] = replace(spec, runner=wrapped)
                self._restore.append(lambda key=key, spec=spec: specs.__setitem__(key, spec))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results ---------------------------------------------------------- #
    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, busy seconds, self seconds)`` over every thread."""
        merged: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            threads = list(self._threads)
        for per_thread in threads:
            for name, (calls, busy, own) in list(per_thread.items()):
                entry = merged[name]
                entry[0] += calls
                entry[1] += busy
                entry[2] += own
        return {name: tuple(entry) for name, entry in merged.items()}

    def children_time(self, parent_ids: set, name: str) -> Dict[int, float]:
        """Total duration of ``name`` spans directly under each of ``parent_ids``."""
        out: Dict[int, float] = defaultdict(float)
        for _span_id, parent, span_name, _thread, start, end in self.spans:
            if span_name == name and parent in parent_ids:
                out[parent] += end - start
        return out

    def write(self, path: Path, meta: Dict[str, Any]) -> None:
        """Write every recorded span plus the aggregates as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "meta": meta,
            "fields": ["id", "parent", "name", "thread", "start", "end"],
            "spans": self.spans,
            "totals": {name: list(values) for name, values in sorted(self.totals().items())},
            "counters": dict(sorted(self.counters.items())),
        }
        path.write_text(json.dumps(document))


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics are built from."""
    from repro.core.objective import DeltaEvaluator
    from repro.core.pipeline import LocalSearchImprover
    from repro.extensions.churn import ChurnEngine
    from repro.extensions.dynamic import DynamicSession
    from repro.serving.service import SolverService
    from repro.store import ArtifactStore

    # serving: the batcher thread's per-batch cycle and per-request decode.
    tracer.wrap_method(SolverService, "_process_batch", "serving.batch")
    tracer.wrap_function("repro.serving.service", "_decode_in_worker", "serving.decode")
    # store
    tracer.wrap_method(
        ArtifactStore, "load_lp", "store.load_lp",
        counter=lambda args, result: {"hits": float(result is not None)},
    )
    tracer.wrap_method(ArtifactStore, "save_lp", "store.save_lp")
    tracer.wrap_method(ArtifactStore, "save_job", "store.save_job")
    # core.lp (one solve or one stacked batch) and the HiGHS call under it
    tracer.wrap_function(
        "repro.core.lp", "solve_lp_relaxation", "lp",
        counter=lambda args, result: {"instances": 1.0},
    )
    tracer.wrap_function(
        "repro.core.lp", "solve_lp_relaxations_stacked", "lp",
        counter=lambda args, result: {"instances": float(len(args[0]))},
    )
    tracer.wrap_function("repro.solvers.linprog", "linprog", "lp.highs")
    # core.avg_d
    tracer.wrap_function("repro.core.avg_d", "run_avg_d", "avg_d")
    # core.pipeline
    tracer.wrap_function("repro.core.registry", "apply_stages", "pipeline.stages")
    tracer.wrap_method(
        LocalSearchImprover, "apply", "pipeline.local_search",
        counter=lambda args, result: {"moves": float(result.info.get("moves", 0))},
    )
    # core.objective (hot: counted, not recorded)
    for attr in ("probe_many", "set_cell", "direct_gains"):
        tracer.wrap_method(DeltaEvaluator, attr, f"objective.{attr}", leaf=True)
    # experiments and data
    tracer.wrap_function("repro.experiments.executor", "run_job", "experiments.job")
    tracer.wrap_function("repro.experiments.executor", "evaluate_result", "experiments.evaluate")
    tracer.wrap_function("repro.data.datasets", "make_instance", "data.make_instance")
    # extensions (churn)
    tracer.wrap_method(ChurnEngine, "apply_event", "churn.event")
    tracer.wrap_method(
        DynamicSession, "apply_improver", "churn.repair",
        counter=lambda args, result: {"moves": float(result.get("moves", 0))},
    )
