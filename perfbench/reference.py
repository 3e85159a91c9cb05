"""The benchmark's own reference computations and output checks.

Nothing here calls the program's evaluators or LP builders: the utility of a
configuration and the LP upper bound are recomputed from an instance's raw
``preference`` / ``edges`` / ``social`` arrays, so a fault in the program's
numeric core cannot hide behind a check that reuses it.

* :func:`utility` — the SAVG utility of Definition 3, one plain loop over
  display units and directed edges.
* :func:`lp_bound` — the optimum of the simplified LP relaxation of
  Section 4.4 over *every* item (no candidate pruning; the pruned program is
  no upper bound for configurations that use other items), solved with
  scipy's HiGHS ``linprog``.  On the Definition-3 scale, like
  ``AlgorithmResult.objective`` and ``FractionalSolution.objective``.
  Workloads solve their bounds through :func:`solve_bounds`, in a child
  process, before or after the measured operations.
* :func:`config_problems`, :func:`utility_problems` and
  :func:`bound_problems` — the per-output checks every workload applies;
  each returns a list of problems, empty when the output passes.
* :func:`self_test` — proves the checks on known answers before a run: the
  paper's running example, agreement with the program's unpruned LP, and
  deliberately corrupted outputs that must be rejected.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

#: Relative tolerance between a reported utility and the recomputed one.
UTILITY_RTOL = 1e-9
#: Relative slack allowed above the LP bound (HiGHS feasibility tolerance).
BOUND_RTOL = 1e-7


def utility(preference, edges, social, social_weight: float, assignment) -> float:
    """Definition-3 utility of ``assignment`` (negative entries are empty units).

    ``(1 - lambda) * sum p(u, c)`` over assigned display units plus
    ``lambda * sum tau(u, v, c)`` over directed edges whose endpoints show
    the same item ``c`` at the same slot.
    """
    rows = np.asarray(assignment).tolist()
    pref = np.asarray(preference)
    tau = np.asarray(social)
    preference_sum = 0.0
    for user, row in enumerate(rows):
        for item in row:
            if item >= 0:
                preference_sum += float(pref[user, item])
    social_sum = 0.0
    for edge, (u, v) in enumerate(np.asarray(edges).tolist()):
        for slot, item in enumerate(rows[u]):
            if item >= 0 and rows[v][slot] == item:
                social_sum += float(tau[edge, item])
    return (1.0 - social_weight) * preference_sum + social_weight * social_sum


def lp_bound(preference, edges, social, social_weight: float, num_slots: int) -> float:
    """Optimum of the unpruned simplified LP relaxation (Section 4.4).

    Variables ``x[u, c]`` in ``[0, 1]`` with ``sum_c x[u, c] = k`` and, for
    every friend pair ``e = {u, v}`` and item ``c`` with pair weight
    ``w = tau(u, v, c) + tau(v, u, c) > 0``, ``y[e, c] <= x[u, c]`` and
    ``y[e, c] <= x[v, c]``.  The objective is
    ``(1 - lambda) * sum p x + lambda * sum w y``.
    """
    pref = np.asarray(preference, dtype=float)
    tau = np.asarray(social, dtype=float)
    n, m = pref.shape
    pair_rows: Dict[tuple, int] = {}
    pair_weight: List[np.ndarray] = []
    for edge, (u, v) in enumerate(np.asarray(edges).tolist()):
        key = (min(u, v), max(u, v))
        if key not in pair_rows:
            pair_rows[key] = len(pair_weight)
            pair_weight.append(np.zeros(m))
        pair_weight[pair_rows[key]] += tau[edge]
    pairs = np.array(list(pair_rows), dtype=np.int64).reshape(-1, 2)
    weights = np.array(pair_weight).reshape(-1, m)
    pair_ids, items = np.nonzero(weights > 0)

    num_x, num_y = n * m, pair_ids.size
    cost = -np.concatenate(
        [(1.0 - social_weight) * pref.ravel(), social_weight * weights[pair_ids, items]]
    )
    a_eq = sparse.csr_matrix(
        (np.ones(num_x), (np.repeat(np.arange(n), m), np.arange(num_x))),
        shape=(n, num_x + num_y),
    )
    y_cols = num_x + np.arange(num_y)
    rows = np.arange(2 * num_y)
    a_ub = sparse.csr_matrix(
        (
            np.concatenate([np.ones(2 * num_y), -np.ones(2 * num_y)]),
            (
                np.concatenate([rows, rows]),
                np.concatenate(
                    [y_cols, y_cols, pairs[pair_ids, 0] * m + items, pairs[pair_ids, 1] * m + items]
                ),
            ),
        ),
        shape=(2 * num_y, num_x + num_y),
    )
    bounds = [(0.0, 1.0)] * num_x + [(0.0, None)] * num_y
    result = linprog(
        cost,
        A_ub=a_ub if num_y else None,
        b_ub=np.zeros(2 * num_y) if num_y else None,
        A_eq=a_eq,
        b_eq=np.full(n, float(num_slots)),
        bounds=bounds,
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"reference LP did not solve: {result.message}")
    return float(-result.fun)


def bound_problem(instance, active: Optional[np.ndarray] = None, preference=None) -> Tuple:
    """:func:`lp_bound` arguments for an instance, or for its ``active`` users only.

    ``preference`` replaces the instance's table (churn drift).  Only the raw
    arrays and scalars of the instance are read.
    """
    pref = np.asarray(instance.preference if preference is None else preference)
    edges = np.asarray(instance.edges)
    social = np.asarray(instance.social)
    if active is not None:
        ids = np.nonzero(active)[0]
        new_id = np.full(pref.shape[0], -1, dtype=np.int64)
        new_id[ids] = np.arange(ids.size)
        keep = (new_id[edges[:, 0]] >= 0) & (new_id[edges[:, 1]] >= 0)
        pref, edges, social = pref[ids], new_id[edges[keep]], social[keep]
    return pref, edges, social, float(instance.social_weight), int(instance.num_slots)


def solve_bounds(problems: Sequence[Tuple]) -> List[float]:
    """:func:`lp_bound` of each problem, solved in one child process.

    HiGHS keeps tens of megabytes per solve that the allocator does not hand
    back; solving the benchmark's own bounds in a child keeps them out of the
    workload's peak resident set.  The child is a plain interpreter running
    this file (problems in, bounds out, pickled over its standard streams);
    it starts no process of its own, and it has ended when this returns.
    """
    if not problems:
        return []
    done = subprocess.run(
        [sys.executable, __file__, "--solve-bounds"],
        input=pickle.dumps(list(problems)),
        capture_output=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"bound solver exited {done.returncode}: {done.stderr.decode()[-2000:]}")
    return pickle.loads(done.stdout)


def config_problems(assignment, num_items: int, num_slots: int, users: Optional[Sequence[int]] = None) -> List[str]:
    """Feasibility: every listed user (default all) shows k distinct in-range items."""
    rows = np.asarray(assignment)
    problems: List[str] = []
    if rows.ndim != 2 or rows.shape[1] != num_slots:
        return [f"assignment has shape {rows.shape}, expected (n, {num_slots})"]
    for user in range(rows.shape[0]) if users is None else users:
        row = rows[int(user)].tolist()
        if any(not 0 <= item < num_items for item in row):
            problems.append(f"user {user}: item outside [0, {num_items}) in {row}")
        elif len(set(row)) != num_slots:
            problems.append(f"user {user}: duplicated item in {row}")
    return problems


def utility_problems(reported: float, recomputed: float) -> List[str]:
    """The reported utility equals the benchmark's recompute."""
    if abs(reported - recomputed) > UTILITY_RTOL * max(1.0, abs(recomputed)):
        return [f"reported utility {reported!r} != recomputed {recomputed!r}"]
    return []


def bound_problems(value: float, bound: float, *, quarter: bool) -> List[str]:
    """``value`` stays under the LP bound and, for AVG-D (``quarter=True``),
    reaches a quarter of it."""
    problems: List[str] = []
    if value > bound * (1.0 + BOUND_RTOL) + 1e-9:
        problems.append(f"utility {value!r} exceeds the LP bound {bound!r}")
    if quarter and value < 0.25 * bound:
        problems.append(f"AVG-D utility {value!r} is below a quarter of the LP bound {bound!r}")
    return problems


def self_test(seed: int) -> List[str]:
    """Check the reference computations against known answers; returns failures."""
    from repro.core.lp import solve_lp_relaxation
    from repro.data import datasets, example_paper as paper

    failures: List[str] = []
    example = paper.paper_example_instance()
    expected = {
        "optimal_configuration": 10.35,
        "avg_d_example_configuration": 9.85,
        "avg_example_configuration": 9.75,
        "personalized_configuration": 8.25,
        "group_configuration": 8.35,
        "subgroup_by_friendship_configuration": 8.4,
        "subgroup_by_preference_configuration": 8.7,
    }
    lam = example.social_weight
    for name, scaled in expected.items():
        config = getattr(paper, name)(example)
        value = utility(example.preference, example.edges, example.social, lam, config.assignment)
        if abs(value / lam - scaled) > 1e-9:
            failures.append(f"paper example {name}: scaled utility {value / lam!r}, expected {scaled}")

    small = datasets.make_instance("timik", num_users=12, num_items=20, num_slots=3, seed=seed)
    for instance in (example, small):
        ours = lp_bound(*bound_problem(instance))
        theirs = solve_lp_relaxation(instance, prune_items=False).objective
        if abs(ours - theirs) > 1e-6 * max(1.0, abs(theirs)):
            failures.append(f"LP bound {ours!r} disagrees with the unpruned relaxation {theirs!r}")

    # Corrupted outputs must be rejected.
    config = paper.avg_d_example_configuration(example).assignment.copy()
    bound = lp_bound(*bound_problem(example))
    value = utility(example.preference, example.edges, example.social, lam, config)
    if config_problems(config, example.num_items, example.num_slots) or bound_problems(
        value, bound, quarter=True
    ):
        failures.append("the paper's AVG-D configuration fails the checks")
    duplicated = config.copy()
    duplicated[0, 1] = duplicated[0, 0]
    if not config_problems(duplicated, example.num_items, example.num_slots):
        failures.append("a duplicated item passed the feasibility check")
    out_of_range = config.copy()
    out_of_range[1, 2] = example.num_items
    if not config_problems(out_of_range, example.num_items, example.num_slots):
        failures.append("an out-of-range item passed the feasibility check")
    if not utility_problems(value * (1 + 1e-6), value):
        failures.append("a wrong reported utility passed the utility check")
    if not bound_problems(1.01 * bound, bound, quarter=False):
        failures.append("a utility above the LP bound passed the bound check")
    if not bound_problems(0.2 * bound, bound, quarter=True):
        failures.append("an AVG-D utility below a quarter of the bound passed")
    return failures


if __name__ == "__main__" and sys.argv[1:] == ["--solve-bounds"]:
    problems = pickle.loads(sys.stdin.buffer.read())
    sys.stdout.buffer.write(pickle.dumps([lp_bound(*problem) for problem in problems]))
