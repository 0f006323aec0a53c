"""The lockstep pattern search against a search run one restart and one
point at a time.

``reference_search`` below is the single-restart coordinate pattern search
written point by point; ``reference_maximize`` runs it once per restart
from the same starting points and merges the results.  Running all restarts
in lockstep with batched objective calls must give the same point, value,
evaluation count and convergence flag, compared with ``==``.
"""

import numpy as np
import pytest

import relaycast as rc
import relaycast.optimize as optimize
import relaycast.rates as rates
from relaycast.optimize import OptimizerOptions, SearchResult
from relaycast.seeds import STREAM_OPTIMIZER, child_rng


def softmax_1d(theta):
    z = np.exp(theta - theta.max())
    return z / z.sum()


def reference_search(objective, theta0):
    """One restart, one objective call per point."""
    theta = np.asarray(theta0, dtype=np.float64).copy()
    best = objective(softmax_1d(theta))
    evals = 1
    step = optimize.INIT_STEP
    iters = 0
    d = theta.size
    while step > optimize.MIN_STEP and iters < optimize.ITER_CAP:
        iters += 1
        move = None
        move_val = best
        for j in range(d):
            for sign in (1.0, -1.0):
                cand = theta.copy()
                cand[j] += sign * step
                val = objective(softmax_1d(cand))
                evals += 1
                if val > move_val + 1e-15:
                    move_val = val
                    move = cand
        if move is None:
            step *= optimize.SHRINK
        else:
            theta = move
            best = move_val
    converged = step <= optimize.MIN_STEP
    return SearchResult(softmax_1d(theta), best, evals, converged)


def reference_runs(batched, dim, opts, salt):
    """Every restart run on its own, restart 0 from the barycenter."""
    def objective(p):
        return float(batched(p[None])[0])

    runs = []
    for k in range(opts.restarts):
        theta0 = np.zeros(dim) if k == 0 else child_rng(
            opts.seed, STREAM_OPTIMIZER, salt, k).normal(0.0, 2.0, dim)
        runs.append(reference_search(objective, theta0))
    return runs


def reference_maximize(batched, dim, opts, salt=0):
    if dim == 1:
        p = np.array([1.0])
        return SearchResult(p, float(batched(p[None])[0]), 1, True)
    runs = reference_runs(batched, dim, opts, salt)
    best = runs[0]
    for res in runs[1:]:
        if res.value > best.value + 1e-15:
            best = res
    return SearchResult(best.point, best.value, sum(r.evals for r in runs),
                        all(r.converged for r in runs))


def toy_maximin(dim, seed=0):
    """A concave maximin of (rows, dim) points: the least of four linear
    forms, less a quadratic.  Every sum runs along the last axis of a
    C-contiguous array, which numpy sums row by row in the order of a row
    alone (``test_pmf.py`` pins this), so a row's value does not depend on
    the rows evaluated with it."""
    rng = np.random.default_rng(seed)
    forms = rng.random((4, dim))

    def objective(points):
        least = (points[:, None, :] * forms).sum(axis=2).min(axis=1)
        return least - 0.3 * (points * points).sum(axis=1)
    return objective


def barycenter_peak(dim):
    """Maximal at the barycenter, where restart 0 starts."""
    def objective(points):
        return -((points - 1.0 / dim) ** 2).sum(axis=1)
    return objective


def assert_same(got, want):
    assert got.point.tolist() == want.point.tolist()
    assert got.value == want.value
    assert got.evals == want.evals
    assert got.converged == want.converged


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
@pytest.mark.parametrize("restarts", [1, 3, 16])
def test_lockstep_equals_one_restart_at_a_time(dim, restarts):
    objective = toy_maximin(dim, seed=dim)
    opts = OptimizerOptions(restarts=restarts, seed=3)
    got = optimize.maximize_over_simplex(objective, dim, opts, seed_salt=7)
    assert_same(got, reference_maximize(objective, dim, opts, salt=7))


def test_iteration_cap_stops_restarts_at_different_rounds(monkeypatch):
    dim = 5
    monkeypatch.setattr(optimize, "ITER_CAP", 59)
    objective = toy_maximin(dim, seed=1)
    opts = OptimizerOptions(restarts=6, seed=0)
    runs = reference_runs(objective, dim, opts, 0)
    # some restarts converge within the cap and others hit it
    assert {r.converged for r in runs} == {True, False}
    got = optimize.maximize_over_simplex(objective, dim, opts)
    assert_same(got, reference_maximize(objective, dim, opts))


def test_restart_zero_converging_first():
    dim = 4
    objective = barycenter_peak(dim)
    opts = OptimizerOptions(restarts=5, seed=1)
    runs = reference_runs(objective, dim, opts, 0)
    assert runs[0].evals < min(r.evals for r in runs[1:])
    got = optimize.maximize_over_simplex(objective, dim, opts)
    assert_same(got, reference_maximize(objective, dim, opts))


def test_batch_cap_splits_rounds_without_changing_the_search(monkeypatch):
    dim = 5
    objective = toy_maximin(dim, seed=2)
    opts = OptimizerOptions(restarts=3, seed=4)
    want = reference_maximize(objective, dim, opts)
    sizes = []

    def recording(points):
        sizes.append(len(points))
        return objective(points)
    monkeypatch.setattr(optimize, "BATCH_BYTES", 3 * 8 * dim)
    assert_same(optimize.maximize_over_simplex(recording, dim, opts), want)
    assert max(sizes) == 3


def test_grid_equals_per_point_scan(net_b, monkeypatch):
    # capture the objective the rate engine hands the grid oracle, then
    # scan the same grid one point at a time, first maximizer winning
    seen = []

    def capturing(objective, dim, step):
        seen.append((objective, dim, step))
        return optimize.maximize_on_grid(objective, dim, step)
    monkeypatch.setattr(rates, "maximize_on_grid", capturing)
    rc.optimize_rate(net_b, [0, 1, 2], OptimizerOptions(grid_step=0.05))
    (objective, dim, step), = seen
    best_p, best_v, evals = None, -np.inf, 0
    for p in optimize.simplex_grid(dim, step):
        v = float(objective(p[None])[0])
        evals += 1
        if v > best_v + 1e-15:
            best_p, best_v = p.copy(), v
    got = optimize.maximize_on_grid(objective, dim, step)
    assert_same(got, SearchResult(best_p, best_v, evals, True))
    assert evals == 1771


@pytest.mark.parametrize("field,value", [
    ("restarts", 0), ("restarts", -3), ("restarts", 2.5), ("restarts", True),
    ("seed", -1), ("seed", 1.5), ("seed", None),
    ("certify_tol", float("nan")), ("certify_tol", -1.0),
    ("certify_tol", float("inf")), ("certify_tol", "0.1"),
])
def test_options_reject_values_that_make_no_sense(field, value):
    with pytest.raises(rc.SchemaError):
        OptimizerOptions(**{field: value})

