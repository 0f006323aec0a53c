"""Maximin optimization over probability simplices.

Every objective the rate engine builds is a minimum of terms
I(X_A; Y | X_C) / d, where A and C together cover every participating input.
Each such term is concave in the input joint (it is the average over x_C of
a mutual information concave in p(x_A | x_C), i.e. a perspective of a
concave function), so the objective is concave too, but nonsmooth where two
terms tie.  The engine runs a multi-start coordinate pattern search on an
exponential reparameterization: unconstrained parameters map to the simplex
through normalized exponentials.  Coordinate moves can stall on a ridge
where terms tie, which the restarts guard against.  Restart k draws its start
from the stream ``(seed, STREAM_OPTIMIZER, salt, k)`` (restart 0 starts at
the barycenter), which makes the search deterministic for a fixed seed and
monotone in the number of restarts.  An exhaustive simplex grid serves as
the independent oracle for small joints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import SchemaError, TooLarge
from .seeds import STREAM_OPTIMIZER, child_rng

#: Pattern search: initial step, step shrink factor, the step at which a
#: search has converged, and the iteration cap.
INIT_STEP = 0.5
SHRINK = 0.5
MIN_STEP = 1e-6
ITER_CAP = 10_000


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the maximin search, surfaced as CLI flags."""

    restarts: int = 16
    certify_tol: float = 2e-3
    seed: int = 0
    grid_step: float | None = None


@dataclass(frozen=True)
class SearchResult:
    point: np.ndarray          # simplex point (flat)
    value: float
    evals: int
    converged: bool


def softmax(theta: np.ndarray) -> np.ndarray:
    z = np.exp(theta - theta.max())
    return z / z.sum()


def _pattern_search(objective: Callable[[np.ndarray], float],
                    theta0: np.ndarray) -> SearchResult:
    theta = np.asarray(theta0, dtype=np.float64).copy()
    best = objective(softmax(theta))
    evals = 1
    step = INIT_STEP
    iters = 0
    d = theta.size
    while step > MIN_STEP and iters < ITER_CAP:
        iters += 1
        move = None
        move_val = best
        for j in range(d):
            for sign in (1.0, -1.0):
                cand = theta.copy()
                cand[j] += sign * step
                val = objective(softmax(cand))
                evals += 1
                if val > move_val + 1e-15:
                    move_val = val
                    move = cand
        if move is None:
            step *= SHRINK
        else:
            theta = move
            best = move_val
    converged = step <= MIN_STEP
    return SearchResult(softmax(theta), best, evals, converged)


def maximize_over_simplex(objective: Callable[[np.ndarray], float],
                          dim: int, opts: OptimizerOptions,
                          seed_salt: int = 0) -> SearchResult:
    """Multi-start maximization of ``objective`` over the dim-cell simplex.

    Restarts are independent; the merge keeps the best value, breaking ties
    by restart index.
    """
    if dim < 1:
        raise TooLarge("simplex dimension must be >= 1")
    if dim == 1:
        p = np.array([1.0])
        return SearchResult(p, objective(p), 1, True)

    def run(restart: int) -> SearchResult:
        if restart == 0:
            theta0 = np.zeros(dim)
        else:
            rng = child_rng(opts.seed, STREAM_OPTIMIZER, seed_salt, restart)
            theta0 = rng.normal(0.0, 2.0, dim)
        return _pattern_search(objective, theta0)

    results = [run(k) for k in range(max(1, opts.restarts))]
    best = results[0]
    for res in results[1:]:
        if res.value > best.value + 1e-15:
            best = res
    evals = sum(r.evals for r in results)
    return SearchResult(best.point, best.value, evals,
                        all(r.converged for r in results))


def simplex_grid(dim: int, step: float, cap: int = 2_000_000
                 ) -> Iterable[np.ndarray]:
    """All points of the dim-cell simplex with coordinates multiple of step."""
    if not 0.0 < step <= 1.0 or math.isinf(1.0 / step):
        raise SchemaError(f"grid step {step} is not a usable number in "
                          f"(0, 1]")
    levels = int(round(1.0 / step))
    count = math.comb(levels + dim - 1, dim - 1)
    if count > cap:
        raise TooLarge(f"grid would have {count} points (cap {cap})")

    point = np.zeros(dim, dtype=np.int64)

    def rec(axis: int, remaining: int):
        if axis == dim - 1:
            point[axis] = remaining
            yield point / levels
            return
        for k in range(remaining + 1):
            point[axis] = k
            yield from rec(axis + 1, remaining - k)

    yield from rec(0, levels)


def maximize_on_grid(objective: Callable[[np.ndarray], float], dim: int,
                     step: float) -> SearchResult:
    """Exhaustive grid oracle; deterministic, first maximizer wins ties."""
    best_p: np.ndarray | None = None
    best_v = -np.inf
    evals = 0
    for p in simplex_grid(dim, step):
        v = objective(p)
        evals += 1
        if v > best_v + 1e-15:
            best_v = v
            best_p = p.copy()
    assert best_p is not None
    return SearchResult(best_p, best_v, evals, True)
