"""Maximin optimization over probability simplices.

Every objective the rate engine builds is a minimum of terms
I(X_A; Y | X_C) / d, where A and C together cover every participating input.
Each such term is concave in the input joint (it is the average over x_C of
a mutual information concave in p(x_A | x_C), i.e. a perspective of a
concave function), so the objective is concave too, but nonsmooth where two
terms tie.  The engine runs a multi-start coordinate pattern search (Hooke
& Jeeves 1961) on an exponential reparameterization: unconstrained
parameters map to the simplex through normalized exponentials.  Coordinate
moves can stall on a ridge where terms tie, which the restarts guard
against.  Restart k draws its start from the stream ``(seed,
STREAM_OPTIMIZER, salt, k)`` (restart 0 starts at the barycenter), which
makes the search deterministic for a fixed seed and monotone in the number
of restarts.

The restarts run in lockstep.  An objective maps a (rows, dim) array of
simplex points to their (rows,) values, and each round of the search hands
it the 2 * dim poll points of every restart still running in one call
(split only where the points would exceed ``BATCH_BYTES``).  Each restart
keeps its own parameters, step and iteration count, and picks its move by
the same sequential rule as a search run on its own, so its trajectory and
evaluation count do not depend on the other restarts.  An exhaustive simplex
grid, evaluated through the same batched objective, serves as the
independent oracle for small joints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import SchemaError, TooLarge
from .network import whole_number
from .seeds import STREAM_OPTIMIZER, check_seed, child_rng

#: Pattern search: initial step, step shrink factor, the step at which a
#: search has converged, and the iteration cap.
INIT_STEP = 0.5
SHRINK = 0.5
MIN_STEP = 1e-6
ITER_CAP = 10_000

#: Bytes of float64 cells one batched evaluation may hold at once: the
#: search sends at most this many bytes of simplex points per objective
#: call, and the rate engine's objective composes at most this many bytes
#: of joints at a time.  At the 4096-cell input cap one round of 16
#: restarts polls 131,072 points, which unsplit would take gigabytes.
BATCH_BYTES = 2 ** 20

#: An objective: a (rows, dim) array of simplex points to (rows,) values.
Objective = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the maximin search, surfaced as CLI flags."""

    restarts: int = 16
    certify_tol: float = 2e-3
    seed: int = 0
    grid_step: float | None = None

    def __post_init__(self):
        restarts = whole_number(self.restarts, "restarts")
        if restarts < 1:
            raise SchemaError(f"restarts must be >= 1, got {restarts}")
        object.__setattr__(self, "restarts", restarts)
        object.__setattr__(self, "seed", check_seed(self.seed))
        tol = self.certify_tol
        if (isinstance(tol, bool) or not isinstance(tol, (int, float))
                or not (math.isfinite(tol) and tol >= 0)):
            raise SchemaError(f"certify_tol must be a finite number >= 0, "
                              f"got {tol!r}")


@dataclass(frozen=True)
class SearchResult:
    point: np.ndarray          # simplex point (flat)
    value: float
    evals: int
    converged: bool


def softmax(theta: np.ndarray) -> np.ndarray:
    """Row-wise normalized exponentials of a (rows, dim) array."""
    z = np.exp(theta - theta.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def _rows_per_call(dim: int) -> int:
    return max(1, BATCH_BYTES // (8 * dim))


def _poll(objective: Objective, theta: np.ndarray, step: np.ndarray,
          active: np.ndarray) -> np.ndarray:
    """Objective values at the 2 * dim poll points of each active restart,
    shaped (active restarts, 2 * dim): point 2j + s of restart r moves
    coordinate j of ``theta[r]`` by +step[r] (s = 0) or -step[r] (s = 1)."""
    d = theta.shape[1]
    total = active.size * 2 * d
    values = np.empty(total)
    chunk = _rows_per_call(d)
    for lo in range(0, total, chunk):
        k = np.arange(lo, min(lo + chunk, total))
        r = active[k // (2 * d)]
        rows = theta[r]
        rows[np.arange(k.size), k % (2 * d) // 2] += np.where(
            k % 2 == 0, step[r], -step[r])
        values[lo:lo + k.size] = objective(softmax(rows))
    return values.reshape(active.size, 2 * d)


def _pattern_search(objective: Objective,
                    theta0: np.ndarray) -> list[SearchResult]:
    """Coordinate pattern search from each row of ``theta0`` (one restart
    per row), all restarts in lockstep: a round polls every active
    restart at once.  Restart r polls coordinates j = 0..dim-1, +step
    before -step, and moves to the first point that beats the best value
    seen so far by more than 1e-15; when none does, its step shrinks."""
    theta = np.array(theta0, dtype=np.float64)
    d = theta.shape[1]
    starts = softmax(theta)
    chunk = _rows_per_call(d)
    best = np.concatenate([objective(starts[i:i + chunk])
                           for i in range(0, len(starts), chunk)])
    evals = np.ones(len(theta), dtype=np.int64)
    step = np.full(len(theta), INIT_STEP)
    iters = np.zeros(len(theta), dtype=np.int64)
    while True:
        active = np.flatnonzero((step > MIN_STEP) & (iters < ITER_CAP))
        if active.size == 0:
            break
        iters[active] += 1
        evals[active] += 2 * d
        values = _poll(objective, theta, step, active)
        for r, row in zip(active.tolist(), values.tolist()):
            move = None
            move_val = best[r]
            for k, val in enumerate(row):
                if val > move_val + 1e-15:
                    move_val = val
                    move = k
            if move is None:
                step[r] *= SHRINK
            else:
                theta[r, move // 2] += step[r] if move % 2 == 0 else -step[r]
                best[r] = move_val
    points = softmax(theta)
    return [SearchResult(points[r], float(best[r]), int(evals[r]),
                         bool(step[r] <= MIN_STEP))
            for r in range(len(theta))]


def maximize_over_simplex(objective: Objective, dim: int,
                          opts: OptimizerOptions,
                          seed_salt: int = 0) -> SearchResult:
    """Multi-start maximization of ``objective`` over the dim-cell simplex.

    Restarts are independent; the merge keeps the best value, breaking ties
    by restart index.
    """
    if dim < 1:
        raise TooLarge("simplex dimension must be >= 1")
    if dim == 1:
        p = np.ones((1, 1))
        return SearchResult(p[0], float(objective(p)[0]), 1, True)
    theta0 = np.zeros((opts.restarts, dim))
    for k in range(1, opts.restarts):
        rng = child_rng(opts.seed, STREAM_OPTIMIZER, seed_salt, k)
        theta0[k] = rng.normal(0.0, 2.0, dim)
    results = _pattern_search(objective, theta0)
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


def maximize_on_grid(objective: Objective, dim: int,
                     step: float) -> SearchResult:
    """Exhaustive grid oracle; deterministic, first maximizer wins ties."""
    best_p: np.ndarray | None = None
    best_v = -np.inf
    evals = 0
    grid = iter(simplex_grid(dim, step))
    while points := list(itertools.islice(grid, _rows_per_call(dim))):
        for p, v in zip(points, objective(np.array(points)).tolist()):
            if v > best_v + 1e-15:
                best_v = v
                best_p = p
        evals += len(points)
    assert best_p is not None
    return SearchResult(best_p, best_v, evals, True)
