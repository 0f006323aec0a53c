"""Certified maximin optimization over probability simplices.

Every objective the rate engine builds is a minimum of terms
f_i(p) = I(X_A; Y | X_C) / d_i, where A and C together cover every
participating input.  Each term is concave in the input joint p (the
average over x_C of a mutual information concave in p(x_A | x_C)), so the
objective is concave too, but nonsmooth where two terms tie.

Every term is also positively homogeneous of degree one in p (as a function
of the joint p(x) W(y|x)), so its gradient G_i at p satisfies
<G_i, p> = f_i(p): the linearization of f_i at p is q -> G_i q.  Two things
follow.

* **A certificate at every point.**  The Frank-Wolfe duality gap (Frank &
  Wolfe 1956; Jaggi 2013) of the maximin reads

      OPT <= max_q min_i G_i q = min_lambda max_x sum_i lambda_i G_i(x),

  the value of a small matrix game that ``certificate`` solves exactly by a
  dual simplex.  It is a proven upper value of the maximum, from any point.
* **A step that sees the ridge.**  The solver is an entropic prox-linear
  method (Drusvyatskiy & Paquette 2019): from p it moves to the maximizer
  q of the linearized maximin less KL(q || p) / step.  That subproblem
  keeps the minimum over terms, so iterates do not zigzag across a ridge
  where terms tie.  Its dual is a smooth problem over the term weights
  lambda, min log sum_x p(x) exp(step (lambda G)(x)), solved by pairwise
  weight moves (Platt 1998), and q is p tilted by exp(step lambda G).  A
  step is kept when the least term at q reaches the subproblem's value,
  the test of relative smoothness (Bauschke, Bolte & Teboulle 2017; Lu,
  Freund & Nesterov 2018); kept steps grow by ``GROW`` and failed ones
  shrink by ``SHRINK``, so the least term never falls along kept steps.

The solver is deterministic and reads no seed.  Its first point is the
barycenter.  It stops once the least upper value seen is within
``CERTIFY_GAP`` of the best value reached, or after ``ITER_CAP`` steps with
``converged`` false, and returns that best point.

An exhaustive simplex grid, evaluated through a batched objective of values
alone, serves as the independent oracle for small joints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import SchemaError, TooLarge, finite_number
from .seeds import child_rng  # noqa: F401  (a tracer patches it)

#: The solver stops once its upper value is within this of its best value.
CERTIFY_GAP = 1e-6

#: Prox-linear steps: the first step, its growth after a kept step and its
#: shrink after a failed one, and the cap on steps.
INIT_STEP = 1.0
GROW = 1.2
SHRINK = 0.5
ITER_CAP = 10_000

#: Pairwise weight moves per step, at most.
PAIR_MOVES = 30

#: Log-probabilities stay within this of the largest one, so that every
#: iterate keeps positive mass on every cell and its gradient is finite.
LOG_FLOOR = 200.0

#: Bytes of float64 cells one batched evaluation may hold at once: the grid
#: oracle sends at most this many bytes of simplex points per objective
#: call, and the rate engine's evaluator composes at most this many bytes
#: of joints at a time.
BATCH_BYTES = 2 ** 20

#: An objective: a (rows, dim) array of simplex points to (rows,) values.
Objective = Callable[[np.ndarray], np.ndarray]

#: Terms: a (rows, dim) array of simplex points to the (rows, terms) term
#: values and their (rows, terms, dim) gradients.
Terms = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs of the rate engine, surfaced as CLI flags.

    ``certify_tol``, a finite number >= 0, is the gap under which
    ``degraded_capacity`` calls a capacity certified; ``grid_step``, a
    step in (0, 1], swaps the solver for the exhaustive grid oracle.  Other
    values raise :class:`SchemaError` here, before any search.  The solver
    is deterministic, so there is no seed or restart count to set.
    """

    certify_tol: float = 2e-3
    grid_step: float | None = None

    def __post_init__(self):
        finite_number(self.certify_tol, "certify_tol", least=0.0)
        step = self.grid_step
        if step is not None and not (0.0 < finite_number(step, "grid_step")
                                     <= 1.0 and math.isfinite(1.0 / step)):
            raise SchemaError(f"grid_step {step!r} is not a usable number "
                              f"in (0, 1]")


@dataclass(frozen=True)
class SearchResult:
    point: np.ndarray          # simplex point (flat)
    value: float
    evals: int
    converged: bool
    upper: float = math.inf    # proven upper value of the maximum


def _rows_per_call(dim: int) -> int:
    return max(1, BATCH_BYTES // (8 * dim))


def _game_weights(grads: np.ndarray) -> np.ndarray:
    """Weights lambda on the rows of ``grads`` (m, n) that minimize
    max_x (lambda @ grads)[x].

    The column player's program, min sum w s.t. A w >= 1, w >= 0 with
    A = grads shifted to entries >= 1, is solved by a dual simplex on its
    (m + 1)-row tableau; lambda is its dual solution, normalized.  Any
    lambda gives a valid bound, so a cut-short run still returns one.
    """
    m, n = grads.shape
    if m == 1:
        return np.ones(1)
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = grads.min() - 1.0 - grads
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = -1.0
    tab[m, :n] = 1.0
    for _ in range(50 * (m + 1)):
        r = int(np.argmin(tab[:m, -1]))
        row = tab[r, :-1]
        entering = row < -1e-12
        if tab[r, -1] >= -1e-12 or not entering.any():
            break
        j = int(np.argmin(np.where(
            entering, tab[m, :-1] / np.where(entering, -row, 1.0), np.inf)))
        tab[r] /= tab[r, j]
        others = np.arange(m + 1) != r
        tab[others] -= np.outer(tab[others, j], tab[r])
    weights = np.maximum(tab[m, n:n + m], 0.0)
    total = weights.sum()
    return weights / total if total > 0 else np.full(m, 1.0 / m)


def certificate(grads: np.ndarray) -> float:
    """The upper value min_lambda max_x sum_i lambda_i grads[i, x] that the
    (terms, dim) gradients at any simplex point prove for the maximum of the
    least term; +inf when a gradient is infinite."""
    if not np.isfinite(grads).all():
        return math.inf
    return float((_game_weights(grads) @ grads).max())


def certify(terms: Terms, point: np.ndarray) -> float:
    """The upper value proven at ``point``, or, when it has empty cells
    (whose gradients can be infinite), at the point that mixes it with the
    barycenter in proportion 1e-30."""
    if not (point > 0.0).all():
        point = (1.0 - 1e-30) * point + 1e-30 / point.size
    return certificate(terms(point[None])[1][0])


def _tilt(log_p: np.ndarray, scaled: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """The point p exp(scaled), normalized: (log-probabilities, point)."""
    log_q = log_p + scaled
    log_q = np.maximum(log_q - log_q.max(), -LOG_FLOOR)
    q = np.exp(log_q)
    total = q.sum()
    return log_q - math.log(total), q / total


def _line_minimum(base: np.ndarray, move: np.ndarray, step: float,
                  limit: float) -> float:
    """The t in [0, limit] minimizing log sum exp(base + step t move).

    Its slope, the mean of ``move`` under the tilted point, rises with t
    and is negative at 0; Newton steps on it, kept inside a shrinking
    bracket, find its root."""
    def slope(t: float) -> tuple[float, float]:
        q = _tilt(base, step * t * move)[1]
        mean = float(q @ move)
        return mean, step * float(q @ (move - mean) ** 2)

    if slope(limit)[0] <= 0.0:
        return limit
    lo, hi, t = 0.0, limit, 0.0
    mean, curve = slope(t)
    for _ in range(60):
        t = t - mean / curve if curve > 0.0 else hi
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        mean, curve = slope(t)
        if mean < 0.0:
            lo = t
        else:
            hi = t
        if mean == 0.0 or hi - lo <= 1e-15 * limit:
            break
    return t


def _prox_weights(log_p: np.ndarray, grads: np.ndarray, step: float,
                  lam: np.ndarray) -> np.ndarray:
    """Term weights minimizing log sum_x p(x) exp(step (lambda grads)(x))
    over the term simplex, from ``lam``: each move shifts weight from the
    weighted term of largest mean gradient under the tilted point to the
    term of least, by the exact minimum along that line."""
    lam = lam.copy()
    base = log_p + step * (lam @ grads)
    for _ in range(PAIR_MOVES if len(lam) > 1 else 0):
        means = grads @ _tilt(base, 0.0)[1]
        held = np.flatnonzero(lam > 0.0)
        i = int(held[np.argmax(means[held])])
        j = int(np.argmin(means))
        if means[i] - means[j] <= 1e-13 * (1.0 + np.abs(means).max()):
            break
        move = grads[j] - grads[i]
        t = _line_minimum(base, move, step, float(lam[i]))
        lam[j] += t
        lam[i] = 0.0 if t >= lam[i] else lam[i] - t
        base = base + step * t * move
    return lam


def maximize_over_simplex(terms: Terms, dim: int) -> SearchResult:
    """Maximize the least term of ``terms`` over the dim-cell simplex.

    Returns the best point evaluated, its value, the number of points
    evaluated, whether the proven upper value came within ``CERTIFY_GAP``
    of that value, and that upper value.
    """
    if dim < 1:
        raise TooLarge("simplex dimension must be >= 1")
    p = np.full(dim, 1.0 / dim)
    log_p = np.log(p)
    values, grads = (a[0] for a in terms(p[None]))
    best = SearchResult(p, float(values.min()), 1, False,
                        certificate(grads))
    lam = np.full(len(values), 1.0 / len(values))
    step = INIT_STEP
    for _ in range(ITER_CAP if dim > 1 else 0):
        if best.upper - best.value <= CERTIFY_GAP:
            break
        lam = _prox_weights(log_p, grads, step, lam)
        log_q, q = _tilt(log_p, step * (lam @ grads))
        model = float((grads @ q).min() - q @ (log_q - log_p) / step)
        values_q, grads_q = (a[0] for a in terms(q[None]))
        best = _better(best, q, values_q, grads_q)
        if (values_q.min() >= model - 1e-15 * (1.0 + abs(model))
                and np.isfinite(grads_q).all()):
            log_p, grads = log_q, grads_q
            step *= GROW
        else:
            step *= SHRINK
    upper = max(best.upper, best.value)
    return SearchResult(best.point, best.value, best.evals,
                        upper - best.value <= CERTIFY_GAP, upper)


def _better(best: SearchResult, point: np.ndarray, values: np.ndarray,
            grads: np.ndarray) -> SearchResult:
    """``best`` after one more evaluated point: the higher value (ties keep
    the earlier point), the lower upper value, one more evaluation."""
    value = float(values.min())
    if value > best.value:
        best = SearchResult(point, value, best.evals, False, best.upper)
    return SearchResult(best.point, best.value, best.evals + 1, False,
                        min(best.upper, certificate(grads)))


def simplex_grid(dim: int, step: float, cap: int = 2_000_000
                 ) -> Iterable[np.ndarray]:
    """All points of the dim-cell simplex with coordinates multiple of
    ``step``, a step ``OptimizerOptions`` admits."""
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
    """Exhaustive grid oracle; deterministic, first maximizer wins ties.
    It proves no upper value: its ``upper`` is +inf."""
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
