"""The certified maximin solver and its certificate.

The solver maximizes the least of several information terms over a simplex
and proves an upper value of that maximum at every point it evaluates.  The
tests below check the proof against independent evaluations (every grid
point and every sampled game strategy must respect it), the stopping rule,
and that the solver is deterministic and starts at the barycenter.
"""

import numpy as np
import pytest

import relaycast as rc
import relaycast.optimize as optimize
import relaycast.rates as rates
from relaycast.optimize import OptimizerOptions, SearchResult
from relaycast.pmf import InformationKernel


def information_terms(dim, outputs, seed):
    """Terms I(X; Y_i) / d_i of one input X with ``dim`` symbols and
    independent Dirichlet-random channels to ternary outputs Y_1..Y_outputs,
    as the solver takes them: (rows, dim) points to (rows, terms) values
    and (rows, terms, dim) gradients, from the information kernel."""
    rng = np.random.default_rng(seed)
    law = np.ones((dim,) + (1,) * outputs)
    for i in range(outputs):
        shape = [dim] + [1] * outputs
        shape[1 + i] = 3
        law = law * rng.dirichlet(np.ones(3), size=dim).reshape(shape)
    labels = ("X",) + tuple(f"Y{i}" for i in range(outputs))
    layout = rc.JointPmf(labels, law.shape, law / law.sum())
    kernel = InformationKernel(law.shape, [
        layout.information_axes(["X"], [label]) for label in labels[1:]])
    dens = rng.uniform(0.5, 1.5, outputs)

    def terms(points):
        joint = law * points.reshape((len(points), dim) + (1,) * outputs)
        values, grads = kernel.with_gradient(joint, law, 1)
        return values / dens, grads / dens[:, None]
    return terms


def assert_same(got, want):
    assert got.point.tolist() == want.point.tolist()
    assert got.value == want.value
    assert got.evals == want.evals
    assert got.converged == want.converged


def least(terms):
    """The values-only objective of ``terms``: the least term per point."""
    return lambda points: terms(points)[0].min(axis=1)


@pytest.mark.parametrize("dim,outputs", [(2, 1), (3, 2), (4, 2), (5, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_certified_maximum_brackets_the_grid(dim, outputs, seed):
    terms = information_terms(dim, outputs, seed)
    got = optimize.maximize_over_simplex(terms, dim)
    assert got.converged
    assert got.value <= got.upper <= got.value + optimize.CERTIFY_GAP
    assert got.value == float(least(terms)(got.point[None])[0])
    # the upper value is proven: no grid point may exceed it
    grid = optimize.maximize_on_grid(least(terms), dim, 0.05)
    assert grid.value <= got.upper + 1e-12
    assert got.value >= grid.value - optimize.CERTIFY_GAP


def test_deterministic():
    terms = information_terms(4, 2, seed=7)
    a = optimize.maximize_over_simplex(terms, 4)
    b = optimize.maximize_over_simplex(terms, 4)
    assert_same(a, b)
    assert a.upper == b.upper


def test_barycenter_optimum_stops_at_the_first_point():
    # a symmetric channel: the barycenter is optimal and proven so there
    dim = 3
    law = np.full((dim, dim), 0.1) + 0.7 * np.eye(dim)
    kernel = InformationKernel(law.shape, [[(1,), (0,), ()]])

    def terms(points):
        return kernel.with_gradient(law * points[:, :, None], law, 1)
    got = optimize.maximize_over_simplex(terms, dim)
    assert got.evals == 1 and got.converged
    assert got.point.tolist() == [1.0 / dim] * dim
    assert got.upper - got.value <= 1e-15


def test_iteration_cap_reports_not_converged(monkeypatch):
    monkeypatch.setattr(optimize, "ITER_CAP", 2)
    terms = information_terms(5, 3, seed=1)
    got = optimize.maximize_over_simplex(terms, 5)
    assert got.evals == 3
    assert not got.converged
    assert got.upper - got.value > optimize.CERTIFY_GAP


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_certificate_is_the_value_of_the_game(m):
    # min over term weights of max over cells, against sampled strategies
    # of both players: every column mix q proves the value is at least
    # min_i (G q)_i, and every weight vector at most max_x (lambda G)(x)
    rng = np.random.default_rng(m)
    for n in (1, 3, 9, 60):
        grads = rng.normal(size=(m, n))
        value = optimize.certificate(grads)
        mixes = rng.dirichlet(np.ones(n), 20_000)
        weights = rng.dirichlet(np.ones(m), 20_000)
        assert (mixes @ grads.T).min(axis=1).max() <= value + 1e-12
        assert value <= (weights @ grads).max(axis=1).min() + 1e-12
    assert optimize.certificate(np.array([[1.0, np.inf]])) == np.inf


def test_certify_handles_empty_cells():
    # at a point mass, the cells without mass still bound the maximum
    terms = information_terms(3, 2, seed=4)
    upper = optimize.certify(terms, np.array([0.0, 1.0, 0.0]))
    grid = optimize.maximize_on_grid(least(terms), 3, 0.05)
    assert grid.value <= upper + 1e-12 < np.inf


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
    ("certify_tol", float("nan")), ("certify_tol", -1.0),
    ("certify_tol", float("inf")), ("certify_tol", "0.1"),
    ("grid_step", "0.1"), ("grid_step", -1.0),
    ("grid_step", 0.0), ("grid_step", 1.5), ("grid_step", float("nan")),
    ("grid_step", 1e-320), ("grid_step", True),
])
def test_options_reject_values_that_make_no_sense(field, value):
    with pytest.raises(rc.SchemaError):
        OptimizerOptions(**{field: value})
