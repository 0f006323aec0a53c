"""The benchmark's span tracer (``perfbench/spans.py``) patches relaycast's
layers by looking names up in module and class namespaces.  Pin that every
name it looks up is still bound and that it restores what it patched."""

import importlib.util
from pathlib import Path

import relaycast as rc
import relaycast.cli as cli
import relaycast.codebooks as codebooks
import relaycast.network as network
import relaycast.optimize as optimize
import relaycast.pmf as pmf
import relaycast.rates as rates
import relaycast.seeds as seeds
import relaycast.simulate as simulate
import relaycast.typicality as typicality
from relaycast.schedules import backward_decode_events

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

NAMESPACES = [rc, cli, codebooks, network, optimize, pmf, rates, seeds,
              simulate, typicality, pmf.JointPmf, network.NetworkSpec,
              codebooks.ChannelCodebookStack, typicality.TypicalityTest,
              simulate._ChannelSampler]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    spans = _load_spans()
    before = [dict(vars(ns)) for ns in NAMESPACES]
    tracer = spans.Tracer()
    with spans.installed(tracer, rc):
        assert rates.compose_joint is not before[NAMESPACES.index(rates)][
            "compose_joint"]
        rc.optimize_rate(rc.bundled_network("net-a"), [0, 1],
                         rc.OptimizerOptions(restarts=1))
    metrics = tracer.layer_metrics(0)
    assert metrics["rates.plans"] == 1
    # one restart on net-a's 2-cell simplex: 77 points, as a search run
    # point by point makes, polled in 20 batched calls (the start, then
    # one call per round of 4 poll points)
    assert metrics["optimize.evals"] == 77
    assert metrics["rates.objective_calls"] == 20
    for ns, saved in zip(NAMESPACES, before):
        now = vars(ns)
        assert set(now) == set(saved), ns
        assert all(now[name] is saved[name] for name in saved), ns


def test_tracer_counts_simulator_compositions():
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.installed(tracer, rc):
        rc.simulate_ptp(rc.bundled_network("net-a-noiseless"), m=4, n=8,
                        R=None, epsilon=1.0, trials=2, seed=0)
    assert tracer.layer_metrics(2)["network.compose_calls"] == 1


def test_tracer_counts_backward_gathers():
    """Every codeword cell the backward decoder reads is requested through
    ``rows`` or ``row``, sibling-slice gathers included: per trial, n cells
    per level and block sent, and per decode by terminal k, C_k candidate
    rows on each of its k candidate levels and one row on each deeper one."""
    spans = _load_spans()
    tracer = spans.Tracer()
    spec, n, B, trials = rc.bundled_network("net-c"), 6, 2, 3
    with spans.installed(tracer, rc):
        res = rc.simulate_backward(spec, m=4, n=n, B=B, epsilon=3.0,
                                   trials=trials, seed=0)
    C = {int(k): v for k, v in res.config["num_bins"].items()}
    levels = spec.K + 1
    cells = res.config["channel_blocks"] * levels * n + sum(
        k * C[k] * n + (levels - k) * n
        for k in (ev.terminal for ev in backward_decode_events(spec.K, B)))
    metrics = tracer.layer_metrics(trials)
    assert metrics["codebooks.cells_requested"] == trials * cells
