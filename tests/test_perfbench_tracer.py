"""The benchmark's span tracer (``perfbench/spans.py``) patches relaycast's
layers by looking names up in module and class namespaces.  Pin that every
name it looks up is still bound and that it restores what it patched."""

import importlib.util
from pathlib import Path

import numpy as np

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
from relaycast.network import input_label, output_label
from relaycast.schedules import backward_decode_events

from conftest import candidate_rows, stage_screen

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


def test_tracer_counts_backward_gathers(monkeypatch):
    """Every codeword cell the backward decoder reads is requested through
    ``rows`` or ``row``: per trial, n cells per level and block sent, and
    per decode by terminal k, C_k rows on its top candidate level, one row
    on each deeper level, and n cells on each lower candidate level per
    candidate still in, counted here by an independent screen."""
    spans = _load_spans()
    tracer = spans.Tracer()
    spec, n, B, trials, epsilon = rc.bundled_network("net-c"), 6, 2, 3, 3.0
    chunk, window = simulate._Engine.chunk, simulate._Engine.window
    starts, calls = [], []

    def chunk_spy(engine, trials):
        starts.append(trials.start)
        return chunk(engine, trials)

    def spy(engine, position, block, first, lead, codeword, own, at, fixed):
        calls.append((engine, position, [starts[-1] + k for k in at.tolist()],
                      block, first, lead, own[at].copy(), fixed.copy()))
        return window(engine, position, block, first, lead, codeword, own,
                      at, fixed)
    monkeypatch.setattr(simulate._Engine, "chunk", chunk_spy)
    monkeypatch.setattr(simulate._Engine, "window", spy)
    with spans.installed(tracer, rc):
        res = rc.simulate_backward(spec, m=4, n=n, B=B, epsilon=epsilon,
                                   trials=trials, seed=0)
    C = {int(k): v for k, v in res.config["num_bins"].items()}
    levels = spec.K + 1
    cells = trials * res.config["channel_blocks"] * levels * n + trials * sum(
        C[k] * n + (levels - k) * n
        for k in (ev.terminal for ev in backward_decode_events(spec.K, B)))
    # the candidates each lower level is read for: those that pass every
    # screen on the levels above it
    survivors = 0
    labels = tuple(input_label(t) for t in range(levels))
    for engine, position, keys, block, first, lead, own, fixed in calls:
        test = typicality.TypicalityTest(
            network.compose_joint(spec.extend_input(None, labels),
                                  spec.channel),
            labels[first:] + (output_label(engine.order[position]),), n,
            epsilon, lead)
        for trial, mine, row in zip(keys, own, fixed):
            rows = candidate_rows(engine, trial, block, first, lead, mine)
            still = np.ones(rows[0].shape[0], dtype=bool)
            for dropped in range(lead - 1, 0, -1):
                still &= stage_screen(test, rows, row, dropped)
                survivors += int(still.sum())
    assert survivors > 0
    metrics = tracer.layer_metrics(trials)
    assert metrics["codebooks.cells_requested"] == cells + survivors * n
