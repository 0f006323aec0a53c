"""Protocol simulators: determinism, reductions, exactness, thresholds."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import relaycast as rc
from relaycast import codebooks, network, simulate
from relaycast.errors import (
    BTooSmall,
    DegenerateTypicalSet,
    PlanMismatch,
    SchemaError,
    TooLarge,
    UnsupportedK,
)
from relaycast.network import (
    ChannelModel,
    NetworkSpec,
    input_label,
    output_label,
)
from relaycast.schedules import backward_schedule
from relaycast.seeds import STREAM_SOURCE, child_rng
from relaycast.simulate import _SourceSampler
from relaycast.typicality import TypicalityTest

from conftest import candidate_rows, conv, h2, stage_screen


def perfect_side_network():
    """K=0 noiseless binary channel with S1 = S0 (perfect side info)."""
    ch = np.zeros((2, 1, 2))
    ch[0, 0, 0] = ch[1, 0, 1] = 1.0
    diag = np.zeros((2, 2))
    diag[0, 0] = diag[1, 1] = 0.5
    return NetworkSpec(K=0, L=1, channel=ChannelModel((2, 1), (2,), ch),
                       sources=rc.JointPmf(("S0", "S1"), (2, 2), diag))


class TestDeterminism:
    def test_ptp_bitwise_reproducible(self, net_a):
        a = rc.simulate_ptp(net_a, m=6, n=12, R=None, epsilon=3.0,
                            trials=60, seed=4)
        b = rc.simulate_ptp(net_a, m=6, n=12, R=None, epsilon=3.0,
                            trials=60, seed=4)
        assert a.to_dict() == b.to_dict()

    def test_sliding_parallel_matches_serial(self, net_c):
        kw = dict(m=5, n=7, B=3, epsilon=4.0, trials=60, seed=4)
        serial = rc.simulate_sliding_window(net_c, [0, 1, 2], **kw)
        threaded = rc.simulate_sliding_window(net_c, [0, 1, 2], workers=8,
                                              **kw)
        assert serial.to_dict() == threaded.to_dict()

    def test_backward_parallel_matches_serial(self, net_c):
        kw = dict(m=5, n=7, B=2, epsilon=4.0, trials=40, seed=4)
        serial = rc.simulate_backward(net_c, **kw)
        threaded = rc.simulate_backward(net_c, workers=8, **kw)
        assert serial.to_dict() == threaded.to_dict()

    def test_seed_changes_results(self, net_c):
        a = rc.simulate_sliding_window(net_c, [0, 1, 2], m=5, n=7, B=3,
                                       epsilon=4.0, trials=60, seed=4)
        b = rc.simulate_sliding_window(net_c, [0, 1, 2], m=5, n=7, B=3,
                                       epsilon=4.0, trials=60, seed=5)
        assert a.errors_total != b.errors_total or \
            a.per_terminal_errors != b.per_terminal_errors


class TestReductions:
    def test_sliding_k0_equals_ptp_no_binning(self, net_a):
        """Degenerate one-block schedule: identical seed streams, identical
        decisions, bit-for-bit equal results."""
        s = rc.simulate_sliding_window(net_a, [0, 1], m=6, n=12, B=1,
                                       epsilon=3.0, trials=120, seed=5)
        p = rc.simulate_ptp(net_a, m=6, n=12, R=None, epsilon=3.0,
                            trials=120, seed=5)
        assert s.errors_total == p.errors_total
        assert s.per_terminal_errors == p.per_terminal_errors

    def test_backward_k0_equals_ptp_separate_binning(self, net_a):
        delta = 0.1
        b = rc.simulate_backward(net_a, m=8, n=16, B=1, epsilon=3.0,
                                 trials=120, seed=5, bin_rate_delta=delta)
        p = rc.simulate_ptp(net_a, m=8, n=16, R=h2(0.25) + delta,
                            epsilon=3.0, trials=120, seed=5,
                            decoder="separate")
        assert b.errors_total == p.errors_total
        assert b.per_terminal_errors == p.per_terminal_errors

    # Seeded random K=0 networks: a 3x3 channel and a binary source joint.
    # Seed 2 is left out: every likelihood ratio of its channel lies within
    # a factor of two of 1, so at any epsilon loose enough for the source
    # stage every codeword passes the channel test and all trials err on
    # both sides of each identity, which would show nothing.
    RANDOM_SEEDS = (0, 1, 3, 12)

    @staticmethod
    def random_network(s: int) -> NetworkSpec:
        rng = np.random.default_rng(s)
        ch = rng.dirichlet(np.ones(3), size=3).reshape(3, 1, 3)
        sources = rc.JointPmf(("S0", "S1"), (2, 2), rng.dirichlet(np.ones(4)))
        return NetworkSpec(K=0, L=1, channel=ChannelModel((3, 1), (3,), ch),
                           sources=sources)

    @pytest.mark.parametrize("s", RANDOM_SEEDS)
    def test_random_sliding_k0_equals_ptp_no_binning(self, s):
        spec = self.random_network(s)
        kw = dict(m=8, n=24, epsilon=3.0, trials=60, seed=s)
        sliding = rc.simulate_sliding_window(spec, [0, 1], B=1, **kw)
        ptp = rc.simulate_ptp(spec, R=None, **kw)
        assert 0 < ptp.errors_total < kw["trials"]
        assert sliding.errors_total == ptp.errors_total
        assert sliding.per_terminal_errors == ptp.per_terminal_errors

    @pytest.mark.parametrize("s", RANDOM_SEEDS)
    def test_random_backward_k0_equals_ptp_separate(self, s):
        # R = H(S0|S1) + delta stays below H(S0), where ptp would switch to
        # the identity map
        spec = self.random_network(s)
        h_cond = spec.source_entropy_given(1)
        delta = (spec.sources.entropy(["S0"]) - h_cond) / 2
        kw = dict(m=8, n=24, epsilon=3.0, trials=60, seed=s)
        backward = rc.simulate_backward(spec, B=1, bin_rate_delta=delta, **kw)
        ptp = rc.simulate_ptp(spec, R=h_cond + delta, decoder="separate",
                              **kw)
        assert ptp.config["bin_rate"] is not None
        assert 0 < ptp.errors_total < kw["trials"]
        assert backward.errors_total == ptp.errors_total
        assert backward.per_terminal_errors == ptp.per_terminal_errors

    def test_ptp_at_source_entropy_is_no_binning(self, net_a_noiseless):
        # R = H(S0) is the no-binning regime: identical to R=None
        a = rc.simulate_ptp(net_a_noiseless, m=8, n=12, R=1.0, epsilon=3.0,
                            trials=80, seed=6)
        b = rc.simulate_ptp(net_a_noiseless, m=8, n=12, R=None, epsilon=3.0,
                            trials=80, seed=6)
        assert a.errors_total == b.errors_total


class TestNoiselessExactness:
    def test_every_typical_trial_decodes_exactly(self):
        """Perfect side info, noiseless channel, generous n: the only errors
        are trials whose source block is atypical.  n is large enough that
        the codeword count constraint sits more than five sigma out."""
        spec = perfect_side_network()
        m, n, eps, trials, seed = 4, 100, 0.5, 200, 12
        res = rc.simulate_ptp(spec, m=m, n=n, R=None, epsilon=eps,
                              trials=trials, seed=seed)
        # count atypical source draws by regenerating the source stream
        sampler = _SourceSampler(spec.sources)
        cb = rc.build_typical_source_codebook(np.array([0.5, 0.5]), m, eps)
        keys = {s.tobytes() for s in cb.sequences}
        atypical = 0
        for trial in range(trials):
            src = sampler.draw(
                child_rng(seed, trial, STREAM_SOURCE, 1).random(m))
            if src[0].tobytes() not in keys:
                atypical += 1
        assert res.errors_total == atypical
        assert atypical > 0

    def test_sliding_exact_on_perfect_network(self):
        spec = perfect_side_network()
        res = rc.simulate_sliding_window(spec, [0, 1], m=4, n=100, B=3,
                                         epsilon=0.5, trials=60, seed=12)
        # errors only from atypical blocks; rate of atypical blocks is
        # 2 * 2^-4 per block, three blocks per trial
        assert res.p_e < 0.5
        sampler = _SourceSampler(spec.sources)
        cb = rc.build_typical_source_codebook(np.array([0.5, 0.5]), 4, 0.5)
        keys = {s.tobytes() for s in cb.sequences}
        atypical_trials = 0
        for trial in range(60):
            bad = False
            for q in (1, 2, 3):
                src = sampler.draw(
                    child_rng(12, trial, STREAM_SOURCE, q).random(4))
                if src[0].tobytes() not in keys:
                    bad = True
            atypical_trials += bad
        assert res.errors_total == atypical_trials


class TestPtpThresholds:
    def test_below_threshold_small_error(self, net_a_noiseless):
        res = rc.simulate_ptp(net_a_noiseless, m=8, n=16, R=None,
                              epsilon=3.0, trials=300, seed=7)
        assert res.p_e < 0.05

    def test_under_binned_fails(self, net_a_noiseless):
        res = rc.simulate_ptp(net_a_noiseless, m=8, n=16,
                              R=h2(0.25) - 0.3, epsilon=3.0,
                              trials=300, seed=7)
        assert res.p_e >= 0.3

    def test_zero_capacity_channel_fails(self):
        ch = np.full((2, 1, 2), 0.5)
        spec = NetworkSpec(K=0, L=1, channel=ChannelModel((2, 1), (2,), ch),
                           sources=rc.bundled_network("net-a").sources)
        res = rc.simulate_ptp(spec, m=6, n=12, R=None, epsilon=3.0,
                              trials=100, seed=7)
        assert res.p_e >= 0.3


class TestSlidingWindow:
    def test_below_vs_above_threshold_ordering(self, net_c):
        r_star = min(1 / h2(0.1), 1 / h2(conv(0.1, 0.2)))
        n_lo = rc.blocklength_for_scale(6, r_star, 0.8)
        n_hi = rc.blocklength_for_scale(6, r_star, 1.5)
        res_lo = rc.simulate_sliding_window(net_c, [0, 1, 2], m=6, n=n_lo,
                                            B=2, epsilon=4.0, trials=200,
                                            seed=1)
        res_hi = rc.simulate_sliding_window(net_c, [0, 1, 2], m=6, n=n_hi,
                                            B=2, epsilon=4.0, trials=200,
                                            seed=1)
        assert res_lo.p_e + 0.2 <= res_hi.p_e

    def test_deep_below_threshold_vanishing_error(self, net_c):
        res = rc.simulate_sliding_window(net_c, [0, 1, 2], m=10, n=16, B=2,
                                         epsilon=3.0, trials=200, seed=1)
        assert res.p_e < 0.1

    def test_k2_network_runs(self, net_d):
        res = rc.simulate_sliding_window(net_d, [0, 1, 2, 3], m=4, n=8, B=3,
                                         epsilon=4.0, trials=30, seed=2)
        assert 0.0 <= res.p_e <= 1.0
        assert set(res.per_terminal_errors) == {1, 2, 3}

    def test_partial_plan_skips_relay(self, net_d):
        res = rc.simulate_sliding_window(net_d, [0, 2, 3], m=4, n=8, B=3,
                                         epsilon=4.0, trials=20, seed=2)
        assert set(res.per_terminal_errors) == {2, 3}

    def test_gates(self, net_c, net_bc2):
        with pytest.raises(BTooSmall):
            rc.simulate_sliding_window(net_c, [0, 1, 2], m=4, n=6, B=1,
                                       epsilon=3.0, trials=5, seed=0)
        with pytest.raises(PlanMismatch):
            rc.simulate_sliding_window(net_bc2, [0, 1, 2], m=4, n=6, B=3,
                                       epsilon=3.0, trials=5, seed=0)


class TestBackward:
    def test_k1_below_vs_above(self, net_c):
        res_lo = rc.simulate_backward(net_c, m=6, n=7, B=2, epsilon=4.0,
                                      trials=100, seed=1)
        res_hi = rc.simulate_backward(net_c, m=6, n=3, B=2, epsilon=4.0,
                                      trials=100, seed=1)
        assert res_lo.p_e <= res_hi.p_e

    def test_generous_binning_below_threshold(self, net_c):
        # separation needs a real bin-count margin at desk scale; with
        # generous bins (still far fewer codewords than the channel can
        # resolve at n=18) the below-threshold point clearly beats the
        # above-threshold one
        below = rc.simulate_backward(net_c, m=6, n=18, B=2, epsilon=6.0,
                                     trials=60, seed=1,
                                     bin_rates={1: 1.5, 2: 1.5})
        above = rc.simulate_backward(net_c, m=6, n=4, B=2, epsilon=6.0,
                                     trials=60, seed=1,
                                     bin_rates={1: 1.5, 2: 1.5})
        assert below.p_e < 0.5
        assert below.p_e + 0.2 <= above.p_e

    def test_under_binned_destination_fails(self, net_c):
        baseline = rc.simulate_backward(net_c, m=6, n=18, B=2, epsilon=6.0,
                                        trials=60, seed=1,
                                        bin_rates={1: 1.5, 2: 1.5})
        forced = rc.simulate_backward(
            net_c, m=6, n=18, B=2, epsilon=6.0, trials=60, seed=1,
            bin_rates={1: 1.5, 2: h2(conv(0.1, 0.2)) - 0.3})
        assert forced.p_e >= 0.3
        assert forced.p_e > baseline.p_e

    def test_k2_network_runs(self, net_d):
        res = rc.simulate_backward(net_d, m=4, n=10, B=2, epsilon=4.0,
                                   trials=20, seed=2)
        assert 0.0 <= res.p_e <= 1.0
        assert set(res.per_terminal_errors) == {1, 2, 3}

    def test_unsupported_k(self):
        # K=3 network: three identity relays
        ch = np.zeros((2, 2, 2, 2, 1) + (2, 2, 2, 2))
        for x0 in range(2):
            for x1 in range(2):
                for x2 in range(2):
                    for x3 in range(2):
                        ch[x0, x1, x2, x3, 0, x0, x1, x2, x3] = 1.0
        sources = rc.JointPmf(
            tuple(f"S{i}" for i in range(5)), (2,) * 5,
            np.full(32, 1 / 32))
        spec = NetworkSpec(K=3, L=1,
                           channel=ChannelModel((2, 2, 2, 2, 1),
                                                (2, 2, 2, 2), ch),
                           sources=sources)
        with pytest.raises(UnsupportedK):
            rc.simulate_backward(spec, m=4, n=8, B=2, epsilon=3.0,
                                 trials=5, seed=0)


class TestBlocklengthForScale:
    def test_below_rounds_up(self):
        assert rc.blocklength_for_scale(6, 1.2, 0.8) == 7
        assert 6 / rc.blocklength_for_scale(6, 1.2, 0.8) <= 0.8 * 1.2

    def test_above_rounds_down(self):
        n = rc.blocklength_for_scale(6, 1.2, 1.5)
        assert 6 / n >= 1.5 * 1.2

    def test_exact_ratio_kept(self):
        assert rc.blocklength_for_scale(6, 1.0, 0.75) == 8

    def test_no_finite_length_is_an_error(self):
        for r_star, scale in [(1.0, float("nan")), (1.0, float("inf")),
                              (1.0, 1e-320), (0.5, 1e-308), (0.0, 0.8),
                              (1.0, 0.0), (1.0, -2.0)]:
            with pytest.raises(SchemaError):
                rc.blocklength_for_scale(6, r_star, scale)


def test_simulators_reject_alphabets_beyond_int8(net_a):
    # a 130-symbol source would wrap in the int8 symbol storage
    wide = NetworkSpec(K=0, L=1, channel=net_a.channel,
                       sources=rc.JointPmf(("S0", "S1"), (130, 1),
                                           np.full(130, 1 / 130)))
    kw = dict(m=1, n=4, epsilon=300.0, trials=1, seed=0)
    with pytest.raises(TooLarge):
        rc.simulate_ptp(wide, R=None, **kw)
    with pytest.raises(TooLarge):
        rc.simulate_sliding_window(wide, [0, 1], B=1, **kw)
    with pytest.raises(TooLarge):
        rc.simulate_backward(wide, B=1, **kw)


def test_ptp_rejects_negative_seed(net_a):
    with pytest.raises(SchemaError):
        rc.simulate_ptp(net_a, m=4, n=8, R=None, epsilon=3.0, trials=1,
                        seed=-1)


def test_sliding_rejects_negative_seed(net_c):
    with pytest.raises(SchemaError):
        rc.simulate_sliding_window(net_c, [0, 1, 2], m=4, n=6, B=2,
                                   epsilon=3.0, trials=1, seed=-1)


def test_backward_rejects_negative_seed(net_c):
    with pytest.raises(SchemaError):
        rc.simulate_backward(net_c, m=4, n=6, B=2, epsilon=3.0, trials=1,
                             seed=-1)


def test_ptp_rejects_out_of_range_rate(net_a):
    with pytest.raises(TooLarge):
        rc.simulate_ptp(net_a, m=4, n=8, R=1.5, epsilon=3.0, trials=5, seed=0)


def test_epsilon_zero_odd_m_degenerate(net_a):
    with pytest.raises(DegenerateTypicalSet):
        rc.simulate_ptp(net_a, m=5, n=8, R=None, epsilon=0.0, trials=5,
                        seed=0)


GOLDEN_RESULTS = Path(__file__).parent / "golden" / "sim_results.json"

#: (golden key, simulator, network, keyword arguments): small fixed points
#: of every scheme and decoder whose results are pinned bit for bit.
GOLDEN_CASES = [
    ("ptp-none", "ptp", "net-a-noiseless",
     dict(m=8, n=10, R=None, epsilon=3.0, trials=40, seed=3)),
    ("ptp-joint", "ptp", "net-a-noiseless",
     dict(m=8, n=10, R=0.85, epsilon=3.0, trials=40, seed=3)),
    ("ptp-separate", "ptp", "net-a-noiseless",
     dict(m=8, n=10, R=0.85, epsilon=3.0, trials=40, seed=3,
          decoder="separate")),
    ("ptp-separate-none", "ptp", "net-a-noiseless",
     dict(m=6, n=8, R=None, epsilon=3.0, trials=40, seed=3,
          decoder="separate")),
    ("sliding-k1", "sliding", "net-c",
     dict(plan=[0, 1, 2], m=5, n=7, B=3, epsilon=4.0, trials=30, seed=3)),
    ("sliding-k2", "sliding", "net-d",
     dict(plan=[0, 1, 2, 3], m=4, n=8, B=4, epsilon=4.0, trials=15,
          seed=3)),
    ("sliding-partial", "sliding", "net-d",
     dict(plan=[0, 2, 3], m=4, n=8, B=3, epsilon=4.0, trials=15, seed=3)),
    # 1024 x 16 slices: codewords read one by one from large tables
    ("sliding-large-slices", "sliding", "net-c",
     dict(plan=[0, 1, 2], m=10, n=16, B=2, epsilon=3.0, trials=200, seed=1)),
    ("backward-k0", "backward", "net-a-noiseless",
     dict(m=8, n=14, B=2, epsilon=3.0, trials=30, seed=3)),
    ("backward-k1", "backward", "net-c",
     dict(m=5, n=14, B=2, epsilon=4.0, trials=20, seed=3,
          bin_rates={1: 1.2, 2: 1.2})),
    ("backward-k2", "backward", "net-d",
     dict(m=4, n=10, B=2, epsilon=4.0, trials=8, seed=3)),
]

SIMULATORS = {"ptp": rc.simulate_ptp, "sliding": rc.simulate_sliding_window,
              "backward": rc.simulate_backward}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("key,scheme,net,kwargs", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_results_match_golden(key, scheme, net, kwargs, workers):
    golden = json.loads(GOLDEN_RESULTS.read_text())[key]
    res = SIMULATORS[scheme](rc.bundled_network(net), workers=workers,
                             **kwargs)
    assert json.dumps(res.to_dict(), sort_keys=True) == \
        json.dumps(golden, sort_keys=True)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("key,scheme,net,kwargs", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_golden_results_draw_no_child_rng(key, scheme, net, kwargs, workers,
                                          monkeypatch):
    """Every codeword table is drawn from a state ``pcg_states`` seeded:
    with ``codebooks.child_rng`` raising, each golden case still gives its
    golden bytes."""
    def refuse(*path):
        raise AssertionError(f"child_rng{path}")
    monkeypatch.setattr(codebooks, "child_rng", refuse)
    golden = json.loads(GOLDEN_RESULTS.read_text())[key]
    res = SIMULATORS[scheme](rc.bundled_network(net), workers=workers,
                             **kwargs)
    assert json.dumps(res.to_dict(), sort_keys=True) == \
        json.dumps(golden, sort_keys=True)


@pytest.mark.parametrize("key,scheme,net,kwargs", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_each_run_builds_its_schedule_once(key, scheme, net, kwargs,
                                           monkeypatch):
    """A simulator builds its schedule once, in ``check_scheme``, and hands
    that object to the engine."""
    built, engines = [], []
    for name in ("backward_schedule", "sliding_schedule"):
        def spy(*args, _name=name, _build=getattr(simulate, name)):
            built.append((_name, _build(*args)))
            return built[-1][1]
        monkeypatch.setattr(simulate, name, spy)
    init = simulate._Engine.__init__

    def seen(engine, spec, order, schedule, *args):
        engines.append(schedule)
        init(engine, spec, order, schedule, *args)
    monkeypatch.setattr(simulate._Engine, "__init__", seen)
    SIMULATORS[scheme](rc.bundled_network(net), **{**kwargs, "trials": 0})
    ((name, schedule),) = built
    assert name == ("sliding_schedule" if scheme == "sliding"
                    else "backward_schedule")
    assert engines == [schedule] and engines[0] is schedule


@pytest.mark.parametrize("scheme,net,m,epsilon", [
    ("ptp", "net-a-noiseless", 8, 0.5), ("backward", "net-c", 6, 0.3),
    ("backward", "net-c", 10, 0.5)])
def test_source_index_equals_bytes_lookup(scheme, net, m, epsilon,
                                          monkeypatch):
    """The engine finds each source row's codebook index by the row's
    base-A code in the typical set's sorted codes: the index a dict keyed
    by each typical row's bytes gives, or -1 for an atypical row."""
    init, engines = simulate._Engine.__init__, []

    def seen(engine, *args):
        init(engine, *args)
        engines.append(engine)
    monkeypatch.setattr(simulate._Engine, "__init__", seen)
    kwargs = dict(m=m, n=2 * m, epsilon=epsilon, trials=0, seed=0)
    if scheme == "ptp":
        rc.simulate_ptp(rc.bundled_network(net), R=None, **kwargs)
    else:
        rc.simulate_backward(rc.bundled_network(net), B=1, **kwargs)
    (engine,) = engines
    book, Q = engine.codebook, engine.schedule.source_blocks
    rows = np.random.default_rng(m).integers(
        0, book.alphabet, size=(300, Q, m), dtype=np.int8)
    rows[:2, 0] = book.sequences[[0, -1]]
    rows[2:4, 0] = [[0], [book.alphabet - 1]]   # all-equal rows

    class Drawn:
        """A source sampler that draws ``rows`` as every source's block."""
        def draw(self, u):
            assert u.shape == rows.shape
            return np.stack([rows, rows])
    engine.source_sampler = Drawn()
    src, idx = engine.draw_sources(np.arange(300))
    assert (src[0] == rows).all()
    lookup = {seq.tobytes(): w for w, seq in enumerate(book.sequences)}
    want = np.reshape([lookup.get(row.tobytes(), -1)
                       for row in rows.reshape(-1, m)], rows.shape[:2])
    assert idx.tolist() == np.pad(want, ((0, 0), (1, 0)),
                                  constant_values=-1).tolist()
    assert want[0, 0] == 0 and want[1, 0] == book.M - 1
    assert 0 < (want < 0).sum() < want.size


#: One golden case of each scheme, run below under several chunk caps.
CHUNKED_CASES = ["ptp-joint", "sliding-k2", "backward-k1"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("key", CHUNKED_CASES)
def test_results_do_not_depend_on_chunking(key, workers, monkeypatch):
    """Trials run in lockstep chunks sized under ``codebooks.CHUNK_BYTES``,
    which also sizes the decoding groups and the table cache: one trial per
    chunk (with one-trial gathers), a few chunks and every trial in as few
    chunks as there are workers all give the golden bytes."""
    _, scheme, net, kwargs = next(c for c in GOLDEN_CASES if c[0] == key)
    golden = json.dumps(json.loads(GOLDEN_RESULTS.read_text())[key],
                        sort_keys=True)
    trials = kwargs["trials"]
    chunks, trial_bytes = [], []
    pool = simulate.parallel_map

    def spy(fn, items, workers=1):
        chunks.append([len(chunk) for chunk in items])
        trial_bytes.append(fn.__self__.trial_bytes)
        return pool(fn, items, workers)
    monkeypatch.setattr(simulate, "parallel_map", spy)

    def run(cap, gather_cells=codebooks.GATHER_CELLS):
        monkeypatch.setattr(codebooks, "CHUNK_BYTES", cap)
        monkeypatch.setattr(codebooks, "GATHER_CELLS", gather_cells)
        res = SIMULATORS[scheme](rc.bundled_network(net), workers=workers,
                                 **kwargs)
        assert json.dumps(res.to_dict(), sort_keys=True) == golden
        return chunks[-1]

    whole = run(2 ** 40)
    assert sum(whole) == trials and len(whole) == workers
    assert run(1, 1) == [1] * trials
    few = run(trial_bytes[0] * (trials // 3))
    assert sum(few) == trials and max(workers, 3) <= len(few) <= 5


@pytest.mark.parametrize("key", CHUNKED_CASES)
def test_results_do_not_depend_on_decode_groups(key, monkeypatch):
    """Decodes run in groups of trials whose candidates fit under
    ``codebooks.CHUNK_BYTES``; with every trial in one chunk, groups of one
    trial and one group of the whole chunk both give the golden bytes."""
    _, scheme, net, kwargs = next(c for c in GOLDEN_CASES if c[0] == key)
    golden = json.dumps(json.loads(GOLDEN_RESULTS.read_text())[key],
                        sort_keys=True)
    init, window = simulate._Engine.__init__, simulate._Engine.window
    groups = []

    def one_chunk(engine, *args):
        init(engine, *args)
        engine.trial_bytes = 0

    def spy(engine, position, block, first, lead, codeword, own, at, fixed):
        groups.append(at.size)
        return window(engine, position, block, first, lead, codeword, own,
                      at, fixed)
    monkeypatch.setattr(simulate._Engine, "__init__", one_chunk)
    monkeypatch.setattr(simulate._Engine, "window", spy)
    for cap, largest in [(1, 1), (2 ** 40, kwargs["trials"])]:
        monkeypatch.setattr(codebooks, "CHUNK_BYTES", cap)
        groups.clear()
        res = SIMULATORS[scheme](rc.bundled_network(net), **kwargs)
        assert json.dumps(res.to_dict(), sort_keys=True) == golden
        assert max(groups) == largest


def test_decode_groups_are_charged_their_int8_candidates(monkeypatch):
    """A group is charged C x n bytes per trial for int8 candidates: at
    criterion 5's point below threshold (C=128, n=7 at the destination) a
    75-trial chunk decodes in one group under the default cap."""
    window, groups = simulate._Engine.window, []

    def spy(engine, position, block, first, lead, codeword, own, at, fixed):
        groups.append((engine.level_sizes[first + lead - 1], at.size))
        return window(engine, position, block, first, lead, codeword, own,
                      at, fixed)
    monkeypatch.setattr(simulate._Engine, "window", spy)
    rc.simulate_backward(rc.bundled_network("net-c"), m=6, n=7, B=2,
                         epsilon=4.0, trials=75, seed=0)
    assert max(size for C, size in groups if C == 128) == 75


def random_relay_network(name: str, s: int) -> NetworkSpec:
    """A bundled network's shape and sources under a seeded random
    channel: each input's output law is Dirichlet(0.7)."""
    base = rc.bundled_network(name)
    ins, outs = base.channel.input_sizes, base.channel.output_sizes
    ch = np.random.default_rng(s).dirichlet(
        np.full(int(np.prod(outs)), 0.7), size=int(np.prod(ins)))
    return NetworkSpec(K=base.K, L=1,
                       channel=ChannelModel(ins, outs, ch.reshape(ins + outs)),
                       sources=base.sources)


#: (id, network, keyword arguments, whether a lower stage must reject
#: candidates the top level passed) of backward runs whose decoding windows
#: are checked against one full test: the bundled golden points on net-c
#: and net-d, where the top level decides alone, and random K=1 and K=2
#: channels, where it does not.
WINDOW_CASES = [
    ("net-c", lambda: rc.bundled_network("net-c"),
     dict(m=5, n=14, B=2, epsilon=4.0, trials=8, seed=3,
          bin_rates={1: 1.2, 2: 1.2}), False),
    ("net-d", lambda: rc.bundled_network("net-d"),
     dict(m=4, n=10, B=2, epsilon=4.0, trials=6, seed=3), False),
    ("random-k1", lambda: random_relay_network("net-c", 1),
     dict(m=5, n=12, B=2, epsilon=2.0, trials=8, seed=1), True),
    ("random-k2", lambda: random_relay_network("net-d", 2),
     dict(m=4, n=10, B=2, epsilon=2.0, trials=6, seed=2), True),
]


@pytest.mark.parametrize("cap", [1, 2 ** 40], ids=["one-trial", "chunk"])
@pytest.mark.parametrize("net,kwargs,later",
                         [case[1:] for case in WINDOW_CASES],
                         ids=[case[0] for case in WINDOW_CASES])
def test_window_hits_equal_one_full_test(net, kwargs, later, cap,
                                         monkeypatch):
    """``_Engine.window`` screens a window's levels top first and gathers a
    lower level only for the candidates still in; its hits equal those of
    one joint test, built here, on every trial's C candidates read from its
    materialized tables, with decode groups of one trial and of a whole
    chunk."""
    spec = net()
    init, chunk = simulate._Engine.__init__, simulate._Engine.chunk
    window = simulate._Engine.window
    starts, groups = [], []
    seen = {"lead": 0, "hits": 0, "screened": 0}

    def one_chunk(engine, *args):
        init(engine, *args)
        engine.trial_bytes = 0

    def chunk_spy(engine, trials):
        starts.append(trials.start)
        return chunk(engine, trials)

    def spy(engine, position, block, first, lead, codeword, own, at, fixed):
        hits = window(engine, position, block, first, lead, codeword, own,
                      at, fixed)
        groups.append(at.size)
        labels = tuple(input_label(t) for t in engine.order[:-1])
        test = TypicalityTest(
            network.compose_joint(spec.extend_input(None, labels),
                                  spec.channel),
            labels[first:] + (output_label(engine.order[position]),),
            engine.n, kwargs["epsilon"], lead)
        for k, got, row in zip(at.tolist(), hits, fixed):
            rows = candidate_rows(engine, starts[-1] + k, block, first, lead,
                                  own[k])
            cand = np.zeros(rows[0].shape, dtype=np.int64)
            for level, size in zip(rows, test.sizes):
                cand = cand * size + level
            want = test.check_batch(cand, row)
            np.testing.assert_array_equal(got, want)
            seen["hits"] += int(want.sum())
            if lead > 1:
                seen["lead"] += 1
                top = stage_screen(test, rows, row, lead - 1)
                seen["screened"] += int((top & ~want).sum())
        return hits
    monkeypatch.setattr(simulate._Engine, "__init__", one_chunk)
    monkeypatch.setattr(simulate._Engine, "chunk", chunk_spy)
    monkeypatch.setattr(simulate._Engine, "window", spy)
    monkeypatch.setattr(codebooks, "CHUNK_BYTES", cap)
    rc.simulate_backward(spec, **kwargs)
    assert seen["lead"] > 0 and seen["hits"] > 0
    assert (seen["screened"] > 0) == later
    assert max(groups) == (1 if cap == 1 else kwargs["trials"])


@pytest.mark.parametrize("scheme,net,kwargs,bins,map_type", [
    # sim-ptp's binned point
    ("ptp", "net-a-noiseless",
     dict(m=12, n=24, R=0.97781, epsilon=3.0, trials=40, seed=5),
     {1: 4096}, np.uint16),
    # sim-backward's terminals on net-c
    ("backward", "net-c", dict(m=6, n=7, B=2, epsilon=4.0, trials=100,
                               seed=5),
     {1: 32, 2: 128}, np.uint8),
], ids=["ptp-4096", "backward-32-128"])
def test_chunk_bin_maps_are_assign_bins(scheme, net, kwargs, bins, map_type,
                                        monkeypatch):
    """Each chunk draws its trials' bin maps from seeded states; row k of a
    terminal's maps is ``assign_bins``' map of the chunk's trial k."""
    draw, seen = simulate._Engine.bin_maps, []

    def spy(engine, trials, rng):
        maps = draw(engine, trials, rng)
        seen.append((engine, trials.copy(), maps))
        return maps
    monkeypatch.setattr(simulate._Engine, "bin_maps", spy)
    SIMULATORS[scheme](rc.bundled_network(net), **kwargs)
    assert len(seen) > 1
    assert sum(trials.size for _, trials, _ in seen) == kwargs["trials"]
    for engine, trials, maps in seen:
        assert {t: engine.num_bins[t] for t in maps} == bins
        for t, rows in maps.items():
            assert rows.dtype == map_type
            for k, trial in enumerate(trials.tolist()):
                want = rc.assign_bins(engine.codebook, engine.bins[t],
                                      kwargs["seed"], t, trial=trial).map
                assert (rows[k] == want).all(), (t, trial)


@pytest.mark.parametrize("key,scheme,net,kwargs", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_config_block_counts_are_the_schedules(key, scheme, net, kwargs,
                                               monkeypatch):
    """A simulator's config reports the source blocks, channel blocks and
    codebook copies of the schedule its engine runs (ptp: the one-block
    K=0 backward schedule, reported as B=1); with no trials, every count is
    zero."""
    init, seen = simulate._Engine.__init__, []

    def spy(engine, spec, order, schedule, *args):
        seen.append(schedule)
        init(engine, spec, order, schedule, *args)
    monkeypatch.setattr(simulate._Engine, "__init__", spy)
    res = SIMULATORS[scheme](rc.bundled_network(net),
                             **{**kwargs, "trials": 0})
    (schedule,) = seen
    counts = {"source_blocks": schedule.source_blocks,
              "channel_blocks": schedule.channel_blocks,
              "codebook_copies": schedule.copies}
    reported = {k: res.config[k] for k in counts if k in res.config}
    assert reported == {k: counts[k] for k in reported}
    if scheme == "ptp":
        assert schedule == backward_schedule(0, 1)
        assert res.config["B"] == schedule.channel_blocks
    else:
        assert len(reported) == 2
    assert (res.errors_total, res.p_e) == (0, 0.0)
    assert set(res.per_terminal_errors.values()) == {0}


def test_backward_bin_count_cap(net_c):
    # 2^21 bins exceed ENUMERATION_CAP; rejected before the first trial
    with pytest.raises(TooLarge):
        rc.simulate_backward(net_c, m=6, n=8, B=1, epsilon=4.0, trials=0,
                             seed=0, bin_rates={1: 3.5})


NET_A = rc.bundled_network("net-a")
NET_C = rc.bundled_network("net-c")


@pytest.mark.parametrize("simulate,spec,kwargs,error", [
    (rc.simulate_ptp, NET_A, dict(m=0), SchemaError),
    (rc.simulate_ptp, NET_A, dict(trials=-1), SchemaError),
    (rc.simulate_ptp, NET_A, dict(n=0), SchemaError),
    (rc.simulate_ptp, NET_A, dict(m=4.5), SchemaError),
    (rc.simulate_backward, NET_C, dict(n=7.5, B=2), SchemaError),
    (rc.simulate_sliding_window, NET_C, dict(plan=[0, 1, 2], B=2.5),
     SchemaError),
    (rc.simulate_backward, NET_C, dict(trials=2.5, B=2), SchemaError),
    (rc.simulate_backward, NET_C, dict(B=2, bin_rates={3: 1.0}),
     SchemaError),
    # a 10^9-symbol channel block and a 4096 x 2048 codeword table
    (rc.simulate_ptp, NET_A, dict(n=10 ** 9), TooLarge),
    (rc.simulate_ptp, NET_A, dict(m=12, n=2048, trials=0), TooLarge),
    # epsilon must be finite and >= 0; workers a whole number >= 1
    (rc.simulate_ptp, NET_A, dict(epsilon=math.nan), SchemaError),
    (rc.simulate_sliding_window, NET_C, dict(plan=[0, 1, 2], B=2,
                                             epsilon=math.inf), SchemaError),
    (rc.simulate_backward, NET_C, dict(B=2, epsilon=-1.0), SchemaError),
    (rc.simulate_ptp, NET_A, dict(workers=-5), SchemaError),
    (rc.simulate_sliding_window, NET_C, dict(plan=[0, 1, 2], B=2,
                                             workers=1.5), SchemaError),
    (rc.simulate_backward, NET_C, dict(B=2, workers=0), SchemaError),
], ids=["m=0", "trials=-1", "n=0", "m=4.5", "n=7.5", "B=2.5", "trials=2.5",
        "bin_rates-key", "channel-block-cap", "table-cap", "epsilon=nan",
        "epsilon=inf", "epsilon=-1", "workers=-5", "workers=1.5",
        "workers=0"])
def test_simulators_reject_bad_inputs(simulate, spec, kwargs, error):
    args = dict(m=4, n=8, epsilon=3.0, trials=2, seed=0)
    if simulate is rc.simulate_ptp:
        args["R"] = None
    args.update(kwargs)
    with pytest.raises(error):
        simulate(spec, **args)
