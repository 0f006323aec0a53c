"""Rate engine: plans, achievable rates, optimization, bounds, capacities."""

import itertools
import json
import math

import numpy as np
import pytest

import relaycast as rc
import relaycast.optimize as optimize
from relaycast.errors import (
    AlphabetMismatch,
    InvalidPlan,
    NegativeMass,
    NotBroadcastShape,
    NotDegraded,
    NotLemmaShape,
    NotNormalized,
    SchemaError,
    TooManyPlans,
)
from relaycast.network import ChannelModel, NetworkSpec
from relaycast.nets import branch_sources, dsbs_chain
from relaycast.rates import (
    _DF_BOTTLENECK_NOTE,
    MODE_BROADCAST,
    MODE_SINGLE,
    _hop_evaluator,
    _hop_sets,
    _senders,
    default_mode,
    validate_plan,
)

from conftest import (
    broadcast_relay_net,
    conv,
    degraded_relay_net,
    h2,
    k3_parallel_document,
    ternary_relay_net,
)

FAST = rc.OptimizerOptions()


class TestAchievableRate:
    def test_point_to_point_closed_form(self, net_a):
        report = rc.achievable_rate(net_a, None, [0, 1])
        assert report.rate == pytest.approx((1 - h2(0.1)) / h2(0.25),
                                            abs=1e-12)
        assert report.bottleneck == 1

    def test_perfect_side_info_unbounded(self, net_a):
        # S1 = S0: the single hop is vacuous and the rate unbounded
        diag = np.zeros((2, 2))
        diag[0, 0] = diag[1, 1] = 0.5
        spec = NetworkSpec(K=0, L=1, channel=net_a.channel,
                           sources=rc.JointPmf(("S0", "S1"), (2, 2), diag))
        report = rc.achievable_rate(spec, None, [0, 1])
        assert report.unbounded
        assert report.rate == math.inf
        assert report.per_hop[0].ratio == math.inf

    def test_identity_cascade_hops(self, net_c):
        report = rc.achievable_rate(net_c, None, [0, 1, 2])
        want = (1 / h2(0.1), 1 / h2(conv(0.1, 0.2)))
        assert report.per_hop[0].ratio == pytest.approx(want[0], abs=1e-9)
        assert report.per_hop[1].ratio == pytest.approx(want[1], abs=1e-9)
        assert report.rate == pytest.approx(min(want), abs=1e-9)
        assert report.bottleneck == 2

    def test_rejects_non_participant_pmf(self, net_c):
        stray = rc.uniform_pmf(("X1",), (2,))
        with pytest.raises(AlphabetMismatch):
            rc.achievable_rate(net_c, stray, [0, 2])

    @pytest.mark.parametrize("probs,error,match", [
        ([0.3, 0.3], NotNormalized, "mass sums to"),
        ([1.2, -0.2], NegativeMass, "below"),
        ([math.nan, 1.0], NotNormalized, "NaN"),
    ], ids=["unnormalized", "negative", "nan"])
    def test_rejects_invalid_input_pmf(self, net_a, probs, error, match):
        bad = rc.JointPmf(("X0",), (2,), probs)
        with pytest.raises(error, match=match):
            rc.achievable_rate(net_a, bad, [0, 1])
        with pytest.raises(error, match=match):
            rc.broadcast_rate(net_a, bad)
        with pytest.raises(error, match=match):
            rc.simulate_ptp(net_a, m=4, n=4, R=None, epsilon=3.0, trials=1,
                            seed=0, input_pmf=bad)

    def test_plan_validation(self, net_c):
        with pytest.raises(InvalidPlan):
            rc.achievable_rate(net_c, None, [0, 1])       # must end at dest
        with pytest.raises(InvalidPlan):
            rc.achievable_rate(net_c, None, [1, 0, 2])    # must start at 0
        with pytest.raises(InvalidPlan):
            rc.achievable_rate(net_c, None, [0, 1, 1, 2])
        # int() would read each of these as another plan, or crash
        for order in [("x",), (0, 1.7, 2), (0, True, 2), "0,1.5,2", 5]:
            with pytest.raises(InvalidPlan):
                rc.achievable_rate(net_c, None, order)
            with pytest.raises(InvalidPlan):
                rc.CooperationPlan(order)

    def test_every_plan_form_names_the_same_plan(self, net_c):
        want = rc.achievable_rate(net_c, None, [0, 1, 2]).to_dict()
        for plan in ["0,1,2", (0, 1, 2), np.arange(3), [0, 1.0, 2],
                     rc.CooperationPlan((0, 1, 2))]:
            assert rc.achievable_rate(net_c, None, plan).to_dict() == want
            assert rc.optimize_rate(net_c, plan).to_dict() == \
                rc.optimize_rate(net_c, [0, 1, 2]).to_dict()

    def test_rejects_an_input_pmf_that_is_no_joint_pmf(self, net_a):
        with pytest.raises(SchemaError, match="JointPmf"):
            rc.achievable_rate(net_a, [0.5, 0.5], [0, 1])
        with pytest.raises(SchemaError, match="JointPmf"):
            rc.broadcast_rate(net_a, [0.5, 0.5])


class TestEnumeratePlans:
    def test_no_relays(self, net_a):
        plans = rc.enumerate_plans(net_a)
        assert [list(p.order) for p in plans] == [[0, 1]]

    def test_two_relays(self, net_d):
        plans = rc.enumerate_plans(net_d)
        assert [list(p.order) for p in plans] == [
            [0, 3], [0, 1, 3], [0, 2, 3], [0, 1, 2, 3], [0, 2, 1, 3]]

    def test_broadcast_two_destinations(self, net_bc2):
        plans = rc.enumerate_plans(net_bc2)
        assert [list(p.order) for p in plans] == [[0, 1, 2], [0, 2, 1]]

    def test_cap(self, net_d):
        with pytest.raises(TooManyPlans):
            rc.enumerate_plans(net_d, cap=3)

    def test_unknown_mode(self, net_d):
        # rejected before the plans are counted against the cap
        with pytest.raises(InvalidPlan, match="unknown mode 'bogus'"):
            rc.enumerate_plans(net_d, "bogus")
        with pytest.raises(InvalidPlan, match="unknown mode 'bogus'"):
            rc.enumerate_plans(net_d, "bogus", cap=0)


def _k2_l2_net() -> NetworkSpec:
    """A K=2, L=2 network with silent destinations."""
    ch = np.random.default_rng(0).dirichlet(np.ones(16), size=8)
    return NetworkSpec(K=2, L=2, channel=ChannelModel(
        (2, 2, 2, 1, 1), (2, 2, 2, 2), ch.reshape((2, 2, 2, 1, 1) + (2,) * 4)),
        sources=rc.JointPmf(tuple(f"S{t}" for t in range(5)), (2,) * 5,
                            dsbs_chain([0.1, 0.2, 0.15, 0.25])))


def _oracle_plans(spec, mode):
    """Every tuple of distinct terminals starting at 0 that
    ``validate_plan`` accepts, sorted by (hops, order)."""
    others = range(1, spec.K + spec.L + 1)
    plans = []
    for r in range(1, len(others) + 1):
        for tail in itertools.permutations(others, r):
            try:
                validate_plan(spec, rc.CooperationPlan((0,) + tail), mode)
            except InvalidPlan:
                continue
            plans.append(rc.CooperationPlan((0,) + tail))
    return sorted(plans, key=lambda p: (p.num_hops, p.order))


@pytest.mark.parametrize("name", sorted(rc.BUNDLED) + ["k3", "k2-l2"])
def test_enumeration_is_every_valid_plan(name):
    spec = {"k3": lambda: rc.load_network(k3_parallel_document()),
            "k2-l2": _k2_l2_net}.get(name, lambda: rc.bundled_network(name))()
    modes = [MODE_BROADCAST] + ([MODE_SINGLE] if spec.L == 1 else [])
    for mode in modes:
        want = _oracle_plans(spec, mode)
        assert want and rc.enumerate_plans(spec, mode) == want
        for cap in range(len(want) + 2):
            if len(want) > cap:
                with pytest.raises(TooManyPlans):
                    rc.enumerate_plans(spec, mode, cap)
            else:
                assert rc.enumerate_plans(spec, mode, cap) == want


class TestOptimizeRate:
    def test_net_a_capacity(self, net_a):
        report = rc.optimize_rate(net_a, [0, 1], FAST)
        assert report.rate == pytest.approx((1 - h2(0.1)) / h2(0.25),
                                            abs=1e-3)

    def test_deterministic_and_monotone(self, net_b):
        # the report proves its own optimality gap; that --restarts and
        # --seed change no report is test_cli's
        # test_rate_and_bound_ignore_seed_and_restarts
        report = rc.optimize_rate(net_b, [0, 1, 2],
                                  rc.OptimizerOptions()).to_dict()
        assert report["converged"]
        assert 0.0 <= report["gap"] == report["upper"] - report["rate"] \
            <= optimize.CERTIFY_GAP

    def test_useless_input_symbol(self):
        # ternary input whose third symbol yields a uniform output
        ch = np.zeros((3, 1, 2))
        for x in range(2):
            for y in range(2):
                ch[x, 0, y] = 0.1 if x != y else 0.9
        ch[2, 0, :] = 0.5
        spec = NetworkSpec(K=0, L=1, channel=ChannelModel((3, 1), (2,), ch),
                           sources=rc.JointPmf(("S0", "S1"), (2, 2),
                                               dsbs_chain([0.25])))
        report = rc.optimize_rate(spec, [0, 1], FAST)
        assert report.rate == pytest.approx((1 - h2(0.1)) / h2(0.25),
                                            abs=1e-3)

    def test_net_b_matches_grid_oracle(self, net_b):
        # oracle first: exhaustive simplex grid, step 0.02 over the 2x2 joint
        oracle = rc.optimize_rate(net_b, [0, 1, 2],
                                  rc.OptimizerOptions(grid_step=0.02))
        searched = rc.optimize_rate(net_b, [0, 1, 2], FAST)
        closed = min((1 - h2(0.1)) / h2(0.1),
                     (1 - h2(0.22)) / h2(conv(0.1, 0.2)))
        assert searched.rate == pytest.approx(oracle.rate, abs=2e-3)
        assert oracle.rate == pytest.approx(closed, abs=2e-3)

    def test_auto_prefers_cooperation_on_cascade(self, net_c):
        report = rc.optimize_rate(net_c, "auto", FAST)
        assert list(report.plan.order) == [0, 1, 2]
        assert report.rate == pytest.approx(1 / h2(conv(0.1, 0.2)), abs=1e-3)


class TestOrderedCutsetBound:
    def test_point_to_point_form(self, net_a):
        bound = rc.ordered_cutset_bound(net_a, FAST)
        assert bound.bound == pytest.approx((1 - h2(0.1)) / h2(0.25),
                                            abs=1e-3)

    def test_noiseless_cuts(self, net_c):
        # disjoint identity hops: each cut is limited by log2 of the cut
        # input alphabet over the pooled side-information entropy
        bound = rc.ordered_cutset_bound(net_c, FAST)
        want = min(1.0 / h2(0.1), 1.0 / h2(conv(0.1, 0.2)))
        assert bound.bound == pytest.approx(want, abs=1e-3)
        assert bound.per_cut[0].numerator_sup == pytest.approx(1.0, abs=1e-3)

    def test_achievability_never_exceeds_bound(self, net_b, net_c):
        rng = np.random.default_rng(17)
        for spec in (net_b, net_c):
            bound = rc.ordered_cutset_bound(spec, FAST)
            for plan in rc.enumerate_plans(spec):
                for _ in range(5):
                    labels = tuple(
                        f"X{t}" for t in plan.order[:-1]
                        if spec.input_sizes[t] > 1)
                    pmf = rc.random_pmf(labels,
                                        tuple(2 for _ in labels), rng)
                    report = rc.achievable_rate(spec, pmf, plan)
                    assert report.rate <= bound.bound + 1e-6


class TestDegradedCapacity:
    def test_net_b_certificate(self, net_b):
        report = rc.degraded_capacity(net_b, FAST)
        cert = report.certificate
        assert cert["certified"]
        assert abs(cert["gap"]) <= 2e-3
        closed = min((1 - h2(0.1)) / h2(0.1),
                     (1 - h2(0.22)) / h2(conv(0.1, 0.2)))
        assert report.rate == pytest.approx(closed, abs=2e-3)

    def test_point_to_point_reduction(self, net_a):
        report = rc.degraded_capacity(net_a, FAST)
        assert report.rate == pytest.approx((1 - h2(0.1)) / h2(0.25),
                                            abs=1e-3)

    def test_not_degraded_gate(self, net_b):
        probs = np.zeros((2, 2, 2))
        for s0 in range(2):
            for s1 in range(2):
                probs[s0, s1, s0] = 0.25        # S2 = S0, S1 independent
        spec = NetworkSpec(K=1, L=1, channel=net_b.channel,
                           sources=rc.JointPmf(("S0", "S1", "S2"),
                                               (2, 2, 2), probs))
        with pytest.raises(NotDegraded):
            rc.degraded_capacity(spec, FAST)


class TestBroadcastRate:
    def test_single_destination_form(self, net_a):
        report = rc.broadcast_rate(net_a)
        assert report.rate == pytest.approx((1 - h2(0.1)) / h2(0.25),
                                            abs=1e-12)

    def test_two_identical_destinations(self):
        ch = np.zeros((2, 1, 1, 2, 2))
        for x in range(2):
            for y1 in range(2):
                for y2 in range(2):
                    p1 = 0.1 if y1 != x else 0.9
                    p2 = 0.1 if y2 != x else 0.9
                    ch[x, 0, 0, y1, y2] = p1 * p2
        spec = NetworkSpec(K=0, L=2,
                           channel=ChannelModel((2, 1, 1), (2, 2), ch),
                           sources=rc.JointPmf(("S0", "S1", "S2"), (2, 2, 2),
                                               branch_sources([0.25, 0.25])))
        report = rc.broadcast_rate(spec)
        assert report.per_hop[0].ratio == pytest.approx(
            report.per_hop[1].ratio, abs=1e-12)
        assert report.rate == pytest.approx(report.per_hop[0].ratio,
                                            abs=1e-12)

    def test_two_branch_closed_form(self, net_bc2):
        report = rc.broadcast_rate(net_bc2)
        want = min((1 - h2(0.1)) / h2(0.25), (1 - h2(0.2)) / h2(0.1))
        assert report.rate == pytest.approx(want, abs=1e-3)

    def test_shape_gate(self, net_h):
        with pytest.raises(NotBroadcastShape):
            rc.broadcast_rate(net_h)       # terminal 1 transmits

    def test_agrees_with_relay_broadcast_path(self, net_bc2):
        rng = np.random.default_rng(31)
        for _ in range(10):
            pmf = rc.random_pmf(("X0",), (2,), rng)
            direct = rc.broadcast_rate(net_bc2, pmf)
            for plan in rc.enumerate_plans(net_bc2, "relay-broadcast"):
                via = rc.achievable_rate(net_bc2, pmf, plan,
                                         mode="relay-broadcast")
                assert via.rate == pytest.approx(direct.rate, abs=1e-9)


class TestSingleRelayBroadcastCapacity:
    def test_closed_form(self, net_h):
        report = rc.single_relay_broadcast_capacity(net_h, FAST)
        want = min((1 - h2(0.1)) / h2(0.05), (1 - h2(0.15)) / h2(0.25))
        assert report.rate == pytest.approx(want, abs=1e-3)

    def test_silent_relay_reduces_to_broadcast(self, net_bc2):
        report = rc.single_relay_broadcast_capacity(net_bc2, FAST)
        direct = rc.broadcast_rate(net_bc2)
        assert report.rate == pytest.approx(direct.rate, abs=1e-3)

    def test_starved_destination(self):
        # Y2 independent of every input while H(S0|S2) > 0: capacity 0
        ch = np.zeros((2, 2, 1, 2, 2))
        for x0 in range(2):
            for x1 in range(2):
                for y1 in range(2):
                    p1 = 0.1 if y1 != x0 else 0.9
                    ch[x0, x1, 0, y1, :] = p1 * 0.5
        spec = NetworkSpec(K=0, L=2,
                           channel=ChannelModel((2, 2, 1), (2, 2), ch),
                           sources=rc.JointPmf(("S0", "S1", "S2"), (2, 2, 2),
                                               branch_sources([0.05, 0.25])))
        report = rc.single_relay_broadcast_capacity(spec, FAST)
        assert report.rate == pytest.approx(0.0, abs=1e-9)

    def test_one_helper_outside_df(self):
        # relay hears nothing from the source: decode-and-forward gives 0
        ch = np.zeros((2, 2, 1, 2, 2))
        for x0 in range(2):
            for x1 in range(2):
                for y2 in range(2):
                    p2 = 0.1 if y2 != x1 else 0.9
                    ch[x0, x1, 0, :, y2] = 0.5 * p2
        spec = NetworkSpec(K=0, L=2,
                           channel=ChannelModel((2, 2, 1), (2, 2), ch),
                           sources=rc.JointPmf(("S0", "S1", "S2"), (2, 2, 2),
                                               branch_sources([0.05, 0.25])))
        report = rc.single_relay_broadcast_capacity(spec, FAST)
        assert report.rate == pytest.approx(0.0, abs=1e-9)
        assert _DF_BOTTLENECK_NOTE in report.notes

    def test_shape_gate(self, net_b):
        with pytest.raises(NotLemmaShape):
            rc.single_relay_broadcast_capacity(net_b, FAST)


# ---------------------------------------------------------------------------
# Cross-checks with a straightforward independent evaluator
# ---------------------------------------------------------------------------

def _local_entropy(flat, axes, shape):
    p = flat.reshape(shape)
    drop = tuple(i for i in range(len(shape)) if i not in axes)
    marg = p.sum(axis=drop) if drop else p
    marg = marg.reshape(-1)
    pos = marg[marg > 0]
    return float(-(pos * np.log2(pos)).sum())


def _local_mi(flat, shape, a, b, cond):
    hac = _local_entropy(flat, sorted(a | cond), shape)
    hbc = _local_entropy(flat, sorted(b | cond), shape)
    habc = _local_entropy(flat, sorted(a | b | cond), shape)
    hc = _local_entropy(flat, sorted(cond), shape) if cond else 0.0
    return hac + hbc - habc - hc


def test_per_hop_terms_match_direct_evaluation(net_d):
    # rebuild every plan's hop terms from scratch: uniform participating
    # inputs, explicit joint multiplication, direct entropy sums
    K = net_d.K
    sizes = net_d.input_sizes + net_d.output_sizes
    for plan in rc.enumerate_plans(net_d):
        report = rc.achievable_rate(net_d, None, plan)
        senders = plan.order[:-1]
        p_in = np.zeros(net_d.input_sizes)
        for idx in np.ndindex(net_d.input_sizes):
            if all(idx[t] == 0 for t in range(K + 2) if t not in senders):
                p_in[idx] = 1.0
        p_in /= p_in.sum()
        flat = (p_in.reshape(net_d.input_sizes + (1,) * (K + 1))
                * net_d.channel.probs).reshape(-1)
        n_in = K + 2
        for hop, term in enumerate(report.per_hop, 1):
            a = {plan.order[j] for j in range(hop)}
            b = {n_in + plan.order[hop] - 1}
            cond = {plan.order[j] for j in range(hop, plan.num_hops)}
            direct = _local_mi(flat, sizes, a, b, cond)
            assert term.numerator == pytest.approx(direct, abs=1e-12)


def _channel_order(full):
    return np.transpose(full.probs, [full.axis_of(f"X{t}")
                                     for t in range(len(full.variables))])


def _kernel_cases(spec):
    """(hops, participating inputs) of every plan of ``spec`` and, for L=1,
    of every cut of the ordered cut-set bound."""
    mode = default_mode(spec)
    cases = [(_hop_sets(plan, _senders(plan, mode)),
              tuple(f"X{t}" for t in _senders(plan, mode)))
             for plan in rc.enumerate_plans(spec)]
    if spec.L == 1:
        everyone = spec.input_labels()
        cases += [([(i, list(everyone[:i]),
                     [f"Y{t}" for t in range(i, spec.K + 2)],
                     list(everyone[i:]))], everyone)
                  for i in range(1, spec.K + 2)]
    return cases


def _input_rows(spec, participating, pmfs):
    """Each input pmf (None: uniform) extended to every channel input and
    stacked in channel input order, one row per pmf."""
    return np.stack([_channel_order(spec.extend_input(pmf, participating))
                     for pmf in pmfs])


def _labelled_numerators(spec, hops, participating, pmf):
    composed = rc.compose_joint(spec.extend_input(pmf, participating),
                                spec.channel)
    return [composed.mutual_information(a, b, cond)
            for _, a, b, cond in hops]


def _assert_rows_match_labelled(spec, hops, participating, pmfs):
    got = _hop_evaluator(spec, hops)(_input_rows(spec, participating, pmfs))
    assert got.shape == (len(pmfs), len(hops))
    for row, pmf in zip(got.tolist(), pmfs):
        assert row == _labelled_numerators(spec, hops, participating, pmf)


@pytest.mark.parametrize("name", sorted(rc.BUNDLED))
def test_hop_evaluator_matches_joint_pmf_exactly(name):
    # the rate engine's batched evaluator against the labelled calculus on
    # compose_joint's output, row by row: every plan and every cut, bit for
    # bit, on a batch of seeded random rows and the uniform row
    _assert_random_rows_match_labelled(rc.bundled_network(name),
                                       np.random.default_rng(41), 12)


def _assert_random_rows_match_labelled(spec, rng, count):
    """Every plan and cut of ``spec``, on the uniform row and ``count``
    seeded random rows."""
    for hops, participating in _kernel_cases(spec):
        free = tuple(v for v in participating
                     if spec.input_sizes[int(v[1:])] > 1)
        sizes = tuple(spec.input_sizes[int(v[1:])] for v in free)
        pmfs = [None] + [rc.random_pmf(free, sizes, rng)
                         for _ in range(count)]
        _assert_rows_match_labelled(spec, hops, participating, pmfs)


@pytest.mark.parametrize("seed", range(4))
def test_random_ternary_nets(seed):
    # the kernel on ternary alphabets, whose marginals sum runs of 3, 9 and
    # 27 cells, matches the labelled calculus; each searched plan is no
    # worse than its uniform input and certified, and auto no worse than
    # every plan
    spec = ternary_relay_net(seed)
    _assert_random_rows_match_labelled(spec, np.random.default_rng(seed), 6)
    auto = rc.optimize_rate(spec, "auto", FAST).rate
    for plan in rc.enumerate_plans(spec):
        report = rc.optimize_rate(spec, plan, FAST)
        assert report.rate >= rc.achievable_rate(spec, None, plan).rate
        assert report.converged
        assert report.rate <= report.upper <= \
            report.rate + optimize.CERTIFY_GAP
        assert auto >= report.rate


#: Per seed of ``ternary_relay_net``: a proven bracket of plan 0,1,2's
#: optimal rate, the evaluations the 16-restart pattern search spent on that
#: plan, and the values that search reached on the two cuts of the bound.
TERNARY_REFERENCE = {
    0: ((0.298388981, 0.298389111), 93_634,
        (0.5013852580983194, 0.25340296923824024)),
    1: ((0.198768848, 0.198768928), 116_080,
        (0.6187072366910236, 0.416127945427757)),
    2: ((0.242170216, 0.242170465), 178_666,
        (0.45616316391575173, 0.20021344348750458)),
    3: ((0.306872440, 0.306872588), 93_508,
        (0.46249200584658934, 0.3620291207010289)),
}


@pytest.mark.parametrize("seed", sorted(TERNARY_REFERENCE))
def test_ternary_plan_meets_its_proven_bracket(seed):
    # the ridge where two hop ratios tie stalled the pattern search up to
    # 1.7% short; the certified solver must close on the bracket, in a
    # tenth of the evaluations, and prove both cuts above the old values
    (lo, hi), old_evals, old_cuts = TERNARY_REFERENCE[seed]
    spec = ternary_relay_net(seed)
    report = rc.optimize_rate(spec, [0, 1, 2])
    assert report.converged and report.gap <= optimize.CERTIFY_GAP
    assert report.rate <= hi and report.upper >= lo
    assert report.rate >= lo - optimize.CERTIFY_GAP
    assert report.evals <= old_evals / 10
    for cut, old in zip(rc.ordered_cutset_bound(spec).per_cut, old_cuts):
        assert cut.upper >= old - 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_degraded_family(seed):
    # a physically degraded relay net with its side information degraded
    # in the same order: every plan's rate stays under the proven cut-set
    # bound and under its own upper value, and the capacity certificate
    # holds exactly when its gap is within tolerance.  DF need not meet
    # the bound: the bound takes each cut's supremum on its own, while
    # the converse uses one input law for every cut.
    spec = degraded_relay_net(seed)
    bound = rc.ordered_cutset_bound(spec)
    assert bound.converged
    for cut in bound.per_cut:
        assert 0.0 <= cut.gap <= optimize.CERTIFY_GAP
    reports = rc.optimize_plans(spec, "auto")
    for report in reports:
        assert report.rate <= bound.bound + 1e-12
        assert report.rate <= report.upper
    capacity = rc.degraded_capacity(spec, bound=bound)
    assert capacity.rate <= capacity.upper
    cert = capacity.certificate
    assert cert["gap"] == bound.bound - capacity.rate >= 0.0
    assert cert["certified"] == (cert["gap"] <= cert["certify_tol"])


@pytest.mark.parametrize("relay_size", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_broadcast_relay_family(seed, relay_size):
    # the single-relay broadcast capacity is certified and prints as strict
    # JSON; with the relay silent it is the broadcast rate's maximum, so the
    # broadcast rate meets it at its own input and nowhere exceeds it
    spec = broadcast_relay_net(seed, relay_size)
    capacity = rc.single_relay_broadcast_capacity(spec)
    assert capacity.converged
    assert capacity.rate <= capacity.upper <= capacity.rate + 1e-6
    json.dumps(capacity.to_dict(), allow_nan=False)
    if relay_size > 1:
        return
    at_optimum = rc.broadcast_rate(spec, capacity.input_pmf)
    assert at_optimum.rate == pytest.approx(capacity.rate, rel=0, abs=1e-12)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        pmf = rc.random_pmf(("X0",), (3,), rng)
        assert rc.broadcast_rate(spec, pmf).rate <= capacity.rate + 1e-12


def test_hop_evaluator_rows_with_different_zero_patterns(net_d):
    # point masses and rows with zero cells in different places make the
    # rows' marginals differ in their zero cells, so the kernel's per-row
    # path runs; every row still equals its own evaluation
    rng = np.random.default_rng(5)
    free, sizes = ("X0", "X1", "X2"), (2, 2, 2)
    pmfs = [rc.point_mass(free, sizes, idx) for idx in np.ndindex(sizes)]
    for zeros in (1, 3, 6):
        w = rng.random(8)
        w[rng.choice(8, zeros, replace=False)] = 0.0
        pmfs.append(rc.JointPmf(free, sizes, w / w.sum()))
    pmfs += [rc.random_pmf(free, sizes, rng) for _ in range(3)]
    for hops, participating in _kernel_cases(net_d):
        if set(participating) >= set(free):
            _assert_rows_match_labelled(net_d, hops, participating, pmfs)


def test_information_round_off_below_zero_reports_positive_zero():
    # the output ignores the input, so I(X0; Y1) is 0 and the entropy sums
    # leave a round-off residue of either sign; a residue at or below zero
    # must be reported as +0.0 (as max(0.0, v) does), never as -0.0
    ch = np.zeros((3, 1, 3))
    ch[:, 0, :] = [0.2, 0.3, 0.5]
    spec = NetworkSpec(K=0, L=1, channel=ChannelModel((3, 1), (3,), ch),
                       sources=rc.JointPmf(("S0", "S1"), (2, 2),
                                           dsbs_chain([0.25])))
    hops = _hop_sets(rc.CooperationPlan((0, 1)), (0,))
    rng = np.random.default_rng(3)
    pmfs = [rc.random_pmf(("X0",), (3,), rng) for _ in range(64)]
    rows = _input_rows(spec, ("X0",), pmfs)
    joint = rows.reshape(64, 3, 1, 1) * ch
    drops = rc.compose_joint(spec.uniform_input(), spec.channel
                             ).information_axes(["X0"], ["Y1"])
    h = [rc.pmf._entropy_rows(joint.sum(axis=tuple(a + 1 for a in d),
                                        keepdims=True)) for d in drops]
    raw = h[0] + h[1] - h[2] - 0.0
    assert (raw < 0.0).any() and (raw > 0.0).any()
    got = _hop_evaluator(spec, hops)(rows)[:, 0]
    assert got.tolist() == [max(0.0, v) for v in raw.tolist()]
    assert not np.signbit(got).any()
    clamped = rc.pmf._clamp_nonneg(np.array([-0.0, -1e-17, 0.0, 0.25]),
                                   "mutual information")
    assert clamped.tolist() == [0.0, 0.0, 0.0, 0.25]
    assert not np.signbit(clamped).any()


@pytest.mark.parametrize("rows_per_chunk", [1, 3])
def test_hop_evaluator_chunks_equal_one_batch(net_d, monkeypatch,
                                              rows_per_chunk):
    rng = np.random.default_rng(17)
    for hops, participating in _kernel_cases(net_d):
        free = tuple(v for v in participating
                     if net_d.input_sizes[int(v[1:])] > 1)
        sizes = tuple(net_d.input_sizes[int(v[1:])] for v in free)
        rows = _input_rows(net_d, participating, [
            rc.random_pmf(free, sizes, rng) for _ in range(10)])
        monkeypatch.setattr(optimize, "BATCH_BYTES", 2**40)
        whole = _hop_evaluator(net_d, hops)(rows)
        monkeypatch.setattr(optimize, "BATCH_BYTES",
                            rows_per_chunk * net_d.channel.probs.nbytes)
        assert (_hop_evaluator(net_d, hops)(rows) == whole).all()


@pytest.mark.parametrize("cap", [1, 3 * 8 * 4])
def test_reports_do_not_depend_on_the_batch_cap(net_b, monkeypatch, cap):
    # a cap of one byte evaluates one point per call; 96 bytes three points
    # of net-b's 4-cell simplex per search call
    def reports():
        opts = rc.OptimizerOptions()
        return [json.dumps(r.to_dict(), sort_keys=True) for r in (
            rc.optimize_rate(net_b, [0, 1, 2], opts),
            rc.degraded_capacity(net_b, opts),
            rc.optimize_rate(net_b, [0, 1, 2],
                             rc.OptimizerOptions(grid_step=0.1)))]
    want = reports()
    monkeypatch.setattr(optimize, "BATCH_BYTES", cap)
    assert reports() == want


def test_rate_invariant_under_symbol_relabeling(net_b):
    rng = np.random.default_rng(13)
    for _ in range(5):
        inp = rc.random_pmf(("X0", "X1"), (2, 2), rng)
        base = rc.achievable_rate(net_b, inp, [0, 1, 2])
        perm_x0 = rng.permutation(2)
        perm_y2 = rng.permutation(2)
        perm_s1 = rng.permutation(2)
        ch = np.take(net_b.channel.probs, perm_x0, axis=0)
        ch = np.take(ch, perm_y2, axis=4)
        sources = net_b.sources.permute_symbols({"S1": perm_s1})
        spec = NetworkSpec(K=1, L=1,
                           channel=ChannelModel((2, 2, 1), (2, 2), ch),
                           sources=sources)
        relabeled = rc.achievable_rate(
            spec, inp.permute_symbols({"X0": perm_x0}), [0, 1, 2])
        assert relabeled.rate == pytest.approx(base.rate, abs=1e-9)
        for t_base, t_new in zip(base.per_hop, relabeled.per_hop):
            assert t_new.numerator == pytest.approx(t_base.numerator,
                                                    abs=1e-9)
            assert t_new.denominator == pytest.approx(t_base.denominator,
                                                      abs=1e-9)
