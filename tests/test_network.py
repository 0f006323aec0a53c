"""Network model: channel composition, degradedness, document loading."""

import json

import numpy as np
import pytest

import relaycast as rc
from relaycast.errors import (
    AlphabetMismatch,
    MultipleDestinations,
    NotNormalized,
    ParseError,
    SchemaError,
)
from relaycast.network import ChannelModel, NetworkSpec, compose_joint
from relaycast.nets import dsbs_chain

from conftest import random_joint


def bsc_channel(p):
    """K=0, L=1 channel tensor for a BSC(p) with a silent destination."""
    ch = np.zeros((2, 1, 2))
    for x in range(2):
        for y in range(2):
            ch[x, 0, y] = p if x != y else 1 - p
    return ChannelModel((2, 1), (2,), ch)


class TestComposeJoint:
    def test_identity_channel_diagonal(self):
        joint = compose_joint(rc.uniform_pmf(("X0", "X1"), (2, 1)),
                              bsc_channel(0.0))
        np.testing.assert_allclose(
            joint.marginalize(("X0", "Y1")).probs, [[0.5, 0.0], [0.0, 0.5]])

    def test_point_mass_input(self):
        inp = rc.product_pmf(rc.point_mass(("X0",), (2,), (1,)),
                             rc.uniform_pmf(("X1",), (1,)))
        joint = compose_joint(inp, bsc_channel(0.1))
        np.testing.assert_allclose(
            joint.marginalize(("Y1",)).probs, [0.1, 0.9])

    def test_bsc_cells(self):
        joint = compose_joint(rc.uniform_pmf(("X0", "X1"), (2, 1)),
                              bsc_channel(0.1))
        np.testing.assert_allclose(
            joint.marginalize(("X0", "Y1")).probs,
            [[0.45, 0.05], [0.05, 0.45]])

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            compose_joint(rc.uniform_pmf(("X0",), (2,)), bsc_channel(0.1))

    def test_marginal_recovers_input(self):
        rng = np.random.default_rng(3)
        ch = rc.bundled_network("net-b").channel
        for _ in range(25):
            inp = random_joint(rng, ("X0", "X1", "X2"), (2, 2, 1))
            joint = compose_joint(inp, ch)
            back = joint.marginalize(("X0", "X1", "X2"))
            np.testing.assert_allclose(back.probs, inp.probs, atol=1e-9)


class TestPhysicallyDegraded:
    def test_net_b_cascade(self, net_b):
        assert rc.is_physically_degraded(net_b)

    def test_bypass_not_degraded(self):
        # Y2 = X0 xor Bern(0.2) directly, bypassing Y1 = X0 xor Bern(0.1)
        ch = np.zeros((2, 2, 1, 2, 2))
        for x0 in range(2):
            for x1 in range(2):
                for y1 in range(2):
                    for y2 in range(2):
                        p1 = 0.1 if y1 != x0 else 0.9
                        p2 = 0.2 if y2 != x0 else 0.8
                        ch[x0, x1, 0, y1, y2] = p1 * p2
        spec = NetworkSpec(K=1, L=1, channel=ChannelModel((2, 2, 1), (2, 2), ch),
                           sources=rc.JointPmf(("S0", "S1", "S2"), (2, 2, 2),
                                               dsbs_chain([0.1, 0.2])))
        assert not rc.is_physically_degraded(spec)

    def test_identity_cascade(self, net_c):
        assert rc.is_physically_degraded(net_c)

    def test_requires_single_destination(self, net_bc2):
        with pytest.raises(MultipleDestinations):
            rc.is_physically_degraded(net_bc2)

    def test_random_cascades_are_degraded(self):
        # every cascade composed hop by hop passes the predicate
        rng = np.random.default_rng(11)
        for _ in range(10):
            hop1 = rng.random((2, 2)) + 0.05       # p(y1 | x0)
            hop1 /= hop1.sum(axis=1, keepdims=True)
            hop2 = rng.random((2, 2, 2)) + 0.05    # p(y2 | y1, x1)
            hop2 /= hop2.sum(axis=2, keepdims=True)
            ch = np.zeros((2, 2, 1, 2, 2))
            for x0 in range(2):
                for x1 in range(2):
                    for y1 in range(2):
                        for y2 in range(2):
                            ch[x0, x1, 0, y1, y2] = hop1[x0, y1] * hop2[y1, x1, y2]
            spec = NetworkSpec(K=1, L=1,
                               channel=ChannelModel((2, 2, 1), (2, 2), ch),
                               sources=rc.JointPmf(("S0", "S1", "S2"),
                                                   (2, 2, 2),
                                                   dsbs_chain([0.1, 0.2])))
            assert rc.is_physically_degraded(spec)


class TestSideInfoDegraded:
    def test_cascade(self, net_b):
        assert rc.is_side_info_degraded(net_b)

    def test_bypass(self):
        # S2 = S0 with S1 an independent coin
        probs = np.zeros((2, 2, 2))
        for s0 in range(2):
            for s1 in range(2):
                probs[s0, s1, s0] = 0.25
        spec = NetworkSpec(K=1, L=1,
                           channel=rc.bundled_network("net-c").channel,
                           sources=rc.JointPmf(("S0", "S1", "S2"),
                                               (2, 2, 2), probs))
        assert not rc.is_side_info_degraded(spec)

    def test_dsbs_cascade_tight(self, net_c):
        assert rc.is_side_info_degraded(net_c, tol=1e-9)

    def test_degenerate_two_terminal_chain(self, net_a):
        assert rc.is_side_info_degraded(net_a)


def test_degraded_identity_collapses_cut_information(net_b, net_c):
    # both predicates passing implies I(past; all future outputs | future
    # inputs) equals the single-output form for every input distribution
    rng = np.random.default_rng(21)
    for spec in (net_b, net_c):
        for _ in range(10):
            inp = random_joint(rng, ("X0", "X1", "X2"), (2, 2, 1),
                               positive=True)
            joint = compose_joint(inp, spec.channel)
            for i in (1, 2):
                a = [f"X{t}" for t in range(i)]
                cond = [f"X{t}" for t in range(i, 3)]
                wide = joint.mutual_information(
                    a, [f"Y{t}" for t in range(i, 3)], cond)
                narrow = joint.mutual_information(a, [f"Y{i}"], cond)
                assert wide == pytest.approx(narrow, abs=1e-6)


class TestLoadNetwork:
    def test_minimal_document(self, net_a):
        spec = rc.load_network(json.dumps(net_a.to_document()))
        assert (spec.K, spec.L) == (0, 1)
        np.testing.assert_allclose(spec.channel.probs, net_a.channel.probs)

    def test_missing_sources(self, net_a):
        doc = net_a.to_document()
        del doc["sources"]
        with pytest.raises(SchemaError):
            rc.load_network(doc)

    def test_bad_channel_row(self, net_a):
        doc = net_a.to_document()
        doc["channel"] = [0.49, 0.49, 0.1, 0.9]   # first row sums to 0.98
        with pytest.raises(NotNormalized):
            rc.load_network(doc)

    def test_nan_sources(self, net_a):
        doc = net_a.to_document()
        doc["sources"] = [float("nan")] * 4
        with pytest.raises(NotNormalized):
            rc.load_network(doc)

    def test_nan_channel(self, net_a):
        doc = net_a.to_document()
        doc["channel"] = [float("nan")] * 4
        with pytest.raises(NotNormalized):
            rc.load_network(json.dumps(doc))

    def test_parse_error(self):
        with pytest.raises(ParseError):
            rc.load_network("{not json")

    def test_sizes_are_whole_numbers(self, net_a):
        # int() would truncate each of these to a valid-looking size
        for field, value in [
                ("K", 0.9), ("K", False), ("L", 1.5), ("L", True),
                ("input_alphabets", [2.5, 1]), ("output_alphabets", [True]),
                ("source_alphabets", [2.5, 2]),
                ("source_alphabets", [2, float("inf")])]:
            doc = net_a.to_document()
            doc[field] = value
            with pytest.raises(SchemaError):
                rc.load_network(json.dumps(doc))
        # numbers without a fractional part stay accepted
        doc = net_a.to_document()
        doc["K"], doc["source_alphabets"] = 0.0, [2.0, 2]
        assert rc.load_network(doc).K == 0

    @pytest.mark.parametrize("field", ["channel", "sources"])
    @pytest.mark.parametrize("value", [
        ["a", "b", "c", "d"], [[0.5, 0.5], [1.0]], [{"p": 1}], "xyz"])
    def test_malformed_tensors(self, net_a, field, value):
        doc = net_a.to_document()
        doc[field] = value
        with pytest.raises(SchemaError):
            rc.load_network(json.dumps(doc))

    def test_roundtrip_all_bundled(self):
        for name in rc.BUNDLED:
            spec = rc.bundled_network(name)
            again = rc.load_network(json.dumps(spec.to_document()))
            np.testing.assert_allclose(again.channel.probs, spec.channel.probs)
            np.testing.assert_allclose(again.sources.probs, spec.sources.probs)
