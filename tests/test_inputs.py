"""One bad value per checked entry point and value: each raises its
``RelaycastError`` subclass, never a bare Python error, and README's
"Input rules" list names exactly the entry points these tables do.

``MENDED`` holds the values the rules in ``errors.py`` newly reach: each
was truncated, accepted or crashed with a bare Python error before the
constructors and the remaining entry points took the rules.  ``HELD``
holds one value for every other checked entry point, which raised its
error already, so that the README comparison covers every entry point.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import relaycast as rc
from relaycast.errors import InvalidPlan, SchemaError, ShapeMismatch

NET_A = rc.bundled_network("net-a")
NET_B = rc.bundled_network("net-b")
NET_H = rc.bundled_network("net-h")
UNIFORM3 = rc.uniform_pmf(("A", "B", "C"), (2, 2, 2))


def codebook():
    return rc.build_typical_source_codebook(np.array([0.5, 0.5]), 4, 1.0)


def stack(**changes):
    """A one-level stack with one of its arguments changed."""
    args = dict(n=5, level_sizes=[4], copies=1, root_seed=0, trials=0)
    args.update(changes)
    laws = rc.conditional_input_laws(rc.uniform_pmf(("X0",), (2,)), ("X0",))
    return rc.ChannelCodebookStack(args["n"], args["level_sizes"], laws,
                                   args["copies"], args["root_seed"],
                                   args["trials"])


def named(document_changes):
    doc = NET_A.to_document()
    doc.update(document_changes)
    return rc.load_network(doc)


#: (entry point, value, call, error)
MENDED = [
    ("JointPmf", "size 2.5",
     lambda: rc.JointPmf(("A",), (2.5,), [0.5, 0.5]), SchemaError),
    ("JointPmf", "size True",
     lambda: rc.JointPmf(("A",), (True,), [1.0]), SchemaError),
    ("uniform_pmf", "size 2.7",
     lambda: rc.uniform_pmf(("A",), (2.7,)), SchemaError),
    ("uniform_pmf", "size True",
     lambda: rc.uniform_pmf(("A",), (True,)), SchemaError),
    ("point_mass", "size 2.5",
     lambda: rc.point_mass(("A",), (2.5,), (0,)), SchemaError),
    ("point_mass", "size True",
     lambda: rc.point_mass(("A",), (True,), (0,)), SchemaError),
    ("point_mass", "symbol 1.5",
     lambda: rc.point_mass(("A",), (2,), (1.5,)), SchemaError),
    ("point_mass", "symbol 5 of 2",
     lambda: rc.point_mass(("A",), (2,), (5,)), ShapeMismatch),
    ("random_pmf", "size 2.5",
     lambda: rc.random_pmf(("A",), (2.5,), np.random.default_rng(0)),
     SchemaError),
    ("random_pmf", "size True",
     lambda: rc.random_pmf(("A",), (True,), np.random.default_rng(0)),
     SchemaError),
    ("validate", "tol 'x'", lambda: rc.validate(UNIFORM3, "x"), SchemaError),
    ("JointPmf.validated", "tol 'x'",
     lambda: UNIFORM3.validated("x"), SchemaError),
    ("is_markov_chain", "tol 'x'",
     lambda: rc.is_markov_chain(UNIFORM3, ("A", "B", "C"), "x"), SchemaError),
    ("ChannelModel", "size 2.5",
     lambda: rc.ChannelModel((2.5,), (2,), [0.5] * 4), SchemaError),
    ("ChannelModel", "size True",
     lambda: rc.ChannelModel((True,), (2,), [0.5] * 2), SchemaError),
    ("ChannelModel.validated", "tol 'x'",
     lambda: NET_A.channel.validated("x"), SchemaError),
    ("is_physically_degraded", "tol 'x'",
     lambda: rc.is_physically_degraded(NET_B, "x"), SchemaError),
    ("is_side_info_degraded", "tol 'x'",
     lambda: rc.is_side_info_degraded(NET_B, "x"), SchemaError),
    ("load_network", "name 5", lambda: named({"name": 5}), SchemaError),
    ("NetworkSpec", "name 5",
     lambda: rc.NetworkSpec(K=0, L=1, channel=NET_A.channel,
                            sources=NET_A.sources, name=5), SchemaError),
    ("ChannelCodebookStack", "n 2.5", lambda: stack(n=2.5), SchemaError),
    ("ChannelCodebookStack", "level size 2.5",
     lambda: stack(level_sizes=[2.5]), SchemaError),
    ("ChannelCodebookStack", "copies 0", lambda: stack(copies=0), SchemaError),
    ("ChannelCodebookStack", "root_seed -1",
     lambda: stack(root_seed=-1), SchemaError),
    ("ChannelCodebookStack", "trials 2.5",
     lambda: stack(trials=2.5), SchemaError),
    ("build_typical_source_codebook", "m 2.5",
     lambda: rc.build_typical_source_codebook(np.array([0.5, 0.5]), 2.5, 1.0),
     SchemaError),
    ("build_typical_source_codebook", "epsilon nan",
     lambda: rc.build_typical_source_codebook(np.array([0.5, 0.5]), 4,
                                              math.nan), SchemaError),
    ("assign_bins", "rate 'x'",
     lambda: rc.assign_bins(codebook(), "x", 0), SchemaError),
    ("assign_bins", "seed 1.5",
     lambda: rc.assign_bins(codebook(), 1.0, 1.5), SchemaError),
    ("assign_bins", "terminal 1.5",
     lambda: rc.assign_bins(codebook(), 1.0, 0, terminal=1.5), SchemaError),
    ("assign_bins", "trial 1.5",
     lambda: rc.assign_bins(codebook(), 1.0, 0, trial=1.5), SchemaError),
    ("joint_typicality", "epsilon 'x'",
     lambda: rc.joint_typicality({"A": [0, 1]}, UNIFORM3, "x"), SchemaError),
    ("render_backward_schedule", "K True",
     lambda: rc.render_backward_schedule(True, 2), SchemaError),
    ("render_backward_schedule", "B 2.5",
     lambda: rc.render_backward_schedule(1, 2.5), SchemaError),
    ("render_sliding_schedule", "terminal 1.5",
     lambda: rc.render_sliding_schedule((0, 1.5), 2), SchemaError),
    ("render_sliding_schedule", "B 2.5",
     lambda: rc.render_sliding_schedule((0, 1), 2.5), SchemaError),
    ("enumerate_plans", "cap 'x'",
     lambda: rc.enumerate_plans(NET_B, cap="x"), SchemaError),
    ("enumerate_plans", "cap 2.5",
     lambda: rc.enumerate_plans(NET_B, cap=2.5), SchemaError),
    ("optimize_rate", "opts 'x'",
     lambda: rc.optimize_rate(NET_A, "auto", opts="x"), SchemaError),
    ("optimize_plans", "opts 'x'",
     lambda: rc.optimize_plans(NET_A, "auto", opts="x"), SchemaError),
    ("ordered_cutset_bound", "opts 'x'",
     lambda: rc.ordered_cutset_bound(NET_A, "x"), SchemaError),
    ("degraded_capacity", "opts 'x'",
     lambda: rc.degraded_capacity(NET_A, "x"), SchemaError),
    ("single_relay_broadcast_capacity", "opts 'x'",
     lambda: rc.single_relay_broadcast_capacity(NET_H, "x"), SchemaError),
    ("blocklength_for_scale", "r_star 'x'",
     lambda: rc.blocklength_for_scale(6, "x", 0.8), SchemaError),
]

#: One value each for the entry points that raised already.
HELD = [
    ("NetworkSpec", "K 0.5",
     lambda: rc.NetworkSpec(K=0.5, L=1, channel=NET_A.channel,
                            sources=NET_A.sources), SchemaError),
    ("load_network", "K 0.9", lambda: named({"K": 0.9}), SchemaError),
    ("CooperationPlan", "entry 1.7",
     lambda: rc.CooperationPlan((0, 1.7, 2)), InvalidPlan),
    ("achievable_rate", "plan entry True",
     lambda: rc.achievable_rate(NET_A, None, [0, True]), InvalidPlan),
    ("broadcast_rate", "input pmf 'x'",
     lambda: rc.broadcast_rate(rc.bundled_network("net-bc2"), "x"),
     SchemaError),
    ("OptimizerOptions", "certify_tol nan",
     lambda: rc.OptimizerOptions(certify_tol=math.nan), SchemaError),
    ("simulate_ptp", "m 2.5",
     lambda: rc.simulate_ptp(NET_A, m=2.5, n=4, R=None, epsilon=1.0,
                             trials=1, seed=0), SchemaError),
    ("simulate_sliding_window", "B True",
     lambda: rc.simulate_sliding_window(NET_B, [0, 1, 2], m=4, n=4, B=True,
                                        epsilon=1.0, trials=1, seed=0),
     SchemaError),
    ("simulate_backward", "epsilon nan",
     lambda: rc.simulate_backward(NET_B, m=4, n=4, B=1, epsilon=math.nan,
                                  trials=1, seed=0), SchemaError),
]


@pytest.mark.parametrize("entry,value,call,error",
                         MENDED + HELD,
                         ids=[f"{e}-{v}" for e, v, _, _ in MENDED + HELD])
def test_bad_value_raises_its_error(entry, value, call, error):
    with pytest.raises(error):
        call()


def _readme_entry_points() -> set[str]:
    """The entry points README's "Input rules" list names, one or more at
    the head of each item."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("Input rules")[1].split("\n\n")[1]
    return {name for item in block.split("\n- ")
            for name in re.findall(r"`([\w.]+)`", item.split(":")[0])}


def test_readme_lists_every_checked_entry_point():
    assert _readme_entry_points() == {e for e, _, _, _ in MENDED + HELD}
