"""Rates, capacity bounds and decode-and-forward protocol simulation for
discrete memoryless relay-broadcast networks with correlated side
information."""

from .codebooks import ChannelCodebookStack, conditional_input_laws
from .errors import *  # noqa: F401,F403  (semantic error hierarchy)
from .network import (
    ChannelModel,
    NetworkSpec,
    compose_joint,
    is_physically_degraded,
    is_side_info_degraded,
    load_network,
)
from .nets import BUNDLED, bundled_network
from .optimize import OptimizerOptions
from .pmf import (
    JointPmf,
    conditional_entropy,
    is_markov_chain,
    marginalize,
    mutual_information,
    point_mass,
    product_pmf,
    random_pmf,
    uniform_pmf,
    validate,
)
from .rates import (
    CooperationPlan,
    CutsetBound,
    RateReport,
    achievable_rate,
    broadcast_rate,
    degraded_capacity,
    enumerate_plans,
    optimize_plans,
    optimize_rate,
    ordered_cutset_bound,
    single_relay_broadcast_capacity,
)
from .schedules import render_backward_schedule, render_sliding_schedule
from .simulate import (
    SimResult,
    blocklength_for_scale,
    simulate_backward,
    simulate_ptp,
    simulate_sliding_window,
)
from .typicality import (
    BinAssignment,
    SourceCodebook,
    assign_bins,
    build_typical_source_codebook,
    joint_typicality,
)

__version__ = "0.1.0"
