"""Simulation of interactive protocols at their information complexity."""

from .probcore import (
    FiniteDistribution,
    JointSource,
    MomentSummary,
    SliceConfig,
    SpectrumTable,
    auto_slice_config,
    dsbs_source,
    entropy_density,
    eps_tail,
    ic_density,
    moments,
    product_source,
    q_inv,
    spectrum,
    tv_distance,
)
from .protocol import (
    MixedProtocol,
    ProductProtocol,
    ProtocolTree,
    RegionSource,
    ThresholdExample,
    TranscriptLaw,
    appendix_threshold_example,
    constant_protocol,
    data_exchange_protocol,
    mixed_protocol,
    noisy_send_protocol,
    one_round_protocol,
    product_protocol,
    send_value_protocol,
    transcript_law,
    two_round_protocol,
    xor_reply_protocol,
)
from .hashing import HashFamily, MinEntropyReport, draw_hash, extract, min_entropy
from .simulate import (
    ImprovedRoundSimulator,
    InteractiveSWCoder,
    ProtocolSimulator,
    RoundPlan,
    RoundSimulator,
    SimOutcome,
    SlepianWolfCoder,
    auto_round_plans,
    run_trials,
)
from .bounds import (
    LowerBoundReport,
    RoundBudgetInput,
    SpectraBundle,
    UpperBoundBudget,
    berry_esseen_band,
    beta_eps,
    beta_eps_upper,
    direct_product_thresholds,
    lower_bound,
    round_budget_inputs,
    second_order_predict,
    sk_bound,
    sk_chain,
    upper_bound_budget,
)
from .evaluate import TVEstimate, comm_stats, exact_view_law, measure_sim_error

__version__ = "0.1.0"
