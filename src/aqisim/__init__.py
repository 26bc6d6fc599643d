"""Online slotted scheduling under utility/delay/energy tradeoffs.

Exact-rational algorithms and oracles: an online matcher with bin locking
for unit packets, an online greedy allocator for the general case, offline
optima to compare against and a verification harness for the halving
guarantees.
"""

from .model import (
    Allocation,
    AllocationError,
    AqiError,
    Bin,
    CostFamily,
    DISCARD,
    Instance,
    Packet,
    ParseError,
    SubpacketRef,
    linear,
    load_instance,
    shannon_energy,
    store_instance,
    tabulated,
    validate_instance,
)
from .valuation import (
    Valuation,
    evaluate,
    marginal_gains,
    marginal_value,
    transmit_weight,
)
from .matching import (
    BipartiteGraph,
    MatchingError,
    MatchingResult,
    MatchRun,
    bin_marginal_series,
    expand_binary,
    marginal_monotonicity_violations,
    max_weight_matching,
    run_online_matching,
)
from .greedy import GreedyRun, run_online_greedy
from .oracle import (
    BudgetError,
    DEFAULT_BUDGET,
    competitive_ratio,
    offline_optimal,
    offline_optimal_binary,
)
from .reduction import (
    check_guarantee_chain,
    check_offline_bridge,
    frozen_optimal,
    run_lockfree_greedy,
    telescoped_value,
)
from .adapters import aoi_multisource, remote_sampling_family, speed_scaling
from .harness import (
    CampaignConfig,
    adversarial_lock_probe,
    generate,
    run_bundle,
    run_campaign,
)

__version__ = "0.1.0"
