"""seritree: simulation and validation suite for self-reinforced
preferential attachment trees.

The growth rule weights each vertex by the cumulative sum over all past
times of (degree + delta), so attachment propensity carries the entire
interaction history.  The package grows such trees at O(1) cost per step,
simulates their limiting branching-process objects, and provides the
statistical machinery to verify the model's growth and tail exponents,
local limits, and spectral diagnostics at desk scale.
"""

from .analysis import (
    GrowthFit,
    SpectrumResult,
    TailFit,
    adjacency_spectrum,
    compare_distributions,
    fit_degree_growth,
    fit_power_tail,
    tail_ccdf,
    tail_window_sensitivity,
    zero_atom,
)
from .growth import (
    GrowthParams,
    GrowthSnapshot,
    TreeRecord,
    attach_probabilities,
    enumerate_histories,
    grow,
    total_weight_closed,
)
from .limits import (
    BranchingTree,
    DegreePMF,
    ExponentPack,
    MarkedTree,
    NodeCapExceeded,
    exponents,
    limit_degree_pmf,
    limit_neighborhood_density,
    marked_neighborhood_log_prob,
    mc_zeta_hat,
    p1_quadrature,
    sample_edge_bp,
    sample_memory_bp,
    yule_marked_ensemble,
    zeta_hat_cumulant,
)
from .rng import CounterRng, mix64, stream_seed
from .treeops import (
    FringeHistogram,
    bp_fringe_sample,
    empirical_fringe_distribution,
    extended_fringes,
    fringe,
    key_size,
)

__version__ = "0.1.0"
