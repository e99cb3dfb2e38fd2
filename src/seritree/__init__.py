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
    atom_mass_at_zero,
    compare_distributions,
    fit_degree_growth,
    fit_power_tail,
    tail_ccdf,
    tail_window_sensitivity,
)
from .growth import (
    GrowthParams,
    GrowthSnapshot,
    TreeRecord,
    WeightView,
    attach_probabilities,
    enumerate_histories,
    grow,
    history_probability,
    sample_target_naive,
    token_probability_vector,
    total_weight,
    total_weight_closed,
    vertex_weight,
)
from .limits import (
    BranchingTree,
    DegreePMF,
    ExponentPack,
    MarkedTree,
    NodeCapExceeded,
    YulePath,
    exponents,
    hazard,
    limit_degree_pmf,
    limit_neighborhood_density,
    marked_neighborhood_log_prob,
    mc_zeta_hat,
    p1_quadrature,
    sample_arrivals,
    sample_edge_bp,
    sample_memory_bp,
    yule_marked_ensemble,
    yule_marked_simulate,
    zeta_hat_cumulant,
)
from .rng import CounterRng, mix64, stream_seed
from .serialize import RunManifest
from .treeops import (
    FringeHistogram,
    bp_fringe_sample,
    decode_key,
    degree_counts,
    empirical_fringe_distribution,
    extended_fringe,
    fringe,
    key_size,
    q_count,
)

__version__ = "0.1.0"
