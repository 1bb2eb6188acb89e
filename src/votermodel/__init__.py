"""Exact spectral solutions and Monte Carlo simulation of the voter model."""

__version__ = "0.2.0"

from .montecarlo import (
    RunRecord,
    SimulationConfig,
    SimulationReport,
    estimate_moments,
    local_time_histogram,
    run_to_consensus,
    simulate,
)
from .observables import (
    ConsensusMoment,
    ContinuumEigenfunction,
    LocalTimes,
    greens_kernel,
    greens_local_time,
    hypergeometric_eigenfunction,
    local_times_exact,
    local_times_oracle,
    moment_exact,
    moment_asymptotic,
    moments_oracle,
)
from .propagator import (
    MacrostateDistribution,
    TransitionOperator,
    delta_distribution,
    dense_oracle,
    make_distribution,
    propagate_spectral,
    single_step,
    transition_operator,
    transition_rates,
    uniform_distribution,
)
from .spectral import (
    EXACT,
    FLOAT,
    EigenCoordinates,
    EigenPair,
    InvalidPopulationError,
    NormalizationError,
    NumericOverflowError,
    SpectralDecomposition,
    b_coefficients,
    binomial_transform,
    build_decomposition,
    eigenvalues,
    inverse_binomial_transform,
    to_coordinates,
)
from .topology import (
    DegreeMoments,
    GapEstimate,
    Topology,
    consensus_scale,
    degree_moments,
    from_edge_list,
    gap_estimate,
    generate_bipartite,
    generate_complete,
    generate_er,
)
