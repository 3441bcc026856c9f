"""Canonical states and typicality statistics for channel-defined subsystems."""

__version__ = "0.8.0"

from .qcore import (
    DensityOperator,
    DimensionError,
    HermitianOperator,
    StateVector,
    derive_seed,
    haar_sample,
    haar_unitary,
    hs_norm,
    partial_trace,
    trace_distance,
)
from .channels import (
    ChoiState,
    ConsistencyError,
    CPTPError,
    QuantumChannel,
    StinespringIsometry,
    channels_equal,
    choi_to_kraus,
    compose,
    depolarizing,
    identity_channel,
    lipschitz_estimate,
    load_channel,
    partial_trace_channel,
    random_channel,
    replace_channel,
    save_channel,
    tensor,
    unitary_channel,
)
from .restriction import (
    ExcitationSubspace,
    RestrictedPartialTrace,
    effective_environment_dimension,
    enumerate_basis,
    restrict_channel,
)
from .bns import (
    BnSCanonicalSpectrum,
    DetectorChannel,
    ExactDistribution,
    bns_channel,
    bns_mean_exact,
    block_channel,
    block_choi,
    canonical_spectrum,
    energy_distribution_bns,
    energy_distribution_trace,
    write_distribution_csv,
)
from .typicality import (
    ExperimentConfig,
    TypicalityReport,
    canonical_state,
    depolarizing_bound,
    entropy_bound,
    levy_tail_bound,
    partial_trace_bound,
    run_experiment,
    sample_distances,
)
