"""Canonical states and typicality statistics for channel-defined subsystems."""

__version__ = "0.32.0"

from .qcore import (
    DensityOperator,
    DimensionError,
    derive_seed,
    haar_sample,
    haar_unitary,
    partial_trace,
    trace_distance,
)
from .channels import (
    ConsistencyError,
    CPTPError,
    QuantumChannel,
    choi_to_kraus,
    compose,
    depolarizing,
    identity_channel,
    lipschitz_estimate,
    load_channel,
    partial_trace_channel,
    random_channel,
    save_channel,
    tensor,
    unitary_channel,
)
from .restriction import (
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
    entropy_bound,
    levy_tail_bound,
    partial_trace_bound,
    run_experiment,
    sample_distances,
)
