"""Spin-teleportation polarimetry toolkit.

Exact few-qubit protocol math for teleporting a beam spin state onto an
outgoing neutron through a singlet-selected two-proton measurement, plus an
experiment-level model that predicts and Monte Carlo samples the neutron
polarization against a conventional polarization-transfer background.
"""

__version__ = "0.1.0"

from .bellkit import (
    BELL_ORDER,
    BellBranch,
    BellDecomposition,
    BellLabel,
    ZeroProbabilityError,
    bell_states,
    decompose_12,
    outcome_probability,
    project_bell,
    singlet_projector,
)
from .reaction import (
    IDEAL_TARGET,
    CorrelationRow,
    EventRecord,
    ExperimentConfig,
    ModelPrediction,
    PolarimetryEstimate,
    TargetSpec,
    acceptance_fraction,
    channel_purity,
    correlation_table,
    event_records,
    predict,
    simulate,
    target_moments,
)
from .spinalg import (
    BlochVector,
    DensityMatrix,
    DimensionError,
    InvariantError,
    Ket,
    NormalizationError,
    Operator,
    SpinAlgebraError,
    ZeroStateError,
    apply,
    bloch_from,
    density_from,
    inner,
    ket_from_direction,
    normalize,
    partial_trace,
    pauli,
    rotation,
    tensor,
)
from .teleport import (
    NO_CORRECTION,
    RY_PI,
    SIGMA_Z,
    BeamState,
    CorrectionPolicy,
    TeleportResult,
    compose,
    fidelity,
    prepare_beam,
    prepare_deuteron,
    run_postselected,
    run_sampled,
)

__all__ = [
    "__version__",
    # spinalg
    "Ket", "Operator", "DensityMatrix", "BlochVector",
    "SpinAlgebraError", "DimensionError", "ZeroStateError", "NormalizationError", "InvariantError",
    "tensor", "inner", "apply", "normalize", "density_from", "partial_trace",
    "pauli", "rotation", "bloch_from", "ket_from_direction",
    # bellkit
    "BellLabel", "BELL_ORDER", "BellBranch", "BellDecomposition", "ZeroProbabilityError",
    "bell_states", "decompose_12", "outcome_probability", "project_bell", "singlet_projector",
    # teleport
    "BeamState", "CorrectionPolicy", "TeleportResult",
    "NO_CORRECTION", "SIGMA_Z", "RY_PI",
    "prepare_deuteron", "prepare_beam", "compose", "fidelity",
    "run_postselected", "run_sampled",
    # reaction
    "TargetSpec", "IDEAL_TARGET", "ExperimentConfig", "ModelPrediction",
    "CorrelationRow", "EventRecord", "PolarimetryEstimate",
    "target_moments", "channel_purity", "predict", "correlation_table",
    "simulate", "event_records", "acceptance_fraction",
]
