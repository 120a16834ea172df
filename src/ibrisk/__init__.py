"""Cascade-risk simulation on interbank lending networks.

Quantifies contagion risk via seeded distress cascades and evaluates
how a reserve tax funding a common rescue pool changes that risk and
the risk-adjusted return on investment.
"""

from .calibration import (
    CalibratedNetwork,
    CalibrationParams,
    PropagationWeights,
    calibrate,
    propagation_weights,
)
from .contagion import (
    CascadeEnsemble,
    compute_rescue_payouts,
    run_cascade,
    run_ensemble,
)
from .errors import (
    CalibrationError,
    IbRiskError,
    InputError,
    InvariantError,
    ParameterError,
)
from .experiments import (
    IsoPoint,
    SweepRow,
    SyntheticSpec,
    evaluate_point,
    generate_synthetic,
    iso_curve,
    sweep,
)
from .network import (
    FinancialNetwork,
    NodeStrengths,
    Trades,
    aggregate_file,
    aggregate_window,
    ingest_file,
    ingest_transactions,
    node_strengths,
    read_snapshot,
    validate_network,
    write_snapshot,
)
from .risk import (
    cascade_risk,
    cascade_risk_general,
    conditional_default_matrix,
    debtrank_metric,
    default_probabilities,
    systemic_probabilities,
)
from .roi import RoiRates, nominal_roi, risk_adjusted_roi

__version__ = "0.1.0"
