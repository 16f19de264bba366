"""Optimal probabilistic separation of two pure quantum states.

Given two states with overlap ``s`` and prior probabilities
``(eta1, eta2)``, the package computes the minimum failure probability of
driving the overlap down to a target ``s_prime``, the smallest overlap
reachable under a failure budget, and the full tradeoff curve between the
two; cross-validates every closed form against a brute-force oracle; and
simulates a three-port linear-optics implementation of the equal-prior
protocol, photon counts included.
"""

__version__ = "0.1.0"

from .conics import (
    ConicPoint,
    PolarAngle,
    conic_slopes,
    ellipse_point,
    from_conic,
    parabola_v,
    tangency_residuals,
    to_conic,
)
from .core import (
    DomainError,
    EndpointTangencyReport,
    FailureBudget,
    FailurePoint,
    NumericError,
    OverlapSpec,
    Priors,
    average_failure,
    endpoint_tangency_check,
    in_feasible_set,
    sqrt_clamped,
    unitarity_residual,
)
from .optics import (
    Interferometer,
    ModeState,
    ShotCounts,
    apply,
    build_interferometer,
    certify_separation,
    protocol_input,
    simulate,
)
from .oracle import OracleConfig, oracle_max_separation, oracle_qmin
from .solvers import (
    UNBOUNDED,
    QminSample,
    TradeoffSample,
    critical_overlap,
    curve_point,
    max_clones,
    max_separation,
    phase_transition_probe,
    q_ud,
    qmin_at,
    qmin_curve,
    t_slope_minus_one,
    t_slope_zero,
    tradeoff_at,
    tradeoff_curve,
    ud_tangency_point,
)

__all__ = [
    "__version__",
    # core
    "DomainError",
    "NumericError",
    "Priors",
    "OverlapSpec",
    "FailurePoint",
    "FailureBudget",
    "EndpointTangencyReport",
    "sqrt_clamped",
    "average_failure",
    "unitarity_residual",
    "in_feasible_set",
    "endpoint_tangency_check",
    # conics
    "ConicPoint",
    "PolarAngle",
    "to_conic",
    "from_conic",
    "parabola_v",
    "ellipse_point",
    "conic_slopes",
    "tangency_residuals",
    # solvers
    "QminSample",
    "TradeoffSample",
    "UNBOUNDED",
    "t_slope_minus_one",
    "t_slope_zero",
    "q_ud",
    "ud_tangency_point",
    "curve_point",
    "qmin_curve",
    "qmin_at",
    "max_separation",
    "critical_overlap",
    "tradeoff_curve",
    "tradeoff_at",
    "max_clones",
    "phase_transition_probe",
    # oracle
    "OracleConfig",
    "oracle_qmin",
    "oracle_max_separation",
    # optics
    "ModeState",
    "Interferometer",
    "ShotCounts",
    "protocol_input",
    "build_interferometer",
    "apply",
    "simulate",
    "certify_separation",
]
