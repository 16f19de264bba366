"""Optimal probabilistic separation of two pure quantum states.

Given two states with overlap ``s`` and prior probabilities
``(eta1, eta2)``, the package computes the minimum failure probability of
driving the overlap down to a target ``s_prime``, the smallest overlap
reachable under a failure budget, and the full tradeoff curve between the
two; cross-validates every closed form against a brute-force oracle; and
simulates a three-port linear-optics implementation of the equal-prior
protocol, photon counts included.

``import statesep`` loads no NumPy: each public name is imported from its
defining module on first access (PEP 562).  ``core``, ``conics``,
``solvers`` (the curve sweeps included) and ``oracle`` use ``math`` alone;
NumPy loads with the first use of ``optics`` or ``verify``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public names by defining module.
_EXPORTS = {
    "core": (
        "DomainError",
        "NumericError",
        "Priors",
        "OverlapSpec",
        "FailurePoint",
        "sqrt_clamped",
        "unitarity_residual",
    ),
    "conics": (
        "ConicPoint",
        "from_conic",
        "parabola_v",
        "ellipse_point",
        "conic_slopes",
        "tangency_residuals",
    ),
    "solvers": (
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
    ),
    "oracle": ("oracle_qmin",),
    "optics": (
        "ModeState",
        "Interferometer",
        "ShotCounts",
        "protocol_input",
        "build_interferometer",
        "apply",
        "simulate",
        "certify_separation",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    # Reached only for names not yet in the package namespace; the value is
    # cached there, so each name pays for its lookup once.
    if name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
