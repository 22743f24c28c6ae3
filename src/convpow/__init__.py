"""Exact arithmetic for convolution powers of a truncated 1/x kernel.

The package computes, over arbitrary-precision rationals, the coefficient
recurrences behind repeated self-convolution of the kernel that vanishes
below a cutoff and equals 1/(x+a) above it.  All transcendental outputs
can be cross-checked against independent numerical quadrature oracles;
the `verify` module bundles those cross-checks into named suites and the
command line exposes them.

``import convpow`` loads only the series path: `series`, `qcoeff` and
`fdecomp` (and `combinatorics` through them).  The verification names
``compute_a_matrix``, ``ConvParams``, ``conv_power_quadrature``,
``f_from_conv``, ``f_quadrature_oracle``, ``reconstruct_from_f`` and
``QuadratureError`` load their module (`amatrix`, `convolution`,
`quadrature`) on first access (PEP 562).
"""

import importlib

from .series import DEFAULT_ORDER, DEFAULT_PREC, EvalResult, PowerSeriesInvX
from .qcoeff import log_expansion_q_list, q_closed_form, q_via_recurrence
from .fdecomp import BetaTable, beta_table, f_eval, make_f_evaluator

#: Root names whose module is imported on first access, and that module.
_LAZY = {
    "compute_a_matrix": ".amatrix",
    "ConvParams": ".convolution",
    "conv_power_quadrature": ".convolution",
    "f_from_conv": ".convolution",
    "f_quadrature_oracle": ".convolution",
    "reconstruct_from_f": ".convolution",
    "QuadratureError": ".quadrature",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(_LAZY[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "DEFAULT_ORDER",
    "DEFAULT_PREC",
    "BetaTable",
    "ConvParams",
    "EvalResult",
    "PowerSeriesInvX",
    "QuadratureError",
    "beta_table",
    "compute_a_matrix",
    "conv_power_quadrature",
    "f_eval",
    "f_from_conv",
    "f_quadrature_oracle",
    "log_expansion_q_list",
    "make_f_evaluator",
    "q_closed_form",
    "q_via_recurrence",
    "reconstruct_from_f",
]

__version__ = "0.1.0"
