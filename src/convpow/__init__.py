"""Exact arithmetic for convolution powers of a truncated 1/x kernel.

The package computes, over arbitrary-precision rationals, the coefficient
recurrences behind repeated self-convolution of the kernel that vanishes
below a cutoff and equals 1/(x+a) above it.  All transcendental outputs
can be cross-checked against independent numerical quadrature oracles;
the `verify` module bundles those cross-checks into named suites and the
command line exposes them.
"""

from .series import DEFAULT_ORDER, DEFAULT_PREC, EvalResult, PowerSeriesInvX
from .amatrix import compute_a_matrix
from .qcoeff import log_expansion_q_list, q_closed_form, q_via_recurrence
from .fdecomp import BetaTable, beta_table, f_eval, make_f_evaluator
from .convolution import ConvParams, conv_power_quadrature, f_from_conv, f_quadrature_oracle, reconstruct_from_f
from .quadrature import QuadratureError

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
