"""Exact arithmetic for convolution powers of a truncated 1/x kernel.

The package computes, over arbitrary-precision rationals, the coefficient
recurrences behind repeated self-convolution of the kernel that vanishes
below a cutoff and equals 1/(x+a) above it.  All transcendental outputs
can be cross-checked against independent numerical quadrature oracles;
the `verify` module bundles those cross-checks into named suites and the
command line exposes them.
"""

from .series import (
    DEFAULT_ORDER,
    DEFAULT_PREC,
    EvalResult,
    LogSeries,
    PowerSeriesInvX,
    backward_diff,
    harmonic_h,
    li1_power,
    logseries_eval,
    series_eval,
    shift_s,
)
from .amatrix import a_determinant, check_special_values, compute_a_matrix
from .qcoeff import log_expansion_q_list, q_closed_form, q_via_recurrence
from .fdecomp import (
    BetaTable,
    beta_table,
    build_j_iterate,
    derivative_residual,
    f_eval,
    make_f_evaluator,
    reflection_residual,
)
from .convolution import (
    ConvParams,
    conv_power_quadrature,
    f_from_conv,
    f_quadrature_oracle,
    j_iterate_from_f_oracle,
    reconstruct_from_f,
    varphi,
)
from .quadrature import QuadratureError

__all__ = [
    "DEFAULT_ORDER",
    "DEFAULT_PREC",
    "BetaTable",
    "ConvParams",
    "EvalResult",
    "LogSeries",
    "PowerSeriesInvX",
    "QuadratureError",
    "a_determinant",
    "backward_diff",
    "beta_table",
    "build_j_iterate",
    "check_special_values",
    "compute_a_matrix",
    "conv_power_quadrature",
    "derivative_residual",
    "f_eval",
    "f_from_conv",
    "f_quadrature_oracle",
    "harmonic_h",
    "j_iterate_from_f_oracle",
    "li1_power",
    "log_expansion_q_list",
    "logseries_eval",
    "make_f_evaluator",
    "q_closed_form",
    "q_via_recurrence",
    "reconstruct_from_f",
    "reflection_residual",
    "series_eval",
    "shift_s",
    "varphi",
]

__version__ = "0.1.0"
