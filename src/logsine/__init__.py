"""logsine: exact and numeric evaluation of generalized log-sine integrals.

Two cross-validating pipelines: a symbolic one producing exact rational
combinations over the constant basis {pi, log 2, zeta(odd), zb1(odd)} via
complete Bell polynomials of polygamma/harmonic sequences, and a numeric one
built on double-exponential quadrature and accelerated series.
"""

from .bell import (
    bell_binomial_convolution,
    bell_cot_closed_form,
    complete_bell,
    complete_bell_recurrence,
)
from .binomderiv import (
    DerivSpec,
    binom_deriv,
    central_binom_deriv,
    delta_numeric,
    eta_bar,
    rho,
    shifted_binom_deriv,
    taylor_coefficient_oracle,
    xi_bar,
    xi_bar_scaled,
)
from .integrals import (
    ClosedFormResult,
    IntegralSpec,
    log_sin_power_integral,
    log_sine_any_angle,
    log_sine_integral,
    quadrature_value,
    sine_power_moment_exact,
    sine_power_moment_numeric,
)
from .numerics import (
    AccelerationError,
    NumericConfig,
    QuadratureError,
    accelerate_alternating,
    cot_derivative,
    polygamma_real,
    richardson_derivative,
    tanh_sinh_quadrature,
    zeta_numeric,
)
from .specialfn import (
    alt_euler_sum_H,
    bernoulli,
    eta_value,
    euler_sum_H,
    harmonic,
    polygamma_int,
    zeta_bar1_numeric,
)
from .symbolic import (
    SymbolicValue,
    eval_numeric,
    parse_text,
    sym_log2,
    sym_pi,
    sym_zeta,
    sym_zeta_bar1,
    sym_zeta_odd,
    zeta_even,
)

__version__ = "0.1.0"
