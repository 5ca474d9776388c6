"""Clock observables: transition energy gaps, fractional frequency shifts
over trap-frequency grids (shift_table), the gravitational lower bound with
its optimal trap frequency, and thermal-state shifts.

Angular frequencies are in rad/s throughout; "omega0 ~ 1 MHz" means
1e6 rad/s (the 2*pi convention changes nothing at the order-of-magnitude
level the reference values are quoted at).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constants, model
from .errors import NonPositiveMass, ZeroGravity


@dataclass(frozen=True)
class ShiftReport:
    """Transition energy gap and its fractional-shift decomposition.

    fractional_shift = gap/E_i - 1. components holds the two lowest-order
    contributions: gravitational = -g^2/omega0^2 c^2 and
    time_dilation = -(hbar omega0 / 2 M0 c^2)(n + 1/2). From energy_gap
    every value is a float; from shift_table the gaps, the shift and the
    components are arrays over its omega0 grid.
    """

    level: int
    n: float
    exact_gap: float
    lowest_order_gap: float
    fractional_shift: float
    components: dict


@dataclass(frozen=True)
class OptimalPoint:
    """Trap frequency minimizing the total shift, and the minimum value."""

    n: float
    omega_min: float
    delta_min: float


def _lowest_order_terms(params: model.SystemParams, omega0, n: float) -> tuple:
    """(gravitational, time_dilation) components; their sum is the
    lowest-order fractional shift."""
    grav = -params.g**2 / (omega0**2 * params.c**2)
    dilation = -(params.hbar * omega0 / (2.0 * params.M0 * params.c**2)) * (n + 0.5)
    return grav, dilation


def shift_table(params: model.SystemParams, level: int, omega0, n: float) -> ShiftReport:
    """Exact and lowest-order transition energy between levels i = level and
    0 at CM occupation n, for every trap frequency in omega0.

    Exact gap: (offset_i - offset_0) + hbar (omega_i - omega_0)(n + 1/2),
    evaluated without rest-mass cancellation. The trap enters only through
    omega0 (k = M0 omega0^2), in the time unit of params, so one
    SystemParams serves a whole grid. Every omega0 must be finite and > 0.
    """
    params._check_transition(level)
    if n < 0:
        raise ValueError(f"occupation must be >= 0, got {n}")
    E_i = params.levels[level]
    omega0 = np.asarray(omega0, dtype=float)
    bad = ~(np.isfinite(omega0) & (omega0 > 0))
    if bad.any():
        raise NonPositiveMass("omega0", float(omega0[bad].flat[0]))
    # gap - E_i assembled from small differences only: the fractional shift
    # (~1e-19 in SI regimes) would vanish entirely if computed as
    # gap/E_i - 1 in doubles.
    # The mass defect comes from the level energies, not from M_i - M0,
    # which keeps only the digits of M_i that survive rounding.
    frame = model.derive_mode_frame(params, level)
    k = params.M0 * omega0**2
    grav_part = -(params.g**2 / (2.0 * k)) * frame.delta_M * (frame.M_i + params.M0)
    domega = omega0 * frame.omega_shift_i
    dilation_part = params.hbar * domega * (n + 0.5)
    gap_minus_E = grav_part + dilation_part
    grav, dilation = _lowest_order_terms(params, omega0, n)
    return ShiftReport(
        level=level,
        n=float(n),
        exact_gap=E_i + gap_minus_E,
        lowest_order_gap=E_i * (1.0 + grav + dilation),
        fractional_shift=gap_minus_E / E_i,
        components={"gravitational": grav, "time_dilation": dilation},
    )


def energy_gap(params: model.SystemParams, i: int, n: float) -> ShiftReport:
    """shift_table at the one trap frequency params.omega0, as floats."""
    return shift_table(params, i, params.omega0, n)


def minimal_shift(params: model.SystemParams, n: float = 0.0) -> OptimalPoint:
    """Closed-form optimum of the lowest-order shift over trap frequency.

    omega_min = (4 g^2 M0 / hbar (n+1/2))^(1/3) maximizes the (negative)
    shift; delta_min = -(3/(2*2^(1/3))) (hbar g (n+1/2) / c^3 M0)^(2/3).
    verify.oracle_minshift checks both against a numerical minimization.
    """
    if params.g <= 0:
        raise ZeroGravity("shift is monotone in omega0 when g = 0; no minimum")
    if n < 0:
        raise ValueError(f"occupation must be >= 0, got {n}")
    g, M0, hbar, c = params.g, params.M0, params.hbar, params.c
    half = n + 0.5
    omega_min = (4.0 * g**2 * M0 / (hbar * half)) ** (1.0 / 3.0)
    delta_min = -(3.0 / (2.0 * 2.0 ** (1.0 / 3.0))) * (
        hbar * g * half / (c**3 * M0)
    ) ** (2.0 / 3.0)
    return OptimalPoint(n=float(n), omega_min=omega_min, delta_min=delta_min)


def thermal_shift(params: model.SystemParams, T: float, i: int = 1) -> ShiftReport:
    """Shift for a thermal CM distribution via <n> = k_B T / hbar omega0.

    High-occupation approximation; the time-dilation component approaches
    -k_B T / 2 M0 c^2.
    """
    if T <= 0:
        raise ValueError(f"temperature must be > 0, got {T}")
    n_mean = constants.K_B * T / (params.hbar * params.omega0)
    return energy_gap(params, i, n_mean)
