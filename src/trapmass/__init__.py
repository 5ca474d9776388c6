"""Simulation toolkit for mass-energy equivalence in trapped quantum particles.

Modules:
    model       physical parameters, unit systems, per-level mode frames
    fock        truncated Fock-space operators and propagators
    states      pure/mixed center-of-mass states
    ramsey      exact Ramsey interference traces: Gaussian, Fock, truncated
    analytic    closed-form amplitudes, shifts, and approximations
    clock       transition gaps, frequency shifts, thermal-state shifts
    drive       periodic internal driving and squeezing accumulation
    phasespace  mixed CM evolution and Husimi Q diagnostics
    verify      independent brute-force oracle harness
    cli         command-line front end
"""

from . import analytic, clock, constants, drive, errors, fock, model, phasespace, ramsey, states, verify
from .model import SystemParams, ModeFrame, build_system, derive_mode_frame, offset_gap
from .states import (CMState, Preparation, coherent_state, fock_state, mixed_state, pure_state,
                     thermal_state_cm)
from .ramsey import RamseyTrace, exact_trace, fock_trace, gaussian_trace, ramsey_trace

__version__ = "0.1.0"

__all__ = [
    "analytic", "clock", "constants", "drive", "errors", "fock", "model",
    "phasespace", "ramsey", "states", "verify",
    "SystemParams", "ModeFrame", "build_system", "derive_mode_frame", "offset_gap",
    "CMState", "Preparation", "coherent_state", "fock_state", "mixed_state", "pure_state",
    "thermal_state_cm",
    "RamseyTrace", "exact_trace", "gaussian_trace", "fock_trace", "ramsey_trace", "__version__",
]
