"""Periodic internal-flip driving: per-cycle squeezing accumulation.

Alternating free evolution for quarter periods t_i = pi/2 omega_i of the
two internal levels concatenates into, per cycle (bounded parts, ground-mode
basis, zero-point phases included),

    U_0b(t_0) U_1b(t_1) = -i e^{-i alpha_g^2} P S(2r) D(gamma),
    gamma = alpha_g (e^{r} - i e^{-r}),

where P = exp(-i pi n) is the parity operator and r = r_1 < 0 for a positive
internal gap. The closed-form comparator used throughout drops only the
O(alpha_g^2) scalar phase, so its deviation from the exact product is
second order in Delta_M/M_0. Over an even number of cycles the parity and
displacement contributions cancel to first order and the squeezing
accumulates to S(2Nr).

Every unitary here comes from a real eigh through `fock.Spectrum`. The
pure-squeezing series is a spectral sum over the squeeze spectrum (w, V),
<psi0|S(s)|psi0> = sum_n |(V^dag psi0)_n|^2 e^{i s w_n}, O(dim) per cycle.
Both truncated series stop at the states.TAIL_BOUND gate of iterate_drive.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fock, model
from .errors import DimensionMismatch
from .states import TAIL_BOUND, CMState

N_EXACT_MAX = 10_000


@dataclass(frozen=True)
class DriveSchedule:
    """Timing and closed-form per-cycle quantities of the drive protocol."""

    level: int
    t0: float
    t1: float
    per_cycle_r: float      # 2 r_1 (signed; negative for a positive gap)
    beta_g: complex         # gamma above

    def effective_r(self, N: int) -> float:
        """Accumulated squeeze parameter 2 N r ~ -N E_1 / 2 M_0 c^2."""
        return self.per_cycle_r * N


def drive_schedule(params: model.SystemParams, level: int = 1) -> DriveSchedule:
    frame = model.derive_mode_frame(params, level)
    r = frame.r_i
    gamma = frame.alpha_gi * (math.exp(r) - 1j * math.exp(-r))
    return DriveSchedule(
        level=level,
        t0=math.pi / (2.0 * params.omega0),
        t1=math.pi / (2.0 * frame.omega_i),
        per_cycle_r=2.0 * r,
        beta_g=gamma,
    )


@dataclass(frozen=True)
class CycleOperator:
    """Exact bounded cycle product and its closed-form comparator."""

    product: np.ndarray
    comparator: np.ndarray
    schedule: DriveSchedule


def cycle_operator(params: model.SystemParams, dim: int, level: int = 1) -> CycleOperator:
    """U_0b(t_0) U_1b(t_1) and the comparator -i P S(2r) D(gamma).

    Only the bounded propagators enter; the scalar rest-energy phases of the
    two legs multiply both matrices identically and are left out.
    """
    sched = drive_schedule(params, level)
    product = _cycle_product(params, sched, dim)
    comparator = (
        -1j
        * fock.parity_matrix(dim)
        @ fock.squeeze_matrix(dim, sched.per_cycle_r)
        @ fock.displace_matrix(dim, sched.beta_g)
    )
    return CycleOperator(product=product, comparator=comparator, schedule=sched)


def _cycle_product(params: model.SystemParams, sched: DriveSchedule, dim: int) -> np.ndarray:
    """U_0b(t_0) U_1b(t_1): the ground leg is diagonal, the excited leg
    takes one real eigh."""
    frame0 = model.derive_mode_frame(params, 0)
    frame1 = model.derive_mode_frame(params, sched.level)
    U0 = fock.spectrum(frame0, frame0.alpha_gi, dim).propagator(sched.t0)
    U1 = fock.spectrum(frame1, frame1.alpha_gi, dim).propagator(sched.t1)
    return U0 @ U1


def comparator_deviation(cycle: CycleOperator) -> float:
    """Spectral-norm distance between product and comparator on the interior
    block (truncation corrupts the outermost rows of both)."""
    m = fock.interior(cycle.product.shape[0])
    diff = cycle.product[:m, :m] - cycle.comparator[:m, :m]
    return float(np.linalg.norm(diff, 2))


def displacement_component(op: np.ndarray) -> complex:
    """First moment <a> of op|0>, normalized; reads off the displacement of
    a Gaussian unitary without a matrix logarithm."""
    dim = op.shape[0]
    psi = op[:, 0].copy()
    psi /= np.linalg.norm(psi)
    a = fock.annihilation(dim)
    return complex(psi.conj() @ (a @ psi))


@dataclass(frozen=True)
class DriveResult:
    """Overlap decay P_k = |<psi0|psi_k>|^2 over k = 1..N cycles,
    N = approx.size. A series is NaN at the k it does not compute: past
    the truncation-tail gate (see iterate_drive), or exact past N_EXACT_MAX."""

    exact: np.ndarray             # from repeated matrix products
    approx: np.ndarray            # |<psi0|S(2kr)|psi0>|^2
    schedule: DriveSchedule


def iterate_drive(
    params: model.SystemParams,
    psi0: CMState,
    N: int,
    level: int = 1,
) -> DriveResult:
    """Overlap series computed exactly and in the pure-squeezing
    approximation, at the dim of psi0. For N > 10000 the exact product path
    is refused (accumulated roundoff and runtime) and exact is all NaN, with
    a warning.

    Tail gate: a series is NaN from the first k whose state has more than
    TAIL_BOUND of its weight beyond fock.interior(dim). The exact loop checks
    psi_k each cycle; the approximation checks S(s_N) psi0, and only if that
    fails bisects for a failing k whose predecessor passes.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not psi0.is_pure:
        raise DimensionMismatch("iterate_drive requires a pure initial state")
    dim, m = psi0.dim, fock.interior(psi0.dim)
    sched = drive_schedule(params, level)

    def breaks_gate(psi: np.ndarray) -> bool:
        return np.vdot(psi[m:], psi[m:]).real > TAIL_BOUND

    # Approximation: the spectral sum of the module docstring.
    spec = fock.squeeze_spectrum(dim)
    coeffs = spec.V.conj().T @ psi0.data
    weights = np.abs(coeffs) ** 2
    approx = np.empty(N)
    for k in range(N):
        approx[k] = abs(weights @ np.exp(1j * sched.effective_r(k + 1) * spec.w)) ** 2

    def squeezed_fails(k: int) -> bool:
        return breaks_gate(spec.V @ (np.exp(1j * sched.effective_r(k) * spec.w) * coeffs))

    if squeezed_fails(N):
        passing, failing = 0, N
        while failing - passing > 1:
            mid = (passing + failing) // 2
            passing, failing = (passing, mid) if squeezed_fails(mid) else (mid, failing)
        approx[failing - 1 :] = np.nan

    exact = np.full(N, np.nan)
    if N <= N_EXACT_MAX:
        product = _cycle_product(params, sched, dim)
        psi = psi0.data.copy()
        for k in range(N):
            psi = product @ psi
            if breaks_gate(psi):
                break
            exact[k] = abs(psi0.data.conj() @ psi) ** 2
    else:
        warnings.warn(
            f"N={N} exceeds the exact-product limit {N_EXACT_MAX}; "
            "returning only the S(2Nr) approximation",
            UserWarning,
        )
    return DriveResult(exact=exact, approx=approx, schedule=sched)


def vacuum_overlap_closed_form(total_r: float) -> float:
    """|<0|S(s)|0>|^2 = 1/cosh(s) for the accumulated squeeze s, written in
    e^{-|s|} so that it falls to 0.0 instead of overflowing."""
    x = math.exp(-abs(total_r))
    return 2.0 * x / (1.0 + x * x)


def position_variance_growth(params: model.SystemParams, N: int, level: int = 1) -> dict:
    """Fractional quadrature-variance changes after N cycles.

    The accumulated squeeze 2N|r| widens the position quadrature (the
    excited-level trap is softer, omega_1 < omega_0) and narrows momentum:
    position -> exp(+4N|r|) - 1, momentum -> exp(-4N|r|) - 1. A position
    growth beyond the double range is math.inf.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    sched = drive_schedule(params, level)
    s = abs(sched.effective_r(N))
    try:
        position = math.expm1(2.0 * s)
    except OverflowError:
        position = math.inf
    return {"position": position, "momentum": math.expm1(-2.0 * s)}
