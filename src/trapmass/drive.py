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

Every factor is a Gaussian unitary, so the k-fold cycle is one 3x3
Heisenberg matrix (analytic.heisenberg): the cycle's is diag(-i, i, 1)
times that of U_1b(t_1), its k-th power is the k-fold cycle's, and
analytic.fock_weight gives |<n|W|n>|^2 from the Ramsey generating function
with no truncation. gaussian_drive takes the overlap series of a Fock or
coherent state from these powers, and squeezed_overlaps the pure-squeezing
approximation from the matrices of S(2kr). iterate_drive is the truncated
model: the cycle product at the dim of any pure state, stopped at the
states.TAIL_BOUND gate. Its ground leg U_0b(t_0) is diagonal in the Fock
basis and scales the rows of the excited leg's `fock.spectrum` propagator,
so the cycle costs one real eigh and one real_matmul, with no dense
product by U_0b.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import analytic, fock, model
from .errors import DimensionMismatch, NotNormalized
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
    """U_0b(t_0) U_1b(t_1): the ground leg is the diagonal
    exp(-i omega_0 (n + 1/2) t_0) and scales the rows of U_1b, which takes
    one real eigh."""
    omega0 = model.derive_mode_frame(params, 0).omega_i
    frame1 = model.derive_mode_frame(params, sched.level)
    U1 = fock.spectrum(frame1, frame1.alpha_gi, dim).propagator(sched.t1)
    return np.exp(-1j * omega0 * (np.arange(dim) + 0.5) * sched.t0)[:, None] * U1


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


def _cycle_matrix(params: model.SystemParams, sched: DriveSchedule) -> np.ndarray:
    """Heisenberg matrix of U_0b(t_0) U_1b(t_1): U_0b(t_0) maps a to -i a, and
    U_1b is the Ramsey core's at x0 = x_shift_i (so its displacement is the
    frame's alpha_gi)."""
    x0 = model.derive_mode_frame(params, sched.level).x_shift_i
    vap = analytic.VacuumAmplitudeParams.from_system(params, sched.level, x0=x0)
    return np.diag([-1j, 1j, 1.0]) @ analytic.bounded_heisenberg(vap, sched.t1)


def _powers(H: np.ndarray, N: int) -> np.ndarray:
    """H^k for k = 1..N, shape (N, 3, 3), by doubling: each pass multiplies
    the block of powers found so far by the highest of them."""
    out = np.empty((N, 3, 3), dtype=complex)
    out[0] = H
    m = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while m < N:
            step = min(m, N - m)
            out[m : m + step] = out[m - 1] @ out[:step]
            m += step
    return out


def _overlaps(H: np.ndarray, n: int, alpha: complex) -> np.ndarray:
    """|<psi0|W|psi0>|^2 for each heisenberg matrix of H, psi0 = D(alpha)|n>:
    the weight of |n> under D(-alpha) W D(alpha)."""
    if n < 0:
        raise DimensionMismatch(f"Fock index {n} is negative")
    # As in ramsey.coherent_trace: |alpha|^2 enters the weight's exponent.
    if not cmath.isfinite(alpha * alpha):
        raise NotNormalized(f"alpha and alpha^2 must be finite, got {alpha}")
    if alpha != 0:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: weight 0.0
            H = analytic.heisenberg(1.0, 0.0, -alpha) @ H @ analytic.heisenberg(1.0, 0.0, alpha)
    return analytic.fock_weight(H, n)


@dataclass(frozen=True)
class DriveResult:
    """Overlap decay P_k = |<psi0|psi_k>|^2 through the cycle over
    k = 1..N cycles, N = exact.size; NaN at a k the route does not compute
    (iterate_drive: past the truncation-tail gate, or past N_EXACT_MAX;
    gaussian_drive: past analytic.DISPLACEMENT_FLOOR)."""

    exact: np.ndarray
    schedule: DriveSchedule


def gaussian_drive(params: model.SystemParams, N: int, level: int = 1,
                   n: int = 0, alpha: complex = 0j) -> DriveResult:
    """The overlap series of psi0 = D(alpha)|n> (|n> or |alpha>) from the
    powers of the cycle's Heisenberg matrix: exact at every k, with no
    truncation and no N limit; N >= 1. For n > 0 with gravity the k-fold
    displacement grows with the squeeze, and the series is NaN past
    analytic.DISPLACEMENT_FLOOR."""
    sched = drive_schedule(params, level)
    powers = _powers(_cycle_matrix(params, sched), N)
    return DriveResult(exact=_overlaps(powers, n, alpha), schedule=sched)


def squeezed_overlaps(params: model.SystemParams, N: int, level: int = 1,
                      n: int = 0, alpha: complex = 0j) -> np.ndarray:
    """|<psi0|S(2kr)|psi0>|^2 for k = 1..N, psi0 as in gaussian_drive: the
    pure-squeezing approximation, exact in S."""
    s = drive_schedule(params, level).effective_r(np.arange(1, N + 1))
    with np.errstate(over="ignore"):
        H = analytic.heisenberg(np.cosh(s), -np.sinh(s), 0.0)
    return _overlaps(H, n, alpha)


def iterate_drive(
    params: model.SystemParams,
    psi0: CMState,
    N: int,
    level: int = 1,
) -> DriveResult:
    """The overlap series of any pure psi0 through the truncated cycle
    product at the dim of psi0. For N > 10000 the product path is refused
    (accumulated roundoff and runtime) and exact is all NaN, with a warning.

    Tail gate: exact is NaN from the first k whose state psi_k has more than
    TAIL_BOUND of its weight beyond fock.interior(dim).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not psi0.is_pure:
        raise DimensionMismatch("iterate_drive requires a pure initial state")
    dim, m = psi0.dim, fock.interior(psi0.dim)
    sched = drive_schedule(params, level)
    exact = np.full(N, np.nan)
    if N <= N_EXACT_MAX:
        product = _cycle_product(params, sched, dim)
        bra = psi0.data.conj()
        psi = psi0.data.copy()
        for k in range(N):
            psi = product @ psi
            if np.vdot(psi[m:], psi[m:]).real > TAIL_BOUND:
                break
            exact[k] = abs(bra @ psi) ** 2
    else:
        warnings.warn(
            f"N={N} exceeds the exact-product limit {N_EXACT_MAX}; "
            "exact is all NaN",
            UserWarning,
        )
    return DriveResult(exact=exact, schedule=sched)


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
