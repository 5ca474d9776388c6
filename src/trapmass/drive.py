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

Every factor is a Gaussian unitary, and the cycle maps a to
A1 a + B1 a^dag + d1 with the linear part of -S(2r), A1 = -cosh 2r and
B1 = sinh 2r. This affine map has one fixed point z*, so the cycle is
D(z*) (-S(2r)) D(z*)^dag up to a phase and the k-fold cycle is
D(z*) (-1)^k S(2kr) D(z*)^dag in closed form. gaussian_drive takes the
overlap series of psi0 = D(alpha)|n> from analytic.fock_weight, the weight
of |n> under that squeeze conjugated by D(alpha - z*), exact at every k
with no truncation; squeezed_overlaps is the pure-squeezing approximation
S(2kr), the same call with z* = 0 and no sign. iterate_drive is the truncated
model: the cycle product at the dim of any pure state, stopped at the
states.TAIL_BOUND gate. Its ground leg U_0b(t_0) is diagonal in the Fock
basis and scales the rows of the excited leg's `fock.spectrum` propagator,
so the cycle costs one real eigh and one real_matmul, with no dense
product by U_0b. Each cycle then multiplies only the block of the product
that can change a double into psi: the columns of fock.support(psi) and
the rows those columns reach, so psi moves by at most
tau = (eps / 4) sum |psi| per cycle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import analytic, fock, model
from .errors import DimensionMismatch
from .states import TAIL_BOUND, CMState

N_EXACT_MAX = 10_000
# Cycles of iterate_drive per evaluation of its tail gate and overlaps.
_BLOCK = 64


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
    params._check_transition(level)
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
    parity = (-1.0) ** np.arange(dim)  # P = exp(-i pi n) as a row sign
    comparator = (
        -1j * parity[:, None] * fock.squeeze_matrix(dim, sched.per_cycle_r)
    ) @ fock.displace_matrix(dim, sched.beta_g)
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
    psi = op[:, 0] / np.linalg.norm(op[:, 0])
    return fock.ladder_moment(psi, 1)


def _fixed_point(params: model.SystemParams, sched: DriveSchedule) -> complex:
    """The fixed point z* of the cycle's map z -> A1 z + B1 conj(z) + d1.

    U_0b(t_0) maps a to -i a, and U_1b(t_1) = U_0b(t_1) W(t_1), W the Ramsey
    core's U_0b^dag U_1b (analytic._bogoliubov) at omega_1 t_1 = pi/2 and
    x0 = x_shift_i, so with S = VacuumAmplitudeParams.S = e^{2r} the cycle has
    A1 = -cosh 2r, B1 = sinh 2r (the linear part of -S(2r)) and
    d1 = x_shift sqrt(a0/2) (i - 1/S).
    Solving the real 2x2 system, Re z* = Re d1 / (1 + 1/S) and
    Im z* = Im d1 / (1 + S), that is z* = x_shift sqrt(a0/2) (i - 1) / (1 + S).
    """
    x0 = model.derive_mode_frame(params, sched.level).x_shift_i
    vap = analytic.VacuumAmplitudeParams.from_system(params, sched.level, x0=x0)
    return vap.x0 * math.sqrt(0.5 * vap.a0) * (1j - 1.0) / (1.0 + vap.S)


def _overlaps(s: np.ndarray, sign: np.ndarray | float, n: int, alpha: complex,
              z_star: complex = 0j) -> np.ndarray:
    """|<psi0|W_k|psi0>|^2 for psi0 = D(alpha)|n> and
    W_k = D(z*) sign_k S(s_k) D(z*)^dag: the weight of |n> under
    D(beta)^dag sign_k S(s_k) D(beta), beta = alpha - z*."""
    with np.errstate(over="ignore"):  # overflow: weight 0.0
        return analytic.fock_weight(sign * np.cosh(s), -sign * np.sinh(s),
                                    alpha - z_star, n)


def _check_cycles(N: int) -> None:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")


@dataclass(frozen=True)
class DriveResult:
    """Overlap decay P_k = |<psi0|psi_k>|^2 through the cycle over
    k = 1..N cycles, N = exact.size; NaN at a k that iterate_drive does not
    compute (past its truncation-tail gate, or past N_EXACT_MAX).
    gaussian_drive is finite at every k."""

    exact: np.ndarray
    schedule: DriveSchedule


def gaussian_drive(params: model.SystemParams, N: int, level: int = 1,
                   n: int = 0, alpha: complex = 0j) -> DriveResult:
    """The overlap series of psi0 = D(alpha)|n> (|n> or |alpha>) in closed
    form: the cycle is W = D(z*) (-S(2r)) D(z*)^dag (_fixed_point), so
    W^k = D(z*) (-1)^k S(2kr) D(z*)^dag and the weight at every k is that of
    |n> under a squeeze conjugated by the one displacement D(alpha - z*).
    Exact at every k, with no truncation and no N limit; N >= 1."""
    _check_cycles(N)
    sched = drive_schedule(params, level)
    k = np.arange(1, N + 1)
    exact = _overlaps(sched.effective_r(k), (-1.0) ** k, n, alpha, _fixed_point(params, sched))
    return DriveResult(exact=exact, schedule=sched)


def squeezed_overlaps(params: model.SystemParams, N: int, level: int = 1,
                      n: int = 0, alpha: complex = 0j) -> np.ndarray:
    """|<psi0|S(2kr)|psi0>|^2 for k = 1..N, psi0 as in gaussian_drive: the
    pure-squeezing approximation, exact in S; N >= 1."""
    _check_cycles(N)
    return _overlaps(drive_schedule(params, level).effective_r(np.arange(1, N + 1)),
                     1.0, n, alpha)


def iterate_drive(
    params: model.SystemParams,
    psi0: CMState,
    N: int,
    level: int = 1,
) -> DriveResult:
    """The overlap series of any pure psi0 through the truncated cycle
    product at the dim of psi0. For N > 10000 the product path is refused
    (accumulated roundoff and runtime) and exact is all NaN, with a warning.

    Each cycle multiplies only product[:r, :s] into psi: the entries of psi
    past s = fock.support(psi) hold at most tau / 2, tau = (eps / 4) sum |psi|,
    and past r = _reach(product)[s - 1] the kept columns put at most
    (eps / 8) sum |psi| = tau / 2. The product is unitary, so
    |P_k - P_k(dense loop)| <= 2 sum_{j <= k} tau_j.

    Tail gate: exact is NaN from the first k whose state psi_k has more than
    TAIL_BOUND of its weight beyond fock.interior(dim). The gate and the
    overlaps are evaluated once per _BLOCK cycles.
    """
    _check_cycles(N)
    if not psi0.is_pure:
        raise DimensionMismatch("iterate_drive requires a pure initial state")
    dim, m = psi0.dim, fock.interior(psi0.dim)
    sched = drive_schedule(params, level)
    exact = np.full(N, np.nan)
    if N <= N_EXACT_MAX:
        product = _cycle_product(params, sched, dim)
        reach = _reach(product)
        bra = psi0.data.conj()
        psi = psi0.data
        for lo in range(0, N, _BLOCK):
            block = np.zeros((min(_BLOCK, N - lo), dim), dtype=complex)
            for row in block:
                s = fock.support(psi)
                r = reach[s - 1]
                np.matmul(product[:r, :s], psi[:s], out=row[:r])
                psi = row
            tails = np.einsum("ki,ki->k", block[:, m:].conj(), block[:, m:]).real
            gated = np.flatnonzero(tails > TAIL_BOUND)
            stop = gated[0] if gated.size else block.shape[0]
            exact[lo : lo + stop] = np.abs(block[:stop] @ bra) ** 2
            if gated.size:
                break
    else:
        warnings.warn(
            f"N={N} exceeds the exact-product limit {N_EXACT_MAX}; "
            "exact is all NaN",
            UserWarning,
        )
    return DriveResult(exact=exact, schedule=sched)


def _reach(U: np.ndarray) -> np.ndarray:
    """reach[j]: the number of leading rows outside which none of the
    columns 0..j of U holds more than eps / 8 in modulus."""
    tails = np.abs(U[::-1]).cumsum(axis=0)[::-1]
    return np.maximum.accumulate(np.count_nonzero(tails > 0.125 * np.finfo(float).eps, axis=0))


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
