"""Exact Ramsey interference traces Tr{U_1(t) rho U_0^dag(t)}.

Geometry convention: the particle is prepared in the trap of the ground
internal level, whose center sits a distance x0 from the center of the
excited-level trap. The default x0 = g/omega0^2 reproduces the standard
gravitational-sag separation; x0 = 0 gives the gravity-free case. The mode
basis is that of the ground-level trap, so U_0_bounded is diagonal and the
excited-level bounded Hamiltonian is

    H_1b = hbar omega_1 (a_1^dag a_1 + 1/2),
    a_1  = cosh(r) a - sinh(r) a^dag + sqrt(M_1 omega_1 / 2 hbar) x0.

The enormous rest-energy phases enter only through the cancellation-safe
offset gap (see model.offset_gap); the co-rotating frame uses its own
cancellation-free rate (see _corotating_rate_per_omega0).

Phase rule. A trace is bounded(t) exp(-i offset(t)), offset = rate t with a
known scalar rate. A grid resolves the bounded factor, which varies on the
trap time scale, but not the SI lab-frame rate (~3e7 rad a step on the
default grid). So a RamseyTrace keeps both factors, and its phase subtracts
offset from the unwrapped arg(bounded) instead of unwrapping it.

Solver paths. All three traces share one prologue (_trace): it resolves x0
through analytic.VacuumAmplitudeParams.from_system and pairs a bounded
trace with the scalar phase. Every CLI state type has an exact bounded trace
with no truncation and no eigensolve (dim None), read with no rotation from
the Gaussian core's W = U_0b^dag U_1b: gaussian_trace (the displaced thermal
state D(alpha) rho_th(nbar) D(alpha)^dag: the vacuum, coherent |alpha> and
thermal states) from the Gaussian kernel analytic.gaussian_amplitude, one
value per time, and fock_trace (|n>) from analytic.fock_diagonal, the
kernel's y^n coefficient: an O(n^2) power series per time up to n = 1500, a
circle sum of O(n) points above, in blocks whose size does not grow with n.
ramsey_trace takes any CMState and evolves it at its own dim: it is the
truncated model and the oracle of the other two, and the only one that
reads a CMState. a_1 is real, so H_1b is built from fock.mode_number, the
real pentadiagonal number operator written from its bands in O(dim), and
fock.spectrum solves it with one real eigh, giving a real eigenbasis V1;
U_0b needs no solve. Only what can change a double is built and
contracted: C[n, m] = V1[m, n] (V1^T rho)[n, m] is built from the s x s
rho = fock.block of the state, s = fock.support, in dim s^2 flops rather
than dim^3, and of C the trailing Fock columns m holding at most tau_C / 2
of sum |C| and then the eigen-rows n holding at most tau_C / (2 dim) of it
in the kept columns are left out, tau = (eps / 4) sum |.| of each. Each trace
point moves by at most tau_rho + tau_C (1.1e-16 for a normalized thermal
state, whose sum |rho| and sum |C| are 1). The time grid is contracted in
fixed chunks of _TIME_CHUNK times, with real products where C is real. At
dim 512 a thermal state of nbar 0.5 to 5 keeps 35 to 210 columns and 37
to 404 rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import analytic, fock, model, states
from .states import CMState

# Visibility below which a trace point's phase is reported as NaN: far above
# the ~1e-13 roundoff of the trace, whose phase there would be noise.
PHASE_FLOOR = 1e-10
# Time points per batched contraction; bounds each temporary of _bounded_trace
# by _TIME_CHUNK x dim.
_TIME_CHUNK = 256


@dataclass(frozen=True)
class RamseyTrace:
    """Interference trace between levels 0 and level over a non-decreasing
    time grid, kept as its two factors, and the series derived from them.

    bounded is the trace of the bounded (trap) Hamiltonians, and offset the
    unreduced scalar phase rate t: the offset gap over hbar times t in the
    lab frame, (rate / omega0)(omega0 t) in the co-rotating one. trace =
    bounded exp(-i (offset mod 2 pi)) is formed once, on first use.
    probability = 1/2 + 1/2 Re(trace) is the ground-level detection
    probability after the second pi/2 pulse, and visibility = |trace|.
    When corotating is True the internal phase omega_c t has been removed
    from offset, and so from trace/phase/probability (a plotting frame, not
    the lab-frame signal).

    phase = unwrap(arg(bounded)) - offset (the module's phase rule), NaN
    where the visibility is below PHASE_FLOOR. Only arg(bounded) is
    unwrapped, across the kept points alone: a sub-floor gap is crossed in
    one nearest-branch step of the bounded factor, while offset carries the
    rate's whole advance across it. phase_floor is the absolute rounding of
    the rate term, ulp(max |offset|) + eps max |offset|. dim is the Fock
    truncation of a ramsey_trace result and None for a trace from
    gaussian_trace or fock_trace, which have none.
    """

    times: np.ndarray
    bounded: np.ndarray
    offset: np.ndarray
    level: int
    x0: float
    dim: int | None
    corotating: bool = False

    @cached_property
    def trace(self) -> np.ndarray:
        return self.bounded * np.exp(-1j * (self.offset % (2.0 * math.pi)))

    @property
    def probability(self) -> np.ndarray:
        return 0.5 + 0.5 * np.real(self.trace)

    @property
    def visibility(self) -> np.ndarray:
        return np.abs(self.trace)

    @property
    def phase(self) -> np.ndarray:
        kept = self.visibility >= PHASE_FLOOR
        phase = np.full(self.times.shape, np.nan)
        phase[kept] = _phase(self.bounded[kept], self.offset[kept])
        return phase

    @property
    def phase_floor(self) -> float:
        top = float(np.max(np.abs(self.offset), initial=0.0))
        return math.ulp(top) + np.finfo(float).eps * top


def _phase(bounded: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """The phase rule: unwrap(arg(bounded)) - offset, the known rate term
    subtracted as it is and never unwrapped."""
    return np.unwrap(np.angle(bounded)) - offset


def _bounded_trace(
    spec: fock.Spectrum, omega0: float, state: CMState, times: np.ndarray
) -> np.ndarray:
    """Tr{U_1b rho U_0b^dag} for each t, contracted in chunks of _TIME_CHUNK times.

    U_0b = exp(-i w0 t) is diagonal in the Fock basis, w0 = omega0 (m + 1/2),
    and U_1b = V1 exp(-i w1 t) V1^T with (w1, V1) = spec and V1 real, so

        Tr(t) = sum_{n, m} exp(-i w1_n t) C[n, m] exp(+i w0_m t),
        C[n, m] = V1[m, n] (V1^T rho)[n, m].

    Only the Fock block that can change a double is built and contracted.
    C is built from rho = fock.block(state.data), rho[:s, :s] (psi[:s]
    psi[:s]^dag for a pure state), s = fock.support of the state: the part
    left out has trace norm at most tau_rho = (eps / 4) sum |rho| (sum |psi|).
    Of the (dim x s) C, _support keeps all but the trailing Fock columns
    holding at most tau_C / 2 of sum |C|, tau_C = (eps / 4) sum |C|, and the
    eigen-rows holding at most tau_C / (2 rows) of it in the kept columns.
    U_1b and U_0b are unitary, so each point moves by at most
    tau_rho + tau_C. Each chunk costs (chunk x rows) @ (rows x k) products,
    E1 @ C as cos @ C - i sin @ C, two real products for a real C (every
    thermal density). ramsey_trace passes a state of the spectrum's dim.
    """
    rho = fock.block(state.data)
    V1 = spec.V[: rho.shape[0]]
    C = V1.T * fock.real_matmul(V1.T, rho)
    rows, k = _support(C)
    C, w1 = C[rows, :k], spec.w[rows]
    w0 = omega0 * (np.arange(k) + 0.5)
    out = np.empty(times.size, dtype=complex)
    for lo in range(0, times.size, _TIME_CHUNK):
        t = times[lo : lo + _TIME_CHUNK]
        phi = np.outer(t, w1)
        E1C = fock.real_matmul(np.cos(phi), C) - 1j * fock.real_matmul(np.sin(phi), C)
        E0 = np.exp(1j * np.outer(t, w0))
        out[lo : lo + _TIME_CHUNK] = np.einsum("tm,tm->t", E1C, E0)
    return out


def _support(C: np.ndarray) -> tuple[np.ndarray, int]:
    """(rows, k): the eigen-rows and the number of leading Fock columns of C
    that _bounded_trace contracts; the entries it leaves out sum to at most
    tau = (eps / 4) sum |C| in modulus. The columns are fock.support's,
    which leave out at most tau / 2, and the rows those holding at most
    tau / (2 rows) in the kept columns."""
    # fock.support frees its |C| before A is made, so one dim x dim float
    # temporary is alive at a time.
    k = fock.support(C)
    A = np.abs(C)
    tau = 0.25 * np.finfo(float).eps * A.sum(axis=0).sum()
    rows = np.flatnonzero(A[:, :k].sum(axis=1) > 0.5 * tau / C.shape[0])
    return rows, k


def _corotating_rate_per_omega0(params: model.SystemParams, level: int) -> float:
    """The rate of the co-rotating scalar phase over omega0. The lab-frame
    rate (offset_i - offset_0) / hbar less omega_c = E_i / hbar leaves

        -g^2 ((E_i - E_0) / c^2) (M_i + M0) / (2 k hbar),

    formed directly so that the two ~E_i / hbar rates never cancel, and in
    natural units (hbar = M0 = omega0 = 1, model.to_natural), so one system
    gives the same number whether it was built in SI or in natural units."""
    nat = model.to_natural(params)
    delta_M = (nat.levels[level] - nat.levels[0]) / nat.c**2
    return -0.5 * nat.g**2 * delta_M * (nat.mass(level) + 1.0)


def _trace(params, times, level, x0, corotating, bounded, dim=None) -> RamseyTrace:
    """Every trace's prologue: x0 resolved by VacuumAmplitudeParams.from_system
    (None: the sag g/omega0^2), and the RamseyTrace at dim of bounded(vap, t)
    and the offset rate t: rate is the offset gap over hbar in the lab frame,
    _corotating_rate_per_omega0 times omega0 in the co-rotating one."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    vap = analytic.VacuumAmplitudeParams.from_system(params, level=level, x0=x0)
    if corotating:
        # As (rate / omega0)(omega0 t): the co-rotating phase reaches ~1e6 rad,
        # where one ulp is ~1e-10 rad, and this form rounds alike in both
        # unit systems.
        offset = _corotating_rate_per_omega0(params, level) * (params.omega0 * times)
    else:
        offset = model.offset_gap(params, level, 0) / params.hbar * times
    return RamseyTrace(times=times, bounded=bounded(vap, times), offset=offset, level=level,
                       x0=vap.x0, dim=dim, corotating=corotating)


def gaussian_trace(params: model.SystemParams, times, level: int = 1,
                   x0: float | None = None, corotating: bool = False, *,
                   alpha: complex = 0j, nbar: float = 0.0) -> RamseyTrace:
    """Exact trace between levels 0 and level for the displaced thermal state
    D(alpha) rho_th(nbar) D(alpha)^dag of the ground trap (by default its
    vacuum; nbar = 0: the coherent state |alpha>; alpha = 0: the thermal
    state), from analytic.gaussian_amplitude: no truncation, no eigensolve,
    dim None. NotNormalized for a non-finite alpha or alpha^2 and for an nbar
    that is not finite and >= 0 or whose q = nbar / (1 + nbar) rounds to 1.
    x0=None uses the gravitational-sag separation g/omega0^2."""
    return _trace(params, times, level, x0, corotating,
                  lambda vap, t: analytic.gaussian_amplitude(vap, t, alpha, nbar))


def fock_trace(params: model.SystemParams, n: int, times, level: int = 1,
               x0: float | None = None, corotating: bool = False) -> RamseyTrace:
    """gaussian_trace's sibling for the Fock state |n>: <n|U_0b^dag U_1b|n>,
    from analytic.fock_diagonal (DimensionMismatch for n < 0)."""
    return _trace(params, times, level, x0, corotating,
                  lambda vap, t: analytic.fock_diagonal(vap, t, n))


def ramsey_trace(params: model.SystemParams, state: CMState, times, level: int = 1,
                 x0: float | None = None, corotating: bool = False) -> RamseyTrace:
    """Interference trace between levels 0 and level for any CM state, in the
    Fock space truncated at the state's own dim (refused where
    fock.tail_bound exceeds states.TAIL_BOUND); x0 as in gaussian_trace."""
    frame, dim = model.derive_mode_frame(params, level), state.dim

    def bounded(vap, t):
        alpha = math.sqrt(frame.M_i * frame.omega_i / (2.0 * params.hbar)) * vap.x0
        spec = fock.spectrum(frame, alpha, dim)
        states.check_tail("evolved-state weight bound", f"Fock n >= {fock.interior(dim)}",
                          dim, fock.tail_bound(spec.V, state.data))
        return _bounded_trace(spec, vap.omega0, state, t)

    return _trace(params, times, level, x0, corotating, bounded, dim)


def fock_revival_values(params: model.SystemParams, n0: int, x0: float | None = None,
                        level: int = 1) -> tuple[float, float]:
    """Visibility of fock_trace at (pi/omega_1, 2*pi/omega_1) for |n0>.

    At 2*pi/omega_1 the excited-mode propagator is a global phase, so the
    value is 1 for any n0; at pi/omega_1 it is 1 exactly when x0 = 0 (pure
    squeezing preserves parity).
    """
    t_rev = math.pi / model.derive_mode_frame(params, level).omega_i
    trace = fock_trace(params, n0, [t_rev, 2.0 * t_rev], level=level, x0=x0)
    return float(trace.visibility[0]), float(trace.visibility[1])
