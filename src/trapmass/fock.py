"""Truncated Fock-space operator algebra in the ground-level mode basis.

All matrices are dense numpy arrays of size dim x dim. Hard truncation
necessarily violates operator identities in the last rows/columns, so
commutator and transformation checks are meaningful only on the interior
block (see `interior`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionTooSmall,
    NoConvergence,
    ParamMismatch,
)
from .model import ModeFrame, SystemParams, derive_mode_frame

DIM_MAX_DEFAULT = 4096
_SCHEDULE_START = 64


@dataclass(frozen=True)
class FockWorkspace:
    """Ladder/number/position/momentum matrices at truncation dim."""

    dim: int
    a: np.ndarray
    adag: np.ndarray
    n: np.ndarray
    x: np.ndarray
    p: np.ndarray
    params: SystemParams


@dataclass(frozen=True)
class Propagator:
    """Bounded part of exp(-i h_i t / hbar) plus the exact scalar rest-energy phase."""

    level: int
    t: float
    U: np.ndarray
    scalar_phase: complex


def interior(dim: int) -> int:
    """Number of leading rows/columns on which truncated identities are asserted."""
    return dim - math.ceil(dim / 8)


def annihilation(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    ms = np.arange(dim - 1)
    a[ms, ms + 1] = np.sqrt(ms + 1.0)
    return a


def build_workspace(params: SystemParams, dim: int) -> FockWorkspace:
    if dim < 2:
        raise DimensionTooSmall(f"dim must be >= 2, got {dim}")
    a = annihilation(dim)
    adag = a.conj().T
    n = np.diag(np.arange(dim, dtype=complex))
    lx = math.sqrt(params.hbar / (2.0 * params.M0 * params.omega0))
    lp = math.sqrt(params.hbar * params.M0 * params.omega0 / 2.0)
    x = lx * (a + adag)
    p = 1j * lp * (adag - a)
    return FockWorkspace(dim=dim, a=a, adag=adag, n=n, x=x, p=p, params=params)


def _check_frame(ws: FockWorkspace, frame: ModeFrame) -> None:
    # The frame must describe the workspace's own level structure:
    # omega_i sqrt(M_i) = omega0 sqrt(M0) and M_i = M0 + E_i/c^2.
    params = ws.params
    lhs = frame.omega_i * math.sqrt(frame.M_i)
    rhs = params.omega0 * math.sqrt(params.M0)
    ok = math.isclose(lhs, rhs, rel_tol=1e-9)
    if ok:
        try:
            ok = math.isclose(frame.M_i, params.mass(frame.level), rel_tol=1e-12)
        except Exception:
            ok = False
    if not ok:
        raise ParamMismatch(
            f"frame (level {frame.level}) inconsistent with workspace params"
        )


def mode_matrix(ws: FockWorkspace, frame: ModeFrame) -> np.ndarray:
    """a_i = cosh(r_i) a0 - sinh(r_i) a0^dag + alpha_gi."""
    _check_frame(ws, frame)
    r = frame.r_i
    return (
        math.cosh(r) * ws.a
        - math.sinh(r) * ws.adag
        + frame.alpha_gi * np.eye(ws.dim)
    )


def mode_matrix_direct(ws: FockWorkspace, frame: ModeFrame) -> np.ndarray:
    """a_i built directly from x and p: sqrt(M_i w_i/2hbar)(x + x_shift_i + i p/(M_i w_i)),
    with x measured from the level-0 equilibrium (so x_shift_i is the
    relative sag).

    Independent of the Bogoliubov route in `mode_matrix`; the two must agree
    on the interior block.
    """
    _check_frame(ws, frame)
    Mi, wi = frame.M_i, frame.omega_i
    hbar = ws.params.hbar
    scale = math.sqrt(Mi * wi / (2.0 * hbar))
    return scale * (
        ws.x + frame.x_shift_i * np.eye(ws.dim) + 1j * ws.p / (Mi * wi)
    )


def hamiltonian_matrix(ws: FockWorkspace, frame: ModeFrame) -> tuple[np.ndarray, float]:
    """(H_bounded, offset): the oscillator part and the scalar rest-energy offset.

    With x measured from the level-0 equilibrium, completing the square in
    the lab Hamiltonian gives H_i = H_bounded + offset_i with

        H_bounded = p^2/2M_i + (k/2)(x + x_shift_i)^2,

    whose spectrum approximates hbar omega_i (n + 1/2). The enormous
    M_i c^2 piece rides entirely in the scalar offset and is never
    exponentiated as a matrix.
    """
    _check_frame(ws, frame)
    p, x = ws.p, ws.x
    params = ws.params
    Mi = frame.M_i
    xs = x + frame.x_shift_i * np.eye(ws.dim)
    H = p @ p / (2.0 * Mi) + 0.5 * params.k * (xs @ xs)
    return H, frame.offset_i


def propagate(ws: FockWorkspace, frame: ModeFrame, t: float) -> Propagator:
    """exp(-i H_bounded t / hbar) via Hermitian eigendecomposition."""
    if not math.isfinite(t):
        raise ConvergenceFailure(f"non-finite time {t!r}")
    H, offset = hamiltonian_matrix(ws, frame)
    try:
        evals, vecs = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(f"eigensolve failed: {exc}") from exc
    phases = np.exp(-1j * evals * t / ws.params.hbar)
    U = (vecs * phases) @ vecs.conj().T
    scalar = complex(np.exp(-1j * ((offset * t / ws.params.hbar) % (2.0 * math.pi))))
    return Propagator(level=frame.level, t=t, U=U, scalar_phase=scalar)


def _expm_antihermitian(K: np.ndarray) -> np.ndarray:
    """exp(K) for anti-Hermitian K, via eigh of the Hermitian iK."""
    H = 1j * K
    evals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(-1j * evals)) @ vecs.conj().T


def squeeze_matrix(ws: FockWorkspace, r: float) -> np.ndarray:
    """S(r) = exp(r (a^2 - adag^2) / 2)."""
    if r == 0.0:
        return np.eye(ws.dim, dtype=complex)
    K = 0.5 * r * (ws.a @ ws.a - ws.adag @ ws.adag)
    return _expm_antihermitian(K)


def displace_matrix(ws: FockWorkspace, alpha: complex) -> np.ndarray:
    """D(alpha) = exp(alpha adag - conj(alpha) a); real alpha matches
    exp(alpha (adag - a))."""
    if alpha == 0:
        return np.eye(ws.dim, dtype=complex)
    K = alpha * ws.adag - np.conj(alpha) * ws.a
    return _expm_antihermitian(K)


def parity_matrix(dim: int) -> np.ndarray:
    """exp(-i pi n) = diag((-1)^n)."""
    return np.diag((-1.0 + 0j) ** np.arange(dim))


def dim_schedule(dim_max: int = DIM_MAX_DEFAULT, min_dim: int = 0) -> list[int]:
    """The doubling sizes 64, 128, ... up to dim_max, from the first >= min_dim."""
    dims = []
    d = _SCHEDULE_START
    while d <= dim_max:
        if d >= min_dim:
            dims.append(d)
        d *= 2
    return dims


def converge_dim(
    request, tol: float, dim_max: int = DIM_MAX_DEFAULT, min_dim: int = 0
) -> int:
    """Smallest dim in the doubling schedule {64, 128, ...} at which the
    scalar `request(dim)` changes by < tol from the previous size.

    The schedule starts at its first size >= min_dim. `request` must return
    a (complex) scalar. Raises NoConvergence if the schedule is exhausted.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    schedule = dim_schedule(dim_max, min_dim)
    if not schedule:
        raise NoConvergence(dim_max)
    if math.isinf(tol):
        return schedule[0]
    prev = complex(request(schedule[0]))
    change = None
    for d in schedule[1:]:
        cur = complex(request(d))
        change = abs(cur - prev)
        if change < tol:
            return d
        prev = cur
    raise NoConvergence(dim_max, change)


def all_frames(params: SystemParams) -> list[ModeFrame]:
    return [derive_mode_frame(params, i) for i in range(params.n_levels)]
