"""Truncated Fock-space operator algebra in the ground-level mode basis.

Level i sees a displaced, squeezed copy of the ground-trap oscillator,

    a_i = cosh(r_i) a - sinh(r_i) a^T + alpha,

and every truncated solver path builds its number operator a_i^T a_i with
`mode_number`, a real pentadiagonal matrix written from its five bands.
`spectrum` diagonalizes hbar omega_i (n_i + 1/2) with one real eigh (the
ground mode is already diagonal and needs none) and `Spectrum.propagator`
turns it into exp(-i H_b t / hbar). Every eigenbasis V is real, so that is
one `real_matmul`, V times the complex diag(e^{-iwt}) V^T as two real
products, with no complex upcast of V. Every ladder matrix and moment takes
its bands from `ladder_band`; `ladder_moment` reads <a^k> of a state from
one band, with no ladder product. `mode_matrix_direct` rebuilds a_i from
x and p and is kept only as an oracle for `mode_number`.

`Spectrum.propagator` is the one exponential of the package. Squeeze and
displacement reach it through two diagonal-phase identities, exact on the
truncated space:

    S(r) = Q exp(i r G) Q^dag,  G = (a^2 + adag^2) / 2,  Q = diag(e^{i pi n / 4}),
    D(alpha) = Phi exp(i |alpha| (a + adag)) Phi^dag,  Phi = diag(e^{i n (arg alpha - pi/2)}).

Both generators are real and banded, so each takes one real eigh, and the
phase scales the rows and columns of the real propagator.

All matrices are dense numpy arrays of size dim x dim. Hard truncation
necessarily violates operator identities in the last rows/columns, so
commutator and transformation checks are meaningful only on the interior
block (see `interior`). The dim is always the caller's; the exact Ramsey
traces, which need no truncation, are in `ramsey`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionTooSmall
from .model import ModeFrame, SystemParams

_EPS = float(np.finfo(float).eps)


def interior(dim: int) -> int:
    """Number of leading rows/columns on which truncated identities are asserted."""
    return dim - math.ceil(dim / 8)


def support(A: np.ndarray) -> int:
    """The number k >= 1 of leading Fock entries of a state vector, or
    columns of a matrix, that can change a double: with
    tau = (eps / 4) sum |A|, the entries past k hold at most tau / 2 of
    sum |A|. A zero entry has zero weight, so the entries past a state's
    support always go."""
    cols = np.abs(A)
    if cols.ndim == 2:
        cols = cols.sum(axis=0)
    tau = 0.25 * _EPS * cols.sum()
    # Tail sums of the weights from the last entry: non-decreasing, so the
    # dropped entries are the ones whose tail sum is <= tau / 2.
    tail = cols[::-1].cumsum()
    return max(cols.size - int(tail.searchsorted(0.5 * tau, side="right")), 1)


def block(data: np.ndarray) -> np.ndarray:
    """The Fock block of a state that can change a double: rho[:s, :s] of a
    density, or psi[:s] psi[:s]^dag of a state vector, s = support(data).
    The one place a state is cut."""
    s = support(data)
    if data.ndim == 1:
        return np.outer(data[:s], data[:s].conj())
    return data[:s, :s]


def tail_bound(V: np.ndarray, data: np.ndarray) -> float:
    """A bound, at every t, on the weight U = V diag(e^{-iwt}) V^T puts of a
    state beyond m = interior(dim): ||P_m U|j>|| <= T_j = sum_n |V[j, n]|
    ||V[m:, n]||, so the weight is at most T^T |rho| T over block(data)."""
    rho = block(data)
    T = np.abs(V[: rho.shape[0]]) @ np.linalg.norm(V[interior(V.shape[0]):], axis=0)
    return float(T @ np.abs(rho) @ T)


def ladder_band(dim: int, k: int) -> np.ndarray:
    """sqrt((n+1)...(n+k)) for n = 0 .. dim-k-1: the band of a^k at offset k,
    (a^k)[n, n+k], truncated to dim levels."""
    n = np.arange(max(dim - k, 0), dtype=float)
    band = n + 1.0
    for j in range(2, k + 1):
        band *= n + j
    return np.sqrt(band)


def ladder_moment(data: np.ndarray, k: int) -> complex:
    """<a^k> of a state vector or density, k >= 1, as a sum over the k-th
    band: sum_n sqrt((n+1)...(n+k)) conj(psi_n) psi_{n+k}, or rho_{n+k, n}."""
    band = ladder_band(data.shape[0], k)
    if data.ndim == 1:
        return complex(band @ (data[:-k].conj() * data[k:]))
    return complex(band @ np.diagonal(data, -k))


def annihilation(dim: int) -> np.ndarray:
    return np.diag(ladder_band(dim, 1), 1)


def mode_number(r: float, alpha: float, dim: int) -> np.ndarray:
    """a_i^T a_i for a_i = cosh(r) a - sinh(r) a^T + alpha, from its five bands.

    The truncated product expands to
    c^2 a^T a + s^2 a a^T - c s (a a + a^T a^T) + alpha (c - s)(a + a^T) + alpha^2
    with c = cosh r, s = sinh r; the diagonal of the truncated a a^T ends
    in 0, so the last diagonal entry has no s^2 term.
    """
    c, s = math.cosh(r), math.sinh(r)
    n = np.arange(dim, dtype=float)
    a_adag = n + 1.0
    a_adag[-1] = 0.0
    N = np.diag(c * c * n + s * s * a_adag + alpha * alpha)
    for k, coeff in ((1, alpha * (c - s)), (2, -c * s)):
        i = np.arange(dim - k)
        N[i, i + k] = N[i + k, i] = coeff * ladder_band(dim, k)
    return N


@dataclass(frozen=True)
class Spectrum:
    """Spectrum of a real symmetric generator H = V diag(w) V^T: eigenvalues
    w and real orthonormal eigenvector columns V. A level's mode spectrum
    has w in rad/s (H_b = hbar V diag(w) V^T)."""

    w: np.ndarray
    V: np.ndarray

    def propagator(self, t: float) -> np.ndarray:
        """exp(-i H t) = V diag(exp(-i w t)) V^T, one real_matmul of V by
        diag(exp(-i w t)) V^T."""
        if not math.isfinite(t):
            raise ConvergenceFailure(f"non-finite time {t!r}")
        return real_matmul(self.V, np.exp(-1j * self.w * t)[:, None] * self.V.T)


def real_matmul(R: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """R @ Z for real R and complex Z as two real products (half the flops),
    or as one where the imaginary part of Z is zero (a thermal density)."""
    if not Z.imag.any():
        return (R @ Z.real).astype(complex)
    return R @ Z.real + 1j * (R @ Z.imag)


def spectrum(frame: ModeFrame, alpha: float, dim: int) -> Spectrum:
    """Spectrum of H_b = hbar omega_i (n_i + 1/2), n_i = mode_number(r_i, alpha, dim).

    The ground mode (r = alpha = 0) is diagonal and is returned exactly;
    any other mode takes one real eigh of H_b / hbar.
    """
    if dim < 2:
        raise DimensionTooSmall(f"dim must be >= 2, got {dim}")
    if frame.r_i == 0.0 and alpha == 0.0:
        return Spectrum(w=frame.omega_i * (np.arange(dim) + 0.5), V=np.eye(dim))
    H_b = mode_number(frame.r_i, alpha, dim)
    H_b.flat[:: dim + 1] += 0.5
    H_b *= frame.omega_i
    w, V = np.linalg.eigh(H_b)
    return Spectrum(w=w, V=V)


def mode_matrix_direct(params: SystemParams, frame: ModeFrame, dim: int) -> np.ndarray:
    """a_i built directly from x and p: sqrt(M_i w_i/2hbar)(x + x_shift_i + i p/(M_i w_i)),
    with x measured from the level-0 equilibrium (so x_shift_i is the
    relative sag).

    Oracle only: it is independent of the Bogoliubov route in
    `mode_number`, and its product a_i^dag a_i must agree with it on the
    interior block.
    """
    a = annihilation(dim)
    lx = math.sqrt(params.hbar / (2.0 * params.M0 * params.omega0))
    lp = math.sqrt(params.hbar * params.M0 * params.omega0 / 2.0)
    x = lx * (a + a.T)
    p = 1j * lp * (a.T - a)
    Mi, wi = frame.M_i, frame.omega_i
    scale = math.sqrt(Mi * wi / (2.0 * params.hbar))
    return scale * (x + frame.x_shift_i * np.eye(dim) + 1j * p / (Mi * wi))


def _ladder_propagator(dim: int, k: int, theta: float, t: float) -> np.ndarray:
    """Phi exp(-i X_k t) Phi^dag, Phi = diag(e^{i n theta}): the real
    X_k = (a^k + adag^k) / k has one band at offset k and takes one real
    eigh; Phi scales the rows, and Phi^dag the columns, of its propagator."""
    n = np.arange(dim - k)
    X = np.zeros((dim, dim))
    X[n, n + k] = X[n + k, n] = ladder_band(dim, k) / k
    w, V = np.linalg.eigh(X)
    phi = np.exp(1j * theta * np.arange(dim))
    return phi[:, None] * Spectrum(w=w, V=V).propagator(t) * phi.conj()


def squeeze_matrix(dim: int, r: float) -> np.ndarray:
    """S(r) = exp(r (a^2 - adag^2) / 2) = Q exp(i r G) Q^dag,
    G = (a^2 + adag^2) / 2, Q = diag(e^{i pi n / 4})."""
    if r == 0.0:
        return np.eye(dim, dtype=complex)
    return _ladder_propagator(dim, 2, math.pi / 4, -r)


def displace_matrix(dim: int, alpha: complex) -> np.ndarray:
    """D(alpha) = exp(alpha adag - conj(alpha) a); real alpha matches
    exp(alpha (adag - a))."""
    if alpha == 0:
        return np.eye(dim, dtype=complex)
    theta = cmath.phase(alpha) - math.pi / 2
    return _ladder_propagator(dim, 1, theta, -abs(alpha))
