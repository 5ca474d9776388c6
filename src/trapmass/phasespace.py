"""Mixed CM evolution conditioned on the internal level, and Husimi
Q-function diagnostics.

Q convention: Q(beta) = <beta|rho|beta> with no 1/pi prefactor, so the
normalization quadrature is sum(Q) * delta^2 / pi = 1.

evolve_mixed_cm and qfunction contract only fock.block of a state:
rho[:s, :s], or psi[:s] psi[:s]^dag for a vector, s = fock.support. The
entries left out (n >= s or m >= s) sum to at most tau = (eps / 4) sum |rho|
in modulus, as |rho| is symmetric and the columns past s hold at most
tau / 2. Since |<n|beta>| <= 1 and |<beta|U D U^dag|beta>| <= ||D||_2 <=
sum |D|, each cut moves a Q value by at most tau: 5.6e-17 for a thermal
state, 8.2e-16 for a coherent state at |alpha| = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, model, states
from .errors import InvalidDistribution, NonGaussianProfile, TruncationInsufficient
from .states import CMState, mixed_state

_EDGE_Q = 1e-8
_GRID_START_HALF_WIDTH = 4.0
_GRID_GROWTH = 1.5
_GRID_MAX_HALF_WIDTH = 64.0
_Q_CHUNK = 2048
# effective_squeezing_fit uses only real-axis points with Q above this floor.
_Q_FLOOR = 1e-12


@dataclass(frozen=True)
class InternalDistribution:
    """Internal-level probabilities p_k."""

    p: tuple

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise InvalidDistribution("p must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(p)):
            raise InvalidDistribution(f"non-finite probability in {self.p!r}")
        if np.any(p < 0):
            raise InvalidDistribution(f"negative probability in {self.p!r}")
        if abs(p.sum() - 1.0) > 1e-12:
            raise InvalidDistribution(f"probabilities sum to {p.sum()!r}")

    def mean_energy(self, params: model.SystemParams) -> float:
        return float(np.dot(self.p, params.levels[: len(self.p)]))


@dataclass(frozen=True)
class QGrid:
    """Rectangular Husimi grid: beta[i, j] complex, q[i, j] = <beta|rho|beta>."""

    beta: np.ndarray
    q: np.ndarray
    delta: float

    def normalization(self) -> float:
        return float(self.q.sum() * self.delta**2 / math.pi)

    def real_axis(self) -> tuple[np.ndarray, np.ndarray]:
        """(beta values, Q values) along Im(beta) = 0."""
        idx = int(np.argmin(np.abs(self.beta[:, 0].imag)))
        return self.beta[idx, :].real, self.q[idx, :]


def _weighted_frames(params: model.SystemParams, dist: InternalDistribution) -> list:
    """(p_k, level-k ModeFrame) for each level k with p_k > 0."""
    if len(dist.p) > params.n_levels:
        raise InvalidDistribution(f"{len(dist.p)} probabilities for {params.n_levels} levels")
    return [(pk, model.derive_mode_frame(params, k)) for k, pk in enumerate(dist.p) if pk]


def evolve_mixed_cm(
    params: model.SystemParams,
    rho0: CMState,
    dist: InternalDistribution,
    t: float,
) -> CMState:
    """rho_cm(t) = sum_k p_k U_k rho0 U_k^dag at the dim of rho0; the scalar
    rest-energy phase of each U_k cancels against its conjugate, so only
    bounded propagators appear. Each term is U_k[:, :s] rho U_k[:, :s]^dag
    over the s x s rho = fock.block(rho0.data) (see the module docstring).
    More than TAIL_BOUND of its trace beyond fock.interior(dim) is refused."""
    frames = _weighted_frames(params, dist)
    dim = rho0.dim
    rho = fock.block(rho0.data)
    s = rho.shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for pk, frame in frames:
        U = fock.spectrum(frame, frame.alpha_gi, dim).propagator(t)[:, :s]
        out += pk * (U @ rho @ U.conj().T)
    # Symmetrize away eigensolver roundoff before validation.
    out = 0.5 * (out + out.conj().T)
    m = fock.interior(dim)
    states.check_tail("evolved-state weight", f"Fock n >= {m}", dim, out.diagonal()[m:].real.sum())
    return mixed_state(out)


def _axis(half_width: float, delta: float) -> np.ndarray:
    m = int(math.ceil(half_width / delta))
    return delta * np.arange(-m, m + 1)


def _husimi(rho: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """<beta|rho|beta> at each point of betas, _Q_CHUNK points per GEMM."""
    q = np.empty(betas.size)
    for s in range(0, betas.size, _Q_CHUNK):
        B = states.coherent_amplitudes(rho.shape[0], betas[s : s + _Q_CHUNK])
        q[s : s + _Q_CHUNK] = ((B.conj() @ rho) * B).sum(1).real
    return np.clip(q, 0.0, None)


def qfunction(
    rho: CMState,
    delta: float = 0.1,
    half_width: float = _GRID_START_HALF_WIDTH,
    auto_expand: bool = True,
) -> QGrid:
    """Husimi function on a square grid centered at the origin.

    Unless auto_expand=False, the half-width grows by 1.5x until Q on the
    edge ring of the grid drops below 1e-8; only the ring is evaluated for
    each candidate, and the chosen grid is filled in one pass. Only
    fock.block is contracted, with as many coherent columns (see the module
    docstring), so Q is exact at every beta and no dim is read.
    """
    density = fock.block(rho.data)
    hw = float(half_width)
    while auto_expand:
        ax = _axis(hw, delta)
        edges = (ax + 1j * ax[0], ax + 1j * ax[-1], ax[0] + 1j * ax, ax[-1] + 1j * ax)
        if _husimi(density, np.concatenate(edges)).max() < _EDGE_Q:
            break
        hw *= _GRID_GROWTH
        if hw > _GRID_MAX_HALF_WIDTH:
            raise TruncationInsufficient(
                f"grid half-width exceeded {_GRID_MAX_HALF_WIDTH} without "
                f"meeting the edge criterion"
            )
    ax = _axis(hw, delta)
    beta = ax[None, :] + 1j * ax[:, None]
    q = _husimi(density, beta.ravel()).reshape(beta.shape)
    return QGrid(beta=beta, q=q, delta=float(delta))


def qfunction_short_time(
    params: model.SystemParams,
    alpha: complex,
    dist: InternalDistribution,
    beta,
    t: float,
) -> np.ndarray:
    """Short-time Q of an initial coherent state |alpha> under the
    level-conditioned mixture:

        Q(beta) ~ |<beta|alpha>|^2 sum_k p_k
                  exp(-(omega_k t)^2 (<beta|n_k^2|alpha>/<beta|alpha>
                                      - (<beta|n_k|alpha>/<beta|alpha>)^2)).

    In closed form, with no truncation: n_k = A adag a + B (a^2 + adag^2)
    + C (a + adag) + sinh^2 r + alpha_g^2, A = cosh 2r, B = -sinh(2r)/2,
    C = alpha_g e^{-r}, is normal ordered, so by Wick's theorem the bracket
    is (A z + 2B alpha + C)(A alpha + 2B z + C) + 2B^2 with z = conj(beta).
    |<beta|alpha>|^2 = exp(-|beta - alpha|^2) joins the same exponent, so Q
    is 0 where the overlap underflows.

    The exponent is complex for beta != alpha; the value is returned as
    printed (complex), accurate to O(t^4) in the real part against the
    exact evolution.
    """
    frames = _weighted_frames(params, dist)
    beta = np.atleast_1d(np.asarray(beta, dtype=complex))
    z = beta.conj()
    total = np.zeros(beta.shape, dtype=complex)
    for pk, frame in frames:
        r = frame.r_i
        A, B = math.cosh(2.0 * r), -0.5 * math.sinh(2.0 * r)
        C = frame.alpha_gi * math.exp(-r)
        bracket = (A * z + 2.0 * B * alpha + C) * (A * alpha + 2.0 * B * z + C) + 2.0 * B * B
        total += pk * np.exp(-np.abs(beta - alpha) ** 2 - (frame.omega_i * t) ** 2 * bracket)
    return total


@dataclass(frozen=True)
class SqueezeFit:
    """Result of fitting log Q = c - (1 + r_eff) beta^2 on the real axis."""

    r_eff: float
    residual: float
    intercept: float


def effective_squeezing_fit(grid: QGrid) -> SqueezeFit:
    """Effective squeezing parameter from the real-axis Gaussian profile.

    Fits log Q against beta^2 (points with Q > _Q_FLOOR); r_eff is the
    excess of the quadratic coefficient over the vacuum value 1. The rms
    residual of the fit is the Gaussianity diagnostic; above 1e-3 the
    profile is rejected.
    """
    b, q = grid.real_axis()
    mask = q > _Q_FLOOR
    if mask.sum() < 3:
        raise NonGaussianProfile("too few grid points above the Q floor")
    x = b[mask] ** 2
    y = np.log(q[mask])
    coeffs = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((np.polyval(coeffs, x) - y) ** 2)))
    if resid > 1e-3:
        raise NonGaussianProfile(f"rms log-residual {resid:.3e} exceeds 1e-3")
    return SqueezeFit(
        r_eff=float(-coeffs[0] - 1.0), residual=resid, intercept=float(coeffs[1])
    )


def predicted_r_eff(params: model.SystemParams, mean_internal_energy: float, t: float) -> float:
    """(omega_0 t)^2 <H_int> / (2 M_0 c^2): the exponent inflation of the
    vacuum Gaussian at short times."""
    return (params.omega0 * t) ** 2 * mean_internal_energy / (
        2.0 * params.M0 * params.c**2
    )
