"""Center-of-mass states in the ground-level mode basis, their coherent
amplitudes, the one truncation rule (at most TAIL_BOUND of a state's weight
may lie beyond its dim, and of an evolved state beyond fock.interior(dim)),
and the Preparation record that names a state with no dim."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotNormalized, ParamMismatch, TruncationInsufficient

_NORM_TOL = 1e-12
_TRACE_TOL = 1e-10
_PSD_FLOOR = -1e-10
TAIL_BOUND = 1e-6


@dataclass(frozen=True)
class CMState:
    """Pure (Fock vector) or mixed (density matrix) CM state."""

    data: np.ndarray

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 1

    def density(self) -> np.ndarray:
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def expectation(self, op: np.ndarray) -> complex:
        if op.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"operator shape {op.shape} vs state dim {self.dim}")
        if self.is_pure:
            return complex(self.data.conj() @ (op @ self.data))
        return complex(np.trace(op @ self.data))


def pure_state(vec: np.ndarray) -> CMState:
    """The pure state of a unit vector; a norm more than _NORM_TOL from 1
    raises NotNormalized, with no renormalization."""
    vec = np.asarray(vec, dtype=complex).ravel()
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= _NORM_TOL:  # also catches a NaN norm
        raise NotNormalized(f"state vector norm {norm} != 1")
    return CMState(vec)


def mixed_state(rho: np.ndarray) -> CMState:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"density matrix must be square, got {rho.shape}")
    diagonal = np.diagonal(rho)
    is_diagonal = np.count_nonzero(rho) == np.count_nonzero(diagonal)
    # On a diagonal matrix, rho - rho^dag is 2i Im(diag), bit for bit.
    with np.errstate(invalid="ignore"):  # inf - inf: rejected below as non-finite
        asymmetry = 2.0 * np.abs(diagonal.imag) if is_diagonal else np.abs(rho - rho.conj().T)
    if np.max(asymmetry) > _TRACE_TOL:
        raise NotNormalized("density matrix not Hermitian")
    tr = float(np.trace(rho).real)
    if not abs(tr - 1.0) <= _TRACE_TOL:  # also catches a NaN trace
        raise NotNormalized(f"trace {tr} != 1")
    # A NaN passes both checks above, and eigvalsh must not see one.
    if not np.isfinite(rho).all():
        raise NotNormalized("density matrix has a non-finite entry")
    # A diagonal matrix's eigenvalues are its diagonal.
    evals = diagonal.real if is_diagonal else np.linalg.eigvalsh(rho)
    if evals.min() < _PSD_FLOOR:
        raise NotNormalized(f"negative eigenvalue {evals.min():.3e}")
    return CMState(rho)


def fock_state(dim: int, n: int) -> CMState:
    if not 0 <= n < dim:
        raise DimensionMismatch(f"Fock index {n} outside dim {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[n] = 1.0
    return pure_state(vec)


def coherent_amplitudes(dim: int, betas) -> np.ndarray:
    """Row i holds e^{-|b|^2/2} b^n / sqrt(n!), n < dim, for b = betas[i]
    (a Fortran-ordered view). Each magnitude is exp(n log|b| - |b|^2/2 -
    lgamma(n+1)/2), so none above the double-precision floor underflows;
    the unit phase (b/|b|)^n is carried by recursion in n."""
    b = np.asarray(betas, dtype=complex).ravel()
    r = np.abs(b)
    with np.errstate(divide="ignore"):
        log_r = np.log(r)  # -inf at b = 0, where every n >= 1 entry is 0
    mag = np.arange(1.0, dim)[:, None] * log_r - 0.5 * r**2
    mag -= 0.5 * np.array([math.lgamma(n + 1.0) for n in range(1, dim)])[:, None]
    np.exp(mag, out=mag)
    unit, phase = np.exp(1j * np.angle(b)), np.ones_like(b)
    cols = np.empty((dim, b.size), dtype=complex)
    cols[0] = np.exp(-0.5 * r**2)
    for n in range(1, dim):
        phase *= unit
        np.multiply(phase, mag[n - 1], out=cols[n])
    return cols.T


def check_tail(kind: str, where: str, dim: int, tail: float, need: float | None = None) -> None:
    """The truncation rule: a weight (named kind) above TAIL_BOUND that a
    state puts at where raises TruncationInsufficient, naming need if known."""
    if tail > TAIL_BOUND:
        needs = "" if need is None else f"; needs dim >= {need}"
        raise TruncationInsufficient(f"{kind} {tail:.3e} at {where} for dim {dim}{needs}")


def coherent_tail(dim: int, abs_beta: float) -> tuple[float, int]:
    """(weight of |beta> beyond dim, smallest size from dim up whose weight
    beyond is at most TAIL_BOUND). The weight beyond d is the Poisson tail
    sum_{n >= d} e^{-x} x^n / n!, x = |beta|^2, summed from its small end
    over log-space math.lgamma terms; those below x - 40 sqrt(x) or above
    x + 40 sqrt(x) + 40 are under 1e-118 and are left out."""
    x = abs_beta**2
    if x == 0.0:
        return 0.0, dim
    lo = max(dim, int(x - 40.0 * math.sqrt(x)))
    n = np.arange(lo, max(lo, int(x + 40.0 * math.sqrt(x) + 40.0)) + 1)
    lgam = np.array([math.lgamma(k + 1.0) for k in n])
    tails = np.cumsum(np.exp(n * math.log(x) - x - lgam)[::-1])[::-1]
    return float(tails[0]), lo + int(np.argmax(tails <= TAIL_BOUND))


def thermal_populations(dim: int, q: float) -> np.ndarray:
    """The geometric populations (1 - q) q^n, n < dim, renormalized once
    their tail q^dim has passed the truncation rule; q = nbar / (nbar + 1)."""
    # q = 0 leaves no tail; q rounded to 1 (nbar above ~1e16) has no dim.
    need = math.ceil(math.log(TAIL_BOUND) / math.log(q)) if 0.0 < q < 1.0 else math.inf
    check_tail("thermal-state deficit", f"q={q:.6g}", dim, q**dim, need)
    probs = (1.0 - q) * q ** np.arange(dim)
    return probs / probs.sum()


def coherent_state(dim: int, alpha: complex) -> CMState:
    """Truncated coherent state; its tail beyond dim must pass the
    truncation rule, and the kept amplitudes are renormalized."""
    if not cmath.isfinite(alpha):
        raise NotNormalized(f"alpha must be finite, got {alpha}")
    check_tail("coherent-state deficit", f"|beta|={abs(alpha):.2f}", dim,
               *coherent_tail(dim, abs(alpha)))
    vec = coherent_amplitudes(dim, [alpha])[0]
    norm = np.linalg.norm(vec)
    # Amplitudes already within _NORM_TOL of unit norm keep their bits.
    return pure_state(vec if abs(norm - 1.0) <= _NORM_TOL else vec / norm)


def thermal_state_cm(dim: int, nbar: float) -> CMState:
    """Truncated thermal state of the ground mode with mean occupation nbar;
    its tail beyond dim must pass the truncation rule."""
    if not (math.isfinite(nbar) and nbar >= 0):
        raise NotNormalized(f"nbar must be finite and >= 0, got {nbar}")
    return mixed_state(np.diag(thermal_populations(dim, nbar / (nbar + 1.0))).astype(complex))


@dataclass(frozen=True)
class Preparation:
    """A state with no dim: the Fock state |n>, or the displaced thermal state
    D(alpha) rho_th(nbar) D(alpha)^dag (the vacuum by default). At most one
    field may differ from its default (ParamMismatch otherwise)."""

    n: int = 0
    alpha: complex = 0j
    nbar: float = 0.0

    def __post_init__(self):
        if [self.n, self.alpha, self.nbar].count(0) < 2:  # a NaN counts as set
            raise ParamMismatch(f"a preparation sets at most one of n, alpha and nbar: {self}")

    def truncated(self, dim: int) -> CMState:
        """The state built at dim, under the truncation rule."""
        if self.nbar:
            return thermal_state_cm(dim, self.nbar)
        return coherent_state(dim, self.alpha) if self.alpha else fock_state(dim, self.n)
