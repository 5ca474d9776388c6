"""Center-of-mass states in the ground-level mode basis."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotNormalized

KIND_VECTOR = "fock_vector"
KIND_DENSITY = "density_matrix"

_NORM_TOL = 1e-12
_TRACE_TOL = 1e-10
_PSD_FLOOR = -1e-10


@dataclass(frozen=True)
class CMState:
    """Pure (Fock vector) or mixed (density matrix) CM state."""

    kind: str
    data: np.ndarray
    dim: int
    prepared_level: int = 0

    @property
    def is_pure(self) -> bool:
        return self.kind == KIND_VECTOR

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


def pure_state(vec: np.ndarray, prepared_level: int = 0) -> CMState:
    vec = np.asarray(vec, dtype=complex).ravel()
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > _NORM_TOL:
        if norm == 0:
            raise NotNormalized("zero state vector")
        vec = vec / norm
    return CMState(kind=KIND_VECTOR, data=vec, dim=vec.size, prepared_level=prepared_level)


def mixed_state(rho: np.ndarray, prepared_level: int = 0) -> CMState:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"density matrix must be square, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > _TRACE_TOL:
        raise NotNormalized("density matrix not Hermitian")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > _TRACE_TOL:
        raise NotNormalized(f"trace {tr} != 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < _PSD_FLOOR:
        raise NotNormalized(f"negative eigenvalue {evals.min():.3e}")
    return CMState(kind=KIND_DENSITY, data=rho, dim=rho.shape[0], prepared_level=prepared_level)


def fock_state(dim: int, n: int) -> CMState:
    if not 0 <= n < dim:
        raise DimensionMismatch(f"Fock index {n} outside dim {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[n] = 1.0
    return pure_state(vec)


def coherent_state(dim: int, alpha: complex) -> CMState:
    """Truncated coherent state, renormalized (tail must be negligible)."""
    if not cmath.isfinite(alpha):
        raise NotNormalized(f"alpha must be finite, got {alpha}")
    if alpha == 0:
        return fock_state(dim, 0)
    ns = np.arange(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))
    amps = np.exp(-0.5 * abs(alpha) ** 2 + ns * np.log(complex(alpha)) - 0.5 * log_fact)
    return pure_state(amps)


def thermal_state_cm(dim: int, nbar: float) -> CMState:
    """Truncated thermal state of the ground mode with mean occupation nbar."""
    if not (math.isfinite(nbar) and nbar >= 0):
        raise NotNormalized(f"nbar must be finite and >= 0, got {nbar}")
    if nbar == 0:
        return mixed_state(np.diag([1.0] + [0.0] * (dim - 1)).astype(complex))
    q = nbar / (nbar + 1.0)
    probs = (1 - q) * q ** np.arange(dim)
    probs = probs / probs.sum()
    return mixed_state(np.diag(probs).astype(complex))
