import numpy as np
import pytest

from trapmass import states
from trapmass.errors import DimensionMismatch, NotNormalized


def test_fock_state():
    st = states.fock_state(8, 3)
    assert st.is_pure and st.dim == 8
    assert st.data[3] == 1.0
    with pytest.raises(DimensionMismatch):
        states.fock_state(4, 4)


def test_pure_state_normalizes():
    st = states.pure_state(np.array([3.0, 4.0]))
    assert np.linalg.norm(st.data) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(NotNormalized):
        states.pure_state(np.zeros(4))


def test_coherent_state_moments():
    alpha = 1.2 - 0.7j
    st = states.coherent_state(96, alpha)
    a = np.diag(np.sqrt(np.arange(1, 96)), 1)
    assert st.expectation(a) == pytest.approx(alpha, abs=1e-12)
    n = a.conj().T @ a
    assert st.expectation(n).real == pytest.approx(abs(alpha) ** 2, rel=1e-12)
    assert states.coherent_state(8, 0.0).data[0] == 1.0


def test_thermal_state():
    st = states.thermal_state_cm(256, 3.0)
    assert not st.is_pure
    n = np.diag(np.arange(256)).astype(complex)
    assert st.expectation(n).real == pytest.approx(3.0, rel=1e-10)
    zero = states.thermal_state_cm(8, 0.0)
    assert zero.data[0, 0] == 1.0
    with pytest.raises(NotNormalized):
        states.thermal_state_cm(8, -1.0)


def test_mixed_state_validation():
    with pytest.raises(DimensionMismatch):
        states.mixed_state(np.zeros((2, 3)))
    rho = np.diag([0.7, 0.4]).astype(complex)  # trace 1.1
    with pytest.raises(NotNormalized):
        states.mixed_state(rho)
    rho = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)  # negative eigenvalue
    with pytest.raises(NotNormalized):
        states.mixed_state(rho)
    herm = np.array([[0.5, 0.5j], [0.2j, 0.5]], dtype=complex)
    with pytest.raises(NotNormalized):
        states.mixed_state(herm)


def test_density_and_expectation_agree():
    st = states.coherent_state(32, 0.5)
    rho = states.mixed_state(st.density())
    op = np.diag(np.arange(32)).astype(complex)
    assert rho.expectation(op) == pytest.approx(st.expectation(op), abs=1e-13)
    with pytest.raises(DimensionMismatch):
        st.expectation(np.eye(16))


@pytest.mark.parametrize("alpha", [complex(float("nan"), 0.0), complex(0.0, float("inf")),
                                   float("nan"), float("-inf")])
def test_coherent_state_rejects_non_finite_alpha(alpha):
    with pytest.raises(NotNormalized):
        states.coherent_state(16, alpha)


@pytest.mark.parametrize("nbar", [float("nan"), float("inf")])
def test_thermal_state_rejects_non_finite_nbar(nbar):
    with pytest.raises(NotNormalized):
        states.thermal_state_cm(16, nbar)
