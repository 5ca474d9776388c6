import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaln

from trapmass import states
from trapmass.errors import DimensionMismatch, NotNormalized, TruncationInsufficient


def test_fock_state():
    st = states.fock_state(8, 3)
    assert st.is_pure and st.dim == 8
    assert st.data[3] == 1.0
    with pytest.raises(DimensionMismatch):
        states.fock_state(4, 4)


def test_pure_state_normalizes():
    # A vector off unit norm is refused, not silently renormalized.
    with pytest.raises(NotNormalized):
        states.pure_state(np.array([3.0, 4.0]))
    st = states.pure_state(np.array([0.6, 0.8j]))
    assert np.linalg.norm(st.data) == pytest.approx(1.0, abs=1e-15)
    for bad in (np.zeros(4), np.array([np.nan, 0.0])):
        with pytest.raises(NotNormalized):
            states.pure_state(bad)


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


@settings(max_examples=60, deadline=None)
@given(abs_beta=st.lists(st.floats(0.0, 45.0), min_size=1, max_size=4),
       arg=st.floats(-math.pi, math.pi), dim=st.integers(1, 3000))
def test_coherent_amplitudes_match_log_gamma_reference(abs_beta, arg, dim):
    # Reference: every entry from its closed form with scipy's gammaln and
    # an exact phase. Each row's norm is what the Poisson tail leaves.
    r = np.asarray(abs_beta)
    rows = states.coherent_amplitudes(dim, r * np.exp(1j * arg))
    n = np.arange(dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_log_r = np.where(n > 0, n * np.log(r[:, None]), 0.0)
    ref = np.exp(n_log_r - 0.5 * r[:, None] ** 2 - 0.5 * gammaln(n + 1.0)
                 + 1j * n * arg)
    assert rows.shape == (r.size, dim)
    assert np.all(np.abs(rows - ref) <= 1e-9 * np.abs(ref) + 1e-300)
    for b, row in zip(r, rows):
        tail, _ = states.coherent_tail(dim, b)
        assert np.sum(np.abs(row) ** 2) == pytest.approx(1.0 - tail, abs=1e-10)


def test_coherent_amplitudes_do_not_underflow_at_large_beta():
    # e^{-|beta|^2/2} alone underflows above |beta| ~ 38.6; the rows do not.
    row = states.coherent_amplitudes(2600, [40.0j])[0]
    assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)


def test_heavy_tails_raise_naming_the_dim_needed():
    with pytest.raises(TruncationInsufficient) as err:
        states.coherent_state(16, 4.0)
    need = 16
    while gammainc(need, 16.0) > states.TAIL_BOUND:
        need += 1
    assert str(err.value).endswith(f"for dim 16; needs dim >= {need}")
    # The kept amplitudes miss up to TAIL_BOUND of the weight; coherent_state
    # divides them by their own norm, which pure_state would refuse.
    kept = states.coherent_amplitudes(need, [4.0])[0]
    assert 1e-12 < 1.0 - np.linalg.norm(kept) <= states.TAIL_BOUND
    st = states.coherent_state(need, 4.0)
    assert np.linalg.norm(st.data) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(st.data, kept / np.linalg.norm(kept), rtol=0, atol=1e-16)
    # q = 3/4: q^48 = 1.007e-6 and q^49 = 7.5e-7.
    with pytest.raises(TruncationInsufficient) as err:
        states.thermal_state_cm(8, 3.0)
    assert str(err.value).endswith("for dim 8; needs dim >= 49")
    states.thermal_state_cm(49, 3.0)


def test_coherent_state_names_required_dim():
    # |6> at dim 64 misses 1.6e-5 of its norm; dim 69 is the first size
    # within the 1e-6 deficit bound.
    with pytest.raises(TruncationInsufficient) as err:
        states.coherent_state(64, 6.0)
    assert str(err.value) == (
        "coherent-state deficit 1.610e-05 at |beta|=6.00 for dim 64; "
        "needs dim >= 69"
    )
    assert np.linalg.norm(states.coherent_state(69, 6.0).data) == pytest.approx(1.0, abs=1e-15)


def test_coherent_state_tail_at_large_beta():
    # At |beta| = 40 the rule reads the Poisson tail, not amplitudes that
    # underflow to a deficit of 1: dim 1500 is told its deficit
    # P(1500, 1600) and the incomplete-gamma dim, and dim 2600 holds |40>
    # well within the bound.
    need = 1500
    while gammainc(need, 1600.0) > states.TAIL_BOUND:
        need += 1
    with pytest.raises(TruncationInsufficient) as err:
        states.coherent_state(1500, 40.0)
    assert str(err.value) == (
        f"coherent-state deficit {gammainc(1500, 1600.0):.3e} at |beta|=40.00 "
        f"for dim 1500; needs dim >= {need}"
    )
    kept = states.coherent_amplitudes(2600, [40.0])[0]
    assert np.allclose(states.coherent_state(2600, 40.0).data, kept, rtol=0, atol=1e-15)


def _counting_eigvalsh(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return shapes


def test_mixed_state_checks_diagonal_matrices_from_the_diagonal(monkeypatch):
    shapes = _counting_eigvalsh(monkeypatch)
    assert not states.thermal_state_cm(512, 2.0).is_pure
    with pytest.raises(NotNormalized, match="negative eigenvalue"):
        states.mixed_state(np.diag([1.2, 0.0, -0.2]).astype(complex))
    with pytest.raises(NotNormalized, match="trace nan"):
        states.mixed_state(np.diag([np.nan, 1.0]).astype(complex))
    assert shapes == []


def _dense_hermitian_check(rho):
    """The Hermitian and trace checks of mixed_state on the whole matrix:
    the message of the first that fails, or None."""
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
        asymmetry = np.max(np.abs(rho - rho.conj().T))
    if asymmetry > states._TRACE_TOL:
        return "density matrix not Hermitian"
    tr = float(np.trace(rho).real)
    if not abs(tr - 1.0) <= states._TRACE_TOL:
        return f"trace {tr} != 1"
    if not np.isfinite(rho).all():
        return "density matrix has a non-finite entry"
    return None


@pytest.mark.parametrize("diagonal", [
    [0.25, 0.75], [0.25 + 1e-11j, 0.75], [0.25 + 1e-9j, 0.75], [0.25 - 1e-9j, 0.75],
    [np.nan, 1.0], [complex(0.5, np.nan), 0.5], [np.inf, 0.0], [complex(0.5, np.inf), 0.5],
    [complex(np.inf, np.inf), 0.0], [complex(np.nan, np.inf), 0.5], [-np.inf, 1.0],
], ids=["real", "imag-1e-11", "imag-1e-9", "imag-neg-1e-9", "nan", "nan-imag", "inf",
        "inf-imag", "inf-both", "nan-inf", "neg-inf"])
def test_diagonal_hermitian_check_matches_the_dense_formula(diagonal):
    # On a diagonal matrix mixed_state checks 2 |Im diag| in place of
    # rho - rho^dag: it accepts and rejects as the dense formula does, with
    # the same message.
    rho = np.diag(np.asarray(diagonal, dtype=complex))
    try:
        states.mixed_state(rho)
        got = None
    except NotNormalized as exc:
        got = str(exc)
    assert got == _dense_hermitian_check(rho)


@pytest.mark.parametrize("rho", [
    [[0.5, np.nan], [np.nan, 0.5]],
    [[0.5, complex(0.0, np.nan)], [complex(0.0, np.nan), 0.5]],
    [[complex(0.5, np.nan), 0.0], [0.0, 0.5]],
    [[0.5, np.inf], [np.inf, 0.5]],
], ids=["nan-off", "nan-imag-off", "nan-imag-diag", "inf-off"])
def test_mixed_state_rejects_a_non_finite_density(monkeypatch, rho):
    # Each passes the Hermitian and trace checks (a NaN compares False), so
    # the finite check must reject it before any eigenvalue is taken.
    shapes = _counting_eigvalsh(monkeypatch)
    with pytest.raises(NotNormalized, match="non-finite"):
        states.mixed_state(np.array(rho, dtype=complex))
    assert shapes == []


def test_mixed_state_checks_other_matrices_densely(monkeypatch):
    shapes = _counting_eigvalsh(monkeypatch)
    # Non-negative diagonal, eigenvalues 1.2 and -0.2.
    with pytest.raises(NotNormalized, match="negative eigenvalue"):
        states.mixed_state(np.array([[0.5, 0.7], [0.7, 0.5]], dtype=complex))
    states.mixed_state(states.coherent_state(32, 0.5 - 0.3j).density())
    assert shapes == [(2, 2), (32, 32)]
