import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from test_ramsey import _count_solves

from trapmass import drive, fock, model, phasespace, states
from trapmass.errors import ConvergenceFailure, DimensionTooSmall


def natural_params(**over):
    cfg = {"unit_system": "natural", "c": 2.0, "levels": [0.0, 2.0], "g": 0.7}
    cfg.update(over)
    return model.build_system(cfg)


def test_commutator_on_interior():
    a = fock.annihilation(64)
    assert a.dtype == np.float64
    comm = a @ a.T - a.T @ a
    m = fock.interior(64)
    assert np.allclose(comm[:m, :m], np.eye(64)[:m, :m], atol=1e-12)
    # The last diagonal element is corrupted by hard truncation.
    assert abs(comm[-1, -1] - 1.0) > 1.0
    assert np.array_equal(fock.mode_number(0.0, 0.0, 64), np.diag(np.arange(64.0)))


def test_dimension_too_small():
    with pytest.raises(DimensionTooSmall):
        fock.spectrum(model.derive_mode_frame(natural_params(), 1), 0.0, 1)


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(-1.0, 1.0),
    alpha=st.floats(-3.0, 3.0),
    dim=st.integers(2, 300),
)
def test_mode_number_matches_dense_product(r, alpha, dim):
    a = fock.annihilation(dim)
    a_i = math.cosh(r) * a - math.sinh(r) * a.T + alpha * np.eye(dim)
    ref = a_i.T @ a_i
    N = fock.mode_number(r, alpha, dim)
    assert N.dtype == np.float64
    assert np.max(np.abs(N - ref)) <= 1e-14 * max(np.max(np.abs(ref)), 1.0)


def test_mode_matrix_routes_agree():
    # Direct (x, p) oracle vs the banded Bogoliubov builder, gravity on.
    p = natural_params()
    dim = 96
    m = fock.interior(dim)
    f1 = model.derive_mode_frame(p, 1)
    direct = fock.mode_matrix_direct(p, f1, dim)
    n1 = fock.mode_number(f1.r_i, f1.alpha_gi, dim)
    assert np.max(np.abs((direct.conj().T @ direct - n1)[:m, :m])) < 1e-10
    f0 = model.derive_mode_frame(p, 0)
    a0 = fock.mode_matrix_direct(p, f0, dim)
    assert np.max(np.abs((a0 - fock.annihilation(dim))[:m, :m])) < 1e-12


def test_hamiltonian_spectrum():
    p = natural_params()
    for i in (0, 1):
        frame = model.derive_mode_frame(p, i)
        spec = fock.spectrum(frame, frame.alpha_gi, 256)
        n = np.arange(40)
        assert np.max(np.abs(spec.w[:40] - frame.omega_i * (n + 0.5))) < 1e-9
    # The ground mode is diagonal: no solve, exact spectrum.
    spec0 = fock.spectrum(model.derive_mode_frame(p, 0), 0.0, 8)
    assert np.array_equal(spec0.V, np.eye(8))
    assert np.array_equal(spec0.w, p.omega0 * (np.arange(8) + 0.5))


def test_spectrum_propagator_unitary():
    p = natural_params()
    frame = model.derive_mode_frame(p, 1)
    spec = fock.spectrum(frame, frame.alpha_gi, 64)
    U = spec.propagator(0.37)
    assert np.allclose(U @ U.conj().T, np.eye(64), atol=1e-12)
    assert np.allclose(spec.propagator(0.0), np.eye(64), atol=1e-12)
    with pytest.raises(ConvergenceFailure):
        spec.propagator(float("nan"))


def test_solver_paths_make_no_dense_complex_solve(monkeypatch):
    # Every unitary comes from a real eigh: level propagators and the
    # comparator's squeeze and displacement.
    solves = _count_solves(monkeypatch)
    dim = 48
    p = natural_params(g=0.0)
    dist = phasespace.InternalDistribution((0.5, 0.5))
    phasespace.evolve_mixed_cm(p, states.fock_state(dim, 0), dist, 0.4)
    assert solves == [(dim, False)]

    solves.clear()
    drive.cycle_operator(natural_params(), dim)
    assert solves == [(dim, False)] * 3


def test_squeeze_displace_known_values():
    r = 0.4
    S = fock.squeeze_matrix(128, r)
    assert abs(S[0, 0]) == pytest.approx(1.0 / math.sqrt(math.cosh(r)), rel=1e-12)
    alpha = 0.8 + 0.3j
    D = fock.displace_matrix(128, alpha)
    expected = states.coherent_state(128, alpha).data
    got = D[:, 0]
    # Global phase is fixed: D(alpha)|0> = |alpha> exactly.
    assert np.max(np.abs(got - expected)) < 1e-12
    assert np.allclose(D @ D.conj().T, np.eye(128), atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 96),
    r=st.floats(-1.0, 1.0),
    alpha_abs=st.floats(0.0, 2.0),
    alpha_arg=st.floats(-math.pi, math.pi),
)
def test_squeeze_and_displace_match_expm(dim, r, alpha_abs, alpha_arg):
    # Reference: scipy's expm of the truncated generators.
    a = fock.annihilation(dim)
    squeeze_gen = 0.5 * (a @ a - a.T @ a.T)
    alpha = alpha_abs * complex(math.cos(alpha_arg), math.sin(alpha_arg))
    assert np.max(np.abs(fock.squeeze_matrix(dim, r) - expm(r * squeeze_gen))) < 1e-11
    D_ref = expm(alpha * a.T - np.conj(alpha) * a)
    assert np.max(np.abs(fock.displace_matrix(dim, alpha) - D_ref)) < 1e-11


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 128),
    k=st.sampled_from([1, 2]),
    rank=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_ladder_moment_matches_dense_expectation(dim, k, rank, seed):
    # <a^k> from one band against the dense expectation of a^k, for a pure
    # state (rank 0) and for mixtures of 1-3 random vectors.
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(dim, max(rank, 1))) + 1j * rng.normal(size=(dim, max(rank, 1)))
    vecs /= np.linalg.norm(vecs, axis=0)
    if rank == 0:
        state = states.pure_state(vecs[:, 0])
    else:
        weights = rng.dirichlet(np.ones(rank))
        rho = (vecs * weights) @ vecs.conj().T
        state = states.mixed_state(0.5 * (rho + rho.conj().T))
    dense = state.expectation(np.linalg.matrix_power(fock.annihilation(dim), k))
    got = fock.ladder_moment(state.data, k)
    assert abs(got - dense) <= 1e-13 * max(abs(dense), 1.0)


def test_support_keeps_the_columns_that_can_change_a_double():
    eps = np.finfo(float).eps
    # Zero columns past the last nonzero one go, and so does everything of a
    # zero matrix but its first column.
    A = np.zeros((6, 9), dtype=complex)
    A[:, :4] = 1.0 - 2.0j
    assert fock.support(A) == 4
    assert fock.support(np.zeros((5, 5))) == 1
    # A thermal density at dim 512: the columns left out hold at most tau / 2
    # of sum |rho|, tau = (eps / 4) sum |rho|, and keeping one column fewer
    # would leave out more.
    rho = states.thermal_state_cm(512, 3.0).data
    k = fock.support(rho)
    tau = 0.25 * eps * np.abs(rho).sum()
    assert 100 < k < 200
    assert np.abs(rho[:, k:]).sum() <= 0.5 * tau < np.abs(rho[:, k - 1:]).sum()
    # A coherent state's outer product: complex entries, no zero column.
    rho = states.coherent_state(128, 2.0 - 1.5j).density()
    k = fock.support(rho)
    tau = 0.25 * eps * np.abs(rho).sum()
    assert np.all(rho != 0) and 20 < k < 128
    assert np.abs(rho[:, k:]).sum() <= 0.5 * tau < np.abs(rho[:, k - 1:]).sum()


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 200), decay=st.floats(0.0, 3.0), zeros=st.integers(0, 200),
       seed=st.integers(0, 2**32 - 1))
def test_support_of_a_vector_is_that_of_its_one_row_matrix(dim, decay, zeros, seed):
    # A state vector takes the column rule entry by entry: its k is that of
    # the 1 x dim matrix, and the entries left out hold at most tau / 2.
    rng = np.random.default_rng(seed)
    vec = np.exp(-decay * np.arange(dim)) * (rng.standard_normal(dim)
                                            + 1j * rng.standard_normal(dim))
    vec[dim - min(zeros, dim - 1):] = 0.0
    k = fock.support(vec)
    assert k == fock.support(vec[None, :])
    tau = 0.25 * np.finfo(float).eps * np.abs(vec).sum()
    assert np.abs(vec[k:]).sum() <= 0.5 * tau
    assert k == 1 or np.abs(vec[k - 1:]).sum() > 0.5 * tau


@pytest.mark.parametrize("alpha", [0.0, 1.5 - 0.5j, 2.0 - 1.5j])
def test_block_of_a_vector_equals_that_of_its_density(alpha):
    # fock.block cuts a state vector and its density to the same block,
    # density()[:s, :s] with s = fock.support of the vector.
    state = states.coherent_state(128, alpha)
    s = fock.support(state.data)
    want = state.density()[:s, :s]
    assert s < 128
    assert np.array_equal(fock.block(state.data), want)
    assert np.array_equal(fock.block(state.density()), want)
