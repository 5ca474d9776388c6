import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import factorial, gammainc, gammaincc, gammaln, xlogy

from trapmass import fock, model, phasespace, states
from trapmass.errors import (
    InvalidDistribution,
    NonGaussianProfile,
    TruncationInsufficient,
)


def natural_params(E1=2.0, c=2.0, g=0.0, extra=()):
    levels = [0.0, E1, *extra]
    return model.build_system(
        {"unit_system": "natural", "c": c, "levels": levels, "g": g}
    )


def test_internal_distribution_validation():
    d = phasespace.InternalDistribution((0.25, 0.75))
    assert d.mean_energy(natural_params()) == pytest.approx(1.5)
    with pytest.raises(InvalidDistribution):
        phasespace.InternalDistribution(())
    with pytest.raises(InvalidDistribution):
        phasespace.InternalDistribution((0.5, 0.6))
    with pytest.raises(InvalidDistribution):
        phasespace.InternalDistribution((-0.1, 1.1))


def test_vacuum_qfunction_exact():
    # Vacuum: Q(beta) = exp(-|beta|^2), normalization 1.
    vac = states.fock_state(128, 0)
    grid = phasespace.qfunction(vac)
    expected = np.exp(-np.abs(grid.beta) ** 2)
    assert np.max(np.abs(grid.q - expected)) < 1e-12
    assert grid.normalization() == pytest.approx(1.0, abs=1e-3)


def test_coherent_qfunction_exact():
    alpha = 1.0 + 0.5j
    st = states.coherent_state(128, alpha)
    grid = phasespace.qfunction(st)
    expected = np.exp(-np.abs(grid.beta - alpha) ** 2)
    assert np.max(np.abs(grid.q - expected)) < 1e-10
    assert grid.normalization() == pytest.approx(1.0, abs=1e-3)


def test_qfunction_linearity_bitwise():
    rho_a = states.fock_state(96, 0).density()
    rho_b = states.fock_state(96, 2).density()
    mix = states.mixed_state(0.5 * rho_a + 0.5 * rho_b)
    g_mix = phasespace.qfunction(mix, half_width=4.0)
    g_a = phasespace.qfunction(states.fock_state(96, 0), half_width=4.0)
    g_b = phasespace.qfunction(states.fock_state(96, 2), half_width=4.0)
    assert np.max(np.abs(g_mix.q - 0.5 * g_a.q - 0.5 * g_b.q)) < 1e-13


@pytest.mark.parametrize("dim", [1, 8, 64])
def test_unevolved_vacuum_q_is_exact_at_any_dim(dim):
    # Q(beta) = <beta|rho|beta> is computed exactly from the state's support
    # block at any beta, so the grid's boundary coherent states need not fit
    # in dim: the vacuum gives exp(-|beta|^2) on the grid its bound sizes,
    # e^{-(k delta)^2} >= 1e-8 up to k = 42, so half-width 4.3.
    grid = phasespace.qfunction(states.fock_state(dim, 0))
    assert grid.beta.shape == (87, 87)
    assert np.max(np.abs(grid.q - np.exp(-np.abs(grid.beta) ** 2))) < 1e-12


def test_evolve_mixed_cm_applies_the_truncation_rule():
    # c = 1, levels [0, 30]: the vacuum under p = (0.5, 0.5) at
    # t = pi / (2 omega_1) puts 1.9e-5 of its trace beyond the interior of
    # dim 128, above TAIL_BOUND, and 1.5e-14 beyond that of dim 512.
    p = model.build_system({"unit_system": "natural", "c": 1.0, "levels": [0.0, 30.0],
                            "g": 0.0})
    t = math.pi / (2.0 * model.derive_mode_frame(p, 1).omega_i)
    dist = phasespace.InternalDistribution((0.5, 0.5))
    with pytest.raises(TruncationInsufficient) as err:
        phasespace.evolve_mixed_cm(p, states.fock_state(128, 0), dist, t)
    assert str(err.value) == "evolved-state weight 1.904e-05 at Fock n >= 112 for dim 128"
    rho = phasespace.evolve_mixed_cm(p, states.fock_state(512, 0), dist, t).data
    assert np.trace(rho[448:, 448:]).real < 1e-13


@settings(max_examples=200, deadline=None)
@given(abs_beta=st.floats(0.1, 38.0), dim=st.integers(2, 400))
def test_dim_for_deficit_matches_incomplete_gamma(abs_beta, dim):
    # Reference: the regularized lower incomplete gamma P(d, |beta|^2) is
    # the Poisson tail the truncated |beta> misses.
    need = dim
    while gammainc(need, abs_beta**2) > states.TAIL_BOUND:
        need += 1
    tail, got = states.coherent_tail(dim, abs_beta)
    assert got == need
    assert tail == pytest.approx(gammainc(dim, abs_beta**2), rel=1e-9, abs=1e-15)


def _reference_q(state, beta):
    # Independent route: coefficients from closed-form powers and
    # factorials, contracted with the full density matrix by einsum.
    n = np.arange(state.dim)
    b = beta.ravel()[:, None]
    B = np.exp(-0.5 * np.abs(b) ** 2) * b**n / np.sqrt(factorial(n))
    q = np.einsum("id,de,ie->i", B.conj(), state.density(), B).real
    return q.reshape(beta.shape)


@st.composite
def _random_states(draw):
    dim = draw(st.integers(8, 160))
    rank = draw(st.integers(0, 3))   # 0: pure state vector
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (dim, max(rank, 1))
    vecs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # Decaying Fock weights keep the state inside the grid's reach.
    vecs *= np.exp(-0.5 * np.arange(dim) / max(dim / 8.0, 1.0))[:, None]
    vecs /= np.linalg.norm(vecs, axis=0)
    if rank == 0:
        return states.pure_state(vecs[:, 0])
    p = rng.dirichlet(np.ones(rank))
    rho = (vecs * p) @ vecs.conj().T
    return states.mixed_state(0.5 * (rho + rho.conj().T))


@settings(max_examples=30, deadline=None)
@given(state=_random_states(), m=st.integers(1, 32))
def test_qfunction_matches_einsum_reference(state, m):
    # Grids of (2m+1)^2 points run from 9 to 4225, below and across the
    # GEMM chunk boundaries. The half-width keeps the guard satisfied.
    hw = 0.25 * math.sqrt(state.dim)
    grid = phasespace.qfunction(state, delta=hw / m, half_width=hw)
    assert np.max(np.abs(grid.q - _reference_q(state, grid.beta))) < 1e-13


@st.composite
def _coherent_mixtures(draw):
    """Coherent states |alpha| <= 3 at dim 128, pure or a mixture with
    complex coherences: Fock weights that do not decay from n = 0, and a
    support of 1 (the vacuum) to 65 (|alpha| = 3) of the 128 columns."""
    alphas = draw(st.lists(st.complex_numbers(max_magnitude=3.0), min_size=1, max_size=3))
    if len(alphas) == 1:
        return states.coherent_state(128, alphas[0])
    p = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(alphas),
                               max_size=len(alphas))))
    rho = sum(pk * states.coherent_state(128, a).density() for pk, a in zip(p / p.sum(), alphas))
    return states.mixed_state(0.5 * (rho + rho.conj().T))


@st.composite
def _states_and_half_widths(draw):
    """(state, grid half-width): a _random_states draw with the half-width of
    test_qfunction_matches_einsum_reference, or a _coherent_mixtures draw on
    a grid that reaches |beta| = 7.8, where the left-out columns weigh most."""
    if draw(st.booleans()):
        state = draw(_random_states())
        return state, 0.25 * math.sqrt(state.dim)
    return draw(_coherent_mixtures()), draw(st.floats(1.0, 5.5))


@settings(max_examples=40, deadline=None)
@given(case=_states_and_half_widths(), m=st.integers(1, 32))
def test_cut_qfunction_within_tau_of_uncut(case, m):
    # qfunction contracts only the block of fock.support, which moves each Q
    # value by at most tau = (eps / 4) sum |rho|. The uncut value is _husimi
    # on the whole density, with the same coherent rows: against the
    # independent _reference_q the two routes already differ by up to 8e-15
    # in roundoff, with or without the cut.
    state, hw = case
    grid = phasespace.qfunction(state, delta=hw / m, half_width=hw)
    uncut = phasespace._husimi(state.density(), grid.beta.ravel()).reshape(grid.beta.shape)
    tau = 0.25 * np.finfo(float).eps * np.abs(state.density()).sum()
    assert np.max(np.abs(grid.q - uncut)) <= tau + 1e-15
    assert np.max(np.abs(grid.q - _reference_q(state, grid.beta))) < 1e-13


def test_husimi_receives_the_support_block(monkeypatch):
    # A vacuum at dim 2600 is contracted as a 1 x 1 block; the maximally
    # mixed state, whose support is full, as the whole density.
    shapes = []
    husimi = phasespace._husimi

    def recording(density, betas):
        shapes.append(density.shape)
        return husimi(density, betas)

    monkeypatch.setattr(phasespace, "_husimi", recording)
    phasespace.qfunction(states.fock_state(2600, 0), half_width=40.0, delta=10.0)
    assert shapes == [(1, 1)]
    shapes.clear()
    flat = states.mixed_state(np.eye(32) / 32.0)
    grid = phasespace.qfunction(flat, half_width=1.0, delta=0.25)
    assert shapes == [(32, 32)]
    # Q of the maximally mixed state is (1/dim) sum_n |<n|beta>|^2.
    expected = gammaincc(32, np.abs(grid.beta) ** 2) / 32.0
    assert np.max(np.abs(grid.q - expected)) < 1e-15


def test_auto_expanded_qfunction_equals_one_fixed_grid():
    # With no half_width the extent is the least lattice radius past which
    # _q_bound is below 1e-8, and that grid is filled in one pass: bit for
    # bit the grid at that half-width given. delta = 1/8 keeps the lattice
    # arithmetic exact.
    rho = states.mixed_state(
        0.7 * states.coherent_state(128, 1.0 - 0.5j).density()
        + 0.3 * states.fock_state(128, 2).density()
    )
    delta = 0.125
    grid = phasespace.qfunction(rho, delta=delta)
    hw = float(-grid.beta[0, 0].real)
    bound = phasespace._q_bound(fock.block(rho.data), delta)
    m = round(hw / delta)
    assert bound[m - 1] >= phasespace._EDGE_Q > bound[m:].max()
    single = phasespace.qfunction(rho, delta=delta, half_width=hw)
    assert np.array_equal(single.beta, grid.beta)
    assert np.array_equal(single.q, grid.q)


def test_evolve_mixed_cm_basics():
    p = natural_params()
    dim = 64
    rho0 = states.mixed_state(states.coherent_state(dim, 0.5).density())
    dist = phasespace.InternalDistribution((1.0,))
    # Single level: evolution is unitary, purity preserved.
    out = phasespace.evolve_mixed_cm(p, rho0, dist, 0.8)
    purity = float(np.real(np.trace(out.data @ out.data)))
    assert purity == pytest.approx(1.0, abs=1e-9)
    # t = 0 returns the initial state for any mixture.
    dist2 = phasespace.InternalDistribution((0.5, 0.5))
    out0 = phasespace.evolve_mixed_cm(p, rho0, dist2, 0.0)
    assert np.max(np.abs(out0.data - rho0.density())) < 1e-12
    # Two distinct levels at t > 0 decohere the mixture.
    outm = phasespace.evolve_mixed_cm(p, rho0, dist2, 0.8)
    puritym = float(np.real(np.trace(outm.data @ outm.data)))
    assert puritym < 1.0 - 1e-4


def test_distribution_rejects_non_finite_probabilities():
    p = natural_params()
    for probs in ((math.nan, math.nan), (math.inf, 0.0), (0.5, 0.5, math.nan)):
        with pytest.raises(InvalidDistribution):
            phasespace.InternalDistribution(probs)
    # Such a distribution can no longer reach qfunction_short_time, which
    # returned NaN Q values for it.
    with pytest.raises(InvalidDistribution):
        phasespace.qfunction_short_time(
            p, 0.3, phasespace.InternalDistribution((math.nan, math.nan)), [0.0, 0.5], 0.1
        )


def test_evolve_mixed_cm_propagates_the_support_block():
    # Only rho0[:s, :s], s = fock.support(rho0), is propagated; the part left
    # out sums to at most tau = (eps / 4) sum |rho0|, and so moves every
    # <beta|rho(t)|beta> by at most tau against the whole product.
    p = natural_params(g=0.4)
    dist = phasespace.InternalDistribution((0.3, 0.7))
    rho0 = states.mixed_state(
        0.6 * states.coherent_state(96, 1.5 - 1.0j).density()
        + 0.4 * states.fock_state(96, 3).density()
    )
    assert fock.support(rho0.data) < 60
    out = phasespace.evolve_mixed_cm(p, rho0, dist, 0.9).data
    whole = np.zeros((96, 96), dtype=complex)
    for k, pk in enumerate(dist.p):
        frame = model.derive_mode_frame(p, k)
        U = fock.spectrum(frame, frame.alpha_gi, 96).propagator(0.9)
        whole += pk * (U @ rho0.data @ U.conj().T)
    ax = np.linspace(-4.0, 4.0, 17)
    B = states.coherent_amplitudes(96, (ax[None, :] + 1j * ax[:, None]).ravel())
    tau = 0.25 * np.finfo(float).eps * np.abs(rho0.data).sum()
    q_cut = ((B.conj() @ out) * B).sum(1).real
    q_whole = ((B.conj() @ whole) * B).sum(1).real
    assert np.max(np.abs(q_cut - q_whole)) <= tau + 1e-15


def test_evolve_mixed_cm_validation():
    p = natural_params()
    rho0 = states.mixed_state(states.fock_state(32, 0).density())
    with pytest.raises(InvalidDistribution):
        phasespace.evolve_mixed_cm(
            p, rho0, phasespace.InternalDistribution((0.2, 0.3, 0.5)), 0.1
        )


def test_short_time_reduces_at_t_zero():
    p = natural_params()
    dist = phasespace.InternalDistribution((0.5, 0.5))
    betas = np.array([0.0 + 0.0j, 0.5 + 0.2j, -1.0j])
    q0 = phasespace.qfunction_short_time(p, 0.4, dist, betas, 0.0)
    expected = np.abs(
        np.exp(-0.5 * np.abs(betas) ** 2 - 0.5 * 0.4**2 + np.conj(betas) * 0.4)
    ) ** 2
    assert np.max(np.abs(q0 - expected)) < 1e-12


def test_short_time_error_is_fourth_order():
    # Against the exact mixed evolution, the short-time Q errs at O(t^4):
    # halving t shrinks the on-axis error 16x.
    p = natural_params(E1=0.5, c=2.0)
    dist = phasespace.InternalDistribution((0.5, 0.5))
    dim = 96
    alpha = 0.6
    rho0 = states.mixed_state(states.coherent_state(dim, alpha).density())
    beta = np.array([0.3 + 0.0j])

    def err(t):
        exact = phasespace.evolve_mixed_cm(p, rho0, dist, t)
        row = states.coherent_amplitudes(dim, beta)[0]
        q_exact = float(np.real(row.conj() @ exact.data @ row))
        q_st = float(np.real(
            phasespace.qfunction_short_time(p, alpha, dist, beta, t)[0]
        ))
        return abs(q_exact - q_st)

    t0 = 0.2
    ratio = err(t0) / err(t0 / 2.0)
    assert ratio == pytest.approx(16.0, abs=4.0)


def _dense_short_time(params, alpha, dist, beta, t):
    """The short-time Q from truncated matrices, <beta|n_k|alpha> and
    <beta|n_k^2|alpha> as products with fock.mode_number, at a dim that
    holds |alpha> and every |beta>."""
    reach = max(abs(alpha), float(np.max(np.abs(beta))))
    dim = int(math.ceil(reach**2 + 12.0 * reach + 32.0))
    va = states.coherent_amplitudes(dim, [alpha])[0]
    VB = states.coherent_amplitudes(dim, beta)
    overlap = VB.conj() @ va
    total = np.zeros(beta.shape, dtype=complex)
    for k, pk in enumerate(dist.p):
        frame = model.derive_mode_frame(params, k)
        Nk = fock.mode_number(frame.r_i, frame.alpha_gi, dim)
        m1 = (VB.conj() @ (Nk @ va)) / overlap
        m2 = (VB.conj() @ (Nk @ (Nk @ va))) / overlap
        total += pk * np.exp(-((frame.omega_i * t) ** 2) * (m2 - m1**2))
    return np.abs(overlap) ** 2 * total


@settings(max_examples=40, deadline=None)
@given(
    E=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=2, unique=True),
    g=st.floats(0.0, 0.6),
    alpha_abs=st.floats(0.0, 1.2),
    alpha_arg=st.floats(-math.pi, math.pi),
    t=st.floats(0.0, 1.3),
    p0=st.floats(0.0, 1.0),
)
def test_short_time_closed_form_matches_dense_matrices(E, g, alpha_abs, alpha_arg, t, p0):
    p = model.build_system({"unit_system": "natural", "c": 2.0,
                            "levels": [0.0, *sorted(E)], "g": g})
    rest = (1.0 - p0) / len(E)
    dist = phasespace.InternalDistribution((p0, *[rest] * len(E)))
    alpha = cmath.rect(alpha_abs, alpha_arg)
    ax = np.linspace(-2.0, 2.0, 9)
    beta = (ax[None, :] + 1j * ax[:, None]).ravel()
    got = phasespace.qfunction_short_time(p, alpha, dist, beta, t)
    assert np.max(np.abs(got - _dense_short_time(p, alpha, dist, beta, t))) < 1e-14


@pytest.mark.parametrize("beta", [39.0, 45.0])
def test_short_time_far_from_alpha_is_zero(beta):
    # There <beta|alpha> underflows; the truncated route divided 0 by 0.
    p = natural_params(g=0.5)
    dist = phasespace.InternalDistribution((0.5, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = phasespace.qfunction_short_time(p, 0.6, dist, [beta], 0.4)
    assert np.isfinite(q).all() and q[0] == 0.0


def test_effective_squeezing_fit_on_synthetic_gaussian():
    ax = np.linspace(-3.0, 3.0, 61)
    beta = ax[None, :] + 1j * ax[:, None]
    r_true = 0.07
    q = np.exp(-(1.0 + r_true) * beta.real**2 - np.abs(beta.imag) ** 2)
    grid = phasespace.QGrid(beta=beta, q=q, delta=ax[1] - ax[0])
    fit = phasespace.effective_squeezing_fit(grid)
    assert fit.r_eff == pytest.approx(r_true, rel=1e-10)
    assert fit.residual < 1e-10


def test_effective_squeezing_fit_rejects_non_gaussian():
    ax = np.linspace(-3.0, 3.0, 61)
    beta = ax[None, :] + 1j * ax[:, None]
    q = np.exp(-np.abs(beta) ** 2) + 0.3 * np.exp(-4.0 * np.abs(beta - 1.5) ** 2)
    grid = phasespace.QGrid(beta=beta, q=q, delta=ax[1] - ax[0])
    with pytest.raises(NonGaussianProfile):
        phasespace.effective_squeezing_fit(grid)


def test_effective_squeezing_fit_needs_three_points_above_the_floor():
    # The vacuum on a delta-6 grid: Q = e^-36 at beta = +-6 is below the
    # 1e-12 floor, which leaves the real axis one point.
    grid = phasespace.qfunction(states.fock_state(8, 0), delta=6.0, half_width=1.0)
    assert grid.real_axis()[1].size == 3
    with pytest.raises(NonGaussianProfile, match="too few grid points"):
        phasespace.effective_squeezing_fit(grid)


def test_qfunction_refuses_a_grid_past_the_largest_half_width(monkeypatch):
    # Under a largest half-width of 5, Fock 30's bound needs 8.5, and a
    # vacuum with a 1e-15 amplitude at n = 30 needs 4.3 but has a Fock block
    # whose sqrt(s - 1) is 5.5; under 4, the vacuum's 4.3 is refused. (A
    # state that reaches the real limit of 64 has a Fock block of hundreds
    # of MB.)
    tail = np.zeros(64, dtype=complex)
    tail[0], tail[30] = 1.0, 1e-15
    monkeypatch.setattr(phasespace, "_GRID_MAX_HALF_WIDTH", 5.0)
    for state in (states.fock_state(64, 30), states.pure_state(tail)):
        with pytest.raises(TruncationInsufficient, match="grid half-width exceeded 5.0"):
            phasespace.qfunction(state)
    assert fock.support(tail) == 31
    assert phasespace.qfunction(states.fock_state(8, 0)).beta.shape == (87, 87)
    assert phasespace.qfunction(states.fock_state(8, 0), half_width=4.5).beta.shape == (91, 91)
    monkeypatch.setattr(phasespace, "_GRID_MAX_HALF_WIDTH", 4.0)
    with pytest.raises(TruncationInsufficient, match="grid half-width exceeded 4.0"):
        phasespace.qfunction(states.fock_state(8, 0))


@pytest.mark.parametrize("kwargs", [
    {"delta": 0.0}, {"delta": -0.1}, {"delta": math.nan}, {"delta": math.inf},
    {"half_width": -1.0}, {"half_width": math.nan}, {"half_width": math.inf},
])
def test_qfunction_refuses_a_bad_delta_or_half_width(kwargs):
    # A delta that is not finite and > 0, or a given half_width that is not
    # finite and >= 0, names no grid.
    with pytest.raises(ValueError, match="must be finite"):
        phasespace.qfunction(states.fock_state(8, 0), **kwargs)


@st.composite
def _bounded_states(draw):
    """Displaced thermal states D(alpha) rho_th(nbar) D(alpha)^dag at dim <= 256,
    nbar <= 5 and |alpha| <= 4, and Fock states n <= 40."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 40))
        return states.fock_state(draw(st.integers(n + 1, 256)), n)
    dim = draw(st.integers(160, 256))
    D = fock.displace_matrix(dim, draw(st.complex_numbers(max_magnitude=4.0)))
    rho = D @ states.thermal_state_cm(dim, draw(st.floats(0.0, 5.0))).density() @ D.conj().T
    return states.mixed_state(0.5 * (rho + rho.conj().T))


@settings(max_examples=25, deadline=None)
@given(state=_bounded_states(), delta=st.sampled_from([0.1, 0.25]))
def test_bound_grid_holds_the_state(state, delta):
    # The grid sized by the bound holds the state: its normalization is
    # within 1e-8 of 1, and Q of the whole density on the lattice ring one
    # step outside is below 1e-8. One step smaller, the bound, recomputed
    # here from gammaln on [(m - 1) delta, m delta], is not below 1e-8.
    grid = phasespace.qfunction(state, delta=delta)
    assert abs(grid.normalization() - 1.0) < 1e-8
    m = grid.beta.shape[0] // 2
    ax = delta * np.arange(-m - 1, m + 2)
    ring = np.concatenate((ax + 1j * ax[0], ax + 1j * ax[-1], ax[0] + 1j * ax, ax[-1] + 1j * ax))
    assert phasespace._husimi(state.density(), ring).max() < phasespace._EDGE_Q
    diag = np.clip(state.density().diagonal().real, 0.0, None)
    n = np.arange(diag.size)
    R = np.clip(np.sqrt(n), (m - 1) * delta, m * delta)
    f = np.exp(xlogy(n, R) - 0.5 * R**2 - 0.5 * gammaln(n + 1))
    assert (f @ np.sqrt(diag)) ** 2 >= phasespace._EDGE_Q


def test_predicted_r_eff_matches_short_time_profile():
    # Small mass defect: the fitted exponent inflation of the short-time Q
    # matches (omega0 t)^2 <H_int> / 2 M0 c^2 within 1%.
    p = natural_params(E1=1e-3, c=1.0)
    dist = phasespace.InternalDistribution((0.0, 1.0))
    t = 0.4
    ax = np.linspace(-2.0, 2.0, 81)
    beta = ax[None, :] + 1j * ax[:, None]
    q = np.real(
        phasespace.qfunction_short_time(p, 0.0, dist, beta.ravel(), t)
    ).reshape(beta.shape)
    grid = phasespace.QGrid(beta=beta, q=q, delta=ax[1] - ax[0])
    fit = phasespace.effective_squeezing_fit(grid)
    pred = phasespace.predicted_r_eff(p, dist.mean_energy(p), t)
    assert fit.r_eff == pytest.approx(pred, rel=1e-2)


def test_distributions_with_equal_mean_energy_differ():
    # Two internal distributions with the same mean energy but different
    # variance produce distinguishable Q values at second order in t.
    p = natural_params(E1=1.0, c=2.0, extra=[2.0])
    d_mid = phasespace.InternalDistribution((0.0, 1.0, 0.0))
    d_ends = phasespace.InternalDistribution((0.5, 0.0, 0.5))
    assert d_mid.mean_energy(p) == d_ends.mean_energy(p)
    beta = np.array([0.0 + 0.0j])
    t = 0.3
    q_mid = phasespace.qfunction_short_time(p, 0.0, d_mid, beta, t)[0]
    q_ends = phasespace.qfunction_short_time(p, 0.0, d_ends, beta, t)[0]
    assert abs(q_mid - q_ends) > 1e-6
