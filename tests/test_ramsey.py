import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
from numpy.polynomial import legendre
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trapmass import analytic, constants, fock, model, ramsey, states, verify
from trapmass.errors import DimensionMismatch, NotNormalized, TruncationInsufficient


def natural_params(E1=2.0, c=2.0, g=0.0):
    return model.build_system(
        {"unit_system": "natural", "c": c, "levels": [0.0, E1], "g": g}
    )


def test_degenerate_masses_give_pure_internal_fringe():
    # Near-degenerate masses: visibility stays 1 and the probability is the
    # bare internal fringe (1 + cos omega_c t)/2.
    p = natural_params(E1=1.0, c=1e7)  # Delta_M/M0 = 1e-14
    times = np.linspace(0.0, 3.0, 40)
    tr = ramsey.ramsey_trace(p, states.fock_state(64, 0), times)
    assert np.max(np.abs(tr.visibility - 1.0)) < 1e-8
    wc = p.omega_c(1)
    assert np.max(np.abs(tr.probability - 0.5 * (1.0 + np.cos(wc * times)))) < 1e-7


_PROPERTY_DIM = 48


@st.composite
def fock_or_coherent(draw):
    """A pure state at _PROPERTY_DIM: a Fock state or a coherent state."""
    if draw(st.booleans()):
        return states.fock_state(_PROPERTY_DIM, draw(st.integers(0, 12)))
    r = draw(st.floats(0.0, 2.0))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    return states.coherent_state(_PROPERTY_DIM, r * complex(math.cos(angle), math.sin(angle)))


@settings(max_examples=40, deadline=None)
@given(
    S=st.floats(0.6, 0.99),
    x0=st.floats(-2.0, 2.0),
    components=st.lists(fock_or_coherent(), min_size=1, max_size=4),
    raw_weights=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
)
def test_trace_is_linear_in_rho_and_bounded(S, x0, components, raw_weights):
    # At a fixed dim the contraction of a Fock/coherent mixture (mixed
    # branch) equals the weighted sum of its components' (pure branch), and
    # |Tr{U_1 rho U_0^dag}| <= Tr(rho) = 1 for any truncation. Many draws put
    # more than TAIL_BOUND beyond the interior, which ramsey_trace refuses, so
    # the contraction is called on ramsey_trace's spectrum directly.
    p = natural_params(E1=100.0 * (1.0 / S**2 - 1.0), c=10.0)
    frame = model.derive_mode_frame(p, 1)
    spec = fock.spectrum(frame, math.sqrt(frame.M_i * frame.omega_i / 2.0) * x0, _PROPERTY_DIM)
    times = np.linspace(0.0, 9.0, 7)
    w = np.array(raw_weights[: len(components)])
    w /= w.sum()
    rho = sum(wk * psi.density() for wk, psi in zip(w, components))
    mixed = ramsey._bounded_trace(spec, p.omega0, states.mixed_state(rho), times)
    pure = [ramsey._bounded_trace(spec, p.omega0, psi, times) for psi in components]
    assert np.max(np.abs(mixed - sum(wk * tr for wk, tr in zip(w, pure)))) < 1e-12
    for tr in [mixed, *pure]:
        assert np.all(np.abs(tr) <= 1.0 + 1e-12)


@pytest.mark.parametrize("dim, bound", [(64, "1.702e+00"), (128, "2.257e-01")])
def test_trace_refuses_a_truncation_its_state_outgrows(dim, bound):
    # The vacuum at x0 = 7 moves out to Fock levels near 100: dim 64 gave P
    # off by 0.56 with exit 0. The bound on the weight U_1(t) rho U_1(t)^dag
    # puts beyond the interior, for every t, refuses dims 64 and 128; at dim
    # 192 it is 1.3e-10 and the trace is the exact route's.
    p = natural_params()
    times = np.linspace(0.0, 9.0, 50)
    with pytest.raises(TruncationInsufficient) as err:
        ramsey.ramsey_trace(p, states.fock_state(dim, 0), times, x0=7.0)
    m = fock.interior(dim)
    assert str(err.value) == f"evolved-state weight bound {bound} at Fock n >= {m} for dim {dim}"
    tr = ramsey.ramsey_trace(p, states.fock_state(192, 0), times, x0=7.0)
    exact = ramsey.gaussian_trace(p, times, x0=7.0)
    assert np.max(np.abs(tr.trace - exact.trace)) < 1e-12


def test_tail_bound_holds_at_every_time():
    # The bound is above the weight beyond the interior of every evolved
    # state U_1(t) rho U_1(t)^dag, pure or mixed, at truncations it accepts
    # and at ones it refuses.
    p = natural_params(E1=6.0)
    frame = model.derive_mode_frame(p, 1)
    for dim, x0 in ((48, 2.0), (48, 4.0), (96, 4.0)):
        m = fock.interior(dim)
        spec = fock.spectrum(frame, math.sqrt(frame.M_i * frame.omega_i / 2.0) * x0, dim)
        for state in (states.coherent_state(dim, 0.5 - 1j), states.thermal_state_cm(dim, 1.0)):
            bound = fock.tail_bound(spec.V, state.data)
            for t in np.linspace(0.0, 7.0, 29):
                U = spec.propagator(t)
                rho_t = U @ state.density() @ U.conj().T
                assert np.trace(rho_t[m:, m:]).real <= bound * (1.0 + 1e-12) + 1e-15


def test_vacuum_gravity_free_revival():
    p = natural_params(E1=2.0, c=2.0, g=0.0)
    w1 = model.derive_mode_frame(p, 1).omega_i
    tr = ramsey.ramsey_trace(p, states.fock_state(256, 0), [math.pi / w1])
    assert tr.visibility[0] == pytest.approx(1.0, abs=1e-8)


def test_fock_state_revivals_with_gravity():
    # Mass jump 50%, gravity on: full revival only at 2 pi / omega_1.
    p = natural_params(E1=2.0, c=2.0, g=1.0)
    v_half, v_full = ramsey.fock_revival_values(p, 10)
    assert v_full == pytest.approx(1.0, abs=1e-8)
    assert v_half < 1.0 - 1e-3
    # Gravity-free (x0 = 0): parity protects the half-period revival too.
    v_half0, v_full0 = ramsey.fock_revival_values(p, 10, x0=0.0)
    assert v_half0 == pytest.approx(1.0, abs=1e-8)
    assert v_full0 == pytest.approx(1.0, abs=1e-8)


def test_vacuum_partial_revival_value():
    # a0 x0^2 = 1 gives visibility e^-1 at the partial revival.
    p = natural_params(E1=2.0, c=2.0, g=0.0)
    v_half, _ = ramsey.fock_revival_values(p, 0, x0=1.0)
    assert v_half == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_probability_identity_bitwise():
    p = natural_params()
    tr = ramsey.ramsey_trace(p, states.fock_state(64, 1), np.linspace(0, 5, 17))
    assert np.array_equal(tr.probability, 0.5 + 0.5 * np.real(tr.trace))
    assert np.all(tr.visibility <= 1.0 + 1e-8)
    assert np.all(tr.visibility >= 0.0)


def test_mixed_state_linearity():
    p = natural_params(g=0.4)
    times = np.linspace(0.0, 4.0, 9)
    dim = 96
    psi_a = states.fock_state(dim, 0)
    psi_b = states.fock_state(dim, 2)
    rho = states.mixed_state(0.3 * psi_a.density() + 0.7 * psi_b.density())
    tr_mix = ramsey.ramsey_trace(p, rho, times)
    tr_a = ramsey.ramsey_trace(p, psi_a, times)
    tr_b = ramsey.ramsey_trace(p, psi_b, times)
    assert np.max(np.abs(tr_mix.trace - 0.3 * tr_a.trace - 0.7 * tr_b.trace)) < 1e-10


def test_gravity_off_reduction():
    # With the trap separation forced to zero, gravity affects only the
    # scalar offset phase; the bounded dynamics must match the g=0 run.
    times = np.linspace(0.0, 6.0, 31)
    p_g = natural_params(g=0.8)
    p_0 = natural_params(g=0.0)
    tr_g = ramsey.ramsey_trace(p_g, states.fock_state(128, 0), times, x0=0.0)
    tr_0 = ramsey.ramsey_trace(p_0, states.fock_state(128, 0), times, x0=0.0)
    assert np.max(np.abs(tr_g.visibility - tr_0.visibility)) < 1e-12
    gap_diff = (
        model.offset_gap(p_g, 1, 0) - model.offset_gap(p_0, 1, 0)
    ) / p_g.hbar
    corrected = tr_g.trace * np.exp(1j * gap_diff * times)
    assert np.max(np.abs(corrected - tr_0.trace)) < 1e-10


def test_corotating_frame_removes_internal_phase():
    p = natural_params()
    times = np.linspace(0.0, 2.0, 11)
    lab = ramsey.ramsey_trace(p, states.fock_state(64, 0), times)
    rot = ramsey.ramsey_trace(p, states.fock_state(64, 0), times, corotating=True)
    wc = p.omega_c(1)
    assert np.max(np.abs(rot.trace - lab.trace * np.exp(1j * wc * times))) < 1e-12
    assert np.array_equal(rot.visibility, np.abs(rot.trace))


def test_corotating_si_phase_is_cancellation_free():
    # SI, where E_1/hbar ~ 3e15 rad/s: the co-rotating phase must carry the
    # mass-defect rate, not the rounding of two large reduced phases.
    p = model.build_system(
        {"unit_system": "si", "M0": 1e-26, "omega0": 10.0, "g": 1e3,
         "levels": [0.0, 2.8e-19]}
    )
    F = Fraction
    dM = F(p.levels[1]) / F(p.c) ** 2
    M1 = F(p.M0) + dM
    rate_ref = -F(p.g) ** 2 * dM * (M1 + F(p.M0)) / (2 * F(p.k) * F(p.hbar))
    rate = ramsey._corotating_rate_per_omega0(p, 1) * p.omega0
    assert abs(F(rate) - rate_ref) <= abs(rate_ref) * F(1, 10**14)

    times = np.linspace(1e-4, 1e-2, 50)
    state = states.fock_state(64, 0)
    rot = ramsey.ramsey_trace(p, state, times, x0=0.0, corotating=True)
    spec = fock.spectrum(model.derive_mode_frame(p, 1), 0.0, 64)
    bounded = ramsey._bounded_trace(spec, p.omega0, state, times)
    ref_phase = np.array([float(-rate_ref * F(t)) for t in times])
    err = np.angle(rot.trace / bounded * np.exp(-1j * ref_phase))
    assert np.max(np.abs(err)) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 5])
def test_corotating_si_fock_phase_is_the_zero_point_shift(n):
    # The Fock state's zero-point shift -(n + 1/2) omega0 t expm1(2 r_1), to
    # the same relative O(r_1) as the vacuum's below. At x0 = 0 the series
    # gives <n|W|n> = <0|W|0> e^{-i n psi} P_n(1/|P|), P_n real; the circle
    # sum's absolute roundoff of 1e-14 left it 1e-4 to 2e-5 relative off.
    p = model.build_system(
        {"unit_system": "si", "M0": 1e-26, "omega0": 1e6, "g": 0.0,
         "levels": [0.0, 1e-19]}
    )
    r1 = model.derive_mode_frame(p, 1).r_i
    times = np.linspace(0.0, 4.0 * math.pi / p.omega0, 41)[1:]
    tr = ramsey.fock_trace(p, n, times, x0=0.0, corotating=True)
    ref = -(n + 0.5) * p.omega0 * times * math.expm1(2.0 * r1)
    assert np.max(np.abs(tr.phase / ref - 1.0)) < 1e-9


@pytest.mark.parametrize("nbar", [None, 2.0])
def test_corotating_si_trace_phase_is_the_zero_point_shift(nbar):
    # SI, g = 0, x0 = 0: the co-rotating trace of the vacuum or of a thermal
    # state is Tr(rho U_0b^dag U_1b), whose phase is the zero-point shift
    # -(nbar + 1/2) (omega_1 - omega_0) t = -(nbar + 1/2) omega0 t expm1(2 r_1)
    # up to a relative O(r_1) ~ 3e-11. It is at most ~1e-9 rad, so a phase
    # formed as a difference of ~10 rad angles keeps only ~6 digits of it.
    p = model.build_system(
        {"unit_system": "si", "M0": 1e-26, "omega0": 1e6, "g": 0.0,
         "levels": [0.0, 1e-19]}
    )
    r1 = model.derive_mode_frame(p, 1).r_i
    times = np.linspace(0.0, 4.0 * math.pi / p.omega0, 41)[1:]
    tr = ramsey.gaussian_trace(p, times, x0=0.0, corotating=True, nbar=nbar or 0.0)
    ref = -((nbar or 0.0) + 0.5) * p.omega0 * times * math.expm1(2.0 * r1)
    assert np.max(np.abs(tr.phase / ref - 1.0)) < 1e-9


def _dense_excited_hamiltonian(p, frame, x0, dim):
    a = fock.annihilation(dim)
    alpha = math.sqrt(frame.M_i * frame.omega_i / (2.0 * p.hbar)) * x0
    a1 = math.cosh(frame.r_i) * a - math.sinh(frame.r_i) * a.conj().T + alpha * np.eye(dim)
    return p.hbar * frame.omega_i * (a1.conj().T @ a1 + 0.5 * np.eye(dim))


@pytest.mark.parametrize("dim", [2, 3, 64, 257])
def test_banded_hamiltonian_matches_dense_product(dim):
    # The excited spectrum used by ramsey_trace reassembles the dense H_1b,
    # truncation corner included.
    p = natural_params(E1=2.0, c=2.0, g=0.7)
    frame = model.derive_mode_frame(p, 1)
    alpha = math.sqrt(frame.M_i * frame.omega_i / (2.0 * p.hbar)) * 0.9
    spec = fock.spectrum(frame, alpha, dim)
    assert spec.V.dtype == np.float64
    H = p.hbar * (spec.V * spec.w) @ spec.V.T
    ref = _dense_excited_hamiltonian(p, frame, 0.9, dim)
    assert np.max(np.abs(H - ref)) <= 1e-14 * np.max(np.abs(ref))
    # Truncation corner: the last diagonal entry lacks the sinh^2 term.
    corner = frame.omega_i * (math.cosh(frame.r_i) ** 2 * (dim - 1) + alpha**2 + 0.5)
    assert H[-1, -1] == pytest.approx(corner, rel=1e-14)
    assert ref[-1, -1].real == pytest.approx(corner, rel=1e-14)


def _per_time_trace(spec, omega0, state, times):
    """Reference: Tr{U_1b rho U_0b^dag} from dense propagators, one time at a time."""
    rho = state.density()
    w0 = omega0 * (np.arange(state.dim) + 0.5)
    out = []
    for t in times:
        U1 = (spec.V * np.exp(-1j * spec.w * t)) @ spec.V.T
        U0 = np.diag(np.exp(-1j * w0 * t))
        out.append(np.trace(U1 @ rho @ U0.conj().T))
    return np.array(out)


@pytest.mark.parametrize("n_times", [1, ramsey._TIME_CHUNK + 1])
def test_chunked_contraction_matches_per_time_loop(n_times):
    p = natural_params(E1=2.0, c=2.0, g=0.4)
    dim = 64
    frame = model.derive_mode_frame(p, 1)
    spec = fock.spectrum(frame, math.sqrt(frame.M_i * frame.omega_i / 2.0) * 0.8, dim)
    times = np.linspace(0.0, 9.0, n_times)
    mix = states.mixed_state(
        0.4 * states.fock_state(20, 1).density()
        + 0.6 * states.coherent_state(20, 0.5 - 0.7j).density()
    )
    cases = [
        states.fock_state(20, 3),                # support 4 of 64
        states.coherent_state(30, 0.9 + 0.4j),   # support 30 of 64
        states.coherent_state(dim, 1.1),         # full support
        mix,                                     # mixed, support 20 of 64
        states.thermal_state_cm(dim, 0.7),       # mixed, full support
    ]
    for state in cases:
        got = ramsey._bounded_trace(spec, p.omega0, state, times)
        # The dense reference needs the state padded to the spectrum's dim.
        pad = dim - state.dim
        padded = (states.pure_state(np.pad(state.data, (0, pad))) if state.is_pure
                  else states.mixed_state(np.pad(state.data, (0, pad))))
        assert np.max(np.abs(got - _per_time_trace(spec, p.omega0, padded, times))) < 1e-12


def _uncut_trace(spec, omega0, state, times):
    """Reference: sum_{n, m} e^{-i w1_n t} C[n, m] e^{+i w0_m t} over every
    eigen-row n and Fock column m, C[n, m] = V1[m, n] (V1^T rho)[n, m]."""
    V1 = spec.V[: state.dim]
    C = V1.T * (V1.T @ state.density())
    E1 = np.exp(-1j * np.outer(times, spec.w))
    E0 = np.exp(1j * np.outer(times, omega0 * (np.arange(state.dim) + 0.5)))
    return ((E1 @ C) * E0).sum(axis=1)


def _excited_spectrum(p, x0, dim):
    frame = model.derive_mode_frame(p, 1)
    return fock.spectrum(frame, math.sqrt(frame.M_i * frame.omega_i / (2.0 * p.hbar)) * x0, dim)


def _squeeze_params(S):
    """Natural units with omega_1 / omega_0 = S: E1 = 100 (1/S^2 - 1) at c = 10."""
    return natural_params(E1=100.0 * (1.0 / S**2 - 1.0), c=10.0)


# The cut moves a point by at most (eps / 4) sum |C| (5.6e-17 for a thermal
# state), but two double contractions summed in different orders already
# differ by about 1e-15: without the cut, _bounded_trace deviates from
# _uncut_trace by 1.005e-15 at nbar = 5, S = 0.75, x0 = 0, and with it by up
# to 1.55e-15 over a 5 x 5 x 4 grid of the property's box at dim 256.
_CONTRACTION_ROUNDOFF = 4e-15


def test_cut_contraction_matches_uncut_sum():
    # The roundoff-bounded support of _bounded_trace leaves every point at
    # roundoff distance from the whole contraction: a dim-512 thermal state, a
    # coherent state with every Fock amplitude nonzero, and a mixture with
    # complex off-diagonal coherences.
    p = _squeeze_params(0.8)
    times = np.linspace(0.0, 4.0 * math.pi, 2000)
    spec = _excited_spectrum(p, 1.0, 512)
    coherent = states.coherent_state(128, 3.0 - 2.0j)
    assert np.all(coherent.data != 0)
    mix = states.mixed_state(
        0.5 * states.coherent_state(64, 1.2 + 0.6j).density()
        + 0.3 * states.coherent_state(64, -0.4 + 1.1j).density()
        + 0.2 * states.fock_state(64, 2).density()
    )
    assert np.max(np.abs(np.imag(mix.data))) > 0.1
    for state in [states.thermal_state_cm(512, 3.0), coherent, mix]:
        got = ramsey._bounded_trace(spec, p.omega0, state, times)
        assert np.max(np.abs(got - _uncut_trace(spec, p.omega0, state, times))) < _CONTRACTION_ROUNDOFF


def test_support_drops_thermal_tail_and_fock_zeros():
    p = _squeeze_params(0.8)
    spec = _excited_spectrum(p, 1.0, 512)
    V1 = spec.V
    C = V1.T * (V1.T @ states.thermal_state_cm(512, 3.0).data)
    rows, k = ramsey._support(C)
    # (1 - q) q^m, q = 3/4, falls below 1e-17 past m ~ 130.
    assert 100 < k < 200
    assert rows.size < 400
    tau = 0.25 * np.finfo(float).eps * np.abs(C).sum()
    assert np.abs(C).sum() - np.abs(C[rows, :k]).sum() <= tau
    # A Fock state keeps exactly its support: the zero columns past it go.
    psi = states.fock_state(20, 3).data
    C = V1[:20].T * np.outer(V1[:20].T @ psi, psi.conj())
    assert ramsey._support(C)[1] == 4


def test_bounded_trace_builds_c_over_the_state_support(monkeypatch):
    # V1^T rho is built from fock.block of the state, rho[:s, :s] (psi[:s]
    # psi[:s]^dag for a pure state) with s = fock.support of the state, not
    # from the whole dim x dim density.
    p = _squeeze_params(0.8)
    spec = _excited_spectrum(p, 1.0, 512)
    times = np.linspace(0.0, 4.0 * math.pi, 300)
    real_matmul = fock.real_matmul
    operands = []

    def spy(R, Z):
        operands.append((R.shape, Z.shape))
        return real_matmul(R, Z)

    monkeypatch.setattr(fock, "real_matmul", spy)
    for state in (states.thermal_state_cm(512, 3.0), states.coherent_state(512, 1.5 - 0.5j)):
        s = fock.support(state.data)
        assert s < 200
        operands.clear()
        got = ramsey._bounded_trace(spec, p.omega0, state, times)
        assert operands[0] == ((512, s), (s, s))
        assert np.max(np.abs(got - _uncut_trace(spec, p.omega0, state, times))) < _CONTRACTION_ROUNDOFF


@settings(max_examples=25, deadline=None)
@given(nbar=st.floats(0.0, 5.0), S=st.floats(0.6, 0.99), x0=st.floats(0.0, 3.0))
@example(nbar=5.0, S=0.75, x0=0.0)
def test_cut_thermal_contraction_property(nbar, S, x0):
    p = _squeeze_params(S)
    spec = _excited_spectrum(p, x0, 256)
    state = states.thermal_state_cm(256, nbar)
    times = np.linspace(0.0, 4.0 * math.pi, 300)
    got = ramsey._bounded_trace(spec, p.omega0, state, times)
    assert np.max(np.abs(got - _uncut_trace(spec, p.omega0, state, times))) < _CONTRACTION_ROUNDOFF


def test_thermal_trace_takes_one_real_product_bit_for_bit(monkeypatch):
    # A thermal density has a zero imaginary part, so fock.real_matmul builds
    # V1^T rho with one real product: the dim-512 trace is bit-identical to
    # the one built with the two-product form.
    p = _squeeze_params(0.8)
    state = states.thermal_state_cm(512, 3.0)
    assert not state.data.imag.any()
    times = np.linspace(0.0, 4.0 * math.pi, 500)
    got = ramsey.ramsey_trace(p, state, times, x0=1.0).trace
    monkeypatch.setattr(fock, "real_matmul", lambda R, Z: R @ Z.real + 1j * (R @ Z.imag))
    assert np.array_equal(got, ramsey.ramsey_trace(p, state, times, x0=1.0).trace)


def _count_solves(monkeypatch):
    solves = []
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        solves.append((a.shape[0], np.iscomplexobj(a)))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return solves


def test_one_real_solve_per_schedule_dim(monkeypatch):
    # An explicit dim is solved once, with a real eigh.
    solves = _count_solves(monkeypatch)
    p = natural_params(E1=2.0, c=2.0, g=0.0)
    times = np.linspace(0.0, 6.0, 300)
    ramsey.ramsey_trace(p, states.fock_state(96, 1), times, x0=4.5)
    assert solves == [(96, False)]


def test_exact_routes_make_no_solve(monkeypatch):
    solves = _count_solves(monkeypatch)
    p = natural_params(E1=2.0, c=2.0, g=0.0)
    times = np.linspace(0.0, 6.0, 300)
    ramsey.gaussian_trace(p, times, x0=4.5, alpha=0.8 - 0.3j, nbar=1.5)
    ramsey.fock_trace(p, 3, times, x0=4.5)
    assert solves == []


@pytest.mark.parametrize("corotating", [False, True])
@settings(max_examples=8, deadline=None)
@given(
    S=st.floats(0.5, 0.99),
    x0=st.floats(0.0, 8.0),
    radius=st.floats(0.0, 2.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    nbar=st.floats(0.0, 3.0),
)
def test_gaussian_kernel_matches_eigh(corotating, S, x0, radius, angle, nbar):
    # The kernel route against the truncated eigh route at dim 1024 for the
    # displaced thermal state D(alpha) rho_th D(alpha)^dag, built at dim 256
    # with fock.displace_matrix and padded to dim 1024 (nbar = 0: the
    # coherent state |alpha>).
    # Dim 1024 holds every drawn state up to x0 = 6 (5.2e-13 at the
    # corners); at S 0.5, x0 8, alpha 2, nbar 3 it passes the tail rule yet
    # is 1.5e-9 off, so a thermal draw stops at x0 = 6.
    alpha = radius * complex(math.cos(angle), math.sin(angle))
    if nbar > 0.0:
        x0 = min(x0, 6.0)
        D = fock.displace_matrix(256, alpha)
        rho = D @ states.thermal_state_cm(256, nbar).data @ D.conj().T
        state = states.mixed_state(np.pad(rho, (0, 1024 - 256)))
    else:
        state = states.coherent_state(1024, alpha)
    p = natural_params(E1=100.0 * (1.0 / S**2 - 1.0), c=10.0)
    w1 = model.derive_mode_frame(p, 1).omega_i
    times = np.linspace(0.0, 4.0 * math.pi / w1, 13)
    kernel = ramsey.gaussian_trace(p, times, x0=x0, corotating=corotating,
                                   alpha=alpha, nbar=nbar)
    ref = ramsey.ramsey_trace(p, state, times, x0=x0, corotating=corotating)
    assert kernel.dim is None and kernel.x0 == ref.x0
    assert np.max(np.abs(kernel.trace - ref.trace)) < 1e-11


@pytest.mark.parametrize("corotating", [False, True])
@settings(max_examples=8, deadline=None)
@given(
    S=st.floats(0.5, 0.99),
    x0=st.floats(0.0, 8.0),
    n=st.integers(0, 8),
)
def test_generating_function_matches_eigh(corotating, S, x0, n):
    # fock_trace against the truncated eigh route at dim 1024, which holds
    # every drawn state and displacement.
    p = natural_params(E1=100.0 * (1.0 / S**2 - 1.0), c=10.0)
    w1 = model.derive_mode_frame(p, 1).omega_i
    times = np.linspace(0.0, 4.0 * math.pi / w1, 13)
    exact = ramsey.fock_trace(p, n, times, x0=x0, corotating=corotating)
    ref = ramsey.ramsey_trace(p, states.fock_state(1024, n), times, x0=x0,
                              corotating=corotating)
    assert exact.dim is None and exact.x0 == ref.x0
    assert np.max(np.abs(exact.trace - ref.trace)) < 1e-11


def test_fock_trace_n60_matches_eigh_at_dim_2048():
    # n = 60: the series sums 60 terms of exp(N / D) / sqrt(D) per time.
    p = natural_params(E1=100.0 * (1.0 / 0.7**2 - 1.0), c=10.0)
    w1 = model.derive_mode_frame(p, 1).omega_i
    times = np.linspace(0.0, 4.0 * math.pi / w1, 7)
    exact = ramsey.fock_trace(p, 60, times, x0=2.0)
    ref = ramsey.ramsey_trace(p, states.fock_state(2048, 60), times, x0=2.0)
    assert np.max(np.abs(exact.trace - ref.trace)) < 1e-11


@pytest.mark.parametrize("n", [1, 2, 5, 17, 60, 100])
def test_fock_trace_without_separation_is_the_legendre_closed_form(n):
    # At x0 = 0, c1 = c2 = 0 and <n|W|n> = <0|W|0> e^{-i n psi} P_n(1/|P|),
    # psi = arg P, with P_n from numpy's Legendre series, not the recurrence
    # of the series route. The two roundings of P_n near |P| -> 1 (a
    # revival) differ by about n^2 eps.
    p = natural_params(E1=100.0 * (1.0 / 0.8**2 - 1.0), c=10.0)
    vap = analytic.VacuumAmplitudeParams.from_system(p, x0=0.0)
    times = np.linspace(0.0, 4.0 * math.pi / vap.omega1, 401)
    P = analytic._bogoliubov(vap, times)[0]
    vacuum = ramsey.fock_trace(p, 0, times, x0=0.0).trace
    ref = vacuum * np.exp(-1j * n * np.angle(P)) * legendre.legval(1.0 / np.abs(P), [0] * n + [1])
    assert np.max(np.abs(ramsey.fock_trace(p, n, times, x0=0.0).trace - ref)) < 2e-16 * (n + 2) ** 2


def test_fock_trace_memory_does_not_grow_with_n():
    # analytic._diagonal runs in blocks sized from one memory budget, on the
    # series and on the circle sum alike: at 256 times the peak was 17 MB at
    # n = 60 and 269 MB at n = 1000 when the circle was one block.
    p = natural_params(E1=2.0, c=2.0, g=0.0)
    times = np.linspace(0.0, 10.0, 256)
    peaks = {}
    for n in (60, 1000):
        tracemalloc.start()
        ramsey.fock_trace(p, n, times)
        peaks[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[1000] <= 2.0 * peaks[60]


def test_gaussian_kernel_far_displaced_large_alpha():
    # x0 = 30 and alpha = 3: the vacuum factor alone underflows and exp(L)
    # alone is large; their exponents are summed before one exp.
    p = natural_params(E1=100.0 * (1.0 / 0.7**2 - 1.0), c=10.0)
    w1 = model.derive_mode_frame(p, 1).omega_i
    times = np.linspace(0.0, 4.0 * math.pi / w1, 2001)
    tr = ramsey.gaussian_trace(p, times, x0=30.0, alpha=3.0)
    assert np.all(np.isfinite(tr.trace))
    assert np.all(tr.visibility <= 1.0 + 1e-12)
    ref = analytic.coherent_visibility(p, 30.0, 3.0, times)
    assert np.max(np.abs(tr.visibility - ref)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    M0=st.floats(1e-27, 1e-24),
    omega0=st.floats(1e3, 1e6),
    defect=st.floats(1e-3, 1.0),
    g=st.floats(0.0, 50.0),
    radius=st.floats(0.0, 2.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    n=st.integers(1, 8),
    nbar=st.floats(0.0, 3.0),
)
# A co-rotating phase of ~2e5 rad: formed from SI and natural-unit rates that
# differ by a few ulps, the two traces once differed by 1.2e-10.
@example(M0=6.203535597789642e-25, omega0=1000.0, defect=1.0, g=36.0, radius=0.0,
         angle=0.0, n=1, nbar=0.0)
def test_si_and_natural_units_give_one_trace(M0, omega0, defect, g, radius, angle, n, nbar):
    # One system in SI and in natural units: the visibility and the
    # co-rotating trace, phase included, are the same function of omega0 t,
    # for a coherent, a Fock and a thermal state.
    # (The lab-frame phase, E_1 t / hbar, is a large number rounded
    # differently in each unit system.)
    hbar, c = constants.HBAR, constants.C_LIGHT
    levels = [0.0, defect * M0 * c**2]
    si = model.build_system({"unit_system": "si", "M0": M0, "omega0": omega0,
                             "levels": levels, "g": g})
    nat = model.build_system({"unit_system": "natural", "M0": M0, "omega0": omega0,
                              "levels": levels, "g": g, "hbar": hbar, "c": c})
    alpha = radius * complex(math.cos(angle), math.sin(angle))
    t_nat = np.linspace(0.0, 4.0 * math.pi / model.derive_mode_frame(nat, 1).omega_i, 41)
    routes = (lambda q, t: ramsey.gaussian_trace(q, t, corotating=True, alpha=alpha),
              lambda q, t: ramsey.fock_trace(q, n, t, corotating=True),
              lambda q, t: ramsey.gaussian_trace(q, t, corotating=True, nbar=nbar))
    for route in routes:
        a, b = route(si, t_nat / omega0), route(nat, t_nat)
        assert a.x0 == pytest.approx(b.x0 * math.sqrt(hbar / (M0 * omega0)), rel=1e-12)
        assert np.max(np.abs(a.visibility - b.visibility)) < 1e-12
        assert np.max(np.abs(a.trace - b.trace)) < 1e-10


def test_phase_is_stable_across_sub_floor_gaps():
    # Fock n = 2 far from the excited trap centre: about half the points have
    # V < PHASE_FLOOR. Their phase is NaN, and a 1e-13 change of the bounded
    # trace moves no phase where V > 1e-6 by more than 1e-6 rad.
    c, S = 10.0, 0.8
    p = natural_params(E1=c * c * (1.0 / S**2 - 1.0), c=c)
    w1 = model.derive_mode_frame(p, 1).omega_i
    times = np.linspace(0.0, 4.0 * math.pi / w1, 2000)
    tr = ramsey.fock_trace(p, 2, times, x0=7.0)
    low = tr.visibility < ramsey.PHASE_FLOOR
    assert low.sum() > 500
    assert np.array_equal(np.isnan(tr.phase), low)
    high = tr.visibility > 1e-6
    rng = np.random.default_rng(0)
    for _ in range(5):
        noise = 1e-13 * np.exp(2j * math.pi * rng.random(times.size))
        moved = dataclasses.replace(tr, bounded=tr.bounded + noise)
        assert np.max(np.abs(moved.phase[high] - tr.phase[high])) < 1e-6


def test_lab_frame_phase_is_not_aliased():
    # verify._natural_params(0.5), the vacuum at x0 = 0, 400 points over
    # 4 pi / omega_1: the rate turns by 18.9 rad a step. Unwrapping the
    # product of the two factors made up a slow phase there. The rate term is
    # subtracted as it is, so the phase is the bounded factor's, unwrapped,
    # less rate t.
    p = verify._natural_params(0.5)
    w1 = model.derive_mode_frame(p, 1).omega_i
    times = np.linspace(0.0, 4.0 * math.pi / w1, 400)
    rate = model.offset_gap(p, 1, 0) / p.hbar
    assert rate * (times[1] - times[0]) > 18.0
    tr = ramsey.gaussian_trace(p, times, x0=0.0)
    assert np.array_equal(tr.offset, rate * times)
    vap = analytic.VacuumAmplitudeParams.from_system(p, x0=0.0)
    bounded = np.unwrap(np.angle(analytic.gaussian_amplitude(vap, times, 0j, 0.0)))
    assert not np.isnan(tr.phase).any()
    assert np.max(np.abs(tr.phase + tr.offset - bounded)) < 1e-12


_RULE_DIM = 256


def _rule_trace(p, times, x0, corotating, state, n, eigh):
    """The trace of one state on its exact route or, at _RULE_DIM, the eigh route."""
    where = {"x0": x0, "corotating": corotating}
    if eigh:
        cm = {"vacuum": lambda: states.fock_state(_RULE_DIM, 0),
              "coherent": lambda: states.coherent_state(_RULE_DIM, 0.6 - 0.3j),
              "thermal": lambda: states.thermal_state_cm(_RULE_DIM, 0.8),
              "fock": lambda: states.fock_state(_RULE_DIM, n)}[state]()
        return ramsey.ramsey_trace(p, cm, times, **where)
    if state == "fock":
        return ramsey.fock_trace(p, n, times, **where)
    alpha = 0.6 - 0.3j if state == "coherent" else 0j
    nbar = 0.8 if state == "thermal" else 0.0
    return ramsey.gaussian_trace(p, times, alpha=alpha, nbar=nbar, **where)


@settings(max_examples=40, deadline=None)
@given(
    S=st.floats(0.5, 0.99),
    x0=st.floats(0.0, 3.0),
    c=st.sampled_from([2.0, 10.0]),
    corotating=st.booleans(),
    state=st.sampled_from(["vacuum", "coherent", "thermal", "fock"]),
    n=st.integers(1, 3),
    eigh=st.booleans(),
)
# Lab-frame draws whose rate is resolved and whose every point is above the
# floor, on both routes.
@example(S=0.9, x0=0.5, c=2.0, corotating=False, state="vacuum", n=1, eigh=False)
@example(S=0.8, x0=1.0, c=2.0, corotating=False, state="thermal", n=1, eigh=True)
@example(S=0.7, x0=0.0, c=2.0, corotating=False, state="fock", n=2, eigh=False)
def test_phase_rule_keeps_trace_and_resolved_phases(S, x0, c, corotating, state, n, eigh):
    # The trace, and so P and V, is the product of the two factors with the
    # offset reduced mod 2 pi, bit for bit. Where every point is above the
    # floor and the steps of the bounded factor's phase and of the rate term
    # add up to less than pi, unwrapping the product chooses the same
    # branches, so the phase is that unwrapped product's up to rounding. (A
    # rate step below pi/2 alone is not enough: a thermal draw with bounded
    # steps of 2.2 rad once differed by 4 pi.)
    p = verify._natural_params(S, c=c)
    w1 = model.derive_mode_frame(p, 1).omega_i
    times = np.linspace(0.0, 4.0 * math.pi / w1, 120)
    tr = _rule_trace(p, times, x0, corotating, state, n, eigh)
    product = tr.bounded * np.exp(-1j * (tr.offset % (2.0 * math.pi)))
    assert tr.trace.tobytes() == product.tobytes()
    assert tr.probability.tobytes() == (0.5 + 0.5 * np.real(product)).tobytes()
    steps = (np.abs(np.diff(np.unwrap(np.angle(tr.bounded)))).max()
             + np.abs(np.diff(tr.offset)).max())
    if tr.visibility.min() >= ramsey.PHASE_FLOOR and steps < math.pi:
        assert np.max(np.abs(tr.phase - np.unwrap(np.angle(tr.trace)))) < 1e-11


def test_numeric_phase_matches_analytic():
    p = natural_params(E1=4.0, c=3.0, g=0.0)
    w1 = model.derive_mode_frame(p, 1).omega_i
    times = np.linspace(0.0, 2.0 * math.pi / w1, 200)
    tr = ramsey.ramsey_trace(p, states.fock_state(256, 0), times, x0=0.3)
    amp = ramsey.gaussian_trace(p, times, x0=0.3).trace
    assert np.max(np.abs(np.abs(amp) - tr.visibility)) < 1e-6
    dphi = np.angle(tr.trace * np.conj(amp))
    assert np.max(np.abs(dphi)) < 1e-5


@pytest.mark.parametrize("corotating", [False, True])
@pytest.mark.parametrize("system, x0", [
    ({"unit_system": "natural", "c": 2.0, "levels": [0.0, 2.0], "g": 0.3}, None),
    ({"unit_system": "natural", "c": 2.0, "levels": [0.0, 2.0], "g": 0.0}, 1.3),
    ({"unit_system": "si", "M0": 1e-26, "omega0": 1e6, "levels": [0.0, 1e-19]}, None),
], ids=["sag", "x0", "si"])
def test_fock_vacuum_trace_is_the_coherent_vacuum_trace_bit_for_bit(system, x0, corotating):
    # Both read <0|W|0> = exp(expo) / root: fock_trace through
    # analytic._diagonal, gaussian_trace as the kernel at y = 0 after a zero
    # displacement, which add only zeros, times 1 - q = 1.
    p = model.build_system(system)
    times = np.linspace(0.0, 4.0 * math.pi / model.derive_mode_frame(p, 1).omega_i, 777)
    fock0 = ramsey.fock_trace(p, 0, times, x0=x0, corotating=corotating).trace
    vacuum = ramsey.gaussian_trace(p, times, x0=x0, corotating=corotating).trace
    assert fock0.tobytes() == vacuum.tobytes()


_EXACT_ROUTES = {
    "coherent_trace": lambda p, alpha, t: ramsey.gaussian_trace(p, t, alpha=alpha),
    "thermal_trace": lambda p, nbar, t: ramsey.gaussian_trace(p, t, nbar=nbar),
    "fock_trace": ramsey.fock_trace,
}


@pytest.mark.parametrize("route, value, error", [
    ("coherent_trace", complex(math.nan, 1.0), NotNormalized),
    ("coherent_trace", 1e200, NotNormalized),
    ("thermal_trace", math.nan, NotNormalized),
    ("thermal_trace", math.inf, NotNormalized),
    ("thermal_trace", -1.0, NotNormalized),
    ("thermal_trace", 1e17, NotNormalized),
    ("fock_trace", -1, DimensionMismatch),
])
def test_exact_routes_check_their_own_parameter(route, value, error):
    # With no truncated state to check it, each exact route refuses a
    # parameter it has no value for: a non-finite alpha or alpha^2, an nbar
    # that is not finite and >= 0 or whose q rounds to 1, a negative n. The
    # coherent and thermal traces both run through gaussian_trace.
    with pytest.raises(error):
        _EXACT_ROUTES[route](natural_params(), value, [0.0, 0.1])


_PREPARATION_ROUTES = [
    ({}, "gaussian_kernel", lambda p, t, **w: ramsey.gaussian_trace(p, t, **w)),
    ({"n": 3}, "generating_function", lambda p, t, **w: ramsey.fock_trace(p, 3, t, **w)),
    ({"alpha": 1.2 - 0.7j}, "gaussian_kernel",
     lambda p, t, **w: ramsey.gaussian_trace(p, t, alpha=1.2 - 0.7j, **w)),
    ({"nbar": 1.5}, "gaussian_kernel",
     lambda p, t, **w: ramsey.gaussian_trace(p, t, nbar=1.5, **w)),
]


@pytest.mark.parametrize("fields, route, direct", _PREPARATION_ROUTES,
                         ids=["vacuum", "fock", "coherent", "thermal"])
def test_exact_trace_is_the_route_it_picks(fields, route, direct):
    # exact_trace is fock_trace for a Fock n != 0 and gaussian_trace for
    # every other state, bit for bit, with the keywords passed through.
    p = natural_params(g=0.5)
    times = np.linspace(0.0, 7.0, 41)
    for where in ({}, {"level": 1, "x0": 0.4, "corotating": True}):
        got = ramsey.exact_trace(p, states.Preparation(**fields), times, **where)
        want = direct(p, times, **where)
        assert got.route == want.route == route and got.dim is None
        assert got.x0 == want.x0 and got.corotating == want.corotating
        assert got.bounded.tobytes() == want.bounded.tobytes()
        assert got.offset.tobytes() == want.offset.tobytes()


def test_every_trace_names_its_route():
    p = natural_params()
    times = np.linspace(0.0, 3.0, 7)
    assert ramsey.gaussian_trace(p, times).route == "gaussian_kernel"
    assert ramsey.fock_trace(p, 2, times).route == "generating_function"
    trace = ramsey.ramsey_trace(p, states.fock_state(32, 0), times)
    assert trace.route == "eigh" and trace.dim == 32
