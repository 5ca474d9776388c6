import cmath
import decimal
import math
import warnings
from decimal import Decimal

import numpy as np
from numpy.polynomial import legendre
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapmass import analytic, drive, fock, model, ramsey, states, verify
from trapmass.errors import DegenerateLevels, NotNormalized, ParamMismatch, RegimeWarning


def natural_params(E1=2.0, c=2.0, g=0.0):
    return model.build_system(
        {"unit_system": "natural", "c": c, "levels": [0.0, E1], "g": g}
    )


def test_amplitude_at_t_zero():
    p = natural_params()
    amp = ramsey.gaussian_trace(p, 0.0, x0=0.7).trace[0]
    assert amp == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_revival_visibility_value():
    # S = 0.9, a0 = 1, x0 = 5: V(pi/omega_1) = exp(-a0 x0^2) = exp(-25).
    c = 10.0
    E1 = (1.0 / 0.9**2 - 1.0) * c**2
    p = natural_params(E1=E1, c=c)
    vap = analytic.VacuumAmplitudeParams.from_system(p, x0=5.0)
    assert vap.S == pytest.approx(0.9, rel=1e-12)
    assert vap.a0 == pytest.approx(1.0, rel=1e-12)
    t_rev = math.pi / vap.omega1
    amp = ramsey.gaussian_trace(p, t_rev, x0=5.0).trace[0]
    assert abs(amp) == pytest.approx(math.exp(-25.0), rel=1e-10)


def test_visibility_periodicity_and_bounds():
    vis = analytic.closed_form_visibility(
        0.8, 1.0, 0.5, np.linspace(0.0, 4.0 * math.pi, 401)
    )
    assert np.all(vis <= 1.0 + 1e-12) and np.all(vis > 0.0)
    assert vis[0] == pytest.approx(1.0, abs=1e-14)
    # Exact 2*pi periodicity in th = omega_1 t.
    assert vis[200] == pytest.approx(vis[0], abs=1e-12)
    assert np.max(np.abs(vis[:200] - vis[200:400])) < 1e-12


def test_extrema_against_small_regime_formula():
    c = 40.0
    E1 = (1.0 / 0.9**2 - 1.0) * c**2
    p = natural_params(E1=E1, c=c)
    t_min, v_min, t_rev, v_rev = analytic.visibility_extrema(p, x0=0.02)
    w1 = model.derive_mode_frame(p, 1).omega_i
    assert t_rev == pytest.approx(math.pi / w1, rel=1e-14)
    assert v_rev == pytest.approx(math.exp(-1.0 * 0.02**2), rel=1e-12)
    # Small x0: the minimum sits near the half revival pi/(2 omega_1).
    assert t_min == pytest.approx(0.5 * t_rev, rel=5e-2)
    assert v_min == pytest.approx(
        analytic.small_regime_min_visibility(0.9, 1.0, 0.02), rel=1e-3
    )
    # The simplified formula is exactly the closed form at th = pi/2.
    assert analytic.small_regime_min_visibility(0.9, 1.0, 0.02) == pytest.approx(
        float(analytic.closed_form_visibility(0.9, 1.0, 0.02, math.pi / 2.0)),
        rel=1e-14,
    )


@settings(max_examples=60, deadline=None)
@given(
    S=st.floats(0.5, 0.99),
    x0=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12),
)
def test_visibility_extrema_array_call(S, x0):
    p = verify._natural_params(S)
    x0 = np.asarray(x0)
    t_min, v_min, t_rev, v_rev = analytic.visibility_extrema(p, x0)
    for i, x in enumerate(x0):
        assert analytic.visibility_extrema(p, float(x)) == (
            t_min[i], v_min[i], t_rev[i], v_rev[i]
        )
    vap = analytic.VacuumAmplitudeParams.from_system(p)
    assert np.all((t_min > 0.0) & (t_min < t_rev))
    assert np.array_equal(
        v_min, analytic.closed_form_visibility(vap.S, vap.a0, x0, vap.omega1 * t_min)
    )
    theta = np.linspace(0.0, math.pi, 257)[1:-1]
    grid = analytic.closed_form_visibility(vap.S, vap.a0, x0[:, None], theta[None, :])
    assert np.all(v_min <= grid.min(axis=1) + 1e-12)


@settings(max_examples=80, deadline=None)
@given(S=st.floats(0.05, 0.9999), A=st.floats(0.0, 100.0))
def test_closed_form_minimum_is_below_a_dense_grid(S, A):
    # The closed-form t_min against a dense search of its own closed form;
    # S near 1/sqrt(3) turns the sign of the linear term at A = 0.
    p = verify._natural_params(S)
    vap = analytic.VacuumAmplitudeParams.from_system(p)
    x0 = math.sqrt(A / vap.a0)
    t_min, v_min, t_rev, _ = analytic.visibility_extrema(p, x0)
    assert 0.0 < t_min < t_rev
    theta = np.linspace(0.0, math.pi, 20001)[1:-1]
    grid = analytic.closed_form_visibility(vap.S, vap.a0, x0, theta)
    assert v_min <= grid.min() * (1.0 + 1e-14)


@pytest.mark.parametrize("system", [
    {"unit_system": "natural", "c": 2.0, "levels": [0.0, 2.0]},
    {"unit_system": "natural", "c": 10.0, "levels": [0.0, 0.5]},
    {"unit_system": "si", "M0": 1e-26, "omega0": 1e6, "levels": [0.0, 1e-19]},
], ids=["natural", "natural-flat", "si"])
def test_minimum_without_separation_is_the_quarter_period(system):
    # At x0 = 0 the minimum is at pi/(2 omega_1) for every S. In SI, where V
    # is 1 to double precision, a search returned its bracket's upper edge.
    p = model.build_system(system)
    t_min = analytic.visibility_extrema(p, 0.0)[0]
    w1 = model.derive_mode_frame(p, 1).omega_i
    assert t_min == pytest.approx(0.5 * math.pi / w1, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("A", [1e300, 1.7e308])
def test_minimum_of_a_huge_separation_is_at_the_bracket_edge(A):
    p = verify._natural_params(0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t_min, v_min, t_rev, v_rev = analytic.visibility_extrema(p, math.sqrt(A))
    assert t_min == (1.0 - 1e-9) * math.pi / model.derive_mode_frame(p, 1).omega_i
    assert t_min < t_rev and v_min == 0.0 and v_rev == 0.0


def test_level_zero_is_degenerate():
    # Level 0 against itself has k = 1 - S^2 = 0: the closed form is 0/0 and
    # the trace and drive are trivially 1.
    p = natural_params()
    with pytest.raises(DegenerateLevels):
        analytic.VacuumAmplitudeParams.from_system(p, level=0)
    with pytest.raises(DegenerateLevels):
        analytic.visibility_extrema(p, 0.5, level=0)
    with pytest.raises(DegenerateLevels):
        drive.drive_schedule(p, level=0)


def test_closed_form_matches_fock_propagators():
    # Independent cross-check of the analytic amplitude against brute-force
    # matrix exponentials of both bounded Hamiltonians.
    p = natural_params(E1=1.5, c=2.0)
    x0 = 0.4
    dim = 256
    f1 = model.derive_mode_frame(p, 1)
    times = np.linspace(0.1, 5.0, 7)
    tr = ramsey.ramsey_trace(p, states.fock_state(dim, 0), times, x0=x0)
    amp = ramsey.gaussian_trace(p, times, x0=x0).trace
    assert np.max(np.abs(tr.trace - amp)) < 1e-8
    assert f1.omega_i < p.omega0  # heavier level, softer mode


@pytest.mark.parametrize("alpha", [0.0, 1.5, -0.9j, 1.2 - 0.7j])
def test_coherent_visibility_matches_fock_trace(alpha):
    # The phase-space overlap against the truncated eigh trace, which shares
    # none of its code, for real and complex alpha.
    c, S = 10.0, 0.7
    p = natural_params(E1=c * c * (1.0 / S**2 - 1.0), c=c, g=0.4)
    w1 = model.derive_mode_frame(p, 1).omega_i
    times = np.linspace(0.0, 4.0 * math.pi / w1, 60)
    tr = ramsey.ramsey_trace(p, states.coherent_state(256, alpha), times, x0=1.3)
    ref = analytic.coherent_visibility(p, 1.3, alpha, times)
    assert np.max(np.abs(tr.visibility - ref)) < 1e-10


def test_from_system_rejects_foreign_ratio():
    p = natural_params()
    vap = analytic.VacuumAmplitudeParams.from_system(p)
    for r in (math.nan, -math.inf):
        with pytest.raises(ParamMismatch):
            analytic.VacuumAmplitudeParams(
                r=r, a0=vap.a0, x0=0.0, omega0=1.0, omega1=1.0,
            )


@pytest.mark.parametrize("x0", [1e200, -1e155, math.inf, math.nan])
def test_separation_whose_a0_x0_squared_is_not_finite_is_refused(x0):
    # x0 = 1e200 once raised OverflowError from a float's x0**2 in
    # _bogoliubov and in visibility_extrema; inf and NaN gave NaN traces.
    p = natural_params()
    with pytest.raises(ParamMismatch, match="a0 x0\\^2 must be finite"):
        analytic.VacuumAmplitudeParams.from_system(p, x0=x0)
    with pytest.raises(ParamMismatch, match="a0 x0\\^2 must be finite"):
        analytic.visibility_extrema(p, np.array([0.5, x0]))


_COMPLEX = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))


@settings(max_examples=60, deadline=None)
@given(r=st.floats(-1.0, 1.0), x0=st.floats(-3.0, 3.0), b1=_COMPLEX, b2=_COMPLEX)
def test_displaced_composes_as_one_displacement(r, x0, b1, b2):
    # D(b1) D(b2) = D(b1 + b2) up to a phase, which cancels in
    # D^dag W D: two displacements of a Ramsey unitary's tuple give the
    # tuple of one, P, Q and root untouched, to roundoff (5.6e-16 of the
    # scale below over 2000 draws).
    vap = analytic.VacuumAmplitudeParams(r=r, a0=1.0, x0=x0, omega0=1.0,
                                         omega1=math.exp(2.0 * r))
    W = analytic._bogoliubov(vap, np.linspace(0.0, 7.0, 9))
    twice = analytic._displaced(analytic._displaced(W, b1), b2)
    once = analytic._displaced(W, b1 + b2)
    assert all(twice[i] is W[i] and once[i] is W[i] for i in (0, 1, 5))
    scale = (1.0 + abs(b1) + abs(b2)) ** 2 * (1.0 + abs(x0))
    for i in (2, 3, 4):
        assert np.max(np.abs(twice[i] - once[i])) < 1e-14 * scale


def test_si_sag_vacuum_phase_keeps_its_digits():
    # SI with the sag: r_1 ~ -2.8e-11 and the phase is at most ~5e-9 rad.
    # <0|W|0> = exp(expo) / root, whose phase is Im(expo) - (phi + arg ref) / 2
    # with arg ref = O(r^2), so it is Im(expo) - omega0 t expm1(2 r_1) / 2 to
    # about 1e-21 rad. Subtracting O(1) angles would leave ~1e-15 rad.
    p = model.build_system(
        {"unit_system": "si", "M0": 1e-26, "omega0": 1e6, "g": 9.81,
         "levels": [0.0, 1e-19]}
    )
    vap = analytic.VacuumAmplitudeParams.from_system(p)
    times = np.linspace(0.0, 4.0 * math.pi / vap.omega1, 41)
    amp = analytic.gaussian_amplitude(vap, times, 0j, 0.0)
    phi = vap.omega0 * times * math.expm1(2.0 * model.derive_mode_frame(p, 1).r_i)
    theta = vap.omega1 * times
    sh, ch = np.sin(0.5 * theta), np.cos(0.5 * theta)
    im_expo = -vap.a0 * vap.x0**2 * vap.S * sh * ch / (vap.S**2 * ch**2 + sh**2)
    ref = im_expo - 0.5 * phi
    assert np.max(np.abs(ref)) > 4e-9
    assert np.max(np.abs(np.angle(amp) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_effective_shift_vacuum():
    # Vacuum, g = 0: mean shift reduces to Delta_omega/2 + omega_1 sinh^2 r.
    c = 1000.0
    p = natural_params(E1=0.2, c=c)
    f1 = model.derive_mode_frame(p, 1)
    mom = analytic.moments_from_state(states.fock_state(32, 0))
    shift = analytic.effective_shift(p, mom, t=0.3)
    expected = shift.delta_omega * 0.5 + f1.omega_i * math.sinh(f1.r_i) ** 2
    assert shift.mean_shift == pytest.approx(expected, rel=1e-12)
    # omega0 (sqrt(M0/M1) - 1) in a cancellation-free form, u = Delta_M/M0.
    u = f1.delta_M / p.M0
    root = math.sqrt(1.0 + u)
    delta_omega = -p.omega0 * u / (root * (1.0 + root))
    assert shift.delta_omega == pytest.approx(delta_omega, rel=1e-12, abs=0.0)


def test_si_shift_matches_decimal_reference():
    # SI mass defect Delta_M/M0 ~ 1.1e-10: r_1 and the mean shift must keep
    # their digits, which the forms log(M0/M1)/4 and omega_1 - omega_0 lose
    # (7.5e-8 and 9.2e-7 relative here). The reference is 50-digit decimal
    # arithmetic on the same stored inputs.
    p = model.build_system(
        {"unit_system": "si", "M0": 1e-26, "omega0": 1e6, "levels": [0.0, 1e-19]}
    )
    moments = {"a": 0.0, "a2": 0.0, "adag2": 0.0, "n": 0.0}
    shift = analytic.effective_shift(p, moments, t=0.0)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        M0, k, g, c, hbar = (Decimal(v) for v in (p.M0, p.k, p.g, p.c, p.hbar))
        E1 = Decimal(p.levels[1])
        dM = E1 / c**2
        M1 = M0 + dM
        w0, w1 = (k / M0).sqrt(), (k / M1).sqrt()
        r = -(M1 / M0).ln() / 4
        sinh_r = (r.exp() - (-r).exp()) / 2
        alpha = g * dM / (2 * hbar * M1 * w1**3).sqrt()
        # Vacuum: Re[A0 + alpha w1 Ag] = w1 (sinh^2 r + alpha^2).
        mean = (-(E1 / hbar) * g**2 / (w0**2 * c**2) + (w1 - w0) / 2
                + w1 * (sinh_r**2 + alpha**2))
    assert model.derive_mode_frame(p, 1).r_i == pytest.approx(float(r), rel=1e-14)
    assert shift.mean_shift == pytest.approx(float(mean), rel=1e-14)


def test_effective_shift_regime_warning():
    p = natural_params(E1=2.0, c=2.0)  # r ~ 0.1: far outside first order
    mom = analytic.moments_from_state(states.fock_state(16, 0))
    with pytest.warns(RegimeWarning):
        analytic.effective_shift(p, mom, t=0.0)


def test_effective_shift_matches_exact_generator():
    # Compare against the exact operator expression
    #   -omega_c g^2/(omega0^2 c^2) + Delta_omega/2
    #   + Re[<omega_1 N1 - omega_0 n0> + (i t omega0/2) <[n0, omega_1 N1]>]
    # evaluated with full Bogoliubov matrices, for a coherent state.
    c = 300.0
    p = natural_params(E1=0.06, c=c, g=0.2)
    f1 = model.derive_mode_frame(p, 1)
    st = states.coherent_state(64, 0.8 - 0.4j)
    t = 0.7
    shift = analytic.effective_shift(p, analytic.moments_from_state(st), t)

    a = fock.annihilation(64)
    eye = np.eye(64)
    A1 = (
        math.cosh(f1.r_i) * a - math.sinh(f1.r_i) * a.conj().T
        + f1.alpha_gi * eye
    )
    N1 = A1.conj().T @ A1
    n0 = a.conj().T @ a
    O = f1.omega_i * N1 - p.omega0 * n0
    comm = n0 @ (f1.omega_i * N1) - (f1.omega_i * N1) @ n0
    exact = (
        -p.omega_c(1) * p.g**2 / (p.omega0**2 * p.c**2)
        + 0.5 * shift.delta_omega
        + float(np.real(st.expectation(O) + 0.5j * t * p.omega0 * st.expectation(comm)))
    )
    scale = abs(shift.delta_omega)
    assert abs(shift.mean_shift - exact) < 1e-3 * scale


def test_approx_visibility_trivial_and_validation():
    p = natural_params(E1=0.01, c=10.0)
    out = analytic.approx_visibility(p, [1.0], 0.0)
    assert out.quadratic == pytest.approx(1.0)
    assert out.thermal_form == pytest.approx(1.0)
    with pytest.raises(NotNormalized):
        analytic.approx_visibility(p, [0.5, 0.4], 0.1)
    with pytest.raises(NotNormalized):
        analytic.approx_visibility(p, [1.5, -0.5], 0.1)
    with pytest.raises(NotNormalized, match="non-empty"):
        analytic.approx_visibility(p, [], 0.1)


def test_approx_visibility_quadratic_error_scaling():
    # 1 - V_exact and 1 - V_quadratic agree to leading order: halving t
    # shrinks their difference ~16x (next correction is O(t^4)).
    c = 30.0
    p = natural_params(E1=0.5, c=c, g=0.0)
    f1 = model.derive_mode_frame(p, 1)
    pops = np.array([0.55, 0.3, 0.15])
    dim = 64
    rho = states.mixed_state(np.diag(np.pad(pops, (0, dim - 3))).astype(complex))

    def deficit(t):
        exact = ramsey.ramsey_trace(p, rho, [t], x0=f1.x_shift_i)
        quad = analytic.approx_visibility(p, pops, t).quadratic
        return abs(float(exact.visibility[0]) - float(quad))

    t0 = 0.05
    ratio = deficit(t0) / deficit(t0 / 2.0)
    assert ratio == pytest.approx(16.0, rel=0.25)


def test_number_operator_moments_limits():
    p = natural_params(E1=2.0, c=2.0, g=0.5)
    f1 = model.derive_mode_frame(p, 1)
    vac = states.fock_state(64, 0)
    # Level 0: the bare vacuum has no quanta and no ladder moments.
    m0 = analytic.moments_from_state(vac)
    assert m0 == {"a": 0.0, "a2": 0.0, "adag2": 0.0, "n": 0.0}
    # Level 1 vacuum: <n_1> = sinh^2 r + alpha_g^2.
    n1 = vac.expectation(fock.mode_number(f1.r_i, f1.alpha_gi, 64)).real
    assert n1 == pytest.approx(math.sinh(f1.r_i) ** 2 + f1.alpha_gi**2, rel=1e-12)
    # Coherent state: <n> = |alpha|^2, <n^2> = |alpha|^4 + |alpha|^2, and the
    # ladder moments alpha, alpha^2 and conj(alpha)^2.
    alpha = 1.1 - 0.4j
    coh = states.coherent_state(96, alpha)
    mc = analytic.moments_from_state(coh)
    n0 = fock.mode_number(0.0, 0.0, 96)
    assert mc["n"] == pytest.approx(abs(alpha) ** 2, rel=1e-10)
    assert coh.expectation(n0 @ n0).real == pytest.approx(
        abs(alpha) ** 4 + abs(alpha) ** 2, rel=1e-10)
    assert abs(mc["a"] - alpha) < 1e-12
    assert abs(mc["a2"] - alpha**2) < 1e-12
    assert abs(mc["adag2"] - np.conj(alpha) ** 2) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 40, 150])
def test_fock_weight_matches_the_legendre_squeeze_diagonal(n):
    # <n|S(s)|n> = P_n(sech s) / sqrt(cosh s), P_n the Legendre polynomial.
    # The rotation R = exp(-i phi n) is diagonal in n, so R S R^dag has the
    # same weights, with a complex B = -sinh(s) e^{-2 i phi}.
    s = np.array([0.1, 0.5, 1.0, 3.0, -2.0])
    weight = analytic.fock_weight(np.cosh(s), -np.sinh(s) * np.exp(-1.4j), 0j, n)
    ref = legendre.legval(1.0 / np.cosh(s), [0.0] * n + [1.0]) ** 2 / np.cosh(s)
    assert np.max(np.abs(weight - ref)) < 1e-13


class _Dc:
    """A complex number with decimal parts, for the 50-digit reference."""

    def __init__(self, re, im=0):
        self.re, self.im = Decimal(re), Decimal(im)

    @classmethod
    def of(cls, z):
        return cls(complex(z).real, complex(z).imag)

    def __add__(self, o):
        return _Dc(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _Dc(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _Dc(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        den = o.re**2 + o.im**2
        return _Dc((self.re * o.re + self.im * o.im) / den,
                   (self.im * o.re - self.re * o.im) / den)

    def __pow__(self, k):
        out = _Dc(1)
        for _ in range(k):
            out = out * self
        return out

    def conj(self):
        return _Dc(self.re, -self.im)

    def abs2(self):
        return self.re**2 + self.im**2


def _first_form_weight(A, B, beta, n):
    """|<n|W|n>|^2 at 50 digits, W = D(beta)^dag L D(beta), L^dag a L = A a + B a^dag,
    from the displacement d = A beta + B conj(beta) - beta of
    W^dag a W = A a + B a^dag + d: delta = B conj(d) - conj(A) d, the first
    form of the Bargmann kernel (analytic._displaced), <0|e^{z a} W e^{w a^dag}|0> =
    <0|W|0> exp(L), and |<0|W|0>|^2 = exp(-|d|^2 + Re(conj(B) d^2 / A)) / |A|.
    <n|W|n> is n! times the z^n w^n coefficient of exp(L)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        A, B, beta = _Dc.of(A), _Dc.of(B), _Dc.of(beta)
        d = A * beta + B * beta.conj() - beta
        P, Q = A.conj(), _Dc(0) - B
        delta = B * d.conj() - P * d
        vacuum = ((B.conj() * d * d / A).re - d.abs2()).exp() / A.abs2().sqrt()
        lz, lw = _Dc(0) - delta / P, (delta.conj() * P - delta * Q.conj()) / P
        qzz, qzw, qww = _Dc(0) - Q / (P * _Dc(2)), _Dc(1) / P, Q.conj() / (P * _Dc(2))
        total = _Dc(0)
        for c in range(n + 1):
            for b in range((n - c) // 2 + 1):
                for b2 in range((n - c) // 2 + 1):
                    a, a2 = n - 2 * b - c, n - 2 * b2 - c
                    f = math.factorial
                    scale = Decimal(f(n)) / (f(a) * f(a2) * f(b) * f(b2) * f(c))
                    total = total + (lz**a * lw**a2 * qzz**b * qww**b2 * qzw**c
                                     * _Dc(scale))
        return float(vacuum * total.abs2())


def _legendre_series(P, Q, c1, c2, n):
    """<n|W|n> / <0|W|0> at 50 digits from the Legendre sum of the series:
    e^{-i n psi} sum_k e_k P_{n-k}(kappa), kappa = 1/|P|, with e_k the
    coefficients of exp(N / D) (a_1 = n1, a_2 = n2 + 2 kappa a_1,
    a_k = 2 kappa a_{k-1} - a_{k-2}; m e_m = sum_k k a_k e_{m-k}) and P_j
    from the three-term recurrence."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        P, Q, c1, c2 = (_Dc.of(z) for z in (P, Q, c1, c2))
        kappa = 1 / P.abs2().sqrt()
        rot = P * _Dc(kappa)
        n1 = rot * c1 * c2
        n2 = (_Dc(0) - _Dc(kappa) * n1
              + rot * rot * (Q.conj() * c1 * c1 - Q * c2 * c2) / (_Dc(2) * P))
        a = [_Dc(0), n1, n2 + _Dc(2 * kappa) * n1]
        for k in range(3, n + 1):
            a.append(_Dc(2 * kappa) * a[-1] - a[-2])
        e = [_Dc(1)]
        for m in range(1, n + 1):
            total = _Dc(0)
            for k in range(1, m + 1):
                total = total + _Dc(k) * a[k] * e[m - k]
            e.append(total / _Dc(m))
        legendre_p = [Decimal(1), kappa]
        for j in range(1, n):
            legendre_p.append(((2 * j + 1) * kappa * legendre_p[j] - j * legendre_p[j - 1])
                              / (j + 1))
        h = _Dc(0)
        for k in range(n + 1):
            h = h + e[k] * _Dc(legendre_p[n - k])
        return h * rot.conj() ** n


def test_si_sag_fock_phase_matches_the_decimal_legendre_series():
    # SI with the sag (a0 x0^2 = 9.1e-9): the phase of <n|W|n> / <0|W|0> is
    # ~1e-9 to 1e-8 rad. Against the 50-digit Legendre sum of the same
    # series it keeps its digits (the circle sum was 1e-5 to 1e-6 off); the
    # ratio is formed at 50 digits, where a double would add 1e-16 rad.
    p = model.build_system(
        {"unit_system": "si", "M0": 1e-26, "omega0": 1e6, "g": 9.81,
         "levels": [0.0, 1e-19]}
    )
    vap = analytic.VacuumAmplitudeParams.from_system(p)
    times = np.linspace(0.0, 4.0 * math.pi / vap.omega1, 7)[1:]
    W = analytic._bogoliubov(vap, times)
    vacuum = analytic._diagonal(W, 0)
    for n in (1, 2, 5):
        diagonal = analytic._diagonal(W, n)
        for i in range(times.size):
            with decimal.localcontext() as ctx:
                ctx.prec = 50
                ref = _legendre_series(*(x[i] for x in W[:4]), n)
                err = _Dc.of(diagonal[i]) / _Dc.of(vacuum[i]) / ref
                ref_phase = abs(ref.im / ref.re)
                assert ref_phase > 1e-10
                assert abs(err.im / err.re) <= Decimal("1e-12") * ref_phase
                assert abs(err.abs2() - 1) < Decimal("1e-14")


def _separated(S, x0):
    vap = analytic.VacuumAmplitudeParams.from_system(verify._natural_params(S), x0=x0)
    times = np.r_[np.linspace(0.0, 4.0 * math.pi / vap.omega1, 9), math.pi / vap.omega1]
    return analytic._bogoliubov(vap, times)


@pytest.mark.parametrize("S, x0, n", [
    (0.9, 40.0, 800), (0.9, 40.0, analytic._SERIES_MAX), (0.6, 30.0, analytic._SERIES_MAX),
])
def test_series_keeps_far_separated_diagonals(S, x0, n):
    # At S 0.9, x0 40 and omega_1 t = pi, exp(expo) = e^-1600 underflows
    # while <800|W|800> = 0.032; at S 0.6, x0 30 the unscaled e_k overflow.
    # The rescaled series stays finite and on the circle sum.
    W = _separated(S, x0)
    series, circle = analytic._diagonal(W, n), analytic._circle_diagonal(W, n)
    assert np.isfinite(series).all() and np.isfinite(circle).all()
    assert np.max(np.abs(series - circle)) < 1e-10
    if n == 800:
        assert abs(series[-1]) > 0.03


def test_circle_route_above_the_series_limit_matches_the_series():
    n = analytic._SERIES_MAX + 1
    W = _separated(0.8, 2.0)
    assert np.max(np.abs(analytic._diagonal(W, n) - analytic._series_diagonal(W, n))) < 1e-10


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_fock_weight_matches_the_first_form_kernel(n):
    # Complex A, B and beta together: the only case in which the Im A term
    # of the vacuum exponent enters. The reference forms the large
    # displacement d and its cancelling terms at 50 digits.
    worst = 0.0
    for s in (0.7, 2.5):
        for arg_a in (0.9, -2.0):
            A, B = math.cosh(s) * cmath.exp(1j * arg_a), math.sinh(s) * cmath.exp(0.4j)
            for beta in (0.6 - 0.35j, 1.3 + 0.2j):
                weight = analytic.fock_weight(np.array([A]), np.array([B]), beta, n)[0]
                worst = max(worst, abs(weight - _first_form_weight(A, B, beta, n)))
    assert worst < 1e-13
