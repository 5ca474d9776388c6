import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ramsey import _count_solves

from trapmass import analytic, drive, fock, model, states
from trapmass.errors import DimensionMismatch


def natural_params(u=1e-2, g=0.3):
    # u = Delta_M / M0 via E1 = u c^2 with c = 1 natural.
    return model.build_system(
        {"unit_system": "natural", "c": 1.0, "levels": [0.0, u], "g": g}
    )


def test_schedule_quarter_periods():
    p = natural_params()
    sched = drive.drive_schedule(p)
    f1 = model.derive_mode_frame(p, 1)
    assert sched.t0 == pytest.approx(math.pi / (2.0 * p.omega0), rel=1e-14)
    assert sched.t1 == pytest.approx(math.pi / (2.0 * f1.omega_i), rel=1e-14)
    assert sched.per_cycle_r == pytest.approx(2.0 * f1.r_i, rel=1e-14)
    assert sched.per_cycle_r < 0  # heavier excited level
    assert sched.effective_r(7) == pytest.approx(14.0 * f1.r_i, rel=1e-14)
    # 2 N r ~ -N E1 / (2 M0 c^2) to leading order.
    assert sched.effective_r(1) == pytest.approx(-1e-2 / 2.0, rel=1e-2)


def test_degenerate_masses_give_pure_phase_cycle():
    # Delta_M -> 0: the cycle is -i P exactly (gravity-free).
    p = natural_params(u=1e-13, g=0.0)
    cyc = drive.cycle_operator(p, 64)
    target = -1j * np.diag((-1.0) ** np.arange(64))
    m = fock.interior(64)
    assert np.max(np.abs((cyc.product - target)[:m, :m])) < 1e-10


def test_comparator_exact_without_gravity():
    p = natural_params(u=5e-2, g=0.0)
    cyc = drive.cycle_operator(p, 256)
    assert drive.comparator_deviation(cyc) < 1e-10


def test_comparator_deviation_second_order_in_mass_defect():
    # With gravity the comparator drops only the O(alpha_g^2) scalar phase:
    # the deviation must scale ~quadratically with Delta_M/M0.
    devs = []
    us = [1e-2, 5e-3, 2.5e-3]
    for u in us:
        cyc = drive.cycle_operator(natural_params(u=u, g=0.3), 128)
        devs.append(drive.comparator_deviation(cyc))
    exponent = np.polyfit(np.log(us), np.log(devs), 1)[0]
    assert exponent == pytest.approx(2.0, abs=0.2)


def test_cycle_displacement_matches_gamma():
    p = natural_params(u=2e-2, g=0.4)
    cyc = drive.cycle_operator(p, 128)
    sched = cyc.schedule
    # One cycle from vacuum: displacement of S(2r) D(gamma)|0> is
    # cosh(2r) gamma - sinh(2r) conj(gamma).
    got = drive.displacement_component(cyc.product)
    s = sched.per_cycle_r
    expected = math.cosh(s) * sched.beta_g - math.sinh(s) * np.conj(sched.beta_g)
    # Parity flips the sign of a; the comparator includes P.
    assert got == pytest.approx(-expected, abs=1e-4)


def test_vacuum_overlap_closed_form_even_cycles():
    # |<0|psi_N>|^2 = 1/cosh(2 N r) exactly at even N (parity and the
    # first-order displacement cancel pairwise when g = 0).
    p = natural_params(u=4e-2, g=0.0)
    dim = 256
    res = drive.iterate_drive(p, states.fock_state(dim, 0), 12)
    approx = drive.squeezed_overlaps(p, 12)
    sched = res.schedule
    for k in (2, 4, 6, 8, 10, 12):
        closed = drive.vacuum_overlap_closed_form(sched.effective_r(k))
        assert abs(res.exact[k - 1] - closed) < 1e-6
        assert abs(approx[k - 1] - closed) < 1e-10
    assert np.all(res.exact >= 0.0) and np.all(res.exact <= 1.0 + 1e-12)


def test_fock_initial_state_overlap_not_monotone():
    # |n0 = 5>: the overlap under accumulating squeezing oscillates.
    p = natural_params(u=6e-2, g=0.0)
    dim = 256
    res = drive.iterate_drive(p, states.fock_state(dim, 5), 40)
    even = res.exact[1::2]
    diffs = np.diff(even)
    assert np.any(diffs > 1e-6) and np.any(diffs < -1e-6)


def test_iterate_drive_validation_and_refusal():
    p = natural_params()
    with pytest.raises(ValueError):
        drive.iterate_drive(p, states.fock_state(32, 0), 0)
    rho = states.thermal_state_cm(32, 1.0)
    with pytest.raises(DimensionMismatch):
        drive.iterate_drive(p, rho, 2)


def test_iterate_drive_skips_the_comparator(monkeypatch):
    # Only the cycle product is iterated: one real solve for the excited
    # leg, none for the comparator.
    p = natural_params(u=3e-2, g=0.2)
    dim, N = 96, 7
    psi0 = states.coherent_state(dim, 0.4)
    solves = _count_solves(monkeypatch)
    res = drive.iterate_drive(p, psi0, N)
    assert solves == [(dim, False)]

    expected, bound = _dense_drive(p, psi0, N)
    assert np.all(np.abs(res.exact - expected) <= bound + 1e-15)


def _dense_drive(p, psi0, N):
    """Reference for iterate_drive: the whole cycle product into psi and the
    tail gate at every cycle. Returns P_k and the bound within which the cut
    loop must stay: 2 sum tau_j over the states psi_0 .. psi_{k-1} that
    cycles 1 .. k take in, tau_j = (eps / 4) sum |psi_j|."""
    product = drive.cycle_operator(p, psi0.dim).product
    m = fock.interior(psi0.dim)
    exact, bound = np.full(N, np.nan), np.empty(N)
    psi, total = psi0.data, 0.0
    for k in range(N):
        total += 0.25 * np.finfo(float).eps * np.abs(psi).sum()
        bound[k] = 2.0 * total
        psi = product @ psi
        if np.vdot(psi[m:], psi[m:]).real > states.TAIL_BOUND:
            break
        exact[k] = abs(np.vdot(psi0.data, psi)) ** 2
    return exact, bound


def _random_pure_state(rng, dim):
    """A random unit vector on a random leading block of the Fock basis,
    under a random exponential envelope."""
    size = int(rng.integers(1, dim // 3 + 1))
    envelope = np.exp(-rng.uniform(0.0, 0.5) * np.arange(size))
    vec = np.zeros(dim, dtype=complex)
    vec[:size] = envelope * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    return states.pure_state(vec / np.linalg.norm(vec))


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["fock", "coherent", "random"]),
    dim=st.integers(48, 128),
    n=st.integers(0, 6),
    alpha_abs=st.floats(0.0, 2.0),
    alpha_arg=st.floats(-math.pi, math.pi),
    seed=st.integers(0, 2**32 - 1),
    g=st.floats(0.05, 0.5),
    u=st.floats(1e-3, 6e-2),
    N=st.integers(1, 150),
)
def test_cut_drive_stays_within_its_bound_of_the_dense_loop(kind, dim, n, alpha_abs, alpha_arg,
                                                            seed, g, u, N):
    # iterate_drive multiplies only the block of the product that can change
    # a double: each cycle moves psi by at most tau_j, so P_k stays within
    # 2 sum_j tau_j of the dense loop, and the tail gate trips at the same k.
    p = natural_params(u=u, g=g)
    if kind == "fock":
        psi0 = states.fock_state(dim, n)
    elif kind == "coherent":
        psi0 = states.coherent_state(dim, alpha_abs * complex(math.cos(alpha_arg),
                                                              math.sin(alpha_arg)))
    else:
        psi0 = _random_pure_state(np.random.default_rng(seed), dim)
    got = drive.iterate_drive(p, psi0, N).exact
    expected, bound = _dense_drive(p, psi0, N)
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    finite = ~np.isnan(expected)
    assert np.all(np.abs(got - expected)[finite] <= bound[finite] + 1e-15)


def test_tail_gate_trips_at_the_dense_loops_cycle():
    # The gate is evaluated at every cycle: NaN from the same cycle as the
    # dense loop's gate, well inside the run.
    p = natural_params(u=3e-2, g=0.3)
    psi0 = states.fock_state(64, 0)
    N = 192
    got = drive.iterate_drive(p, psi0, N).exact
    expected, _ = _dense_drive(p, psi0, N)
    first_nan = int(np.argmax(np.isnan(expected)))
    assert 0 < first_nan < N
    assert np.array_equal(np.isnan(got), np.isnan(expected))


def test_long_drive_has_no_cycle_limit():
    # 10001 cycles at a squeeze the dim-32 state holds throughout: every
    # cycle is computed and stays within the dense loop's bound.
    p = natural_params(u=1e-4, g=0.3)
    psi0 = states.fock_state(32, 0)
    N = 10_001
    got = drive.iterate_drive(p, psi0, N).exact
    expected, bound = _dense_drive(p, psi0, N)
    assert np.isfinite(got).all() and np.isfinite(expected).all()
    assert np.all(np.abs(got - expected) <= bound + 1e-15)


def test_gaussian_series_take_no_solve(monkeypatch):
    solves = _count_solves(monkeypatch)
    p = natural_params(u=3e-2, g=0.2)
    drive.gaussian_drive(p, 50, n=3)
    drive.squeezed_overlaps(p, 50, alpha=0.5j)
    assert solves == []


def test_cycle_matrix_matches_the_truncated_cycle():
    # W^dag a W = A1 a + B1 a^dag + d1 read off the interior block of the
    # truncated cycle product: (A1, B1) = (-cosh 2r, sinh 2r), the linear
    # part of -S(2r), and d1 = z* - A1 z* - B1 conj(z*) from the fixed point.
    p = natural_params(u=2e-2, g=0.4)
    dim = 128
    U = drive.cycle_operator(p, dim).product
    a = fock.annihilation(dim)
    heisenberg = (U.conj().T @ a @ U)[:20, :20]
    sched = drive.drive_schedule(p)
    A, B = -math.cosh(sched.per_cycle_r), math.sinh(sched.per_cycle_r)
    z = drive._fixed_point(p, sched)
    d = z - A * z - B * np.conj(z)
    assert abs(d) > 5e-3
    assert np.max(np.abs(heisenberg - (A * a + B * a.T + d * np.eye(dim))[:20, :20])) < 1e-12


def _gravity_params():
    return model.build_system(
        {"unit_system": "natural", "c": 2.0, "levels": [0.0, 2.0], "g": 0.5})


def test_displaced_fock_weight_is_finite_at_every_k():
    # With gravity the k-fold displacement grows with the squeeze (|d| ~ 1e17
    # at k = 200). The weight, formed from the fixed-point displacement
    # beta = alpha - z* with bounded coefficients, is finite at every k and
    # matches a 160-digit mpmath evaluation of 3x3 Heisenberg matrix powers
    # of the cycle and the first-form kernel in their displacement. Formed
    # from d in double, it was NaN from k = 44.
    exact = drive.gaussian_drive(_gravity_params(), 400, n=3).exact
    assert np.isfinite(exact).all() and np.all((exact >= 0.0) & (exact <= 1.0))
    mpmath_reference = {1: 0.439423242986293, 10: 0.0253988062827408,
                        20: 1.66384785968526e-4, 30: 1.3538622922865e-5,
                        40: 1.77554207024664e-6, 44: 7.8950346872062e-7,
                        60: 3.08190715388964e-8, 107: 2.24224773066485e-12,
                        200: 1.45358370713779e-20, 400: 3.57531359966577e-38}
    for k, ref in mpmath_reference.items():
        assert exact[k - 1] == pytest.approx(ref, rel=1e-12)


def test_displaced_vacuum_weight_keeps_its_relative_accuracy():
    # The vacuum weight of the same system, against the same 160-digit
    # reference; the exponent formed from d lost it (1.90052514e-11 at
    # k = 125, 7.4e-291 at k = 202).
    vacuum = drive.gaussian_drive(_gravity_params(), 202).exact
    assert vacuum[124] == pytest.approx(1.900527071624918e-11, rel=1e-12)
    assert vacuum[201] == pytest.approx(3.157625252214569e-18, rel=1e-12)


@pytest.mark.parametrize("N", [0, -3])
def test_drive_series_reject_fewer_than_one_cycle(N):
    p = natural_params()
    calls = [lambda: drive.gaussian_drive(p, N), lambda: drive.squeezed_overlaps(p, N),
             lambda: drive.iterate_drive(p, states.fock_state(32, 0), N)]
    for call in calls:
        with pytest.raises(ValueError, match=f"N must be >= 1, got {N}"):
            call()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 5),
    alpha_abs=st.floats(0.0, 2.0),
    alpha_arg=st.floats(-math.pi, math.pi),
    g=st.floats(0.0, 0.5),
    u=st.floats(1e-3, 6e-2),
    N=st.integers(1, 400),
)
def test_gaussian_series_are_weights_and_reduce_to_squeezing(n, alpha_abs, alpha_arg, g, u, N):
    # P_exact of D(alpha)|n> is finite and in [0, 1] at every cycle. Without
    # gravity the fixed point is 0 and the cycle is -S(2r), whose parity
    # (-1)^k leaves the weight of |n> unchanged: P_exact equals P_approx,
    # for the vacuum bit for bit (the weight is 1/cosh(2kr)). For n > 0 the
    # sign makes arg P = pi, whose factor e^{-i n pi} the series rounds, so
    # the bound is the 1e-13 of the Legendre test.
    alpha = alpha_abs * complex(math.cos(alpha_arg), math.sin(alpha_arg))
    exact = drive.gaussian_drive(natural_params(u=u, g=g), N, n=n, alpha=alpha).exact
    assert np.isfinite(exact).all() and np.all((exact >= 0.0) & (exact <= 1.0))
    p0 = natural_params(u=u, g=0.0)
    fock_exact = drive.gaussian_drive(p0, N, n=n).exact
    approx = drive.squeezed_overlaps(p0, N, n=n)
    if n == 0:
        assert np.array_equal(fock_exact, approx)
    assert np.max(np.abs(fock_exact - approx)) < 1e-13


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 5),
    alpha_abs=st.floats(0.0, 2.0),
    alpha_arg=st.floats(-math.pi, math.pi),
    coherent=st.booleans(),
    g=st.floats(0.0, 0.5),
    u=st.floats(1e-3, 6e-2),
    N=st.integers(1, 60),
)
def test_gaussian_series_match_truncated_products(n, alpha_abs, alpha_arg, coherent, g, u, N):
    # Wherever the truncated state passes the tail gate, the exact Gaussian
    # series equal the dim-256 products: the cycle loop of iterate_drive for
    # P_exact and fock.squeeze_matrix for P_approx.
    dim = 256
    p = natural_params(u=u, g=g)
    alpha = alpha_abs * complex(math.cos(alpha_arg), math.sin(alpha_arg)) if coherent else 0j
    n = 0 if coherent else n
    psi0 = states.coherent_state(dim, alpha) if coherent else states.fock_state(dim, n)
    exact = drive.gaussian_drive(p, N, n=n, alpha=alpha).exact
    truncated = drive.iterate_drive(p, psi0, N).exact
    gated = np.isnan(truncated)
    assert np.max(np.abs(exact - truncated)[~gated], initial=0.0) < 1e-10

    approx = drive.squeezed_overlaps(p, N, n=n, alpha=alpha)
    step = fock.squeeze_matrix(dim, drive.drive_schedule(p).per_cycle_r)
    psi, m = psi0.data, fock.interior(dim)
    for k in range(N):
        psi = step @ psi
        if np.vdot(psi[m:], psi[m:]).real > states.TAIL_BOUND:
            break
        assert abs(approx[k] - abs(np.vdot(psi0.data, psi)) ** 2) < 1e-10


def test_fock_drive_series_match_the_circle_sum(monkeypatch):
    # Fock n = 300 on analytic._diagonal's series route, both columns at
    # N = 1000 with gravity and a displacement, against the circle sum.
    p = model.build_system(
        {"unit_system": "natural", "c": 35.0, "levels": [0.0, 1.5], "g": 0.5})

    def columns():
        return (drive.gaussian_drive(p, 1000, n=300, alpha=0.3).exact,
                drive.squeezed_overlaps(p, 1000, n=300, alpha=0.3))

    series = columns()
    monkeypatch.setattr(analytic, "_SERIES_MAX", 0)
    for s, c in zip(series, columns()):
        assert np.isfinite(s).all()
        assert np.max(np.abs(s - c)) < 3e-11


def _displaced_fock(dim, n, alpha):
    """D(alpha)|n> = (a^dag - conj(alpha))^n D(alpha)|0> / sqrt(n!) at dim."""
    psi = states.coherent_state(dim, alpha).data
    raise_op = fock.annihilation(dim).T
    for _ in range(n):
        psi = raise_op @ psi - np.conj(alpha) * psi
    return states.pure_state(psi / math.sqrt(math.factorial(n)))


@pytest.mark.parametrize("n, alpha, u, g, N", [
    (1, 0.8 - 0.5j, 3e-2, 0.4, 150),
    (3, 1.3j, 2e-2, 0.2, 150),
    (5, -0.6 + 0.9j, 5e-2, 0.5, 100),
])
def test_displaced_fock_series_match_the_truncated_cycle(n, alpha, u, g, N):
    # psi0 = D(alpha)|n> with n >= 1 and alpha != 0: the Gaussian series
    # displaces both the Fock weight's power series and its vacuum exponent.
    # Wherever the dim-256 state passes the tail gate, iterate_drive agrees
    # within 1e-10 (4.6e-14 seen).
    p = natural_params(u=u, g=g)
    exact = drive.gaussian_drive(p, N, n=n, alpha=alpha).exact
    truncated = drive.iterate_drive(p, _displaced_fock(256, n, alpha), N).exact
    kept = ~np.isnan(truncated)
    assert kept.sum() >= 50
    assert np.max(np.abs(exact - truncated)[kept]) < 1e-10


def test_cycle_product_unitary():
    p = natural_params(u=3e-2, g=0.2)
    cyc = drive.cycle_operator(p, 96)
    assert np.allclose(
        cyc.product @ cyc.product.conj().T, np.eye(96), atol=1e-10
    )
    assert np.allclose(
        cyc.comparator @ cyc.comparator.conj().T, np.eye(96), atol=1e-8
    )


@pytest.mark.parametrize("dim", [64, 384])
def test_cycle_product_matches_dense_legs(dim):
    # The diagonal ground leg scales the rows of U_1b, and U_1b comes from a
    # real_matmul: both agree with the dense complex product of the two legs.
    p = natural_params(u=3e-2, g=0.2)
    sched = drive.drive_schedule(p)
    w0 = model.derive_mode_frame(p, 0).omega_i * (np.arange(dim) + 0.5)
    U0 = np.diag(np.exp(-1j * w0 * sched.t0))
    frame1 = model.derive_mode_frame(p, 1)
    spec = fock.spectrum(frame1, frame1.alpha_gi, dim)
    U1 = (spec.V * np.exp(-1j * spec.w * sched.t1)) @ spec.V.T.astype(complex)
    assert np.max(np.abs(drive._cycle_product(p, sched, dim) - U0 @ U1)) < 1e-14


def test_position_variance_growth():
    p = natural_params(u=1e-2, g=0.0)
    out0 = drive.position_variance_growth(p, 0)
    assert out0["position"] == 0.0 and out0["momentum"] == 0.0
    sched = drive.drive_schedule(p)
    # Choose N so the accumulated squeeze is small: growth ~ 2s.
    N = max(1, int(round(0.0025 / abs(sched.per_cycle_r))))
    out = drive.position_variance_growth(p, N)
    s = abs(sched.effective_r(N))
    assert out["position"] == pytest.approx(math.expm1(2.0 * s), rel=1e-14)
    assert out["position"] == pytest.approx(2.0 * s, rel=1e-2)
    assert out["momentum"] == pytest.approx(-2.0 * s, rel=1e-2)
    with pytest.raises(ValueError):
        drive.position_variance_growth(p, -1)


def test_closed_forms_beyond_double_range():
    # 2|r| N past ~710 overflows cosh and expm1; the closed forms saturate.
    p = natural_params(u=5e-2, g=0.0)
    N = int(800.0 / abs(drive.drive_schedule(p).per_cycle_r))
    assert drive.position_variance_growth(p, N) == {"position": math.inf, "momentum": -1.0}
    assert drive.vacuum_overlap_closed_form(800.0) == 0.0
    assert drive.vacuum_overlap_closed_form(-800.0) == 0.0


def test_variance_growth_matches_exact_squeeze_action():
    # Cross-check the closed-form variance growth against the actual
    # squeeze matrix acting on the vacuum.
    p = natural_params(u=5e-2, g=0.0)
    dim = 128
    sched = drive.drive_schedule(p)
    N = 3
    psi = fock.squeeze_matrix(dim, sched.effective_r(N))[:, 0]
    # x = sqrt(hbar / 2 M0 omega0) (a + a^T): <x^2> over its vacuum value.
    a = fock.annihilation(dim)
    x2_ratio = (psi.conj() @ ((a + a.T) @ (a + a.T) @ psi)).real
    growth = drive.position_variance_growth(p, N)["position"]
    assert x2_ratio - 1.0 == pytest.approx(growth, rel=1e-10)


def test_every_drive_result_names_its_route():
    p = natural_params()
    assert drive.gaussian_drive(p, 3).route == "generating_function"
    assert drive.iterate_drive(p, states.fock_state(32, 0), 3).route == "eigh"
