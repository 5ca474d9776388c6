"""End-to-end acceptance suite.

One test per release criterion; run with `pytest -v` to get a one-line
pass/fail verdict per criterion. Tolerances are pinned here and must not be
loosened without revisiting the criterion they encode.
"""

import math
import time

import numpy as np
import pytest

from trapmass import analytic, clock, drive, fock, model, phasespace, ramsey, states, verify


def test_criterion_1_ramsey_closed_form_vs_fock_grid():
    # Exact Fock trace vs the closed-form vacuum amplitude: pointwise within
    # 1e-6 (visibility) and 1e-5 rad (phase) over S in {0.5, 0.9, 0.99},
    # x0 in {0, 0.02, 5}, omega_1 t in [0, 4 pi] at 400 points; < 60 s at
    # dim <= 512.
    start = time.perf_counter()
    report = verify.oracle_vacuum_visibility(
        s_values=(0.5, 0.9, 0.99),
        x0_values=(0.0, 0.02, 5.0),
        n_times=400,
        dim=512,
        vis_tol=1e-6,
        phase_tol=1e-5,
    )
    elapsed = time.perf_counter() - start
    assert report.passed, report.details
    assert report.details["visibility_deviation"] < 1e-6
    assert report.details["phase_deviation"] < 1e-5
    assert elapsed < 60.0


def test_criterion_2_fock_revivals_and_minimum_location():
    # n0 = 10, Delta_M/M0 = 0.5:
    # (a) g = 0 -> V(pi/omega_1) = 1 within 1e-8;
    # (b) gravity on -> V(2 pi/omega_1) = 1 within 1e-8, V(pi/omega_1) < 1;
    # (c) visibility minimum within 10% of pi/2 omega_1 at small x0.
    p0 = model.build_system(
        {"unit_system": "natural", "c": math.sqrt(2.0), "levels": [0.0, 1.0],
         "g": 0.0}
    )
    assert (p0.mass(1) - p0.M0) / p0.M0 == pytest.approx(0.5, rel=1e-12)
    v_half, v_full = ramsey.fock_revival_values(p0, 10, x0=0.0)
    assert abs(v_half - 1.0) < 1e-8  # (a)

    pg = model.build_system(
        {"unit_system": "natural", "c": math.sqrt(2.0), "levels": [0.0, 1.0],
         "g": 1.0}
    )
    v_half_g, v_full_g = ramsey.fock_revival_values(pg, 10)
    assert abs(v_full_g - 1.0) < 1e-8  # (b)
    assert v_half_g < 1.0

    w1 = model.derive_mode_frame(p0, 1).omega_i
    times = np.linspace(1e-4, math.pi / w1, 600)
    tr = ramsey.ramsey_trace(p0, states.fock_state(256, 10), times, x0=0.01)
    t_min = float(times[np.argmin(tr.visibility)])
    assert t_min == pytest.approx(math.pi / (2.0 * w1), rel=0.10)  # (c)


def test_criterion_3_revival_visibility_and_minimum_formula():
    # a0 = 1, S = 0.9, x0 in {0.02, 5}: V(t_rev) = exp(-a0 x0^2) exactly
    # from the closed form and within 1e-6 from the Fock engine; the
    # small-x0 minimum matches the simplified formula within 1%.
    c = 10.0
    E1 = (1.0 / 0.9**2 - 1.0) * c**2
    p = model.build_system(
        {"unit_system": "natural", "c": c, "levels": [0.0, E1], "g": 0.0}
    )
    vap = analytic.VacuumAmplitudeParams.from_system(p, x0=0.0)
    assert vap.a0 == pytest.approx(1.0, rel=1e-12)
    assert vap.S == pytest.approx(0.9, rel=1e-12)
    t_rev = math.pi / vap.omega1
    for x0 in (0.02, 5.0):
        target = math.exp(-x0**2)
        v_closed = float(analytic.closed_form_visibility(0.9, 1.0, x0, math.pi))
        assert v_closed == pytest.approx(target, rel=1e-12)  # exact
        tr = ramsey.ramsey_trace(p, states.fock_state(512, 0), [t_rev], x0=x0)
        assert abs(float(tr.visibility[0]) - target) < 1e-6  # Fock engine
    _, v_min, _, _ = analytic.visibility_extrema(p, x0=0.02)
    assert v_min == pytest.approx(
        analytic.small_regime_min_visibility(0.9, 1.0, 0.02), rel=1e-2
    )


def test_criterion_4_clock_bound_windows_and_crosscheck():
    # M0 = 1e-26 kg, g = 9.81, n = 0: omega_min in [3.5e3, 5e3] rad/s,
    # |delta_min| in [1e-22, 3e-22]; closed form vs independent numerical
    # minimizer to relative 1e-9; |time-dilation| at omega0 = 1e6, n = 1 in
    # [5e-20, 5e-19]. Runtime < 1 s.
    start = time.perf_counter()
    p = model.build_system(
        {"unit_system": "si", "M0": 1e-26, "omega0": 1e6,
         "levels": [0.0, 1e-19], "g": 9.81}
    )
    opt = clock.minimal_shift(p, n=0.0)
    assert 3.5e3 < opt.omega_min < 5.0e3
    assert 1e-22 < abs(opt.delta_min) < 3e-22
    report = verify.oracle_minshift(params=p, n_values=(0.0,), rel_tol=1e-9)
    assert report.passed, report.details
    rep = clock.energy_gap(p, 1, 1)
    dilation = abs(rep.components["time_dilation"])
    assert 5e-20 < dilation < 5e-19
    assert time.perf_counter() - start < 1.0


def test_criterion_5_thermal_shift_window():
    # T = 1 mK, SI defaults: <n0> in [50, 500], |fractional shift| in
    # [1e-19, 1e-17].
    p = model.build_system(
        {"unit_system": "si", "M0": 1e-26, "omega0": 1e6,
         "levels": [0.0, 1e-19], "g": 9.81}
    )
    rep = clock.thermal_shift(p, 1e-3)
    assert 50.0 < rep.n < 500.0
    assert 1e-19 < abs(rep.fractional_shift) < 1e-17


def test_criterion_6_drive_identity_scaling_and_growth():
    # (a) cycle-operator deviation from the squeeze/displace comparator
    # scales with exponent 2.0 +/- 0.2 in Delta_M/M0; (b) two-cycle
    # displacement residual scales with exponent 2.0 +/- 0.2; (c) vacuum
    # P_N = 1/cosh(2 N r) within 1e-6 for 2 N r <= 1; (d) the variance
    # calculator returns ~1% (within a factor 2) at the N ~ 1e8 operating
    # point in SI units. Runtime < 120 s.
    start = time.perf_counter()
    report = verify.oracle_cycle_identity(exponent_tol=0.2)
    assert report.passed, report.details  # (a)

    us = (1e-2, 5e-3, 2.5e-3)
    resids = []
    for u in us:
        c = math.sqrt(100.0 / u)
        p = model.build_system(
            {"unit_system": "natural", "c": c, "levels": [0.0, 100.0], "g": 0.3}
        )
        cyc = drive.cycle_operator(p, 128)
        two = cyc.product @ cyc.product
        resids.append(abs(drive.displacement_component(two)))
    exponent = float(np.polyfit(np.log(us), np.log(resids), 1)[0])
    assert exponent == pytest.approx(2.0, abs=0.2)  # (b)

    p = model.build_system(
        {"unit_system": "natural", "c": 1.0, "levels": [0.0, 0.04], "g": 0.0}
    )
    dim = 256
    res = drive.iterate_drive(p, states.fock_state(dim, 0), 24)
    sched = res.schedule
    for k in range(1, 25):
        s = sched.effective_r(k)
        if abs(s) > 1.0:
            break
        assert abs(res.exact[k - 1] - drive.vacuum_overlap_closed_form(s)) < 1e-6  # (c)

    p_si = model.build_system(
        {"unit_system": "si", "M0": 1e-26, "omega0": 1e6,
         "levels": [0.0, 1e-19], "g": 0.0}
    )
    growth = drive.position_variance_growth(p_si, 100_000_000)["position"]
    assert 0.005 < growth < 0.02  # (d): ~1% within a factor 2
    assert time.perf_counter() - start < 120.0


def test_criterion_7_qfunction_scaling_fit_and_normalization():
    # (a) short-time Q vs exact mixed evolution: error shrinks 16 +/- 4
    # under t-halving; (b) the effective-squeezing fit recovers
    # (omega0 t)^2 <H_int>/2 M0 c^2 within 1% on a synthetic profile;
    # (c) grid normalization within 1e-3.
    p = model.build_system(
        {"unit_system": "natural", "c": 2.0, "levels": [0.0, 0.5], "g": 0.0}
    )
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

    ratio = err(0.2) / err(0.1)
    assert ratio == pytest.approx(16.0, abs=4.0)  # (a)

    p_small = model.build_system(
        {"unit_system": "natural", "c": 1.0, "levels": [0.0, 1e-3], "g": 0.0}
    )
    dist1 = phasespace.InternalDistribution((0.0, 1.0))
    t = 0.4
    ax = np.linspace(-2.0, 2.0, 81)
    grid_beta = ax[None, :] + 1j * ax[:, None]
    q = np.real(phasespace.qfunction_short_time(
        p_small, 0.0, dist1, grid_beta.ravel(), t
    )).reshape(grid_beta.shape)
    grid = phasespace.QGrid(beta=grid_beta, q=q, delta=ax[1] - ax[0])
    fit = phasespace.effective_squeezing_fit(grid)
    pred = phasespace.predicted_r_eff(p_small, dist1.mean_energy(p_small), t)
    assert fit.r_eff == pytest.approx(pred, rel=1e-2)  # (b)

    norm = phasespace.qfunction(states.fock_state(128, 0)).normalization()
    assert abs(norm - 1.0) < 1e-3  # (c)


def test_criterion_8_mean_shift_matches_exact_generator():
    # First-order mean-shift expression vs the exact Fock expectation of the
    # shift generator: relative agreement 1e-3 at |r| = 1e-5 for vacuum,
    # coherent (alpha = 1), and thermal (<n> = 10) moments.
    r = 1e-5
    c = 100.0
    dm = math.exp(4.0 * r) - 1.0
    p = model.build_system(
        {"unit_system": "natural", "c": c, "levels": [0.0, dm * c**2], "g": 0.1}
    )
    f1 = model.derive_mode_frame(p, 1)
    assert f1.r_i == pytest.approx(-r, rel=1e-6)
    t = 0.7
    dim = 256
    a = fock.annihilation(dim)
    eye = np.eye(dim)
    A1 = math.cosh(f1.r_i) * a - math.sinh(f1.r_i) * a.conj().T + f1.alpha_gi * eye
    N1 = A1.conj().T @ A1
    n0 = a.conj().T @ a
    O = f1.omega_i * N1 - p.omega0 * n0
    comm = n0 @ (f1.omega_i * N1) - (f1.omega_i * N1) @ n0

    cases = {
        "vacuum": states.fock_state(dim, 0),
        "coherent": states.coherent_state(dim, 1.0),
        "thermal": states.thermal_state_cm(dim, 10.0),
    }
    for name, st in cases.items():
        shift = analytic.effective_shift(p, analytic.moments_from_state(st), t)
        exact = (
            -p.omega_c(1) * p.g**2 / (p.omega0**2 * p.c**2)
            + 0.5 * shift.delta_omega
            + float(np.real(
                st.expectation(O) + 0.5j * t * p.omega0 * st.expectation(comm)
            ))
        )
        assert abs(shift.mean_shift / exact - 1.0) < 1e-3, name
