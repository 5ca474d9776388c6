from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapmass import clock, constants, model
from trapmass.errors import DegenerateLevels, ParamMismatch, ZeroGravity


def si_params(**over):
    cfg = {
        "unit_system": "si",
        "M0": 1e-26,
        "omega0": 1e6,
        "levels": [0.0, 1e-19],
        "g": constants.G_STANDARD,
    }
    cfg.update(over)
    return model.build_system(cfg)


def test_gravity_free_ground_shift():
    # g = 0, n = 0: fractional shift is the pure time-dilation term
    # -hbar omega0 / 4 M0 c^2 to leading order in Delta_M/M0.
    p = si_params(g=0.0)
    rep = clock.energy_gap(p, 1, 0)
    expected = -p.hbar * p.omega0 / (4.0 * p.M0 * p.c**2)
    assert rep.fractional_shift == pytest.approx(expected, rel=1e-6)
    assert rep.components["gravitational"] == 0.0


def test_degenerate_levels_rejected():
    p = model.build_system(
        {"unit_system": "si", "M0": 1e-26, "omega0": 1e6, "levels": [0.0, 1e-19],
         "g": 0.0}
    )
    with pytest.raises(DegenerateLevels):
        clock.energy_gap(p, 0, 0)
    with pytest.raises(ValueError):
        clock.energy_gap(p, 1, -1.0)


def test_shift_magnitude_windows():
    p = si_params()
    # n = 1 time-dilation component for a ~1e-26 kg particle in a 1e6 rad/s
    # trap sits in the 1e-19 decade.
    rep = clock.energy_gap(p, 1, 1)
    dilation = abs(rep.components["time_dilation"])
    assert 5e-20 < dilation < 5e-19
    # The exact fractional shift is negative and of the same order.
    assert rep.fractional_shift < 0
    assert abs(rep.fractional_shift) == pytest.approx(
        abs(rep.components["gravitational"] + rep.components["time_dilation"]),
        rel=1e-3,
    )
    # Lowest-order gap agrees with the exact gap at this order.
    assert rep.lowest_order_gap == pytest.approx(rep.exact_gap, rel=1e-25)


def test_fractional_shift_not_underflowed():
    # Regression: gap/E - 1 computed directly underflows to 0.0 in SI units.
    p = si_params()
    rep = clock.energy_gap(p, 1, 0)
    assert rep.fractional_shift != 0.0
    assert abs(rep.fractional_shift) < 1e-15  # far below double resolution of E


def test_mass_defect_terms_match_rational_reference():
    # Delta_M / M0 ~ 5e-12 here, so M_1 - M0 formed from rounded masses keeps
    # only about four digits; the shift and the sag must carry E_1 / c^2.
    p = si_params(M0=2.7e-25, omega0=3e5, levels=[0.0, 1.3e-19])
    F = Fraction
    n = F(1, 2)
    dM = F(p.levels[1]) / F(p.c) ** 2
    M0, g, k = F(p.M0), F(p.g), F(p.k)
    u = dM / M0
    assert u < F(1, 10**9)
    # omega_1 / omega_0 - 1 = (1 + u)^(-1/2) - 1, series exact to O(u^4).
    domega = F(p.omega0) * (-u / 2 + 3 * u**2 / 8 - 5 * u**3 / 16)
    grav = -(g**2 / (2 * k)) * dM * (2 * M0 + dM)
    ref_shift = (grav + F(p.hbar) * domega * (n + F(1, 2))) / F(p.levels[1])
    rep = clock.energy_gap(p, 1, float(n))
    assert abs(F(rep.fractional_shift) / ref_shift - 1) < F(1, 10**10)
    ref_sag = g * dM / k
    x_shift = model.derive_mode_frame(p, 1).x_shift_i
    assert abs(F(x_shift) / ref_sag - 1) < F(1, 10**13)


SHIFT_SYSTEMS = (
    {"unit_system": "si", "M0": 1e-26, "levels": [0.0, 1e-19]},
    {"unit_system": "si", "M0": 2.7e-25, "levels": [0.0, 1.3e-19], "g": 0.0},
    {"unit_system": "natural", "c": 10.0, "levels": [0.0, 2.0], "g": 0.5},
    {"unit_system": "natural", "c": 3.0, "levels": [0.0, 0.5, 4.0], "g": 0.0},
)


@settings(max_examples=150, deadline=None)
@given(
    system=st.sampled_from(SHIFT_SYSTEMS),
    omegas=st.lists(st.floats(1e1, 1e8), min_size=1, max_size=6),
    n=st.floats(0.0, 100.0),
)
def test_shift_table_matches_per_point_energy_gap(system, omegas, n):
    # One table over the grid equals energy_gap on a system rebuilt at each
    # omega0. Natural params built at omega0 = 1 keep the config's
    # frequency unit, as the CLI builds them.
    level = len(system["levels"]) - 1
    params = model.build_system({**system, "omega0": 1.0})
    table = clock.shift_table(params, level, np.asarray(omegas), n)
    for j, w in enumerate(omegas):
        rep = clock.energy_gap(model.build_system({**system, "omega0": w}), level, n)
        for got, ref in ((table.fractional_shift[j], rep.fractional_shift),
                         *((table.components[c][j], rep.components[c])
                           for c in ("gravitational", "time_dilation"))):
            assert got == pytest.approx(ref, rel=4e-15, abs=0.0)


def test_minimal_shift_values():
    p = si_params()
    opt = clock.minimal_shift(p, n=0.0)
    g, M0, hbar, c = p.g, p.M0, p.hbar, p.c
    assert opt.omega_min == pytest.approx(
        (4.0 * g**2 * M0 / (0.5 * hbar)) ** (1.0 / 3.0), rel=1e-12
    )
    assert opt.omega_min == pytest.approx(4179.4, rel=1e-3)
    assert opt.delta_min == pytest.approx(-1.839e-22, rel=1e-3)
    # delta_min bounds the shift from below in magnitude: any other trap
    # frequency gives a more negative total shift.
    for factor in (1.0 - 1e-3, 1.0 + 1e-3):
        off = sum(clock._lowest_order_terms(p, factor * opt.omega_min, 0.0))
        assert off < opt.delta_min


def test_minimal_shift_scaling_with_n():
    p = si_params()
    o0 = clock.minimal_shift(p, n=0.0)
    o1 = clock.minimal_shift(p, n=4.0)  # (n+1/2) grows 9x
    assert o1.omega_min / o0.omega_min == pytest.approx(9.0 ** (-1.0 / 3.0), rel=1e-9)
    assert o1.delta_min / o0.delta_min == pytest.approx(9.0 ** (2.0 / 3.0), rel=1e-9)
    with pytest.raises(ZeroGravity):
        clock.minimal_shift(si_params(g=0.0))
    with pytest.raises(ValueError, match="occupation must be >= 0"):
        clock.minimal_shift(p, n=-0.5)


def test_thermal_shift_millikelvin():
    p = si_params()
    rep = clock.thermal_shift(p, 1e-3)
    nbar = constants.K_B * 1e-3 / (p.hbar * p.omega0)
    assert nbar == pytest.approx(130.9, rel=1e-3)
    assert rep.n == pytest.approx(nbar, rel=1e-12)
    assert rep.fractional_shift == pytest.approx(-7.71e-18, rel=1e-2)
    with pytest.raises(ValueError):
        clock.thermal_shift(p, 0.0)


def test_thermal_shift_refuses_natural_units():
    # T is in kelvin: k_B T over a natural hbar omega0 of 1 gave n 4.1e-21
    # at 300 K.
    p = model.build_system({"unit_system": "natural", "c": 2.0, "levels": [0.0, 2.0]})
    with pytest.raises(ParamMismatch, match="needs an SI system"):
        clock.thermal_shift(p, 300.0)


def test_exact_minus_lowest_order_is_quadratic():
    # The residual between the exact gap and the lowest-order gap scales
    # as (Delta_M/M0)^2: halving the internal energy shrinks it ~4x.
    # Natural units keep the residual representable.
    def residual(E1):
        p = model.build_system(
            {"unit_system": "natural", "c": 10.0, "levels": [0.0, E1], "g": 0.0}
        )
        rep = clock.energy_gap(p, 1, 0)
        return rep.exact_gap - rep.lowest_order_gap

    assert residual(2.0) / residual(1.0) == pytest.approx(4.0, rel=2e-2)
