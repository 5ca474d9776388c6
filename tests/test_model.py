import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapmass import constants, model
from trapmass.errors import (
    LevelOutOfRange,
    MissingField,
    NonMonotoneLevels,
    NonPositiveMass,
    ParamMismatch,
)


def si_params(**over):
    cfg = {"unit_system": "si", "M0": 1e-26, "omega0": 1e6, "levels": [0.0, 1e-19]}
    cfg.update(over)
    return model.build_system(cfg)


def natural_params(**over):
    cfg = {"unit_system": "natural", "c": 10.0, "levels": [0.0, 20.0], "g": 0.5}
    cfg.update(over)
    return model.build_system(cfg)


def test_si_defaults():
    p = si_params()
    assert p.c == constants.C_LIGHT
    assert p.hbar == constants.HBAR
    assert p.g == constants.G_STANDARD
    assert math.isclose(p.omega0, 1e6, rel_tol=1e-12)


def test_k_and_omega0_equivalent():
    p1 = si_params()
    p2 = model.build_system(
        {"unit_system": "si", "M0": 1e-26, "k": 1e-26 * 1e12, "levels": [0.0, 1e-19]}
    )
    assert p1.k == pytest.approx(p2.k, rel=1e-14)


def test_k_and_omega0_together_are_refused():
    with pytest.raises(ParamMismatch, match="not both"):
        si_params(k=4e-16)


def test_missing_fields():
    with pytest.raises(MissingField):
        model.build_system({"unit_system": "si", "levels": [0.0, 1.0]})
    with pytest.raises(MissingField):
        model.build_system({"unit_system": "si", "M0": 1e-26, "levels": [0.0, 1.0]})
    with pytest.raises(MissingField):
        model.build_system({"unit_system": "natural", "levels": [0.0, 1.0]})  # no c
    with pytest.raises(MissingField):
        model.build_system({"unit_system": "si", "M0": 1e-26, "omega0": 1e6})
    with pytest.raises(MissingField, match="'config'"):
        model.build_system([("unit_system", "si")])


def test_unknown_unit_system_names_the_value():
    # The field is present, so the error names its value, not a missing field.
    with pytest.raises(ParamMismatch, match="got 'Planck'"):
        model.build_system({"unit_system": "Planck", "c": 2.0, "levels": [0.0, 1.0]})


def test_level_validation():
    for levels in ([], [1.0, 2.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0],
                   [0.0, math.nan], [0.0, math.inf], [0.0, 1.0, math.nan],
                   [0.0, -math.inf], [math.nan, 1.0]):
        with pytest.raises(NonMonotoneLevels):
            model.build_system(
                {"unit_system": "si", "M0": 1e-26, "omega0": 1e6, "levels": levels}
            )


def test_positivity_validation():
    with pytest.raises(NonPositiveMass):
        si_params(M0=-1e-26)
    with pytest.raises(NonPositiveMass):
        si_params(omega0=0.0)
    with pytest.raises(NonPositiveMass):
        si_params(g=-1.0)


@pytest.mark.parametrize("field, value", [
    ("omega0", -1e6), ("omega0", math.nan), ("omega0", math.inf),
    ("M0", math.nan), ("M0", math.inf),
    ("k", -1.0), ("k", math.nan), ("k", math.inf),
    ("c", 0.0), ("c", math.nan), ("c", math.inf),
    ("hbar", -1.0), ("hbar", math.nan), ("hbar", math.inf),
    ("g", math.nan), ("g", math.inf),
])
def test_non_finite_or_non_positive_trap_rejected(field, value):
    # A negative omega0 must not pass as |omega0|, and NaN or inf must not
    # reach the shifts.
    with pytest.raises(NonPositiveMass) as err:
        si_params(**{field: value})
    assert err.value.field == field
    if field in ("M0", "c", "g"):
        with pytest.raises(NonPositiveMass):
            natural_params(**{field: value})


def test_natural_rescaling_normalizes():
    p = natural_params()
    assert p.M0 == 1.0 and p.hbar == 1.0
    assert math.isclose(p.omega0, 1.0, rel_tol=1e-14)


def test_natural_rescaling_preserves_ratios():
    # Mass defect E_i/c^2 relative to M0 must be invariant under rescaling.
    raw = {"unit_system": "natural", "c": 3.0, "levels": [0.0, 4.5],
           "M0": 2.0, "omega0": 5.0, "g": 1.25}
    p = model.build_system(raw)
    # Mass defect in units of M0: E1/(c^2 M0) = 4.5/(9*2).
    assert p.mass(1) - p.M0 == pytest.approx(4.5 / (9.0 * 2.0), rel=1e-12)
    # Dimensionless alpha_g must equal its value computed in the raw units.
    frame = model.derive_mode_frame(p, 1)
    M1_raw = 2.0 + 4.5 / 3.0**2
    w1_raw = math.sqrt(2.0 * 5.0**2 / M1_raw)
    alpha_raw = 1.25 * (4.5 / 9.0) / math.sqrt(2.0 * M1_raw * w1_raw**3)
    assert frame.alpha_gi == pytest.approx(alpha_raw, rel=1e-12)


def test_mode_frame_quarter_power():
    p = si_params()
    f = model.derive_mode_frame(p, 1)
    assert math.exp(f.r_i) == pytest.approx((p.M0 / f.M_i) ** 0.25, rel=1e-14)
    # omega_i sqrt(M_i) is level-independent.
    assert f.omega_i * math.sqrt(f.M_i) == pytest.approx(
        p.omega0 * math.sqrt(p.M0), rel=1e-14
    )
    assert f.r_i < 0  # heavier excited level -> softer trap


def test_mode_frame_repeatable():
    p = natural_params()
    assert model.derive_mode_frame(p, 1) == model.derive_mode_frame(p, 1)


def test_level_bounds():
    p = si_params()
    with pytest.raises(LevelOutOfRange):
        p.mass(2)
    with pytest.raises(LevelOutOfRange):
        model.derive_mode_frame(p, -1)


def test_offset_gap_cancellation_free():
    # In SI units offset_i ~ M c^2 ~ 1e-9 J while the gap is ~1e-19 J;
    # the direct difference of offsets would lose everything.
    p = si_params()
    gap = model.offset_gap(p, 1, 0)
    grav = (p.g**2 / (2.0 * p.k)) * (p.mass(1) - p.M0) * (p.mass(1) + p.M0)
    assert gap == pytest.approx(1e-19 - grav, rel=1e-15)
    assert model.offset_gap(p, 0, 0) == 0.0
    assert model.offset_gap(p, 0, 1) == -gap


def test_offset_gap_matches_naive_at_benign_scale():
    p = natural_params()
    f0 = model.derive_mode_frame(p, 0)
    f1 = model.derive_mode_frame(p, 1)
    assert model.offset_gap(p, 1, 0) == pytest.approx(
        f1.offset_i - f0.offset_i, rel=1e-12
    )


def _exact_offset_gap(p, i, j):
    """offset_i - offset_j in exact rationals from the stored floats, with
    offset_i = M_i c^2 - g^2 M_i^2 / 2k and M_i = M0 + E_i / c^2."""
    c2 = Fraction(p.c) ** 2

    def offset(level):
        M = Fraction(p.M0) + Fraction(p.levels[level]) / c2
        return M * c2 - Fraction(p.g) ** 2 * M * M / (2 * Fraction(p.k))

    return offset(i) - offset(j)


@settings(max_examples=60, deadline=None)
@given(
    si=st.booleans(),
    M0=st.floats(1e-27, 1e-24),
    log_omega0=st.floats(2.0, 7.0),
    energies=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=2, unique=True),
    g_frac=st.floats(0.0, 1.0),
    c=st.floats(2.0, 100.0),
)
def test_offset_gap_matches_fraction_reference(si, M0, log_omega0, energies, g_frac, c):
    # SI: energies of 1e-20..1e-17 J on masses of 1e-27..1e-24 kg, where
    # the offsets are 1e7 to 1e13 times the gap. Natural: c down to 2 and g
    # up to 1, where the gravitational term is a large part of the gap.
    levels = [0.0] + sorted(energies)
    if si:
        p = model.build_system({"unit_system": "si", "M0": M0, "omega0": 10**log_omega0,
                                "levels": [1e-18 * E for E in levels], "g": 1e3 * g_frac})
    else:
        p = model.build_system({"unit_system": "natural", "c": c, "levels": levels,
                                "g": g_frac})
    for i, j in ((1, 0), (2, 0), (2, 1), (0, 2)):
        ref = _exact_offset_gap(p, i, j)
        assert abs(Fraction(model.offset_gap(p, i, j)) - ref) <= abs(ref) * Fraction(1, 10**15)


def test_displacement_lowest_order():
    p = natural_params(levels=[0.0, 1.0])
    exact = model.derive_mode_frame(p, 1).alpha_gi
    approx = model.displacement_lowest_order(p, 1)
    dm_rel = (p.mass(1) - p.M0) / p.M0
    assert abs(approx / exact - 1.0) < 3.0 * dm_rel


def test_x_shift_is_relative_sag():
    p = natural_params()
    f1 = model.derive_mode_frame(p, 1)
    assert f1.x_shift_i == pytest.approx(
        p.g / f1.omega_i**2 - p.g / p.omega0**2, rel=1e-9
    )
    assert model.derive_mode_frame(p, 0).x_shift_i == 0.0


def test_omega_c():
    p = si_params()
    assert p.omega_c(1) == pytest.approx(1e-19 / p.hbar, rel=1e-14)
