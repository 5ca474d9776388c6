import math

import numpy as np
import pytest

from trapmass import model, ramsey, states, verify
from trapmass.errors import TruncationInsufficient


def test_all_oracles_pass():
    reports = verify.run_all()
    assert [r.name for r in reports] == sorted(verify.ORACLES)
    for r in reports:
        assert r.passed, f"{r.name}: {r.max_deviation}"
        assert r.max_deviation <= r.tolerance
        assert len(r.inputs_digest) == 16
        d = r.as_dict()
        assert d["name"] == r.name and d["passed"]


def test_vacuum_visibility_oracle_near_degenerate_corner():
    # S -> 1 (nearly equal masses): the comparison stays at machine level.
    rep = verify.oracle_vacuum_visibility(
        s_values=(0.9999999,), x0_values=(0.0, 0.1), n_times=50
    )
    assert rep.passed
    assert rep.details["visibility_deviation"] < 1e-12


def test_vacuum_visibility_oracle_detects_perturbation():
    # Negative control: a 1% multiplicative error on the closed form is
    # flagged by the same comparison machinery.
    S, x0 = 0.9, 0.5
    p = verify._natural_params(S)
    w1 = model.derive_mode_frame(p, 1).omega_i
    times = np.linspace(0.0, 4.0 * math.pi / w1, 100)
    trace = ramsey.ramsey_trace(p, states.fock_state(256, 0), times, x0=x0)
    amp = 1.01 * ramsey.gaussian_trace(p, times, x0=x0).trace
    dev = float(np.max(np.abs(np.abs(amp) - trace.visibility)))
    assert dev > 1e-6  # would exceed the oracle's visibility tolerance


def test_vacuum_visibility_oracle_fails_without_convergence():
    # Negative control: a truncation at dim 64 leaves S = 0.5, x0 = 5
    # unconverged, and the oracle's eigh route refuses it (its evolved-state
    # weight bound beyond the interior is above TAIL_BOUND) instead of
    # returning a trace.
    with pytest.raises(TruncationInsufficient, match="for dim 64"):
        verify.oracle_vacuum_visibility(
            s_values=(0.5,), x0_values=(5.0,), n_times=50, dim=64,
        )


def test_minshift_oracle_respects_custom_params():
    p = model.build_system(
        {"unit_system": "si", "M0": 5e-26, "omega0": 1e6, "levels": [0.0, 1e-19]}
    )
    rep = verify.oracle_minshift(params=p, n_values=(0.0, 2.0))
    assert rep.passed
    assert "n=2.0" in rep.details


def test_cycle_identity_oracle_and_ablation():
    rep = verify.oracle_cycle_identity()
    assert rep.passed
    assert rep.details["exponent"] == pytest.approx(2.0, abs=0.2)
    # Ablation: dropping the displacement factor degrades the scaling to
    # first order, demonstrating the factor is load-bearing.
    assert rep.details["ablation_exponent"] == pytest.approx(1.0, abs=0.2)


def test_registry_covers_reported_names():
    assert set(verify.ORACLES) == {"vacuum_visibility", "minshift", "cycle_identity",
                                   "fock_diagonal"}
    for fn in verify.ORACLES.values():
        assert callable(fn)
