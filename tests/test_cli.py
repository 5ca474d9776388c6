import csv
import datetime
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trapmass
from trapmass import _csvtext, cli, clock, drive, model, ramsey, states


NATURAL_SYSTEM = {"unit_system": "natural", "c": 2.0, "levels": [0.0, 2.0], "g": 0.0}


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, cfg, experiment, extra=()):
    cfg_path = write_cfg(tmp_path, f"{experiment}.json", cfg)
    argv = [experiment, "--config", cfg_path, "--out", str(tmp_path),
            "--no-timestamp", *extra]
    return cli.main(argv)


def ramsey_cfg(**params):
    return {
        "experiment": "ramsey",
        "system": dict(NATURAL_SYSTEM),
        "output": {"path": "ramsey_run"},
        "params": {"state": {"type": "fock", "n": 0, "dim": 128},
                   "periods": 1.0, "points": 60, "dim": 128, **params},
    }


def test_ramsey_run_outputs(tmp_path):
    assert run(tmp_path, ramsey_cfg(), "ramsey") == cli.EXIT_OK
    meta, columns, rows = cli.read_csv(str(tmp_path / "ramsey_run.csv"))
    assert meta["constants"].startswith("codata")
    assert "generated" not in meta
    assert columns[:4] == ["t", "P", "V", "phase"]
    # Vacuum initial state: analytic columns and extrema in the summary.
    assert "V_analytic" in columns
    arr = np.asarray(rows)
    iv, ia = columns.index("V"), columns.index("V_analytic")
    assert np.max(np.abs(arr[:, iv] - arr[:, ia])) < 1e-6
    summary = json.loads((tmp_path / "ramsey_run_summary.json").read_text())
    assert summary["oracle_max_deviation"] < 1e-6
    assert 0.0 < summary["t_min"] < summary["t_rev"]


def test_ramsey_default_params(tmp_path):
    # The default state is the vacuum. With dim omitted it takes the exact
    # Gaussian kernel, which has no truncation dim.
    cfg = {"experiment": "ramsey", "system": dict(NATURAL_SYSTEM),
           "output": {"path": "ramsey_default"}, "params": {}}
    assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "ramsey_default_summary.json").read_text())
    assert summary["dim"] is None and summary["route"] == "gaussian_kernel"
    assert summary["oracle_max_deviation"] < 1e-6
    # With dim omitted a Fock n > 0 takes the generating function and a
    # thermal state the Gaussian kernel, neither with a truncation dim.
    for state, route in (({"type": "fock", "n": 1}, "generating_function"),
                         ({"type": "thermal", "nbar": 1.5}, "gaussian_kernel")):
        cfg["params"] = {"state": state}
        assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
        summary = json.loads((tmp_path / "ramsey_default_summary.json").read_text())
        assert summary["dim"] is None and summary["route"] == route
    # The dim-convergence tolerance is gone: its key is unknown.
    cfg["params"] = {"state": {"type": "fock", "n": 1}, "dim_tol": 1e-8}
    assert run(tmp_path, cfg, "ramsey") == cli.EXIT_CONFIG


_S_08 = {"unit_system": "natural", "c": 10.0, "levels": [0.0, 100.0 * (1.0 / 0.8**2 - 1.0)],
         "g": 0.5}
_SI_SYSTEM = {"unit_system": "si", "M0": 1e-26, "omega0": 1e6, "levels": [0.0, 1e-19]}


@pytest.mark.parametrize("system", [_S_08, _SI_SYSTEM], ids=["natural", "si"])
@pytest.mark.parametrize("params, route", [
    ({}, "gaussian_kernel"),
    ({"state": {"type": "coherent", "alpha": "1.2-0.7j"}}, "gaussian_kernel"),
    ({"state": {"type": "coherent", "alpha": 1.1, "dim": 64}, "corotating": True},
     "gaussian_kernel"),
    ({"dim": 96}, "eigh"),
    ({"state": {"type": "coherent", "alpha": "1.2-0.7j"}, "dim": 128}, "eigh"),
    ({"state": {"type": "fock", "n": 2}, "dim": 96}, "eigh"),
    ({"state": {"type": "thermal", "nbar": 0.5, "dim": 64}, "dim": 64}, "eigh"),
    ({"state": {"type": "fock", "n": 2}}, "generating_function"),
    ({"state": {"type": "thermal", "nbar": 0.5, "dim": 64}}, "gaussian_kernel"),
    ({"state": {"type": "fock", "n": 1}}, "generating_function"),
    ({"state": {"type": "thermal", "nbar": 1.5}}, "gaussian_kernel"),
])
def test_ramsey_route_contract(tmp_path, system, params, route):
    # Runs with dim omitted write dim null and an exact route: the Gaussian
    # kernel for vacuum, coherent and thermal states, the generating
    # function for Fock n > 0. Every explicit dim writes an int dim, the
    # eigh route and its distance to the exact route. Every vacuum or
    # coherent run carries the phase-space oracle, complex alpha included.
    cfg = {"experiment": "ramsey", "system": dict(system),
           "output": {"path": "route"}, "params": {"points": 300, **params}}
    assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "route_summary.json").read_text())
    assert summary["route"] == route
    if route == "eigh":
        assert isinstance(summary["dim"], int) and summary["exact_max_deviation"] < 1e-6
    else:
        assert summary["dim"] is None and "exact_max_deviation" not in summary
    state = params.get("state", {"type": "fock", "n": 0})
    if state["type"] == "coherent" or state.get("n") == 0:
        assert summary["oracle_max_deviation"] <= 1e-6
    else:
        assert "oracle_max_deviation" not in summary


@pytest.mark.parametrize("state, code", [
    ({"type": "coherent", "alpha": math.nan}, cli.EXIT_NUMERIC),
    ({"type": "coherent", "alpha": "nan+1j"}, cli.EXIT_NUMERIC),
    ({"type": "coherent", "alpha": 4.0, "dim": 16}, cli.EXIT_NUMERIC),
    ({"type": "coherent", "alpha": 1.0, "bogus": 1}, cli.EXIT_CONFIG),
])
def test_kernel_route_still_builds_and_checks_the_state(tmp_path, state, code):
    # The kernel route checks alpha itself and the spec's keys are checked on
    # every route, so a bad state fails with dim omitted as it does at an
    # explicit dim. A spec dim sizes a state only at an explicit params.dim:
    # alpha = 4 fails the tail rule at dim 16 and runs with dim omitted.
    cfg = {"experiment": "ramsey", "system": dict(NATURAL_SYSTEM),
           "output": {"path": "bad_state"}, "params": {"state": state}}
    if "dim" in state:
        assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
        cfg["params"]["dim"] = state["dim"]
    assert run(tmp_path, cfg, "ramsey") == code


def test_eigh_route_reports_its_gap_to_the_exact_route(tmp_path):
    # A thermal run that passes the truncation rule at dim 64 yet is 7.9e-8
    # off the Gaussian kernel: it exits 0, and the summary says how far off.
    system = {"unit_system": "natural", "c": 10.0, "levels": [0.0, 300.0], "g": 0.0}
    params = {"state": {"type": "thermal", "nbar": 0.5}, "x0": 0.0, "dim": 64,
              "periods": 2.0, "points": 400}
    cfg = {"experiment": "ramsey", "system": system, "output": {"path": "gap"},
           "params": params}
    assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "gap_summary.json").read_text())
    assert summary["route"] == "eigh" and summary["exact_max_deviation"] > 1e-8
    p = model.build_system(system)
    times = np.linspace(0.0, 4.0 * math.pi / model.derive_mode_frame(p, 1).omega_i, 400)
    eigh = ramsey.ramsey_trace(p, states.thermal_state_cm(64, 0.5), times, x0=0.0)
    exact = ramsey.gaussian_trace(p, times, x0=0.0, nbar=0.5)
    assert summary["exact_max_deviation"] == np.max(np.abs(eigh.trace - exact.trace))


def test_negative_fock_index_with_dim_omitted_is_a_numeric_failure(tmp_path, capsys):
    # Fock n = -1 takes the generating function, which refuses it, not the
    # vacuum's Gaussian kernel.
    cfg = {"experiment": "ramsey", "system": dict(NATURAL_SYSTEM),
           "output": {"path": "negative"}, "params": {"state": {"type": "fock", "n": -1}}}
    assert run(tmp_path, cfg, "ramsey") == cli.EXIT_NUMERIC
    assert "Fock index -1 is negative" in capsys.readouterr().err


_HEAVY_STATES = [({"type": "thermal", "nbar": 200.0}, "gaussian_kernel"),
                 ({"type": "coherent", "alpha": 12.0}, "gaussian_kernel"),
                 ({"type": "fock", "n": 300}, "generating_function")]


@pytest.mark.parametrize("state, route", _HEAVY_STATES)
def test_exact_routes_take_states_past_the_default_dim(tmp_path, state, route):
    # No truncated state is built with dim omitted, so states that dim 128
    # cannot hold run on their exact route, in natural units and in SI; at
    # params.dim 128 they fail the truncation rule as before.
    for system in (NATURAL_SYSTEM, _SI_SYSTEM):
        cfg = {"experiment": "ramsey", "system": dict(system),
               "output": {"path": "heavy"}, "params": {"state": state, "points": 200}}
        assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
        summary = json.loads((tmp_path / "heavy_summary.json").read_text())
        assert summary["dim"] is None and summary["route"] == route
        _, columns, rows = cli.read_csv(str(tmp_path / "heavy.csv"))
        assert np.isfinite(rows[:, columns.index("V")]).all()
        cfg["params"]["dim"] = 128
        assert run(tmp_path, cfg, "ramsey") == cli.EXIT_NUMERIC


def _spy_on_state_constructors(monkeypatch) -> list[str]:
    """Record every call of a states constructor, the CLI's table included."""
    calls = []

    def spy(name):
        real = getattr(states, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(states, name, wrapper)
        return wrapper

    for name in ("pure_state", "mixed_state"):
        spy(name)
    monkeypatch.setattr(cli, "_STATE_TYPES", {
        kind: (key, parse, default, spy(build.__name__))
        for kind, (key, parse, default, build) in cli._STATE_TYPES.items()})
    return calls


def test_exact_routes_build_no_state(tmp_path, monkeypatch):
    calls = _spy_on_state_constructors(monkeypatch)
    for state in ({"type": "fock", "n": 0}, {"type": "fock", "n": 2, "dim": 64},
                  {"type": "coherent", "alpha": "1.2-0.7j"},
                  {"type": "thermal", "nbar": 1.5, "dim": 64}):
        cfg = {"experiment": "ramsey", "system": dict(NATURAL_SYSTEM),
               "output": {"path": "spy"}, "params": {"state": state, "points": 50}}
        assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
        assert calls == []
        # The spy sees the eigh route build its state.
        cfg["params"]["dim"] = 64
        assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
        assert calls
        calls.clear()


@pytest.mark.parametrize("state", [
    {"type": "coherent", "alpha": "abc"},
    {"type": "coherent", "alpha": [1, 2]},
    {"type": "fock", "n": "x"},
    {"type": "fock", "n": 1.5},
    {"type": "fock", "n": math.inf},
    {"type": "thermal", "nbar": "x"},
    {"type": "fock", "n": 1, "dim": "x"},
    {"type": "fock", "n": 1, "dim": 64.5},
    {"type": "thermal", "nbar": 1.0, "dim": None},
    {"type": "fock", "n": True},
    {"type": "coherent", "alpha": True},
    {"type": "thermal", "nbar": True},
    {"type": "fock", "n": 1, "dim": True},
])
def test_malformed_state_specs_are_config_errors(tmp_path, state):
    # A state parameter or dim that does not parse is a config error, on the
    # exact routes and at an explicit dim alike.
    for extra in ({}, {"dim": 128}):
        cfg = {"experiment": "ramsey", "system": dict(NATURAL_SYSTEM),
               "output": {"path": "bad_state"}, "params": {"state": state, **extra}}
        assert run(tmp_path, cfg, "ramsey") == cli.EXIT_CONFIG


@pytest.mark.parametrize("bad", [{"points": 0}, {"times": []}, {"points": -3},
                                 {"points": "x"}, {"times": 5}, {"x0": "abc"},
                                 {"level": "x"}, {"level": 1.5},
                                 {"periods": math.inf}, {"periods": 1e308},
                                 {"times": [0.0, math.nan]}, {"times": [math.inf]},
                                 {"times": [0.0, 2.0, 1.0]},
                                 {"times": [0.0, 1.0, 2.0], "points": 5000},
                                 {"times": [0.0, 1.0, 2.0], "periods": 1.0},
                                 {"points": True}, {"periods": True}, {"x0": True},
                                 {"times": [0.0, True]}, {"level": True}])
def test_empty_time_grid_and_malformed_params_are_config_errors(tmp_path, bad, capsys):
    # No time point, a time that is not finite (these exited 0 with NaN
    # columns), times that decrease (the phase is unwrapped along them; this
    # exited 0 with a meaningless phase), times with periods or points (which
    # were dropped: three times with 5000 points wrote three rows), or a
    # param that does not parse, is a config error on every route, not a
    # traceback. A JSON true is not a number ("points": true ran one time
    # point).
    for extra in ({}, {"dim": 64}, {"state": {"type": "thermal", "nbar": 1.0}}):
        cfg = {"experiment": "ramsey", "system": dict(NATURAL_SYSTEM),
               "output": {"path": "no_times"}, "params": {**bad, **extra}}
        assert run(tmp_path, cfg, "ramsey") == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_ramsey_state_takes_params_dim(tmp_path):
    # A state with no dim of its own is built at the truncation dim, so a
    # truncation below the default 128 runs.
    cfg = {"experiment": "ramsey", "system": dict(NATURAL_SYSTEM),
           "output": {"path": "ramsey_dim96"}, "params": {"dim": 96}}
    assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "ramsey_dim96_summary.json").read_text())
    assert summary["dim"] == 96


def test_ramsey_sub_floor_phases_pass_verify(tmp_path):
    # Fock n = 2 far from the excited trap centre: the points with
    # V < PHASE_FLOOR carry NaN phase, which --verify accepts.
    c = 10.0
    cfg = {"experiment": "ramsey",
           "system": {"unit_system": "natural", "c": c,
                      "levels": [0.0, c * c * (1.0 / 0.8**2 - 1.0)], "g": 0.0},
           "output": {"path": "ramsey_floor"},
           "params": {"state": {"type": "fock", "n": 2}, "x0": 7.0, "points": 2000}}
    assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
    _, columns, rows = cli.read_csv(str(tmp_path / "ramsey_floor.csv"))
    phase, V = rows[:, columns.index("phase")], rows[:, columns.index("V")]
    assert np.isnan(phase).any()
    assert np.array_equal(np.isnan(phase), V < ramsey.PHASE_FLOOR)


def test_si_phases_keep_their_digits(tmp_path):
    # Lab frame, the SI default: the rate turns by 3e7 rad between points,
    # which no grid resolves, and unwrapping the trace once gave a last phase
    # of 893.7 rad for -1.19e10. The phase is -rate t to the last digit (the
    # bounded factor adds ~1e-9 rad), and phase_floor, the rounding of the
    # rate term, is ulp + eps of 1.19e10 rad, 4.55e-6 rad.
    p = model.build_system(_SI_SYSTEM)
    cfg = {"experiment": "ramsey", "system": dict(_SI_SYSTEM),
           "output": {"path": "si_lab"}, "params": {}}
    assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "si_lab_summary.json").read_text())
    assert summary["phase_floor"] == pytest.approx(4.55e-6, rel=1e-2)
    _, columns, rows = cli.read_csv(str(tmp_path / "si_lab.csv"))
    t = rows[:, 0]
    ref = -model.offset_gap(p, 1, 0) / p.hbar * t
    for name in ("phase", "phase_analytic"):
        phase = rows[:, columns.index(name)]
        assert np.max(np.abs(phase[t > 0] / ref[t > 0] - 1.0)) <= 1e-15
        assert np.max(np.abs(phase - ref)) <= summary["phase_floor"]
    # Co-rotating, g = 0, x0 = 0: the phase of the vacuum and of a thermal
    # state is the zero-point shift -(nbar + 1/2) omega0 t expm1(2 r_1), at
    # most ~1e-9 rad, and must keep its digits (1e-9 relative; the model
    # error is O(r_1)). A Fock 2 trace runs and passes --verify.
    system = {**_SI_SYSTEM, "g": 0.0}
    r1 = model.derive_mode_frame(model.build_system(system), 1).r_i
    for name, state, nbar in (("vacuum", {"type": "fock", "n": 0}, 0.0),
                              ("thermal", {"type": "thermal", "nbar": 2.0}, 2.0),
                              ("fock2", {"type": "fock", "n": 2}, None)):
        cfg = {"experiment": "ramsey", "system": system, "output": {"path": f"corot_{name}"},
               "params": {"state": state, "x0": 0.0, "corotating": True}}
        assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
        if nbar is None:
            continue
        _, columns, rows = cli.read_csv(str(tmp_path / f"corot_{name}.csv"))
        t, phase = rows[:, 0], rows[:, columns.index("phase")]
        ref = -(nbar + 0.5) * system["omega0"] * t * math.expm1(2.0 * r1)
        assert np.max(np.abs(phase[t > 0] / ref[t > 0] - 1.0)) < 1e-9, name


def test_ramsey_deterministic_bytes(tmp_path):
    run(tmp_path, ramsey_cfg(), "ramsey")
    first = (tmp_path / "ramsey_run.csv").read_bytes()
    run(tmp_path, ramsey_cfg(), "ramsey")
    assert (tmp_path / "ramsey_run.csv").read_bytes() == first


def test_ramsey_verify_flag(tmp_path):
    assert run(tmp_path, ramsey_cfg(), "ramsey", extra=["--verify"]) == cli.EXIT_OK


def test_config_errors(tmp_path, capsys):
    # Unknown key.
    cfg = ramsey_cfg()
    cfg["params"]["bogus"] = 1
    assert run(tmp_path, cfg, "ramsey") == cli.EXIT_CONFIG
    # Experiment mismatch.
    cfg = ramsey_cfg()
    cfg["experiment"] = "shift"
    assert run(tmp_path, cfg, "ramsey") == cli.EXIT_CONFIG
    # Invalid JSON file.
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["ramsey", "--config", str(bad), "--out", str(tmp_path)]) \
        == cli.EXIT_CONFIG
    # Unreadable config file.
    absent = tmp_path / "absent.json"
    assert cli.main(["ramsey", "--config", str(absent), "--out", str(tmp_path)]) \
        == cli.EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err
    # Missing section.
    cfg = ramsey_cfg()
    del cfg["output"]
    assert run(tmp_path, cfg, "ramsey") == cli.EXIT_CONFIG
    # Bad state type.
    cfg = ramsey_cfg()
    cfg["params"]["state"] = {"type": "squeezed"}
    assert run(tmp_path, cfg, "ramsey") == cli.EXIT_CONFIG


def test_numeric_failure_exit_code(tmp_path):
    # Fock index beyond the truncation raises inside the library -> exit 3.
    cfg = ramsey_cfg()
    cfg["params"]["state"] = {"type": "fock", "n": 160, "dim": 128}
    assert run(tmp_path, cfg, "ramsey") == cli.EXIT_NUMERIC


def test_shift_run(tmp_path):
    cfg = {
        "experiment": "shift",
        "system": {"unit_system": "si", "M0": 1e-26, "omega0": 1e6,
                   "levels": [0.0, 1e-19], "g": 9.81},
        "output": {"path": "shift_run"},
        "params": {"omega0_grid": {"min": 1e2, "max": 1e7, "points": 40,
                                   "log": True},
                   "n_values": [0.0, 1.0], "temperature": 1e-3},
    }
    assert run(tmp_path, cfg, "shift") == cli.EXIT_OK
    _, columns, rows = cli.read_csv(str(tmp_path / "shift_run.csv"))
    assert columns == ["omega0", "n", "delta", "gravitational",
                       "time_dilation", "is_min"]
    arr = np.asarray(rows)
    assert arr.shape[0] == 80
    # One marked minimum per n value.
    assert arr[:, 5].sum() == 2.0
    summary = json.loads((tmp_path / "shift_run_summary.json").read_text())
    assert summary["minima"]["n=0.0"]["omega_min"] == pytest.approx(4179.4, rel=1e-3)
    assert summary["thermal"]["fractional_shift"] == pytest.approx(-7.71e-18, rel=1e-2)


def test_natural_shift_with_temperature_is_a_config_error(tmp_path, capsys):
    # A temperature is in kelvin; against a natural hbar omega0 of 1 it
    # wrote n_mean 4.1e-21 at 300 K with exit 0.
    cfg = {"experiment": "shift", "system": dict(NATURAL_SYSTEM),
           "output": {"path": "shift_natural"}, "params": {"temperature": 300.0}}
    assert run(tmp_path, cfg, "shift") == cli.EXIT_CONFIG
    assert "needs an SI system" in capsys.readouterr().err
    del cfg["params"]["temperature"]
    assert run(tmp_path, cfg, "shift", extra=["--verify"]) == cli.EXIT_OK


def test_drive_run(tmp_path):
    cfg = {
        "experiment": "drive",
        "system": {"unit_system": "natural", "c": 1.0, "levels": [0.0, 0.04],
                   "g": 0.0},
        "output": {"path": "drive_run"},
        "params": {"N": 10, "dim": 128},
    }
    assert run(tmp_path, cfg, "drive") == cli.EXIT_OK
    _, columns, rows = cli.read_csv(str(tmp_path / "drive_run.csv"))
    assert columns == ["k", "P_exact", "P_approx"]
    arr = np.asarray(rows)
    assert arr.shape == (10, 3)
    assert np.all(arr[:, 1:] >= 0.0) and np.all(arr[:, 1:] <= 1.0 + 1e-10)
    summary = json.loads((tmp_path / "drive_run_summary.json").read_text())
    assert summary["per_cycle_r"] < 0
    assert summary["max_deviation"] < 1e-3
    assert summary["variance_growth_N"]["position"] > 0


def test_default_drive_is_gated_at_the_truncation_tail(tmp_path):
    # N = 50 at dim 128 squeezes the vacuum to |2Nr| = 10, which dim 128
    # cannot hold: the truncated P_exact stops at the tail gate and is NaN at
    # k = 50, while P_approx, from the Gaussian core on every route, is
    # finite throughout. Every value written matches 1/cosh(2kr).
    cfg = {"experiment": "drive", "system": dict(NATURAL_SYSTEM),
           "output": {"path": "drive_default"}, "params": {"dim": 128}}
    assert run(tmp_path, cfg, "drive", extra=["--verify"]) == cli.EXIT_OK
    _, _, rows = cli.read_csv(str(tmp_path / "drive_default.csv"))
    summary = json.loads((tmp_path / "drive_default_summary.json").read_text())
    assert summary["route"] == "eigh" and summary["dim"] == 128
    ref = np.array([drive.vacuum_overlap_closed_form(k * summary["per_cycle_r"])
                    for k in rows[:, 0]])
    finite = np.isfinite(rows[:, 1])
    assert np.isnan(rows[-1, 1]) and finite[0]
    assert np.array_equal(finite, rows[:, 0] < summary["first_nan_k"]["P_exact"])
    assert np.max(np.abs(rows[finite, 1] - ref[finite])) < 1e-12
    assert np.max(np.abs(rows[:, 2] - ref)) < 1e-12
    assert list(summary["first_nan_k"]) == ["P_exact"]
    assert summary["max_deviation"] < 1e-12


@pytest.mark.parametrize("system, N", [(NATURAL_SYSTEM, 50), (NATURAL_SYSTEM, 10001),
                                       ({"unit_system": "si", "M0": 1e-26, "omega0": 1e6,
                                         "levels": [0.0, 1e-19], "g": 0.0}, 50)])
def test_default_drive_is_exact_at_every_cycle(tmp_path, system, N):
    # With dim omitted both columns come from the Gaussian core: finite at
    # every cycle, the 10001-cycle drive included (past |2kr| = 710 both
    # saturate to 0.0), and within 1e-12 of |<0|S(2kr)|0>|^2 = 1/cosh(2kr).
    params = {} if N == 50 else {"N": N}
    cfg = {"experiment": "drive", "system": dict(system),
           "output": {"path": "drive_exact"}, "params": params}
    assert run(tmp_path, cfg, "drive", extra=["--verify"]) == cli.EXIT_OK
    _, _, rows = cli.read_csv(str(tmp_path / "drive_exact.csv"))
    summary = json.loads((tmp_path / "drive_exact_summary.json").read_text())
    assert summary["route"] == "generating_function" and summary["dim"] is None
    assert "first_nan_k" not in summary and rows.shape == (N, 3)
    ref = np.array([drive.vacuum_overlap_closed_form(k * summary["per_cycle_r"])
                    for k in rows[:, 0]])
    assert np.isfinite(rows).all()
    assert np.max(np.abs(rows[:, 1:] - ref[:, None])) < 1e-12


@pytest.mark.parametrize("state", [{"type": "fock", "n": 300},
                                   {"type": "coherent", "alpha": 12.0},
                                   {"type": "coherent", "alpha": "1.2-0.7j"},
                                   {"type": "fock", "n": 3}])
def test_drive_takes_states_past_the_default_dim(tmp_path, state):
    # The Gaussian route builds no truncated state, in natural units and in
    # SI; at params.dim 128 the heavy states fail the truncation rule.
    for system in (NATURAL_SYSTEM, _SI_SYSTEM):
        cfg = {"experiment": "drive", "system": dict(system),
               "output": {"path": "drive_heavy"}, "params": {"state": state}}
        assert run(tmp_path, cfg, "drive", extra=["--verify"]) == cli.EXIT_OK
        _, _, rows = cli.read_csv(str(tmp_path / "drive_heavy.csv"))
        assert np.isfinite(rows).all()
        if state.get("n") == 300 or state.get("alpha") == 12.0:
            cfg["params"]["dim"] = 128
            assert run(tmp_path, cfg, "drive") == cli.EXIT_NUMERIC


def test_gaussian_drive_with_gravity_is_finite_and_passes_verify(tmp_path):
    # A Fock n > 0 and a coherent drive with gravity: the k-fold displacement
    # grows with the squeeze, but P_exact is finite at every one of 400
    # cycles, so the summary names no first_nan_k.
    system = {"unit_system": "natural", "c": 2.0, "levels": [0.0, 2.0], "g": 0.5}
    for state in ({"type": "fock", "n": 3}, {"type": "coherent", "alpha": "1.2-0.7j"}):
        cfg = {"experiment": "drive", "system": system, "output": {"path": "drive_floor"},
               "params": {"N": 400, "state": state}}
        assert run(tmp_path, cfg, "drive", extra=["--verify"]) == cli.EXIT_OK
        _, _, rows = cli.read_csv(str(tmp_path / "drive_floor.csv"))
        summary = json.loads((tmp_path / "drive_floor_summary.json").read_text())
        assert summary["route"] == "generating_function" and "first_nan_k" not in summary
        assert rows.shape == (400, 3) and np.isfinite(rows).all()


@pytest.mark.parametrize("state", [
    {"type": "fock", "n": 0}, {"type": "fock", "n": 3},
    {"type": "coherent", "alpha": "1.2-0.7j"},
])
def test_eigh_drive_reports_its_gap_to_the_gaussian_core(tmp_path, state):
    # An explicit dim reports max |P_exact(eigh) - P_exact(gaussian_drive)|
    # over the finite cycles; with dim omitted the run is the Gaussian core
    # and has no such key.
    summaries = {}
    for dim in (96, None):
        params = {"state": state} if dim is None else {"state": state, "dim": dim}
        cfg = {"experiment": "drive", "system": dict(NATURAL_SYSTEM),
               "output": {"path": f"drive_{dim}"}, "params": params}
        assert run(tmp_path, cfg, "drive", extra=["--verify"]) == cli.EXIT_OK
        summaries[dim] = json.loads((tmp_path / f"drive_{dim}_summary.json").read_text())
    assert "exact_max_deviation" not in summaries[None]
    assert summaries[96]["exact_max_deviation"] < 1e-10
    _, _, eigh = cli.read_csv(str(tmp_path / "drive_96.csv"))
    _, _, exact = cli.read_csv(str(tmp_path / "drive_None.csv"))
    assert np.isfinite(eigh[:, 1]).sum() >= 4
    assert summaries[96]["exact_max_deviation"] == np.nanmax(np.abs(eigh[:, 1] - exact[:, 1]))


def test_eigh_drive_matches_the_gaussian_core_over_1000_cycles(tmp_path):
    # The truncated cycle loop at dim 384 multiplies only the block of the
    # product that can change a double: all 1000 P_exact values are finite
    # and within 1e-11 of the Gaussian core (dim omitted), and the eigh run
    # reports that distance itself.
    system = {"unit_system": "natural", "c": 35.0, "levels": [0.0, 1.5], "g": 0.3}
    p_exact, summaries = {}, {}
    for name, dim in (("eigh", {"dim": 384}), ("exact", {})):
        cfg = {"experiment": "drive", "system": system, "output": {"path": f"dcross_{name}"},
               "params": {"state": {"type": "coherent", "alpha": 1.2}, "N": 1000, **dim}}
        assert run(tmp_path, cfg, "drive", extra=["--verify"]) == cli.EXIT_OK
        _, columns, rows = cli.read_csv(str(tmp_path / f"dcross_{name}.csv"))
        p_exact[name] = rows[:, columns.index("P_exact")]
        summaries[name] = json.loads((tmp_path / f"dcross_{name}_summary.json").read_text())
    assert p_exact["eigh"].shape == p_exact["exact"].shape == (1000,)
    assert np.isfinite(p_exact["eigh"]).all() and np.isfinite(p_exact["exact"]).all()
    dev = np.max(np.abs(p_exact["eigh"] - p_exact["exact"]))
    assert dev < 1e-11 and summaries["eigh"]["exact_max_deviation"] == dev
    assert "exact_max_deviation" not in summaries["exact"]


@pytest.mark.parametrize("dim", [None, 64])
def test_drive_refuses_thermal_states(tmp_path, dim, capsys):
    params = {"state": {"type": "thermal", "nbar": 1.0}, "N": 5}
    if dim is not None:
        params["dim"] = dim
    cfg = {"experiment": "drive", "system": dict(NATURAL_SYSTEM),
           "output": {"path": "drive_thermal"}, "params": params}
    assert run(tmp_path, cfg, "drive") == cli.EXIT_NUMERIC
    assert "pure initial state" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, params", [
    ("drive", {"N": 0}), ("drive", {"N": -3}), ("drive", {"N": 5.7}),
    ("drive", {"N": 5, "level": 1.9}), ("drive", {"N": "x"}),
    ("shift", {"level": 1.9}),
])
def test_integer_params_are_config_errors(tmp_path, experiment, params):
    # N < 1 and fractional N or level were an uncaught ValueError (exit 1)
    # or silently truncated (5.7 cycles ran as 5).
    cfg = {"experiment": experiment, "system": dict(NATURAL_SYSTEM),
           "output": {"path": "bad_int"}, "params": params}
    assert run(tmp_path, cfg, experiment) == cli.EXIT_CONFIG


def test_drive_beyond_double_range_runs(tmp_path):
    # 10001 cycles of 2|r| = 0.41 take the position variance growth past
    # the double range: the summary reports inf and the run exits 0, with
    # P_exact finite up to the cycle where the dim-32 tail gate trips.
    cfg = {"experiment": "drive", "system": dict(NATURAL_SYSTEM),
           "output": {"path": "drive_long"}, "params": {"dim": 32, "N": 10001}}
    assert run(tmp_path, cfg, "drive", extra=["--verify"]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "drive_long_summary.json").read_text())
    assert summary["variance_growth_N"] == {"position": math.inf, "momentum": -1.0}
    _, _, rows = cli.read_csv(str(tmp_path / "drive_long.csv"))
    first_nan = summary["first_nan_k"]["P_exact"]
    assert rows.shape == (10001, 3) and 1 < first_nan < 10001
    assert np.isfinite(rows[:first_nan - 1, 1]).all() and np.isnan(rows[first_nan - 1:, 1]).all()
    assert summary["max_deviation"] is not None


def test_qfunc_run(tmp_path):
    cfg = {
        "experiment": "qfunc",
        "system": dict(NATURAL_SYSTEM),
        "output": {"path": "qfunc_run"},
        "params": {"state": {"type": "fock", "n": 0, "dim": 128},
                   "distribution": [0.5, 0.5], "t": 0.05, "delta": 0.2},
    }
    assert run(tmp_path, cfg, "qfunc", extra=["--verify"]) == cli.EXIT_OK
    _, columns, rows = cli.read_csv(str(tmp_path / "qfunc_run.csv"))
    assert columns == ["re_beta", "im_beta", "Q"]
    summary = json.loads((tmp_path / "qfunc_run_summary.json").read_text())
    assert summary["normalization"] == pytest.approx(1.0, abs=1e-2)


def test_evolved_qfunc_is_checked_on_the_state_not_the_grid(tmp_path):
    # c = 2, levels [0, 2], g = 3: the vacuum evolved to t = pi / (2 omega_1)
    # puts 3.1e-27 of its trace beyond the interior of dim 64, so dim 64
    # runs (the Q-grid guard refused it, "needs dim >= 69") and its grid is
    # dim 512's. c = 1, levels [0, 30] at dim 128 puts 1.9e-5 there: exit 3.
    system = {"unit_system": "natural", "c": 2.0, "levels": [0.0, 2.0], "g": 3.0}
    t = math.pi / (2.0 * model.derive_mode_frame(model.build_system(system), 1).omega_i)
    grids = {}
    for dim in (64, 512):
        cfg = {"experiment": "qfunc", "system": system, "output": {"path": f"g3_{dim}"},
               "params": {"distribution": [0.5, 0.5], "t": t, "dim": dim}}
        assert run(tmp_path, cfg, "qfunc", extra=["--verify"]) == cli.EXIT_OK
        grids[dim] = cli.read_csv(str(tmp_path / f"g3_{dim}.csv"))[2]
    assert grids[64].shape == grids[512].shape
    assert np.array_equal(grids[64][:, :2], grids[512][:, :2])
    assert np.max(np.abs(grids[64][:, 2] - grids[512][:, 2])) < 1e-14
    system = {"unit_system": "natural", "c": 1.0, "levels": [0.0, 30.0], "g": 0.0}
    t = math.pi / (2.0 * model.derive_mode_frame(model.build_system(system), 1).omega_i)
    cfg = {"experiment": "qfunc", "system": system, "output": {"path": "c1"},
           "params": {"distribution": [0.5, 0.5], "t": t, "dim": 128}}
    assert run(tmp_path, cfg, "qfunc") == cli.EXIT_NUMERIC


@pytest.mark.parametrize("evolve", [{}, {"distribution": [0.5, 0.5], "t": 1.0}],
                         ids=["unevolved", "evolved"])
def test_coherent_qfunc_grid_does_not_depend_on_dim(tmp_path, evolve):
    # A coherent state at the default dim 128 and at dim 512: Q contracts
    # only the Fock support of rho that can change a double, so both dims
    # give the same grid, and Q and the normalization agree within 1e-13.
    grids, norms = [], []
    for dim in ({}, {"dim": 512}):
        cfg = qfunc_cfg(state={"type": "coherent", "alpha": 1.2}, **evolve, **dim)
        assert run(tmp_path, cfg, "qfunc", extra=["--verify"]) == cli.EXIT_OK
        grids.append(cli.read_csv(str(tmp_path / "qfunc_run.csv"))[2])
        norms.append(json.loads((tmp_path / "qfunc_run_summary.json").read_text())[
            "normalization"])
    assert grids[0].shape == grids[1].shape
    assert np.array_equal(grids[0][:, :2], grids[1][:, :2])
    assert np.max(np.abs(grids[0][:, 2] - grids[1][:, 2])) < 1e-13
    assert abs(norms[0] - norms[1]) < 1e-13


@pytest.mark.parametrize("params", [
    {"state": {"type": "thermal", "nbar": 1.5, "dim": 128}, "dim": 128},
    {"state": {"type": "thermal", "nbar": 1.5}, "x0": 1.0, "points": 2000, "dim": 512},
], ids=["dim128", "dim512"])
def test_eigh_thermal_ramsey_matches_the_gaussian_kernel(tmp_path, params):
    # The eigh route's contraction keeps only the part of C that can change
    # a double: its P and V, and the distance it reports, are within 1e-12
    # of the Gaussian kernel that the same params take with dim omitted.
    rows, summaries = {}, {}
    for name in ("eigh", "exact"):
        p = params if name == "eigh" else {k: v for k, v in params.items() if k != "dim"}
        cfg = {"experiment": "ramsey", "system": dict(NATURAL_SYSTEM),
               "output": {"path": f"cross_{name}"}, "params": p}
        assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
        _, columns, rows[name] = cli.read_csv(str(tmp_path / f"cross_{name}.csv"))
        summaries[name] = json.loads((tmp_path / f"cross_{name}_summary.json").read_text())
    for name in ("P", "V"):
        i = columns.index(name)
        assert np.max(np.abs(rows["eigh"][:, i] - rows["exact"][:, i])) < 1e-12, name
    assert summaries["exact"]["route"] == "gaussian_kernel"
    assert summaries["eigh"]["exact_max_deviation"] < 1e-12


def test_eigh_ramsey_refuses_a_dim_its_evolved_state_outgrows(tmp_path, capsys):
    # The vacuum at x0 = 7 exited 0 at dim 64 with P off by 0.56. Dims 64
    # and 128 are refused; dim 192 agrees with the exact route (dim omitted).
    def cfg(path, **params):
        return {"experiment": "ramsey", "system": dict(NATURAL_SYSTEM),
                "output": {"path": path}, "params": {"x0": 7.0, **params}}
    for dim in (64, 128):
        assert run(tmp_path, cfg("far", dim=dim), "ramsey") == cli.EXIT_NUMERIC
        assert f"for dim {dim}" in capsys.readouterr().err
    assert run(tmp_path, cfg("far192", dim=192), "ramsey", extra=["--verify"]) == cli.EXIT_OK
    assert run(tmp_path, cfg("far_exact"), "ramsey", extra=["--verify"]) == cli.EXIT_OK
    _, columns, eigh = cli.read_csv(str(tmp_path / "far192.csv"))
    _, _, exact = cli.read_csv(str(tmp_path / "far_exact.csv"))
    for name in ("P", "V"):
        i = columns.index(name)
        assert np.max(np.abs(eigh[:, i] - exact[:, i])) < 1e-12


def test_sweep_run(tmp_path):
    cfg = {
        "experiment": "sweep",
        "system": dict(NATURAL_SYSTEM),
        "output": {"path": "sweep_run"},
        "params": {"op": "visibility_extrema", "axes": {"x0": [0.0, 0.1, 0.5]}},
    }
    assert run(tmp_path, cfg, "sweep") == cli.EXIT_OK
    _, columns, rows = cli.read_csv(str(tmp_path / "sweep_run.csv"))
    assert columns == ["x0", "t_min", "V_min", "t_rev", "V_rev"]
    arr = np.asarray(rows)
    # V_rev = exp(-a0 x0^2) decreases with x0.
    assert np.all(np.diff(arr[:, 4]) < 0)
    cfg["params"] = {"op": "nonsense"}
    assert run(tmp_path, cfg, "sweep") == cli.EXIT_CONFIG


def test_verify_all_subcommand(tmp_path):
    assert cli.main(["verify", "--all", "--out", str(tmp_path)]) == cli.EXIT_OK
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert {r["name"] for r in report} == {"vacuum_visibility", "minshift",
                                           "cycle_identity", "fock_diagonal"}
    assert all(r["passed"] for r in report)


def test_timestamp_header_present_by_default(tmp_path):
    cfg_path = write_cfg(tmp_path, "r.json", ramsey_cfg())
    assert cli.main(["ramsey", "--config", cfg_path, "--out", str(tmp_path)]) \
        == cli.EXIT_OK
    meta, _, _ = cli.read_csv(str(tmp_path / "ramsey_run.csv"))
    assert "generated" in meta


def test_coherent_state_cli_oracle(tmp_path):
    # The reference for a real coherent state is the displaced-Gaussian
    # overlap, not the vacuum formula at a shifted x0.
    S, c = 0.8, 10.0
    cfg = ramsey_cfg(state={"type": "coherent", "alpha": 1.0, "dim": 128}, x0=0.5)
    cfg["system"] = {"unit_system": "natural", "c": c,
                     "levels": [0.0, c * c * (1.0 / S**2 - 1.0)], "g": 0.0}
    assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "ramsey_run_summary.json").read_text())
    assert summary["oracle_max_deviation"] < 1e-6
    # The phase and extrema closed forms are the vacuum's only.
    assert "t_min" not in summary
    _, columns, _ = cli.read_csv(str(tmp_path / "ramsey_run.csv"))
    assert columns == ["t", "P", "V", "phase", "V_analytic"]


SI_SHIFT_SYSTEM = {"unit_system": "si", "M0": 1e-26, "omega0": 1e6,
                   "levels": [0.0, 1e-19], "g": 9.81}


def shift_cfg(**params):
    return {"experiment": "shift", "system": dict(SI_SHIFT_SYSTEM),
            "output": {"path": "shift_run"}, "params": params}


def fshift_cfg(**axes):
    return {"experiment": "sweep", "system": dict(SI_SHIFT_SYSTEM),
            "output": {"path": "fshift_run"},
            "params": {"op": "fractional_shift", "axes": axes}}


def test_shift_rows_match_per_point_energy_gap(tmp_path):
    # n-major rows with the first grid minimum marked, against energy_gap on
    # a system rebuilt at each omega0.
    omegas = [3e3, 1e3, 5e3, 1e3]
    cfg = shift_cfg(omega0_grid=omegas, n_values=[0.0, 7.0])
    assert run(tmp_path, cfg, "shift") == cli.EXIT_OK
    _, _, rows = cli.read_csv(str(tmp_path / "shift_run.csv"))
    ref = []
    for n in (0.0, 7.0):
        deltas = [clock.energy_gap(model.build_system({**SI_SHIFT_SYSTEM, "omega0": w}),
                                   1, n).fractional_shift for w in omegas]
        first_min = deltas.index(min(deltas))
        ref += [[w, n, d, j == first_min] for j, (w, d) in enumerate(zip(omegas, deltas))]
    ref = np.asarray(ref, dtype=float)
    np.testing.assert_array_equal(rows[:, [0, 1, 5]], ref[:, [0, 1, 3]])
    np.testing.assert_allclose(rows[:, 2], ref[:, 2], rtol=4e-15, atol=0.0)
    assert run(tmp_path, fshift_cfg(omega0=omegas, n=[0.0, 7.0]), "sweep") == cli.EXIT_OK
    _, _, rows = cli.read_csv(str(tmp_path / "fshift_run.csv"))
    # omega0-major: the same values, transposed.
    order = np.argsort(np.tile(np.arange(len(omegas)), 2), kind="stable")
    np.testing.assert_array_equal(rows[:, :2], ref[order, :2])
    np.testing.assert_allclose(rows[:, 2], ref[order, 2], rtol=4e-15, atol=0.0)


def test_empty_shift_grids_are_config_errors(tmp_path):
    grid = {"min": 1e2, "max": 1e7, "points": 0, "log": True}
    assert run(tmp_path, shift_cfg(omega0_grid=grid), "shift") == cli.EXIT_CONFIG
    assert run(tmp_path, fshift_cfg(omega0=[]), "sweep") == cli.EXIT_CONFIG


def test_bad_occupations_and_grid_counts_are_config_errors(tmp_path):
    assert run(tmp_path, shift_cfg(n_values=[-1.0]), "shift") == cli.EXIT_CONFIG
    assert run(tmp_path, fshift_cfg(omega0=[1e3], n=[-1.0]), "sweep") \
        == cli.EXIT_CONFIG
    grid = {"min": 1e2, "max": 1e7, "points": -3, "log": False}
    assert run(tmp_path, shift_cfg(omega0_grid=grid), "shift") == cli.EXIT_CONFIG


def test_non_finite_level_is_numeric_failure(tmp_path):
    cfg = shift_cfg(omega0_grid=[1e3, 1e4])
    cfg["system"]["levels"] = [0.0, math.nan]
    assert run(tmp_path, cfg, "shift", extra=["--verify"]) == cli.EXIT_NUMERIC


@pytest.mark.parametrize("bad", [0.0, -1e6, "nan", "inf"])
def test_bad_omega0_grid_values_are_numeric_failures(tmp_path, bad):
    bad = float(bad)
    assert run(tmp_path, shift_cfg(omega0_grid=[1e3, bad]), "shift") \
        == cli.EXIT_NUMERIC
    assert run(tmp_path, fshift_cfg(omega0=[1e3, bad]), "sweep") == cli.EXIT_NUMERIC


def test_linear_omega0_grid_is_evenly_spaced(tmp_path):
    grid = {"min": 1e3, "max": 5e3, "points": 5}
    assert run(tmp_path, shift_cfg(omega0_grid=grid, n_values=[0.0]), "shift") == cli.EXIT_OK
    _, _, rows = cli.read_csv(str(tmp_path / "shift_run.csv"))
    np.testing.assert_array_equal(rows[:, 0], [1e3, 2e3, 3e3, 4e3, 5e3])


def test_shift_without_gravity_reports_each_minimum_as_an_error(tmp_path):
    # With g = 0 the shift is monotone in omega0: the grid is still written,
    # and each n's minimum is an error in the summary.
    cfg = shift_cfg(omega0_grid=[1e3, 1e4], n_values=[0.0, 1.0])
    cfg["system"]["g"] = 0.0
    assert run(tmp_path, cfg, "shift", extra=["--verify"]) == cli.EXIT_OK
    minima = json.loads((tmp_path / "shift_run_summary.json").read_text())["minima"]
    assert sorted(minima) == ["n=0.0", "n=1.0"]
    assert all("no minimum" in m["error"] for m in minima.values())


@pytest.mark.parametrize("system, omega0, delta", [
    ({"unit_system": "si", "k": 4e-16, "M0": 1e-26, "levels": [0.0, 1e-19]},
     2e5, -5.866873725274017e-21),
    ({"unit_system": "natural", "c": 2.0, "levels": [0.0, 2.0], "g": 0.5},
     1.0, -0.12400085476806849),
], ids=["si-k", "natural"])
def test_fractional_shift_sweep_defaults_to_the_system_trap(tmp_path, system, omega0, delta):
    # With axes.omega0 omitted the axis once read the section's "omega0" or
    # else 1e6, whatever the units: these two wrote omega0 1e6 and delta
    # -2.93e-20 and -45875.9.
    cfg = {**fshift_cfg(), "system": system}
    assert run(tmp_path, cfg, "sweep", extra=["--verify"]) == cli.EXIT_OK
    _, _, rows = cli.read_csv(str(tmp_path / "fshift_run.csv"))
    assert rows.tolist() == [[pytest.approx(omega0, rel=1e-15), 0.0,
                              pytest.approx(delta, rel=1e-12)]]


@settings(max_examples=40, deadline=None)
@given(
    M0=st.floats(1e-26, 3e-25), log_omega0=st.floats(5.0, 6.5),
    E1=st.floats(1e-19, 5e-19), c=st.floats(1.0, 50.0), e1=st.floats(0.01, 100.0),
    g=st.floats(0.0, 5.0), hbar=st.sampled_from([None, 0.5, 3.0]), si=st.booleans(),
)
def test_fractional_shift_sweep_default_row_is_the_system_energy_gap(
        M0, log_omega0, E1, c, e1, g, hbar, si):
    # SI systems over the benchmark's ranges with the trap given as k, and
    # natural systems with no trap (k = M0 hbar): the default row is the
    # system's own gap.
    if si:
        system = {"unit_system": "si", "M0": M0, "k": M0 * (10.0 ** log_omega0) ** 2,
                  "levels": [0.0, E1], "g": 9.81}
    else:
        system = {"unit_system": "natural", "c": c, "levels": [0.0, e1], "g": g}
        if hbar is not None:
            system["hbar"] = hbar
    _, data, _ = cli.run_sweep(system, {"op": "fractional_shift"})
    gap = clock.energy_gap(model.build_system(system), 1, 0.0).fractional_shift
    assert data.shape == (1, 3)
    assert data[0, 2] == pytest.approx(gap, rel=1e-12, abs=0.0)


def test_verify_accepts_zero_row_csv(tmp_path):
    # No experiment writes an empty table (an empty sweep axis is a config
    # error), so the outputs are written directly and checked as --verify does.
    cfg = {"experiment": "sweep", "system": dict(NATURAL_SYSTEM),
           "output": {"path": "empty"},
           "params": {"op": "visibility_extrema", "axes": {"x0": [0.0]}}}
    names = ["x0", "t_min", "V_min", "t_rev", "V_rev"]
    written, _ = cli._write_outputs(cfg, str(tmp_path), False, names, np.empty((0, 5)),
                                    {"rows": 0})
    assert cli.verify_outputs([written]) == []
    _, columns, rows = cli.read_csv(str(tmp_path / "empty.csv"))
    assert columns == names
    assert rows.shape == (0, 5)


def _csv_writer_reference(path, cfg, columns, rows):
    # The format written with the standard library: header lines, then
    # csv.writer rows of "%.17g" floats and plain ints.
    with open(path, "w", newline="") as fh:
        for key, value in cli._provenance(cfg, False).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.sampled_from([0, 1, 2, 7, _csvtext.BLOCK_CELLS + 3]),
    n_float=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_csv_matches_csv_writer_and_round_trips(tmp_path_factory, n_rows, n_float, seed):
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, np.nan, np.inf, -np.inf,
                        1.0, 1e17, 123456789.0, np.pi])
    values = rng.standard_normal((n_rows, n_float)) * 10.0 ** rng.integers(-30, 30, (n_rows, n_float))
    pick = rng.random((n_rows, n_float)) < 0.3
    values[pick] = rng.choice(special, size=int(pick.sum()))
    flags = rng.integers(0, 2, n_rows)
    columns = ["k"] + [f"x{j}" for j in range(n_float)] + ["is_min"]
    data = np.column_stack([np.arange(1, n_rows + 1), values, flags]).astype(float)
    rows = [[k + 1, *map(float, values[k]), int(flags[k])] for k in range(n_rows)]
    cfg = {"experiment": "sweep"}
    out = tmp_path_factory.mktemp("csv")
    _csv_writer_reference(str(out / "ref.csv"), cfg, columns, rows)
    cli._write_csv(str(out / "new.csv"), cli._provenance(cfg, False), columns, data)
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()
    meta, got_columns, got = cli.read_csv(str(out / "new.csv"))
    assert got_columns == columns and meta["config_sha256"] == cli._config_hash(cfg)
    assert got.shape == data.shape
    # Exact round trip, bit for bit, -0.0 and nan included.
    assert got.tobytes() == np.where(np.isnan(data), np.nan, data).tobytes()


def _percent_body(data: np.ndarray) -> bytes:
    # The oracle: Python's own "%.17g" of every cell.
    return b"".join(b",".join(b"%.17g" % v for v in row) + b"\r\n" for row in data.tolist())


def _written_body(path) -> bytes:
    text = path.read_bytes()
    return text[text.index(b"\r\n") + 2 :]


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=64),
    n_cols=st.integers(1, 6),
    n_rows=st.sampled_from([0, 1, 3, _csvtext.BLOCK_CELLS + 1]),
)
@example(values=[5e-324, -0.0, -math.nan, math.inf, -math.inf, 2.0**-25], n_cols=1, n_rows=6)
@example(values=[1e16, 1e17, math.nextafter(1e23, 0.0), 1.7976931348623157e308],
         n_cols=2, n_rows=_csvtext.BLOCK_CELLS + 1)
@example(values=[1.0], n_cols=1, n_rows=0)
def test_csv_text_is_python_percent_17g(tmp_path_factory, values, n_cols, n_rows):
    # The block-wise writer gives Python's "%.17g" bytes for every double,
    # whatever the table's shape; values repeat to fill n_rows x n_cols.
    data = np.resize(np.array(values), (n_rows, n_cols))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    cli._write_csv(str(path), {}, [f"c{j}" for j in range(n_cols)], data)
    assert _written_body(path) == _percent_body(data)


def test_csv_text_on_bit_patterns_and_powers_of_ten(tmp_path):
    # Random bit patterns (subnormals, huge values, NaN payloads), every
    # power of ten in the double range, its neighbours and their negatives.
    rng = np.random.default_rng(20190611)
    bits = rng.integers(0, 2**64, 30000, dtype=np.uint64, endpoint=False).view(float)
    tens = np.array([float(f"1e{j}") for j in range(-330, 309)])
    values = np.concatenate([bits, tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    data = np.concatenate([values, -values]).reshape(-1, 3)
    cli._write_csv(str(tmp_path / "t.csv"), {}, ["a", "b", "c"], data)
    assert _written_body(tmp_path / "t.csv") == _percent_body(data)


def test_large_shift_csv_body_is_python_percent_17g(tmp_path):
    # 108 000 cells through the CLI: the CSV body is Python's own "%.17g" of
    # every value read back, byte for byte, as the numpy writer promises.
    cfg = {**shift_cfg(omega0_grid={"min": 1e2, "max": 1e7, "points": 6000, "log": True},
                       n_values=[0, 3, 40], temperature=1e-4), "system": dict(_SI_SYSTEM)}
    assert run(tmp_path, cfg, "shift", extra=["--verify"]) == cli.EXIT_OK
    _, _, rows = cli.read_csv(str(tmp_path / "shift_run.csv"))
    body = (tmp_path / "shift_run.csv").read_bytes().split(b"\r\n", 1)[1]
    assert rows.size == 108000
    assert body == b"".join(b",".join(b"%.17g" % v for v in row) + b"\r\n"
                            for row in rows.tolist())


def test_csv_and_summary_share_one_provenance(tmp_path, monkeypatch):
    # A clock that advances one second per call: the CSV header and the JSON
    # summary must still carry one timestamp, taken once per run.
    class Clock(datetime.datetime):
        calls = 0

        @classmethod
        def now(cls, tz=None):
            cls.calls += 1
            return datetime.datetime(2026, 1, 1, tzinfo=tz) + datetime.timedelta(seconds=cls.calls)

    monkeypatch.setattr(cli, "datetime", Clock)
    cfg_path = write_cfg(tmp_path, "shift.json", shift_cfg(omega0_grid=[1e3, 1e4]))
    assert cli.main(["shift", "--config", cfg_path, "--out", str(tmp_path)]) == cli.EXIT_OK
    meta, _, _ = cli.read_csv(str(tmp_path / "shift_run.csv"))
    summary = json.loads((tmp_path / "shift_run_summary.json").read_text())
    assert Clock.calls == 1
    for key in ("generated", "config_sha256", "constants"):
        assert meta[key] == str(summary[key])


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    cfg = shift_cfg(omega0_grid=[1e3, 1e4])
    for _ in range(3):
        assert run(tmp_path, cfg, "shift") == cli.EXIT_OK
    assert len(built) == 1


_NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None
from trapmass import cli, states, verify
from trapmass.errors import TruncationInsufficient

shift_cfg, sweep_cfg, out = sys.argv[1:]
assert cli.main(["shift", "--config", shift_cfg, "--out", out, "--verify"]) == 0
assert cli.main(["sweep", "--config", sweep_cfg, "--out", out, "--verify"]) == 0
assert verify.oracle_minshift().passed
try:
    states.coherent_state(64, 6.0)
except TruncationInsufficient as exc:
    assert str(exc).endswith("needs dim >= 69"), exc
else:
    raise AssertionError("dim 64 held |6> within the truncation rule")
"""


def test_runs_without_scipy(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(trapmass.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, trapmass.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert loaded.stdout.strip() == "[]"
    sweep = {"experiment": "sweep", "system": dict(NATURAL_SYSTEM),
             "output": {"path": "extrema"},
             "params": {"op": "visibility_extrema", "axes": {"x0": [0.0, 0.5, 2.0]}}}
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT,
         write_cfg(tmp_path, "shift.json", shift_cfg(n_values=[0.0, 1.0])),
         write_cfg(tmp_path, "sweep.json", sweep), str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("grid", [{"min": 0.1, "max": 10.0, "points": 30, "log": True},
                                  {"min": 1.0, "max": 10.0, "points": 30, "log": True}])
def test_natural_unit_shift_minimum_is_in_config_frequency_unit(tmp_path, grid):
    # omega_min = (4 g^2 M0 / hbar (n + 1/2))^(1/3) = 2^(1/3) for g = 1/2, n = 0,
    # whatever the first grid point is.
    cfg = {"experiment": "shift",
           "system": {"unit_system": "natural", "c": 10.0, "levels": [0.0, 2.0], "g": 0.5},
           "output": {"path": "shift_natural"},
           "params": {"omega0_grid": grid, "n_values": [0.0]}}
    assert run(tmp_path, cfg, "shift", extra=["--verify"]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "shift_natural_summary.json").read_text())
    assert summary["minima"]["n=0.0"]["omega_min"] == pytest.approx(2.0 ** (1.0 / 3.0),
                                                                     rel=1e-12)


def drive_cfg(**params):
    return {"experiment": "drive",
            "system": {"unit_system": "natural", "c": 1.0, "levels": [0.0, 0.04],
                       "g": 0.0},
            "output": {"path": "drive_run"}, "params": {"N": 5, **params}}


def qfunc_cfg(**params):
    return {"experiment": "qfunc", "system": dict(NATURAL_SYSTEM),
            "output": {"path": "qfunc_run"}, "params": params}


def test_every_truncated_state_takes_params_dim(tmp_path, monkeypatch):
    # ramsey, drive and qfunc build their state at params.dim, whether the
    # spec names no dim or the same one, and each eigh route evolves it there.
    dims = []

    def spy(module, name):
        real = getattr(module, name)

        def evolve(params, state, *args, **kwargs):
            dims.append(state.dim)
            return real(params, state, *args, **kwargs)

        monkeypatch.setattr(module, name, evolve)

    spy(cli.ramsey, "ramsey_trace")
    spy(cli.drive, "iterate_drive")
    spy(cli.phasespace, "evolve_mixed_cm")
    for spec in ({"type": "fock", "n": 0}, {"type": "fock", "n": 0, "dim": 96}):
        for experiment, cfg in (
                ("ramsey", ramsey_cfg(dim=96, state=spec)),
                ("drive", drive_cfg(dim=96, state=spec)),
                ("qfunc", qfunc_cfg(dim=96, state=spec, distribution=[0.5, 0.5], t=0.5))):
            dims.clear()
            assert run(tmp_path, cfg, experiment, extra=["--verify"]) == cli.EXIT_OK
            assert dims == [96], (experiment, spec)


def test_qfunc_state_takes_params_dim(tmp_path, capsys):
    # At dim 40 the coherent state |6> needs more levels than it has; the
    # run must use that dim rather than the state's default 128.
    cfg = qfunc_cfg(dim=40, state={"type": "coherent", "alpha": 6.0})
    assert run(tmp_path, cfg, "qfunc") == cli.EXIT_NUMERIC
    assert "needs dim >= 69" in capsys.readouterr().err
    assert run(tmp_path, qfunc_cfg(dim=96), "qfunc", extra=["--verify"]) == cli.EXIT_OK


def test_conflicting_state_and_params_dim_is_config_error(tmp_path, capsys):
    # An explicit params dim is the one truncation: a spec dim below or above
    # it is refused in every experiment that builds a truncated state.
    state = {"type": "fock", "n": 0, "dim": 128}
    for dim in (96, 256):
        assert run(tmp_path, drive_cfg(dim=dim, state=state), "drive") == cli.EXIT_CONFIG
        assert run(tmp_path, qfunc_cfg(dim=dim, state=state), "qfunc") == cli.EXIT_CONFIG
        assert run(tmp_path, ramsey_cfg(dim=dim, state=state), "ramsey") == cli.EXIT_CONFIG
        assert capsys.readouterr().err.count(f"state dim 128 != params dim {dim}") == 3


@pytest.mark.parametrize("experiment, params", [
    ("ramsey", {"level": 0}), ("ramsey", {"level": 0, "dim": 32}),
    ("drive", {"level": 0}), ("drive", {"level": 0, "dim": 32}),
    ("shift", {"level": 0}),
])
def test_level_zero_is_a_numeric_failure(tmp_path, capsys, experiment, params):
    # ramsey and drive exited 0 with V and P identically 1, and a t_min at
    # the bracket edge.
    for system in (NATURAL_SYSTEM, _SI_SYSTEM):
        cfg = {"experiment": experiment, "system": dict(system),
               "output": {"path": "level0"}, "params": params}
        assert run(tmp_path, cfg, experiment) == cli.EXIT_NUMERIC
        assert "degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["ramsey", "drive", "qfunc"])
@pytest.mark.parametrize("params", [
    {"dim": 0}, {"dim": -3},
    {"state": {"type": "fock", "n": 0, "dim": 0}},
    {"state": {"type": "fock", "n": 0, "dim": -2}},
    {"state": {"type": "fock", "n": 0, "dim": 0}, "dim": 8},
    {"state": {"type": "fock", "n": 0, "dim": -2}, "dim": 8},
], ids=["dim0", "dim-3", "state0", "state-2", "state0-dim8", "state-2-dim8"])
def test_non_positive_dims_are_config_errors(tmp_path, capsys, experiment, params):
    # These exited 3 ("Fock index 0 outside dim -3"), or 0 on an exact route.
    cfg = {"experiment": experiment, "system": dict(NATURAL_SYSTEM),
           "output": {"path": "bad_dim"}, "params": params}
    assert run(tmp_path, cfg, experiment) == cli.EXIT_CONFIG
    assert "malformed dim" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, params", [
    ("ramsey", {"x0": 1e200}),
    ("ramsey", {"x0": 1e200, "dim": 32}),
    ("ramsey", {"x0": math.inf}),
    ("ramsey", {"x0": math.nan}),
    ("sweep", {"op": "visibility_extrema", "axes": {"x0": [1e200]}}),
    ("sweep", {"op": "visibility_extrema", "axes": {"x0": [0.5, math.nan]}}),
    ("sweep", {"op": "visibility_extrema", "axes": {"x0": [math.inf]}}),
], ids=["ramsey-1e200", "ramsey-1e200-dim", "ramsey-inf", "ramsey-nan",
        "sweep-1e200", "sweep-nan", "sweep-inf"])
def test_non_finite_trap_separation_is_a_numeric_failure(tmp_path, capsys, experiment, params):
    # x0 = 1e200 escaped main as an OverflowError traceback (exit 1) from a
    # float's x0**2; inf and NaN exited 0 with NaN columns.
    for system in (NATURAL_SYSTEM, _SI_SYSTEM):
        cfg = {"experiment": experiment, "system": dict(system),
               "output": {"path": "far"}, "params": params}
        assert run(tmp_path, cfg, experiment) == cli.EXIT_NUMERIC
        assert "a0 x0^2 must be finite" in capsys.readouterr().err



@pytest.mark.parametrize("state", [{"type": "thermal", "nbar": math.nan},
                                   {"type": "thermal", "nbar": math.inf},
                                   {"type": "coherent", "alpha": math.nan}])
def test_non_finite_state_inputs_are_numeric_failures(tmp_path, state):
    cfg = ramsey_cfg(state={**state, "dim": 128})
    assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_NUMERIC


def test_output_format_key_is_rejected(tmp_path):
    cfg = ramsey_cfg()
    cfg["output"]["format"] = "csv"
    assert run(tmp_path, cfg, "ramsey") == cli.EXIT_CONFIG


@pytest.mark.parametrize("path", [5, None, "", "sub/"])
def test_output_path_naming_no_file_is_a_config_error(tmp_path, capsys, path):
    # 5 escaped main as a TypeError traceback (exit 1) and "" wrote a hidden
    # ".csv".
    cfg = ramsey_cfg()
    cfg["output"]["path"] = path
    assert run(tmp_path, cfg, "ramsey") == cli.EXIT_CONFIG
    assert "config error: output path" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_output_path_may_name_a_subdirectory(tmp_path):
    # "sub/run" raised FileNotFoundError (exit 1): main made only the
    # output directory, not the one the path names under it.
    cfg = ramsey_cfg()
    cfg["output"]["path"] = "sub/run"
    assert run(tmp_path, cfg, "ramsey", extra=["--verify"]) == cli.EXIT_OK
    assert (tmp_path / "sub" / "run.csv").is_file()
    assert (tmp_path / "sub" / "run_summary.json").is_file()


@pytest.mark.parametrize("path", ["/abs/run", "../escaped", "sub/../../escaped", "sub/..",
                                  "sub\\..\\escaped"])
def test_output_path_leaving_the_output_directory_is_a_config_error(tmp_path, capsys, path):
    # os.path.join dropped --out for an absolute path, which received the
    # CSV and summary with exit 0; a ".." part climbs out of --out.
    if path.startswith("/"):
        path = str(tmp_path / "escaped")
    cfg = ramsey_cfg()
    cfg["output"]["path"] = path
    cfg_path = write_cfg(tmp_path, "ramsey.json", cfg)
    out = tmp_path / "a" / "out"
    assert cli.main(["ramsey", "--config", cfg_path, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "config error: output path must be relative" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def _hand_csv(path, columns, rows):
    # A table written as main writes it; returns the record --verify checks.
    return cli._write_csv(str(path), {}, columns, np.array(rows, dtype=float))


def test_verify_flags_non_finite_values_outside_p_exact(tmp_path):
    ok = _hand_csv(tmp_path / "drive.csv", ["k", "P_exact", "P_approx"],
                   [[1, "nan", 0.9], [2, "nan", 0.8]])
    ok_phase = _hand_csv(tmp_path / "phase.csv", ["t", "P", "V", "phase"],
                         [[0.0, 1.0, 1.0, 0.0], [1.0, 0.5, 0.0, "nan"]])
    assert cli.verify_outputs([ok, ok_phase]) == []
    for name, columns, rows in [
        ("v.csv", ["t", "P", "V", "phase"], [[0.0, 1.0, 1.0, 0.0], [1.0, 0.5, "nan", 0.1]]),
        ("q.csv", ["re_beta", "im_beta", "Q"], [[0.0, 0.0, "nan"]]),
        ("t.csv", ["t", "P", "V", "phase"], [["inf", 1.0, 1.0, 0.0]]),
        ("pe.csv", ["k", "P_exact", "P_approx"], [[1, "inf", 0.9]]),
        ("pa.csv", ["k", "P_exact", "P_approx"], [[1, 0.9, "inf"]]),
        ("pan.csv", ["k", "P_exact", "P_approx"], [[1, 0.9, "nan"]]),
        ("ph.csv", ["t", "P", "V", "phase"], [[0.0, 1.0, 1.0, "inf"]]),
    ]:
        problems = cli.verify_outputs([_hand_csv(tmp_path / name, columns, rows)])
        assert any("non-finite" in p for p in problems), (name, problems)


def test_verify_flags_negative_q(tmp_path):
    columns = ["re_beta", "im_beta", "Q"]
    ok = _hand_csv(tmp_path / "ok.csv", columns, [[0.0, 0.0, 0.5], [0.1, 0.0, -1e-12]])
    assert cli.verify_outputs([ok]) == []
    bad = _hand_csv(tmp_path / "bad.csv", columns, [[0.0, 0.0, 0.5], [0.1, 0.0, -1e-9]])
    assert cli.verify_outputs([bad]) == [f"{bad[0]}: negative Q values"]


def test_verify_problem_exits_verify_fail(tmp_path, monkeypatch):
    # A problem found by --verify is a failed verification (exit 1), not a
    # numeric failure.
    monkeypatch.setattr(cli, "verify_outputs", lambda written: ["forced problem"])
    assert run(tmp_path, ramsey_cfg(), "ramsey", extra=["--verify"]) \
        == cli.EXIT_VERIFY_FAIL


_CI_SYSTEMS = {
    "natural": NATURAL_SYSTEM,
    "si": {"unit_system": "si", "M0": 1e-26, "omega0": 1e6, "levels": [0.0, 1e-19]},
}
_CI_RUNS = ["ramsey", "shift", "drive", "qfunc", "sweep:fractional_shift",
            "sweep:visibility_extrema"]


@pytest.mark.parametrize("units", sorted(_CI_SYSTEMS))
@pytest.mark.parametrize("job", _CI_RUNS)
def test_default_config_csv_parses_to_the_table_verified(tmp_path, monkeypatch, units, job):
    # CI's default configs: the table --verify checks is the CSV read back,
    # bit for bit, so checking it in memory checks what the file holds.
    experiment, _, op = job.partition(":")
    cfg = {"experiment": experiment, "system": dict(_CI_SYSTEMS[units]),
           "output": {"path": f"{units}_{experiment}{op}"}}
    if op:
        cfg["params"] = {"op": op}
    seen, verify = [], cli.verify_outputs

    def record(written):
        seen.extend(written)
        return verify(written)

    monkeypatch.setattr(cli, "verify_outputs", record)
    assert run(tmp_path, cfg, experiment, extra=["--verify"]) == cli.EXIT_OK
    [(path, columns, table, _, _)] = seen
    _, got_columns, got = cli.read_csv(path)
    assert got_columns == columns and got.shape == table.shape
    assert got.tobytes() == np.where(np.isnan(table), np.nan, table).tobytes()


def test_verify_does_not_parse_the_csv(tmp_path, monkeypatch):
    def loadtxt(*args, **kwargs):
        raise AssertionError("--verify parsed the CSV")

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    assert run(tmp_path, ramsey_cfg(), "ramsey", extra=["--verify"]) == cli.EXIT_OK


@pytest.mark.parametrize("change", ["byte", "append", "truncate", "delete"])
def test_verify_flags_a_csv_changed_after_writing(tmp_path, monkeypatch, capsys, change):
    # The file is changed between the write and the check: a digit of the
    # body altered (same size), a row appended, the last row cut, the file
    # gone.
    def tamper(written):
        path = written[0][0]
        text = open(path, "rb").read()
        if change == "delete":
            os.remove(path)
        else:
            at = text.rindex(b"\r\n", 0, len(text) - 2) + 2
            text = {"byte": text[:at] + bytes([text[at] ^ 1]) + text[at + 1:],
                    "append": text + text[at:],
                    "truncate": text[:at]}[change]
            open(path, "wb").write(text)
        return verify(written)

    verify = cli.verify_outputs
    monkeypatch.setattr(cli, "verify_outputs", tamper)
    assert run(tmp_path, ramsey_cfg(), "ramsey", extra=["--verify"]) == cli.EXIT_VERIFY_FAIL
    err = capsys.readouterr().err
    assert f"verification: {tmp_path / 'ramsey_run.csv'}: file differs from the table written" \
        in err


def test_verify_flags_a_runner_table_outside_its_bounds(tmp_path, monkeypatch, capsys):
    def runner(system, params):
        return ["t", "P", "V", "phase"], np.array([[0.0, 1.0, 1.0, 0.0],
                                                   [1.0, 0.5, 1.5, 0.1]]), {}

    monkeypatch.setitem(cli._RUNNERS, "ramsey", runner)
    assert run(tmp_path, ramsey_cfg(), "ramsey", extra=["--verify"]) == cli.EXIT_VERIFY_FAIL
    assert f"{tmp_path / 'ramsey_run.csv'}: column V outside [0, 1]" in capsys.readouterr().err
    # Without --verify the same table is written and the run succeeds.
    assert run(tmp_path, ramsey_cfg(), "ramsey") == cli.EXIT_OK


def _sweep_cfg(op, axes):
    return {"experiment": "sweep", "system": dict(SI_SHIFT_SYSTEM),
            "output": {"path": "sweep_run"}, "params": {"op": op, "axes": axes}}


@pytest.mark.parametrize("case", ["system", "omega0_grid", "fractional_shift",
                                  "visibility_extrema", "state", "params"])
def test_non_object_sections_are_config_errors(tmp_path, case):
    if case == "system":
        cfg, experiment = shift_cfg(), "shift"
        cfg["system"] = 5
    elif case == "omega0_grid":
        cfg, experiment = shift_cfg(omega0_grid=5), "shift"
    elif case == "state":
        cfg, experiment = ramsey_cfg(state=5), "ramsey"
    elif case == "params":
        cfg, experiment = ramsey_cfg(), "ramsey"
        cfg["params"] = [1, 2]
    else:
        cfg, experiment = _sweep_cfg(case, 5), "sweep"
    assert run(tmp_path, cfg, experiment) == cli.EXIT_CONFIG


def test_nan_distribution_is_numeric_failure(tmp_path):
    # The evolved state's trace is NaN; mixed_state rejects it (exit 3)
    # instead of letting eigvalsh end in a LinAlgError traceback.
    cfg = qfunc_cfg(dim=96, distribution=[math.nan, math.nan], t=0.1)
    assert run(tmp_path, cfg, "qfunc") == cli.EXIT_NUMERIC


def test_qfunc_alpha_key_is_rejected(tmp_path):
    # params.alpha selected nothing in qfunc; the state carries alpha.
    cfg = qfunc_cfg(dim=96, alpha=3.0)
    assert run(tmp_path, cfg, "qfunc") == cli.EXIT_CONFIG
    cfg = qfunc_cfg(dim=96, state={"type": "coherent", "alpha": 0.5})
    assert run(tmp_path, cfg, "qfunc", extra=["--verify"]) == cli.EXIT_OK


@pytest.mark.parametrize("state", [{"type": "coherent", "alpha": 4.0, "dim": 16},
                                   {"type": "thermal", "nbar": 3.0, "dim": 8}])
def test_heavy_state_tails_are_numeric_failures(tmp_path, state, capsys):
    # The state's own tail check, at a params dim equal to its spec dim.
    cfg = ramsey_cfg(state=state, dim=state["dim"])
    assert run(tmp_path, cfg, "ramsey") == cli.EXIT_NUMERIC
    assert "needs dim >= " in capsys.readouterr().err


@pytest.mark.parametrize("experiment, params", [
    ("qfunc", {"t": "abc"}),
    ("qfunc", {"dim": "x"}),
    ("qfunc", {"distribution": ["x", 0.5]}),
    ("qfunc", {"distribution": 0.5}),
    ("qfunc", {"delta": 0}),
    ("shift", {"temperature": "hot"}),
    ("shift", {"temperature": 0}),
    ("shift", {"n_values": ["a"]}),
    ("shift", {"omega0_grid": {"min": 1e2, "max": 1e7}}),
    ("shift", {"omega0_grid": {"min": 1e2, "max": 1e7, "points": 3.7}}),
    ("shift", {"omega0_grid": {"min": 1e2, "max": 1e7, "points": 5, "log": "false"}}),
    ("ramsey", {"corotating": "false"}),
    ("sweep", {"op": "visibility_extrema", "axes": {"x0": ["a"]}}),
    ("qfunc", {"t": 5.0}),
    ("qfunc", {"t": math.nan, "distribution": [0.5, 0.5]}),
    ("qfunc", {"t": math.inf, "distribution": [0.5, 0.5]}),
    ("sweep", {"op": "visibility_extrema", "axes": {"x0": []}}),
    ("ramsey", {"dim": True}),
    ("qfunc", {"dim": True}),
    ("qfunc", {"delta": True}),
    ("qfunc", {"t": True, "distribution": [0.5, 0.5]}),
    ("qfunc", {"distribution": [True, 0.0]}),
    ("shift", {"temperature": True}),
    ("shift", {"n_values": [True]}),
    ("shift", {"level": True}),
    ("shift", {"omega0_grid": {"min": True, "max": 1e7, "points": 5}}),
    ("shift", {"omega0_grid": {"min": 1e2, "max": 1e7, "points": True}}),
    ("drive", {"N": True}),
    ("sweep", {"op": "fractional_shift", "axes": {"omega0": [True]}}),
])
def test_malformed_params_are_config_errors(tmp_path, capsys, experiment, params):
    # Each of these once escaped main as a traceback (exit 1): a ValueError,
    # TypeError, KeyError or ZeroDivisionError. A fractional grid point count
    # was truncated (3.7 points ran as 3), the string "false" read as true,
    # and a qfunc t without a distribution was ignored (t 0.0 and 5.0 wrote
    # the same Q grid). A non-finite qfunc t exited 3 and an empty x0 axis
    # exited 0 with a header-only CSV, where their siblings (a non-finite
    # Ramsey time, an empty fractional_shift axis) are config errors. A JSON
    # true ran as 1 ("dim": true as dim 1) with exit 0.
    system = NATURAL_SYSTEM if experiment == "qfunc" else SI_SHIFT_SYSTEM
    cfg = {"experiment": experiment, "system": dict(system),
           "output": {"path": "malformed"}, "params": params}
    assert run(tmp_path, cfg, experiment) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key, section", [
    ("c", "system"), ("levels", "system"), ("points", "params"), ("x0", "params"),
    ("periods", "params"), ("times", "params"), ("n", "state"), ("nbar", "state"),
    ("dim", "state"),
])
def test_numbers_written_as_strings_are_config_errors(tmp_path, capsys, key, section):
    # float("2") read "c": "2", "points": "5" and "x0": "0.5" as numbers, with
    # exit 0. Only a coherent alpha is written as a string.
    value = {"c": "2", "levels": [0.0, "2"], "points": "5", "x0": "0.5", "periods": "1",
             "times": [0.0, "1"], "n": "1", "nbar": "1.0", "dim": "64"}[key]
    cfg = ramsey_cfg()
    if section == "state":
        cfg["params"]["state"] = {"type": "thermal" if key == "nbar" else "fock", key: value}
        del cfg["params"]["dim"]
    elif key == "times":
        cfg["params"] = {"times": value}
    else:
        cfg[section][key] = value
    assert run(tmp_path, cfg, "ramsey") == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: malformed {key} ")


def test_coherent_alpha_is_read_from_a_string(tmp_path):
    cfg = ramsey_cfg(state={"type": "coherent", "alpha": "0.5-0.2j"})
    del cfg["params"]["dim"]
    assert run(tmp_path, cfg, "ramsey") == cli.EXIT_OK
    numeric = ramsey_cfg(state={"type": "coherent", "alpha": 0.5})
    numeric["output"]["path"] = "real_alpha"
    del numeric["params"]["dim"]
    assert run(tmp_path, numeric, "ramsey") == cli.EXIT_OK
    # The imaginary part is read: the two traces differ.
    _, _, complex_rows = cli.read_csv(str(tmp_path / "ramsey_run.csv"))
    _, _, real_rows = cli.read_csv(str(tmp_path / "real_alpha.csv"))
    assert not np.array_equal(complex_rows, real_rows)


_SYSTEM_RUNS = [("ramsey", {}), ("shift", {}), ("drive", {}), ("qfunc", {}),
                ("sweep", {"op": "fractional_shift"}),
                ("sweep", {"op": "visibility_extrema"})]
# Per system key, values that are not a number (or, for levels, not a list
# of numbers; for unit_system, not a unit system's name). A JSON true is not
# a number: float(True) ran "c": true as c = 1 with exit 0.
_BAD_SYSTEM_VALUES = {
    **dict.fromkeys(("M0", "k", "omega0", "g", "c", "hbar"), ["x", [], None, {"a": 1}, True]),
    "levels": [["x", 2.0], "02", 2.0, [[0.0], 1.0], [0.0, True]],
    "unit_system": ["x", 5, None],
}


@pytest.mark.parametrize("units", [NATURAL_SYSTEM, SI_SHIFT_SYSTEM], ids=["natural", "si"])
@pytest.mark.parametrize("experiment, params", _SYSTEM_RUNS,
                         ids=[p.get("op", e) for e, p in _SYSTEM_RUNS])
def test_malformed_system_values_are_config_errors(tmp_path, capsys, units, experiment,
                                                   params):
    # A non-numeric system value once escaped main as a ValueError or
    # TypeError traceback (exit 1) from model.build_system: "c": "x",
    # "levels": ["x", 2.0] and SI "M0": "x" among them, and "g": [].
    for key, values in _BAD_SYSTEM_VALUES.items():
        for value in values:
            cfg = {"experiment": experiment, "system": {**units, key: value},
                   "output": {"path": "malformed"}, "params": params}
            assert run(tmp_path, cfg, experiment) == cli.EXIT_CONFIG, (key, value)
            err = capsys.readouterr().err
            assert err.startswith(f"config error: malformed {key} "), (key, value, err)


@pytest.mark.parametrize("units", [NATURAL_SYSTEM, SI_SHIFT_SYSTEM], ids=["natural", "si"])
@pytest.mark.parametrize("experiment, params", _SYSTEM_RUNS,
                         ids=[p.get("op", e) for e, p in _SYSTEM_RUNS])
def test_system_with_both_k_and_omega0_is_a_config_error(tmp_path, capsys, units, experiment,
                                                         params):
    # model.build_system took k and the default fractional_shift axis took
    # omega0: {"k": 4e-16, "M0": 1e-26, "omega0": 1e6} built omega0 = 2e5 and
    # swept 1e6. A section gives one or the other.
    system = {**units, "k": 4e-16 if units is SI_SHIFT_SYSTEM else 1.0, "omega0": 1e6}
    cfg = {"experiment": experiment, "system": system,
           "output": {"path": "both_traps"}, "params": params}
    assert run(tmp_path, cfg, experiment) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: system gives both k and omega0: give one\n"


# (system, missing field): a required system field left out.
_MISSING_SYSTEM_FIELDS = [
    ({k: v for k, v in NATURAL_SYSTEM.items() if k != "c"}, "c"),
    ({k: v for k, v in SI_SHIFT_SYSTEM.items() if k != "M0"}, "M0"),
    ({k: v for k, v in NATURAL_SYSTEM.items() if k != "levels"}, "levels"),
    ({k: v for k, v in SI_SHIFT_SYSTEM.items() if k != "levels"}, "levels"),
    ({k: v for k, v in SI_SHIFT_SYSTEM.items() if k != "omega0"}, "k"),
]


@pytest.mark.parametrize("experiment, params", _SYSTEM_RUNS,
                         ids=[p.get("op", e) for e, p in _SYSTEM_RUNS])
def test_missing_system_fields_are_config_errors(tmp_path, capsys, experiment, params):
    # A missing required system field once exited 3 ("numeric failure:
    # required field missing") from model.build_system. Shift and the
    # fractional-shift sweep set omega0 from their own grid, so an SI system
    # without k or omega0 runs there.
    own_trap = experiment == "shift" or params.get("op") == "fractional_shift"
    for system, field in _MISSING_SYSTEM_FIELDS:
        cfg = {"experiment": experiment, "system": system,
               "output": {"path": "missing"}, "params": params}
        code = run(tmp_path, cfg, experiment)
        err = capsys.readouterr().err
        if field == "k" and own_trap:
            assert code == cli.EXIT_OK, err
        else:
            assert code == cli.EXIT_CONFIG, (field, err)
            assert err == f"config error: required field missing: {field!r}\n"
