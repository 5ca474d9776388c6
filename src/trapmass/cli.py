"""Command-line front end.

Usage:
    trapmass <experiment> --config <file> [--out <dir>] [--no-timestamp] [--verify]
    trapmass verify --all [--out <dir>]

Experiments: ramsey, shift, drive, qfunc, sweep. Each runner maps the
config's system and params sections to (columns, data, summary) and does
no I/O; main writes them once as a CSV data file plus a JSON summary, both
carrying a reproducibility header (config hash, constants-table version).
Exit codes: 0 success, 1 failed verification, 2 config error, 3 numeric
failure.

CSV format: "# key=value" header lines ending in LF, then the column names
and one line per row, comma-separated and ending in CRLF. Every value is
written with "%.17g", which round-trips a double exactly, so integer
columns (is_min, k) read 0, 1, 2, ... and non-finite values read nan, inf
and -inf. The bytes are Python's own "%.17g" % value; _csvtext produces
them with numpy, a block of at most 2048 cells at a time, from a certified
double-double product and a table of "%g" layouts, and leaves to Python's
"%" each cell whose rounding it cannot certify or whose decimal exponent
has magnitude 280 or more. One provenance dict, taken once per run, heads
both the CSV and the JSON summary.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import _csvtext, analytic, clock, constants, drive, model, phasespace, ramsey, states, verify
from .errors import DimensionMismatch, MissingField, ParamMismatch, TrapMassError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------- config ---

_STATE_KEYS = {"type", "n", "alpha", "nbar", "dim"}
_EXPERIMENT_KEYS = {
    "ramsey": {"state", "x0", "level", "periods", "points", "times", "corotating",
               "dim"},
    "shift": {"omega0_grid", "n_values", "temperature", "level"},
    "drive": {"state", "N", "dim", "level"},
    "qfunc": {"state", "distribution", "t", "delta", "dim"},
    "sweep": {"op", "axes"},
}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path: str, experiment: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    top_allowed = {"experiment", "system", "output", "params"}
    _check_keys(cfg, top_allowed, "config")
    for key in ("experiment", "system", "output"):
        if key not in cfg:
            raise ConfigError(f"missing required section {key!r}")
    if cfg["experiment"] != experiment:
        raise ConfigError(
            f"config experiment {cfg['experiment']!r} does not match "
            f"subcommand {experiment!r}"
        )
    _check_keys(cfg["system"], set(_SYSTEM_PARSERS), "system")
    # Checked, not replaced: the config hash and model.build_system see the
    # section as written.
    for key, parse in _SYSTEM_PARSERS.items():
        _param(cfg["system"], key, parse)
    if {"k", "omega0"} <= set(cfg["system"]):
        raise ConfigError("system gives both k and omega0: give one")
    _check_keys(cfg["output"], {"path"}, "output")
    path = cfg["output"].get("path", experiment)
    if not (isinstance(path, str) and os.path.basename(path)):
        raise ConfigError(f"output path must be a string naming a file, got {path!r}")
    _check_keys(cfg.get("params", {}), _EXPERIMENT_KEYS[experiment], "params")
    return cfg


def _param(section: dict, key: str, parse, default=None):
    """parse(section[key]), or default where the key is absent. A value that
    parse refuses (TypeError, ValueError or OverflowError) is a ConfigError."""
    if key not in section:
        return default
    try:
        return parse(section[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed {key} {section[key]!r}: {exc}") from exc


def _optional(parse):
    """parse, reading null as None (the key omitted)."""
    return lambda value: None if value is None else parse(value)


def _number(parse):
    """parse, refusing a JSON true or false, which float, int and complex
    would read as 1 or 0."""
    def number(value):
        if isinstance(value, bool):
            raise TypeError("must be a number, not true or false")
        return parse(value)
    return number


_real, _complex = _number(float), _number(complex)


def _integer(value) -> int:
    """int(value), refusing a boolean and a fractional value."""
    if _real(value) != int(value):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _positive_integer(value) -> int:
    """_integer(value), refusing a value < 1: a dim or a count."""
    n = _integer(value)
    if n < 1:
        raise ValueError("must be >= 1")
    return n


def _boolean(value) -> bool:
    """A JSON true or false; bool("false") would read as true."""
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def _positive(value) -> float:
    """_real(value), refusing a value that is not finite and > 0."""
    x = _real(value)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError("must be finite and > 0")
    return x


def _floats(values) -> list[float]:
    """A JSON list of numbers; a string or a scalar is refused."""
    if not isinstance(values, list):
        raise TypeError("must be a list")
    return [_real(v) for v in values]


def _unit_system(value) -> str:
    if not (isinstance(value, str) and value.lower() in (model.UNIT_SI, model.UNIT_NATURAL)):
        raise ValueError(f"must be {model.UNIT_SI!r} or {model.UNIT_NATURAL!r}")
    return value


_SYSTEM_PARSERS = {
    "unit_system": _unit_system, "levels": _floats,
    **dict.fromkeys(("M0", "k", "omega0", "g", "c", "hbar"), _real),
}


# Per state type: its parameter's key, parse and default, and its constructor.
_STATE_TYPES = {
    "fock": ("n", _integer, 0, states.fock_state),
    "coherent": ("alpha", _complex, 0j, states.coherent_state),
    "thermal": ("nbar", _real, 0.0, states.thermal_state_cm),
}


def _state_spec(params: dict, dim: int | None) -> tuple[str, int | complex | float, int | None]:
    """(type, parameter, size) of params.state, the vacuum by default; size is
    the spec's own dim if it gives one and the params dim otherwise."""
    spec = params.get("state", {"type": "fock", "n": 0})
    _check_keys(spec, _STATE_KEYS, "state")
    kind = spec.get("type")
    if kind not in _STATE_TYPES:
        raise ConfigError(f"unknown state type {kind!r}")
    key, parse, default, _ = _STATE_TYPES[kind]
    return kind, _param(spec, key, parse, default), _param(spec, "dim", _positive_integer, dim)


def _truncated_state(kind: str, value, size: int | None, dim: int | None) -> states.CMState:
    """A parsed state spec built at the run's one truncation: an explicit
    params dim, which a spec dim must equal (a ConfigError otherwise), else
    the spec's own dim, else 128. ramsey, drive and qfunc build every
    truncated state here."""
    if dim is not None and size != dim:
        raise ConfigError(f"state dim {size} != params dim {dim}")
    return _STATE_TYPES[kind][3](128 if size is None else size, value)


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()[:16]


# ---------------------------------------------------------------- output ---

def _provenance(cfg: dict, timestamp: bool) -> dict:
    """The reproducibility header shared by the CSV and the JSON summary."""
    prov = {"config_sha256": _config_hash(cfg), "constants": constants.CONSTANTS_VERSION}
    if timestamp:
        prov["generated"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return prov


def _write_csv(path: str, prov: dict, columns: list[str], data) -> None:
    """Write the 2-D float array data, one row per line, under columns and
    the header lines of prov."""
    data = np.asarray(data, dtype=float).reshape(-1, len(columns))
    with open(path, "wb") as fh:
        fh.write("".join(f"# {key}={value}\n" for key, value in prov.items()).encode())
        fh.write((",".join(columns) + "\r\n").encode())
        _csvtext.write_rows(fh, data)


def _write_outputs(cfg: dict, out_dir: str, timestamp: bool, columns: list[str],
                   data, summary: dict) -> list[str]:
    """Write <path>.csv and <path>_summary.json under out_dir, making the
    directory they go in, both under one provenance header; returns both
    paths."""
    base = os.path.join(out_dir, cfg["output"].get("path", cfg["experiment"]))
    os.makedirs(os.path.dirname(base) or ".", exist_ok=True)
    csv_path, json_path = base + ".csv", base + "_summary.json"
    prov = _provenance(cfg, timestamp)
    _write_csv(csv_path, prov, columns, data)
    with open(json_path, "w") as fh:
        json.dump({**prov, **summary}, fh, indent=2, default=float)
        fh.write("\n")
    return [csv_path, json_path]


def read_csv(path: str) -> tuple[dict, list[str], np.ndarray]:
    """Round-trip reader: returns (header metadata, column names, rows), rows
    as a float array of shape (row count, column count)."""
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        columns = line.strip().split(",")
        with warnings.catch_warnings():
            # A zero-row file is valid; loadtxt warns that it holds no data.
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return meta, columns, rows.reshape(-1, len(columns))


# ----------------------------------------------------------- experiments ---
# Each runner takes the config's system and params sections and returns
# (columns, data, summary): CSV column names, a 2-D float array with one
# column per name, and the JSON summary payload.

def run_ramsey(system: dict, params: dict) -> tuple[list[str], np.ndarray, dict]:
    """Every state has an exact route with no truncated state: a Fock n != 0
    the generating function ("generating_function"), every other state the
    Gaussian kernel ("gaussian_kernel"). With params.dim omitted it is the
    run's route and dim is null. An explicit params.dim takes the eigh route
    ("eigh"), the state built at params.dim by _truncated_state, and the
    summary gives its largest distance to the exact route
    (exact_max_deviation), which it reports and does not gate on. params.times
    excludes periods and points and must not decrease. Every summary gives
    phase_floor, the absolute rounding of the phase's rate term
    (RamseyTrace.phase_floor)."""
    phys = model.build_system(system)
    level = _param(params, "level", _integer, 1)
    dim = _param(params, "dim", _optional(_positive_integer))
    x0 = _param(params, "x0", _optional(_real))
    kind, value, size = _state_spec(params, dim)
    state = None if dim is None else _truncated_state(kind, value, size, dim)
    omega1 = model.derive_mode_frame(phys, level).omega_i
    if "times" in params:
        if {"periods", "points"} & set(params):
            raise ConfigError("times excludes periods and points")
        times = np.asarray(_param(params, "times", _floats))
    else:
        t_end = _param(params, "periods", _real, 2.0) * 2.0 * math.pi / omega1
        with np.errstate(invalid="ignore"):  # an infinite t_end is refused below
            times = np.linspace(0.0, t_end, _param(params, "points", _positive_integer, 400))
    if times.size < 1 or not np.isfinite(times).all() or np.any(np.diff(times) < 0):
        # The phase is unwrapped along the times, so they must not decrease.
        raise ConfigError("ramsey needs at least one time point, all finite and non-decreasing")
    corotating = _param(params, "corotating", _boolean, False)
    is_vacuum = kind == "fock" and value == 0
    alpha = value if kind == "coherent" else 0j
    where = {"level": level, "x0": x0, "corotating": corotating}
    if kind == "fock" and not is_vacuum:
        route = "generating_function"
        exact = ramsey.fock_trace(phys, value, times, **where)
    else:
        route = "gaussian_kernel"
        nbar = value if kind == "thermal" else 0.0
        exact = ramsey.gaussian_trace(phys, times, alpha=alpha, nbar=nbar, **where)
    trace = exact
    if dim is not None:
        route = "eigh"
        trace = ramsey.ramsey_trace(phys, state, times, **where)

    columns = ["t", "P", "V", "phase"]
    data = [times, trace.probability, trace.visibility, trace.phase]
    summary = {"dim": trace.dim, "route": route, "x0": trace.x0, "level": level,
               "phase_floor": trace.phase_floor}
    if dim is not None:
        summary["exact_max_deviation"] = float(np.max(np.abs(trace.trace - exact.trace)))
    if is_vacuum or kind == "coherent":
        # The phase-space overlap shares no code with either route.
        v_analytic = analytic.coherent_visibility(phys, trace.x0, alpha, times, level=level)
        columns.append("V_analytic")
        data.append(v_analytic)
        summary["oracle_max_deviation"] = float(
            np.max(np.abs(v_analytic - trace.visibility))
        )
    if is_vacuum and not corotating:
        # The vacuum's phase and extrema closed forms hold for it alone.
        columns.append("phase_analytic")
        data.append(ramsey._phase(exact.bounded, exact.offset))
        t_min, v_min, t_rev, v_rev = analytic.visibility_extrema(
            phys, trace.x0, level=level
        )
        summary.update(t_min=t_min, V_min=v_min, t_rev=t_rev, V_rev=v_rev)
    return columns, np.column_stack(data), summary


def _grid_from_spec(spec) -> np.ndarray:
    """A list of values, or {min, max, points[, log]}: that many values
    spaced evenly, or evenly in log, from min to max."""
    if isinstance(spec, list):
        return np.asarray(_floats(spec))
    _check_keys(spec, {"min", "max", "points", "log"}, "grid")
    missing = {"min", "max", "points"} - set(spec)
    if missing:
        raise ConfigError(f"grid needs {sorted(missing)}")
    lo, hi, n = _real(spec["min"]), _real(spec["max"]), _positive_integer(spec["points"])
    if _boolean(spec.get("log", False)):
        return np.logspace(math.log10(lo), math.log10(hi), n)
    return np.linspace(lo, hi, n)


_DEFAULT_OMEGA0_GRID = _grid_from_spec({"min": 1e2, "max": 1e7, "points": 200, "log": True})


def _shift_tables(system: dict, level: int, omegas: np.ndarray, n_values: list[float]
                  ) -> tuple[model.SystemParams, list[clock.ShiftReport]]:
    """The params built at omega0 = 1 and clock.shift_table over the omega0
    grid, one table per n. At omega0 = 1, natural-unit params keep the
    config's frequency unit."""
    if omegas.size == 0 or not n_values:
        raise ConfigError("shift grid is empty: give at least one omega0 and one n")
    bad_n = [n for n in n_values if not (math.isfinite(n) and n >= 0)]
    if bad_n:
        raise ConfigError(f"n values must be finite and >= 0, got {bad_n[0]}")
    trap_free = {key: v for key, v in system.items() if key != "k"}
    phys = model.build_system({**trap_free, "omega0": 1.0})
    return phys, [clock.shift_table(phys, level, omegas, n) for n in n_values]


def run_shift(system: dict, params: dict) -> tuple[list[str], np.ndarray, dict]:
    level = _param(params, "level", _integer, 1)
    omegas = _param(params, "omega0_grid", _grid_from_spec, _DEFAULT_OMEGA0_GRID)
    n_values = _param(params, "n_values", _floats, [0.0])
    temperature = _param(params, "temperature", _positive)
    phys, tables = _shift_tables(system, level, omegas, n_values)

    blocks, minima = [], {}
    for n, table in zip(n_values, tables):
        is_min = np.zeros(omegas.size)
        is_min[np.argmin(table.fractional_shift)] = 1.0
        blocks.append(np.column_stack([
            omegas, np.full(omegas.size, n), table.fractional_shift,
            table.components["gravitational"], table.components["time_dilation"],
            is_min,
        ]))
        try:
            opt = clock.minimal_shift(phys, n)
            minima[f"n={n}"] = {"omega_min": opt.omega_min, "delta_min": opt.delta_min}
        except TrapMassError as exc:
            minima[f"n={n}"] = {"error": str(exc)}

    summary = {"minima": minima}
    if temperature is not None:
        try:
            rep = clock.thermal_shift(model.build_system(system), temperature, level)
        except ParamMismatch as exc:  # a natural-unit system has no kelvin
            raise ConfigError(str(exc)) from exc
        summary["thermal"] = {
            "T": temperature,
            "n_mean": rep.n,
            "fractional_shift": rep.fractional_shift,
        }
    columns = ["omega0", "n", "delta", "gravitational", "time_dilation", "is_min"]
    return columns, np.vstack(blocks), summary


def _finite_max_deviation(values: np.ndarray, reference: np.ndarray) -> float | None:
    """max |values - reference| over the entries where values is finite, or
    None where none is."""
    finite = np.isfinite(values)
    return float(np.max(np.abs(values - reference)[finite])) if finite.any() else None


def run_drive(system: dict, params: dict) -> tuple[list[str], np.ndarray, dict]:
    """With params.dim omitted both columns come from the Gaussian core
    ("generating_function"): P_exact from drive.gaussian_drive, exact and
    finite at every cycle with no truncated state and no N limit, and dim
    null. An explicit params.dim takes P_exact from the truncated loop
    drive.iterate_drive ("eigh"), which runs every cycle up to its tail gate
    (the summary's first_nan_k names the first cycle it leaves NaN), the
    state built at params.dim by _truncated_state; its summary gives the
    largest distance to the Gaussian core's P_exact over the cycles where it
    is finite (exact_max_deviation), which it reports and does not gate on.
    P_approx is drive.squeezed_overlaps on both routes. A thermal state is
    refused (exit 3)."""
    phys = model.build_system(system)
    N = _param(params, "N", _positive_integer, 50)
    level = _param(params, "level", _integer, 1)
    dim = _param(params, "dim", _optional(_positive_integer))
    kind, value, size = _state_spec(params, dim)
    if kind == "thermal":
        raise DimensionMismatch("drive requires a pure initial state")
    n, alpha = (value, 0j) if kind == "fock" else (0, value)
    if dim is None:
        route = "generating_function"
        res = exact = drive.gaussian_drive(phys, N, level, n, alpha)
    else:
        route = "eigh"
        res = drive.iterate_drive(phys, _truncated_state(kind, value, size, dim), N, level)
        exact = drive.gaussian_drive(phys, N, level, n, alpha)
    series = {"P_exact": res.exact,
              "P_approx": drive.squeezed_overlaps(phys, N, level, n, alpha)}
    finite = np.isfinite(res.exact)
    summary = {
        "dim": dim,
        "route": route,
        "per_cycle_r": res.schedule.per_cycle_r,
        "beta_g": [res.schedule.beta_g.real, res.schedule.beta_g.imag],
        "max_deviation": _finite_max_deviation(res.exact, series["P_approx"]),
        "variance_growth_N": drive.position_variance_growth(phys, N, level),
    }
    if dim is not None:
        summary["exact_max_deviation"] = _finite_max_deviation(res.exact, exact.exact)
    if not finite.all():
        summary["first_nan_k"] = {"P_exact": int(np.argmin(finite)) + 1}
    data = np.column_stack([np.arange(1, N + 1), *series.values()])
    return ["k", *series], data, summary


def run_qfunc(system: dict, params: dict) -> tuple[list[str], np.ndarray, dict]:
    phys = model.build_system(system)
    t = _param(params, "t", _real, 0.0)
    if not math.isfinite(t):
        raise ConfigError(f"malformed t {t!r}: must be finite")
    probabilities = _param(params, "distribution", _floats)
    if probabilities is None and "t" in params:
        raise ConfigError("t needs a distribution: without one the state is not evolved")
    delta = _param(params, "delta", _positive, 0.1)
    dim = _param(params, "dim", _positive_integer)
    state = _truncated_state(*_state_spec(params, dim), dim)
    summary = {}
    if probabilities is not None:
        dist = phasespace.InternalDistribution(tuple(probabilities))
        evolved = phasespace.evolve_mixed_cm(phys, state, dist, t)
    else:
        evolved = state
    grid = phasespace.qfunction(evolved, delta=delta)
    summary["normalization"] = grid.normalization()
    try:
        fit = phasespace.effective_squeezing_fit(grid)
        summary["r_eff"] = fit.r_eff
        summary["fit_residual"] = fit.residual
    except TrapMassError as exc:
        summary["r_eff_error"] = str(exc)
    beta = grid.beta.ravel()
    data = np.column_stack([beta.real, beta.imag, grid.q.ravel()])
    return ["re_beta", "im_beta", "Q"], data, summary


_SWEEP_OPS = {"fractional_shift", "visibility_extrema"}


def run_sweep(system: dict, params: dict) -> tuple[list[str], np.ndarray, dict]:
    """One row per point of the op's axes. The fractional_shift omega0 axis
    defaults to the system's own trap, in its own units: omega0 as given,
    else sqrt(k/M0) with model.build_system's defaults (a natural system with
    no trap takes k = M0 hbar, the unit trap), else 1e6 for an SI system."""
    op = params.get("op")
    if op not in _SWEEP_OPS:
        raise ConfigError(f"sweep op must be one of {sorted(_SWEEP_OPS)}, got {op!r}")
    axes = params.get("axes", {})
    if op == "fractional_shift":
        _check_keys(axes, {"omega0", "n"}, "axes")
        columns = ["omega0", "n", "delta"]
        # The axis defaults to the system's trap and is parsed like a given one.
        natural = str(system.get("unit_system")).lower() == model.UNIT_NATURAL
        omega0 = system.get("omega0", 1e6)
        if "omega0" not in axes and "omega0" not in system and ("k" in system or natural):
            model.build_system(system)  # refuses an M0, hbar or k that is not > 0
            M0 = float(system.get("M0", 1.0))
            omega0 = math.sqrt(float(system.get("k", M0 * float(system.get("hbar", 1.0)))) / M0)
        omegas = np.asarray(_param({"omega0": [omega0], **axes}, "omega0", _floats))
        n_values = _param(axes, "n", _floats, [0.0])
        _, tables = _shift_tables(system, 1, omegas, n_values)
        # Rows run omega0-major: every n for the first omega0, then the next.
        data = np.column_stack([
            np.repeat(omegas, len(n_values)),
            np.tile(n_values, omegas.size),
            np.stack([t.fractional_shift for t in tables], axis=1).ravel(),
        ])
    else:
        _check_keys(axes, {"x0"}, "axes")
        columns = ["x0", "t_min", "V_min", "t_rev", "V_rev"]
        phys = model.build_system(system)
        x0 = np.asarray(_param(axes, "x0", _floats, [0.0]))
        if x0.size == 0:
            raise ConfigError("x0 axis is empty: give at least one x0")
        data = np.column_stack([x0, *analytic.visibility_extrema(phys, x0)])
    return columns, data, {"op": op, "rows": len(data)}


def run_verify_all(out_dir: str) -> int:
    reports = verify.run_all()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "verify_report.json")
    with open(path, "w") as fh:
        json.dump([r.as_dict() for r in reports], fh, indent=2)
        fh.write("\n")
    ok = all(r.passed for r in reports)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} "
              f"(max normalized deviation {r.max_deviation:.3e})")
    print(f"report written to {path}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ------------------------------------------------------------ verification ---

_UNIT_INTERVAL_COLUMNS = {"V", "V_analytic", "P_exact", "P_approx", "P"}
# NaN marks a drive cycle the truncated P_exact does not compute (past its
# tail gate; the Gaussian route is finite at every cycle) and a trace point
# below ramsey.PHASE_FLOOR.
_NAN_COLUMNS = {"P_exact", "phase"}


def verify_outputs(paths: list[str]) -> list[str]:
    """Re-read emitted CSVs and check the declared invariants. Every value
    must be finite, except NaN in the _NAN_COLUMNS."""
    problems = []
    for path in paths:
        if not path.endswith(".csv"):
            continue
        _, columns, arr = read_csv(path)
        for col, vals in zip(columns, arr.T):
            if col in _NAN_COLUMNS:
                vals = vals[~np.isnan(vals)]
            if not np.isfinite(vals).all():
                problems.append(f"{path}: column {col} has non-finite values")
            if col in _UNIT_INTERVAL_COLUMNS and np.any(
                (vals < -1e-10) | (vals > 1.0 + 1e-8)
            ):
                problems.append(f"{path}: column {col} outside [0, 1]")
            if col == "Q" and np.any(vals < -1e-12):
                problems.append(f"{path}: negative Q values")
    return problems


# ------------------------------------------------------------------ main ---

_RUNNERS = {
    "ramsey": run_ramsey,
    "shift": run_shift,
    "drive": run_drive,
    "qfunc": run_qfunc,
    "sweep": run_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapmass",
        description="Mass-energy-equivalence simulations for trapped particles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp header line")
        sp.add_argument("--verify", action="store_true",
                        help="re-read outputs and check invariants")
    vp = sub.add_parser("verify", help="run the oracle suite")
    vp.add_argument("--all", action="store_true", required=True)
    vp.add_argument("--out", default=None, help="output directory")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process for main."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = args.out or os.environ.get("TRAPMASS_OUT", ".")
    if args.command == "verify":
        return run_verify_all(out_dir)
    try:
        cfg = load_config(args.config, args.command)
        columns, data, summary = _RUNNERS[args.command](cfg["system"],
                                                        cfg.get("params", {}))
    except (ConfigError, MissingField) as exc:  # MissingField: a required system key
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrapMassError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    paths = _write_outputs(cfg, out_dir, not args.no_timestamp, columns, data, summary)
    for path in paths:
        print(path)
    if args.verify:
        problems = verify_outputs(paths)
        if problems:
            for prob in problems:
                print(f"verification: {prob}", file=sys.stderr)
            return EXIT_VERIFY_FAIL
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
