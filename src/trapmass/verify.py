"""Independent brute-force oracles for the closed-form results.

Each oracle reports a normalized deviation (deviation/tolerance per probed
quantity, maximized), so a report passes iff max_deviation <= 1.0. Oracles
deliberately use code paths independent of the implementations they check
(a grid argmin refined by parabolic vertex fits against the closed-form
optimum, dense Fock traces against the analytic amplitude, log-log
scaling fits against the operator identity, the Fock diagonal's two
routes against each other).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import analytic, clock, drive, fock, model, ramsey, states


@dataclass(frozen=True)
class OracleReport:
    name: str
    inputs_digest: str
    max_deviation: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _report(name, inputs, ratios: dict, details=None) -> OracleReport:
    worst = max(ratios.values())
    det = dict(details or {})
    det.update({f"{k}_over_tolerance": v for k, v in ratios.items()})
    return OracleReport(
        name=name,
        inputs_digest=_digest(inputs),
        max_deviation=float(worst),
        tolerance=1.0,
        passed=bool(worst <= 1.0),
        details=det,
    )


def _natural_params(S: float, c: float = 10.0, g: float = 0.0) -> model.SystemParams:
    """Natural-unit system with mass ratio M1/M0 = 1/S^2."""
    E1 = (1.0 / S**2 - 1.0) * c**2
    return model.build_system(
        {"unit_system": "natural", "c": c, "levels": [0.0, E1], "g": g}
    )


def oracle_vacuum_visibility(
    s_values=(0.5, 0.9, 0.99),
    x0_values=(0.0, 0.02, 5.0),
    n_times: int = 400,
    dim: int = 512,
    vis_tol: float = 1e-6,
    phase_tol: float = 1e-5,
) -> OracleReport:
    """Dense Fock trace at dim (the eigh route, which shares no code with the
    closed form) vs the closed-form vacuum amplitude over the full (S, x0,
    omega_1 t in [0, 4 pi]) grid. Phase is compared pointwise where the
    amplitude is resolvable (V > 1e-6); below that the phase carries no
    numerical meaning."""
    worst_v = worst_p = 0.0
    for S in s_values:
        params = _natural_params(S)
        w1 = model.derive_mode_frame(params, 1).omega_i
        times = np.linspace(0.0, 4.0 * math.pi / w1, n_times)
        for x0 in x0_values:
            trace = ramsey.ramsey_trace(params, states.fock_state(dim, 0), times, x0=x0)
            amp = ramsey.gaussian_trace(params, times, x0=x0).trace
            worst_v = max(worst_v, float(np.max(np.abs(np.abs(amp) - trace.visibility))))
            mask = np.abs(amp) > 1e-6
            dphi = np.abs(np.angle(trace.trace[mask] * np.conj(amp[mask])))
            worst_p = max(worst_p, float(np.max(dphi)))
    return _report(
        "vacuum_visibility",
        {"S": s_values, "x0": x0_values, "n_times": n_times, "dim": dim},
        {"visibility": worst_v / vis_tol, "phase": worst_p / phase_tol},
        {"visibility_deviation": worst_v, "phase_deviation": worst_p},
    )


def oracle_minshift(
    params: model.SystemParams | None = None,
    n_values=(0.0, 1.0, 5.0),
    rel_tol: float = 1e-9,
) -> OracleReport:
    """Numerical minimization of the lowest-order fractional shift over trap
    frequency vs the closed-form optimum: the argmin of a 4097-point grid of
    log omega over [0, log 1e9], refined by two parabolic vertex fits (steps
    of the grid spacing, then 1e-5), each kept inside the grid."""
    if params is None:
        params = model.build_system(
            {"unit_system": "si", "M0": 1e-26, "omega0": 1e6, "levels": [0.0, 1e-19]}
        )
    worst = 0.0
    details = {}
    u = np.linspace(0.0, math.log(1e9), 4097)
    for n in n_values:
        opt = clock.minimal_shift(params, n)

        def shift(w, n=n):
            return -sum(clock._lowest_order_terms(params, w, n))

        m = u[np.argmin(shift(np.exp(u)))]
        for h in (u[1] - u[0], 1e-5):
            fl, fm, fr = shift(np.exp([m - h, m, m + h]))
            curvature = fl - 2.0 * fm + fr
            if curvature > 0:
                m = min(max(m + 0.5 * h * (fl - fr) / curvature, u[0]), u[-1])
        w_num = math.exp(m)
        d_num = -shift(w_num)
        dev = max(
            abs(w_num / opt.omega_min - 1.0), abs(d_num / opt.delta_min - 1.0)
        )
        worst = max(worst, dev)
        details[f"n={n}"] = {"omega_min": opt.omega_min, "delta_min": opt.delta_min}
    return _report(
        "minshift",
        {"n_values": n_values, "M0": params.M0, "g": params.g},
        {"relative": worst / rel_tol},
        details,
    )


def oracle_fock_diagonal(
    s_values=(0.6, 0.99),
    x0_values=(0.0, 2.0, 10.0),
    n_values=(1, 3, 40, analytic._SERIES_MAX, analytic._SERIES_MAX + 1),
    n_times: int = 201,
    si_n_values=(1, 3),
    phase_tol: float = 1e-9,
) -> OracleReport:
    """<n|W|n> from analytic._diagonal's two routes, the series and the
    circle sum, which share only the tuple of W, on both sides of
    _SERIES_MAX, over (S, x0) and 201 times of omega_1 t in [0, 4 pi], the
    revival at 2 pi among them; the two largest n take every 50th time.
    The tolerance, 1e-13 + 1e-15 n^2, holds both routes' roundoff (about
    n eps and n^2 eps where |P| -> 1). Also the SI co-rotating Fock phase
    at x0 = 0 against -(n + 1/2) omega0 t expm1(2 r_1), which holds to a
    relative O(r_1) ~ 3e-11."""
    unitaries = []
    for S in s_values:
        vap = analytic.VacuumAmplitudeParams.from_system(_natural_params(S))
        times = np.linspace(0.0, 4.0 * math.pi / vap.omega1, n_times)
        unitaries += [analytic._bogoliubov(replace(vap, x0=x0), times) for x0 in x0_values]
    W = tuple(np.concatenate(parts) for parts in zip(*unitaries))
    every_50th = np.tile(np.arange(n_times) % 50 == 0, len(unitaries))
    worst = 0.0
    for n in n_values:
        block = tuple(x[every_50th] for x in W) if n > 100 else W
        dev = np.abs(analytic._series_diagonal(block, n) - analytic._circle_diagonal(block, n))
        worst = max(worst, float(np.max(dev)) / (1e-13 + 1e-15 * n * n))
    si = model.build_system(
        {"unit_system": "si", "M0": 1e-26, "omega0": 1e6, "g": 0.0, "levels": [0.0, 1e-19]}
    )
    r1 = model.derive_mode_frame(si, 1).r_i
    times = np.linspace(0.0, 4.0 * math.pi / si.omega0, 41)[1:]
    worst_phase = 0.0
    for n in si_n_values:
        tr = ramsey.fock_trace(si, n, times, x0=0.0, corotating=True)
        ref = -(n + 0.5) * si.omega0 * times * math.expm1(2.0 * r1)
        worst_phase = max(worst_phase, float(np.max(np.abs(tr.phase / ref - 1.0))))
    return _report(
        "fock_diagonal",
        {"S": s_values, "x0": x0_values, "n": n_values, "n_times": n_times,
         "si_n": si_n_values},
        {"routes": worst, "si_phase": worst_phase / phase_tol},
        {"si_phase_relative_deviation": worst_phase},
    )


def _fit_exponent(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _cycle_deviations(u_values, g: float, dim: int) -> tuple[list[float], list[float]]:
    """Per Delta_M/M_0 = u, the comparator deviation of the cycle product from
    the full -i P S(2r) D(beta) and from the bare -i P S(2r), which drops the
    displacement factor."""
    full, bare = [], []
    for u in u_values:
        params = model.build_system({"unit_system": "natural", "c": math.sqrt(100.0 / u),
                                     "levels": [0.0, 100.0], "g": g})
        cyc = drive.cycle_operator(params, dim)
        S = fock.squeeze_matrix(dim, cyc.schedule.per_cycle_r)
        full.append(drive.comparator_deviation(cyc))
        bare.append(drive.comparator_deviation(
            replace(cyc, comparator=-1j * ((-1.0) ** np.arange(dim))[:, None] * S)))
    return full, bare


def oracle_cycle_identity(
    u_values=(1e-2, 5e-3, 2.5e-3),
    g: float = 0.3,
    dim: int = 128,
    exponent_tol: float = 0.2,
) -> OracleReport:
    """The per-cycle product must deviate from -i P S(2r) D(beta) at second
    order in Delta_M/M_0: the fitted log-log slope of the deviation versus
    Delta_M/M_0 must be 2.0 +/- 0.2. details["ablation_exponent"] is the
    slope against the bare -i P S(2r), which drops the displacement factor;
    it degrades to about 1, which shows that the factor is needed."""
    devs, bare = _cycle_deviations(u_values, g, dim)
    exponent = _fit_exponent(u_values, devs)
    return _report(
        "cycle_identity",
        {"u_values": u_values, "g": g, "dim": dim},
        {"exponent": abs(exponent - 2.0) / exponent_tol},
        {"exponent": exponent, "ablation_exponent": _fit_exponent(u_values, bare),
         "deviations": devs},
    )


ORACLES = {
    "fock_diagonal": oracle_fock_diagonal,
    "vacuum_visibility": oracle_vacuum_visibility,
    "minshift": oracle_minshift,
    "cycle_identity": oracle_cycle_identity,
}


def run_all() -> list[OracleReport]:
    """Run every registered oracle with default inputs, in name order."""
    return [ORACLES[name]() for name in sorted(ORACLES)]
