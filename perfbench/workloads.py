"""Seeded job lists for the three benchmark workloads.

A job is a plain dict ``{"name", "experiment", "config"}`` whose config is
exactly what ``trapmass <experiment> --config`` reads. Every random draw
comes from ``random.Random(seed)``, so one seed always gives the same list.

Draws are stratified: each job is drawn from a narrow box of parameters
whose cost class (converged dim, Q-grid rounds, row count) is the same for
every point in the box. The inputs change with the seed but the amount of
work does not, so runs on different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("ramsey_converge", "mixed_fixed_dim", "clock_sweep")

# Natural units with c = 10: S = sqrt(M0/M1) fixes E1 = c^2 (1/S^2 - 1).
_C_NATURAL = 10.0

# ramsey_converge strata: (state kind, Fock n choices or alpha range,
# S range, x0 range), each followed by the dim the truncation converges to
# on that box. The boxes keep clear of the dim thresholds mapped at S in
# {0.5, 0.55, 0.6, 0.7, 0.99} and x0 in steps of 0.5.
_CONVERGE_STRATA = (
    ("fock", (0,), (0.6, 0.99), (0.0, 1.0)),             # 128
    ("fock", (1, 2), (0.6, 0.99), (0.0, 1.0)),           # 128
    ("coherent", (0.0, 1.5), (0.7, 0.99), (0.0, 1.0)),   # 128
    ("fock", (0,), (0.7, 0.99), (4.2, 5.3)),             # 256
    ("fock", (2, 3), (0.7, 0.99), (3.8, 4.3)),           # 256
    ("fock", (0,), (0.7, 0.99), (6.3, 8.5)),             # 512
    ("coherent", (0.0, 1.5), (0.7, 0.99), (6.2, 7.3)),   # 512
    ("fock", (2, 3), (0.7, 0.99), (6.3, 7.7)),           # 512
    ("fock", (0,), (0.6, 0.7), (6.2, 7.8)),              # 512
    ("fock", (0,), (0.5, 0.54), (7.8, 9.0)),             # 1024
)


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _natural_system(S: float, c: float = _C_NATURAL, g: float = 0.0) -> dict:
    return {"unit_system": "natural", "c": c,
            "levels": [0.0, round(c * c * (1.0 / S**2 - 1.0), 9)], "g": g}


def _job(name: str, experiment: str, system: dict, params: dict) -> dict:
    return {
        "name": name,
        "experiment": experiment,
        "config": {"experiment": experiment, "system": system,
                   "output": {"path": name}, "params": params},
    }


def _state(rng: random.Random, kind: str, spec: tuple, dim: int) -> dict:
    if kind == "fock":
        return {"type": "fock", "n": rng.choice(spec), "dim": dim}
    return {"type": "coherent", "alpha": _u(rng, *spec), "dim": dim}


def _ramsey_converge(rng: random.Random, tiny: bool) -> list[dict]:
    strata = _CONVERGE_STRATA[:3] if tiny else _CONVERGE_STRATA
    jobs = []
    for i, (kind, spec, s_range, x_range) in enumerate(strata):
        params = {
            "state": _state(rng, kind, spec, 64),
            "x0": _u(rng, *x_range),
            "periods": 2.0,
            "points": 200 if tiny else 2000,
        }
        jobs.append(_job(f"converge{i:02d}", "ramsey",
                         _natural_system(_u(rng, *s_range)), params))
    return jobs


def _mixed_fixed_dim(rng: random.Random, tiny: bool) -> list[dict]:
    jobs = []
    # Vacuum and small coherent states under a weak squeeze keep the Q grid
    # at two rounds (half-width 4 -> 6) for every draw.
    q_state = ({"type": "fock", "n": 0, "dim": 128} if rng.random() < 0.5
               else {"type": "coherent", "alpha": _u(rng, 0.0, 0.5), "dim": 128})
    p0 = _u(rng, 0.2, 0.8)
    jobs.append(_job("qfunc00", "qfunc", _natural_system(_u(rng, 0.85, 0.99)), {
        "state": q_state, "distribution": [p0, round(1.0 - p0, 6)],
        "t": _u(rng, 0.5, 2.0), "delta": 0.25 if tiny else 0.1, "dim": 128,
    }))
    ramsey_dim = 128 if tiny else 512
    for i in range(1 if tiny else 3):
        jobs.append(_job(f"thermal{i:02d}", "ramsey",
                         _natural_system(_u(rng, 0.6, 0.99)), {
            "state": {"type": "thermal", "nbar": _u(rng, 0.5, 5.0),
                      "dim": ramsey_dim},
            "x0": _u(rng, 0.0, 3.0), "periods": 2.0,
            "points": 200 if tiny else 2000, "dim": ramsey_dim,
        }))
    # (state, dim, N range): vacuum and real coherent drives at both sizes,
    # each shorter than the Q-grid job, which stays the slowest job.
    drives = ((("vacuum", 64, (40, 60)),) if tiny else
              (("vacuum", 256, (900, 1100)), ("coherent", 384, (900, 1100))))
    for i, (kind, dim, n_range) in enumerate(drives):
        state = ({"type": "fock", "n": 0, "dim": dim} if kind == "vacuum"
                 else {"type": "coherent", "alpha": _u(rng, 0.5, 1.5), "dim": dim})
        system = {"unit_system": "natural", "c": _u(rng, 30.0, 40.0),
                  "levels": [0.0, _u(rng, 0.5, 2.0)], "g": _u(rng, 0.0, 0.5)}
        jobs.append(_job(f"drive{i:02d}", "drive", system, {
            "state": state, "N": rng.randint(*n_range), "dim": dim,
        }))
    return jobs


def _si_system(rng: random.Random) -> dict:
    return {"unit_system": "si",
            "M0": float(f"{rng.uniform(1e-26, 3e-25):.6g}"),
            "omega0": float(f"{10 ** rng.uniform(5.0, 6.5):.6g}"),
            "levels": [0.0, float(f"{rng.uniform(1e-19, 5e-19):.6g}")],
            "g": 9.81}


def _clock_sweep(rng: random.Random, tiny: bool) -> list[dict]:
    points = 40 if tiny else 5000
    jobs = []
    for i in range(1 if tiny else 2):
        lo = 10 ** _u(rng, 1.5, 2.5)
        jobs.append(_job(f"shift{i:02d}", "shift", _si_system(rng), {
            "omega0_grid": {"min": round(lo, 6), "max": round(lo * 1e5, 6),
                            "points": points, "log": True},
            "n_values": sorted(rng.sample(range(0, 50), 3)),
            "temperature": float(f"{10 ** rng.uniform(-5.0, -3.0):.6g}"),
        }))
    for i in range(1 if tiny else 2):
        lo = _u(rng, 1.5, 2.5)
        omegas = [float(f"{10 ** (lo + 5.0 * j / (points - 1)):.9g}")
                  for j in range(points)]
        jobs.append(_job(f"fshift{i:02d}", "sweep", _si_system(rng), {
            "op": "fractional_shift",
            "axes": {"omega0": omegas, "n": sorted(rng.sample(range(0, 50), 3))},
        }))
    for i in range(1 if tiny else 2):
        x_max = _u(rng, 1.0, 3.0)
        n_x = 20 if tiny else 300
        jobs.append(_job(f"extrema{i:02d}", "sweep",
                         _natural_system(_u(rng, 0.5, 0.99)), {
            "op": "visibility_extrema",
            "axes": {"x0": [round(x_max * j / (n_x - 1), 9) for j in range(n_x)]},
        }))
    return jobs


_GENERATORS = {
    "ramsey_converge": _ramsey_converge,
    "mixed_fixed_dim": _mixed_fixed_dim,
    "clock_sweep": _clock_sweep,
}

# Each experiment's default config is probed in exactly one workload, so a
# defect in one experiment's defaults is counted once. `sweep` has no
# default op, so its probes name the op and nothing else.
_PROBES = {
    "ramsey_converge": (("ramsey", {}),),
    "mixed_fixed_dim": (("qfunc", {}), ("drive", {})),
    "clock_sweep": (("shift", {}), ("sweep", {"op": "fractional_shift"}),
                    ("sweep", {"op": "visibility_extrema"})),
}

# Known defects in the outputs of timed jobs: the first matching job is
# rerun once as a probe with the check (see checks.check) that exposes it.
_DEFECT_PROBES = {
    # The CLI's coherent-state reference is the vacuum formula at a shifted
    # x0, which ignores that U_0 moves |alpha>.
    "ramsey_converge": (("cli_oracle", lambda job: job["experiment"] == "ramsey"
                         and job["config"]["params"]["state"]["type"] == "coherent"),),
    # clock.energy_gap loses digits forming M_1 - M_0 from rounded masses.
    "clock_sweep": (("shift_precision", lambda job: job["experiment"] == "shift"),),
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The timed jobs of `workload` for `seed`; `tiny` shrinks every size."""
    return _GENERATORS[workload](random.Random(seed), tiny)


def warmup_job(workload: str, seed: int) -> dict:
    """An untimed job that touches the workload's first code path once."""
    job = generate(workload, seed, tiny=True)[0]
    return _job("warmup", job["experiment"], job["config"]["system"],
                job["config"]["params"])


def probe_jobs(workload: str, jobs: list[dict]) -> list[dict]:
    """Untimed probes, counted in ok_frac (and fail_frac) but not in `failed`.

    Default-config probes run each experiment on the system of the first
    job of that experiment and must only exit 0; defect probes are listed
    in _DEFECT_PROBES.
    """
    probes = []
    for i, (experiment, params) in enumerate(_PROBES[workload]):
        system = next(j["config"]["system"] for j in jobs
                      if j["experiment"] == experiment)
        probes.append({**_job(f"probe{i:02d}_{experiment}", experiment, system,
                              dict(params)), "check": "exit"})
    for check, matches in _DEFECT_PROBES.get(workload, ()):
        job = next(j for j in jobs if matches(j))
        probes.append({**_job(f"probe_{check}", job["experiment"], job["config"]["system"],
                              job["config"]["params"]), "check": check})
    return probes


def digest(jobs: list[dict]) -> str:
    """sha256 of the canonical JSON of a job list."""
    return hashlib.sha256(
        json.dumps(jobs, sort_keys=True).encode()
    ).hexdigest()
