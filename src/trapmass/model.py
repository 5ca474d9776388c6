"""Physical parameters, unit handling and per-level derived quantities.

A particle with quantized internal energy in a harmonic trap behaves, for
each internal level i, as an oscillator with mass M_i = M0 + E_i/c^2,
frequency omega_i = sqrt(k/M_i) and a gravitationally shifted equilibrium.
The mode of level i is related to the ground-level mode by a Bogoliubov
(squeeze) transformation with parameter r_i and a real displacement
alpha_gi; those derived quantities live in ModeFrame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import constants
from .errors import (
    DegenerateLevels,
    LevelOutOfRange,
    MissingField,
    NonMonotoneLevels,
    NonPositiveMass,
    ParamMismatch,
)

UNIT_SI = "si"
UNIT_NATURAL = "natural"


@dataclass(frozen=True)
class SystemParams:
    """Validated system parameters. Immutable; safe to share between workers.

    In natural mode the stored numbers satisfy hbar = M0 = omega0 = 1 and c
    acts as a free dial setting Delta_M/M0 = E_i/c^2.
    """

    M0: float
    levels: tuple[float, ...]
    k: float
    g: float
    c: float
    hbar: float
    unit_system: str

    @property
    def omega0(self) -> float:
        return math.sqrt(self.k / self.M0)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def mass(self, i: int) -> float:
        self._check_level(i)
        return self.M0 + self.levels[i] / self.c**2

    def omega_c(self, i: int = 1) -> float:
        """Internal (optical) transition frequency E_i/hbar."""
        self._check_level(i)
        return self.levels[i] / self.hbar

    def _check_level(self, i: int) -> None:
        if not (0 <= i < len(self.levels)):
            raise LevelOutOfRange(i, len(self.levels))

    def _check_transition(self, i: int) -> None:
        """_check_level; level 0 has no transition from level 0 (DegenerateLevels)."""
        self._check_level(i)
        if self.levels[i] == 0.0:
            raise DegenerateLevels(f"levels {i} and 0 are degenerate; shift undefined")


@dataclass(frozen=True)
class ModeFrame:
    """Derived oscillator quantities for one internal level.

    Pure function of (SystemParams, level); repeated derivation is
    bit-identical.
    """

    level: int
    M_i: float
    delta_M: float
    omega_i: float
    r_i: float
    alpha_gi: float
    offset_i: float     # scalar energy M_i c^2 (1 - g^2 / 2 omega_i^2 c^2)
    x_shift_i: float    # relative sag g delta_M/k of mode i in the level-0 eigenmode basis

    @property
    def omega_shift_i(self) -> float:
        """omega_i / omega_0 - 1 = exp(2 r_i) - 1, formed without cancellation."""
        return math.expm1(2.0 * self.r_i)


def build_system(config: dict) -> SystemParams:
    """Validate a SystemConfig mapping and return SystemParams.

    Accepts either "k" or "omega0" for the trap, not both. SI fields default
    to the pinned constants table; natural mode rescales all inputs so that
    hbar = M0 = omega0 = 1.
    """
    if not isinstance(config, dict):
        raise MissingField("config")
    unit_system = str(config.get("unit_system", UNIT_SI)).lower()
    if unit_system not in (UNIT_SI, UNIT_NATURAL):
        raise ParamMismatch(f"unit_system must be {UNIT_SI!r} or {UNIT_NATURAL!r}, "
                            f"got {config['unit_system']!r}")

    if "levels" not in config:
        raise MissingField("levels")
    levels = [float(E) for E in config["levels"]]
    if not levels or levels[0] != 0.0 or not all(
        math.isfinite(b) and b > a for a, b in zip(levels, levels[1:])
    ):
        raise NonMonotoneLevels(levels)

    if unit_system == UNIT_SI:
        M0 = config.get("M0")
        if M0 is None:
            raise MissingField("M0")
        hbar = float(config.get("hbar", constants.HBAR))
        c = float(config.get("c", constants.C_LIGHT))
        g = float(config.get("g", constants.G_STANDARD))
    else:
        M0 = float(config.get("M0", 1.0))
        hbar = float(config.get("hbar", 1.0))
        if "c" not in config:
            raise MissingField("c")
        c = float(config["c"])
        g = float(config.get("g", 0.0))

    M0 = _positive("M0", M0)
    c = _positive("c", c)
    hbar = _positive("hbar", hbar)
    if not (math.isfinite(g) and g >= 0):
        raise NonPositiveMass("g", g)

    trap = {key: _positive(key, config[key]) for key in ("k", "omega0") if key in config}
    if len(trap) > 1:
        raise ParamMismatch("give either k or omega0 for the trap, not both")
    if "k" in trap:
        k = trap["k"]
    elif "omega0" in trap:
        k = M0 * trap["omega0"] ** 2
    elif unit_system == UNIT_NATURAL:
        k = M0 * hbar  # omega0 = 1 after rescaling below
    else:
        raise MissingField("k")
    _positive("k", k)

    params = SystemParams(
        M0=M0, levels=tuple(levels), k=k, g=g, c=c, hbar=hbar,
        unit_system=unit_system,
    )
    if unit_system == UNIT_NATURAL:
        params = to_natural(params)
    return params


def _positive(field: str, value) -> float:
    """float(value), or NonPositiveMass unless it is finite and > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise NonPositiveMass(field, value)
    return value


def to_natural(p: SystemParams) -> SystemParams:
    """Rescale so hbar = M0 = omega0 = 1, preserving all dimensionless ratios.

    Units: mass M0, energy hbar*omega0, length sqrt(hbar/M0 omega0),
    time 1/omega0. In particular E_i/c^2 (mass defect) is invariant.
    """
    w0 = p.omega0
    e_unit = p.hbar * w0
    return SystemParams(
        M0=1.0,
        levels=tuple(E / e_unit for E in p.levels),
        k=1.0,
        g=p.g * math.sqrt(p.M0 / (p.hbar * w0**3)),
        c=p.c * math.sqrt(p.M0 / (p.hbar * w0)),
        hbar=1.0,
        unit_system=UNIT_NATURAL,
    )


def derive_mode_frame(params: SystemParams, i: int) -> ModeFrame:
    """All per-level derived quantities, from the exact quarter-power formulas."""
    params._check_level(i)
    M_i = params.mass(i)
    delta_M = params.levels[i] / params.c**2
    omega_i = math.sqrt(params.k / M_i)
    # 2 cosh r = (M0/Mi)^(1/4) + (Mi/M0)^(1/4) and the sinh counterpart
    # combine to exp(r) = (M0/Mi)^(1/4) = (1 + delta_M/M0)^(-1/4); log1p
    # keeps the digits of delta_M/M0 that rounding M_i would drop.
    r_i = -0.25 * math.log1p(delta_M / params.M0)
    alpha_gi = params.g * delta_M / math.sqrt(2.0 * params.hbar * M_i * omega_i**3)
    offset_i = M_i * params.c**2 * (1.0 - params.g**2 / (2.0 * omega_i**2 * params.c**2))
    return ModeFrame(
        level=i,
        M_i=M_i,
        delta_M=delta_M,
        omega_i=omega_i,
        r_i=r_i,
        alpha_gi=alpha_gi,
        offset_i=offset_i,
        # g/omega_i^2 - g/omega_0^2 without cancellation: the basis is the
        # (gravity-sagged) level-0 eigenmode, so only relative sag enters.
        x_shift_i=params.g * delta_M / params.k,
    )


def offset_gap(params: SystemParams, i: int, j: int = 0) -> float:
    """offset_i - offset_j evaluated without catastrophic cancellation.

    offset_i = M_i c^2 - g^2 M_i^2 / 2k, so the difference reduces to
    E_i - E_j minus a small gravitational correction; the rest masses never
    enter, and the mass defect M_i - M_j is formed as (E_i - E_j)/c^2. This
    is the only scalar-phase combination interference traces depend on.
    """
    params._check_level(i)
    params._check_level(j)
    dE = params.levels[i] - params.levels[j]
    return dE - (params.g**2 / (2.0 * params.k)) * (dE / params.c**2) * (
        params.mass(i) + params.mass(j)
    )


def displacement_lowest_order(params: SystemParams, i: int) -> float:
    """Leading-order mode displacement g*dM / sqrt(2 hbar M0 omega0^3).

    Deviates from the exact alpha_gi by a relative O(dM/M0).
    """
    params._check_level(i)
    delta_M = params.levels[i] / params.c**2
    return params.g * delta_M / math.sqrt(2.0 * params.hbar * params.M0 * params.omega0**3)

