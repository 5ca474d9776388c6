"""Closed-form oracles and small-parameter approximations.

The exact vacuum/coherent interference amplitude is evaluated from the
harmonic-oscillator propagator kernel (a Gaussian integral over the
initial and final ground-trap Gaussians). For the vacuum its modulus is

    V = sqrt(2S) * exp(-a0 x0^2 sin^2(th/2) / (sin^2(th/2) + S^2 cos^2(th/2)))
        / (4 S^2 + (1 - S^2)^2 sin^2(th))^(1/4),        th = omega_1 t,

and the phase is assembled with a continuous square-root branch so the
result is smooth through every revival. Every Gaussian unitary W in the
package is one tuple (P, Q, c1, c2, expo, root) of its Bogoliubov map,
Bargmann coefficients and vacuum amplitude (_bogoliubov: the Ramsey unitary
W = U_0b^dag U_1b, less the scalar-offset phase that ramsey applies).
_displaced gives the tuple of D(beta)^dag W D(beta), _trace_kernel
Tr(y^n W) and _diagonal <n|W|n>. So the trace of a displaced thermal
state D(alpha) rho_th D(alpha)^dag (the vacuum, coherent and thermal states
among them) is one value of Tr(y^n W) displaced by alpha
(gaussian_amplitude), a Fock trace its y^n coefficient (fock_diagonal),
and the drive's weights displaced squeeze diagonals (fock_weight).
_diagonal reads that coefficient from a Legendre-exponential series up to
n = _SERIES_MAX, whose phase keeps relative digits where it is an SI
~1e-9 rad, and from a circle sum above it, whose roundoff is absolute; both
are off by up to about n^2 eps near a revival (error bounds in _diagonal).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fock, model
from .errors import DimensionMismatch, NotNormalized, ParamMismatch, RegimeWarning
from .states import CMState

_SMALL_REGIME = 1e-3


def _check_separation(a0: float, x0) -> None:
    """ParamMismatch unless a0 x0^2, the scale of the core's exponents, is finite."""
    with np.errstate(over="ignore"):
        if not np.isfinite(a0 * np.square(x0)).all():
            raise ParamMismatch(f"a0 x0^2 must be finite, got x0 = {x0}")


@dataclass(frozen=True)
class VacuumAmplitudeParams:
    """Dimensionless inputs of the closed-form vacuum/coherent amplitude.

    r = ModeFrame.r_i, S = sqrt(M0/M1) = e^{2r}; a0 = M0 omega0 / hbar; x0 is
    the trap-center separation (x0=None in from_system: the gravitational-sag
    separation g/omega0^2; a0 x0^2 must be finite). ramsey applies the scalar phase.
    """

    r: float
    a0: float
    x0: float
    omega0: float
    omega1: float

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise ParamMismatch(f"r must be finite, got {self.r}")
        _check_separation(self.a0, self.x0)

    @property
    def S(self) -> float:
        return math.exp(2.0 * self.r)

    @classmethod
    def from_system(
        cls, params: model.SystemParams, level: int = 1, x0: float | None = None
    ) -> "VacuumAmplitudeParams":
        params._check_transition(level)
        frame = model.derive_mode_frame(params, level)
        vap = cls(
            r=frame.r_i,
            a0=params.M0 * params.omega0 / params.hbar,
            x0=float(params.g / params.omega0**2 if x0 is None else x0),
            omega0=params.omega0,
            omega1=frame.omega_i,
        )
        # Consistency probe: th = omega_1 t and phi (_bogoliubov) share one ratio.
        if not math.isclose(vap.S, vap.omega1 / vap.omega0, rel_tol=1e-12):
            raise ParamMismatch("mass and frequency ratios disagree")
        return vap


def _bogoliubov(vap: VacuumAmplitudeParams, t: np.ndarray):
    """(P, Q, c1, c2, expo, root) of the Ramsey unitary W = U_0b^dag U_1b at t:
    its Bogoliubov map W a W^dag = P a + Q a^dag + delta, the coefficients
    c1, c2 of its Bargmann kernel (_displaced) and
    <0|W|0> = exp(expo) / root. U_1b = exp(-i th (a_1^dag a_1 + 1/2)),
    th = omega_1 t, a_1 = cosh(r) a - sinh(r) a^dag + alpha_d, and U_0b^dag
    rotates a by e^{-i omega0 t}, so with phi = th - omega0 t = omega0 t expm1(2r),

        P = ref e^{i phi},  ref = 1 + 2 sinh^2 r sin th (sin th + i cos th),
        Q = -i sinh(2r) sin th e^{i omega0 t},
        delta = alpha_d (cosh r e^{i th} + sinh r e^{-i th} - e^r)
              = sqrt(a0/2) x0 (-2 sin^2(th/2) + i sin th / S).

    phi, ref - 1 and Q are formed from r, so no O(1) angle is subtracted and
    an SI-scale phase keeps its digits. Re ref >= 1, so
    root = sqrt|ref| e^{i (phi + arg ref) / 2} is continuous on principal branches.
    """
    theta = vap.omega1 * t
    sin_th, cos_th = np.sin(theta), np.cos(theta)
    phi = vap.omega0 * t * math.expm1(2.0 * vap.r)
    ref = 1.0 + 2.0 * math.sinh(vap.r) ** 2 * sin_th * (sin_th + 1j * cos_th)
    P = ref * np.exp(1j * phi)
    Q = -1j * math.sinh(2.0 * vap.r) * sin_th * np.exp(1j * vap.omega0 * t)
    S, sh, ch = vap.S, np.sin(0.5 * theta), np.cos(0.5 * theta)
    den = S**2 * ch**2 + sh**2
    # Regular everywhere: den >= min(1, S^2) > 0.
    expo = -vap.a0 * vap.x0**2 * (sh**2 + 1j * S * sh * ch) / den
    delta = vap.x0 * math.sqrt(0.5 * vap.a0) * (-2.0 * sh**2 + 1j * sin_th / S)
    root = np.sqrt(np.abs(ref)) * np.exp(0.5j * (phi + np.angle(ref)))
    return P, Q, -delta / P, np.conj(delta) - delta * np.conj(Q) / P, expo, root


def _displaced(unitary, beta: complex):
    """The tuple of D(beta)^dag W D(beta) from W's (P, Q, c1, c2, expo, root).
    W a W^dag = P a + Q a^dag + delta has the Bargmann kernel (Miatto &
    Quesada, Quantum 4, 366, 2020) <0|e^{z a} W e^{w a^dag}|0> = <0|W|0> exp(L),

        L = c1 z + c2 w + [z w - Q z^2 / 2 + conj(Q) w^2 / 2] / P,
        c1 = -delta / P,  c2 = conj(delta) - delta conj(Q) / P.

    D(beta) adds (P - 1) beta + Q conj(beta) to delta, and <beta|W|beta> is
    <0|W|0> exp(L - |beta|^2) at z = conj(beta), w = beta. So P, Q and root
    stay, expo gains L - |beta|^2 and, from the factors 1/P, Q/P and
    conj(Q)/P only (each of modulus <= 1, as |P|^2 - |Q|^2 = 1),

        c1' = c1 + beta / P - beta - (Q / P) conj(beta),
        c2' = c2 + conj(beta) / P - conj(beta) + (conj(Q) / P) beta.

    Exponents stay summed, so a large beta never forms 0 * inf. A beta or
    beta^2 that is not finite raises NotNormalized."""
    beta = complex(beta)
    if not cmath.isfinite(beta * beta):
        raise NotNormalized(f"displacement beta and beta^2 must be finite, got {beta}")
    P, Q, c1, c2, expo, root = unitary
    inv, q, qc = 1.0 / P, Q / P, np.conj(Q) / P
    bc, norm2 = beta.conjugate(), abs(beta) ** 2
    L = c1 * bc + c2 * beta + norm2 * inv - 0.5 * (q * bc * bc - qc * beta * beta)
    return (P, Q, c1 + beta * inv - beta - q * bc, c2 + bc * inv - bc + qc * beta,
            expo + L - norm2, root)


def _trace_kernel(P, Q, c1, c2, expo, root, y):
    """exp(expo) / root times G(y) / <0|W|0>, G(y) = Tr(y^n W) = sum_n y^n <n|W|n>
    for |y| < 1, of the Gaussian unitary W with W a W^dag = P a + Q a^dag + delta
    and Bargmann coefficients c1, c2 (_displaced); with
    <0|W|0> = exp(expo) / root it is G(y) itself. Exact; all arguments
    broadcast. The trace of y^n against the Bargmann kernel is one Gaussian
    integral (Miatto & Quesada, Quantum 4, 366, 2020): with a = 1 - y/P,
    u = y c1 and v = c2,

        G(y) = <0|W|0> exp([a u v + (conj(Q) u^2 - Q y^2 v^2) / 2P] / D) / sqrt(D),
        D = a^2 + y^2 |Q|^2 / P^2 = (1 - z1 y)(1 - z2 y),  z1,2 = (1 +- i|Q|)/P.

    |z1| = |z2| = 1 since |P|^2 - |Q|^2 = 1, so for |y| < 1 both factors of D
    have positive real part: sqrt(D) = sqrt(1 - z1 y) sqrt(1 - z2 y) on
    principal branches, with no branch to follow. The exponents are summed
    before the one exp.
    """
    a = 1.0 - y / P
    u = y * c1
    iq = 1j * np.abs(Q)
    f1, f2 = 1.0 - y * (1.0 + iq) / P, 1.0 - y * (1.0 - iq) / P
    E = (a * u * c2 + 0.5 / P * (np.conj(Q) * u * u - Q * y * y * c2 * c2)) / (f1 * f2)
    return np.exp(expo + E) / (root * np.sqrt(f1) * np.sqrt(f2))


def gaussian_amplitude(vap: VacuumAmplitudeParams, t, alpha: complex, nbar: float) -> np.ndarray:
    """Tr(rho W) of the displaced thermal state rho = D(alpha) rho_th D(alpha)^dag
    of the ground trap, rho_th of mean occupation nbar, for the Ramsey unitary
    W = U_0b^dag U_1b less the scalar-offset phase, exact. rho_th = (1 - q) q^n
    with q = nbar / (1 + nbar), so Tr(rho W) = (1 - q) G(q), G the
    _trace_kernel of D(alpha)^dag W D(alpha) (_displaced). nbar = 0 is the
    coherent state |alpha> (alpha = 0: the vacuum), G(0) = <0|W|0>.
    NotNormalized unless nbar is finite, >= 0 and gives q < 1 (above
    nbar ~ 1e16, q rounds to 1, where G has no value)."""
    if not (nbar >= 0.0 and nbar / (1.0 + nbar) < 1.0):
        raise NotNormalized(f"nbar must be finite, >= 0 and give q < 1, got {nbar}")
    q = nbar / (1.0 + nbar)
    unitary = _displaced(_bogoliubov(vap, np.asarray(t, dtype=float)), alpha)
    return (1.0 - q) * _trace_kernel(*unitary, q)


# Largest Fock index whose diagonal is read from the series (O(n^2) per
# time); above it the circle sum (O(n) per time, M ~ 8n kernel values) is
# faster. Measured with one BLAS thread, natural units, S 0.8, x0 4, both
# routes in blocks of _BLOCK, series against circle: at 2000 times 0.27
# against 1.4 s at n = 300, 2.0 against 3.2 s at n = 1000, 8.7 against
# 8.2 s at n = 1800; at 256 times 0.27 against 0.39 s at n = 1000 and 0.87
# against 0.57 s at n = 1800.
_SERIES_MAX = 1500
# Complex entries of _diagonal's working set per block of rows (times or
# cycles), so its memory does not grow with n: the series holds two
# (rows x (n + 1)) arrays, the circle about eight (rows x _CIRCLE_CHUNK)
# kernel temporaries.
_BLOCK = 2**15
_CIRCLE_CHUNK = 64


def _diagonal(unitary, n: int) -> np.ndarray:
    """<n|W|n> for each W of unitary = (P, Q, c1, c2, expo, root) as in
    _trace_kernel; n < 0 raises DimensionMismatch. n = 0 is exp(expo) / root.
    n > 0 (1-d arrays) is the y^n coefficient of G, in blocks of rows sized
    from _BLOCK: for n <= _SERIES_MAX from the series (_series_diagonal),
    absolute error about n^2 eps where |P| -> 1 (1.2e-13 at n = 40,
    1.8e-12 at n = 150 against 40-digit sums) and a few eps for n <= 3;
    above it from the circle sum (_circle_diagonal), absolute error about
    100 / (1 - rho) ulps (1e-14 at n <= 3) and again n^2 eps where
    |P| -> 1 (4e-11 at n = 1000). The circle's absolute roundoff is its
    known limit: an SI Fock phase of ~1e-9 rad keeps its digits on the
    series only."""
    if n < 0:
        raise DimensionMismatch(f"Fock index {n} is negative")
    if n == 0:
        return np.exp(unitary[4]) / unitary[5]
    series = n <= _SERIES_MAX
    rows = max(1, _BLOCK // (2 * (n + 1) if series else 8 * _CIRCLE_CHUNK))
    out = np.empty(unitary[0].size, dtype=complex)
    for lo in range(0, out.size, rows):
        block = tuple(x[lo : lo + rows] for x in unitary)
        out[lo : lo + rows] = (_series_diagonal if series else _circle_diagonal)(block, n)
    return out


def _series_diagonal(unitary, n: int) -> np.ndarray:
    """<n|W|n>, n >= 1, from the power series of G, with no circle. With
    psi = arg P, kappa = 1 / |P| <= 1 and y = e^{i psi} s, the identity
    |P|^2 - |Q|^2 = 1 makes _trace_kernel's D = 1 - 2 kappa s + s^2, and

        <n|W|n> = exp(expo) / root e^{-i n psi} [s^n] exp(N / D) / sqrt(D),
        N = n1 s + n2 s^2,  n1 = e^{i psi} c1 c2,
        n2 = -kappa n1 + e^{2 i psi} (conj(Q) c1^2 - Q c2^2) / 2P.

    N / D = sum_k a_k s^k with a_0 = -n2, a_1 = n1 and
    a_k = 2 kappa a_{k-1} - a_{k-2}; 1 / sqrt(D) = sum_j P_j(kappa) s^j
    (Legendre) is exp(sum_k T_k(kappa) s^k / k) (Chebyshev, the same
    recurrence), so the bracket is the s^n coefficient e_n of exp(sum_k b_k
    s^k), k b_k = k a_k + T_k: e_0 = 1, m e_m = sum_{k=1..m} k b_k e_{m-k}.
    At x0 = 0, c1 = c2 = 0 and e_n = P_n(kappa) is real, so the phase is
    that of psi and root, which _bogoliubov forms from r.

    |e_m| <= g max_{j<m} |e_j|, g the largest |k b_k|, so a row rescaled to
    max |e_j| <= 1 cannot pass e^700 within the next 700 / log(2 + g) steps.
    At each such step a row whose new e_j exceed 1 is divided by a power of
    two, counted in its exponent, so an underflowing exp(expo) meets no
    overflowing e_n: at S 0.9, x0 40, omega_1 t = pi and n = 800,
    exp(expo) = e^-1600 and <n|W|n> = 0.032."""
    P, Q, c1, c2, expo, root = unitary
    absP = np.abs(P)
    kappa = np.minimum(1.0 / absP, 1.0)  # 1/|P| rounds above 1 near a revival
    rot = P / absP
    n1 = rot * c1 * c2
    a_prev = kappa * n1 - rot * rot * (np.conj(Q) * c1 * c1 - Q * c2 * c2) / (2.0 * P)
    a, t_prev, t = n1, np.ones_like(kappa), kappa
    kb = np.empty((P.size, n + 1), dtype=complex)  # k b_k at column k
    kb[:, 1] = a + t
    for k in range(2, n + 1):
        a_prev, a = a, 2.0 * kappa * a - a_prev
        t_prev, t = t, 2.0 * kappa * t - t_prev
        kb[:, k] = k * a + t
    growth = float(np.abs(kb).max())
    every = max(1, int(700.0 / math.log(2.0 + growth))) if growth < math.inf else 1
    # e_m at column n - m, so that both factors of each sum are ascending.
    e = np.zeros((P.size, n + 1), dtype=complex)
    e[:, n] = 1.0
    kb3, e3 = kb[:, None, :], e[:, :, None]
    scale = np.zeros(P.size)
    for m in range(1, n + 1):
        np.divide(np.matmul(kb3[..., 1 : m + 1], e3[:, n - m + 1 :])[:, 0, 0], m,
                  out=e[:, n - m])
        if m % every == 0 or m == n:
            big = np.abs(e[:, n - m : n - m + every]).max(axis=1)
            shift = np.where(big > 1.0, np.frexp(big)[1], 0)
            if shift.any():
                e[:, n - m :] *= np.ldexp(1.0, -shift)[:, None]
                scale += shift
    return e[:, 0] * np.exp(expo + scale * math.log(2.0) - 1j * n * np.angle(P)) / root


def _circle_diagonal(unitary, n: int) -> np.ndarray:
    """<n|W|n>, n >= 1, as a trapezoidal sum of G over M points of |y| = rho
    (radius as in Bornemann, Found. Comput. Math. 11, 1, 2011),
    w = e^{2 pi i / M}:

        <n|W|n> = (M rho^n)^-1 sum_k G(rho w^k) w^{-kn},
        rho = 100^{-1/n},  M = 2^ceil(log2(8 (n + 1))).

    Aliasing adds the coefficients n + jM (each of modulus <= 1) times
    rho^{jM}, and rho^M <= 1e-16; roundoff is about 100 / (1 - rho) ulps,
    absolute, so a phase far below 1e-14 rad (SI) is not resolved.
    """
    rho = 100.0 ** (-1.0 / n)
    M = 2 ** math.ceil(math.log2(8 * (n + 1)))
    columns = tuple(x[:, None] for x in unitary)
    out = np.zeros(unitary[0].size, dtype=complex)
    for lo in range(0, M, _CIRCLE_CHUNK):
        k = np.arange(lo, min(lo + _CIRCLE_CHUNK, M))
        y = rho * np.exp(2j * math.pi * k / M)
        weights = np.exp(-2j * math.pi * ((k * n) % M) / M) / (M * rho**n)
        out += _trace_kernel(*columns, y) @ weights
    return out


def fock_diagonal(vap: VacuumAmplitudeParams, t, n: int) -> np.ndarray:
    """<n|U_0b^dag U_1b|n> at 1-d t: the y^n coefficient of G(y) = Tr(y^n W)
    (_trace_kernel), by _diagonal."""
    return _diagonal(_bogoliubov(vap, np.asarray(t, dtype=float)), n)


def fock_weight(A, B, beta: complex, n: int) -> np.ndarray:
    """|<n|D(beta)^dag L D(beta)|n>|^2 for the Gaussian unitaries L with
    L^dag a L = A a + B a^dag, 1-d A and B (|A|^2 - |B|^2 = 1); exact, with no
    truncation. Examples: S(s) = exp(s (a^2 - adag^2)/2) is (cosh s, -sinh s).
    L a L^dag = conj(A) a - B a^dag, so up to a phase, which the weight does
    not see, L is the tuple (conj A, -B, 0, 0, 0, sqrt|A|), and _displaced
    conjugates it from factors bounded however large |A| and beta grow.
    Where A has overflowed (an accumulated squeeze past the double range)
    the weight, below 1/|A|, is 0.0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        L = _displaced((np.conj(A), -B, 0.0, 0.0, 0.0, np.sqrt(np.abs(A))), beta)
        return np.nan_to_num(np.abs(_diagonal(L, n)) ** 2, nan=0.0)


def coherent_visibility(
    params: model.SystemParams, x0: float | None, alpha: complex, t, level: int = 1
) -> np.ndarray:
    """Oracle: |<alpha| U_0^dag(t) U_1(t) |alpha>| for a coherent state of
    the ground trap, from the overlap of two phase-space Gaussians.

    Independent of the Fock-space and kernel routes. In units X = x sqrt(a0),
    P = p / sqrt(hbar M0 omega0), |alpha> has mean (sqrt(2) Re alpha,
    sqrt(2) Im alpha) and covariance I/2. U_0 rotates the mean at omega0;
    U_1 carries mean and covariance along the excited trap's classical flow
    (frequency omega_1, M_1 omega_1 / M0 omega0 = 1/S, center at -x0). Two
    pure Gaussians with covariance sum Sigma and mean difference d overlap
    with modulus det(Sigma)^(-1/4) exp(-d^T Sigma^-1 d / 4). alpha = 0
    reproduces closed_form_visibility.
    """
    vap = VacuumAmplitudeParams.from_system(params, level=level, x0=x0)
    t = np.asarray(t, dtype=float)
    m = 1.0 / vap.S
    c1, s1 = np.cos(vap.omega1 * t), np.sin(vap.omega1 * t)
    c0, s0 = np.cos(vap.omega0 * t), np.sin(vap.omega0 * t)
    alpha = complex(alpha)
    x_mean, p_mean = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
    X0 = vap.x0 * math.sqrt(vap.a0)
    x_rel = x_mean + X0                       # start, relative to the excited center
    dx = x_rel * c1 + p_mean * s1 / m - X0 - (x_mean * c0 + p_mean * s0)
    dp = -m * x_rel * s1 + p_mean * c1 - (p_mean * c0 - x_mean * s0)
    sxx = 0.5 + 0.5 * (c1**2 + (s1 / m) ** 2)
    sxp = 0.5 * c1 * s1 * (1.0 / m - m)
    spp = 0.5 + 0.5 * ((m * s1) ** 2 + c1**2)
    det = sxx * spp - sxp**2
    quad = (spp * dx**2 - 2.0 * sxp * dx * dp + sxx * dp**2) / det
    return np.exp(-0.25 * quad) / det**0.25


def closed_form_visibility(S: float, a0: float, x0: float, theta) -> np.ndarray:
    """|amplitude| as an explicit function of th = omega_1 t, with the
    removable singularities at th in 2*pi*Z already folded in."""
    theta = np.asarray(theta, dtype=float)
    sh2 = np.sin(0.5 * theta) ** 2
    ch2 = 1.0 - sh2
    expo = -a0 * x0**2 * sh2 / (sh2 + S**2 * ch2)
    pref = math.sqrt(2.0 * S) / (
        4.0 * S**2 + (1.0 - S**2) ** 2 * np.sin(theta) ** 2
    ) ** 0.25
    return pref * np.exp(expo)


def small_regime_min_visibility(S: float, a0: float, x0: float) -> float:
    """V(pi/2 omega_1) in the small-x0, small-S regime."""
    return math.exp(-a0 * x0**2 / (1.0 + S**2)) * math.sqrt(2.0 * S / (1.0 + S**2))


def visibility_extrema(params: model.SystemParams, x0=None, level: int = 1):
    """(t_min, V_min, t_rev, V_rev) of the closed-form visibility.

    t_rev = pi/omega_1 with V_rev = exp(-a0 x0^2) exactly. t_min is in closed
    form: with u = sin^2(th/2), k = 1 - S^2, A = a0 x0^2 and D = S^2 + k u
    (V's exponent is -A u / D), the quartic root's S^2 + k^2 u (1 - u) is
    D (1 - k u), so dV/du has the sign of -g(u), g = 4 A S^2 (1 - k u)
    + k^2 (1 - 2u) D: a downward parabola with g(0) > 0 and g(1/2) >= 0.
    V's one minimum is at its root u* = 1/2 + v, or at th -> pi where
    u* >= 1. Divided by 4 S^2, g(1/2 + v) = 0 is a v^2 + b v - c = 0 with
    a = k^3 / 2S^2, b = k (A + k/2 + k^2/4S^2) and c = A (1 + S^2)/2, so
    v = c / (b/2 + hypot(b, 2 sqrt(a c))/2): no cancellation, no overflow
    for a finite A, and v = 0 at x0 = 0. omega_1 t_min = arccos(-min(2v, 1)),
    at most (1 - 1e-9) pi so that t_min < t_rev. For an array x0 all four
    are arrays of its shape, found in one call; a0 x0^2 must be finite.
    """
    vap = VacuumAmplitudeParams.from_system(params, level=level)
    x0 = np.asarray(vap.x0 if x0 is None else x0, dtype=float)
    # A scalar runs as a 1-element array, so that an array call matches its
    # scalar calls bit for bit (numpy scalar arithmetic takes other paths).
    xs = np.atleast_1d(x0)
    _check_separation(vap.a0, xs)
    t_rev = math.pi / vap.omega1
    S2, k = vap.S**2, -math.expm1(4.0 * vap.r)
    A = vap.a0 * np.square(xs)
    b, c = k * (A + 0.5 * k + 0.25 * k * k / S2), A * (0.5 + 0.5 * S2)
    v = c / (0.5 * b + 0.5 * np.hypot(b, math.sqrt(2.0 * k**3 / S2) * np.sqrt(c)))
    theta = np.minimum(np.arccos(-np.minimum(2.0 * v, 1.0)), (1.0 - 1e-9) * math.pi)
    t_min = theta / vap.omega1
    v_min = closed_form_visibility(vap.S, vap.a0, xs, vap.omega1 * t_min)
    # x0^2 is a numpy scalar's **: it rounds as a float's but cannot raise.
    v_rev = np.reshape([math.exp(-vap.a0 * x**2) for x in xs.ravel()], xs.shape)
    if x0.ndim == 0:
        return float(t_min[0]), float(v_min[0]), t_rev, float(v_rev[0])
    return t_min, v_min, np.full(xs.shape, t_rev), v_rev


@dataclass(frozen=True)
class EffectiveShift:
    """Mean clock-frequency shift (rad/s) and its decomposition."""

    mean_shift: float
    A0_term: complex
    Ag_term: complex
    delta_omega: float


def moments_from_state(state: CMState) -> dict:
    """First and second ladder moments {<a>, <a^2>, <a^dag^2>, <n>}, each a
    sum over one band of the state (fock.ladder_moment); <a^dag^2> is
    conj(<a^2>) and <n> weighs the populations by n."""
    data = state.data
    populations = np.abs(data) ** 2 if state.is_pure else np.diagonal(data).real
    a2 = fock.ladder_moment(data, 2)
    return {
        "a": fock.ladder_moment(data, 1),
        "a2": a2,
        "adag2": a2.conjugate(),
        "n": float(np.arange(state.dim) @ populations),
    }


def effective_shift(
    params: model.SystemParams, moments: dict, t: float, level: int = 1
) -> EffectiveShift:
    """First-order mean frequency shift of the internal transition.

    mean_shift = -omega_c g^2/(omega0^2 c^2) + Delta_omega (<n>+1/2)
                 + Re[A0 + alpha_g omega_1 Ag]
    with the squeeze/displacement terms

      A0 = omega_1 sinh^2 r
           - (omega_1/2) sinh(2r) (<a^2>(1 - i t omega_0) + <a^dag2>(1 + i t omega_0)),
      Ag = e^{-r} (1 + i t omega_0/2) <a^dag> + e^{-r} (1 - i t omega_0/2) <a>
           + alpha_g.

    Valid to first order in r and alpha_g; a RegimeWarning is emitted
    outside that regime.
    """
    frame = model.derive_mode_frame(params, level)
    r, alpha_g = frame.r_i, frame.alpha_gi
    if abs(r) >= _SMALL_REGIME or abs(alpha_g) >= _SMALL_REGIME:
        warnings.warn(
            f"r={r:.3e}, alpha_g={alpha_g:.3e} outside the first-order regime",
            RegimeWarning,
        )
    w0, w1 = params.omega0, frame.omega_i
    a_mean = complex(moments["a"])
    a2 = complex(moments["a2"])
    adag2 = complex(moments["adag2"])
    n_mean = float(np.real(moments["n"]))

    delta_omega = w0 * frame.omega_shift_i
    A0 = w1 * math.sinh(r) ** 2 - 0.5 * w1 * math.sinh(2.0 * r) * (
        a2 * (1.0 - 1j * t * w0) + adag2 * (1.0 + 1j * t * w0)
    )
    Ag = (
        math.exp(-r) * (1.0 + 0.5j * t * w0) * np.conj(a_mean)
        + math.exp(-r) * (1.0 - 0.5j * t * w0) * a_mean
        + alpha_g
    )
    mean = (
        -params.omega_c(level) * params.g**2 / (w0**2 * params.c**2)
        + delta_omega * (n_mean + 0.5)
        + float(np.real(A0 + alpha_g * w1 * Ag))
    )
    return EffectiveShift(
        mean_shift=mean, A0_term=complex(A0), Ag_term=complex(Ag),
        delta_omega=delta_omega,
    )


@dataclass(frozen=True)
class ApproxVisibility:
    """Quadratic-order visibility for Fock-diagonal states.

    quadratic uses the full variance of (omega_1 n_1 - omega_0 n_0);
    thermal_form is the simplified squeezing-free expression
    1 - (omega_0 Dn0 t hbar omega_c / 2 M0 c^2)^2
      - (omega_1 alpha_g t)^2 (2 <n0> + 1).
    """

    quadratic: np.ndarray
    thermal_form: np.ndarray
    variance: float


def approx_visibility(
    params: model.SystemParams, populations, t, level: int = 1
) -> ApproxVisibility:
    """V = 1 - t^2 Var(omega_1 n_1 - omega_0 n_0)/2 for a state diagonal in
    the ground-mode Fock basis with the given populations."""
    p = np.asarray(populations, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise NotNormalized("populations must be a non-empty 1-d sequence")
    if np.any(p < -1e-12):
        raise NotNormalized("populations must be non-negative")
    if abs(p.sum() - 1.0) > 1e-10:
        raise NotNormalized(f"populations sum to {p.sum()!r}, expected 1")
    t = np.asarray(t, dtype=float)

    frame = model.derive_mode_frame(params, level)
    c, s = math.cosh(frame.r_i), math.sinh(frame.r_i)
    w1, alpha = frame.omega_i, frame.alpha_gi
    ns = np.arange(p.size)
    n = ns.astype(float)
    # Column n of O = omega_1 n_k - omega_0 n_0 (the bands of fock.mode_number):
    # its diagonal, w1 c s on offsets +-2 and w1 alpha (c - s) on offsets +-1,
    # so <n|O^2|n> is the sum of their squares.
    diag_O = w1 * (c * c * n + s * s * (n + 1.0) + alpha * alpha) - params.omega0 * n
    off2 = (w1 * c * s) ** 2 * ((n + 1.0) * (n + 2.0) + n * (n - 1.0))
    off1 = (w1 * alpha * (c - s)) ** 2 * (2.0 * n + 1.0)
    mean = float(p @ diag_O)
    var = float(p @ (diag_O**2 + off2 + off1)) - mean**2

    n_mean = float(p @ ns)
    dn = math.sqrt(max(float(p @ ns**2) - n_mean**2, 0.0))
    omega_c = params.omega_c(level)
    thermal = (
        1.0
        - (params.omega0 * dn * t * params.hbar * omega_c
           / (2.0 * params.M0 * params.c**2)) ** 2
        - (frame.omega_i * frame.alpha_gi * t) ** 2 * (2.0 * n_mean + 1.0)
    )
    return ApproxVisibility(
        quadratic=1.0 - 0.5 * t**2 * var,
        thermal_form=thermal,
        variance=var,
    )
