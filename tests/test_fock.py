import math

import numpy as np
import pytest

from trapmass import fock, model, ramsey, states
from trapmass.errors import (
    ConvergenceFailure,
    DimensionTooSmall,
    NoConvergence,
    ParamMismatch,
)


def natural_params(**over):
    cfg = {"unit_system": "natural", "c": 2.0, "levels": [0.0, 2.0], "g": 0.7}
    cfg.update(over)
    return model.build_system(cfg)


def test_commutator_on_interior():
    ws = fock.build_workspace(natural_params(), 64)
    comm = ws.a @ ws.adag - ws.adag @ ws.a
    m = fock.interior(64)
    assert np.allclose(comm[:m, :m], np.eye(64)[:m, :m], atol=1e-12)
    # The last diagonal element is corrupted by hard truncation.
    assert abs(comm[-1, -1] - 1.0) > 1.0
    assert np.array_equal(ws.n, np.diag(np.arange(64.0)))


def test_dimension_too_small():
    with pytest.raises(DimensionTooSmall):
        fock.build_workspace(natural_params(), 1)


def test_mode_matrix_routes_agree():
    # Bogoliubov route vs direct (x, p) construction, gravity on.
    p = natural_params()
    ws = fock.build_workspace(p, 96)
    f1 = model.derive_mode_frame(p, 1)
    m = fock.interior(96)
    bog = fock.mode_matrix(ws, f1)
    direct = fock.mode_matrix_direct(ws, f1)
    assert np.max(np.abs((bog - direct)[:m, :m])) < 1e-10
    f0 = model.derive_mode_frame(p, 0)
    assert np.max(np.abs((fock.mode_matrix(ws, f0) - ws.a)[:m, :m])) < 1e-12


def test_frame_param_mismatch():
    p1 = natural_params()
    p2 = natural_params(levels=[0.0, 3.0])
    ws = fock.build_workspace(p1, 32)
    with pytest.raises(ParamMismatch):
        fock.mode_matrix(ws, model.derive_mode_frame(p2, 1))


def test_hamiltonian_spectrum():
    p = natural_params()
    ws = fock.build_workspace(p, 256)
    for i in (0, 1):
        frame = model.derive_mode_frame(p, i)
        H, offset = fock.hamiltonian_matrix(ws, frame)
        evals = np.linalg.eigvalsh(H)
        n = np.arange(40)
        expected = p.hbar * frame.omega_i * (n + 0.5)
        assert np.max(np.abs(evals[:40] - expected)) < 1e-9
        assert offset == frame.offset_i


def test_propagator_unitary_and_scalar_phase():
    p = natural_params()
    ws = fock.build_workspace(p, 64)
    frame = model.derive_mode_frame(p, 1)
    prop = fock.propagate(ws, frame, 0.37)
    assert np.allclose(prop.U @ prop.U.conj().T, np.eye(64), atol=1e-12)
    assert abs(prop.scalar_phase) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ConvergenceFailure):
        fock.propagate(ws, frame, float("nan"))


def test_squeeze_displace_known_values():
    p = natural_params(g=0.0)
    ws = fock.build_workspace(p, 128)
    r = 0.4
    S = fock.squeeze_matrix(ws, r)
    assert abs(S[0, 0]) == pytest.approx(1.0 / math.sqrt(math.cosh(r)), rel=1e-12)
    alpha = 0.8 + 0.3j
    D = fock.displace_matrix(ws, alpha)
    expected = states.coherent_state(128, alpha).data
    got = D[:, 0]
    # Global phase is fixed: D(alpha)|0> = |alpha> exactly.
    assert np.max(np.abs(got - expected)) < 1e-12
    assert np.allclose(D @ D.conj().T, np.eye(128), atol=1e-10)


def test_parity_matrix():
    P = fock.parity_matrix(5)
    assert np.allclose(np.diag(P), [1, -1, 1, -1, 1])


def test_dim_schedule():
    assert fock.dim_schedule(512) == [64, 128, 256, 512]
    assert fock.dim_schedule(300) == [64, 128, 256]
    assert fock.dim_schedule(512, min_dim=100) == [128, 256, 512]
    assert fock.dim_schedule(512, min_dim=128) == [128, 256, 512]
    assert fock.dim_schedule(512, min_dim=600) == []


def test_converge_dim():
    calls = []

    def request(d):
        calls.append(d)
        return 1.0 + 2.0 ** -d  # converges fast

    assert fock.converge_dim(request, 1e-8) == 128
    assert calls == [64, 128]
    assert fock.converge_dim(request, 1e-8, min_dim=65) == 256
    assert calls[2:] == [128, 256]
    assert fock.converge_dim(lambda d: 1.0, math.inf) == 64
    with pytest.raises(NoConvergence):
        fock.converge_dim(lambda d: float(d), 1e-8, dim_max=256)
    with pytest.raises(NoConvergence):
        fock.converge_dim(request, 1e-8, dim_max=256, min_dim=512)


def test_vacuum_trace_converges_by_256():
    # Mass jump of 50% at x0 = 0: the doubling schedule settles at or
    # below dim 256 with tol 1e-8.
    p = model.build_system(
        {"unit_system": "natural", "c": math.sqrt(2.0), "levels": [0.0, 1.0], "g": 0.0}
    )
    assert (p.mass(1) - p.M0) / p.M0 == pytest.approx(0.5, rel=1e-12)
    trace = ramsey.ramsey_trace(
        p, states.fock_state(64, 0), [2.0], x0=0.0, dim_tol=1e-8
    )
    assert trace.dim <= 256


def test_all_frames():
    p = natural_params(levels=[0.0, 1.0, 2.5])
    frames = fock.all_frames(p)
    assert [f.level for f in frames] == [0, 1, 2]
