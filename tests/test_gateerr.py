"""Unit tests for the gate-error model and measurement-budget solver."""

import math

import numpy as np
import pytest

from entmap.gateerr import (
    GATE_ISING_CNOT,
    GATE_SQRTSWAP,
    budget_curve,
    effective_error,
    heisenberg_sqrtswap_perr,
    ising_cnot_perr,
    ising_cnot_pulse,
    measurements_for_threshold,
    resolution_epsilon,
    sqrtswap_pulse,
)


def random_unitary(rng):
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_effective_error_of_identical_gates_is_zero():
    u = ising_cnot_pulse(0.7)
    assert abs(effective_error(u, u)) < 1e-12


def test_effective_error_global_phase_invariance():
    rng = np.random.default_rng(61)
    u = random_unitary(rng)
    v = np.exp(1j * 0.83) * u
    assert effective_error(v, u) == pytest.approx(0.0, abs=1e-12)


def test_effective_error_basis_invariance():
    rng = np.random.default_rng(62)
    u = random_unitary(rng)
    u_im = random_unitary(rng)
    v = random_unitary(rng)
    direct = effective_error(u_im, u)
    conjugated = effective_error(v @ u_im @ v.conj().T, v @ u @ v.conj().T)
    assert conjugated == pytest.approx(direct, abs=1e-12)


def test_effective_error_rejects_non_unitary():
    with pytest.raises(ValueError):
        effective_error(np.eye(4) * 1.2, np.eye(4))
    with pytest.raises(ValueError, match="not unitary"):
        effective_error(np.eye(4), np.eye(4) * 1.5)


def test_ising_trace_formula_matches_closed_form():
    j = 0.7
    u = ising_cnot_pulse(j)
    for eps in (1e-3, 1e-2, 1e-1):
        u_im = ising_cnot_pulse(j, time_scale=1.0 + eps)
        assert effective_error(u_im, u) == pytest.approx(
            ising_cnot_perr(eps), abs=1e-12
        )


def test_sqrtswap_trace_formula_matches_closed_form():
    d = 0.9
    u = sqrtswap_pulse(d)
    for eps in (1e-3, 1e-2, 1e-1):
        u_im = sqrtswap_pulse(d, time_scale=1.0 + eps)
        assert effective_error(u_im, u) == pytest.approx(
            heisenberg_sqrtswap_perr(eps), abs=1e-12
        )


def test_closed_forms_independent_of_coupling_strength():
    eps = 0.02
    values = [
        effective_error(ising_cnot_pulse(j, 1.0 + eps), ising_cnot_pulse(j))
        for j in (0.2, 1.0, 3.7)
    ]
    np.testing.assert_allclose(values, values[0], atol=1e-13)


def test_closed_form_reference_points():
    assert ising_cnot_perr(0.0) == 0.0
    assert heisenberg_sqrtswap_perr(0.0) == 0.0
    assert ising_cnot_perr(0.01) == pytest.approx(6.1685e-5, abs=2e-9)
    assert heisenberg_sqrtswap_perr(0.01) == pytest.approx(4.6264e-5, abs=2e-9)
    assert ising_cnot_perr(0.012732) == pytest.approx(1e-4, rel=1e-2)
    for eps in (0.001, 0.05, 0.3):
        assert heisenberg_sqrtswap_perr(eps) == pytest.approx(
            0.75 * ising_cnot_perr(eps), rel=1e-14
        )


def test_pulses_are_unitary():
    for u in (ising_cnot_pulse(0.7), ising_cnot_pulse(0.7, 1.1), sqrtswap_pulse(1.3), sqrtswap_pulse(1.3, 0.9)):
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_pulse_validation():
    with pytest.raises(ValueError):
        ising_cnot_pulse(0.0)
    with pytest.raises(ValueError):
        sqrtswap_pulse(-1.0)


def test_resolution_epsilon_reference():
    assert resolution_epsilon(200, 10) == pytest.approx(6.3246e-3, abs=1e-7)
    assert resolution_epsilon(10, 4990) == pytest.approx(4.0 / (10 * math.sqrt(4990)))
    with pytest.raises(ValueError):
        resolution_epsilon(3, 10)
    with pytest.raises(ValueError):
        resolution_epsilon(10, 0)


def test_budget_curve_monotone_and_accounted():
    ne_values = [1, 4, 16, 64, 256]
    curve = budget_curve(10, ne_values)
    p = [r.p_eff for r in curve]
    assert all(a >= b for a, b in zip(p, p[1:]))
    for r, ne in zip(curve, ne_values):
        assert r.total_measurements == 2 * 10 + 2 * ne
        assert r.epsilon == pytest.approx(resolution_epsilon(10, ne), rel=1e-15)
        assert r.gate == GATE_ISING_CNOT


def test_budget_curve_improves_with_more_time_points():
    ne = 64
    p10 = budget_curve(10, [ne])[0].p_eff
    p100 = budget_curve(100, [ne])[0].p_eff
    assert p100 < p10


def test_budget_curve_rejects_unknown_gate():
    with pytest.raises(ValueError):
        budget_curve(10, [4], gate="cz")


def test_threshold_solver_minimality():
    """The reported budget is feasible and one shot less is not, also where ne +/- 1 is below float resolution."""
    for p_target in (1e-3, 1e-4, 3e-5, 1e-18):
        for gate in (GATE_ISING_CNOT, GATE_SQRTSWAP):
            report = measurements_for_threshold(p_target, 10, gate=gate)
            assert report.p_eff <= p_target
            if report.ne > 1:
                eps_prev = resolution_epsilon(10, report.ne - 1)
                perr = ising_cnot_perr if gate == GATE_ISING_CNOT else heisenberg_sqrtswap_perr
                assert perr(eps_prev) > p_target
            assert report.total_measurements == 2 * 10 + 2 * report.ne


def test_threshold_solver_trivial_target():
    report = measurements_for_threshold(0.9, 10)
    assert report.ne == 1


def test_threshold_solver_quarters_budget_when_nt_doubles():
    """epsilon depends on nt*sqrt(ne), so doubling nt cuts ne by about four."""
    r10 = measurements_for_threshold(1e-4, 10)
    r20 = measurements_for_threshold(1e-4, 20)
    ratio = r10.ne / r20.ne
    assert 3.9 <= ratio <= 4.1


def test_threshold_solver_validation():
    with pytest.raises(ValueError):
        measurements_for_threshold(0.0, 10)
    with pytest.raises(ValueError):
        measurements_for_threshold(1e-4, 10, gate="cz")
    with pytest.raises(ValueError, match="needs more than ne"):
        measurements_for_threshold(1e-21, 10)
