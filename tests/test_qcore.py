"""Unit tests for the exchange-coupling dynamics core."""

import warnings

import numpy as np
import pytest

from entmap.gateerr import effective_error
from entmap.measure import outcome_probs_batch, prepare_input
from entmap.qcore import (
    ALL_INPUTS,
    COMBINATION_MATRIX,
    COMBINATION_NULL,
    COMBINATION_PINV,
    INPUT_IDS,
    PAULI_Y,
    PSI1,
    PSI2,
    PSI3,
    PSI4,
    HamiltonianParams,
    analytic_concurrence_sq,
    bell_spectrum,
    combinations,
    concurrence_sq_exact,
    evolve_batch,
    imperfect_prep_concurrence_sq,
    negativity_sq,
    oracle_evolve,
    propagator,
    series_propagator,
)

H_REF = HamiltonianParams(1.2, 0.6, 1.4)


def random_hamiltonian(rng, scale=2.0):
    c1, c2, c3 = rng.uniform(-scale, scale, size=3)
    return HamiltonianParams(float(c1), float(c2), float(c3))


def random_state(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return amps / np.linalg.norm(amps)


def basis_state(index):
    amps = np.zeros(4, dtype=complex)
    amps[index] = 1.0
    return amps


def test_bell_spectrum_reference_values():
    spec = bell_spectrum(H_REF)
    np.testing.assert_allclose(spec, [2.0, 0.8, 0.4, -3.2], atol=1e-14)


def test_bell_spectrum_is_traceless():
    rng = np.random.default_rng(3)
    for _ in range(25):
        h = random_hamiltonian(rng)
        assert abs(bell_spectrum(h).sum()) < 1e-12


def test_hamiltonian_matrix_matches_spectrum():
    """The dense matrix and the Bell eigenvalues describe the same operator."""
    rng = np.random.default_rng(4)
    for _ in range(10):
        h = random_hamiltonian(rng)
        eigs = np.sort(np.linalg.eigvalsh(h.matrix()))
        np.testing.assert_allclose(eigs, np.sort(bell_spectrum(h)), atol=1e-12)


def test_hamiltonian_params_rejects_non_finite():
    with pytest.raises(ValueError):
        HamiltonianParams(np.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        HamiltonianParams(0.0, np.inf, 0.0)


def test_consumers_require_normalized_states():
    for state in (np.array([1.0, 1.0, 0.0, 0.0]), np.zeros(4)):
        with pytest.raises(ValueError, match="normalized"):
            evolve_batch(H_REF, state, [0.5])
        with pytest.raises(ValueError, match="normalized"):
            concurrence_sq_exact(state)
        with pytest.raises(ValueError, match="normalized"):
            negativity_sq(state)
        with pytest.raises(ValueError, match="normalized"):
            oracle_evolve(H_REF, state, 0.5)


def test_consumers_reject_nan_states():
    nan_state = np.array([np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        evolve_batch(H_REF, nan_state, [0.5])
    with pytest.raises(ValueError, match="finite"):
        concurrence_sq_exact(nan_state)
    with pytest.raises(ValueError, match="finite"):
        negativity_sq(nan_state)
    with pytest.raises(ValueError, match="finite"):
        oracle_evolve(H_REF, nan_state, 0.5)
    with pytest.raises(ValueError, match="finite"):
        outcome_probs_batch(nan_state, "zz")


def test_batched_concurrence_is_bit_identical_to_the_per_row_dot():
    """Stacked C^2 of evolved states equals abs(a @ (YY @ a))**2 row by row, clamped."""
    yy = np.kron(PAULI_Y, PAULI_Y)
    rng = np.random.default_rng(12)
    times = np.linspace(0.05, 40.0, 400)
    for _ in range(8):
        h = random_hamiltonian(rng)
        for input_id in ALL_INPUTS:
            for eta in (0.0, 0.05):
                states = evolve_batch(h, prepare_input(input_id, eta), times)
                want = [min(max(float(abs(a @ (yy @ a)) ** 2), 0.0), 1.0) for a in states]
                got = concurrence_sq_exact(states)
                assert got.shape == (times.size,)
                np.testing.assert_array_equal(got, want)
                assert concurrence_sq_exact(states[7]) == want[7]


def test_unitary_construction_rejects_non_unitary():
    # Unitaries are plain (4, 4) arrays; the unitarity check lives where they are consumed.
    u = propagator(H_REF, 0.3)
    assert effective_error(u, u) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="not unitary"):
        effective_error(np.eye(4) * 1.5, u)


def test_propagator_identity_at_t0():
    u = propagator(H_REF, 0.0)
    np.testing.assert_allclose(u, np.eye(4), atol=1e-14)


def test_propagator_is_unitary_and_composes():
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = random_hamiltonian(rng)
        t1, t2 = rng.uniform(-5, 5, size=2)
        u1, u2, u12 = (propagator(h, float(t)) for t in (t1, t2, t1 + t2))
        for u in (u1, u2, u12):
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(u12, u1 @ u2, atol=1e-12)


def test_evolve_psi1_closed_form():
    """|00> mixes only with |11>, at the rate set by c1 - c2."""
    w = 1.2 - 0.6
    for t in np.linspace(-4.0, 4.0, 17):
        got = evolve_batch(H_REF, basis_state(0), [float(t)])[0]
        phase = np.exp(-1j * 1.4 * t)
        want = phase * np.array([np.cos(w * t), 0.0, 0.0, -1j * np.sin(w * t)])
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_series_propagator_identity_at_t0():
    np.testing.assert_allclose(series_propagator(H_REF, 0.0), np.eye(4), atol=1e-15)


def test_series_propagator_stays_unitary_at_long_times():
    rng = np.random.default_rng(6)
    for _ in range(10):
        h = random_hamiltonian(rng, scale=5.0)
        t = float(rng.uniform(-80, 80))
        u = series_propagator(h, t)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)


def test_evolve_matches_series_oracle():
    """Bell-basis evolution against the power-series propagator."""
    rng = np.random.default_rng(7)
    for _ in range(30):
        h = random_hamiltonian(rng)
        psi0 = random_state(rng)
        t = float(rng.uniform(-50, 50))
        fast = evolve_batch(h, psi0, [t])[0]
        slow = oracle_evolve(h, psi0, t)
        np.testing.assert_allclose(fast, slow, atol=1e-9)


def test_concurrence_product_states_zero():
    assert concurrence_sq_exact(basis_state(0)) == 0.0
    assert concurrence_sq_exact(basis_state(1)) == 0.0
    plus_plus = np.full(4, 0.5)
    assert concurrence_sq_exact(plus_plus) < 1e-15


def test_concurrence_bell_state_is_one():
    bell = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert concurrence_sq_exact(bell) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_range_and_phase_invariance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        psi = random_state(rng)
        c2 = concurrence_sq_exact(psi)
        assert 0.0 <= c2 <= 1.0
        rotated = np.exp(1j * rng.uniform(0, 2 * np.pi)) * psi
        assert concurrence_sq_exact(rotated) == pytest.approx(c2, abs=1e-12)


def test_negativity_relation_for_pure_states():
    """For two-qubit pure states, 4 * negativity^2 equals the squared concurrence."""
    rng = np.random.default_rng(9)
    for _ in range(25):
        psi = random_state(rng)
        np.testing.assert_allclose(
            4.0 * negativity_sq(psi), concurrence_sq_exact(psi), atol=1e-10
        )


def test_combination_rows_reference_values():
    w = dict(zip(INPUT_IDS, combinations(H_REF)))
    assert w[PSI1] == pytest.approx(0.6)
    assert w[PSI2] == pytest.approx(1.8)
    assert w[PSI3] == pytest.approx(-0.8)
    assert w[PSI4] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        analytic_concurrence_sq("psi5", H_REF, 1.0)


def test_combination_pinv_inverts_the_map_exactly():
    np.testing.assert_array_equal(COMBINATION_PINV @ COMBINATION_MATRIX, np.eye(3))
    assert set(np.abs(COMBINATION_PINV).ravel()) == {0.0, 0.25, 0.5}


def test_combination_null_is_a_unit_left_null_vector():
    np.testing.assert_array_equal(COMBINATION_MATRIX.T @ COMBINATION_NULL, np.zeros(3))
    assert np.linalg.norm(COMBINATION_NULL) == 1.0


def test_analytic_concurrence_psi2_rate():
    t = np.linspace(0.0, 5.0, 101)
    np.testing.assert_allclose(
        analytic_concurrence_sq(PSI2, H_REF, t), np.sin(3.6 * t) ** 2, atol=1e-14
    )


def test_analytic_matches_exact_dynamics():
    """Evolved-state concurrence agrees with the closed form for every input."""
    rng = np.random.default_rng(10)
    for _ in range(20):
        h = random_hamiltonian(rng)
        for input_id in INPUT_IDS:
            for t in rng.uniform(0.0, 8.0, size=5):
                psi0 = _ideal_input(input_id)
                got = concurrence_sq_exact(evolve_batch(h, psi0, [float(t)])[0])
                want = analytic_concurrence_sq(input_id, h, float(t))
                assert got == pytest.approx(want, abs=1e-10)


def _ideal_input(input_id):
    table = {
        PSI1: [1.0, 0.0, 0.0, 0.0],
        PSI2: [0.0, 1.0, 0.0, 0.0],
        PSI3: [0.5, 0.5, 0.5, 0.5],
        PSI4: [0.5, -0.5, 0.5, -0.5],
    }
    return np.array(table[input_id], dtype=complex)


def test_imperfect_prep_reduces_to_ideal_at_eta_zero():
    t = np.linspace(0.1, 6.0, 50)
    np.testing.assert_array_equal(
        imperfect_prep_concurrence_sq(H_REF, 0.0, t),
        analytic_concurrence_sq(PSI1, H_REF, t),
    )


def test_imperfect_prep_first_order_error_scales_as_eta_sq():
    """The truncation error of the first-order curve shrinks quadratically."""
    rng = np.random.default_rng(11)
    t = np.linspace(0.05, 20.0, 400)
    for _ in range(5):
        h = random_hamiltonian(rng)
        worst = {}
        for eta in (0.02, 0.04):
            psi0 = prepare_input(PSI1, eta)
            exact = concurrence_sq_exact(evolve_batch(h, psi0, t))
            curve = imperfect_prep_concurrence_sq(h, eta, t)
            worst[eta] = float(np.abs(exact - curve).max())
        # doubling eta should roughly quadruple the truncation error
        assert worst[0.04] <= 6.0 * worst[0.02] + 1e-12
        assert worst[0.02] < 10.0 * 0.02**2


def test_imperfect_prep_rejects_bad_eta():
    with pytest.raises(ValueError):
        imperfect_prep_concurrence_sq(H_REF, -0.01, 1.0)
    with pytest.raises(ValueError):
        imperfect_prep_concurrence_sq(H_REF, 1.0, 1.0)


def test_evolve_rejects_non_finite_time():
    with pytest.raises(ValueError):
        evolve_batch(H_REF, basis_state(0), [np.nan])
    # A finite time whose phase E*t overflows is refused before any arithmetic, with no RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"every phase E\*t must be finite"):
            evolve_batch(H_REF, basis_state(0), [0.5, 1e308])


def test_evolve_keeps_unit_norm_at_long_times():
    """The output carries no check of its own: finite phases keep every row at unit norm."""
    rng = np.random.default_rng(34)
    times = np.concatenate([[0.0], np.logspace(-3, 250, 400)])
    for _ in range(10):
        h = random_hamiltonian(rng)
        psi0 = random_state(rng)
        psi0[rng.integers(4)] = 0.0
        out = evolve_batch(h, psi0 / np.linalg.norm(psi0), times)
        assert np.all(np.isfinite(out))
        assert np.abs((np.abs(out) ** 2).sum(axis=1) - 1.0).max() <= 1e-15
