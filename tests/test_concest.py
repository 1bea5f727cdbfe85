"""Unit tests for the squared-concurrence estimators and series assembly."""

import numpy as np
import pytest

from entmap.concest import (
    CHANNEL_FOR_INPUT,
    ConcurrenceSeries,
    build_series,
    concurrence_sq_from_probs,
    concurrence_sq_reduced,
    first_bad_point,
)
from entmap.measure import outcome_probs_batch, prepare_input
from entmap.qcore import (
    INPUT_IDS,
    PSI1,
    PSI2,
    PSI3,
    PSI4,
    HamiltonianParams,
    analytic_concurrence_sq,
    concurrence_sq_exact,
    evolve_batch,
)
from entmap.spectral import SamplingPlan

H_REF = HamiltonianParams(1.2, 0.6, 1.4)


def exact_tables(input_id, h, t):
    """Exact (4,) zz and xz outcome probabilities of one evolved input."""
    state = evolve_batch(h, prepare_input(input_id), [t])
    return outcome_probs_batch(state, "zz")[0], outcome_probs_batch(state, "xz")[0]


def channel_table(input_id, p_zz, p_xz):
    """The table of the channel the input is read out in."""
    return p_zz if CHANNEL_FOR_INPUT[input_id] == "zz" else p_xz


def draw(rng, p, shots):
    """Multinomial counts of one (4,) probability row."""
    return rng.multinomial(shots, p / p.sum())


def test_from_probs_product_state():
    p_zz = np.array([1.0, 0.0, 0.0, 0.0])
    p_xz = np.array([0.5, 0.0, 0.5, 0.0])
    assert concurrence_sq_from_probs(p_zz, p_xz) == pytest.approx(0.0, abs=1e-12)


def test_from_probs_maximally_entangled_zz():
    p_zz = np.array([0.0, 0.5, 0.5, 0.0])
    p_xz = np.full(4, 0.25)
    assert concurrence_sq_from_probs(p_zz, p_xz) == pytest.approx(1.0, abs=1e-12)


def test_from_probs_tracks_protocol_dynamics():
    """On exact tables the estimator reproduces the closed-form dynamics."""
    rng = np.random.default_rng(31)
    for _ in range(8):
        h = HamiltonianParams(*rng.uniform(-2, 2, size=3))
        for input_id in INPUT_IDS:
            for t in rng.uniform(0.05, 6.0, size=4):
                p_zz, p_xz = exact_tables(input_id, h, float(t))
                got = concurrence_sq_from_probs(p_zz, p_xz)
                want = analytic_concurrence_sq(input_id, h, float(t))
                assert got == pytest.approx(want, abs=1e-10)


def test_reduced_matches_full_on_exact_tables():
    """Row by row and on stacked (n, 4) tables, which give the same bits as single rows."""
    rng = np.random.default_rng(32)
    rows = {input_id: [] for input_id in INPUT_IDS}
    for _ in range(8):
        h = HamiltonianParams(*rng.uniform(-2, 2, size=3))
        for input_id in INPUT_IDS:
            t = float(rng.uniform(0.05, 6.0))
            p_zz, p_xz = exact_tables(input_id, h, t)
            full = concurrence_sq_from_probs(p_zz, p_xz)
            reduced = concurrence_sq_reduced(input_id, channel_table(input_id, p_zz, p_xz))
            assert reduced == pytest.approx(full, abs=1e-12)
            rows[input_id].append((p_zz, p_xz, full, reduced))
    for input_id, entries in rows.items():
        p_zz, p_xz, full, reduced = (np.array(column) for column in zip(*entries))
        np.testing.assert_array_equal(concurrence_sq_from_probs(p_zz, p_xz), full)
        np.testing.assert_array_equal(concurrence_sq_reduced(input_id, channel_table(input_id, p_zz, p_xz)), reduced)


def test_reduced_estimators_converge_to_exact():
    """Exact tables through the per-input shortcut equal the true concurrence."""
    rng = np.random.default_rng(33)
    for _ in range(8):
        h = HamiltonianParams(*rng.uniform(-2, 2, size=3))
        t = float(rng.uniform(0.05, 6.0))
        for input_id in INPUT_IDS:
            state = evolve_batch(h, prepare_input(input_id), [t])[0]
            p_zz, p_xz = exact_tables(input_id, h, t)
            got = concurrence_sq_reduced(input_id, channel_table(input_id, p_zz, p_xz))
            assert got == pytest.approx(concurrence_sq_exact(state), abs=1e-10)


def test_reduced_psi1_from_counts():
    assert concurrence_sq_reduced(PSI1, np.array([5, 0, 0, 5])) == pytest.approx(1.0)
    assert concurrence_sq_reduced(PSI1, np.array([10, 0, 0, 0])) == 0.0


def test_counts_normalise_to_empirical_probs():
    """Integer rows are counts, normalised row by row; a row without shots has no probabilities."""
    counts = np.array([[5, 0, 0, 5], [4, 0, 0, 6], [10, 0, 0, 0]])
    np.testing.assert_allclose(
        concurrence_sq_reduced(PSI1, counts), [1.0, 4.0 * 0.4 * 0.6, 0.0], atol=1e-15
    )
    with pytest.raises(ValueError, match="zero shots"):
        concurrence_sq_reduced(PSI1, np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="zero shots"):
        concurrence_sq_from_probs(np.array([[1, 0, 0, 0], [0, 0, 0, 0]]), np.array([[1, 0, 1, 0]] * 2))
    with pytest.raises(ValueError, match="shape"):
        concurrence_sq_reduced(PSI1, np.array([1, 0, 0]))


def test_reduced_rejects_unknown_input():
    with pytest.raises(ValueError, match="unknown input"):
        concurrence_sq_reduced("psi9", np.array([5, 0, 0, 5]))


def test_estimators_stay_in_range_on_noisy_counts():
    """Finite-shot fluctuations never push either estimator outside [0, 1]."""
    rng = np.random.default_rng(34)
    for trial in range(200):
        h = HamiltonianParams(*rng.uniform(-2, 2, size=3))
        input_id = INPUT_IDS[trial % 4]
        t = float(rng.uniform(0.05, 6.0))
        p_zz, p_xz = exact_tables(input_id, h, t)
        shots = int(rng.integers(1, 30))
        c_zz = draw(rng, p_zz, shots)
        c_xz = draw(rng, p_xz, shots)
        full = concurrence_sq_from_probs(c_zz, c_xz)
        reduced = concurrence_sq_reduced(input_id, channel_table(input_id, c_zz, c_xz))
        assert 0.0 <= full <= 1.0
        assert 0.0 <= reduced <= 1.0


def test_single_shot_psi1_estimates_are_zero():
    """One shot cannot populate both zz poles, so the product estimate is 0."""
    rng = np.random.default_rng(35)
    for t in np.linspace(0.2, 3.0, 10):
        p_zz, _ = exact_tables(PSI1, H_REF, float(t))
        counts = draw(rng, p_zz, 1)
        assert concurrence_sq_reduced(PSI1, counts) == 0.0


def test_single_shot_psi3_estimates_are_binary():
    rng = np.random.default_rng(36)
    seen = set()
    for t in np.linspace(0.2, 3.0, 20):
        p_zz, p_xz = exact_tables(PSI3, H_REF, float(t))
        c_zz = draw(rng, p_zz, 1)
        c_xz = draw(rng, p_xz, 1)
        value = concurrence_sq_reduced(PSI3, c_xz)
        seen.add(round(value, 12))
    assert seen <= {0.0, 1.0}


def test_channel_map_covers_all_inputs():
    assert set(CHANNEL_FOR_INPUT) == set(INPUT_IDS)
    assert CHANNEL_FOR_INPUT[PSI1] == "zz"
    assert CHANNEL_FOR_INPUT[PSI2] == "zz"
    assert CHANNEL_FOR_INPUT[PSI3] == "xz"
    assert CHANNEL_FOR_INPUT[PSI4] == "xz"


def flat_series(**overrides):
    fields = {
        "times": 0.5 * np.arange(1, 5),
        "values": np.zeros(4),
        "shots": np.zeros(4, dtype=int),
        "channel": "zz",
    }
    fields.update(overrides)
    return ConcurrenceSeries(**fields)


def test_concurrence_series_validation():
    with pytest.raises(ValueError):
        flat_series(times=0.5 * np.arange(0, 4))
    with pytest.raises(ValueError):
        flat_series(times=-0.5 * np.arange(1, 5))
    with pytest.raises(ValueError, match="bin width"):
        flat_series(times=1e-320 * np.arange(1, 5))
    with pytest.raises(ValueError):
        flat_series(values=np.array([0.0, 1.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        flat_series(values=np.array([0.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        flat_series(shots=np.array([1, -1, 1, 1]))
    with pytest.raises(ValueError):
        flat_series(shots=np.array([1.5, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        flat_series(channel="yy")
    with pytest.raises(ValueError):
        flat_series(counts=np.zeros((3, 4), dtype=int))


def test_concurrence_series_requires_uniform_grid():
    series = flat_series()
    assert len(series) == 4
    assert series.dt == 0.5
    np.testing.assert_allclose(series.times, [0.5, 1.0, 1.5, 2.0])

    with pytest.raises(ValueError):
        flat_series(times=np.array([0.5, 1.0, 1.7, 2.0]))
    with pytest.raises(ValueError):
        flat_series(times=0.5 * np.arange(1, 4), values=np.zeros(3), shots=np.zeros(3, dtype=int))


def test_first_bad_point_reports_the_first_point_and_its_first_broken_rule():
    times, values, shots = 0.5 * np.arange(1, 6), np.zeros(5), np.zeros(5, dtype=int)
    assert first_bad_point(times, values, shots) is None
    values[3], shots[2] = 1.5, -1
    assert first_bad_point(times, values, shots) == (2, "shot count must be nonnegative, got -1")
    times[2] = np.nan
    assert first_bad_point(times, values, shots) == (2, "time must be positive and finite, got nan")
    times[1] = 1.7
    assert first_bad_point(times, values, shots) == (1, "time 1.7 is off the uniform grid j*0.5")
    with pytest.raises(ValueError, match=r"point 2: time 1\.7 is off the uniform grid"):
        flat_series(times=np.array([0.5, 1.7, 1.5, 2.0]))


def test_build_series_noiseless_matches_closed_form():
    plan = SamplingPlan(nt=32, dt=0.3, strategy="uniform", ne=5)
    tables = np.array([exact_tables(PSI2, H_REF, float(t))[0] for t in plan.times()])
    series = build_series(PSI2, plan, tables)
    np.testing.assert_allclose(
        series.values, np.sin(3.6 * series.times) ** 2, atol=1e-10
    )
    assert np.all(series.shots == 0)
    assert series.channel == "zz"
    np.testing.assert_array_equal(series.counts, tables)


def test_build_series_records_shots():
    rng = np.random.default_rng(37)
    plan = SamplingPlan(nt=16, dt=0.3, strategy="uniform", ne=7)
    counts = np.array([draw(rng, exact_tables(PSI1, H_REF, float(t))[0], 7) for t in plan.times()])
    series = build_series(PSI1, plan, counts)
    assert np.all(series.shots == 7)
    assert np.all(series.values >= 0.0) and np.all(series.values <= 1.0)
    np.testing.assert_array_equal(series.counts, counts)


def test_build_series_rejects_incomplete_data():
    plan = SamplingPlan(nt=8, dt=0.3)
    tables = np.array([exact_tables(PSI1, H_REF, float(t))[0] for t in plan.times()])
    with pytest.raises(ValueError):
        build_series(PSI1, plan, tables[:-1])
    with pytest.raises(ValueError, match="shape"):
        build_series(PSI1, plan, tables[:, :3])
    with pytest.raises(ValueError):
        build_series("psi9", plan, tables)
