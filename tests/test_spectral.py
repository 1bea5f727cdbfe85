"""Unit tests for observation planning, DFT peaks, and the likelihood line fit."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entmap import spectral
from entmap.concest import ConcurrenceSeries
from entmap.qcore import INPUT_IDS, PSI1, PSI3, HamiltonianParams, combinations
from entmap.recon import default_plans, estimate_combination, simulate_series
from entmap.spectral import (
    NYQUIST_MARGIN,
    STRATEGIES,
    FrequencyEstimate,
    SamplingPlan,
    cosine_amplitudes,
    dft,
    find_peak,
    fit_line,
    plan_observation,
)

H_REF = HamiltonianParams(1.2, 0.6, 1.4)


def cosine_values(nt, dt, amplitude, omega, offset):
    return offset + amplitude * np.cos(omega * dt * np.arange(1, nt + 1))


def test_plan_observation_reference_step():
    plan = plan_observation(0.6, 200, 10)
    assert plan.dt == pytest.approx(math.pi / 3.0, rel=1e-15)
    assert plan.nt == 200
    assert plan.ne == 10
    assert plan.strategy == "uniform"


def test_plan_observation_keeps_margin_above_nyquist():
    """The sampling rate exceeds the fastest expected line by the fixed margin."""
    rng = np.random.default_rng(41)
    for _ in range(20):
        guess = float(rng.uniform(0.05, 5.0))
        plan = plan_observation(guess, 64, 3)
        line = 4.0 * guess
        nyquist = math.pi / plan.dt
        assert nyquist == pytest.approx(NYQUIST_MARGIN * line, rel=1e-12)


def test_plan_observation_endpoint_budget():
    plan = plan_observation(0.6, 100, 40, "endpoint")
    assert plan.strategy == "endpoint"
    assert plan.ne == 40
    shots = plan.shots()
    assert shots.dtype == np.int64
    np.testing.assert_array_equal(shots, [2] * 98 + [40, 40])
    assert plan.total_measurements() == 2 * 100 + 2 * 40


def test_plan_observation_validation():
    with pytest.raises(ValueError):
        plan_observation(0.0, 100, 10)
    with pytest.raises(ValueError):
        plan_observation(0.6, 100, 0)
    with pytest.raises(ValueError):
        plan_observation(0.6, 3, 10)
    with pytest.raises(ValueError, match="strategy"):
        plan_observation(0.6, 100, 10, "adaptive")


def test_sampling_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(nt=100, dt=-0.1)
    with pytest.raises(ValueError):
        SamplingPlan(nt=100, dt=0.1, strategy="adaptive")
    with pytest.raises(ValueError):
        SamplingPlan(nt=100, dt=0.1, strategy="uniform", ne=0)
    with pytest.raises(ValueError):
        SamplingPlan(nt=100, dt=0.1, strategy="endpoint", ne=0)
    with pytest.raises(ValueError, match="integer"):
        SamplingPlan(nt=100, dt=0.1, strategy="uniform", ne=2.5)
    # The span nt*dt and the bin width 2*pi/(nt*dt) must both stay finite.
    for dt in (1e308, 1e-320):
        with pytest.raises(ValueError, match="finite"):
            SamplingPlan(nt=16, dt=dt)


def test_uniform_plan_accounting():
    plan = SamplingPlan(nt=50, dt=0.2, strategy="uniform", ne=6)
    assert plan.total_measurements() == 300
    np.testing.assert_array_equal(plan.shots(), np.full(50, 6))
    assert plan.bin_width == pytest.approx(2.0 * math.pi / 10.0)


def test_dft_flat_series_has_no_power():
    nt, dt = 64, 0.25
    _, magnitudes = dft(cosine_values(nt, dt, 0.0, 1.0, 0.3), dt)
    assert float(magnitudes.max()) < 1e-12
    assert find_peak(magnitudes) is None


def test_dft_locates_injected_line():
    nt, dt, omega = 128, 0.2, 2.4
    omegas, magnitudes = dft(cosine_values(nt, dt, 0.5, omega, 0.5), dt)
    expected_bin = round(omega * nt * dt / (2.0 * math.pi))
    assert find_peak(magnitudes) == expected_bin
    assert omegas[expected_bin] == pytest.approx(expected_bin * 2.0 * math.pi / (nt * dt))


def test_dft_line_on_bin_is_exact():
    """A line exactly on a bin leaks nowhere else after mean subtraction."""
    nt, dt = 100, 0.3
    bin_w = 2.0 * math.pi / (nt * dt)
    _, magnitudes = dft(cosine_values(nt, dt, 0.4, 12 * bin_w, 0.5), dt)
    others = np.delete(magnitudes, 12)
    assert magnitudes[12] == pytest.approx(nt * 0.4 / 2.0, rel=1e-12)
    assert float(np.abs(others).max()) < 1e-9 * magnitudes[12]


def test_refine_noiseless_uniform_hits_line():
    plan = plan_observation(0.8, 200, 10)
    series = simulate_series(H_REF, PSI3, plan, seed=0, mode="noiseless")
    est = fit_line(plan, series.counts)
    assert est.omega_hat == pytest.approx(0.8, rel=1e-6)
    omegas, magnitudes = dft(series.values, plan.dt)
    assert est.raw_peak_omega == pytest.approx(omegas[find_peak(magnitudes)], rel=1e-12)


def test_refine_noiseless_endpoint_hits_line():
    plan = plan_observation(0.6, 200, 50, "endpoint")
    series = simulate_series(H_REF, PSI1, plan, seed=0, mode="noiseless")
    est = fit_line(plan, series.counts)
    assert est.omega_hat == pytest.approx(0.6, rel=1e-6)


def test_noiseless_endpoint_lines_are_exact_at_small_nt():
    """Two endpoint points fit several modes of sin^2; the polish must keep the anchor's, exactly."""
    rng = np.random.default_rng(6)
    for _ in range(200):
        nt, ne, w = int(rng.integers(8, 41)), int(rng.choice([1, 4, 64])), float(rng.uniform(0.05, 2.0))
        h = HamiltonianParams(w + 0.6, 0.6, 1.4)
        plan = plan_observation(w * float(rng.uniform(1.0, 3.5)), nt, ne, "endpoint")
        est = fit_line(plan, simulate_series(h, PSI1, plan, seed=0, mode="noiseless").counts)
        assert est.omega_hat == pytest.approx(abs(combinations(h)[0]), rel=1e-6), (nt, ne, w)


def test_refine_reports_resolution_figure():
    plan = plan_observation(0.6, 10, 100, "endpoint")
    series = simulate_series(H_REF, PSI1, plan, seed=3, mode="noiseless")
    est = fit_line(plan, series.counts)
    assert est.delta_f_over_f == pytest.approx(4.0 / (10 * math.sqrt(100)), rel=1e-12)
    assert est.sigma == pytest.approx(est.omega_hat * est.delta_f_over_f, rel=1e-12)


def test_fit_line_finds_no_line_without_successes():
    """A zero combination never flips qubit 1, so the fit reports no line.

    A preparation error leaks in successes from the contaminant's own line,
    which average below 1/4 and still read as no line.
    """
    h = HamiltonianParams(0.7, 0.7, 0.3)
    plan = plan_observation(1.4, 64, 5)
    assert fit_line(plan, simulate_series(h, PSI1, plan, seed=0).counts) is None
    for mode in ("sampled", "noiseless"):
        assert fit_line(plan, simulate_series(h, PSI1, plan, seed=0, eta=0.05, mode=mode).counts) is None
    plan = SamplingPlan(nt=64, dt=0.5, ne=10)
    values = cosine_values(64, 0.5, 0.2, 2.4, 0.3)
    no_counts = ConcurrenceSeries(plan.times(), values, np.zeros(64, dtype=int), "zz")
    with pytest.raises(ValueError, match="counts"):
        estimate_combination(no_counts, plan)


def test_frequency_estimate_sigma_product():
    est = FrequencyEstimate(omega_hat=0.6, delta_f_over_f=0.02, raw_peak_omega=2.4)
    assert est.sigma == pytest.approx(0.012, rel=1e-15)


def test_peak_position_robust_to_small_contamination():
    """A 5% preparation error does not move the coarse line by even one bin."""
    plan = plan_observation(0.6, 200, 10)
    clean = find_peak(dft(simulate_series(H_REF, PSI1, plan, 0, mode="noiseless").values, plan.dt)[1])
    dirty = find_peak(dft(simulate_series(H_REF, PSI1, plan, 0, eta=0.05, mode="noiseless").values, plan.dt)[1])
    assert abs(dirty - clean) <= 1


def test_error_scaling_with_endpoint_budget(ne_sweep):
    """Frequency scatter follows the predicted inverse-root budget law."""
    assert -0.6 <= ne_sweep["slope"] <= -0.4
    for med, pred in zip(ne_sweep["medians"], ne_sweep["preds"]):
        assert med <= 10.0 * pred
        assert med >= 0.25 * pred


def test_refine_requires_the_plan_grid():
    plan = plan_observation(0.6, 100, 10)
    series = simulate_series(H_REF, PSI1, plan, seed=0, mode="noiseless")
    off_grid = ConcurrenceSeries(
        series.times * (1.0 + 1e-12), series.values, series.shots, series.channel, series.counts
    )
    for s, p in ((off_grid, plan), (series, plan_observation(0.7, 100, 10))):
        with pytest.raises(ValueError, match="plan.times"):
            estimate_combination(s, p)


def test_fit_line_rejects_a_table_off_the_plan_shape():
    plan = plan_observation(0.6, 100, 10)
    table = simulate_series(H_REF, PSI1, plan, seed=0).counts
    for bad in (table[:-1], table[:, :3], table.ravel()):
        with pytest.raises(ValueError, match=r"\(100, 4\) table"):
            fit_line(plan, bad)


@pytest.mark.parametrize("nt, bound", [(4, 80), (7, 80), (12, 88), (40, 95)])
def test_small_nt_endpoint_lines_land_within_three_sigma(nt, bound):
    """At ne=987, at least `bound` of seeds 0-99 land within 3 quoted sigma of each H_REF line.

    Below nt = 8 the endpoint fit keeps its endpoint blocks in the likelihood,
    as two-shot interior points alone cannot anchor the rate.  nt = 12 lies in
    the endpoint strategy's cycle-slip region (ROADMAP item 4): its four lines
    land 91, 91, 91 and 92 times, so the bound records that slip rate and
    fails if it grows.
    """
    hits = []
    for input_id, w in zip(INPUT_IDS, np.abs(combinations(H_REF))):
        plan = plan_observation(float(w), nt, 987, "endpoint")
        misses = []
        for seed in range(100):
            value, sigma, _, _ = estimate_combination(simulate_series(H_REF, input_id, plan, seed), plan)
            misses.append(abs(value - w) / sigma)
        hits.append(int(np.sum(np.array(misses) <= 3.0)))
    assert min(hits) >= bound, hits


def line_tables():
    """(plan, table) pairs that reach every line search of fit_line.

    Sampled PSI1 tables at random rates, nt and ne on both strategies (so
    endpoint anchors and endpoint polishes alike), then the noiseless tables
    of the first 25 couplings the sphere test draws.
    """
    rng = np.random.default_rng(26)
    for i in range(60):
        w = float(rng.uniform(0.05, 2.5))
        nt, ne = int(rng.integers(8, 201)), int(rng.choice([2, 10, 64]))
        plan = plan_observation(w * float(rng.uniform(1.0, 3.0)), nt, ne, STRATEGIES[i % 2])
        yield plan, simulate_series(HamiltonianParams(w + 0.6, 0.6, 1.4), PSI1, plan, seed=i).counts
    sphere = np.random.default_rng(2024)
    for _ in range(25):
        direction = sphere.normal(size=3)
        h = HamiltonianParams(*(direction / np.linalg.norm(direction) * sphere.uniform(0.5, 2.0)))
        for strategy in STRATEGIES:
            for input_id, plan in default_plans(h, 200, 10, strategy).items():
                yield plan, simulate_series(h, input_id, plan, seed=0, mode="noiseless").counts


def test_bounded_brent_returns_scipys_minimizer_bit_for_bit(monkeypatch):
    """Every line search fit_line makes lands on scipy's bounded minimize_scalar x, to the last bit."""
    from scipy.optimize import minimize_scalar  # the oracle; entmap itself never imports scipy.optimize

    brent, solves = spectral._bounded_brent, []

    def recorded(f, a, b):
        solves.append((f, a, b, brent(f, a, b)))
        return solves[-1][3]

    monkeypatch.setattr(spectral, "_bounded_brent", recorded)
    tables = list(line_tables())
    polished = sum(plan.strategy == "endpoint" for plan, _ in tables)
    for plan, table in tables:
        fit_line(plan, table)
    assert len(solves) == len(tables) + polished
    for f, a, b, x in solves:
        oracle = minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": 1e-13}).x
        assert float(oracle).hex() == x.hex(), (a, b)


def test_scan_picks_the_grid_rate_the_xlogy_likelihood_picks(monkeypatch):
    """fit_line gives the same estimates, to the bit, when its scans score by the xlogy likelihood instead."""
    tables = list(line_tables())
    scanned = [fit_line(plan, table) for plan, table in tables]
    monkeypatch.setattr(spectral, "_scan", spectral._neg_log_likelihood)
    assert [fit_line(plan, table) for plan, table in tables] == scanned


def test_importing_entmap_loads_no_scipy_optimize():
    """A fresh interpreter imports recon, then runner, with scipy (for scipy.special) but without scipy.optimize.

    recon is checked alone first: the benchmark's desk and endpoint workers
    import no runner, and perfbench/worker.py:306 reads scipy's version from
    sys.modules unguarded, so until ROADMAP item 1 guards that read, recon must
    load scipy by itself.
    """
    probe = "print('scipy' in sys.modules, 'scipy.optimize' in sys.modules)"
    code = f"import sys, entmap.recon; {probe}; import entmap.runner; {probe}"
    env = {**os.environ, "PYTHONPATH": str(Path(spectral.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["True", "False", "True", "False"]


def test_cosine_amplitudes_recovers_known_mixture():
    times = 0.3 * np.arange(1, 129)
    values = 0.4 + 0.25 * np.cos(1.1 * times) + 0.07 * np.cos(2.9 * times)
    amps = cosine_amplitudes(times, values, {"a": 1.1, "b": 2.9, "dc": 0.0})
    assert amps["a"] == pytest.approx(0.25, abs=1e-12)
    assert amps["b"] == pytest.approx(0.07, abs=1e-12)
    assert amps["dc"] == 0.0


def test_cosine_amplitudes_merges_coincident_lines():
    times = 0.3 * np.arange(1, 65)
    values = 0.5 + 0.2 * np.cos(1.7 * times)
    amps = cosine_amplitudes(times, values, {"a": 1.7, "b": 1.7})
    assert amps["a"] == pytest.approx(0.2, abs=1e-12)
    assert amps["b"] == pytest.approx(0.2, abs=1e-12)
