"""Unit tests for observation planning, DFT peaks, and frequency refinement."""

import functools
import math

import numpy as np
import pytest

from entmap.concest import ConcurrenceSeries
from entmap.qcore import PSI1, PSI3, HamiltonianParams
from entmap.recon import simulate_series
from entmap.spectral import (
    NYQUIST_MARGIN,
    FrequencyEstimate,
    NoOscillationError,
    SamplingPlan,
    Spectrum,
    _grid_argmin,
    _grid_scorer,
    _profiled_fit,
    _rival_peaks,
    cosine_amplitudes,
    dft,
    find_peak,
    plan_observation,
    refine_frequency,
)

H_REF = HamiltonianParams(1.2, 0.6, 1.4)


def cosine_series(nt, dt, amplitude, omega, offset):
    times = dt * np.arange(1, nt + 1)
    values = offset + amplitude * np.cos(omega * times)
    return ConcurrenceSeries(times, values, np.zeros(nt, dtype=int), "zz")


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


def test_uniform_plan_accounting():
    plan = SamplingPlan(nt=50, dt=0.2, strategy="uniform", ne=6)
    assert plan.total_measurements() == 300
    np.testing.assert_array_equal(plan.shots(), np.full(50, 6))
    assert plan.bin_width == pytest.approx(2.0 * math.pi / 10.0)


def test_dft_flat_series_has_no_power():
    nt, dt = 64, 0.25
    spectrum = dft(cosine_series(nt, dt, 0.0, 1.0, 0.3))
    assert float(spectrum.magnitudes.max()) < 1e-12
    with pytest.raises(NoOscillationError):
        find_peak(spectrum)


def test_dft_locates_injected_line():
    nt, dt, omega = 128, 0.2, 2.4
    series = cosine_series(nt, dt, 0.5, omega, 0.5)
    peak = find_peak(dft(series))
    expected_bin = round(omega * nt * dt / (2.0 * math.pi))
    assert peak.bin_index == expected_bin
    assert peak.omega == pytest.approx(expected_bin * 2.0 * math.pi / (nt * dt))


def test_dft_line_on_bin_is_exact():
    """A line exactly on a bin leaks nowhere else after mean subtraction."""
    nt, dt = 100, 0.3
    bin_w = 2.0 * math.pi / (nt * dt)
    series = cosine_series(nt, dt, 0.4, 12 * bin_w, 0.5)
    spectrum = dft(series)
    others = np.delete(spectrum.magnitudes, 12)
    assert spectrum.magnitudes[12] == pytest.approx(nt * 0.4 / 2.0, rel=1e-12)
    assert float(np.abs(others).max()) < 1e-9 * spectrum.magnitudes[12]


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(omegas=np.arange(3.0), magnitudes=np.arange(4.0))


def test_refine_noiseless_uniform_hits_line():
    plan = plan_observation(0.8, 200, 10)
    series = simulate_series(H_REF, PSI3, plan, seed=0, mode="noiseless")
    spectrum = dft(series)
    peak = find_peak(spectrum)
    est = refine_frequency(series, spectrum, peak.omega, plan)
    assert est.omega_hat == pytest.approx(0.8, rel=1e-6)
    assert not est.fallback
    assert est.raw_peak_omega == peak.omega


def test_refine_noiseless_endpoint_hits_line():
    plan = plan_observation(0.6, 200, 50, "endpoint")
    series = simulate_series(H_REF, PSI1, plan, seed=0, mode="noiseless")
    spectrum = dft(series)
    est = refine_frequency(series, spectrum, find_peak(spectrum).omega, plan)
    assert est.omega_hat == pytest.approx(0.6, rel=1e-6)


def test_refine_reports_resolution_figure():
    plan = plan_observation(0.6, 10, 100, "endpoint")
    series = simulate_series(H_REF, PSI1, plan, seed=3, mode="noiseless")
    spectrum = dft(series)
    est = refine_frequency(series, spectrum, find_peak(spectrum).omega, plan)
    assert est.delta_f_over_f == pytest.approx(4.0 / (10 * math.sqrt(100)), rel=1e-12)
    assert est.sigma == pytest.approx(est.omega_hat * est.delta_f_over_f, rel=1e-12)


def test_refine_falls_back_when_no_sine_squared_fits():
    """A pure positive cosine needs a negative amplitude, which is rejected."""
    nt, dt = 64, 0.5
    series = cosine_series(nt, dt, 0.2, 2.4, 0.3)
    plan = SamplingPlan(nt=nt, dt=dt, strategy="uniform", ne=10)
    spectrum = dft(series)
    peak = find_peak(spectrum)
    est = refine_frequency(series, spectrum, peak.omega, plan)
    assert est.fallback
    assert est.omega_hat == pytest.approx(peak.omega / 4.0)
    assert est.delta_f_over_f == pytest.approx(plan.bin_width / peak.omega)


def test_refine_validates_coarse_peak():
    plan = plan_observation(0.6, 100, 10)
    series = simulate_series(H_REF, PSI1, plan, seed=0, mode="noiseless")
    with pytest.raises(ValueError):
        refine_frequency(series, dft(series), -1.0, plan)


def test_frequency_estimate_sigma_product():
    est = FrequencyEstimate(omega_hat=0.6, delta_f_over_f=0.02, raw_peak_omega=2.4)
    assert est.sigma == pytest.approx(0.012, rel=1e-15)
    assert not est.fallback


def test_peak_position_robust_to_small_contamination():
    """A 5% preparation error does not move the coarse line by even one bin."""
    plan = plan_observation(0.6, 200, 10)
    clean = find_peak(dft(simulate_series(H_REF, PSI1, plan, 0, mode="noiseless")))
    dirty = find_peak(
        dft(simulate_series(H_REF, PSI1, plan, 0, eta=0.05, mode="noiseless"))
    )
    assert abs(dirty.bin_index - clean.bin_index) <= 1


def test_error_scaling_with_endpoint_budget(ne_sweep):
    """Frequency scatter follows the predicted inverse-root budget law."""
    assert -0.6 <= ne_sweep["slope"] <= -0.4
    for med, pred in zip(ne_sweep["medians"], ne_sweep["preds"]):
        assert med <= 10.0 * pred
        assert med >= 0.25 * pred


def lstsq_loop_argmin(grid, t, v, weights):
    """Reference grid scan: one weighted lstsq fit per grid rate."""
    wt = np.sqrt(weights)
    return int(np.argmin([_profiled_fit(w, t, v * wt, wt)[0] for w in grid]))


def direct_grid_sse(grid, t, v, weights):
    """Reference closed-form scan: sin^2 at every (grid rate, time), centred, then Svv - Ssv^2 / Sss."""
    s = np.sin(np.outer(grid, t)) ** 2
    total = weights.sum()
    s -= (s @ weights / total)[:, None]
    dv = v - (v @ weights) / total
    s_sv = s @ (weights * dv)
    s_ss = (s * s) @ weights
    s_vv = dv @ (weights * dv)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s_ss > 0.0, s_vv - s_sv * s_sv / s_ss, s_vv)


def bin_grid(k, bin_w):
    """refine_frequency's 121-rate grid around a candidate line on DFT bin k."""
    center = k * bin_w
    return np.linspace(max((center - 1.5 * bin_w) / 2.0, 0.25 * bin_w), (center + 1.5 * bin_w) / 2.0, 121)


def check_grid_scan(nt, dt, k, v, weights):
    """FFT grid scores of the first v.size points agree with the direct scan and pick the lstsq loop's rate.

    Returns the scores and the lstsq loop's index.
    """
    t = dt * np.arange(1, v.size + 1)
    grid = bin_grid(k, 2.0 * math.pi / (nt * dt))
    scale = float(v @ (weights * v))
    sse = _grid_scorer(v, weights, nt)(k)
    assert np.abs(sse - direct_grid_sse(grid, t, v, weights)).max() <= 1e-12 * scale
    wt = np.sqrt(weights)
    lstsq_sse = np.array([_profiled_fit(w, t, v * wt, wt)[0] for w in grid])
    np.testing.assert_allclose(sse, lstsq_sse, rtol=1e-9, atol=1e-12 * scale)
    profiled = functools.partial(_profiled_fit, t_fit=t, vw_fit=v * wt, wt_fit=wt)
    want = lstsq_loop_argmin(grid, t, v, weights)
    assert _grid_argmin(sse, grid, profiled, scale) == want
    return sse, want


def test_closed_form_grid_argmin_equals_lstsq_loop():
    """Random weighted series on bin-anchored grids, all points or the endpoint fit's first nt - 2."""
    rng = np.random.default_rng(61)
    for trial in range(40):
        nt = int(rng.choice([63, 120]))
        dt = rng.uniform(0.2, 0.5)
        bin_w = 2.0 * math.pi / (nt * dt)
        k = int(rng.integers(2, nt // 2 + 1))
        w_true = (k + rng.uniform(-0.5, 0.5)) * bin_w / 2.0
        n_fit = nt - 2 if trial % 2 else nt
        t = dt * np.arange(1, n_fit + 1)
        weights = rng.integers(1, 20, size=n_fit).astype(float)
        noise = rng.normal(size=n_fit) / np.sqrt(weights)
        v = np.clip(rng.uniform(0.2, 1.0) * np.sin(w_true * t) ** 2 + 0.1 * noise, 0.0, 1.0)
        sse, want = check_grid_scan(nt, dt, k, v, weights)
        assert int(np.argmin(sse)) == want


def test_grid_argmin_on_flat_and_cosine_series():
    """The fallback test's cosine, an exactly flat and a noiseless trace, at k = 2, their peak and Nyquist."""
    nt, dt = 64, 0.5
    plan = plan_observation(0.6, nt, 10)
    noiseless = simulate_series(H_REF, PSI1, plan, seed=0, mode="noiseless")
    cases = [
        (dt, cosine_series(nt, dt, 0.2, 2.4, 0.3)),
        (dt, cosine_series(nt, dt, 0.0, 2.4, 0.3)),
        (plan.dt, noiseless),
    ]
    for step, series in cases:
        spectrum = dft(series)
        peak = int(np.argmax(spectrum.magnitudes[2:])) + 2
        for k in (2, peak, nt // 2):
            check_grid_scan(nt, step, k, series.values, np.full(nt, 10.0))


def test_refine_requires_the_plan_grid_and_on_bin_candidates():
    plan = plan_observation(0.6, 100, 10)
    series = simulate_series(H_REF, PSI1, plan, seed=0, mode="noiseless")
    spectrum = dft(series)
    peak = find_peak(spectrum)
    for coarse in (peak.omega + 0.3 * plan.bin_width, plan.bin_width):
        with pytest.raises(ValueError, match="DFT bin"):
            refine_frequency(series, spectrum, coarse, plan)
    off_grid = ConcurrenceSeries(series.times * (1.0 + 1e-12), series.values, series.shots, series.channel)
    for s, p in ((off_grid, plan), (series, plan_observation(0.7, 100, 10))):
        with pytest.raises(ValueError, match="plan.times"):
            refine_frequency(s, spectrum, peak.omega, p)


def rival_peaks_loop(spectrum, coarse_peak_omega, bin_w, limit=2):
    """Reference rival search: one comparison per bin, then a tuple sort."""
    mags = spectrum.magnitudes
    rivals = []
    for k in range(2, mags.size - 1):
        if mags[k] >= mags[k - 1] and mags[k] >= mags[k + 1]:
            if abs(spectrum.omegas[k] - coarse_peak_omega) > 2.0 * bin_w:
                rivals.append((float(mags[k]), float(spectrum.omegas[k])))
    rivals.sort(reverse=True)
    return [omega for _, omega in rivals[:limit]]


def test_rival_peaks_rank_like_the_local_maximum_loop():
    """Magnitude descending, then omega descending on ties; plateaus and short spectra included."""
    rng = np.random.default_rng(7)
    for trial in range(200):
        size = int(rng.integers(1, 40))
        omegas = 0.25 * np.arange(size)
        # Coarse quantisation makes equal magnitudes and flat plateaus common.
        mags = np.round(rng.uniform(0.0, 3.0, size=size), 0 if trial % 2 else 3)
        spectrum = Spectrum(omegas, mags)
        coarse = float(omegas[rng.integers(0, size)])
        for limit in (1, 2, 5):
            assert _rival_peaks(spectrum, coarse, 0.25, limit) == rival_peaks_loop(spectrum, coarse, 0.25, limit)


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
