"""Unit tests for observation planning, DFT peaks, and the likelihood line fit."""

import ast
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from entmap import spectral
from entmap.concest import ConcurrenceSeries
from entmap.qcore import INPUT_IDS, PSI1, PSI3, HamiltonianParams, combinations
from entmap.recon import _record, characterize, default_plans, estimate_combination, simulate_series
from entmap.spectral import (
    NYQUIST_MARGIN,
    STRATEGIES,
    FrequencyEstimate,
    SamplingPlan,
    cosine_amplitudes,
    dft,
    find_peak,
    fit_line,
    fit_lines,
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
    """Every line search fit_line makes lands on scipy's bounded minimize_scalar x, to the last bit.

    The searches are recorded at _lockstep_brent, one (f, a, b, x) per lane.
    """
    from scipy.optimize import minimize_scalar  # the oracle; entmap itself never imports scipy.optimize

    drive, solves = spectral._lockstep_brent, []

    def recorded(searches):
        found = drive(searches)
        for (rows, a, b), x in zip(searches, found):
            solves.append((lambda w, rows=rows: spectral._neg_log_likelihood(w, *rows), a, b, x))
        return found

    monkeypatch.setattr(spectral, "_lockstep_brent", recorded)
    tables = list(line_tables())
    polished = sum(plan.strategy == "endpoint" for plan, _ in tables)
    for plan, table in tables:
        fit_line(plan, table)
    assert len(solves) == len(tables) + polished
    for f, a, b, x in solves:
        oracle = minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": 1e-13}).x
        assert float(oracle).hex() == x.hex(), (a, b)


def xlogy_likelihood(rates, t, k, n):
    """_neg_log_likelihood scored by scipy's xlogy, which takes 0 log 0 as 0 (the oracle for both log kernels)."""
    from scipy.special import xlogy  # entmap itself never imports scipy.special

    phase = np.asarray(rates)[..., None] * t
    return -(xlogy(k, np.sin(phase) ** 2) + xlogy(n - k, np.cos(phase) ** 2)).sum(axis=-1)


def test_scan_picks_the_grid_rate_the_xlogy_likelihood_picks(monkeypatch):
    """fit_line gives the same estimates, to the bit, when its scans score by the xlogy likelihood instead."""
    tables = list(line_tables())
    scanned = [fit_line(plan, table) for plan, table in tables]
    monkeypatch.setattr(spectral, "_scan", xlogy_likelihood)
    assert [fit_line(plan, table) for plan, table in tables] == scanned


def test_fits_match_the_xlogy_likelihood_to_1e_11(monkeypatch):
    """Scoring by numpy's log instead of xlogy moves no fit past its last few bits.

    numpy's SIMD log can differ from libm's in the last bit, so Brent may
    step to another double; every line keeps its None-ness and its rate
    within 1e-11 relative.
    """
    lines = [*line_tables(), *desk_lines(range(50)), *endpoint_lines(range(50))]
    shipped = fit_lines(lines)
    monkeypatch.setattr(spectral, "_neg_log_likelihood", xlogy_likelihood)
    oracle = fit_lines(lines)
    assert [fit is None for fit in shipped] == [fit is None for fit in oracle]
    pairs = [(fit.omega_hat, slow.omega_hat) for fit, slow in zip(shipped, oracle) if fit is not None]
    assert len(pairs) > 400
    for w, w_oracle in pairs:
        assert w == pytest.approx(w_oracle, rel=1e-11, abs=0.0)


def test_brent_never_scores_the_clamped_edge_of_an_endpoint_polish(monkeypatch):
    """A polish grid clamped at rate 0 fits with no RuntimeWarning: Brent scores no phase of 0.

    The lines are endpoint lines at nt = 8, planned from a 3.5x guess, whose
    polish grids start at 0.  In one, the endpoint rows read no success, so
    the polish brackets [0, rate] and Brent walks towards 0 without scoring
    it; the likelihood of a zero phase is not finite.
    """
    drive, scan, solves, starts = spectral._lockstep_brent, spectral._scan, [], []

    def recorded_brent(batch):
        found = drive(batch)
        solves.extend(zip(batch, found))
        return found

    def recorded_scan(rates, *rows):
        starts.append(float(rates[0]))
        return scan(rates, *rows)

    monkeypatch.setattr(spectral, "_lockstep_brent", recorded_brent)
    monkeypatch.setattr(spectral, "_scan", recorded_scan)
    plan = plan_observation(3.5 * 0.6, 8, 987, "endpoint")
    tables = [simulate_series(H_REF, PSI1, plan, seed).counts.astype(float) for seed in range(3)]
    silent = tables[2].copy()
    silent[-2:, 0] += silent[-2:, spectral.SUCCESS_OUTCOMES].sum(axis=1)
    silent[-2:, spectral.SUCCESS_OUTCOMES] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fits = fit_lines([(plan, table) for table in [*tables, silent]])
    assert None not in fits and starts.count(0.0) >= 3
    edge = [(rows, b, x) for (rows, a, b), x in solves if a == 0.0]
    assert len(edge) == 1
    (rows, b, x), = edge
    assert 0.0 < x < b and fits[-1].omega_hat == x
    with pytest.warns(RuntimeWarning):
        assert not np.isfinite(spectral._neg_log_likelihood(0.0, *rows))


def test_fit_line_rejects_cells_it_cannot_fit():
    """A non-finite or negative cell, or a row with no counts, is a ValueError naming the first such row."""
    plan = plan_observation(0.6, 50, 10)
    table = simulate_series(H_REF, PSI1, plan, seed=0).counts.astype(float)
    for row, bad in ((7, np.nan), (3, np.inf), (12, -1.0), (20, None)):
        broken = table.copy()
        if bad is None:
            broken[row] = 0.0
        else:
            broken[row, 2] = bad
        broken[row + 5, 0] = -np.inf  # a later bad row is not the one named
        with pytest.raises(ValueError, match=rf"row {row} is"):
            fit_line(plan, broken)
    # An exact-probability table has zero cells but positive rows, and fits.
    noiseless = simulate_series(H_REF, PSI1, plan, seed=0, mode="noiseless").counts
    assert noiseless.min() == 0.0 and fit_line(plan, noiseless) is not None


def desk_lines(seeds):
    """(plan, table) of each input of sampled H_REF desk records (default plans, nt=200, ne=10)."""
    plans = default_plans(H_REF, 200, 10)
    for seed in seeds:
        table = _record(H_REF, list(plans.items()), seed, 0.0, "sampled")
        yield from zip(plans.values(), np.split(table, 4))


def endpoint_lines(seeds):
    """(plan, table) of endpoint_sweep-style PSI1 lines: nt=400, ne cycling 4..1024, a 3.5x guess."""
    rng = np.random.default_rng(29)
    for seed in seeds:
        plan = plan_observation(2.1 * float(rng.uniform(0.95, 1.05)), 400, 4 ** (1 + seed % 5), "endpoint")
        yield plan, simulate_series(H_REF, PSI1, plan, seed).counts


def screen_lines():
    """Lines that reach the screen from every corner fit_line meets.

    Sampled desk and endpoint lines, noiseless tables on both strategies,
    nt = 4..16, the zero-line families (with and without preparation error)
    and the isotropic family, whose zero lines never reach the screen.
    """
    yield from desk_lines(range(10))
    yield from endpoint_lines(range(20))
    yield from line_tables()
    rng = np.random.default_rng(16)
    for i in range(60):
        w, nt, ne = float(rng.uniform(0.05, 2.0)), int(rng.integers(4, 17)), int(rng.choice([1, 4, 64, 987]))
        plan = plan_observation(w * float(rng.uniform(1.0, 3.5)), nt, ne, STRATEGIES[i % 2])
        yield plan, simulate_series(HamiltonianParams(w + 0.6, 0.6, 1.4), PSI1, plan, seed=i).counts
    for truth in ((1.2, 1.2, 1.2), (1.0, 0.0, 0.0), (0.8, 0.3, 0.3), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)):
        h = HamiltonianParams(*truth)
        for eta, mode in ((0.0, "sampled"), (0.05, "sampled"), (0.05, "noiseless")):
            for input_id, plan in default_plans(h, 64, 4).items():
                yield plan, simulate_series(h, input_id, plan, seed=3, eta=eta, mode=mode).counts


def record_screens(monkeypatch):
    """Wrap spectral._screen to record each stacked pass: (calls, passes).

    calls gets (its index or None, the exact scan's argmin) per line, and
    passes the number of lines each pass screened.
    """
    screen, calls, passes = spectral._screen, [], []

    def recorded(rates, t, k, n):
        picks = screen(rates, t, k, n)
        passes.append(len(picks))
        for best, line in zip(picks, zip(rates, t, k, n)):
            calls.append((best, int(np.argmin(spectral._scan(*line)))))
        return picks

    monkeypatch.setattr(spectral, "_screen", recorded)
    return calls, passes


def test_screen_certifies_only_the_exact_scans_argmin(monkeypatch):
    calls, _ = record_screens(monkeypatch)
    for plan, table in screen_lines():
        fit_line(plan, table)
    certified = [(best, exact) for best, exact in calls if best is not None]
    assert len(calls) >= 400 and len(certified) >= 0.9 * len(calls)
    assert [exact for _, exact in certified] == [best for best, _ in certified]


def near_tie_line():
    """A noiseless (plan, table) whose likelihood scores anchor-grid rates 20 and 21 alike, to rounding."""
    plan = SamplingPlan(nt=200, dt=0.1)
    t, n = plan.times(), np.ones(200)
    grid = (4 * plan.bin_width + plan.bin_width * spectral._GRID_BINS) / 2.0  # the grid of rfft seed bin 4
    lo, hi = grid[20], grid[21]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        scores = spectral._scan(grid[20:22], t, np.sin(mid * t) ** 2, n)
        lo, hi = (mid, hi) if scores[0] < scores[1] else (lo, mid)
    p = np.sin(lo * t) ** 2
    return plan, np.column_stack([1.0 - p, 0.0 * p, p, 0.0 * p])


def test_fit_lines_gives_a_shuffled_mixed_batch_what_fit_line_gives_each_line(monkeypatch):
    """Stacking lines by nt and strategy changes no estimate: one fit_lines call equals fit_line line by line.

    The batch mixes desk lines of four bin widths, endpoint lines (398
    anchor rows), endpoint lines below nt = 8, a zero line, noiseless
    tables, the near-tie line whose screen declines, and two lines longer
    than the stacking cap, which are screened alone.
    """
    rng = np.random.default_rng(30)
    lines = list(desk_lines(range(3))) + list(endpoint_lines(range(4)))
    for i in range(6):
        w = float(rng.uniform(0.3, 2.0))
        plan = plan_observation(w * 1.7, 4 + i % 4, int(rng.choice([4, 64, 987])), "endpoint")
        lines.append((plan, simulate_series(HamiltonianParams(w + 0.6, 0.6, 1.4), PSI1, plan, seed=i).counts))
    zero = plan_observation(1.4, 200, 10)
    lines.append((zero, simulate_series(HamiltonianParams(0.7, 0.7, 0.3), PSI1, zero, seed=0).counts))
    for input_id, plan in default_plans(H_REF, 200, 10).items():
        lines.append((plan, simulate_series(H_REF, input_id, plan, seed=0, mode="noiseless").counts))
    lines.append(near_tie_line())
    long = plan_observation(0.6, spectral._STACK_ROWS + 904, 10)
    lines += [(long, simulate_series(H_REF, PSI1, long, seed=seed).counts) for seed in (1, 2)]
    lines = [lines[i] for i in rng.permutation(len(lines))]
    calls, passes = record_screens(monkeypatch)
    alone = [fit_line(plan, table) for plan, table in lines]
    assert alone.count(None) == 1 and passes == [1] * (len(lines) - 1) and (None, 20) in calls
    calls.clear()
    passes.clear()
    assert fit_lines(lines) == alone
    assert max(passes) > 1 and passes.count(1) >= 2 and sum(passes) == len(calls) == len(lines) - 1


def test_fit_lines_names_the_first_bad_line_and_its_first_bad_row():
    """A bad table in a multi-line call is a ValueError naming its position in lines and its row.

    Line 1 (200 rows) is bad at row 7; line 3, a later 50-row line stacked
    with line 0, is bad at row 1 and is not the one named.
    """
    short = plan_observation(0.6, 50, 10)
    (plan, table), *_ = desk_lines(range(1))
    lines = [(short, simulate_series(H_REF, PSI1, short, seed=seed).counts.astype(float)) for seed in range(2)]
    lines = [lines[0], (plan, table.astype(float)), (plan, table.astype(float)), lines[1]]
    lines[1][1][7, 2] = np.nan
    lines[3][1][1] = 0.0
    with pytest.raises(ValueError, match=r"line 1, row 7 is"):
        fit_lines(lines)
    with pytest.raises(ValueError, match=r"line 1, row 1 is"):
        fit_lines(lines[2:])  # line 3's bad row, named by its position in this call
    lines[3] = (short, lines[3][1][:-1])
    with pytest.raises(ValueError, match=r"\(50, 4\) table .* in line 3"):
        fit_lines(lines)


def test_screen_declines_a_near_tie_and_phases_past_its_bound():
    """A noiseless line midway between two grid rates scores them closer than float32 can tell: no certificate.

    Nor for phases of 2**30 rad and more, where the float64 reduction modulo pi loses the accuracy the bound needs.
    """
    t = 0.1 * np.arange(1, 201)
    k = np.sin(0.6 * t) ** 2
    n = np.ones_like(t)
    rates = 0.6 + 1e-3 * (np.arange(41) - 20.5)
    scores = spectral._scan(rates, t, k, n)
    assert abs(scores[21] - scores[20]) < 1e-5 * scores[20]
    assert spectral._screen(rates, t, k, n) is None
    for top, certified in ((2.0**30, None), (0.999 * 2.0**30, 3)):
        far = top / t[-1] * (1.0 - 1e-3 * np.arange(40, -1, -1))
        k_far = np.sin(far[3] * t) ** 2
        assert np.argmin(spectral._scan(far, t, k_far, n)) == 3
        assert spectral._screen(far, t, k_far, n) == certified


def test_fit_lines_from_the_full_scan_alone_are_unchanged(monkeypatch):
    """With the certificate's slack at inf every line takes the full scan, and every fit is the same."""
    lines = list(desk_lines(range(3))) + list(endpoint_lines(range(5))) + list(line_tables())
    fitted = [fit_line(plan, table) for plan, table in lines]
    monkeypatch.setattr(spectral, "_SCREEN_SLACK", np.inf)
    calls, _ = record_screens(monkeypatch)
    assert [fit_line(plan, table) for plan, table in lines] == fitted
    assert calls and all(best is None for best, _ in calls)


def test_screen_rarely_falls_back_to_the_full_scan(monkeypatch):
    """At most 1% of 400 H_REF desk lines and 2% of 100 endpoint anchors take the full scan.

    A desk characterize screens its four lines in one stacked pass.
    """
    calls, passes = record_screens(monkeypatch)
    for plan, table in desk_lines(range(100)):
        fit_line(plan, table)
    assert len(calls) == 400 and sum(best is None for best, _ in calls) <= 4
    calls.clear()
    for plan, table in endpoint_lines(range(100)):
        fit_line(plan, table)
    assert len(calls) == 100 and sum(best is None for best, _ in calls) <= 2
    calls.clear()
    passes.clear()
    characterize(H_REF, default_plans(H_REF, 200, 10), seed=0)
    assert passes == [4] and len(calls) == 4


def test_float32_kernels_stay_inside_the_screens_bound():
    """numpy's float32 sin, cos, reciprocal and log err no more than the screen's bound allows.

    Narrowed |r| for r in [-pi/2, pi/2] (near 0 and near +-pi/2 included)
    gives sin and cos within ds/2 of float64's |sin r| and |cos r|; the
    reciprocal of s in [2 ds, 1] is correctly rounded, and the log of the
    result in [1, 2**20] is within 2**-21 relative.  A numpy build with
    worse float32 kernels fails here instead of certifying a wrong rate.
    """
    ds = spectral._SCREEN_DS
    rng = np.random.default_rng(32)
    edge = np.pi / 2 - rng.uniform(0.0, 1e-3, 100_000)
    r = np.concatenate([rng.uniform(-np.pi / 2, np.pi / 2, 400_000), rng.uniform(-1e-3, 1e-3, 100_000), edge, -edge])
    r = np.concatenate([r, [0.0, np.pi / 2, -np.pi / 2, np.nextafter(np.pi / 2, 0.0)]])
    narrowed = np.abs(r).astype(np.float32)
    assert np.abs(np.sin(narrowed) - np.abs(np.sin(r))).max() <= ds / 2
    assert np.abs(np.cos(narrowed) - np.abs(np.cos(r))).max() <= ds / 2
    s = np.concatenate([rng.uniform(2 * ds, 1.0, 200_000), np.exp(rng.uniform(np.log(2 * ds), 0.0, 200_000))])
    s = np.concatenate([s, 1.0 - np.arange(1, 2000) * 2.0**-24, [2 * ds, 1.0]]).astype(np.float32)
    inverse = np.reciprocal(s)
    exact = 1.0 / s.astype(float)
    assert np.all(np.abs(inverse - exact) <= 2.0**-24 * exact)
    log = np.log(inverse).astype(float)
    assert np.all(np.abs(log - np.log(inverse.astype(float))) <= 2.0**-21 * np.log(inverse.astype(float)))


def drive_alone(search):
    """(x, evaluations) of one search driven by hand on its 1-D rows, one scalar f(x) at a time."""
    rows, a, b = search
    steps, evaluations = spectral._bounded_brent(a, b), 0
    x = next(steps)
    while True:
        evaluations += 1
        try:
            x = steps.send(spectral._neg_log_likelihood(x, *rows))
        except StopIteration as stop:
            return stop.value, evaluations


def test_lockstep_brent_gives_each_lane_the_bits_it_gets_alone(monkeypatch):
    """Stacked searches (several row counts, lanes finishing on different steps) return each lane's own x."""
    drive, searches = spectral._lockstep_brent, []

    def recorded(batch):
        searches.extend(batch)
        return drive(batch)

    monkeypatch.setattr(spectral, "_lockstep_brent", recorded)
    fit_lines(list(desk_lines(range(4))) + list(endpoint_lines(range(4))))
    assert len({rows[0].size for rows, _, _ in searches}) == 3  # desk 200, endpoint anchors 398, endpoint pairs 2
    alone = [drive_alone(search) for search in searches]
    desk_steps = {evaluations for (rows, _, _), (_, evaluations) in zip(searches, alone) if rows[0].size == 200}
    assert len(desk_steps) > 1  # the 16 desk lanes, stepped together, stop after different numbers of steps
    together = drive(searches)
    assert [x.hex() for x in together] == [x.hex() for x, _ in alone]
    assert [drive([search])[0].hex() for search in searches] == [x.hex() for x, _ in alone]


def fresh_interpreter(code):
    """stdout of code run by a fresh interpreter that imports entmap from this source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(spectral.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_importing_entmap_loads_no_scipy_optimize():
    """A fresh interpreter imports recon, then runner, with the bare scipy package but without scipy.optimize.

    recon is checked alone first: the benchmark's desk and endpoint workers
    import no runner, and perfbench/worker.py:306 reads scipy's version from
    sys.modules unguarded, so until ROADMAP item 1 guards that read, recon must
    load scipy by itself.
    """
    probe = "print('scipy' in sys.modules, 'scipy.optimize' in sys.modules)"
    code = f"import sys, entmap.recon; {probe}; import entmap.runner; {probe}"
    assert fresh_interpreter(code).split() == ["True", "False", "True", "False"]


def test_importing_entmap_loads_no_scipy_module_a_bare_import_does_not():
    """recon, then runner, load neither scipy.special nor scipy.optimize, nor any scipy module `import scipy` does not."""
    probe = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    bare = set(fresh_interpreter(f"import sys, scipy; {probe}").split())
    recon, runner = fresh_interpreter(f"import sys, entmap.recon; {probe}; import entmap.runner; {probe}").splitlines()
    assert "scipy.version" in bare
    for loaded in (set(recon.split()), set(runner.split())):
        assert not loaded & {"scipy.special", "scipy.optimize"}
        assert loaded <= bare, sorted(loaded - bare)


def test_entmap_imports_only_declared_packages_and_no_scipy_submodule():
    """Every third-party module src/entmap imports is a pyproject dependency, and scipy is imported bare.

    A heavy import (scipy.special loads about 17 MB and 0.2 s) then fails
    here, not in the benchmark.
    """
    src = Path(spectral.__file__).resolve().parent
    pyproject = (src.parents[1] / "pyproject.toml").read_text()
    listed = re.search(r"^dependencies = \[(.*?)^\]", pyproject, re.M | re.S).group(1)
    declared = {re.match(r"[A-Za-z0-9_.-]+", name).group(0).lower() for name in re.findall(r'"([^"]+)"', listed)}
    imported = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
                assert node.module.split(".")[0] != "scipy", f"{path.name}:{node.lineno} imports from {node.module}"
            else:
                continue
            for name in names:
                assert not name.startswith("scipy."), f"{path.name}:{node.lineno} imports {name}"
                imported.setdefault(name.split(".")[0], f"{path.name}:{node.lineno}")
    third_party = {name: where for name, where in imported.items() if name not in sys.stdlib_module_names | {"entmap"}}
    assert {"numpy", "scipy"} <= third_party.keys()
    assert {name: where for name, where in third_party.items() if name not in declared} == {}


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
