"""End-to-end acceptance checks.

Each test exercises one shipped claim at its stated tolerance and records a
single pass/fail line (printed immediately and repeated in the terminal
summary).  Tolerances and budgets are asserted exactly as documented in the
README acceptance table.
"""

import json
import math
import time

import numpy as np

from entmap.gateerr import (
    effective_error,
    heisenberg_sqrtswap_perr,
    ising_cnot_perr,
    ising_cnot_pulse,
    measurements_for_threshold,
    resolution_epsilon,
    sqrtswap_pulse,
)
from entmap.qcore import (
    INPUT_IDS,
    HamiltonianParams,
    analytic_concurrence_sq,
    concurrence_sq_exact,
    evolve_batch,
    oracle_evolve,
)
from entmap.recon import (
    default_plans,
    estimate_combination,
    invert_frequencies,
    FrequencyQuad,
    simulate_series,
)
from entmap.runner import EXIT_OK, main
from entmap.spectral import dft, find_peak

H_REF = HamiltonianParams(1.2, 0.6, 1.4)
TRUTH = np.array([1.2, 0.6, 1.4])
PEAK_TARGETS = {"psi1": 2.4, "psi2": 7.2, "psi3": 3.2, "psi4": 8.0}


def test_acceptance_1_closed_form_dynamics(acceptance_line):
    """Exact evolution reproduces the analytic sin^2 forms for all four inputs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    inputs = {
        "psi1": np.array([1, 0, 0, 0], dtype=complex),
        "psi2": np.array([0, 1, 0, 0], dtype=complex),
        "psi3": np.array([0.5, 0.5, 0.5, 0.5], dtype=complex),
        "psi4": np.array([0.5, -0.5, 0.5, -0.5], dtype=complex),
    }
    for _ in range(50):
        h = HamiltonianParams(*rng.uniform(-2.0, 2.0, size=3))
        for t in rng.uniform(-10.0, 10.0, size=20):
            for input_id in INPUT_IDS:
                got = concurrence_sq_exact(evolve_batch(h, inputs[input_id], [float(t)])[0])
                want = analytic_concurrence_sq(input_id, h, float(t))
                worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    acceptance_line(
        "acceptance 1: closed-form concurrence dynamics",
        ok,
        f"max deviation {worst:.2e} over 50 couplings x 20 times x 4 inputs, {elapsed:.1f}s",
    )
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_acceptance_2_oracle_equivalence(acceptance_line):
    """Bell-basis evolution equals the independent power-series propagator."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        h = HamiltonianParams(*rng.uniform(-2.0, 2.0, size=3))
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi0 = amps / np.linalg.norm(amps)
        t = float(rng.uniform(-50.0, 50.0))
        fast = evolve_batch(h, psi0, [t])[0]
        slow = oracle_evolve(h, psi0, t)
        worst = max(worst, float(np.abs(fast - slow).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    acceptance_line(
        "acceptance 2: independent propagator oracle",
        ok,
        f"max amplitude deviation {worst:.2e} over 100 instances, {elapsed:.1f}s",
    )
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_acceptance_3_desk_scale_reconstruction(acceptance_line):
    """Sampled runs find the four lines and recover the couplings within 3 sigma."""
    t0 = time.perf_counter()
    plans = default_plans(H_REF, 200, 10)
    peak_hits = 0
    covered = 0
    n_seeds = 20
    for seed in range(n_seeds):
        quad_values = []
        quad_sigmas = []
        peaks_ok = True
        for input_id in INPUT_IDS:
            plan = plans[input_id]
            series = simulate_series(H_REF, input_id, plan, seed)
            omegas, magnitudes = dft(series.values, plan.dt)
            if abs(omegas[find_peak(magnitudes)] - PEAK_TARGETS[input_id]) > plan.bin_width + 1e-12:
                peaks_ok = False
            value, sigma, _, _ = estimate_combination(series, plan)
            quad_values.append(value)
            quad_sigmas.append(sigma)
        peak_hits += peaks_ok
        result = invert_frequencies(
            FrequencyQuad(values=tuple(quad_values), sigmas=tuple(quad_sigmas))
        )
        c_hat = np.array(result.c_hat.as_tuple())
        sigma = np.array(result.sigma)
        if np.all(np.abs(c_hat - TRUTH) <= 3.0 * sigma):
            covered += 1
    elapsed = time.perf_counter() - t0
    ok = peak_hits == n_seeds and covered >= 18 and elapsed < 30.0
    acceptance_line(
        "acceptance 3: desk-scale spectral reconstruction",
        ok,
        f"peaks on target {peak_hits}/{n_seeds} seeds, 3-sigma coverage "
        f"{covered}/{n_seeds}, {elapsed:.1f}s",
    )
    assert peak_hits == n_seeds
    assert covered >= 18
    assert elapsed < 30.0


def test_acceptance_4_budget_scaling(acceptance_line, ne_sweep):
    """Frequency scatter scales as the inverse root of the endpoint budget."""
    slope = ne_sweep["slope"]
    ratios = [m / p for m, p in zip(ne_sweep["medians"], ne_sweep["preds"])]
    elapsed = ne_sweep["elapsed"]
    ok = (
        -0.6 <= slope <= -0.4
        and all(0.1 <= r <= 10.0 for r in ratios)
        and elapsed < 300.0
    )
    acceptance_line(
        "acceptance 4: resolution scaling with shot budget",
        ok,
        f"slope {slope:.3f}, median/predicted in [{min(ratios):.2f}, {max(ratios):.2f}] "
        f"over Ne {ne_sweep['ne_values']}, {elapsed:.0f}s",
    )
    assert -0.6 <= slope <= -0.4
    for r in ratios:
        assert 0.1 <= r <= 10.0
    assert elapsed < 300.0


def test_acceptance_5_gate_error_closed_forms(acceptance_line):
    """Trace-overlap errors equal the closed forms for both native gates."""
    t0 = time.perf_counter()
    worst = 0.0
    u_cnot = ising_cnot_pulse(0.8)
    u_swap = sqrtswap_pulse(1.1)
    for eps in (1e-3, 1e-2, 1e-1):
        p_ising = effective_error(ising_cnot_pulse(0.8, 1.0 + eps), u_cnot)
        p_swap = effective_error(sqrtswap_pulse(1.1, 1.0 + eps), u_swap)
        worst = max(worst, abs(p_ising - ising_cnot_perr(eps)))
        worst = max(worst, abs(p_swap - heisenberg_sqrtswap_perr(eps)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    acceptance_line(
        "acceptance 5: gate-error closed forms",
        ok,
        f"max |trace formula - closed form| = {worst:.2e}, {elapsed:.2f}s",
    )
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_acceptance_6_threshold_budget(acceptance_line):
    """A 10^4 budget beats the 1e-4 error target with a wide margin, and the
    solver pins the exactly minimal budget (boundary checked on both sides)."""
    t0 = time.perf_counter()
    p_round = ising_cnot_perr(resolution_epsilon(10, 4990))
    report = measurements_for_threshold(1e-4, 10)
    p_above = ising_cnot_perr(resolution_epsilon(10, report.ne - 1))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(p_round - 1.98e-5) <= 5e-8
        and p_round < 1e-4
        and report.p_eff <= 1e-4 < p_above
        and report.ne == 987
        and report.total_measurements == 1994
        and elapsed < 1.0
    )
    acceptance_line(
        "acceptance 6: measurement budget for the error target",
        ok,
        f"p_eff(Nt=10, Ne=4990) = {p_round:.3e} < 1e-4; minimal Ne = {report.ne}, "
        f"N = {report.total_measurements}, p_eff = {report.p_eff:.6e}, {elapsed:.2f}s",
    )
    assert abs(p_round - 1.98e-5) <= 5e-8
    assert p_round < 1e-4
    assert report.p_eff <= 1e-4 < p_above
    assert report.ne == 987
    assert report.total_measurements == 2 * 10 + 2 * 987 == 1994
    assert elapsed < 1.0


def test_acceptance_7_preparation_robustness(acceptance_line, tmp_path):
    """A 5% input error rescales the main line, spawns sidebands of relative
    size eta at the four first-order positions (the fifth stays at eta^2),
    and does not move the peak."""
    t0 = time.perf_counter()
    cfg = {
        "hamiltonian": {"c1": 1.2, "c2": 0.6, "c3": 1.4},
        "plan": {"nt": 200, "ne": 10},
        "mode": "noiseless",
        "seed": 0,
        "robustness": {"etas": [0.0, 0.05], "nt": 200, "ne": 10},
    }
    cfg_path = tmp_path / "robustness.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    rc = main(["robustness", "--config", str(cfg_path), "--out", str(out)])
    rows = (out / "robustness.csv").read_text().splitlines()
    clean = [float(x) for x in rows[2].split(",")]
    dirty = [float(x) for x in rows[3].split(",")]
    # columns: eta, main_peak_omega, main_amp, amp_w1p2, amp_w1m3, amp_w1p3, amp_w2m3, amp_w2p3
    ratio = dirty[2] / clean[2]
    first_order_rel = [amp / dirty[2] for amp in dirty[4:]]
    second_order_rel = dirty[3] / dirty[2]
    bin_width = 2.0 * math.pi / (200.0 * (math.pi / 3.0))
    shift = abs(dirty[1] - clean[1])
    elapsed = time.perf_counter() - t0
    ok = (
        rc == EXIT_OK
        and abs(ratio - 0.90) <= 0.02
        and all(abs(r - 0.05) <= 0.01 for r in first_order_rel)
        and second_order_rel < 0.01
        and shift < bin_width
        and elapsed < 30.0
    )
    acceptance_line(
        "acceptance 7: robustness to imperfect preparation",
        ok,
        f"main ratio {ratio:.4f}, sidebands rel {min(first_order_rel):.4f}-"
        f"{max(first_order_rel):.4f} (x4) and {second_order_rel:.4f} (sum line), "
        f"peak shift {shift:.1e}, {elapsed:.1f}s",
    )
    assert rc == EXIT_OK
    assert abs(ratio - 0.90) <= 0.02
    for r in first_order_rel:
        assert abs(r - 0.05) <= 0.01
    assert second_order_rel < 0.01
    assert shift < bin_width
    assert elapsed < 30.0


def test_acceptance_8_byte_determinism(acceptance_line, tmp_path):
    """Identical config and seed give byte-identical characterization output."""
    cfg = {
        "hamiltonian": {"c1": 1.2, "c2": 0.6, "c3": 1.4},
        "plan": {"nt": 64, "ne": 4},
        "mode": "sampled",
        "seed": 11,
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(["characterize", "--config", str(cfg_path), "--out", str(out1)])
    rc2 = main(["characterize", "--config", str(cfg_path), "--out", str(out2)])
    b1 = (out1 / "summary.json").read_bytes()
    b2 = (out2 / "summary.json").read_bytes()
    ok = rc1 == rc2 == EXIT_OK and b1 == b2
    acceptance_line(
        "acceptance 8: byte-identical repeat runs",
        ok,
        f"summary.json identical across runs ({len(b1)} bytes)",
    )
    assert rc1 == EXIT_OK and rc2 == EXIT_OK
    assert b1 == b2
