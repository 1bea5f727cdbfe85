"""Unit tests for coupling reconstruction and the four-input pipeline."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from entmap.concest import CHANNEL_FOR_INPUT, concurrence_sq_reduced
from entmap.measure import CHANNELS, outcome_probs_batch, point_rng, prepare_input
from entmap.qcore import (
    ALL_INPUTS,
    BELL_BASIS,
    COMBINATION_MATRIX,
    INPUT_IDS,
    PSI1,
    PSI2,
    PSI3,
    PSI4,
    PSI5,
    HamiltonianParams,
    bell_spectrum,
    combinations,
    evolve_batch,
)
from entmap.recon import (
    AMBIGUITY_SIGMAS,
    MODES,
    RECORD_BLOCK_ROWS,
    RESIDUAL_TOLERANCE_FACTOR,
    SIGN_CONVENTION,
    SIGN_PATTERNS,
    FrequencyQuad,
    InconsistentFrequencyError,
    characterize,
    default_plans,
    estimate_combination,
    invert_frequencies,
    simulate_series,
    _record,
)
from entmap.spectral import STRATEGIES, plan_observation

H_REF = HamiltonianParams(1.2, 0.6, 1.4)


def exact_quad(h: HamiltonianParams, fractional: float = 0.0) -> FrequencyQuad:
    """The combination magnitudes of known couplings, with uniform fractional sigmas."""
    mags = np.abs(combinations(h))
    return FrequencyQuad(values=tuple(mags), sigmas=tuple(mags * fractional))


def test_combinations_reference_values():
    np.testing.assert_allclose(combinations(H_REF), [0.6, 1.8, -0.8, 2.0], atol=1e-14)
    np.testing.assert_allclose(
        exact_quad(H_REF).values, [0.6, 1.8, 0.8, 2.0], atol=1e-14
    )


def test_quad_sign_blindness():
    h_neg = HamiltonianParams(-1.2, -0.6, -1.4)
    np.testing.assert_allclose(
        exact_quad(H_REF).values, exact_quad(h_neg).values, atol=1e-14
    )


def test_frequency_quad_validation():
    with pytest.raises(ValueError):
        FrequencyQuad(values=(1.0, 1.0, 1.0), sigmas=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        FrequencyQuad(values=(1.0, 1.0, 1.0, -0.2), sigmas=(0.0,) * 4)
    with pytest.raises(ValueError):
        FrequencyQuad(values=(1.0,) * 4, sigmas=(0.0, 0.0, 0.0, -1.0))


def test_invert_reference_quad():
    quad = exact_quad(H_REF, fractional=0.01)
    result = invert_frequencies(quad)
    np.testing.assert_allclose(result.c_hat.as_tuple(), (1.2, 0.6, 1.4), atol=1e-10)
    assert result.residual < 1e-12
    assert SIGN_CONVENTION == "c2 >= 0"
    assert len(SIGN_PATTERNS) == 16
    assert all(s > 0 for s in result.sigma)


def test_invert_resolves_sign_convention():
    """Both global-sign mirrors decode to the representative with c2 >= 0."""
    h = HamiltonianParams(-0.9, -0.3, 0.7)
    quad = exact_quad(h)
    result = invert_frequencies(quad)
    assert result.c_hat.c2 >= 0.0
    np.testing.assert_allclose(
        np.abs(combinations(result.c_hat)), quad.values, atol=1e-10
    )


def test_invert_isotropic_quad():
    d = 0.7
    quad = FrequencyQuad(values=(0.0, 2 * d, 0.0, 2 * d), sigmas=(0.0,) * 4)
    result = invert_frequencies(quad)
    np.testing.assert_allclose(result.c_hat.as_tuple(), (d, d, d), atol=1e-12)


def test_invert_ising_quad():
    j = 1.1
    quad = FrequencyQuad(values=(0.0, 0.0, j, j), sigmas=(0.0,) * 4)
    result = invert_frequencies(quad)
    np.testing.assert_allclose(result.c_hat.as_tuple(), (0.0, 0.0, j), atol=1e-12)


def test_invert_all_equal_quad_prefers_larger_c2():
    """(J, J, J, J) admits several exact candidates; the tie-break picks (0, J, 0)."""
    j = 0.8
    quad = FrequencyQuad(values=(j, j, j, j), sigmas=(0.0,) * 4)
    result = invert_frequencies(quad)
    np.testing.assert_allclose(result.c_hat.as_tuple(), (0.0, j, 0.0), atol=1e-12)
    assert result.residual < 1e-12
    np.testing.assert_allclose(np.abs(combinations(result.c_hat)), quad.values, atol=1e-12)


def test_invert_roundtrip_random_params():
    rng = np.random.default_rng(51)
    for _ in range(50):
        h = HamiltonianParams(*rng.uniform(-2, 2, size=3))
        result = invert_frequencies(exact_quad(h))
        # the reconstruction must regenerate the measured magnitudes exactly
        np.testing.assert_allclose(
            np.abs(combinations(result.c_hat)),
            exact_quad(h).values,
            atol=1e-9,
        )
        assert result.c_hat.c2 >= 0.0


def test_invert_rejects_inconsistent_quad():
    quad = FrequencyQuad(values=(0.6, 1.8, 0.8, 5.0), sigmas=(0.001,) * 4)
    with pytest.raises(InconsistentFrequencyError):
        invert_frequencies(quad)


def test_invert_sigma_propagation_is_linear():
    quad1 = FrequencyQuad(values=(0.6, 1.8, 0.8, 2.0), sigmas=(0.01,) * 4)
    quad2 = FrequencyQuad(values=(0.6, 1.8, 0.8, 2.0), sigmas=(0.02,) * 4)
    s1 = np.array(invert_frequencies(quad1).sigma)
    s2 = np.array(invert_frequencies(quad2).sigma)
    np.testing.assert_allclose(s2, 2.0 * s1, rtol=1e-12)

    exact = invert_frequencies(FrequencyQuad(values=(0.6, 1.8, 0.8, 2.0), sigmas=(0.0,) * 4))
    assert all(s == 0.0 for s in exact.sigma)


def lstsq_inversion(quad: FrequencyQuad):
    """Reference inversion: one least-squares solve per sign pattern, sigma through np.linalg.pinv.

    Returns the (c, residual) of the best candidate and of each alternative, then sigma.
    """
    w, sig = np.asarray(quad.values), np.asarray(quad.sigmas)
    fits = []
    for signs in itertools.product((1.0, -1.0), repeat=4):
        y = np.asarray(signs) * w
        c, *_ = np.linalg.lstsq(COMBINATION_MATRIX, y, rcond=None)
        fits.append((c, float(np.linalg.norm(COMBINATION_MATRIX @ c - y))))
    eligible = sorted((f for f in fits if f[0][1] >= -1e-12), key=lambda f: (f[1], -f[0][1], -f[0][2], -f[0][0]))
    pinv = np.linalg.pinv(COMBINATION_MATRIX)
    sigma = np.sqrt(np.diag(pinv @ np.diag(sig**2) @ pinv.T))
    tolerance = RESIDUAL_TOLERANCE_FACTOR * max(np.linalg.norm(sig), 1e-9 * max(w.max(), 1.0))
    limit = AMBIGUITY_SIGMAS * sigma
    kept = eligible[:1]
    for c, residual in eligible[1:]:
        if residual <= tolerance and all(
            np.any(np.abs(c - k) > limit) and np.any(np.abs(c + k) > limit) for k, _ in kept
        ):
            kept.append((c, residual))
    return kept, sigma


def test_invert_closed_form_matches_per_pattern_least_squares():
    """Noisy quads of random couplings (some with alternatives) and arbitrary quads with wide sigmas."""
    rng = np.random.default_rng(22)
    quads = []
    for _ in range(200):
        mags = np.abs(COMBINATION_MATRIX @ rng.uniform(-2, 2, 3) + rng.normal(0, 0.01, 4))
        quads.append(FrequencyQuad(values=tuple(mags), sigmas=tuple(rng.uniform(0.005, 0.05, 4))))
        quads.append(FrequencyQuad(values=tuple(rng.uniform(0, 2, 4)), sigmas=tuple(rng.uniform(1, 2, 4))))
    with_alternatives = 0
    for quad in quads:
        result = invert_frequencies(quad)
        kept, sigma = lstsq_inversion(quad)
        got = (result,) + result.alternatives
        assert len(got) == len(kept)
        with_alternatives += len(kept) > 1
        for r, (c, residual) in zip(got, kept):
            np.testing.assert_allclose(r.c_hat.as_tuple(), c, rtol=0, atol=1e-12)
            assert r.residual == pytest.approx(residual, rel=0, abs=1e-12)
            np.testing.assert_allclose(r.sigma, sigma, rtol=0, atol=1e-12)
    assert with_alternatives > 0


def test_invert_gives_h_and_minus_h_bitwise_the_same_couplings():
    rng = np.random.default_rng(23)
    for _ in range(50):
        h = HamiltonianParams(*rng.uniform(-2, 2, 3).tolist())
        minus_h = HamiltonianParams(*(-c for c in h.as_tuple()))
        assert invert_frequencies(exact_quad(h)).c_hat == invert_frequencies(exact_quad(minus_h)).c_hat


@pytest.mark.parametrize(
    "values",
    [(0.0, 0.0, 1.1, 1.1), (0.0, 1.4, 0.0, 1.4), (0.8, 0.8, 0.8, 0.8)],
    ids=["ising", "isotropic", "all-equal"],
)
def test_invert_reports_no_negative_zero(values):
    result = invert_frequencies(FrequencyQuad(values=values, sigmas=(0.0,) * 4))
    for r in (result,) + result.alternatives:
        assert all(math.copysign(1.0, c) == 1.0 for c in r.c_hat.as_tuple() if c == 0.0)
    assert math.copysign(1.0, result.c_hat.c2) == 1.0


def test_default_plans_cover_all_inputs():
    plans = default_plans(H_REF, 200, 10)
    assert set(plans) == set(INPUT_IDS)
    np.testing.assert_allclose(
        [plans[i].dt for i in INPUT_IDS],
        [math.pi / (5 * w) for w in (0.6, 1.8, 0.8, 2.0)],
        rtol=1e-12,
    )


def test_default_plans_degenerate_combination_borrows_largest():
    d = 0.7
    plans = default_plans(HamiltonianParams(d, d, d), 100, 5)
    # w1 = w3 = 0 for isotropic couplings; both borrow the step of w = 2d
    assert plans[PSI1].dt == plans[PSI2].dt
    assert plans[PSI3].dt == plans[PSI4].dt
    with pytest.raises(ValueError):
        default_plans(HamiltonianParams(0.0, 0.0, 0.0), 100, 5)


def test_simulate_series_noiseless_matches_closed_form():
    plan = plan_observation(1.8, 64, 5)
    series = simulate_series(H_REF, PSI2, plan, seed=0, mode="noiseless")
    np.testing.assert_allclose(series.values, np.sin(3.6 * series.times) ** 2, atol=1e-10)
    assert np.all(series.shots == 0)


def test_simulate_series_sampled_is_deterministic():
    plan = plan_observation(0.6, 32, 8)
    a = simulate_series(H_REF, PSI1, plan, seed=5)
    b = simulate_series(H_REF, PSI1, plan, seed=5)
    c = simulate_series(H_REF, PSI1, plan, seed=6)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.all(a.shots == 8)


def test_simulate_series_rejects_bad_mode():
    plan = plan_observation(0.6, 32, 8)
    with pytest.raises(ValueError):
        simulate_series(H_REF, PSI1, plan, seed=0, mode="approximate")


def test_estimate_combination_degenerate_series_snaps_to_zero():
    d = 0.7
    h = HamiltonianParams(d, d, d)
    plans = default_plans(h, 64, 5)
    series = simulate_series(h, PSI1, plans[PSI1], seed=0, mode="noiseless")
    value, sigma, estimate, degenerate = estimate_combination(series, plans[PSI1])
    assert degenerate
    assert value == 0.0
    assert sigma == pytest.approx(plans[PSI1].bin_width / 4.0)
    assert estimate is None


def test_characterize_noiseless_is_exact():
    plans = default_plans(H_REF, 200, 10)
    report = characterize(H_REF, plans, seed=0, mode="noiseless")
    np.testing.assert_allclose(report.result.c_hat.as_tuple(), (1.2, 0.6, 1.4), atol=1e-6)
    assert not any(report.degenerate.values())
    assert set(report.estimates) == set(INPUT_IDS)


def test_characterize_isotropic_noiseless():
    d = 0.7
    h = HamiltonianParams(d, d, d)
    report = characterize(h, default_plans(h, 128, 10), seed=0, mode="noiseless")
    np.testing.assert_allclose(report.result.c_hat.as_tuple(), (d, d, d), atol=1e-6)
    assert report.degenerate[PSI1] and report.degenerate[PSI3]
    assert not report.degenerate[PSI2] and not report.degenerate[PSI4]


def test_characterize_noiseless_random_couplings():
    """Round trip on well-separated random couplings, up to the sign convention."""
    rng = np.random.default_rng(53)
    accepted = 0
    while accepted < 10:
        c = rng.uniform(0.3, 2.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        h = HamiltonianParams(*c)
        mags = np.abs(combinations(h))
        if mags.min() < 0.15:
            continue
        accepted += 1
        report = characterize(h, default_plans(h, 200, 10), seed=0, mode="noiseless")
        np.testing.assert_allclose(
            np.abs(combinations(report.result.c_hat)), mags, atol=1e-6
        )
        assert report.result.c_hat.c2 >= 0.0


def sign_blind_miss(got: HamiltonianParams, truth) -> np.ndarray:
    """Per-coupling miss from truth or from -truth, whichever is closer overall (H and -H give the same counts)."""
    got, truth = np.array(got.as_tuple()), np.asarray(truth, dtype=float)
    return min(np.abs(got - truth), np.abs(got + truth), key=lambda miss: float(miss.max()))


def test_characterize_noiseless_random_couplings_on_the_sphere_are_exact():
    """300 couplings, uniform in direction with norms 0.5-2, come back within 1e-8 (no exit 3) on either strategy.

    The bound sits on the stopping rule of fit_line's bounded Brent search
    (spectral._bounded_brent, about 1.5e-8 relative): the worst miss is
    7.55e-9 (endpoint), 5.40e-9 (uniform).
    """
    rng = np.random.default_rng(2024)
    for _ in range(300):
        direction = rng.normal(size=3)
        c = direction / np.linalg.norm(direction) * rng.uniform(0.5, 2.0)
        h = HamiltonianParams(*c)
        for strategy in STRATEGIES:
            report = characterize(h, default_plans(h, 200, 10, strategy), seed=0, mode="noiseless")
            assert sign_blind_miss(report.result.c_hat, c).max() <= 1e-8, (strategy, c)


# Families with a zero combination, where shot noise in the other outcomes, or
# the successes a preparation error leaks in, must not fake a line.
ZERO_LINE_FAMILIES = [(1.2, 1.2, 1.2), (1.0, 0.0, 0.0), (0.8, 0.3, 0.3), (0.0, 0.0, 1.0)]


@pytest.mark.parametrize("truth, eta", [(t, 0.0) for t in ZERO_LINE_FAMILIES] + [((1.2, 1.2, 1.2), 0.05)])
def test_characterize_zero_line_families_within_three_sigma(truth, eta):
    h = HamiltonianParams(*truth)
    zero = {input_id: bool(w == 0.0) for input_id, w in zip(INPUT_IDS, combinations(h))}
    for strategy, seed in itertools.product(STRATEGIES, range(20)):
        report = characterize(h, default_plans(h, 200, 10, strategy), seed, eta=eta)
        assert report.degenerate == zero, (strategy, seed)
        miss = sign_blind_miss(report.result.c_hat, truth)
        assert np.all(miss <= 3.0 * np.array(report.result.sigma)), (strategy, seed, report.result.c_hat)


def test_characterize_reported_sigma_scales_with_budget():
    """Reported coupling uncertainties follow the 1/sqrt(Ne) resolution figure."""
    ne_values = (4, 16, 64)
    sig = []
    for ne in ne_values:
        report = characterize(H_REF, default_plans(H_REF, 200, ne), seed=0, mode="noiseless")
        sig.append(float(np.linalg.norm(report.result.sigma)))
    slope = float(np.polyfit(np.log(ne_values), np.log(sig), 1)[0])
    assert slope == pytest.approx(-0.5, abs=1e-6)


def reference_series_data(h, input_id, plan, seed, eta, mode):
    """The per-point path: evolve -> outcome probabilities -> one numpy stream per point -> estimator.

    The state and probabilities of each point are also rebuilt from the
    per-vector arithmetic (Bell map mat-vec, np.linalg.norm, basis mat-vec),
    and point j draws from numpy's own Generator(PCG64(SeedSequence)) on the
    spawn key (input, j, channel).
    """
    channel = CHANNEL_FOR_INPUT[input_id]
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    rotation = np.eye(4, dtype=complex) if channel == "zz" else np.kron(hadamard, np.eye(2, dtype=complex))
    psi0 = prepare_input(input_id, eta)
    shots = plan.shots()
    rows, values = [], []
    for j, t in enumerate(plan.times()):
        state = evolve_batch(h, psi0, [float(t)])[0]
        phases = np.exp(-1j * bell_spectrum(h) * float(t))
        vec = BELL_BASIS @ (phases * (BELL_BASIS.T @ psi0))
        np.testing.assert_array_equal(state, vec / np.linalg.norm(vec))
        p = np.abs(rotation @ state) ** 2
        row = np.clip(p / p.sum(), 0.0, 1.0)
        if mode == "sampled":
            key = (ALL_INPUTS.index(input_id), j, CHANNELS.index(channel))
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
            row = rng.multinomial(int(shots[j]), row / row.sum())
        rows.append(row)
        values.append(concurrence_sq_reduced(input_id, row))
    return np.array(rows), np.array(values)


@pytest.mark.parametrize("strategy", ["uniform", "endpoint"])
@pytest.mark.parametrize("eta", [0.0, 0.05])
@pytest.mark.parametrize("mode", ["sampled", "noiseless"])
def test_simulate_series_matches_the_per_point_reference(strategy, eta, mode):
    for input_id in INPUT_IDS:
        plan = default_plans(H_REF, 48, 6, strategy)[input_id]
        series = simulate_series(H_REF, input_id, plan, seed=17, eta=eta, mode=mode)
        rows, values = reference_series_data(H_REF, input_id, plan, 17, eta, mode)
        np.testing.assert_array_equal(series.counts, rows)
        np.testing.assert_array_equal(series.values, values)
        np.testing.assert_array_equal(series.times, plan.times())
        expected_shots = plan.shots() if mode == "sampled" else np.zeros(plan.nt, dtype=np.int64)
        np.testing.assert_array_equal(series.shots, expected_shots)
        assert series.channel == CHANNEL_FOR_INPUT[input_id]


# Unequal nt, ne and strategy per input, 5664 rows in all: psi2 spans the first
# two blocks, psi2's endpoints and every psi4 row draw more than 60 shots, psi3
# draws one, and the fifth input closes the stack.
MIXED_INPUTS = [
    (PSI1, plan_observation(0.6, 300, 10, "uniform")),
    (PSI2, plan_observation(1.8, 5000, 100, "endpoint")),
    (PSI3, plan_observation(0.8, 64, 1, "uniform")),
    (PSI4, plan_observation(2.0, 200, 61, "uniform")),
    (PSI5, plan_observation(2.6, 100, 7, "endpoint")),
]


@pytest.mark.parametrize("eta", [0.0, 0.05])
@pytest.mark.parametrize("mode", MODES)
def test_one_record_pass_gives_each_input_the_table_it_gets_alone(mode, eta):
    """Each input's slice equals that input recorded alone, and row j equals point j evolved,
    read out and, when sampled, drawn from point_rng(seed, input, j, channel) on its own
    (every 97th row and the endpoints)."""
    table = _record(H_REF, MIXED_INPUTS, 29, eta, mode)
    assert len(table) == sum(plan.nt for _, plan in MIXED_INPUTS) > RECORD_BLOCK_ROWS
    assert table.dtype == (np.int64 if mode == "sampled" else float)
    start = 0
    for input_id, plan in MIXED_INPUTS:
        rows = table[start : start + plan.nt]
        start += plan.nt
        np.testing.assert_array_equal(rows, _record(H_REF, [(input_id, plan)], 29, eta, mode))
        channel = "xz" if input_id == PSI5 else CHANNEL_FOR_INPUT[input_id]
        psi0 = prepare_input(input_id, eta)
        for j in sorted({*range(0, plan.nt, 97), plan.nt - 2, plan.nt - 1}):
            p = outcome_probs_batch(evolve_batch(H_REF, psi0, plan.times()[j : j + 1]), channel)[0]
            if mode == "sampled":
                p = point_rng(29, input_id, j, channel).multinomial(plan.shots()[j], p / p.sum())
            np.testing.assert_array_equal(rows[j], p)


@pytest.mark.parametrize("mode", MODES)
def test_characterize_fits_each_input_as_simulate_series_records_it(mode):
    plans = {input_id: plan for input_id, plan in MIXED_INPUTS if input_id in INPUT_IDS}
    report = characterize(H_REF, plans, seed=29, eta=0.05, mode=mode)
    for input_id, plan in plans.items():
        series = simulate_series(H_REF, input_id, plan, seed=29, eta=0.05, mode=mode)
        assert report.estimates[input_id] == estimate_combination(series, plan)[2]


def test_characterize_builds_no_concurrence_series(monkeypatch):
    """characterize fits each input's slice of its recorded table and estimates no C^2 value.

    H_REF at nt=64, ne=4, seed 11 also measures the fifth input, and
    (0.7, 0.7, 0.3) has a degenerate line.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("characterize estimated C^2")

    runs = [
        (h, default_plans(h, 64, 4, strategy), mode)
        for h in (H_REF, HamiltonianParams(0.7, 0.7, 0.3))
        for strategy in STRATEGIES
        for mode in MODES
    ]
    expected = [characterize(h, plans, seed=11, mode=mode) for h, plans, mode in runs]
    monkeypatch.setattr("entmap.recon.build_series", refuse)
    monkeypatch.setattr("entmap.concest.concurrence_sq_reduced", refuse)
    for (h, plans, mode), report in zip(runs, expected):
        assert characterize(h, plans, seed=11, mode=mode) == report


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_characterize_traced_memory_per_time_point_stays_at_the_fits_level():
    """About 0.62 kB per point at nt = 2**14, ne = 10, sampled; recording the four inputs unblocked reaches 3.9 kB.

    The bound is the 0.76 kB per point (191 B per recorded point) the full
    float64 rate scan peaked at, plus 2%.
    """
    nt = 2**14
    plans = default_plans(H_REF, nt, 10)
    assert traced_peak(lambda: characterize(H_REF, plans, seed=3)) / nt <= 1.02 * 4 * 191.0


@pytest.mark.parametrize("strategy, parents", [("uniform", 636.0), ("endpoint", 486.0)])
def test_estimate_combination_traced_memory_per_time_point_stays_at_or_below_the_float64_scans(strategy, parents):
    """One line at nt = 2**14 peaks at about 412 B per point; the full float64 rate scan took `parents`.

    The float32 screen reduces its phases a block of rates at a time, so it
    never holds a full float64 (rates, rows) array next to its float32 ones.
    """
    nt = 2**14
    plan = default_plans(H_REF, nt, 10, strategy)[PSI1]
    series = simulate_series(H_REF, PSI1, plan, seed=3)
    assert traced_peak(lambda: estimate_combination(series, plan)) / nt <= 1.02 * parents


# Desk inputs (jittered H_REF, default plans at nt=200, ne=10) with |c1| ~ |c3|
# whose four-input inversion picks the swapped (b, a, b) candidate.
SWAP_CASES = [
    ((1.2993350009575484, 0.6219111884516259, 1.299421972328047), 1955147359915445867),
    ((1.2956161322416373, 0.6561934120107349, 1.295727143427733), 1421089332665720074),
    ((1.2943192337656784, 0.5659074770270474, 1.2946162803366166), 8508083374400663794),
    ((1.2644709656506146, 0.5552502613631355, 1.2649657833748862), 2809824984459132541),
]


@pytest.mark.parametrize("truth,seed", SWAP_CASES)
def test_characterize_resolves_the_c1_c3_swap(truth, seed):
    h = HamiltonianParams(*truth)
    plans = default_plans(h, 200, 10)
    result = characterize(h, plans, seed).result
    assert result.fifth_input_used
    miss = np.abs(np.array(result.c_hat.as_tuple()) - np.array(truth))
    assert np.all(miss <= 5.0 * np.array(result.sigma))
    # Without the fifth input the four-input choice is the swapped candidate.
    quad = characterize(h, plans, seed).quad
    four_input = invert_frequencies(quad)
    assert four_input.ambiguous
    assert np.any(np.abs(np.array(four_input.c_hat.as_tuple()) - truth) > 5.0 * np.array(four_input.sigma))


def test_characterize_noiseless_xxz_y_axis_returns_the_truth():
    """(1, 0.5, 1) and (0.5, 1, 0.5) give the same four traces; |0>|+> tells them apart."""
    h = HamiltonianParams(1.0, 0.5, 1.0)
    report = characterize(h, default_plans(h, 200, 10), seed=0, mode="noiseless")
    np.testing.assert_allclose(report.result.c_hat.as_tuple(), (1.0, 0.5, 1.0), atol=1e-6)
    assert report.result.fifth_input_used
    (other,) = report.result.alternatives
    np.testing.assert_allclose(other.c_hat.as_tuple(), (0.5, 1.0, 0.5), atol=1e-6)

    four_input = invert_frequencies(report.quad)
    assert four_input.ambiguous and not four_input.fifth_input_used
    np.testing.assert_allclose(four_input.c_hat.as_tuple(), (0.5, 1.0, 0.5), atol=1e-6)


def test_invert_unambiguous_quad_has_no_alternatives():
    result = invert_frequencies(exact_quad(H_REF, fractional=0.01))
    assert not result.ambiguous
    assert result.alternatives == ()


def test_fifth_input_confirms_a_right_four_input_choice():
    """At nt=64, ne=4 the wide noise floor admits (b, a, b); the fifth input keeps the truth."""
    report = characterize(H_REF, default_plans(H_REF, 64, 4), seed=11)
    assert report.result.fifth_input_used
    assert report.result.c_hat == invert_frequencies(report.quad).c_hat
