"""Unit tests for input preparation, basis rotation, and finite-shot sampling."""

import numpy as np
import pytest

from entmap import measure
from entmap.measure import (
    CHANNELS,
    READOUT_ROTATIONS,
    outcome_probs_batch,
    point_rng,
    prepare_input,
    sample_counts_batch,
    stream_words,
)
from entmap.qcore import ALL_INPUTS, PSI1, PSI2, PSI3, PSI4, HamiltonianParams, evolve_batch
from entmap.spectral import plan_observation

H_REF = HamiltonianParams(1.2, 0.6, 1.4)


def test_ideal_preparations():
    np.testing.assert_allclose(
        prepare_input(PSI1), [1, 0, 0, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        prepare_input(PSI3), [0.5, 0.5, 0.5, 0.5], atol=1e-15
    )
    np.testing.assert_allclose(
        prepare_input(PSI4), [0.5, -0.5, 0.5, -0.5], atol=1e-15
    )


def test_contaminated_preparation_mixes_the_partner():
    eta = 0.04
    norm = 1.0 / np.sqrt(1.0 + eta)
    got = prepare_input(PSI1, eta)
    np.testing.assert_allclose(got, [norm, np.sqrt(eta) * norm, 0.0, 0.0], atol=1e-12)

    got34 = prepare_input(PSI3, eta)
    base = np.array([0.5, 0.5, 0.5, 0.5])
    partner = np.array([0.5, -0.5, 0.5, -0.5])
    np.testing.assert_allclose(got34, norm * (base + np.sqrt(eta) * partner), atol=1e-12)


def test_prepare_input_validation():
    with pytest.raises(ValueError):
        prepare_input("psi9")
    with pytest.raises(ValueError):
        prepare_input(PSI1, eta=-0.1)
    with pytest.raises(ValueError):
        prepare_input(PSI1, eta=1.0)


def test_basis_rotation_shapes():
    assert CHANNELS == ("zz", "xz")
    for channel in CHANNELS:
        r = READOUT_ROTATIONS[channel]
        np.testing.assert_allclose(r.conj().T @ r, np.eye(4), atol=1e-12)


def test_outcome_probs_computational_state():
    p = outcome_probs_batch([0.0, 1.0, 0.0, 0.0], "zz")
    np.testing.assert_allclose(p, [[0.0, 1.0, 0.0, 0.0]], atol=1e-15)


def test_outcome_probs_x_measurement_of_z_eigenstate():
    """|00> is undetermined along x on qubit one, definite along z on qubit two."""
    p = outcome_probs_batch([1.0, 0.0, 0.0, 0.0], "xz")
    np.testing.assert_allclose(p, [[0.5, 0.0, 0.5, 0.0]], atol=1e-15)


def test_outcome_probs_protocol_selection_rules():
    """Evolution never populates the cross outcomes of each input's channel."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        h = HamiltonianParams(*rng.uniform(-2, 2, size=3))
        t = float(rng.uniform(0.0, 6.0))
        states = {i: evolve_batch(h, prepare_input(i), [t]) for i in (PSI1, PSI2, PSI3, PSI4)}
        zz = {i: outcome_probs_batch(s, "zz")[0] for i, s in states.items()}
        # Columns are (++, +-, -+, --).
        np.testing.assert_allclose(zz[PSI1][[1, 2]], 0.0, atol=1e-12)
        np.testing.assert_allclose(zz[PSI2][[0, 3]], 0.0, atol=1e-12)
        for input_id in (PSI3, PSI4):
            np.testing.assert_allclose(zz[input_id], 0.25, atol=1e-12)


def test_outcome_probs_validation():
    with pytest.raises(ValueError, match="normalized"):
        outcome_probs_batch([1.0, 1.0, 0.0, 0.0], "zz")
    with pytest.raises(ValueError, match="finite"):
        outcome_probs_batch([np.nan, 0.0, 0.0, 0.0], "xz")
    states = evolve_batch(H_REF, prepare_input(PSI3), [0.3, 0.7, 1.1])
    p = outcome_probs_batch(states, "xz")
    assert p.shape == (3, 4)
    assert np.all((p >= 0.0) & (p <= 1.0))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-15)


def test_sample_counts_totals_and_support():
    probs = np.tile([0.0, 1.0, 0.0, 0.0], (3, 1))
    counts = sample_counts_batch(probs, [17, 1, 0], 22, PSI1, "zz")
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, [[0, 17, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])


def test_sample_counts_is_unbiased():
    """Empirical frequencies average to the table over many independent point streams."""
    p = np.array([0.4, 0.3, 0.2, 0.1])
    shots = 100
    n_points = 1000
    counts = sample_counts_batch(np.tile(p, (n_points, 1)), np.full(n_points, shots), 22, PSI1, "zz")
    mean = (counts / shots).mean(axis=0)
    se = np.sqrt(p * (1.0 - p) / (shots * n_points))
    assert np.all(np.abs(mean - p) <= 5.0 * se)


def test_sample_counts_concentration_at_large_shots():
    counts = sample_counts_batch(np.full((1, 4), 0.25), [1_000_000], 23, PSI1, "zz")
    sigma = np.sqrt(1_000_000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 250_000) <= 5.0 * sigma)


def test_point_rng_reproducible_and_distinct():
    a1 = point_rng(42, PSI1, 3, "zz").random(8)
    a2 = point_rng(42, PSI1, 3, "zz").random(8)
    np.testing.assert_array_equal(a1, a2)

    b = point_rng(42, PSI1, 4, "zz").random(8)
    c = point_rng(42, PSI2, 3, "zz").random(8)
    d = point_rng(42, PSI1, 3, "xz").random(8)
    e = point_rng(43, PSI1, 3, "zz").random(8)
    for other in (b, c, d, e):
        assert not np.array_equal(a1, other)


def test_point_rng_validation():
    with pytest.raises(ValueError, match="unknown input id 'psi9'"):
        point_rng(1, "psi9", 0, "zz")
    with pytest.raises(ValueError):
        point_rng(1, PSI1, -1, "zz")
    with pytest.raises(ValueError, match="unknown channel 'yy'"):
        point_rng(1, PSI1, 0, "yy")
    # numpy's SeedSequence refuses a negative entropy the same way.
    with pytest.raises(ValueError, match="non-negative integer"):
        np.random.SeedSequence(-1, spawn_key=(0, 0, 0))
    with pytest.raises(ValueError, match="non-negative integer"):
        point_rng(-1, PSI1, 0, "zz")
    with pytest.raises(ValueError):
        point_rng(1, PSI1, 2**32, "zz")


def test_grid_streams_validate_like_point_rng():
    probs = np.full((3, 4), 0.25)
    for seed, input_id, channel, message in [
        (-1, PSI1, "zz", "non-negative integer"),
        (1, "psi9", "zz", "unknown input id 'psi9'"),
        (1, PSI1, "yy", "unknown channel 'yy'"),
    ]:
        with pytest.raises(ValueError, match=message):
            stream_words(seed, input_id, channel, range(3))
        with pytest.raises(ValueError, match=message):
            sample_counts_batch(probs, [1, 1, 1], seed, input_id, channel)
    with pytest.raises(ValueError, match="one shot count per probability row"):
        sample_counts_batch(probs, [1, 1], 1, PSI1, "zz")


# Entropies on both sides of numpy's uint32-word boundaries, and one that
# needs more words than the pool holds.
ENTROPIES = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**130 + 2**64 + 5]


def numpy_seed_sequence(entropy, input_id, time_index, channel):
    return np.random.SeedSequence(
        entropy, spawn_key=(ALL_INPUTS.index(input_id), time_index, CHANNELS.index(channel))
    )


@pytest.mark.parametrize("entropy", ENTROPIES)
def test_stream_words_and_point_rng_equal_numpy_streams(entropy):
    index = np.array([0, 1, 2, 37, 399, 2**31, 2**32 - 1])
    for input_id in ALL_INPUTS:
        for channel in CHANNELS:
            words = stream_words(entropy, input_id, channel, index)
            assert words.dtype == np.uint64 and words.shape == (index.size, 4)
            for row, j in zip(words, index):
                want = numpy_seed_sequence(entropy, input_id, int(j), channel).generate_state(4, np.uint64)
                np.testing.assert_array_equal(row, want)
            got = point_rng(entropy, input_id, 37, channel)
            want = np.random.Generator(np.random.PCG64(numpy_seed_sequence(entropy, input_id, 37, channel)))
            np.testing.assert_array_equal(got.random(6), want.random(6))
            pvals = [0.1, 0.2, 0.3, 0.4]
            np.testing.assert_array_equal(got.multinomial(9, pvals), want.multinomial(9, pvals))
            assert got.bit_generator.state == want.bit_generator.state


def numpy_counts(probs, shots, entropy, input_id, channel):
    """Row j drawn as point j's own numpy Generator draws it."""
    return np.array(
        [
            np.random.Generator(np.random.PCG64(numpy_seed_sequence(entropy, input_id, j, channel))).multinomial(
                shots[j], p / p.sum()
            )
            for j, p in enumerate(probs)
        ]
    ).reshape(-1, 4)


point_generator = measure._generator


def assert_rows_equal(got, want):
    bad = np.flatnonzero((got != want).any(axis=1))
    assert bad.size == 0, f"row {bad[0]}: got {got[bad[0]].tolist()}, numpy draws {want[bad[0]].tolist()}"


# Both sides of the 60-shot line the array sampler replays up to: uniform 60
# and 61 shots, and endpoint plans whose last two points take 25 or 1024.
PLANS = [
    plan_observation(0.6, 24, 25, "endpoint"),
    plan_observation(0.6, 24, 60, "uniform"),
    plan_observation(0.6, 24, 61, "uniform"),
    plan_observation(0.6, 24, 1024, "endpoint"),
]


# Zero-shot rows, zero outcomes, a category above one half and a certain outcome.
HAND_TABLE = np.array(
    [
        [0.7, 0.1, 0.1, 0.1],
        [0.0, 0.9, 0.0, 0.1],
        [0.2, 0.0, 0.8, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.25, 0.25, 0.25, 0.25],
    ]
)


@pytest.mark.parametrize("entropy", ENTROPIES)
def test_sample_counts_batch_equals_numpy_streams(entropy):
    """Every plan, every input including the fifth, both channels (psi1 and psi2 read in zz have
    zero outcomes), then the hand table at shots on both sides of 60."""
    for plan in PLANS:
        shots = plan.shots()
        for input_id in ALL_INPUTS:
            states = evolve_batch(H_REF, prepare_input(input_id, 0.05), plan.times())
            for channel in CHANNELS:
                probs = outcome_probs_batch(states, channel)
                counts = sample_counts_batch(probs, shots, entropy, input_id, channel)
                assert_rows_equal(counts, numpy_counts(probs, shots, entropy, input_id, channel))
                np.testing.assert_array_equal(counts.sum(axis=1), shots)
    for shots in ([0] * 6, [1] * 6, [60] * 6, [61] * 6, [0, 7, 60, 61, 2, 5000]):
        counts = sample_counts_batch(HAND_TABLE, shots, entropy, PSI3, "xz")
        assert_rows_equal(counts, numpy_counts(HAND_TABLE, shots, entropy, PSI3, "xz"))


def test_sample_counts_batch_equals_numpy_streams_on_random_tables(monkeypatch):
    """Seeded Dirichlet tables, a third of them with zeroed outcomes, shots 0 to 80; numpy row by row."""
    rng = np.random.default_rng(20)
    probs = rng.dirichlet(np.full(4, 0.7), size=3000)
    sparse = rng.random(probs.shape) < 0.3
    sparse[: len(probs) * 2 // 3] = False
    probs[sparse] = 0.0
    probs[probs.sum(axis=1) == 0.0, 3] = 1.0
    shots = rng.integers(0, 81, size=len(probs))
    generators = []

    def counting_generator(stream, rng):
        generators.append(stream)
        return point_generator(stream, rng)

    monkeypatch.setattr(measure, "_generator", counting_generator)
    counts = sample_counts_batch(probs, shots, 2**64 + 9, PSI2, "zz")
    assert_rows_equal(counts, numpy_counts(probs, shots, 2**64 + 9, PSI2, "zz"))
    # The replay itself draws every row of at most 60 shots.
    assert len(generators) == np.count_nonzero(shots > 60)


def test_rows_whose_inversion_restarts_are_drawn_by_their_own_generator(monkeypatch):
    """Binomial(60, 0.01) by inversion has bound 13; a uniform just below 1 runs past it and restarts.

    The replay hands such rows back, and the row's own generator draws them from its seeded state.
    """
    probs = np.array([[0.01, 0.01, 0.01, 0.97], [1.0, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4]])
    shots = np.array([60, 10, 0])
    below_one = 1.0 - 2.0**-53
    _, redraw = measure._inversion_counts(probs, shots, np.full((3, 3), below_one))
    # Row 1's one binomial has p = 1 and draws nothing by inversion; row 2 has no shots.
    np.testing.assert_array_equal(redraw, [True, False, False])
    monkeypatch.setattr(measure, "_stream_doubles", lambda streams, count: np.full((len(streams), count), below_one))
    counts = sample_counts_batch(probs, shots, 11, PSI1, "zz")
    np.testing.assert_array_equal(counts, numpy_counts(probs, shots, 11, PSI1, "zz"))


HALF = [0.5, 0.5, 0.0, 0.0]


def test_inversion_stops_on_a_tie_as_numpy_does(monkeypatch):
    """numpy's inversion loops while U > px, so U == qn stops it at X = 0.

    With p = (1/2, 1/2, 0, 0) and one shot, qn = exp(log(1/2)) = 1/2: a uniform of exactly 1/2 puts
    no shot in the first category, and the second binomial (p = 1) takes it.
    """
    monkeypatch.setattr(measure, "_stream_doubles", lambda streams, count: np.full((len(streams), count), 0.5))
    np.testing.assert_array_equal(sample_counts_batch([HALF], [1], 3, PSI1, "zz"), [[0, 1, 0, 0]])


@pytest.mark.parametrize(
    "probs, shots, message",
    [
        pytest.param([HALF, HALF], [2.5, 3], "row 0: shots must be a whole number", id="half-shot"),
        pytest.param([HALF, HALF], [3, np.inf], "row 1: shots must be a whole number", id="infinite-shots"),
        pytest.param([HALF, HALF], [3, 2**63], "row 1: shots must be a whole number", id="2**63-shots"),
        pytest.param([HALF, HALF], [3, -1], "row 1: shots must be >= 0", id="negative-shots"),
        pytest.param([HALF, [np.nan, 0.5, 0, 0]], [3, 3], "row 1: probabilities and their sum", id="nan"),
        pytest.param([[0.5, np.inf, 0, 0], HALF], [3, 3], "row 0: probabilities and their sum", id="inf"),
        pytest.param([HALF, [1e308, 1e308, 0, 0]], [3, 3], "row 1: probabilities and their sum", id="overflow"),
        pytest.param([HALF, [0.5, 0.6, -0.1, 0]], [3, 3], "row 1: probabilities must be >= 0", id="negative"),
        pytest.param([HALF, [0, 0, 0, 0]], [3, 0], "row 1: probabilities are all zero", id="all-zero"),
    ],
)
def test_sample_counts_batch_checks_its_input_before_drawing(probs, shots, message):
    with pytest.raises(ValueError, match=message):
        sample_counts_batch(probs, shots, 1, PSI1, "zz")


def test_a_row_of_2_63_minus_1_shots_is_drawn_as_numpy_draws_it():
    """Integer shots are checked exactly; through float, 2**63 - 1 would round to 2**63 and be refused."""
    most = 2**63 - 1
    p = np.array([0.125, 0.25, 0.125, 0.5])
    counts = sample_counts_batch([p], [most], 5, PSI1, "zz")
    np.testing.assert_array_equal(counts[0], point_rng(5, PSI1, 0, "zz").multinomial(most, p))


def test_unknown_channel_is_rejected():
    with pytest.raises(ValueError, match="unknown channel 'zx'"):
        outcome_probs_batch([1.0, 0.0, 0.0, 0.0], "zx")
