"""Coupling reconstruction from measured oscillation frequencies, and the full pipeline.

The four protocol inputs yield the magnitudes of four linear combinations of the
couplings: |c1 - c2|, |c1 + c2|, |c2 - c3|, |c2 + c3|.  Magnitudes lose signs, and
H and -H generate identical concurrence traces, so reconstruction enumerates sign
assignments and resolves the leftover global ambiguity with a fixed convention.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .concest import CHANNEL_FOR_INPUT, ConcurrenceSeries, build_series
from .measure import outcome_probs_batch, prepare_input, sample_counts_batch
from .qcore import (
    COMBINATION_NULL,
    COMBINATION_PINV,
    INPUT_IDS,
    PSI1,
    PSI5,
    HamiltonianParams,
    combinations,
    evolve_batch,
)
from .spectral import FrequencyEstimate, SamplingPlan, fit_line, plan_observation

SIGN_CONVENTION = "c2 >= 0"
# Every sign assignment of the four measured magnitudes, one per row.
SIGN_PATTERNS = np.array(list(itertools.product((1.0, -1.0), repeat=4)))

# A runner-up candidate farther than this many quoted sigmas from the best
# (and from its mirror) on some coupling makes the inversion ambiguous.
AMBIGUITY_SIGMAS = 5.0
# A best residual above this many times the propagated frequency noise makes the quad inconsistent.
RESIDUAL_TOLERANCE_FACTOR = 3.0

MODES = ("sampled", "noiseless")

# Largest coupling magnitude the pipeline is run on.  Quoted sigmas are at
# most a few times the largest combination, and invert_frequencies squares
# them; below 1e150 those squares and their sums stay far from the float64
# maximum (about 1.8e308).
MAX_COUPLING = 1e150


class InconsistentFrequencyError(RuntimeError):
    """No sign assignment reproduces the measured frequency quad within tolerance."""


@dataclass(frozen=True)
class FrequencyQuad:
    """Measured magnitudes (w1, w2, w3, w4) of the four coupling combinations.

    sigmas are absolute one-sigma uncertainties; a degenerate (zero) combination
    carries a one-bin uncertainty rather than a fractional one.
    """

    values: tuple[float, float, float, float]
    sigmas: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.values) != 4 or len(self.sigmas) != 4:
            raise ValueError("quad needs exactly four values and four sigmas")
        for w in self.values:
            if not (math.isfinite(w) and w >= 0.0):
                raise ValueError(f"combination magnitudes must be >= 0, got {w!r}")
        for s in self.sigmas:
            if not (math.isfinite(s) and s >= 0.0):
                raise ValueError(f"sigmas must be >= 0, got {s!r}")
        object.__setattr__(self, "values", tuple(float(w) for w in self.values))
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))


@dataclass(frozen=True)
class ReconstructionResult:
    """Best-fit couplings with propagated uncertainties and fit diagnostics.

    alternatives lists the other candidates that fit the quad within the noise
    floor yet differ from c_hat by more than AMBIGUITY_SIGMAS on some coupling
    (the |c1| = |c3| family); fifth_input_used records that the |0>|+> input
    was measured to choose between them.
    """

    c_hat: HamiltonianParams
    sigma: tuple[float, float, float]
    residual: float
    convention: str = SIGN_CONVENTION
    candidates_considered: int = len(SIGN_PATTERNS)
    alternatives: tuple["ReconstructionResult", ...] = ()
    fifth_input_used: bool = False

    @property
    def ambiguous(self) -> bool:
        return bool(self.alternatives)


@dataclass(frozen=True)
class CharacterizationReport:
    """Everything the four-input pipeline learned in one run."""

    result: ReconstructionResult
    quad: FrequencyQuad
    estimates: dict[str, FrequencyEstimate]
    degenerate: dict[str, bool]


def invert_frequencies(quad: FrequencyQuad) -> ReconstructionResult:
    """Recover couplings from the four combination magnitudes.

    All 16 sign assignments y of the magnitudes are fitted at once in closed
    form: couplings y @ COMBINATION_PINV.T, residuals |y . COMBINATION_NULL|.
    A pattern and its H -> -H mirror give exact negatives, so c2 >= 0 keeps
    one of each pair (both when c2 = 0).  The minimum-residual survivor wins,
    exact ties going to larger c2, then c3, then c1.  A best residual above
    RESIDUAL_TOLERANCE_FACTOR times the propagated frequency noise makes the
    quad inconsistent.  Runner-up candidates within that tolerance that are
    neither the best nor its H -> -H mirror, to AMBIGUITY_SIGMAS, are returned
    as alternatives.
    """
    w = np.asarray(quad.values, dtype=float)
    sig = np.asarray(quad.sigmas, dtype=float)
    y = SIGN_PATTERNS * w
    # Adding 0.0 turns -0.0 into 0.0, so no reported coupling is a negative zero.
    couplings = y @ COMBINATION_PINV.T + 0.0
    residuals = np.abs(y @ COMBINATION_NULL)
    eligible = sorted(
        np.flatnonzero(couplings[:, 1] >= 0.0).tolist(),
        key=lambda i: (residuals[i], -couplings[i, 1], -couplings[i, 2], -couplings[i, 0]),
    )
    best = eligible[0]

    floor = max(float(np.linalg.norm(sig)), 1e-9 * max(float(w.max()), 1.0))
    tolerance = RESIDUAL_TOLERANCE_FACTOR * floor
    if residuals[best] > tolerance:
        raise InconsistentFrequencyError(
            f"no sign assignment fits the quad {quad.values}: best residual "
            f"{residuals[best]:.3e} exceeds {RESIDUAL_TOLERANCE_FACTOR} x noise floor {floor:.3e}"
        )

    # Linear propagation through the pseudoinverse used by the fit.
    sigma = tuple(np.sqrt(COMBINATION_PINV**2 @ sig**2).tolist())

    limit = AMBIGUITY_SIGMAS * np.asarray(sigma)
    kept = [best]
    for i in eligible[1:]:
        c = couplings[i]
        if residuals[i] <= tolerance and all(
            np.any(np.abs(c - couplings[k]) > limit) and np.any(np.abs(c + couplings[k]) > limit) for k in kept
        ):
            kept.append(i)
    results = [
        ReconstructionResult(HamiltonianParams(*couplings[i].tolist()), sigma, float(residuals[i])) for i in kept
    ]
    return replace(results[0], alternatives=tuple(results[1:]))


def planning_guesses(h_guess: HamiltonianParams) -> dict[str, float]:
    """Per-input rate to plan each observation around, from a prior guess.

    A combination too small to plan around (including exactly degenerate ones)
    borrows the largest combination so its flat trace is still recorded on a
    sensible grid.
    """
    mags = np.abs(combinations(h_guess))
    largest = float(mags.max())
    if largest <= 0.0:
        raise ValueError("all coupling combinations vanish; nothing to observe")
    return {
        input_id: float(w) if w > 1e-9 * largest else largest
        for input_id, w in zip(INPUT_IDS, mags)
    }


def default_plans(
    h_guess: HamiltonianParams, nt: int, ne: int, strategy: str = "uniform"
) -> dict[str, SamplingPlan]:
    """Per-input observation plans from a prior guess of the couplings."""
    return {
        input_id: plan_observation(guess, nt, ne, strategy)
        for input_id, guess in planning_guesses(h_guess).items()
    }


def _record(
    h: HamiltonianParams, input_id: str, channel: str, plan: SamplingPlan, seed: int, eta: float, mode: str
) -> np.ndarray:
    """One input read out in one channel over a plan's grid, as an (nt, 4) table.

    "sampled" draws integer counts, point j from its own point_rng stream;
    "noiseless" returns the exact outcome probabilities.
    """
    states = evolve_batch(h, prepare_input(input_id, eta), plan.times())
    probs = outcome_probs_batch(states, channel)
    if mode == "noiseless":
        return probs
    return sample_counts_batch(probs, plan.shots(), seed, input_id, channel)


def simulate_series(
    h: HamiltonianParams,
    input_id: str,
    plan: SamplingPlan,
    seed: int,
    eta: float = 0.0,
    mode: str = "sampled",
) -> ConcurrenceSeries:
    """Run one input through prepare/evolve/measure and estimate C^2 on the grid.

    mode "sampled" draws finite-shot counts from per-point seeded streams;
    "noiseless" keeps the exact probability tables.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    channel = CHANNEL_FOR_INPUT[input_id]
    table = _record(h, input_id, channel, plan, seed, eta, mode)
    return build_series(input_id, plan, table)


def estimate_combination(
    series: ConcurrenceSeries, plan: SamplingPlan
) -> tuple[float, float, FrequencyEstimate | None, bool]:
    """Estimate one combination magnitude from a series by spectral.fit_line.

    Returns (value, sigma_abs, estimate_or_None, degenerate).  A series whose
    success fraction averages below spectral.DEGENERATE_MEAN carries no line
    and is degenerate: value 0 with a one-bin absolute uncertainty.
    """
    estimate = fit_line(series, plan)
    if estimate is None:
        return 0.0, plan.bin_width / 4.0, None, True
    return estimate.omega_hat, estimate.sigma, estimate, False


def characterize(
    h_true: HamiltonianParams,
    plans: dict[str, SamplingPlan],
    seed: int,
    eta: float = 0.0,
    mode: str = "sampled",
) -> CharacterizationReport:
    """Full four-input pipeline: simulate, estimate frequencies, invert couplings."""
    values = []
    sigmas = []
    estimates: dict[str, FrequencyEstimate] = {}
    degenerate: dict[str, bool] = {}
    for input_id in INPUT_IDS:
        plan = plans[input_id]
        series = simulate_series(h_true, input_id, plan, seed, eta=eta, mode=mode)
        value, sigma, estimate, is_degenerate = estimate_combination(series, plan)
        values.append(value)
        sigmas.append(sigma)
        degenerate[input_id] = is_degenerate
        if estimate is not None:
            estimates[input_id] = estimate
    quad = FrequencyQuad(values=tuple(values), sigmas=tuple(sigmas))
    result = invert_frequencies(quad)
    if result.ambiguous:
        result = _resolve_with_fifth_input(h_true, result, plans[PSI1], seed, eta=eta, mode=mode)
    return CharacterizationReport(
        result=result,
        quad=quad,
        estimates=estimates,
        degenerate=degenerate,
    )


def _resolve_with_fifth_input(
    h_true: HamiltonianParams,
    result: ReconstructionResult,
    plan_like: SamplingPlan,
    seed: int,
    eta: float = 0.0,
    mode: str = "sampled",
) -> ReconstructionResult:
    """Pick among ambiguous candidates by measuring |0>|+> in the xz channel.

    Its lines sit at 4|c1 +/- c3|, which tell (a, b, a) from (b, a, b).  The
    grid is planned around the fastest candidate's |c1| + |c3| with plan_like's
    nt, ne and strategy, and the draws come from the fifth input's own
    point_rng streams.  The candidate whose exact outcome probabilities give
    the record the highest log-likelihood wins (the exact table stands in for
    the counts in noiseless mode); ties keep the four-input choice.
    """
    options = (replace(result, alternatives=()),) + result.alternatives
    guess = max(abs(r.c_hat.c1) + abs(r.c_hat.c3) for r in options)
    plan = plan_observation(guess, plan_like.nt, plan_like.ne, plan_like.strategy)
    record = _record(h_true, PSI5, "xz", plan, seed, eta, mode)
    psi0 = prepare_input(PSI5)
    scores = []
    for option in options:
        probs = outcome_probs_batch(evolve_batch(option.c_hat, psi0, plan.times()), "xz")
        scores.append(float(np.sum(record * np.log(np.maximum(probs, 1e-300)))))
    k = int(np.argmax(scores))
    return replace(
        options[k],
        alternatives=options[:k] + options[k + 1 :],
        fifth_input_used=True,
    )
