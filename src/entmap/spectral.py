"""Observation planning, discrete spectra, and the likelihood line fit.

A concurrence trace C^2(t) = sin^2(2 w t) oscillates at angular frequency 4w, so
planning targets 4w when picking the sampling step, and dft/find_peak report
lines on that axis.  The counts behind the trace carry the same line more
simply: qubit 1 reads - with probability sin^2(w t), so fit_line estimates w
from the binomial likelihood of those counts (Rife & Boorstyn's single-tone
maximum-likelihood estimator, applied to counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import xlogy

# Sampling margin above Nyquist for the fastest expected spectral line.
NYQUIST_MARGIN = 1.25

STRATEGIES = ("uniform", "endpoint")

# Shots spent at each interior time point by the endpoint strategy.
ENDPOINT_INTERIOR_SHOTS = 2

# Outcomes (-+, --), qubit 1 reading -: in every protocol input's own channel
# they occur with probability exactly sin^2(w t), w the input's combination.
SUCCESS_OUTCOMES = [2, 3]

# Mean k/n below which a series carries no line.  A line's k/n averages 1/2
# over whole cycles.  A zero combination has no successes of its own; a
# preparation error of weight eta < 1 leaks in at most eta/(1 + eta) < 1/2, an
# oscillation that averages below 1/4.
DEGENERATE_MEAN = 0.25


class NoOscillationError(RuntimeError):
    """Raised when a spectrum carries no usable oscillation power."""


@dataclass(frozen=True)
class SamplingPlan:
    """Time grid t_j = j*dt for j = 1..nt, plus the shot budget ne.

    uniform: ne shots at every time point.
    endpoint: ENDPOINT_INTERIOR_SHOTS shots at interior points and ne at each
    of the final two, concentrating statistics where the phase lever arm is
    longest.  Either way ne is the budget figure of the resolution formula.
    """

    nt: int
    dt: float
    strategy: str = "uniform"
    ne: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.nt, (int, np.integer)) or self.nt < 4:
            raise ValueError(f"nt must be an integer >= 4, got {self.nt!r}")
        if not (isinstance(self.dt, (int, float)) and math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be a positive finite number, got {self.dt!r}")
        span = self.nt * self.dt
        if not (math.isfinite(span) and math.isfinite(2.0 * math.pi / span)):
            raise ValueError(f"nt*dt and the bin width 2*pi/(nt*dt) must be finite, got nt*dt = {span!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if not isinstance(self.ne, (int, np.integer)) or self.ne < 1:
            raise ValueError(f"ne must be an integer >= 1, got {self.ne!r}")

    def times(self) -> np.ndarray:
        return self.dt * np.arange(1, self.nt + 1)

    def shots(self) -> np.ndarray:
        """Shots at each time point, aligned with times()."""
        if self.strategy == "endpoint":
            shots = np.full(self.nt, ENDPOINT_INTERIOR_SHOTS, dtype=np.int64)
            shots[-2:] = self.ne
            return shots
        return np.full(self.nt, self.ne, dtype=np.int64)

    def total_measurements(self) -> int:
        """Budget figure N; the endpoint strategy uses the 2*nt + 2*ne accounting."""
        if self.strategy == "endpoint":
            return 2 * self.nt + 2 * self.ne
        return self.nt * self.ne

    @property
    def bin_width(self) -> float:
        """Angular-frequency spacing of the DFT grid for this time grid."""
        return 2.0 * math.pi / (self.nt * self.dt)


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum on an angular-frequency grid."""

    omegas: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.omegas, dtype=float)
        m = np.asarray(self.magnitudes, dtype=float)
        if w.shape != m.shape or w.ndim != 1:
            raise ValueError("omegas and magnitudes must be 1-d arrays of equal length")
        object.__setattr__(self, "omegas", w)
        object.__setattr__(self, "magnitudes", m)


@dataclass(frozen=True)
class PeakLocation:
    bin_index: int
    omega: float
    magnitude: float


@dataclass(frozen=True)
class FrequencyEstimate:
    """Fitted coupling-combination magnitude with its fractional resolution.

    omega_hat is the estimate of |c_i +/- c_j|.  raw_peak_omega is the fit's
    seed line on the C^2 axis, where the line sits at 4 * omega_hat.
    """

    omega_hat: float
    delta_f_over_f: float
    raw_peak_omega: float

    @property
    def sigma(self) -> float:
        return self.omega_hat * self.delta_f_over_f


def resolution_epsilon(nt: int, ne: int) -> float:
    """Fractional frequency resolution 4/(nt*sqrt(ne)) of the estimation protocol."""
    if nt < 4 or ne < 1:
        raise ValueError(f"need nt >= 4 and ne >= 1, got nt={nt!r}, ne={ne!r}")
    return 4.0 / (nt * math.sqrt(ne))


def plan_observation(omega_guess: float, nt: int, ne: int, strategy: str = "uniform") -> SamplingPlan:
    """Pick dt so the expected line at 4*omega_guess sits below Nyquist by NYQUIST_MARGIN.

    dt = 2*pi / (2 * margin * 4 * omega_guess) = pi / (5 * omega_guess) at the
    default margin.  With that step the expected line lands exactly on DFT bin
    0.4*nt whenever that is an integer.
    """
    if not (isinstance(omega_guess, (int, float)) and math.isfinite(omega_guess) and omega_guess > 0):
        raise ValueError(
            f"omega_guess must be positive and finite, got {omega_guess!r}; "
            "plan a zero combination around another rate, as recon.planning_guesses does"
        )
    dt = 2.0 * math.pi / (2.0 * NYQUIST_MARGIN * 4.0 * omega_guess)
    return SamplingPlan(nt, dt, strategy, ne)


def dft(series) -> Spectrum:
    """Magnitude of the one-sided DFT of a ConcurrenceSeries' mean-subtracted values.

    The frequency grid is 2*pi*k/(nt*dt) for k = 0..nt//2.
    """
    centered = series.values - series.values.mean()
    magnitudes = np.abs(np.fft.rfft(centered))
    omegas = 2.0 * math.pi * np.fft.rfftfreq(series.values.size, d=series.dt)
    return Spectrum(omegas, magnitudes)


def find_peak(spectrum: Spectrum) -> PeakLocation:
    """Dominant bin of the spectrum, excluding the DC bin and its neighbor.

    Ties resolve to the lower bin.  A spectrum with no power above numerical
    dust raises NoOscillationError.
    """
    mags = spectrum.magnitudes
    if mags.size < 3:
        raise ValueError("spectrum too short to search for a peak")
    search = mags[2:]
    best = int(np.argmax(search)) + 2
    # Mean subtraction leaves only rounding noise when nothing oscillates.
    if float(mags[best]) <= 1e-9 * mags.size:
        raise NoOscillationError("spectrum carries no oscillation power above numerical noise")
    return PeakLocation(bin_index=best, omega=float(spectrum.omegas[best]), magnitude=float(mags[best]))


def _endpoint_amplitude(series, shots_end: float) -> float:
    """Expected oscillation amplitude of the estimator at the endpoint blocks.

    The product-form estimator (zz counts only) shrinks the signal by exactly
    1 - 1/shots; the trigonometric estimators are unbiased to O(1/shots), so
    series that involve the xz channel keep the ideal amplitude 1.
    """
    return 1.0 - 1.0 / shots_end if series.channel == "zz" else 1.0


def _endpoint_phase_polish(
    times: np.ndarray, values: np.ndarray, w_anchor: float, amplitude: float
) -> float:
    """Refine the sin^2 rate using only the two final high-budget points.

    The anchor fixes the oscillation cycle; within half a cycle spacing the
    rate is re-solved from the endpoint values against the pinned model
    amplitude*sin^2(w t).  Pinning both amplitude and offset leaves a single
    unknown for two observations, so the minimum is set by the measured phase
    rather than by exact two-point interpolation.
    """
    t_end = times[-2:]
    y_end = values[-2:]
    half_window = 0.45 * math.pi / float(times[-1])

    def endpoint_sse(w: float) -> float:
        r = amplitude * np.sin(w * t_end) ** 2 - y_end
        return float(r @ r)

    result = minimize_scalar(
        endpoint_sse,
        bounds=(w_anchor - half_window, w_anchor + half_window),
        method="bounded",
        options={"xatol": 1e-13},
    )
    return float(result.x)


def _neg_log_likelihood(rates, t: np.ndarray, k: np.ndarray, n: np.ndarray):
    """-log L of k ~ Binomial(n, sin^2(w t)) at each rate w, up to a constant."""
    phase = np.multiply.outer(rates, t)
    return -(xlogy(k, np.sin(phase) ** 2) + xlogy(n - k, np.cos(phase) ** 2)).sum(axis=-1)


def fit_line(series, plan: SamplingPlan) -> FrequencyEstimate | None:
    """Maximum-likelihood combination magnitude from a series' success counts.

    k_j, the SUCCESS_OUTCOMES columns of series.counts, is Binomial(n_j,
    sin^2(w t_j)) with n_j the row total; an exact table is fractional counts
    with n_j = 1.  The seed is the strongest non-DC bin of the rfft of k/n,
    where the line sits at 2w.  41 rates within 0.75 bin of it are scanned, and
    bounded Brent refines the best one between its neighbours.  The uniform
    strategy fits every point; the endpoint strategy fits the interior points
    and hands the rate to the phase polish against the two high-budget endpoint
    blocks (below nt = 8 it fits every point, as too few interior points are
    left to anchor the rate).  Returns None when k/n averages below
    DEGENERATE_MEAN (the combination is 0), otherwise omega_hat = w with the
    resolution figure 4/(nt*sqrt(ne)).
    """
    if series.counts is None:
        raise ValueError("the likelihood fit needs the series' outcome counts")
    if not np.array_equal(series.times, plan.times()):
        raise ValueError("series.times must equal plan.times()")
    counts = np.asarray(series.counts, dtype=float)
    n = counts.sum(axis=1)
    k = counts[:, SUCCESS_OUTCOMES].sum(axis=1)
    success_frac = k / n
    if success_frac.mean() < DEGENERATE_MEAN:
        return None
    bin_w = plan.bin_width
    seed_line = (int(np.argmax(np.abs(np.fft.rfft(success_frac))[1:])) + 1) * bin_w

    fit = slice(0, -2) if plan.strategy == "endpoint" and plan.nt >= 8 else slice(None)
    args = (series.times[fit], k[fit], n[fit])
    grid = (seed_line + bin_w * np.linspace(-0.75, 0.75, 41)) / 2.0
    i = int(np.argmin(_neg_log_likelihood(grid, *args)))
    bracket = (float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)]))
    result = minimize_scalar(
        _neg_log_likelihood, bounds=bracket, args=args, method="bounded", options={"xatol": 1e-13}
    )
    w = float(result.x)
    shots_end = float(series.shots[-1])
    if plan.strategy == "endpoint" and shots_end >= 2.0:
        amplitude = _endpoint_amplitude(series, shots_end)
        w = _endpoint_phase_polish(series.times, series.values, 2.0 * w, amplitude) / 2.0
    return FrequencyEstimate(
        omega_hat=w,
        delta_f_over_f=resolution_epsilon(plan.nt, plan.ne),
        raw_peak_omega=2.0 * seed_line,
    )


def cosine_amplitudes(times: np.ndarray, values: np.ndarray, omegas: dict[str, float]) -> dict[str, float]:
    """Least-squares amplitudes of cos(omega*t) components at known positions.

    Exact for noiseless traces, immune to DFT leakage.  Frequencies that
    coincide (within rounding) share one regression column; a frequency at DC is
    indistinguishable from the constant term and reports amplitude 0.
    """
    unique: list[float] = []
    column_of: dict[str, int | None] = {}
    for label, w in omegas.items():
        if w < 1e-9:
            column_of[label] = None
            continue
        for k, u in enumerate(unique):
            if abs(w - u) < 1e-9 * max(w, u):
                column_of[label] = k
                break
        else:
            column_of[label] = len(unique)
            unique.append(w)
    design = np.column_stack([np.ones_like(times)] + [np.cos(w * times) for w in unique])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return {
        label: (0.0 if col is None else float(abs(coef[col + 1])))
        for label, col in column_of.items()
    }
