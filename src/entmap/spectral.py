"""Observation planning, discrete spectra, and oscillation-frequency refinement.

A concurrence trace C^2(t) = sin^2(2 w t) oscillates at angular frequency 4w, so
planning targets 4w when picking the sampling step and estimates are mapped back
down at the end: the refined fit works at 2w (the sin^2 argument rate) and
reports w itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

# Sampling margin above Nyquist for the fastest expected spectral line.
NYQUIST_MARGIN = 1.25

STRATEGIES = ("uniform", "endpoint")

# Shots spent at each interior time point by the endpoint strategy.
ENDPOINT_INTERIOR_SHOTS = 2


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
    """Refined coupling-combination magnitude with its fractional resolution.

    omega_hat is the estimate of |c_i +/- c_j|; the raw spectral peak sits at
    4 * omega_hat.  fallback marks estimates where the fit did not converge and
    the coarse peak was kept with one-bin uncertainty.
    """

    omega_hat: float
    delta_f_over_f: float
    raw_peak_omega: float
    fallback: bool = False

    @property
    def sigma(self) -> float:
        return self.omega_hat * self.delta_f_over_f


def plan_observation(omega_guess: float, nt: int, ne: int, strategy: str = "uniform") -> SamplingPlan:
    """Pick dt so the expected line at 4*omega_guess sits below Nyquist by NYQUIST_MARGIN.

    dt = 2*pi / (2 * margin * 4 * omega_guess) = pi / (5 * omega_guess) at the
    default margin.  With that step the expected line lands exactly on DFT bin
    0.4*nt whenever that is an integer.
    """
    if not (isinstance(omega_guess, (int, float)) and math.isfinite(omega_guess) and omega_guess > 0):
        raise ValueError(
            f"omega_guess must be positive and finite, got {omega_guess!r}; "
            "degenerate (zero) combinations take the DC path in the reconstruction layer"
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
    dust raises NoOscillationError; callers treat that as a degenerate (zero)
    combination frequency.
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


def _rival_peaks(spectrum: Spectrum, coarse_peak_omega: float, bin_w: float, limit: int = 2) -> list[float]:
    """Strongest spectral local maxima away from the coarse peak.

    Supplies alternative fit seeds for refine_frequency; bins within two bins
    of the coarse peak are its own leakage skirt and are skipped.  Rivals
    rank by magnitude, then by omega, both descending.
    """
    mags = spectrum.magnitudes
    omegas = spectrum.omegas[2:-1]
    mid = mags[2:-1]
    keep = (mid >= mags[1:-2]) & (mid >= mags[3:]) & (np.abs(omegas - coarse_peak_omega) > 2.0 * bin_w)
    order = np.lexsort((-omegas[keep], -mid[keep]))
    return omegas[keep][order[:limit]].tolist()


def _endpoint_amplitude(series, shots_end: float) -> float:
    """Expected oscillation amplitude of the estimator at the endpoint blocks.

    The product-form estimator (zz counts only) shrinks the signal by exactly
    1 - 1/shots; the trigonometric estimators are unbiased to O(1/shots), so
    series that involve the xz channel keep the ideal amplitude 1.
    """
    return 1.0 - 1.0 / shots_end if series.channel == "zz" else 1.0


def _profiled_fit(w: float, t_fit: np.ndarray, v_fit: np.ndarray, wt_fit: np.ndarray):
    """SSE and coefficients (a, b) of the lstsq fit of a*sin^2(w t) + b, rows weighted by wt_fit."""
    design = np.column_stack([np.sin(w * t_fit) ** 2, np.ones_like(t_fit)])
    design *= wt_fit[:, None]
    coef, _, _, _ = np.linalg.lstsq(design, v_fit * wt_fit, rcond=None)
    r = design @ coef - v_fit * wt_fit
    return float(r @ r), coef


def _grid_sse(grid: np.ndarray, t_fit: np.ndarray, v_fit: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted SSE of the best a*sin^2(w t) + b at every w of the grid, in closed form.

    With weighted means removed, the profiled SSE is Svv - Ssv^2 / Sss; a grid
    rate whose sin^2 column is constant leaves only the offset, SSE = Svv.
    """
    # One (grid, time) buffer holds sin^2, then its centred and squared forms,
    # so the scan never holds more than one grid-sized array.
    s = np.outer(grid, t_fit)
    np.sin(s, out=s)
    s *= s
    total = weights.sum()
    s -= (s @ weights / total)[:, None]
    dv = v_fit - (v_fit @ weights) / total
    s_sv = s @ (weights * dv)
    s *= s
    s_ss = s @ weights
    s_vv = dv @ (weights * dv)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s_ss > 0.0, s_vv - s_sv * s_sv / s_ss, s_vv)


def _grid_argmin(grid: np.ndarray, t_fit: np.ndarray, v_fit: np.ndarray, weights: np.ndarray) -> int:
    """Index of the grid rate with the least weighted SSE, exactly as an lstsq scan picks it.

    The grid is scored in closed form.  Both that and lstsq round at the
    scale of the uncentered sum of weighted squares, so every rate within
    1e-9 of that scale of the minimum is ranked again by the lstsq
    objective, first index on ties.
    """
    sse = _grid_sse(grid, t_fit, v_fit, weights)
    near = np.flatnonzero(sse <= sse.min() + 1e-9 * float(v_fit @ (weights * v_fit)))
    if near.size == 1:
        return int(near[0])
    wt_fit = np.sqrt(weights)
    return int(near[np.argmin([_profiled_fit(grid[i], t_fit, v_fit, wt_fit)[0] for i in near])])


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


def refine_frequency(
    series, spectrum: Spectrum, coarse_peak_omega: float, plan: SamplingPlan
) -> FrequencyEstimate:
    """Least-squares refinement of the coarse spectral peak.

    Fits a*sin^2(w t) + b with the amplitude and offset profiled out exactly
    (they enter linearly), locating w by a deterministic grid-plus-Brent
    search of the one-dimensional profiled objective within 1.5 spectral bins
    of a candidate line; residuals are weighted by per-point shot counts.
    The grid is scored in one pass with the closed-form weighted fit, and
    Brent polishes the bracket on the lstsq objective.
    Candidates are the supplied coarse peak plus the next-strongest local
    maxima of spectrum, the series' dft that the coarse peak came from; the
    best weighted fit wins: with few shots per point a noise bin
    occasionally outranks the true line in raw magnitude, but it cannot
    out-fit it.  For the endpoint strategy the fit uses the interior
    points only (their uniform shot count keeps the finite-shot amplitude
    shrink homogeneous) and the fitted rate then anchors a phase polish
    against the two high-budget endpoint blocks.  Returns the combination
    magnitude omega_hat = w/2 and the resolution figure delta_f_over_f =
    4/(nt*sqrt(ne)).  A non-positive fitted amplitude means no oscillation was
    locked; that falls back to the coarse estimate with one-bin uncertainty.
    """
    if not (math.isfinite(coarse_peak_omega) and coarse_peak_omega > 0):
        raise ValueError(f"coarse_peak_omega must be positive, got {coarse_peak_omega!r}")
    times, values = series.times, series.values
    shots = np.asarray(series.shots, dtype=float)
    weights = np.maximum(shots, 1.0)

    fit_sel = slice(None)
    if plan.strategy == "endpoint" and times.size >= 8:
        fit_sel = slice(0, times.size - 2)
    t_fit = times[fit_sel]
    v_fit = values[fit_sel]
    weights_fit = weights[fit_sel]
    wt_fit = np.sqrt(weights_fit)

    def profiled(w: float):
        return _profiled_fit(w, t_fit, v_fit, wt_fit)

    bin_w = plan.bin_width

    def fit_near(center_omega: float):
        w_lo = max((center_omega - 1.5 * bin_w) / 2.0, 0.25 * bin_w)
        w_hi = (center_omega + 1.5 * bin_w) / 2.0
        grid = np.linspace(w_lo, w_hi, 121)
        k = _grid_argmin(grid, t_fit, v_fit, weights_fit)
        bracket_lo = float(grid[max(k - 1, 0)])
        bracket_hi = float(grid[min(k + 1, grid.size - 1)])
        best = minimize_scalar(
            lambda w: profiled(w)[0],
            bounds=(bracket_lo, bracket_hi),
            method="bounded",
            options={"xatol": 1e-13},
        )
        w_best = float(best.x)
        sse_best, coef_best = profiled(w_best)
        return sse_best, w_best, float(coef_best[0])

    candidates = [coarse_peak_omega]
    candidates.extend(_rival_peaks(spectrum, coarse_peak_omega, bin_w))
    fits = sorted(fit_near(c) for c in candidates)
    usable = [f for f in fits if math.isfinite(f[1]) and f[2] > 0.0]
    if not usable:
        return FrequencyEstimate(
            omega_hat=coarse_peak_omega / 4.0,
            delta_f_over_f=bin_w / coarse_peak_omega,
            raw_peak_omega=coarse_peak_omega,
            fallback=True,
        )
    _, w_fit, _ = usable[0]
    if plan.strategy == "endpoint":
        shots_end = float(shots[-1]) if shots.size else float(plan.ne)
        if shots_end >= 2.0:
            amplitude = _endpoint_amplitude(series, shots_end)
            w_fit = _endpoint_phase_polish(times, values, w_fit, amplitude)
    return FrequencyEstimate(
        omega_hat=w_fit / 2.0,
        delta_f_over_f=4.0 / (plan.nt * math.sqrt(plan.ne)),
        raw_peak_omega=coarse_peak_omega,
        fallback=False,
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
