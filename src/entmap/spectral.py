"""Observation planning, discrete spectra, and oscillation-frequency refinement.

A concurrence trace C^2(t) = sin^2(2 w t) oscillates at angular frequency 4w, so
planning targets 4w when picking the sampling step and estimates are mapped back
down at the end: the refined fit works at 2w (the sin^2 argument rate) and
reports w itself.  Its grid rates sit on a 1/40-bin lattice of the DFT, so one
zero-padded FFT per series scores every grid; series must lie on plan.times().
"""

from __future__ import annotations

import functools
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


def _profiled_fit(w: float, t_fit: np.ndarray, vw_fit: np.ndarray, wt_fit: np.ndarray):
    """SSE and coefficients (a, b) of the lstsq fit of a*sin^2(w t) + b, rows weighted; vw_fit = v * wt_fit."""
    design = np.empty((t_fit.size, 2))
    design[:, 0] = np.sin(w * t_fit) ** 2 * wt_fit
    design[:, 1] = wt_fit
    coef, _, _, _ = np.linalg.lstsq(design, vw_fit, rcond=None)
    r = design @ coef - vw_fit
    return float(r @ r), coef


_GRID_PAD = 40  # refine_frequency's grid steps the sin^2 argument rate 2w by 1/_GRID_PAD of a DFT bin


def _grid_scorer(v_fit: np.ndarray, weights: np.ndarray, nt: int):
    """Scorer k -> weighted SSE of the best a*sin^2(w t) + b at each rate of candidate bin k's grid.

    That grid spans 2w = (_GRID_PAD*k - 60 .. _GRID_PAD*k + 60)/_GRID_PAD bins.  With C_a(x) =
    sum_j a_j cos(x j dt) over the fitted t_j = j*dt and s = sin^2(w t): sum w s = (W - C_w(2w))/2,
    sum w s^2 = (3W - 4 C_w(2w) + C_w(4w))/8 and sum w dv s = -C_wdv(2w)/2.  One rfft of length
    _GRID_PAD*nt over the rows (w, w*dv) holds every C_a needed, at indices folded into its range.
    The profiled SSE is Svv - Ssv^2/Sss with weighted means removed, and Svv where Sss = 0.
    """
    total = weights.sum()
    dv = v_fit - (v_fit @ weights) / total
    s_vv = dv @ (weights * dv)
    rows = np.zeros((2, v_fit.size + 1))
    rows[:, 1:] = weights, weights * dv
    size = _GRID_PAD * nt
    cos_sums = np.fft.rfft(rows, n=size).real

    def grid_sse(k: int) -> np.ndarray:
        m = np.outer((1, 2), _GRID_PAD * k + np.arange(-60, 61)) % size
        m = np.minimum(m, size - m)
        (c_w2, c_wdv2), c_w4 = cos_sums[:, m[0]], cos_sums[0, m[1]]
        s_ss = (3.0 * total - 4.0 * c_w2 + c_w4) / 8.0 - (total - c_w2) ** 2 / (4.0 * total)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(s_ss > 0.0, s_vv - c_wdv2 * c_wdv2 / (4.0 * s_ss), s_vv)

    return grid_sse


def _grid_argmin(sse: np.ndarray, grid: np.ndarray, profiled, scale: float) -> int:
    """Index of the least sse on grid, exactly as an lstsq scan picks it.

    sse and lstsq both round at scale, the uncentered sum of weighted squares, so rates within 1e-9
    of scale of the minimum are ranked again by the lstsq objective profiled(w), first index on ties.
    """
    near = np.flatnonzero(sse <= sse.min() + 1e-9 * scale)
    if near.size == 1:
        return int(near[0])
    return int(near[np.argmin([profiled(grid[i])[0] for i in near])])


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
    The grid is scored in closed form from one zero-padded FFT per series, so
    series.times must equal plan.times() and each candidate sit on a DFT bin
    k >= 2 (ValueError otherwise); Brent polishes on the lstsq objective.
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
    if not np.array_equal(times, plan.times()):
        raise ValueError("series.times must equal plan.times(): the grid scan needs t_j = j*dt exactly")
    bin_w = plan.bin_width
    candidates = [coarse_peak_omega, *_rival_peaks(spectrum, coarse_peak_omega, bin_w)]
    bins = [round(c / bin_w) for c in candidates]
    if any(k < 2 or abs(c / bin_w - k) > 1e-9 for c, k in zip(candidates, bins)):
        raise ValueError(f"candidate lines {candidates} must sit on DFT bins k >= 2 of width {bin_w!r}")
    shots = np.asarray(series.shots, dtype=float)
    weights = np.maximum(shots, 1.0)

    fit_sel = slice(0, times.size - 2) if plan.strategy == "endpoint" and times.size >= 8 else slice(None)
    t_fit, v_fit, weights_fit = times[fit_sel], values[fit_sel], weights[fit_sel]
    wt_fit = np.sqrt(weights_fit)
    scale = float(v_fit @ (weights_fit * v_fit))
    grid_sse = _grid_scorer(v_fit, weights_fit, plan.nt)
    profiled = functools.partial(_profiled_fit, t_fit=t_fit, vw_fit=v_fit * wt_fit, wt_fit=wt_fit)

    def fit_near(center_omega: float, k: int):
        w_lo = max((center_omega - 1.5 * bin_w) / 2.0, 0.25 * bin_w)
        grid = np.linspace(w_lo, (center_omega + 1.5 * bin_w) / 2.0, 121)
        i = _grid_argmin(grid_sse(k), grid, profiled, scale)
        memo = []  # (w, sse, coef) of Brent's answer: the least SSE it evaluated, later ties winning

        def objective(w: float) -> float:
            sse, coef = profiled(w)
            if not memo or sse <= memo[1]:
                memo[:] = w, sse, coef
            return sse

        bracket = (float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)]))
        minimize_scalar(objective, bounds=bracket, method="bounded", options={"xatol": 1e-13})
        w_best, sse_best, coef_best = memo
        return sse_best, float(w_best), float(coef_best[0])

    fits = sorted(fit_near(c, k) for c, k in zip(candidates, bins))
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
        shots_end = float(shots[-1])
        if shots_end >= 2.0:
            amplitude = _endpoint_amplitude(series, shots_end)
            w_fit = _endpoint_phase_polish(times, values, w_fit, amplitude)
    return FrequencyEstimate(
        omega_hat=w_fit / 2.0,
        delta_f_over_f=resolution_epsilon(plan.nt, plan.ne),
        raw_peak_omega=coarse_peak_omega,
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
