"""Observation planning, discrete spectra, and the likelihood line fit.

A concurrence trace C^2(t) = sin^2(2 w t) oscillates at angular frequency 4w, so
planning targets 4w when picking the sampling step.  On that axis dft gives a
trace's spectrum as (omegas, magnitudes) arrays and find_peak the bin of its
strongest line, if any.  The counts behind the trace carry the same line more
simply: qubit 1 reads - with probability sin^2(w t), so fit_line estimates w
from the binomial likelihood of an input's readout table on its plan's grid
(Rife & Boorstyn's single-tone maximum-likelihood estimator, applied to
counts); the endpoint strategy's w comes from its two high-budget rows alone.
The fit's rate scan and bounded Brent search are entmap's own; scipy gives xlogy.
Everything here works on arrays and plans; no C^2 series is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

# Sampling margin above Nyquist for the fastest expected spectral line.
NYQUIST_MARGIN = 1.25

STRATEGIES = ("uniform", "endpoint")

# Shots spent at each interior time point by the endpoint strategy.
ENDPOINT_INTERIOR_SHOTS = 2

# Outcomes (-+, --), qubit 1 reading -: in every protocol input's own channel
# they occur with probability exactly sin^2(w t), w the input's combination.
SUCCESS_OUTCOMES = [2, 3]

# Mean k/n below which a readout table carries no line.  A line's k/n averages 1/2
# over whole cycles.  A zero combination has no successes of its own; a
# preparation error of weight eta < 1 leaks in at most eta/(1 + eta) < 1/2, an
# oscillation that averages below 1/4.
DEGENERATE_MEAN = 0.25


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


def dft(values: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(omegas, magnitudes) of the one-sided DFT of C^2 values sampled every dt, mean subtracted.

    The frequency grid is 2*pi*k/(nt*dt) for k = 0..nt//2, nt = values.size.
    """
    values = np.asarray(values, dtype=float)
    magnitudes = np.abs(np.fft.rfft(values - values.mean()))
    return 2.0 * math.pi * np.fft.rfftfreq(values.size, d=dt), magnitudes


def find_peak(magnitudes: np.ndarray) -> int | None:
    """Bin of the strongest line, excluding the DC bin and its neighbor.

    Ties resolve to the lower bin.  None when no bin rises above numerical dust.
    """
    if magnitudes.size < 3:
        raise ValueError("spectrum too short to search for a peak")
    best = int(np.argmax(magnitudes[2:])) + 2
    # Mean subtraction leaves only rounding noise when nothing oscillates.
    return None if magnitudes[best] <= 1e-9 * magnitudes.size else best


def _neg_log_likelihood(rates, t: np.ndarray, k: np.ndarray, n: np.ndarray):
    """-log L of k ~ Binomial(n, sin^2(w t)) at each rate w, up to a constant."""
    phase = np.multiply.outer(rates, t)
    return -(xlogy(k, np.sin(phase) ** 2) + xlogy(n - k, np.cos(phase) ** 2)).sum(axis=-1)


def _scan(rates: np.ndarray, t: np.ndarray, k: np.ndarray, n: np.ndarray) -> np.ndarray:
    """_neg_log_likelihood's argmin at less cost: each log term summed only over the rows it weighs."""
    fails = n - k
    hit, miss = k > 0, fails > 0
    with np.errstate(divide="ignore"):
        score = np.log(np.sin(np.multiply.outer(rates, t[hit])) ** 2) @ k[hit]
        score += np.log(np.cos(np.multiply.outer(rates, t[miss])) ** 2) @ fails[miss]
    return -score


# scipy's bounded minimize_scalar constants, its evaluation cap, and the xatol fit_line asks of it.
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_XATOL, _MAXFUN = 1e-13, 500


def _bounded_brent(f, a: float, b: float) -> float:
    """Minimizer of f on [a, b] by Brent's bounded search: golden sections and parabolic steps.

    The loop of scipy.optimize.minimize_scalar(method="bounded") step for step,
    so it returns the same x to the bit.  It stops once x is known to within
    sqrt(2.2e-16)*|x| + _XATOL/3, or after _MAXFUN evaluations of f.
    """
    nfc = xf = fulc = a + _GOLDEN_MEAN * (b - a)
    fx = ffulc = fnfc = f(xf)
    rat = e = 0.0
    num = 1
    xm, tol1 = 0.5 * (a + b), _SQRT_EPS * abs(xf) + _XATOL / 3.0
    while num < _MAXFUN and abs(xf - xm) > 2.0 * tol1 - 0.5 * (b - a):
        golden = abs(e) <= tol1
        if not golden:
            # Parabolic step through the three best points, if inside [a, b] and under half the step before last.
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, rat
            golden = not (abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf))
            if not golden:
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < 2.0 * tol1 or b - x < 2.0 * tol1:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN_MEAN * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm, tol1 = 0.5 * (a + b), _SQRT_EPS * abs(xf) + _XATOL / 3.0
    return xf


def _refine_rate(grid: np.ndarray, scores: np.ndarray, rows: tuple) -> float:
    """Bounded Brent on -log L of rows = (t, k, n) between the neighbours of the best-scored grid rate.

    _bounded_brent stops at sqrt(2.2e-16)*|w| + _XATOL/3, so the rate is good
    to about 1.5e-8 relative, not _XATOL = 1e-13.
    """
    i = int(np.argmin(scores))
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    return _bounded_brent(lambda w: _neg_log_likelihood(w, *rows), lo, hi)


def fit_line(plan: SamplingPlan, table) -> FrequencyEstimate | None:
    """Maximum-likelihood combination magnitude from an input's readout table.

    table is the input's (plan.nt, 4) table on plan.times(), in its own
    channel: integer outcome counts, or exact probabilities, which are
    fractional counts with n_j = 1.  k_j, its SUCCESS_OUTCOMES columns, is
    Binomial(n_j, sin^2(w t_j)) with n_j the row total.  The seed is the
    strongest non-DC bin of the rfft of k/n, where the line sits at 2w.  41
    rates within 0.75 bin of it are scanned, and bounded Brent refines the
    best one between its neighbours: on every point (uniform strategy;
    endpoint below nt = 8), or on the interior points as the endpoint
    strategy's anchor w_a.  That strategy takes w from its two endpoint rows
    alone: of their -log L modes within 6 sigma_a of w_a, it refines the one
    the interior rows favour, by (w - w_a)^2 / (2 sigma_a^2) to second
    order, sigma_a = 1/(2*sqrt(sum n_j t_j^2)) being their Fisher sigma.
    Returns None when k/n averages below DEGENERATE_MEAN (the combination is
    0), otherwise omega_hat = w with the resolution figure 4/(nt*sqrt(ne)).
    """
    counts = np.asarray(table, dtype=float)
    if counts.shape != (plan.nt, 4):
        raise ValueError(f"fit_line needs a ({plan.nt}, 4) table of outcome counts, got shape {counts.shape}")
    n = counts.sum(axis=1)
    k = counts[:, SUCCESS_OUTCOMES].sum(axis=1)
    success_frac = k / n
    if success_frac.mean() < DEGENERATE_MEAN:
        return None
    bin_w = plan.bin_width
    seed_line = (int(np.argmax(np.abs(np.fft.rfft(success_frac))[1:])) + 1) * bin_w

    polish = plan.strategy == "endpoint" and plan.nt >= 8
    fit = slice(0, -2) if polish else slice(None)
    t = plan.times()
    rows, ends = (t[fit], k[fit], n[fit]), (t[-2:], k[-2:], n[-2:])
    grid = (seed_line + bin_w * np.linspace(-0.75, 0.75, 41)) / 2.0
    w = _refine_rate(grid, _scan(grid, *rows), rows)
    if polish:
        sigma_a = 0.5 / math.sqrt(float(n[fit] @ t[fit] ** 2))
        grid = np.linspace(max(w - 6.0 * sigma_a, 0.0), w + 6.0 * sigma_a, 41)
        f = _scan(grid, *ends)
        mode = (f <= np.r_[np.inf, f[:-1]]) & (f <= np.r_[f[1:], np.inf])
        w = _refine_rate(grid, np.where(mode, f + 0.5 * ((grid - w) / sigma_a) ** 2, np.inf), ends)
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
