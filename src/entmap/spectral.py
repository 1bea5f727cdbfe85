"""Observation planning, discrete spectra, and the likelihood line fit.

A concurrence trace C^2(t) = sin^2(2 w t) oscillates at angular frequency 4w, so
planning targets 4w when picking the sampling step.  On that axis dft gives a
trace's spectrum as (omegas, magnitudes) arrays and find_peak the bin of its
strongest line, if any.  The counts behind the trace carry the same line more
simply: qubit 1 reads - with probability sin^2(w t), so fit_line estimates w
from the binomial likelihood of an input's readout table on its plan's grid
(Rife & Boorstyn's single-tone maximum-likelihood estimator, applied to
counts); the endpoint strategy's w comes from its two high-budget rows alone.
The likelihood, the fit's rate scan, the float32 screen that certifies its
best rate, and the bounded Brent search are entmap's own, on numpy alone; no
scipy code runs.  fit_lines checks all its tables in one pass, seeds and
screens lines of one nt and strategy as one stack, then steps all their Brent
searches in lockstep.  Everything here works on arrays and plans; no C^2
series is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# No scipy code runs here.  The bare package is imported only so that its version
# is in sys.modules: perfbench/worker.py reads sys.modules["scipy"].__version__
# unguarded after its timed loop, and a desk or endpoint worker imports no runner.
# Drop this import once that read is guarded (ROADMAP items 1 and 5).
import scipy

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
    """-log L of k ~ Binomial(n, sin^2(w t)) at each rate w, up to a constant.

    rates is a grid against one line's rows (t, k, n), or one rate per line
    against rows stacked as (lines, rows) arrays; either way each value is
    summed over its own row, so a stacked line's value has its bits alone.
    Every phase w t must be positive, so that each log is finite and a zero
    weight adds an exact 0.  Grid and bracket rates and a plan's times are
    positive, Brent scores only rates strictly inside its bracket, and no
    double phase rounds sin^2 or cos^2 to 0 (see the certificate above _SCREEN_DS).
    """
    phase = np.asarray(rates)[..., None] * t
    return -(k * np.log(np.sin(phase) ** 2) + (n - k) * np.log(np.cos(phase) ** 2)).sum(axis=-1)


def _scan(rates: np.ndarray, t: np.ndarray, k: np.ndarray, n: np.ndarray) -> np.ndarray:
    """_neg_log_likelihood's argmin at less cost: each log term summed only over the rows it weighs."""
    fails = n - k
    hit, miss = k > 0, fails > 0
    with np.errstate(divide="ignore"):
        score = np.log(np.sin(rates[:, None] * t[hit]) ** 2) @ k[hit]
        score += np.log(np.cos(rates[:, None] * t[miss]) ** 2) @ fails[miss]
    return -score


# The float32 rate screen (_screen), with ds = _SCREEN_DS = 2**-21.
# - A phase below _SCREEN_MAX_PHASE, reduced modulo pi as r = phase - pi*rint(phase/pi),
#   lands within 2**-52 * 2**30/pi + 2**-23 < 2.0e-7 < ds/2 of its exact reduction (float64
#   pi's error times the turns, then the product's rounding; the subtraction is exact).
# - Narrowed to float32, |r| gives numpy's float32 sin and cos within ds/2 of the float64
#   libm |sin| and |cos| of the phase, as _scan takes them (worst seen 9.5e-8; the
#   float32-kernel test guards this).
# - So with s = max(sin32|r|, 2 ds), libm's |sin| <= s + ds and -log sin^2 >= 2 log(1/s) - 2 ds/s,
#   a finite bound; cos and the failures f = n - k likewise, with c.
# - float32 takes 1/s correctly rounded, which moves log(1/s) by at most 2**-24 < ds/(8 s),
#   and its log within 2**-21 relative (worst seen 1.8 * 2**-23; the same test guards it).
# Every term -k log sin^2 is >= 0, so approx - radius bounds _scan from below at each rate, with
#   approx = 2 (log(1/s) @ k + log(1/c) @ f),
#   radius = _SCREEN_SLOPE (k @ 1/s + f @ 1/c) + (rows + 8) 2**-23 approx.
# _SCREEN_SLOPE = 4.04 ds is about twice the 2.25 ds these steps need, float32 sums
# included, and (rows + 8) 2**-23 twice the float32 error of a rows-term sum of such
# logs with narrowed weights.  The headroom left holds _scan's own float64 rounding, so
# a rate whose lower bound exceeds the candidate's exact score times 1 + _SCREEN_SLACK
# cannot win the exact scan, and no exact tie is ever certified.
# The candidate's exact score is _neg_log_likelihood at its rate, the expression Brent scores
# by: _scan's float64 terms (the same products, sin, cos and log), k log sin^2 + f log cos^2
# added row by row and summed over each line's own rows, where _scan takes two matmuls over
# the rows each term weighs.  A grid's phases are at least pi/(4 nt), and no double lies
# near enough a multiple of pi/2 for sin^2 or cos^2 to round to 0, so each log is finite
# and a zero weight adds an exact 0 (were one not, the score would be inf or NaN, and the
# line declined).  The terms share one sign, so either sum lies within (rows + 1) 2**-53
# of their exact total, and the two within 2 (rows + 1) 2**-53 of each other: under
# 9.1e-13 at the 4096 rows a stack admits (_STACK_ROWS), which _SCREEN_SLACK covers
# alone.  At any row count, a lone line's included, the unused half of the radius's
# second term, (rows + 8) 2**-24 approx, covers it over 2**27 times, since a rate that
# clears the bound has approx above that score.
# The phases are reduced _SCREEN_BLOCK rates at a time, so the screen never holds more
# than two float32 (lines, rates, rows) arrays, or one and a block's two float64 arrays.
_SCREEN_DS = 2.0**-21
_SCREEN_SLOPE = 4.04 * _SCREEN_DS
_SCREEN_SLACK = 1e-12
_SCREEN_MAX_PHASE = 2.0**30
_SCREEN_BLOCK = 14


def _screen(rates: np.ndarray, t: np.ndarray, k: np.ndarray, n: np.ndarray):
    """Per line, int(np.argmin(_scan(rates, t, k, n))) when a float32 scan certifies it, else None.

    rates is one line's grid against its rows t, k and n, or a stack of
    grids (..., rates) against rows (..., rows), each line scored on its
    own rows; the result is an index or None, or a list of them.  A line's
    rates and t are positive and increasing (a rate grid and a plan's
    times), so its largest phase is its last.  Its candidate minimizes the
    float32 upper bound approx + radius, and every other rate's float32
    lower bound approx - radius must clear the candidate's exact float64
    score (see the constants above).
    """
    lead = rates.shape[:-1]
    rates, t, k, n = (column.reshape(-1, column.shape[-1]) for column in (rates, t, k, n))
    top = rates[:, -1] * t[:, -1]
    r = np.empty(rates.shape + t.shape[-1:], dtype=np.float32)
    for start in range(0, rates.shape[1], _SCREEN_BLOCK):
        block = slice(start, start + _SCREEN_BLOCK)
        phase = rates[:, block, None] * t[:, None, :]
        turns = np.multiply(phase, 1.0 / np.pi)
        np.rint(turns, out=turns)
        turns *= np.pi
        phase -= turns
        r[:, block] = phase
        del phase, turns
    # For |r| <= pi/2, |sin r| = sin|r| and |cos r| = cos|r|; past it by rounding, the clamp covers cos < 0.
    np.abs(r, out=r)
    c = np.cos(r)
    s = np.sin(r, out=r)
    approx, slope = np.zeros(rates.shape), np.zeros(rates.shape)
    fails = n - k
    for trig, weights in ((s, k), (c, fails)):
        weights = weights.astype(np.float32)[:, :, None]
        np.maximum(trig, np.float32(2.0 * _SCREEN_DS), out=trig)
        inverse = np.reciprocal(trig, out=trig)
        slope += (inverse @ weights)[:, :, 0]
        approx += (np.log(inverse, out=inverse) @ weights)[:, :, 0]
    approx *= 2.0
    radius = _SCREEN_SLOPE * slope + (t.shape[1] + 8) * 2.0**-23 * approx
    lines, best = np.arange(rates.shape[0]), np.argmin(approx + radius, axis=1)
    lower = approx - radius
    lower[lines, best] = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = _neg_log_likelihood(rates[lines, best], t, k, n) * (1.0 + _SCREEN_SLACK)
    certified = (top < _SCREEN_MAX_PHASE) & np.all(lower > bound[:, None], axis=1)
    return np.where(certified, best, None).reshape(lead).tolist()


# scipy's bounded minimize_scalar constants, its evaluation cap, and the xatol fit_lines asks of it.
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_XATOL, _MAXFUN = 1e-13, 500


def _bounded_brent(a: float, b: float):
    """Brent's bounded search on [a, b] as a generator: golden sections and parabolic steps.

    It yields each x to evaluate, takes f(x) back by send(), and returns the
    minimizer (StopIteration.value).  The loop of
    scipy.optimize.minimize_scalar(method="bounded") step for step, so it
    returns the same x to the bit.  It stops once x is known to within
    sqrt(2.2e-16)*|x| + _XATOL/3, or after _MAXFUN evaluations of f.
    """
    nfc = xf = fulc = a + _GOLDEN_MEAN * (b - a)
    fx = ffulc = fnfc = yield xf
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
        fu = yield x
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


def _lockstep_brent(searches: list[tuple[tuple, float, float]]) -> list[float]:
    """_bounded_brent's minimizer of -log L on rows = (t, k, n) in [a, b], for each (rows, a, b) in searches.

    Searches over the same number of rows step together: each step takes
    every pending search's f(x) from one _neg_log_likelihood call on their
    stacked rows.  A stacked row's value has the bits of that row alone, so
    every search returns what it would alone.  Rows are never padded.
    """
    found = [0.0] * len(searches)
    groups: dict[int, list[int]] = {}
    for lane, (rows, _, _) in enumerate(searches):
        groups.setdefault(rows[0].size, []).append(lane)
    for lanes in groups.values():
        t, k, n = (np.stack(column) for column in zip(*(searches[lane][0] for lane in lanes)))
        steps = [_bounded_brent(*searches[lane][1:]) for lane in lanes]
        x = np.array([next(step) for step in steps])
        while lanes:
            live = []
            for j, value in enumerate(_neg_log_likelihood(x, t, k, n).tolist()):
                try:
                    x[j] = steps[j].send(value)
                    live.append(j)
                except StopIteration as stop:
                    found[lanes[j]] = stop.value
            if len(live) < len(lanes):
                t, k, n, x = t[live], k[live], n[live], x[live]
                lanes, steps = [lanes[j] for j in live], [steps[j] for j in live]
    return found


def _bracket(rows: tuple, rates: np.ndarray, best: int) -> tuple[tuple, float, float]:
    """A _lockstep_brent search on rows between the neighbours of rates[best]."""
    return rows, float(rates[max(best - 1, 0)]), float(rates[min(best + 1, rates.size - 1)])


# The anchor scan's 41 rates, in bins of the rfft seed around it.
_GRID_BINS = np.linspace(-0.75, 0.75, 41)

# Most table rows one stacked anchor pass takes: lines of one nt and strategy are
# seeded and screened together up to this many rows, and a longer line alone.
_STACK_ROWS = 4096


def _line_rows(lines: list[tuple[SamplingPlan, object]]) -> tuple[np.ndarray, np.ndarray]:
    """(k, n) of every line's table after its checks, the lines' rows concatenated in order."""
    tables = []
    for i, (plan, table) in enumerate(lines):
        counts = np.asarray(table, dtype=float)
        if counts.shape != (plan.nt, 4):
            raise ValueError(
                f"fit_line needs a ({plan.nt}, 4) table of outcome counts, got shape {counts.shape} in line {i}"
            )
        tables.append(counts)
    counts = np.concatenate(tables or [np.empty((0, 4))])
    # Summed a column at a time, each row's total has the bits of counts.sum(axis=1).
    n = sum(counts.T)
    if not (np.all(counts >= 0.0) and np.all(np.isfinite(n) & (n > 0.0))):
        bad = ~(np.all(counts >= 0.0, axis=1) & np.isfinite(n) & (n > 0.0))
        j = int(bad.argmax())
        starts = np.cumsum([0] + [plan.nt for plan, _ in lines])
        line = int(np.searchsorted(starts, j, side="right")) - 1
        raise ValueError(
            "fit_line needs finite counts >= 0 with a positive total in every row; "
            f"line {line}, row {j - starts[line]} is {counts[j].tolist()}"
        )
    return sum(counts.T[SUCCESS_OUTCOMES]), n


def _stacks(plans: list[SamplingPlan]) -> list[tuple[list[int], np.ndarray]]:
    """(positions, rows) of plans in stacks of one nt and strategy, each of at most _STACK_ROWS rows or one plan.

    rows indexes each stacked plan's rows in all plans' rows concatenated in order.
    """
    stacks, open_stacks = [], {}
    for i, plan in enumerate(plans):
        stack = open_stacks.get((plan.nt, plan.strategy))
        if stack is None or (len(stack) + 1) * plan.nt > _STACK_ROWS:
            stack = open_stacks[plan.nt, plan.strategy] = []
            stacks.append(stack)
        stack.append(i)
    starts = np.cumsum([0] + [plan.nt for plan in plans])
    return [(stack, starts[stack, None] + np.arange(plans[stack[0]].nt)) for stack in stacks]


def _anchor_searches(plans: list[SamplingPlan], k: np.ndarray, n: np.ndarray) -> list[tuple | None]:
    """(seed line, anchor search, endpoint rows or None) of each stacked line, as fit_lines describes.

    plans share nt and strategy, and k and n are their (lines, nt) rows.  A
    line whose k/n averages below DEGENERATE_MEAN has None.  The scan's
    best rate is _screen's when it certifies one, else the full _scan's.
    """
    ratio = k / n
    live = np.flatnonzero(ratio.sum(axis=1) / ratio.shape[1] >= DEGENERATE_MEAN)
    found: list[tuple | None] = [None] * len(plans)
    if live.size == 0:
        return found
    if live.size < len(plans):
        ratio, k, n = ratio[live], k[live], n[live]
    widths = np.array([plans[line].bin_width for line in live])
    seeds = (np.argmax(np.abs(np.fft.rfft(ratio, axis=-1))[:, 1:], axis=-1) + 1) * widths
    del ratio
    t = np.array([plans[line].dt for line in live])[:, None] * np.arange(1, plans[0].nt + 1)
    polish = plans[0].strategy == "endpoint" and plans[0].nt >= 8
    fit = slice(0, -2) if polish else slice(None)
    rows = (t[:, fit], k[:, fit], n[:, fit])
    grids = (seeds[:, None] + widths[:, None] * _GRID_BINS) / 2.0
    for j, (line, seed_line, best) in enumerate(zip(live, seeds.tolist(), _screen(grids, *rows))):
        anchor = tuple(column[j] for column in rows)
        if best is None:
            best = int(np.argmin(_scan(grids[j], *anchor)))
        ends = (t[j, -2:], k[j, -2:], n[j, -2:]) if polish else None
        found[line] = (seed_line, _bracket(anchor, grids[j], best), ends)
    return found


def _endpoint_search(anchor: tuple, ends: tuple, w_a: float) -> tuple[tuple, float, float]:
    """The endpoint rows' search around the -log L mode, within 6 sigma_a of w_a, that the anchor rows favour."""
    t, _, n = anchor
    sigma_a = 0.5 / math.sqrt(float(n @ t**2))
    grid = np.linspace(max(w_a - 6.0 * sigma_a, 0.0), w_a + 6.0 * sigma_a, 41)
    f = _scan(grid, *ends)
    inf = np.array([np.inf])
    mode = (f <= np.concatenate((inf, f[:-1]))) & (f <= np.concatenate((f[1:], inf)))
    return _bracket(ends, grid, int(np.argmin(np.where(mode, f + 0.5 * ((grid - w_a) / sigma_a) ** 2, np.inf))))


def fit_lines(lines: list[tuple[SamplingPlan, object]]) -> list[FrequencyEstimate | None]:
    """Maximum-likelihood combination magnitude from each (plan, table) in lines.

    table is an input's (plan.nt, 4) table on plan.times(), in its own
    channel: integer outcome counts, or exact probabilities, which are
    fractional counts with n_j = 1.  Every cell must be finite and >= 0, and
    every row total n_j > 0.  k_j, its SUCCESS_OUTCOMES columns, is
    Binomial(n_j, sin^2(w t_j)).  The seed is the strongest non-DC bin of
    the rfft of k/n, where the line sits at 2w.  41 rates within 0.75 bin
    of it are scored by -log L (a float32 screen certifies the best, or the
    exact float64 scan finds it), and bounded Brent refines the best one
    between its neighbours: on every point (uniform strategy; endpoint below
    nt = 8), or on the interior points as the endpoint strategy's anchor
    w_a.  That strategy takes w from its two endpoint rows alone: of their
    -log L modes within 6 sigma_a of w_a, it refines the one the interior
    rows favour, by (w - w_a)^2 / (2 sigma_a^2) to second order, sigma_a =
    1/(2*sqrt(sum n_j t_j^2)) being their Fisher sigma.  All tables are
    checked in one pass, and lines of one nt and strategy are seeded and
    screened as one stack, up to _STACK_ROWS rows together (a longer line
    alone); all lines' anchor searches then run in lockstep, then their
    endpoint searches, and each line gets the bits it would get alone.  A
    bad table is a ValueError naming its position in lines and its first
    bad row.  A line is None when k/n averages below DEGENERATE_MEAN (the
    combination is 0), otherwise omega_hat = w with the resolution figure
    4/(nt*sqrt(ne)).
    """
    k, n = _line_rows(lines)
    # The stacks' copies replace the concatenated rows, so each row is held once.
    stacks = [(stack, k[rows], n[rows]) for stack, rows in _stacks([plan for plan, _ in lines])]
    del k, n
    anchors: list[tuple | None] = [None] * len(lines)
    for stack, k_rows, n_rows in stacks:
        for i, anchor in zip(stack, _anchor_searches([lines[i][0] for i in stack], k_rows, n_rows)):
            anchors[i] = anchor
    live = [(plan, *anchor) for (plan, _), anchor in zip(lines, anchors) if anchor is not None]
    rates = _lockstep_brent([search for _, _, search, _ in live])
    polished = [
        (i, _endpoint_search(anchor[0], ends, rates[i]))
        for i, (_, _, anchor, ends) in enumerate(live)
        if ends is not None
    ]
    for (i, _), w in zip(polished, _lockstep_brent([search for _, search in polished])):
        rates[i] = w
    estimates = iter(
        FrequencyEstimate(w, resolution_epsilon(plan.nt, plan.ne), 2.0 * seed_line)
        for (plan, seed_line, *_), w in zip(live, rates)
    )
    return [None if anchor is None else next(estimates) for anchor in anchors]


def fit_line(plan: SamplingPlan, table) -> FrequencyEstimate | None:
    """The estimate fit_lines gives the one line (plan, table)."""
    return fit_lines([(plan, table)])[0]


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
