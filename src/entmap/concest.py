"""Squared-concurrence estimation from measurement statistics.

Two channels suffice for the protocol inputs: both qubits in Z (the zz channel)
and qubit 1 in X with qubit 2 in Z (the xz channel).  Writing the state as
(a, b, c, d) over the computational basis, the zz channel gives the four
moduli and the xz channel fixes the two relative phases that enter the
concurrence: A between a and c, B between d and b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import CHANNELS
from .qcore import INPUT_IDS, PSI1, PSI2, PSI3, PSI4
from .spectral import SamplingPlan

# Channel carrying the oscillation for each protocol input.
CHANNEL_FOR_INPUT = {PSI1: "zz", PSI2: "zz", PSI3: "xz", PSI4: "xz"}


def first_bad_point(times: np.ndarray, values: np.ndarray, shots: np.ndarray) -> tuple[int, str] | None:
    """(index, reason) of the first point that breaks one of the rules below (dt = t_1), or None."""
    dt = times[0]
    with np.errstate(invalid="ignore"):
        off_grid = np.abs(times - dt * np.arange(1, times.size + 1)) > 1e-9 * dt
        rules = (
            (~(np.isfinite(times) & (times > 0)), "time must be positive and finite, got {t!r}"),
            (off_grid, "time {t!r} is off the uniform grid j*{dt!r}"),
            (~((values >= 0.0) & (values <= 1.0)), "C^2 estimate must lie in [0, 1], got {v!r}"),
            (shots < 0, "shot count must be nonnegative, got {n!r}"),
        )
    bad = np.any([mask for mask, _ in rules], axis=0)
    if not bad.any():
        return None
    j = int(bad.argmax())
    reason = next(message for mask, message in rules if mask[j])
    return j, reason.format(t=float(times[j]), dt=float(dt), v=float(values[j]), n=int(shots[j]))


@dataclass(frozen=True)
class ConcurrenceSeries:
    """C^2 estimates on a uniform grid t_j = j*dt, j = 1..nt, held as arrays.

    Built only where a C^2 trace is written or read back (simulate_series, the
    CLI's simulate, spectrum's CSV reader); characterize and spectral need none.
    shots[j] is the number of shots behind values[j] (0 for exact tables).
    channel is the readout the values came from.  counts, when present, is
    the (nt, 4) table of outcome counts in that channel, or the exact outcome
    probabilities in noiseless mode.
    """

    times: np.ndarray
    values: np.ndarray
    shots: np.ndarray
    channel: str
    counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float).reshape(-1)
        values = np.array(self.values, dtype=float).reshape(-1)
        shots = np.array(self.shots).reshape(-1)
        if times.size < 4:
            raise ValueError("series needs at least 4 points")
        if values.size != times.size or shots.size != times.size:
            raise ValueError("times, values and shots must have one entry per point")
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        if not np.issubdtype(shots.dtype, np.integer):
            raise ValueError("shot counts must be integers")
        fault = first_bad_point(times, values, shots)
        if fault is not None:
            raise ValueError(f"point {fault[0] + 1}: {fault[1]}")
        SamplingPlan(times.size, float(times[0]))  # refuses a step no plan could have: span or bin width past bounds
        arrays = {"times": times, "values": values, "shots": shots}
        if self.counts is not None:
            counts = np.array(self.counts)
            if counts.shape != (times.size, 4):
                raise ValueError(f"counts must have shape ({times.size}, 4), got {counts.shape}")
            arrays["counts"] = counts
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        # perfbench/tracing.py counts a traced build_series result's points with len().
        return int(self.times.size)

    @property
    def dt(self) -> float:
        """Grid step; the first point sits at t_1 = dt."""
        return float(self.times[0])


def _clamped_cosine(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    # Convention for vanishing amplitude pairs: the phase is unobservable, take cos = 0.
    cos = np.divide(numerator, denominator, out=np.zeros_like(numerator), where=denominator > 0.0)
    return np.clip(cos, -1.0, 1.0)


def _cos_angle_sum(cos_a: np.ndarray, cos_b: np.ndarray) -> np.ndarray:
    """cos(A + B) from clamped cosines, both sines taken as +sqrt(1 - cos^2)."""
    sin_a = np.sqrt(np.maximum(0.0, 1.0 - cos_a * cos_a))
    sin_b = np.sqrt(np.maximum(0.0, 1.0 - cos_b * cos_b))
    return cos_a * cos_b - sin_a * sin_b


def _as_probs(source) -> np.ndarray:
    """Outcome probabilities of a (4,) or (n, 4) array.

    An integer array holds counts and is normalized row by row; a float array
    is taken as exact probabilities.
    """
    p = np.asarray(source)
    if p.shape[-1:] != (4,) or p.ndim > 2:
        raise ValueError(f"expected a (4,) or (n, 4) array, got shape {p.shape}")
    if not np.issubdtype(p.dtype, np.integer):
        return p
    totals = p.sum(axis=-1, keepdims=True)
    if np.any(totals < 1):
        raise ValueError("cannot form empirical probabilities from zero shots")
    return p / totals


def concurrence_sq_from_probs(p_zz, p_xz):
    """General two-channel estimator of the squared concurrence.

    With zz probabilities (P++, P+-, P-+, P--) and xz probabilities giving the
    phase cosines

        cos A = (2*Pxz++ - P++ - P-+) / (2*sqrt(P++ * P-+))
        cos B = (2*Pxz+- - P+- - P--) / (2*sqrt(P+- * P--))

    the estimator is

        C^2 = 4*(P-+*P+- + P--*P++ - 2*sqrt(P++*P+-*P-+*P--)*cos(A+B)).

    Cosines are clamped to [-1, 1], a vanishing denominator pins the cosine to
    0, and the result is clamped to [0, 1].  Takes (4,) rows and returns a
    float, or (n, 4) arrays and returns the n estimates; integer arrays are
    counts.
    """
    z = _as_probs(p_zz)
    x = _as_probs(p_xz)
    pp, pm, mp, mm = np.atleast_2d(z).T
    xpp, xpm, _, _ = np.atleast_2d(x).T
    cos_a = _clamped_cosine(2.0 * xpp - pp - mp, 2.0 * np.sqrt(pp * mp))
    cos_b = _clamped_cosine(2.0 * xpm - pm - mm, 2.0 * np.sqrt(pm * mm))
    cross = np.sqrt(pp * pm * mp * mm) * _cos_angle_sum(cos_a, cos_b)
    value = np.clip(4.0 * (mp * pm + mm * pp - 2.0 * cross), 0.0, 1.0)
    return float(value[0]) if z.ndim == 1 else value


def concurrence_sq_reduced(input_id: str, table):
    """Single-channel estimator specialized to one protocol input.

    psi1 and psi2 keep two zz outcomes pinned at zero, so only the zz channel
    is needed: C^2 = 4*P--*P++ for psi1 and 4*P-+*P+- for psi2.  psi3 and psi4
    pin all zz probabilities at 1/4, so only the xz channel is needed:
    cos A = 4*Pxz++ - 1, cos B = 4*Pxz+- - 1 and C^2 = (1 - cos(A+B))/2.

    table is the input's CHANNEL_FOR_INPUT channel: a (4,) row, giving a
    float, or an (n, 4) array, giving the n estimates; float arrays are exact
    probabilities, integer arrays counts.
    """
    if input_id not in INPUT_IDS:
        raise ValueError(f"unknown input id {input_id!r}")
    p = _as_probs(table)
    rows = np.atleast_2d(p)
    if input_id == PSI1:
        value = 4.0 * rows[:, 3] * rows[:, 0]
    elif input_id == PSI2:
        value = 4.0 * rows[:, 2] * rows[:, 1]
    else:
        cos_a = np.clip(4.0 * rows[:, 0] - 1.0, -1.0, 1.0)
        cos_b = np.clip(4.0 * rows[:, 1] - 1.0, -1.0, 1.0)
        value = 0.5 * (1.0 - _cos_angle_sum(cos_a, cos_b))
    value = np.clip(value, 0.0, 1.0)
    return float(value[0]) if p.ndim == 1 else value


def build_series(input_id: str, plan: SamplingPlan, table) -> ConcurrenceSeries:
    """Assemble a ConcurrenceSeries from the measured channel's data on a plan's grid.

    table is an (nt, 4) array of the input's CHANNEL_FOR_INPUT channel,
    aligned with plan.times(): integer outcome counts, or exact outcome
    probabilities.
    """
    if input_id not in INPUT_IDS:
        raise ValueError(f"unknown input id {input_id!r}")
    channel = CHANNEL_FOR_INPUT[input_id]
    table = np.asarray(table)
    if table.shape != (plan.nt, 4):
        raise ValueError(f"{input_id} needs {plan.nt} points of {channel} data, got shape {table.shape}")
    values = concurrence_sq_reduced(input_id, table)
    if np.issubdtype(table.dtype, np.integer):
        shots = table.sum(axis=1)
    else:
        shots = np.zeros(plan.nt, dtype=np.int64)
    return ConcurrenceSeries(plan.times(), values, shots, channel, counts=table)
