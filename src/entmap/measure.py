"""State preparation, two-qubit measurement channels, and seeded projection-noise sampling.

Measurement outcomes are always reported in the order (++, +-, -+, --), where the
first sign belongs to qubit 1 and the second to qubit 2.  Measuring X on a qubit
means rotating it by a Hadamard and reading out in Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import ALL_INPUTS, PSI1, PSI2, PSI3, PSI4, PSI5, PureState, require_normalized, state_vector

OUTCOMES = ("++", "+-", "-+", "--")

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)

PROB_TOL = 1e-12

# Seed-stream tags for the two measurement channels.
CHANNELS = ("zz", "xz")


@dataclass(frozen=True)
class BasisPair:
    """Single-qubit measurement axes for the two qubits; each axis is X or Z."""

    axis1: str
    axis2: str

    def __post_init__(self) -> None:
        for axis in (self.axis1, self.axis2):
            if axis not in ("X", "Z"):
                raise ValueError(f"measurement axis must be X or Z, got {axis!r}")

    def rotation(self) -> np.ndarray:
        u1 = HADAMARD if self.axis1 == "X" else np.eye(2, dtype=complex)
        u2 = HADAMARD if self.axis2 == "X" else np.eye(2, dtype=complex)
        return np.kron(u1, u2)

    def tag(self) -> str:
        return (self.axis1 + self.axis2).lower()


BASIS_ZZ = BasisPair("Z", "Z")
BASIS_XZ = BasisPair("X", "Z")

BASIS_BY_TAG = {"zz": BASIS_ZZ, "xz": BASIS_XZ}


def _checked_prob_rows(p: np.ndarray) -> np.ndarray:
    """Validate (n, 4) outcome probabilities row by row; returns them clipped to [0, 1]."""
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    outside = ((p < -PROB_TOL) | (p > 1.0 + PROB_TOL)).any(axis=1)
    if np.any(outside):
        raise ValueError(f"probabilities outside [0, 1]: {p[outside][0].tolist()}")
    sums = p.sum(axis=1)
    off = np.abs(sums - 1.0) > PROB_TOL
    if np.any(off):
        raise ValueError(f"probabilities sum to {sums[off][0]!r}, expected 1")
    return np.clip(p, 0.0, 1.0)


@dataclass(frozen=True)
class ProbTable:
    """Outcome probabilities in the order (++, +-, -+, --); must sum to 1."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = _checked_prob_rows(np.array(self.probabilities, dtype=float).reshape(1, 4))[0]
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)

    def prob(self, outcome: str) -> float:
        return float(self.probabilities[OUTCOMES.index(outcome)])


@dataclass(frozen=True)
class OutcomeCounts:
    """Integer outcome counts in the order (++, +-, -+, --)."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.counts)
        if c.shape != (4,) and c.size == 4:
            c = c.reshape(4)
        if not np.issubdtype(c.dtype, np.integer):
            as_int = c.astype(np.int64)
            if not np.array_equal(as_int, c):
                raise ValueError("counts must be integers")
            c = as_int
        if (c < 0).any():
            raise ValueError("counts must be nonnegative")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def shots(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class PrepSpec:
    """Which protocol input to prepare, and how imperfectly.

    eta is the weight of an orthogonal contaminant mixed coherently into the
    target: psi = (target + sqrt(eta) * partner) / sqrt(1 + eta).  The partner
    flips the second qubit within its own preparation basis, so psi1 <-> psi2,
    psi3 <-> psi4, and the tie-breaking |0>|+> takes |0>|->.
    """

    input_id: str
    eta: float = 0.0

    def __post_init__(self) -> None:
        if self.input_id not in ALL_INPUTS:
            raise ValueError(f"unknown input id {self.input_id!r}")
        if not (isinstance(self.eta, (int, float)) and 0.0 <= self.eta < 1.0):
            raise ValueError(f"eta must lie in [0, 1), got {self.eta!r}")


_BASE_AMPLITUDES = {
    PSI1: np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
    PSI2: np.array([0.0, 1.0, 0.0, 0.0], dtype=complex),
    PSI3: np.array([0.5, 0.5, 0.5, 0.5], dtype=complex),
    PSI4: np.array([0.5, -0.5, 0.5, -0.5], dtype=complex),
    PSI5: np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / math.sqrt(2.0),
}

_CONTAMINANT_AMPLITUDES = {
    PSI1: _BASE_AMPLITUDES[PSI2],
    PSI2: _BASE_AMPLITUDES[PSI1],
    PSI3: _BASE_AMPLITUDES[PSI4],
    PSI4: _BASE_AMPLITUDES[PSI3],
    PSI5: np.array([1.0, -1.0, 0.0, 0.0], dtype=complex) / math.sqrt(2.0),
}


def prepare_input(spec: PrepSpec) -> PureState:
    """Build the (possibly contaminated) protocol input state."""
    base = _BASE_AMPLITUDES[spec.input_id]
    if spec.eta == 0.0:
        return PureState(base.copy())
    partner = _CONTAMINANT_AMPLITUDES[spec.input_id]
    amps = (base + math.sqrt(spec.eta) * partner) / math.sqrt(1.0 + spec.eta)
    return PureState(amps)


def outcome_probs_batch(states, basis: BasisPair) -> np.ndarray:
    """Exact outcome probabilities, one (++, +-, -+, --) row per state row.

    The rotation is a stacked mat-vec so each row matches a lone state's bits.
    """
    amps = np.asarray(states, dtype=complex).reshape(-1, 4)
    require_normalized(amps)
    rotated = (basis.rotation() @ amps[:, :, None])[:, :, 0]
    p = np.abs(rotated) ** 2
    return _checked_prob_rows(p / p.sum(axis=1, keepdims=True))


def outcome_probs(state, basis: BasisPair) -> ProbTable:
    """Exact outcome probabilities of measuring a state in the given basis pair."""
    return ProbTable(outcome_probs_batch(state_vector(state), basis)[0])


def sample_counts(table: ProbTable, shots: int, rng) -> OutcomeCounts:
    """Draw multinomial outcome counts for a finite number of shots.

    rng can be a numpy Generator or anything accepted by default_rng.
    """
    if not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    p = table.probabilities
    counts = rng.multinomial(int(shots), p / p.sum())
    return OutcomeCounts(counts)


def empirical_probs(counts: OutcomeCounts) -> ProbTable:
    """Relative frequencies from counts; requires at least one shot."""
    total = counts.shots
    if total < 1:
        raise ValueError("cannot form empirical probabilities from zero shots")
    return ProbTable(counts.counts / total)


def point_rng(master_seed: int, input_id: str, time_index: int, channel: str) -> np.random.Generator:
    """Independent, reproducible random stream for one (input, time point, channel).

    Streams are derived from a SeedSequence spawn key, so distinct coordinates
    give statistically independent generators and the same coordinates always
    give the same draws regardless of evaluation order.
    """
    if input_id not in ALL_INPUTS:
        raise ValueError(f"unknown input id {input_id!r}")
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    if time_index < 0:
        raise ValueError(f"time_index must be >= 0, got {time_index!r}")
    key = (ALL_INPUTS.index(input_id), int(time_index), CHANNELS.index(channel))
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))
