"""Exact two-qubit dynamics and entanglement measures for anisotropic Heisenberg couplings.

The interaction is H = c1*XX + c2*YY + c3*ZZ over two qubits.  Everything in this
module works in the computational basis (|00>, |01>, |10>, |11>).  Time evolution
is computed exactly by diagonalizing in the Bell basis, where H is diagonal for
any coupling triple.  A slow power-series propagator is kept alongside as an
independent cross-check for the fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Canonical identifiers for the four protocol input states.
PSI1 = "psi1"  # |00>
PSI2 = "psi2"  # |01>
PSI3 = "psi3"  # |+>|+>
PSI4 = "psi4"  # |->|->
INPUT_IDS = (PSI1, PSI2, PSI3, PSI4)
# Fifth input, measured only to break the |c1| = |c3| tie between (a, b, a) and (b, a, b).
PSI5 = "psi5"  # |0>|+>
ALL_INPUTS = INPUT_IDS + (PSI5,)

NORM_TOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Spin-flip operator Y(x)Y used by the pure-state concurrence.
_YY = np.kron(PAULI_Y, PAULI_Y)

# Columns are Phi+, Phi-, Psi+, Psi- expressed over the computational basis.
# This matrix is real orthogonal, so its transpose is its inverse.
BELL_BASIS = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, -1.0],
        [1.0, -1.0, 0.0, 0.0],
    ]
) / math.sqrt(2.0)

# Rows map (c1, c2, c3) to the signed combination each input of INPUT_IDS
# oscillates at: (c1-c2, c1+c2, c2-c3, c2+c3).
COMBINATION_MATRIX = np.array(
    [
        [1.0, -1.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0],
        [0.0, 1.0, 1.0],
    ]
)
# Its columns are orthogonal (M^T M = diag(2, 4, 2)), so the pseudoinverse is
# M^T with each row scaled by its inverse squared norm: entries +/-1/2 and +/-1/4, exact.
COMBINATION_PINV = COMBINATION_MATRIX.T / (COMBINATION_MATRIX**2).sum(axis=0)[:, None]
# Unit left null vector: every y = M c has y . n = 0, and the least-squares
# fit of any y misses it by exactly |y . n|.
COMBINATION_NULL = np.array([1.0, -1.0, 1.0, 1.0]) / 2.0


@dataclass(frozen=True)
class HamiltonianParams:
    """Coupling coefficients (angular frequency units) of c1*XX + c2*YY + c3*ZZ."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (float(self.c1), float(self.c2), float(self.c3))

    def matrix(self) -> np.ndarray:
        """Explicit 4x4 Hamiltonian built from Pauli tensor products."""
        return (
            self.c1 * np.kron(PAULI_X, PAULI_X)
            + self.c2 * np.kron(PAULI_Y, PAULI_Y)
            + self.c3 * np.kron(PAULI_Z, PAULI_Z)
        )


def require_normalized(amps: np.ndarray, tol: float = 1e-9) -> None:
    """Raise unless the state (or every row of a stack of states) is finite with unit norm to tol."""
    if not np.all(np.isfinite(amps)):
        raise ValueError("state amplitudes must be finite")
    deviation = float(np.abs((np.abs(amps) ** 2).sum(axis=-1) - 1.0).max(initial=0.0))
    if deviation > tol:
        raise ValueError(f"state must be normalized, |norm^2 - 1| = {deviation:.3e}")


def _as_state(psi) -> np.ndarray:
    """psi as a (4,) complex array, checked by require_normalized."""
    amps = np.asarray(psi, dtype=complex).reshape(4)
    require_normalized(amps)
    return amps


def bell_spectrum(h: HamiltonianParams) -> np.ndarray:
    """Closed-form eigenvalues of the coupling in the Bell basis, as (Phi+, Phi-, Psi+, Psi-).

    Phi+ and Phi- pick up c3 +/- (c1 - c2); Psi+ and Psi- pick up
    -c3 +/- (c1 + c2).  The four eigenvalues always sum to zero.
    """
    c1, c2, c3 = h.as_tuple()
    return np.array([c1 - c2 + c3, -c1 + c2 + c3, c1 + c2 - c3, -c1 - c2 - c3])


def evolve_batch(h: HamiltonianParams, psi0, times) -> np.ndarray:
    """Exact states at every time in times under exp(-i H t), one row per time.

    psi0 is one (4,) initial state for every time, or an (n, 4) stack with
    one initial state per time.  Bit-identical to evolving each time on its
    own: the Bell maps and the row norm keep the per-vector reduction order
    (stacked mat-vecs, and squares summed as (x0 + x2) + (x1 + x3) as BLAS
    ddot does inside np.linalg.norm).
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"times must be finite, got {float(times[~np.isfinite(times)][0])!r}")
    amps = np.asarray(psi0, dtype=complex)
    if amps.shape not in ((4,), (times.size, 4)):
        raise ValueError(f"psi0 must be one state or one per time, got shape {amps.shape} for {times.size} times")
    require_normalized(amps)
    coeffs = (BELL_BASIS.T @ amps[..., None])[..., 0]
    phases = np.exp(-1j * bell_spectrum(h) * times[:, None])
    out = (BELL_BASIS @ (phases * coeffs)[:, :, None])[:, :, 0]
    # Rotation is exactly norm-preserving up to rounding; renormalize the dust away.
    re2 = out.real * out.real
    im2 = out.imag * out.imag
    norm_sq = ((re2[:, 0] + re2[:, 2]) + (re2[:, 1] + re2[:, 3])) + (
        (im2[:, 0] + im2[:, 2]) + (im2[:, 1] + im2[:, 3])
    )
    out = out / np.sqrt(norm_sq)[:, None]
    require_normalized(out, NORM_TOL)
    return out


def propagator(h: HamiltonianParams, t: float) -> np.ndarray:
    """exp(-i H t) as an explicit unitary matrix."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    phases = np.exp(-1j * bell_spectrum(h) * t)
    return BELL_BASIS @ (phases[:, None] * BELL_BASIS.T)


def series_propagator(h: HamiltonianParams, t: float) -> np.ndarray:
    """Power-series exp(-i H t) with scaling and squaring; no unitarity enforcement.

    Deliberately avoids the Bell diagonalization (and library expm) so it can act
    as an independent oracle for the fast path.  The series is truncated once the
    next term's max-abs entry drops below 1e-16; the argument is pre-scaled by
    2**s so the scaled norm is below 1/2, then squared back up.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    a = -1j * t * h.matrix()
    norm = float(np.linalg.norm(a, ord=np.inf))
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    m = a / (2.0**s)
    term = np.eye(4, dtype=complex)
    total = np.eye(4, dtype=complex)
    for k in range(1, 64):
        term = term @ m / k
        total = total + term
        if float(np.abs(term).max()) < 1e-16:
            break
    else:
        raise RuntimeError("propagator series failed to converge in 64 terms")
    for _ in range(s):
        total = total @ total
    return total


def oracle_evolve(h: HamiltonianParams, psi0, t: float) -> np.ndarray:
    """Reference evolution through the power-series propagator.

    Raises if the series result drifts from unit norm by more than 1e-10, which
    would indicate the oracle itself is out of its validated range.
    """
    amps = _as_state(psi0)
    raw = series_propagator(h, t) @ amps
    norm = float(np.linalg.norm(raw))
    if abs(norm - 1.0) > 1e-10:
        raise RuntimeError(f"series propagator lost normalization: |norm - 1| = {abs(norm - 1.0):.3e}")
    return raw / norm


def concurrence_sq_exact(states):
    """Squared concurrence |<psi*| Y(x)Y |psi>|^2 of normalized pure states.

    For amplitudes (a, b, c, d) this equals 4|ad - bc|^2.  Takes a (4,) state
    and returns a float, or an (n, 4) stack and returns the n values; each
    is clamped to [0, 1] to absorb rounding.
    """
    amps = np.asarray(states, dtype=complex)
    if amps.shape[-1:] != (4,) or amps.ndim > 2:
        raise ValueError(f"expected a (4,) or (n, 4) array of states, got shape {amps.shape}")
    require_normalized(amps)
    rows = amps.reshape(-1, 4)
    # Y(x)Y's entries are 0 and +/-1, so the stacked product is exact.
    flipped = (_YY @ rows[:, :, None])[:, :, 0]
    # The 4-term complex dot stays a per-row a @ w (BLAS zdotu): a stacked
    # (1x4)@(4x1) matmul, einsum or vecdot sums in another order and moves
    # the last bit of many values.
    value = np.clip([abs(a @ w) ** 2 for a, w in zip(rows, flipped)], 0.0, 1.0)
    return float(value[0]) if amps.ndim == 1 else value


def negativity_sq(state) -> float:
    """Squared negativity of a pure state: sum of negative partial-transpose eigenvalues, squared.

    For two qubits 4 * negativity_sq equals the squared concurrence, which makes
    this a convenient independent check on concurrence_sq_exact.
    """
    amps = _as_state(state)
    rho = np.outer(amps, amps.conj())
    # Partial transpose on qubit 2: swap the second-qubit row/column indices.
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    eigenvalues = np.linalg.eigvalsh(pt)
    negative_sum = float(eigenvalues[eigenvalues < 0.0].sum())
    return negative_sum * negative_sum


def combinations(h: HamiltonianParams) -> np.ndarray:
    """Signed combinations (c1-c2, c1+c2, c2-c3, c2+c3), one per protocol input."""
    return COMBINATION_MATRIX @ np.array(h.as_tuple())


def analytic_concurrence_sq(input_id: str, h: HamiltonianParams, t):
    """Closed-form C^2(t) = sin^2(2 w t) for a protocol input, w its row of combinations(h).

    Accepts scalar or array t.
    """
    if input_id not in INPUT_IDS:
        raise ValueError(f"unknown input id {input_id!r}")
    w = combinations(h)[INPUT_IDS.index(input_id)]
    return np.sin(2.0 * w * np.asarray(t, dtype=float)) ** 2


def imperfect_prep_concurrence_sq(h: HamiltonianParams, eta: float, t):
    """First-order (in eta) C^2(t) for psi1 contaminated as (|00> + sqrt(eta)|01>)/sqrt(1+eta).

    The leading term is the ideal sin^2(2(c1-c2)t) scaled by (1 - 2 eta); the
    correction is eta/2 times four cosines at the combinations
    4(c1-c3), 4(c2-c3), 4(c1+c3), 4(c2+c3).  Accepts scalar or array t.
    """
    if not (isinstance(eta, (int, float)) and 0.0 <= eta < 1.0):
        raise ValueError(f"eta must lie in [0, 1), got {eta!r}")
    c1, c2, c3 = h.as_tuple()
    tt = np.asarray(t, dtype=float)
    main = (1.0 - 2.0 * eta) * np.sin(2.0 * (c1 - c2) * tt) ** 2
    correction = 0.5 * eta * (
        np.cos(4.0 * (c1 - c3) * tt)
        - np.cos(4.0 * (c2 - c3) * tt)
        + np.cos(4.0 * (c1 + c3) * tt)
        - np.cos(4.0 * (c2 + c3) * tt)
    )
    return main + correction


def sideband_frequencies(h: HamiltonianParams) -> dict[str, float]:
    """Spectral positions 4|ci +/- cj| of psi1's main line (w1m2) and its five sidebands."""
    c1, c2, c3 = h.as_tuple()
    return {
        "w1m2": 4.0 * abs(c1 - c2),
        "w1p2": 4.0 * abs(c1 + c2),
        "w1m3": 4.0 * abs(c1 - c3),
        "w1p3": 4.0 * abs(c1 + c3),
        "w2m3": 4.0 * abs(c2 - c3),
        "w2p3": 4.0 * abs(c2 + c3),
    }
