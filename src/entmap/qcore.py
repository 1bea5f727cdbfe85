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


@dataclass(frozen=True)
class BellSpectrum:
    """Eigenvalues of the coupling attached to (Phi+, Phi-, Psi+, Psi-)."""

    phi_plus: float
    phi_minus: float
    psi_plus: float
    psi_minus: float

    def as_array(self) -> np.ndarray:
        return np.array([self.phi_plus, self.phi_minus, self.psi_plus, self.psi_minus])


@dataclass(frozen=True)
class PureState:
    """Normalized two-qubit pure state over (|00>, |01>, |10>, |11>)."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(4)
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(
                f"squared norm deviates from 1 by {abs(norm_sq - 1.0):.3e}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def computational(cls, bits: str) -> "PureState":
        index = {"00": 0, "01": 1, "10": 2, "11": 3}.get(bits)
        if index is None:
            raise ValueError(f"bits must be one of 00/01/10/11, got {bits!r}")
        amps = np.zeros(4, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        amps = np.asarray(amplitudes, dtype=complex).reshape(4)
        norm = float(np.linalg.norm(amps))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(amps / norm)


@dataclass(frozen=True)
class TwoQubitUnitary:
    """4x4 unitary; construction rejects matrices that are not unitary to 1e-12."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex).reshape(4, 4)
        deviation = float(np.abs(m.conj().T @ m - np.eye(4)).max())
        if deviation > NORM_TOL:
            raise ValueError(f"matrix is not unitary (deviation {deviation:.3e})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def state_vector(state) -> np.ndarray:
    """Amplitudes of a PureState or of any 4-element array-like."""
    if isinstance(state, PureState):
        return state.amplitudes
    return np.asarray(state, dtype=complex).reshape(4)


def require_normalized(amps: np.ndarray, tol: float = 1e-9) -> None:
    """Raise unless the state (or every row of a stack of states) has unit norm to tol."""
    deviation = float(np.abs((np.abs(amps) ** 2).sum(axis=-1) - 1.0).max(initial=0.0))
    if deviation > tol:
        raise ValueError(f"state must be normalized, |norm^2 - 1| = {deviation:.3e}")


def bell_spectrum(h: HamiltonianParams) -> BellSpectrum:
    """Closed-form eigenvalues of the coupling in the Bell basis.

    Phi+ and Phi- pick up c3 +/- (c1 - c2); Psi+ and Psi- pick up
    -c3 +/- (c1 + c2).  The four eigenvalues always sum to zero.
    """
    c1, c2, c3 = h.as_tuple()
    return BellSpectrum(
        phi_plus=c1 - c2 + c3,
        phi_minus=-c1 + c2 + c3,
        psi_plus=c1 + c2 - c3,
        psi_minus=-c1 - c2 - c3,
    )


def evolve_batch(h: HamiltonianParams, psi0, times) -> np.ndarray:
    """Exact states at every time in times under exp(-i H t), one row per time.

    Bit-identical to evolving each time on its own: the Bell map and the row
    norm keep the per-vector reduction order (a stacked mat-vec, and squares
    summed as (x0 + x2) + (x1 + x3) as BLAS ddot does inside np.linalg.norm).
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"times must be finite, got {float(times[~np.isfinite(times)][0])!r}")
    amps = state_vector(psi0)
    require_normalized(amps)
    coeffs = BELL_BASIS.T @ amps
    phases = np.exp(-1j * bell_spectrum(h).as_array() * times[:, None])
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


def evolve(h: HamiltonianParams, psi0, t: float) -> PureState:
    """Exact state at time t under exp(-i H t), via Bell-basis phase rotation."""
    return PureState(evolve_batch(h, psi0, [t])[0])


def propagator(h: HamiltonianParams, t: float) -> TwoQubitUnitary:
    """exp(-i H t) as an explicit unitary matrix."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    phases = np.exp(-1j * bell_spectrum(h).as_array() * t)
    return TwoQubitUnitary(BELL_BASIS @ (phases[:, None] * BELL_BASIS.T))


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


def oracle_evolve(h: HamiltonianParams, psi0, t: float) -> PureState:
    """Reference evolution through the power-series propagator.

    Raises if the series result drifts from unit norm by more than 1e-10, which
    would indicate the oracle itself is out of its validated range.
    """
    raw = series_propagator(h, t) @ state_vector(psi0)
    norm = float(np.linalg.norm(raw))
    if abs(norm - 1.0) > 1e-10:
        raise RuntimeError(f"series propagator lost normalization: |norm - 1| = {abs(norm - 1.0):.3e}")
    return PureState(raw / norm)


def concurrence_sq_exact(state) -> float:
    """Squared concurrence |<psi*| Y(x)Y |psi>|^2 of a normalized pure state.

    For amplitudes (a, b, c, d) this equals 4|ad - bc|^2.  The result is clamped
    to [0, 1] to absorb rounding.
    """
    amps = state_vector(state)
    require_normalized(amps)
    value = float(abs(amps @ (_YY @ amps)) ** 2)
    return min(max(value, 0.0), 1.0)


def negativity_sq(state) -> float:
    """Squared negativity of a pure state: sum of negative partial-transpose eigenvalues, squared.

    For two qubits 4 * negativity_sq equals the squared concurrence, which makes
    this a convenient independent check on concurrence_sq_exact.
    """
    amps = state_vector(state)
    require_normalized(amps)
    rho = np.outer(amps, amps.conj())
    # Partial transpose on qubit 2: swap the second-qubit row/column indices.
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    eigenvalues = np.linalg.eigvalsh(pt)
    negative_sum = float(eigenvalues[eigenvalues < 0.0].sum())
    return negative_sum * negative_sum


def input_combination(input_id: str, h: HamiltonianParams) -> float:
    """Signed coupling combination whose magnitude sets the oscillation of an input.

    psi1 -> c1 - c2, psi2 -> c1 + c2, psi3 -> c2 - c3, psi4 -> c2 + c3.
    """
    c1, c2, c3 = h.as_tuple()
    table = {
        PSI1: c1 - c2,
        PSI2: c1 + c2,
        PSI3: c2 - c3,
        PSI4: c2 + c3,
    }
    if input_id not in table:
        raise ValueError(f"unknown input id {input_id!r}")
    return table[input_id]


def analytic_concurrence_sq(input_id: str, h: HamiltonianParams, t):
    """Closed-form C^2(t) = sin^2(2 w t) for a protocol input, w = input_combination.

    Accepts scalar or array t.
    """
    w = input_combination(input_id, h)
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
