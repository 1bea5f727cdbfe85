"""Translation of coupling uncertainty into two-qubit gate error probabilities.

A fractional coupling error epsilon stretches every pulse time by (1 + epsilon),
so the implemented gate is the ideal one with a slightly wrong duration.  The
effective error probability is defined through the normalized trace overlap:
p_eff = 1 - |Tr(U_im U^dag) / 4|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import HamiltonianParams, propagator
from .spectral import resolution_epsilon

GATE_ISING_CNOT = "ising_cnot"
GATE_SQRTSWAP = "heisenberg_sqrtswap"
GATES = (GATE_ISING_CNOT, GATE_SQRTSWAP)
# Largest budget ne anywhere in entmap: shot counts are int64.
MAX_NE = 2**63 - 1


@dataclass(frozen=True)
class GateErrorReport:
    """Error probability for one (gate, budget) working point."""

    gate: str
    epsilon: float
    p_eff: float
    nt: int
    ne: int
    total_measurements: int


def _as_matrix(u) -> np.ndarray:
    """The (4, 4) complex matrix of u; raises unless it is unitary to 1e-9."""
    m = np.asarray(u, dtype=complex).reshape(4, 4)
    deviation = float(np.abs(m.conj().T @ m - np.eye(4)).max())
    if deviation > 1e-9:
        raise ValueError(f"matrix is not unitary (deviation {deviation:.3e})")
    return m


def effective_error(u_im: np.ndarray, u: np.ndarray) -> float:
    """p_eff = 1 - |Tr(U_im U^dag)/4|^2, clamped to [0, 1].

    Invariant under global phases of either argument.  Both arguments must be
    (4, 4) unitaries to 1e-9.
    """
    a = _as_matrix(u_im)
    b = _as_matrix(u)
    overlap = abs(np.trace(a @ b.conj().T)) / 4.0
    return min(max(1.0 - overlap * overlap, 0.0), 1.0)


def ising_cnot_perr(epsilon: float) -> float:
    """Error of the Ising-coupling CNOT pulse (duration pi/(4J)) under a fractional
    coupling error: p_eff = sin^2(pi*epsilon/4)."""
    return math.sin(math.pi * epsilon / 4.0) ** 2


def heisenberg_sqrtswap_perr(epsilon: float) -> float:
    """Error of the isotropic-Heisenberg sqrt-SWAP pulse (duration pi/(8d)):
    p_eff = (3/4) * sin^2(pi*epsilon/4)."""
    return 0.75 * math.sin(math.pi * epsilon / 4.0) ** 2


CLOSED_FORMS = {GATE_ISING_CNOT: ising_cnot_perr, GATE_SQRTSWAP: heisenberg_sqrtswap_perr}


def ising_cnot_pulse(j_coupling: float, time_scale: float = 1.0) -> np.ndarray:
    """Entangling pulse exp(-i J ZZ t) at the CNOT time pi/(4J), optionally stretched.

    time_scale = 1 + epsilon models a calibration based on a coupling estimate
    that is off by the fractional error epsilon.
    """
    if j_coupling <= 0:
        raise ValueError(f"coupling must be positive, got {j_coupling!r}")
    h = HamiltonianParams(0.0, 0.0, j_coupling)
    return propagator(h, time_scale * math.pi / (4.0 * j_coupling))


def sqrtswap_pulse(d_coupling: float, time_scale: float = 1.0) -> np.ndarray:
    """Isotropic exchange pulse exp(-i d (XX+YY+ZZ) t) at the sqrt-SWAP time pi/(8d)."""
    if d_coupling <= 0:
        raise ValueError(f"coupling must be positive, got {d_coupling!r}")
    h = HamiltonianParams(d_coupling, d_coupling, d_coupling)
    return propagator(h, time_scale * math.pi / (8.0 * d_coupling))


def budget_curve(nt: int, ne_values, gate: str = GATE_ISING_CNOT) -> list[GateErrorReport]:
    """Gate error versus shot budget at fixed nt, using the closed-form error model."""
    if gate not in CLOSED_FORMS:
        raise ValueError(f"gate must be one of {GATES}, got {gate!r}")
    perr = CLOSED_FORMS[gate]
    reports = []
    for ne in ne_values:
        epsilon = resolution_epsilon(nt, int(ne))
        reports.append(
            GateErrorReport(
                gate=gate,
                epsilon=epsilon,
                p_eff=perr(epsilon),
                nt=int(nt),
                ne=int(ne),
                total_measurements=2 * int(nt) + 2 * int(ne),
            )
        )
    return reports


def measurements_for_threshold(p_target: float, nt: int, gate: str = GATE_ISING_CNOT) -> GateErrorReport:
    """Smallest endpoint budget ne (and total N = 2*nt + 2*ne) with p_eff <= p_target.

    p_eff falls monotonically as ne grows, so an integer bisection over
    [1, MAX_NE] finds the minimal ne exactly, despite rounding, in at most 63
    steps.  Raises ValueError when even MAX_NE misses the target.
    """
    if not (isinstance(p_target, (int, float)) and 0.0 < p_target <= 1.0):
        raise ValueError(f"p_target must lie in (0, 1], got {p_target!r}")
    if nt < 4:
        raise ValueError(f"nt must be >= 4, got {nt!r}")
    if gate not in CLOSED_FORMS:
        raise ValueError(f"gate must be one of {GATES}, got {gate!r}")
    perr = CLOSED_FORMS[gate]

    def meets(ne: int) -> bool:
        return perr(resolution_epsilon(nt, ne)) <= p_target

    if not meets(MAX_NE):
        raise ValueError(f"p_target {p_target!r} needs more than ne = {MAX_NE} at nt = {nt}")
    fails, ne = 0, MAX_NE  # fails misses the target (0 stands below ne = 1); ne meets it
    while ne - fails > 1:
        mid = (fails + ne) // 2
        if meets(mid):
            ne = mid
        else:
            fails = mid
    return budget_curve(nt, [ne], gate=gate)[0]
