"""State preparation, two-qubit measurement channels, and seeded projection-noise sampling.

Measurement outcomes are always reported in the order (++, +-, -+, --), where the
first sign belongs to qubit 1 and the second to qubit 2.  Measuring X on a qubit
means rotating it by a Hadamard and reading out in Z.
"""

from __future__ import annotations

import math

import numpy as np

from .qcore import ALL_INPUTS, PSI1, PSI2, PSI3, PSI4, PSI5, require_normalized

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)

PROB_TOL = 1e-12

# Readout rotation of each measurement channel, keyed by the channel's name:
# zz reads both qubits in Z, xz turns qubit 1 by a Hadamard to read it in X.
# The key order fixes each channel's seed-stream tag.
READOUT_ROTATIONS = {"zz": np.eye(4, dtype=complex), "xz": np.kron(HADAMARD, np.eye(2, dtype=complex))}
CHANNELS = tuple(READOUT_ROTATIONS)


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


def prepare_input(input_id: str, eta: float = 0.0) -> np.ndarray:
    """Amplitudes of a protocol input, optionally contaminated with weight eta.

    psi = (target + sqrt(eta) * partner) / sqrt(1 + eta), with eta in [0, 1).
    The partner flips the second qubit within its own preparation basis, so
    psi1 <-> psi2, psi3 <-> psi4, and the tie-breaking |0>|+> takes |0>|->.
    """
    if input_id not in ALL_INPUTS:
        raise ValueError(f"unknown input id {input_id!r}")
    if not (isinstance(eta, (int, float)) and 0.0 <= eta < 1.0):
        raise ValueError(f"eta must lie in [0, 1), got {eta!r}")
    base = _BASE_AMPLITUDES[input_id]
    if eta == 0.0:
        return base.copy()
    partner = _CONTAMINANT_AMPLITUDES[input_id]
    return (base + math.sqrt(eta) * partner) / math.sqrt(1.0 + eta)


def outcome_probs_batch(states, channel: str) -> np.ndarray:
    """Exact outcome probabilities in one channel, one (++, +-, -+, --) row per state row.

    The rotation is a stacked mat-vec, so a row's bits do not depend on the
    other rows passed with it.
    """
    if channel not in READOUT_ROTATIONS:
        raise ValueError(f"unknown channel {channel!r}")
    amps = np.asarray(states, dtype=complex).reshape(-1, 4)
    require_normalized(amps)
    rotated = (READOUT_ROTATIONS[channel] @ amps[:, :, None])[:, :, 0]
    p = np.abs(rotated) ** 2
    return _checked_prob_rows(p / p.sum(axis=1, keepdims=True))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx):
# hashmix/mix fold the entropy words into a pool of four uint32 words, and
# generate_state hashes the pool out again with the INIT_B/MULT_B chain.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _uint32_words(n: int) -> list[int]:
    """numpy's coercion of a non-negative integer to little-endian uint32 words (0 -> [0])."""
    if n < 0:
        raise ValueError(f"expected non-negative integer seed, got {n!r}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_chain(start: int, mult: int, n: int) -> list[int]:
    """Hash constants start * mult^i mod 2^32 for i = 0..n: the one before each of n hashes, then the last."""
    chain = [start]
    for _ in range(n):
        chain.append(chain[-1] * mult & _MASK32)
    return chain


def _hashmix(value, xor_const, mult_const):
    # Works on Python ints and on uint32 arrays alike; the mask is a no-op on the arrays.
    value = (value ^ xor_const) * mult_const & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def stream_words(master_seed: int, input_id: str, channel: str, time_indices) -> np.ndarray:
    """PCG64 seed words of every point's stream, one (4,) uint64 row per time index.

    Row k equals SeedSequence(master_seed, spawn_key=(input, time_indices[k],
    channel)).generate_state(4, np.uint64).  The seed's own words fill and
    mix the pool once, with Python ints, since they are the same for every
    row; the spawn-key words, the time index among them, are then folded in
    as uint32 columns, all four pool words at a time.
    """
    if input_id not in ALL_INPUTS:
        raise ValueError(f"unknown input id {input_id!r}")
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    index = np.asarray(time_indices).reshape(-1)
    if index.size and index.min() < 0:
        raise ValueError(f"time_index must be >= 0, got {index.min()!r}")
    if index.size and index.max() > _MASK32:
        raise ValueError(f"time_index must be < 2**32, got {index.max()!r}")
    run = _uint32_words(int(master_seed))
    # With a spawn key, numpy pads the run entropy to the pool size.
    run += [0] * (_POOL_SIZE - len(run))
    tail = [np.array([[w]], dtype=np.uint32) for w in run[_POOL_SIZE:]]
    tail += [
        np.array([[ALL_INPUTS.index(input_id)]], dtype=np.uint32),
        index.astype(np.uint32)[:, None],
        np.array([[CHANNELS.index(channel)]], dtype=np.uint32),
    ]
    hc = _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + len(tail)))
    pool = [_hashmix(w, hc[i], hc[i + 1]) for i, w in enumerate(run[:_POOL_SIZE])]
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hc[k], hc[k + 1]))
                k += 1
    pool = np.array(pool, dtype=np.uint32)
    consts = np.array(hc, dtype=np.uint32)
    for column in tail:
        pool = _mix(pool, _hashmix(column, consts[k : k + _POOL_SIZE], consts[k + 1 : k + _POOL_SIZE + 1]))
        k += _POOL_SIZE
    out_consts = np.array(_hash_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE), dtype=np.uint32)
    pool = np.broadcast_to(pool, (index.size, _POOL_SIZE))
    state = _hashmix(np.tile(pool, 2), out_consts[:-1], out_consts[1:])
    # Word pairs read as little-endian uint64s, as generate_state does.
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _pcg64_state(words) -> dict:
    """PCG64's state after seeding with generate_state words (pcg_setseq_128_srandom_r)."""
    w0, w1, w2, w3 = (int(w) for w in words)
    inc = (((w2 << 64) | w3) << 1 | 1) & _MASK128
    state = ((inc + ((w0 << 64) | w1)) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def _carrier() -> np.random.Generator:
    # Its seed is overwritten before any draw.
    return np.random.Generator(np.random.PCG64(0))


def sample_counts_batch(probs, shots, master_seed: int, input_id: str, channel: str) -> np.ndarray:
    """Multinomial counts for every row of (n, 4) probabilities; row j from point j's own stream.

    Row j equals point_rng(master_seed, input_id, j, channel).multinomial(
    shots[j], p_j) with p_j the row normalised to sum 1.  The stream words
    of the whole grid come from one stream_words pass, and a single
    generator is reset to each point's seeded state before its draw.
    """
    p = np.asarray(probs, dtype=float).reshape(-1, 4)
    shots = np.asarray(shots).reshape(-1)
    if shots.size != len(p):
        raise ValueError(f"need one shot count per probability row, got {shots.size} for {len(p)}")
    p = p / p.sum(axis=1, keepdims=True)
    words = stream_words(master_seed, input_id, channel, np.arange(len(p)))
    rng = _carrier()
    bitgen = rng.bit_generator
    counts = np.empty((len(p), 4), dtype=np.int64)
    for j, (row, n) in enumerate(zip(words.tolist(), shots.tolist())):
        bitgen.state = _pcg64_state(row)
        counts[j] = rng.multinomial(n, p[j])
    return counts


def point_rng(master_seed: int, input_id: str, time_index: int, channel: str) -> np.random.Generator:
    """Independent, reproducible random stream for one (input, time point, channel).

    Streams are derived from a SeedSequence spawn key, so distinct coordinates
    give statistically independent generators and the same coordinates always
    give the same draws regardless of evaluation order.  The generator draws
    exactly as Generator(PCG64(SeedSequence(master_seed, spawn_key=(input,
    time_index, channel)))) does; it is a one-row stream_words call, and only
    its state, not its seed_seq attribute, carries the point's seed.
    """
    words = stream_words(master_seed, input_id, channel, [time_index])
    rng = _carrier()
    rng.bit_generator.state = _pcg64_state(words[0])
    return rng
