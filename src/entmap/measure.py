"""State preparation, two-qubit measurement channels, and seeded projection-noise sampling.

Measurement outcomes are always reported in the order (++, +-, -+, --), where the
first sign belongs to qubit 1 and the second to qubit 2.  Measuring X on a qubit
means rotating it by a Hadamard and reading out in Z.
"""

from __future__ import annotations

import math
import operator

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

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h) as uint64
# (high, low) limbs; a 128-bit number is always carried as such a limb pair.
_PCG_MULT = (np.uint64(2549297995355413924), np.uint64(4865540595714422341))
_LOW32 = np.uint64(_MASK32)

# numpy's random_binomial draws by inversion while min(p, 1 - p) * n <= 30
# (numpy/random/src/distributions/distributions.c), so every binomial of a
# multinomial row with at most 60 shots takes that branch.
_INVERSION_SHOTS = 60


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


def _mul64(a, b):
    """Full 128-bit products of uint64 arrays a * b, as (high, low) limbs, from 32-bit halves."""
    a0, a1 = a & _LOW32, a >> np.uint64(32)
    b0, b1 = b & _LOW32, b >> np.uint64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    high = a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
    return high, (mid << np.uint64(32)) | (p00 & _LOW32)


def _add128(a, b):
    """(high, low) limb sum mod 2**128, carrying out of the low limb."""
    high, low = a[0] + b[0], a[1] + b[1]
    return high + (low < a[1]), low


def _lcg_step(state, inc):
    """PCG64's LCG step, state * MULT + inc mod 2**128, on (high, low) limbs."""
    carry, low = _mul64(state[1], _PCG_MULT[1])
    return _add128((carry + state[1] * _PCG_MULT[0] + state[0] * _PCG_MULT[1], low), inc)


def _seeded_streams(words) -> np.ndarray:
    """PCG64 (state, inc) of every stream seeded with generate_state words, one row per stream.

    Rows are uint64 limbs (state high, state low, inc high, inc low), as
    pcg_setseq_128_srandom_r leaves them: inc = (w2, w3) << 1 | 1 and
    state = (inc + (w0, w1)) * MULT + inc.
    """
    w0, w1, w2, w3 = np.asarray(words, dtype=np.uint64).reshape(-1, 4).T
    one = np.uint64(1)
    inc = ((w2 << one) | (w3 >> np.uint64(63)), (w3 << one) | one)
    state = _lcg_step(_add128(inc, (w0, w1)), inc)
    return np.column_stack(state + inc)


def _generator(stream, rng: np.random.Generator | None = None) -> np.random.Generator:
    """rng, or a new Generator, with its PCG64 set to one _seeded_streams row's (state, inc)."""
    state_hi, state_lo, inc_hi, inc_lo = (int(w) for w in stream)
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _stream_doubles(streams: np.ndarray, count: int) -> np.ndarray:
    """The first count next_double outputs of every _seeded_streams row, one column per draw.

    PCG64 steps its LCG, then outputs XSL-RR of the new state (the two limbs
    XORed, rotated right by the top six bits); next_double keeps 53 bits.
    """
    state, inc = (streams[:, 0], streams[:, 1]), (streams[:, 2], streams[:, 3])
    doubles = np.empty((len(streams), count))
    for i in range(count):
        state = _lcg_step(state, inc)
        x = state[0] ^ state[1]
        rot = state[0] >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        doubles[:, i] = (x >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    return doubles


def _inversion_counts(p: np.ndarray, shots: np.ndarray, doubles: np.ndarray):
    """Multinomial rows of at most _INVERSION_SHOTS shots, drawn as numpy's C code draws them.

    Replays random_multinomial -> random_binomial -> random_binomial_inversion
    on every row at once, with the same float operations in the same order;
    qn comes from math.log and math.exp, the libm calls the C code makes.
    Row j's binomials take their uniforms from doubles[j] in order, one per
    binomial that draws.  Rows the replay does not cover, where inversion
    passes its bound and restarts or numpy would leave inversion, are
    returned in a mask; their counts are not valid.
    """
    m = len(p)
    lanes = np.arange(m)
    counts = np.zeros((m, 4), dtype=np.int64)
    left = shots.copy()
    remaining = np.ones(m)
    used = np.zeros(m, dtype=np.int64)
    redraw = np.zeros(m, dtype=bool)
    # Rows that do not draw compute on garbage, which np.where masks out.
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(3):
            ratio = p[:, k] / remaining
            remaining -= p[:, k]
            draw = (left > 0) & (ratio != 0.0)
            if not draw.any():
                continue
            flip = ~(ratio <= 0.5)
            pp = np.where(flip, 1.0 - ratio, ratio)
            q = 1.0 - pp
            # numpy's own test for leaving inversion (for BTPE); the 60-shot cap keeps every lane inside it.
            redraw |= draw & ~(pp * left <= 30.0)
            u0 = doubles[lanes, used]
            used += draw
            # pp <= 0 only when rounding takes the ratio to 1 or past it; then qn >= 1 > u and x = 0.
            qn = np.ones(m)
            live = np.flatnonzero(draw & (pp > 0.0))
            qn[live] = list(map(math.exp, map(operator.mul, left[live].tolist(), map(math.log, q[live].tolist()))))
            npq = left * pp
            cap = npq + 10.0 * np.sqrt(npq * q + 1.0)
            # C truncates MIN(n, cap) to an integer; an integer X exceeds either alike.
            bound = np.where(left < cap, left, cap)
            # px[i] and u[i] are px and U once X = i; X is the first i with U <= px.
            steps = np.arange(1, left[draw].max(initial=0) + 1)[:, None]
            grow, shrink = (left - steps + 1) * pp, steps * q
            px = np.empty((len(steps) + 1, m))
            px[0] = qn
            for i in range(len(steps)):
                px[i + 1] = grow[i] * px[i] / shrink[i]
            u = np.subtract.accumulate(np.vstack([u0, px[:-1]]), axis=0)
            stop = u <= px
            x = stop.argmax(axis=0)
            redraw |= draw & (~stop[x, lanes] | (x > bound))
            counts[:, k] = np.where(draw, np.where(flip, left - x, x), 0)
            left -= counts[:, k]
    counts[:, 3] = left
    return counts, redraw


def _checked_sampler_input(p: np.ndarray, shots) -> np.ndarray:
    """Shots as int64 after checking every row of a sampler's input; a ValueError names the first bad row."""
    shots = np.asarray(shots).reshape(-1)
    if shots.size != len(p):
        raise ValueError(f"need one shot count per probability row, got {shots.size} for {len(p)}")
    # Integer shots are compared exactly: through float, 2**63 - 512 and up round to 2**63.
    integral = shots.dtype.kind in "iu"
    s = shots if integral else shots.astype(float)
    with np.errstate(invalid="ignore", over="ignore"):
        whole = integral or (np.isfinite(s) & (s == np.floor(s)))
        rules = (
            (~(whole & (s < 2**63)), "shots must be a whole number below 2**63"),
            (s < 0, "shots must be >= 0"),
            (~np.isfinite(p.sum(axis=1)), "probabilities and their sum must be finite"),
            ((p < 0).any(axis=1), "probabilities must be >= 0"),
            (~(p > 0).any(axis=1), "probabilities are all zero"),
        )
    broken = np.column_stack([mask for mask, _ in rules])
    bad = np.flatnonzero(broken.any(axis=1))
    if bad.size:
        j = bad[0]
        reason = rules[int(np.argmax(broken[j]))][1]
        raise ValueError(f"row {j}: {reason}, got shots {shots[j]!r} and probabilities {p[j].tolist()}")
    return shots.astype(np.int64)


def sample_counts_batch(probs, shots, master_seed: int, input_id: str, channel: str) -> np.ndarray:
    """Multinomial counts for every row of (n, 4) probabilities; row j from point j's own stream.

    Row j equals point_rng(master_seed, input_id, j, channel).multinomial(
    shots[j], p_j) with p_j the row normalised to sum 1.  Probabilities must
    be finite and non-negative with a positive sum, shots whole and >= 0.
    Every point's stream is seeded from one stream_words pass.  Rows with at
    most _INVERSION_SHOTS shots are drawn together with array ops that step
    PCG64 and replay numpy's binomial inversion; larger rows, and any row
    whose inversion restarts, are drawn by one generator set to each point's
    seeded state in turn.
    """
    p = np.asarray(probs, dtype=float).reshape(-1, 4)
    shots = _checked_sampler_input(p, shots)
    p = p / p.sum(axis=1, keepdims=True)
    streams = _seeded_streams(stream_words(master_seed, input_id, channel, np.arange(len(p))))
    per_point = shots > _INVERSION_SHOTS
    small = np.flatnonzero(~per_point)
    counts = np.empty((len(p), 4), dtype=np.int64)
    if small.size:
        # A row draws at most three binomials, one double each.
        counts[small], redraw = _inversion_counts(p[small], shots[small], _stream_doubles(streams[small], 3))
        per_point[small[redraw]] = True
    rows = np.flatnonzero(per_point)
    rng = None
    for j, stream, n in zip(rows.tolist(), streams[rows].tolist(), shots[rows].tolist()):
        rng = _generator(stream, rng)
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
    return _generator(_seeded_streams(stream_words(master_seed, input_id, channel, [time_index]))[0])
