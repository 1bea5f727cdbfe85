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
_ROTATION_STACK = np.stack(list(READOUT_ROTATIONS.values()))


def _key_codes(keys, names: tuple[str, ...], what: str) -> np.ndarray:
    """Position in names of one key, or of each key of a per-row array; a ValueError names an unknown key."""
    if isinstance(keys, str) and keys in names:  # one name, the common case, needs no array compares
        return np.array(names.index(keys))
    keys = np.asarray(keys)
    codes = np.full(keys.shape, -1)
    for code, name in enumerate(names):
        codes[keys == name] = code
    unknown = codes < 0
    if unknown.any():
        raise ValueError(f"unknown {what} {keys[unknown].flat[0].item()!r}")
    return codes


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


def outcome_probs_batch(states, channel) -> np.ndarray:
    """Exact outcome probabilities, one (++, +-, -+, --) row per state row.

    channel names one channel for every row, or holds one name per row.  The
    rotation is a stacked mat-vec, broadcast or one matrix per row, which
    give the same bits, so a row's bits do not depend on the other rows
    passed with it.
    """
    codes = _key_codes(channel, CHANNELS, "channel")
    amps = np.asarray(states, dtype=complex).reshape(-1, 4)
    require_normalized(amps)
    rotated = (_ROTATION_STACK[codes] @ amps[:, :, None])[:, :, 0]
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


def _uint32_words(seed) -> list[int]:
    """numpy's coercion of a non-negative integer to little-endian uint32 words (0 -> [0]).

    Like numpy's SeedSequence it takes integers only, so 1.9 is refused rather than truncated.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"expected non-negative integer seed, got {seed!r}")
    n = int(seed)
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


def stream_words(master_seed: int, input_id, channel, time_indices) -> np.ndarray:
    """PCG64 seed words of every point's stream, one (4,) uint64 row per time index.

    input_id and channel each name one key for every row or hold one name
    per time index.  Row k equals SeedSequence(master_seed, spawn_key=(input
    k, time_indices[k], channel k)).generate_state(4, np.uint64).  The
    seed's own words fill and mix the pool once, with Python ints, since
    they are the same for every row; the spawn-key words are then folded in
    as uint32 columns, all four pool words at a time, a key named once as a
    single-row column.
    """
    index = np.asarray(time_indices).reshape(-1)
    if index.dtype.kind not in "iu":
        # numpy's SeedSequence takes only integer spawn keys.
        wrong = [j for j in index.tolist() if not isinstance(j, int) or isinstance(j, bool)]
        if wrong:
            raise ValueError(f"time_index must be an integer, got {wrong[0]!r}")
    if index.size and index.min() < 0:
        raise ValueError(f"time_index must be >= 0, got {index.min()!r}")
    if index.size and index.max() > _MASK32:
        raise ValueError(f"time_index must be < 2**32, got {index.max()!r}")
    keys = (_key_codes(input_id, ALL_INPUTS, "input id"), index, _key_codes(channel, CHANNELS, "channel"))
    if any(key.ndim and key.size != index.size for key in keys):
        raise ValueError(f"need one input id and one channel per time index, got {index.size} time indices")
    run = _uint32_words(master_seed)
    # With a spawn key, numpy pads the run entropy to the pool size.
    run += [0] * (_POOL_SIZE - len(run))
    tail = [np.array([[w]], dtype=np.uint32) for w in run[_POOL_SIZE:]]
    tail += [key.astype(np.uint32).reshape(-1, 1) for key in keys]
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


# A lane's X is certified when both remainders that decide it clear zero by this much.  numpy's
# exp(n * log(q)) differs from libm's by at most about 1e-14 relative, which over at most 61
# steps moves no remainder by 1e-12, so a certified X is the X libm's qn gives.
_QN_MARGIN = 2.0**-30


def _libm_qn(n: np.ndarray, q: np.ndarray) -> np.ndarray:
    """exp(n * log(q)) lane by lane through math.log and math.exp, the libm calls numpy's C code makes."""
    return np.array(list(map(math.exp, map(operator.mul, n.tolist(), map(math.log, q.tolist())))))


def _walk(qn: np.ndarray, n: np.ndarray, pp: np.ndarray, q: np.ndarray, u0: np.ndarray):
    """Every lane's inversion walk from its qn: X, and the remainders u as a (steps, lanes) array.

    px[i] and u[i] are px and U once X = i, and u[i + 1] = u[i] - px[i].
    C's test U > px at step i holds exactly when u[i + 1] > 0, and px >= 0
    never lets u rise, so X is the number of positive remainders past u[0].
    A lane whose walk never stops takes X = n.max() + 1, past its bound.
    """
    steps = np.arange(1, n.max() + 1)[:, None]
    grow, shrink = (n - steps + 1) * pp, steps * q
    u = np.empty((len(steps) + 2, len(n)))
    u[0], u[1] = u0, qn
    px = u[1:]
    for i in range(len(steps)):
        px[i + 1] = grow[i] * px[i] / shrink[i]
    np.subtract.accumulate(u, axis=0, out=u)
    return np.count_nonzero(u[1:] > 0.0, axis=0), u


def _inversion_x(n: np.ndarray, pp: np.ndarray, q: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """X of random_binomial_inversion on lanes with pp > 0, each with its first uniform u0.

    qn comes from numpy's exp and log, which can differ from libm's in the
    last bits.  Only u[X] > 0 and u[X + 1] <= 0 decide X, just u[X] when the
    walk never stops, so a lane whose deciding remainders both clear zero by
    _QN_MARGIN has libm's X.  Any other lane, a tie U == qn among them,
    takes qn from _libm_qn and walks again.
    """
    x, u = _walk(np.exp(n * np.log(q)), n, pp, q, u0)
    lanes = np.arange(x.size)
    last = len(u) - 1
    after = np.where(x < last, -u[np.minimum(x + 1, last), lanes], np.inf)
    again = np.flatnonzero(~(np.minimum(u[x, lanes], after) > _QN_MARGIN))
    if again.size:
        x[again] = _walk(_libm_qn(n[again], q[again]), n[again], pp[again], q[again], u0[again])[0]
    return x


def _inversion_counts(p: np.ndarray, shots: np.ndarray, doubles: np.ndarray):
    """Multinomial rows of at most _INVERSION_SHOTS shots, drawn as numpy's C code draws them.

    Replays random_multinomial -> random_binomial -> random_binomial_inversion
    on every row at once, with the same float operations in the same order.
    Each binomial stage works only on the lanes that draw (shots left and a
    non-zero ratio); of those only lanes with p > 0 walk, certified against
    libm's qn by _inversion_x.  Row j's binomials take their uniforms from
    doubles[j] in order, one per binomial that draws.  Rows the replay does
    not cover, where inversion passes its bound and restarts or numpy would
    leave inversion, are returned in a mask; their counts are not valid.
    """
    m = len(p)
    counts = np.zeros((m, 4), dtype=np.int64)
    left = shots.copy()
    remaining = np.ones(m)
    used = np.zeros(m, dtype=np.int64)
    redraw = np.zeros(m, dtype=bool)
    # A spent remainder divides 0/0 or x/0; such lanes draw nothing by inversion, or redraw as numpy leaves it.
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(3):
            ratio = p[:, k] / remaining
            remaining -= p[:, k]
            lanes = np.flatnonzero((left > 0) & (ratio != 0.0))
            if not lanes.size:
                continue
            n, ratio = left[lanes], ratio[lanes]
            flip = ~(ratio <= 0.5)
            pp = np.where(flip, 1.0 - ratio, ratio)
            q = 1.0 - pp
            u0 = doubles[lanes, used[lanes]]
            used[lanes] += 1
            # pp <= 0 only when rounding takes the ratio to 1 or past it; then qn >= 1 >= U and X = 0.
            x = np.zeros(lanes.size, dtype=np.int64)
            walks = pp > 0.0
            if walks.any():
                x[walks] = _inversion_x(n[walks], pp[walks], q[walks], u0[walks])
            npq = n * pp
            cap = npq + 10.0 * np.sqrt(npq * q + 1.0)
            # C truncates MIN(n, cap) to an integer; an integer X exceeds either alike.
            bound = np.where(n < cap, n, cap)
            # numpy's own test for leaving inversion (for BTPE); the 60-shot cap keeps every lane inside it.
            redraw[lanes] |= ~(pp * n <= 30.0) | (x > bound)
            drawn = np.where(flip, n - x, x)
            counts[lanes, k] = drawn
            left[lanes] -= drawn
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


def sample_counts_batch(probs, shots, master_seed: int, input_id, channel, time_indices=None) -> np.ndarray:
    """Multinomial counts for every row of (n, 4) probabilities; each row from its own point's stream.

    Row j equals point_rng(master_seed, input j, time_indices[j], channel
    j).multinomial(shots[j], p_j) with p_j the row normalised to sum 1.
    input_id and channel name one key for every row or hold one per row,
    as stream_words takes them; time_indices defaults to 0..n-1.
    Probabilities must be finite and non-negative with a positive sum, shots
    whole and >= 0.  Every point's stream is seeded from one stream_words
    pass.  Rows with at most _INVERSION_SHOTS shots are drawn together with
    array ops that step PCG64 and replay numpy's binomial inversion, from a
    qn that numpy's exp and log give and each lane certifies against libm's
    (only an uncertified lane calls math.log and math.exp); larger rows, and
    any row whose inversion restarts, are drawn by one generator set to each
    point's seeded state in turn.
    """
    p = np.asarray(probs, dtype=float).reshape(-1, 4)
    shots = _checked_sampler_input(p, shots)
    index = np.arange(len(p)) if time_indices is None else np.asarray(time_indices).reshape(-1)
    if index.size != len(p):
        raise ValueError(f"need one time index per probability row, got {index.size} for {len(p)}")
    p = p / p.sum(axis=1, keepdims=True)
    streams = _seeded_streams(stream_words(master_seed, input_id, channel, index))
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
