"""Deterministic numeric kernels: flat vectors, norms, medians, seeded Gaussians.

All randomness in the simulator flows through :class:`RngStream`, an immutable
handle over a counter-based generator (Philox). Substreams are derived by
label/index paths, so draws from disjoint paths can never perturb each
other's sequences. :func:`permutations` draws many substreams' shuffles at
once, bit-identical to drawing them one stream at a time.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass

import numpy as np

# A ParamVector is a finite 1-D float64 array. Kept as a bare ndarray because
# every consumer does elementwise arithmetic on it.
ParamVector = np.ndarray


def l2_norm(v: ParamVector) -> float:
    """Euclidean norm of a non-empty 1-D float64 vector; raises unless finite.

    sqrt(v . v) is what np.linalg.norm computes for such a vector, and its one
    scan is the finiteness check: a non-finite entry, or a sum of squares
    that overflows, makes it non-finite.
    """
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"l2_norm needs a non-empty 1-D vector, got shape {v.shape}")
    norm = math.sqrt(v.dot(v))
    if not math.isfinite(norm):
        raise ValueError("vector norm is not finite")
    return norm


def require_ints(obj, names) -> None:
    """Raise ValueError unless each named attribute of obj is an int (not a bool)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def median(xs) -> float:
    """Median of finite reals; even lengths average the two middle values."""
    a = np.asarray(xs, dtype=np.float64)
    if a.size == 0:
        raise ValueError("median of empty sequence is undefined")
    if not np.all(np.isfinite(a)):
        raise ValueError("median input contains non-finite entries")
    return float(np.median(a))


@dataclass(frozen=True)
class RngStream:
    """Immutable handle on a deterministic substream of a master seed.

    Identical (master_seed, stream_path) pairs always produce identical
    sample sequences; distinct paths are statistically independent.
    """

    master_seed: int
    stream_path: tuple = ()

    def child(self, label: str, index: int = 0) -> "RngStream":
        """Derive the substream named (label, index)."""
        if index < 0:
            raise ValueError("substream index must be non-negative")
        return RngStream(self.master_seed, self.stream_path + ((label, int(index)),))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this substream."""
        key = []
        for label, index in self.stream_path:
            key.append(_label_word(label))
            key.append(index)
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=tuple(key))
        return np.random.Generator(np.random.Philox(seq))


@functools.lru_cache(maxsize=None)
def _label_word(label: str) -> int:
    return zlib.crc32(label.encode("utf-8"))


# --- many substreams at once --------------------------------------------------
#
# RngStream.generator seeds Philox with the key
# SeedSequence(entropy=master_seed, spawn_key=path).generate_state(2, uint64).
# SeedSequence coerces the seed and each spawn key entry to uint32 words and
# hashes the word sequence into a 4-word pool (numpy/random/bit_generator.pyx),
# one word after another. Streams that share their leading words share the
# pool up to there, so :func:`_philox_keys` hashes those words once, with
# SeedSequence itself, and runs the rest of the hash (hashmix and mix on
# uint32) on a matrix whose rows are the streams: one pass of array operations
# derives every key. The hash constants depend only on the word count.

_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _hashmix(value, xor_c, mul_c):
    value = (value ^ xor_c) * mul_c
    return value ^ (value >> _SHIFT)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def _constant_chain(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..n, as a (n + 1, 1) uint32 column."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


@functools.lru_cache(maxsize=None)
def _mix_constants(n_words: int) -> np.ndarray:
    """The constants of mixing n_words entropy words: hashmix call k xors
    constant k and multiplies by constant k + 1, and word j >= 4 is mixed into
    the 4 pool words by calls 4j .. 4j + 3."""
    return _constant_chain(_INIT_A, _MULT_A, _POOL * n_words)


# generate_state(2, uint64) hashes the 4 pool words in order
_STATE_CONSTANTS = _constant_chain(_INIT_B, _MULT_B, _POOL)


def _int_words(n: int) -> list:
    """The little-endian uint32 words numpy makes of a non-negative int."""
    n = int(n)
    if n < 0:
        raise ValueError("seed words must be non-negative")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _entropy_words(stream: RngStream) -> list:
    """The words SeedSequence(entropy=master_seed, spawn_key=path) hashes."""
    words = _int_words(stream.master_seed)
    if stream.stream_path:  # numpy pads the seed to the pool before a spawn key
        words += [0] * (_POOL - len(words))
    for label, index in stream.stream_path:
        words.append(_label_word(label))
        if index > _MASK32:
            words += _int_words(index)
        else:
            words.append(index)
    return words


def _philox_keys(words: np.ndarray) -> np.ndarray:
    """Philox keys (n, 2) uint64 of the entropy-word rows words (n, L), whose
    first min(L, 4) columns are the same in every row."""
    n, L = words.shape
    shared = (words == words[:1]).all(axis=0)
    split = L if shared.all() else int(np.argmin(shared))
    seq = np.random.SeedSequence(words[0, :split])  # uint32 words are taken as they are
    if split == L:
        return np.tile(seq.generate_state(2, np.uint64), (n, 1))
    pool = seq.pool[:, None]  # (4, 1), then (4, n): one column per row
    A = _mix_constants(L)
    for j in range(split, L):
        k = _POOL * j
        word = words[:1, j] if shared[j] else words[:, j]
        pool = _mix(pool, _hashmix(word, A[k : k + _POOL], A[k + 1 : k + _POOL + 1]))
    C = _STATE_CONSTANTS
    state = _hashmix(pool, C[:-1], C[1:]).T  # generate_state's 4 words per row
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


def permutations(streams, sizes) -> list:
    """[s.generator().permutation(n) for s, n in zip(streams, sizes)], bit for
    bit, with the streams' keys derived together (see :func:`_philox_keys`)
    and every permutation drawn from one Philox, whose whole state (the
    stream's key, counter 0, empty buffer) is set before each draw."""
    rows = [_entropy_words(s) for s in streams]
    groups = {}  # rows of one length and the same pool-sized head hash together
    for i, row in enumerate(rows):
        groups.setdefault((len(row), tuple(row[:_POOL])), []).append(i)
    keys = np.empty((len(rows), 2), dtype=np.uint64)
    for idx in groups.values():
        keys[idx] = _philox_keys(np.array([rows[i] for i in idx], dtype=np.uint32))
    bit_generator = np.random.Philox(0)  # its seed is never drawn from
    generator = np.random.Generator(bit_generator)
    state = bit_generator.state
    out = []
    for key, n in zip(keys, sizes):
        state["state"]["key"] = key
        bit_generator.state = state
        out.append(generator.permutation(n))
    return out


def gaussian_vector(rng: RngStream, std: float, dim: int) -> ParamVector:
    """dim i.i.d. draws from Normal(0, std^2); std=0 yields the zero vector.

    Pure in its arguments: calling twice with the same stream returns the
    same vector. Callers wanting fresh draws derive a new child stream.
    """
    if std < 0:
        raise ValueError("gaussian std must be non-negative")
    if dim < 1:
        raise ValueError("dim must be positive")
    if std == 0:
        return np.zeros(dim, dtype=np.float64)
    return rng.generator().normal(0.0, std, size=dim)
