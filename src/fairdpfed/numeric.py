"""Deterministic numeric kernels: flat vectors, norms, seeded substreams.

All randomness in the simulator flows through :class:`RngStream`, an immutable
handle over a counter-based generator (Philox). Substreams are derived by
label/index paths, so draws from disjoint paths can never perturb each
other's sequences. :func:`shuffle_clients` shuffles a round's client index
buffers in place, each bit-identical to its client's own substream, with
every client's Philox key derived in one vectorized pass.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, fields

import numpy as np

# A ParamVector is a finite 1-D float64 array. Kept as a bare ndarray because
# every consumer does elementwise arithmetic on it.
ParamVector = np.ndarray


def l2_norm(v: ParamVector):
    """Euclidean norm of a non-empty 1-D float64 vector, or the norms (k,) of
    the rows of a non-empty (k, P) block; raises unless every one is finite.

    sqrt(v . v) is what np.linalg.norm computes for such a vector, and its one
    scan is the finiteness check: a non-finite entry, or a sum of squares
    that overflows, makes it non-finite. A block's rows are dotted by one
    stacked matmul of (k, 1, P) by (k, P, 1), whose every slice calls the dot
    product v.dot(v) calls, so each row's norm is bit for bit its vector's.
    """
    if v.ndim not in (1, 2) or v.size == 0:
        raise ValueError(f"l2_norm needs a non-empty vector or block, got shape {v.shape}")
    if v.ndim == 1:
        norm = math.sqrt(v.dot(v))
        if not math.isfinite(norm):
            raise ValueError("vector norm is not finite")
        return norm
    norms = np.sqrt(np.matmul(v[:, None, :], v[:, :, None]).reshape(len(v)))
    if not np.isfinite(norms).all():
        raise ValueError("vector norm is not finite")
    return norms


# what a dataclass field of each annotation holds, and what to call it
_FIELD_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
                "bool": (bool, "true or false"), "str": (str, "a string")}


def check_types(obj) -> None:
    """Raise ValueError unless each field of the dataclass obj annotated int,
    float, bool or str holds such a value; a bool is never a number. The
    message names the field by its metadata "key", else by its name."""
    for f in fields(obj):
        accepted, noun = _FIELD_TYPES.get(f.type, (object, ""))
        value = getattr(obj, f.name)
        if not isinstance(value, accepted) or (
                isinstance(value, bool) and f.type in ("int", "float")):
            raise ValueError(f"{f.metadata.get('key', f.name)} must be {noun}, got {value!r}")


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
        words += _int_words(index)
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


def shuffle_clients(stream: RngStream, ids, epoch: int, views) -> None:
    """Shuffle each views[i] in place, bit for bit as
    stream.child("client", ids[i]).child("epoch", epoch).generator().shuffle
    would.

    Every client's stream shares its path words up to the client id, so one
    uint32 matrix holds all their entropy words: the shared words, the id
    columns, the epoch words. Ids of more than one word are grouped by row
    length, and :func:`_philox_keys` derives each group's keys at once. Every
    shuffle is drawn from one Philox whose whole state (the client's key,
    counter 0, empty buffer) is set before it. permutation(n) is arange(n)
    shuffled, and a shuffle's swaps do not depend on the values shuffled, so
    a view that holds start + arange(n) ends as start plus that permutation.
    """
    head = _entropy_words(stream.child("client", 0))[:-1]  # the words before the id
    tail = [_label_word("epoch")] + _int_words(epoch)
    if max(ids, default=0) <= _MASK32:  # one word per id: one matrix
        groups = [(np.arange(len(ids)), np.array(ids, dtype=np.uint32)[:, None])]
    else:
        by_len = {}
        for i, cid in enumerate(ids):
            by_len.setdefault(len(_int_words(cid)), []).append(i)
        groups = [(rows, np.array([_int_words(ids[i]) for i in rows], dtype=np.uint32))
                  for rows in by_len.values()]
    keys = np.empty((len(ids), 2), dtype=np.uint64)
    for rows, id_words in groups:
        words = np.empty((len(rows), len(head) + id_words.shape[1] + len(tail)), dtype=np.uint32)
        words[:, : len(head)] = head
        words[:, len(head) : -len(tail)] = id_words
        words[:, -len(tail) :] = tail
        keys[rows] = _philox_keys(words)
    bit_generator = np.random.Philox(0)  # its seed is never drawn from
    generator = np.random.Generator(bit_generator)
    state = bit_generator.state
    for key, view in zip(keys, views):
        state["state"]["key"] = key
        bit_generator.state = state
        generator.shuffle(view)
