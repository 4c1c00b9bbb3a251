"""Deterministic numeric kernels: flat vectors, norms, seeded substreams.

:func:`l2_norm` is the one norm formula, of a block or a lone vector; its
callers decide what a non-finite norm means. All randomness in the simulator
flows through :class:`RngStream`, an immutable handle over a counter-based
generator (Philox). Substreams are derived by label/index paths, so draws
from disjoint paths can never perturb each other's sequences.
:func:`shuffle_clients` shuffles a round's client index buffers in place,
each bit-identical to its client's own substream: the key words the clients
share are hashed once, and each client's id word and the epoch are mixed in,
all clients in one vectorized pass.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, fields

import numpy as np

# A ParamVector is a finite 1-D float64 array. Kept as a bare ndarray because
# every consumer does elementwise arithmetic on it.
ParamVector = np.ndarray


def l2_norm(v: ParamVector):
    """The norms (k,) of the rows of a non-empty (k, P) float64 block, or the
    norm of a non-empty 1-D vector, a block of one row, as a float.

    The rows are dotted by one stacked matmul of (k, 1, P) by (k, P, 1),
    whose every slice calls the dot product v.dot(v) calls, and sqrt(v . v)
    is what np.linalg.norm computes for such a vector. A non-finite entry, or
    a sum of squares that overflows, gives a non-finite norm; the caller
    decides what that means.
    """
    if v.ndim not in (1, 2) or v.size == 0:
        raise ValueError(f"l2_norm needs a non-empty vector or block, got shape {v.shape}")
    B = v.reshape(-1, v.shape[-1])
    norms = np.sqrt(np.matmul(B[:, None, :], B[:, :, None]).reshape(len(B)))
    return float(norms[0]) if v.ndim == 1 else norms


# the most float64 values one numpy array can hold: numpy counts an array's
# bytes in a signed np.intp, and a larger size fails with a ValueError
MAX_FLOATS = np.iinfo(np.intp).max // 8


def check_floats(keys: str, count: int) -> None:
    """Raise ValueError if count float64 values, the size keys give an
    array, are more than one numpy array can hold."""
    if count > MAX_FLOATS:
        raise ValueError(f"{keys} = {count:,} is more float64 values than one array "
                         f"can hold ({MAX_FLOATS:,})")


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
# one word after another: past the fourth, word j is mixed into each pool word
# by hashmix calls 4j .. 4j + 3. The clients of a round share every word
# before their id, so :func:`shuffle_clients` hashes those once, with
# SeedSequence itself, then mixes in the id column and the epoch words with
# the same uint32 hashmix and mix, one pool column per client, and turns the
# pool into each client's key as generate_state does.

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


def shuffle_clients(stream: RngStream, ids, epoch: int, views) -> None:
    """Shuffle each views[i] in place, bit for bit as
    stream.child("client", ids[i]).child("epoch", epoch).generator().shuffle
    would. Every id must fit in one uint32 word (FedConfig keeps K below 2**32).

    The words before the id, at least 5 (the seed padded to 4, the path, the
    "client" label), are hashed once into a pool; the id column and then the
    epoch's words are mixed into it, one column per client, and each column
    becomes that client's Philox key. Every shuffle is drawn from one Philox
    whose whole state (the client's key, counter 0, empty buffer) is set
    before it. permutation(n) is arange(n) shuffled, and a shuffle's swaps do
    not depend on the values shuffled, so a view that holds start + arange(n)
    ends as start plus that permutation.
    """
    head = _entropy_words(stream.child("client", 0))[:-1]  # the words before the id
    rest = [np.array(ids, dtype=np.uint32), _label_word("epoch"), *_int_words(epoch)]
    pool = np.random.SeedSequence(np.array(head, dtype=np.uint32)).pool[:, None]
    A = _mix_constants(len(head) + len(rest))
    for j, word in enumerate(rest, start=len(head)):
        k = _POOL * j
        pool = _mix(pool, _hashmix(word, A[k : k + _POOL], A[k + 1 : k + _POOL + 1]))
    C = _STATE_CONSTANTS
    keys = _hashmix(pool, C[:-1], C[1:]).T  # generate_state's 4 words per client
    keys = np.ascontiguousarray(keys, dtype="<u4").view("<u8")
    bit_generator = np.random.Philox(0)  # its seed is never drawn from
    generator = np.random.Generator(bit_generator)
    state = bit_generator.state
    for key, view in zip(keys, views):
        state["state"]["key"] = key
        bit_generator.state = state
        generator.shuffle(view)
