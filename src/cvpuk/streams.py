"""Deterministic derivation of independent random streams.

Campaigns address every random decision by a path of small integers
under one root seed.  Streams for distinct paths are statistically
independent and do not depend on creation order.  A campaign addresses
a chunk of trials, not a single trial, by one path (see
:mod:`cvpuk.experiments`), and draws the whole chunk from it; chunks are
the unit that is reproducible on its own, so they can execute in any
order, or in parallel, without changing any result.

:func:`substream` builds one stream through numpy's ``SeedSequence``, at
about 12 µs a stream; it serves the single streams, such as a true key's.
:func:`substreams` builds the streams of many paths of one length, such
as a campaign's chunks, in one pass: it runs ``SeedSequence``'s hash
(after M. E. O'Neill's ``seed_seq`` design) once for all of them as
``uint32`` array arithmetic and hands each state to ``PCG64``, at about
0.13 ms a call and 1.6 µs a stream.  A campaign makes one such call for
all its chunks.  Every generator has the ``bit_generator.state`` of
``substream(seed, *path)``, so a path draws the same numbers by either
function.  The one-pass generators hold a fixed state, not a
``SeedSequence``, so they cannot ``spawn``; no campaign spawns.
``numpy.random`` is first imported by the first call.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

__all__ = ["substream", "substreams"]

# SeedSequence's pool size and hash constants, as numpy's bit_generator.pyx has them
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the sub-stream addressed by ``path`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def substreams(seed: int, paths) -> list[np.random.Generator]:
    """Generators for the sub-streams of ``paths`` under ``seed``, in order.

    Every path has the same length and each entry lies in ``[0, 2**32)``,
    where ``SeedSequence`` takes one word per entry; a path of unequal
    length raises ValueError, as does an entry outside that range, and a
    non-integer entry raises TypeError.  Generator ``p`` has the state of
    ``substream(seed, *paths[p])``.
    """
    table = _path_table(paths)
    words = _seed_words(seed)
    if table.shape[1] and len(words) < _POOL:  # SeedSequence pads a spawned seed's words
        words += [0] * (_POOL - len(words))
    pool = _mixed_pool(words + list(table.T))
    states = np.empty((len(table), 4), dtype=np.uint64)
    hash_const = _INIT_B
    for index in range(8):  # generate_state(4, np.uint64): 8 words, low half first
        value = pool[index % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        value = np.asarray(value ^ (value >> 16), dtype=np.uint64)
        if index % 2:
            states[:, index // 2] |= value << np.uint64(32)
        else:
            states[:, index // 2] = value
    fixed, generator, pcg64 = _fixed_state_class(), np.random.Generator, np.random.PCG64
    return [generator(pcg64(fixed(state))) for state in states]


def _path_table(paths) -> np.ndarray:
    """``paths`` as a ``(paths, length)`` ``uint32`` array, checked."""
    try:
        table = np.array(list(paths))
    except ValueError:
        raise ValueError("paths must all have the same length") from None
    if table.size == 0:
        return np.zeros((len(table), table.shape[1] if table.ndim == 2 else 0), dtype=np.uint32)
    if table.ndim != 2 or table.dtype.kind not in "iuO":
        raise TypeError(f"paths must be sequences of integers, got {table.dtype} "
                        f"paths of shape {table.shape[1:]}")
    if table.dtype.kind == "O" or table.min() < 0 or table.max() > _MASK32:
        bad = next(entry for entry in table.ravel().tolist()
                   if not (isinstance(entry, int) and 0 <= entry <= _MASK32))
        raise ValueError(f"path entries must be integers in [0, 2**32), got {bad!r}")
    return table.astype(np.uint32)


def _seed_words(seed: int) -> list:
    """The 32-bit words of ``seed``, least significant first, as SeedSequence takes them."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words


def _mix(x, y):
    """SeedSequence's ``mix`` of two words, each of either kind that
    :func:`_mixed_pool` takes."""
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _mixed_pool(entropy: list) -> list:
    """SeedSequence's ``mix_entropy`` of the words ``entropy`` into a pool of
    four.  A word is a Python int, shared by every path, or a ``uint32``
    array with one entry per path; a pool word is an array once it has
    mixed in one.  ``hashmix``'s constant depends only on how many words it
    has hashed, so it is one Python int for all paths."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for source in range(_POOL):
        for target in range(_POOL):
            if source != target:
                pool[target] = _mix(pool[target], hashmix(pool[source]))
    for word in entropy[_POOL:]:
        for target in range(_POOL):
            pool[target] = _mix(pool[target], hashmix(word))
    return pool


@functools.cache
def _fixed_state_class():
    """A ``numpy.random.bit_generator.ISeedSequence`` that returns one fixed
    PCG64 seed state; built on first use, so that importing cvpuk does not
    import ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a fixed state holds PCG64's four uint64 seed words only")
            return self.state

    return FixedState
