"""Seeded random number plumbing.

All randomness in the package flows through Philox4x64 (a counter-based
generator) keyed by a 64-bit seed, so a run is reproducible bit-for-bit from
its seed alone. Named substreams are derived with `derive_seed`, which mixes
the parent seed with a list of tokens through the SplitMix64 finalizer:

    child = mix64((mix64(seed + GOLDEN) ^ token_hash(t1)) + GOLDEN) ...

Tokens are strings, hashed with 64-bit FNV-1a. The rule is part of the
output contract: changing it changes every golden file.

Float sums that reach an output add left to right through `ordered_sum`.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)
_U_MIX_A, _U_MIX_B = np.uint64(_MIX_A), np.uint64(_MIX_B)


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a fixed 64-bit bijective mixing function."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """`mix64` over a ``uint64`` array; wrapping multiply makes it exact.

    The stages run in place on one new array, so ``z`` itself is never written.
    A 0-d input gives a 0-d array: numpy scalars would warn on the wrap."""
    z = np.asarray(z, dtype=np.uint64)
    out = z.copy()
    out >>= _U30
    out ^= z
    out *= _U_MIX_A
    out ^= out >> _U27
    out *= _U_MIX_B
    out ^= out >> _U31
    return out


def _token_hash(token: str) -> int:
    h = _FNV_OFFSET
    for b in token.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(seed: int, *tokens: str) -> int:
    """Derive a 64-bit child seed from a parent seed and named tokens."""
    s = mix64((seed + _GOLDEN) & _MASK64)
    for t in tokens:
        s = mix64(((s ^ _token_hash(t)) + _GOLDEN) & _MASK64)
    return s


def generator(seed: int, *tokens: str) -> np.random.Generator:
    """Philox4x64 generator keyed by derive_seed(seed, *tokens)."""
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, *tokens)))


def ordered_sum(terms):
    """``0 + t1 + t2 + ...`` added left to right, floats, ints or arrays.

    This is the built-in ``sum`` of Python 3.10 and 3.11 bit for bit; from
    3.12 on the built-in compensates float rounding, and the sum would depend
    on the interpreter.
    """
    return reduce(operator.add, terms, 0)
