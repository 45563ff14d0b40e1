"""pi(x) below the base-prime cache bound, for the P2 term of
``primality.count_primes_in_range``: the count of the primes before x's
64-bit word of a packed prime bitmask, plus a popcount within the word.

A module of its own, imported by the first count that needs it: window
scans (chains, verification, digits) never use it, and every process that
scans imports ``primality``, whose compile from source (with no bytecode
cache) raises that process's peak memory with the module's size.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from . import primality

# (bound, words, counts), the table of the odd numbers of [3, bound): bit
# i of words[w] (little-endian uint64) is set exactly when 3 + 2*(64w + i)
# is prime, and counts[w] (int32) is the number of bits set in the words
# before w.  Built once, to primality._BASE_CACHE_LIMIT, by the first
# prime_pi whose largest x reaches its bound; swapped whole, as
# primality._base_cache is.
_table: tuple = (0, None, None)


def popcount64(x: np.ndarray) -> np.ndarray:
    """The number of bits set in each entry of a uint64 array, as uint64,
    by SWAR: pairs, nibbles and bytes summed in place, then the bytes added
    up by one multiply (``np.bitwise_count`` needs numpy 2)."""
    u = np.uint64
    x = x - ((x >> u(1)) & u(0x5555555555555555))
    x = (x & u(0x3333333333333333)) + ((x >> u(2)) & u(0x3333333333333333))
    x = (x + (x >> u(4))) & u(0x0F0F0F0F0F0F0F0F)
    return (x * u(0x0101010101010101)) >> u(56)


def _build(bound: int) -> tuple:
    """``_table`` to ``bound``, sieved one segment at a time: each mask is
    packed into its words and summed, 64 entries at a time, into their
    counts (segments hold a multiple of 64 odd numbers)."""
    size = (bound - 2) // 2 // 64 + 1  # to the word of x = bound - 1 in prime_pi
    words = np.zeros(size, dtype="<u8")
    counts = np.zeros(size + 1, dtype=np.int32)  # the words' counts, shifted by one
    raw = words.view(np.uint8)
    for a, mask in primality._sieve_segments(3, bound, isqrt(bound - 1)):
        at = (a - 3) // 2
        packed = np.packbits(mask, bitorder="little")
        raw[at // 8 : at // 8 + packed.size] = packed
        full, w = mask.size // 64, at // 64
        counts[w + 1 : w + 1 + full] = mask[: 64 * full].reshape(full, 64).sum(axis=1)
        if mask.size % 64:
            counts[w + 1 + full] = np.count_nonzero(mask[64 * full :])
    np.cumsum(counts, out=counts)
    return bound, words, counts[:size]


def prime_pi(x: np.ndarray) -> np.ndarray:
    """pi(x) for each entry of an int64 array x >= 1, as int64, from
    ``_table``, which is rebuilt to ``primality._BASE_CACHE_LIMIT`` when the
    largest x reaches its bound: the count of the words before x's and the
    popcount of the bits of x's word up to x, plus 1 for the prime 2."""
    global _table
    table = _table
    if int(x.max()) >= table[0]:
        table = _table = _build(primality._BASE_CACHE_LIMIT)
    _, words, counts = table
    n = (x - 1) >> 1  # the odd numbers of [3, x]
    w, below = n >> 6, (n & 63).astype(np.uint64)
    bits = words[w] & ((np.uint64(1) << below) - np.uint64(1))
    return counts[w] + popcount64(bits).astype(np.int64) + (x >= 2)
