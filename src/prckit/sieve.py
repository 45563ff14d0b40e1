"""Exact prime enumeration: counts, listings and the sieve-only oracles,
for the explorer; chains, verification and digits only scan (``primality``).

One numpy kernel, imported on first use, sieves millions of odd positions:
``_odd_mask`` is its one loop that strikes multiples (from a wheel of the
odd numbers coprime to 15015 when its base primes begin 3, 5, 7, 11, 13)
and ``_walk_segments`` its one segment walker.  Exact primes come one way:
``_sieve_segments`` strikes a range with the base primes up to a bound,
sqrt(hi) for a listing (``primes_in_range``, the fill of the base-prime
cache to 2^23, the base primes past it, uncached, and the prime-count
table below 2^23) and a t from cbrt(hi) for a count
(``count_primes_in_range``, which subtracts Lehmer's P2 term by lookups in
that table, ``prime_pi``).  ``enumerable_window`` is the one rule for which
windows are enumerated; the explorer lists or counts the windows it lets
through.  ``ENUMERATION_CAP`` and ``MAX_SIEVE_BASE`` are read at call time.
"""

from __future__ import annotations

import math
from math import isqrt

from .core import EnumerationCapError, Window
from .primality import _TRIAL_PRIMES, _scan_layout
from .radix import nth_root_floor

# Widest window an exact enumeration takes: wider ones are refused.
ENUMERATION_CAP = 10_000_000
# Largest base prime an exact sieve builds: windows with sqrt(hi) above it
# are refused.
MAX_SIEVE_BASE = 100_000_000
_SEGMENT_WIDTH_LIMIT = 50_000_000
# Odd positions per segment of the exact sieve: a 1 MiB mask.
_SIEVE_SEGMENT = 1 << 20

# ---------------------------------------------------------------------------
# the numpy kernel: one striking loop and one segment walker

# The odd primes of the wheel, their product (the period of their pattern
# over odd numbers: a and a + 2 * _WHEEL_PERIOD share every residue), and
# that pattern, built on first use: entry j is True exactly when 2j + 1 is
# coprime to all five.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL_PERIOD = math.prod(_WHEEL_PRIMES)  # 15015
_wheel = None


def _wheel_mask(mask: np.ndarray, a: int) -> None:
    """Fill ``mask`` with the wheel pattern of the odd numbers a, a + 2, ...:
    the cached pattern, rotated to a and repeated to the mask's length."""
    import numpy as np

    global _wheel
    if _wheel is None:
        # the plain path of five primes alone; no wheel prime lies in the
        # segment, which starts past 13^2 at pattern index 0
        primes = np.array(_WHEEL_PRIMES, dtype=np.int64)
        start = 2 * _WHEEL_PERIOD + 1
        _wheel = _odd_mask(np.empty(_WHEEL_PERIOD, dtype=bool), start, primes, start % primes)
    r = (a // 2) % _WHEEL_PERIOD  # a = 2r + 1 modulo 2 * _WHEEL_PERIOD
    rotated = np.concatenate((_wheel[r:], _wheel[:r]))
    whole = mask.size - mask.size % _WHEEL_PERIOD
    mask[:whole].reshape(-1, _WHEEL_PERIOD)[:] = rotated
    mask[whole:] = rotated[: mask.size - whole]


def _odd_mask(mask: np.ndarray, a: int, base: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Fill ``mask`` with the sieve mask of the odd numbers a, a + 2, ...,
    a + 2*(length - 1), for the mask's length, and return it.

    ``a`` is odd and at least 3, ``base`` holds ascending odd primes and
    ``res`` is a mod each of them.  An entry is False exactly when its
    number is p*m with p in ``base`` and m >= p: when it has a factor in
    ``base`` other than itself, for a base holding every odd prime up to
    its last (every base but an uncached batch of ``_sieve_segments``).

    When ``base`` begins 3, 5, 7, 11, 13 and goes on (ascending odd primes
    whose fifth is 13), the mask starts from the wheel pattern of those
    five and only the rest strike; five primes alone take the plain path,
    which is how the pattern itself is built.
    """
    import numpy as np

    length = mask.size
    k = len(_WHEEL_PRIMES)
    if base.size > k and int(base[k - 1]) == _WHEEL_PRIMES[-1]:
        _wheel_mask(mask, a)
        if a <= 13:  # the wheel primes in the segment are prime
            for p in _WHEEL_PRIMES:
                if a <= p < a + 2 * length:
                    mask[(p - a) // 2] = True
        base, res = base[k:], res[k:]
    else:
        mask[:] = True
        if not base.size:
            return mask
    t = (base - res) % base  # p divides a + t
    start = (t + (t & 1) * base) // 2  # first odd multiple is a + 2*start
    if a <= int(base[-1]) ** 2:
        # p itself may lie in the segment; smaller multiples of p below p*p
        # are struck by their other, smaller prime factor
        pp = base * base
        start = np.where(pp >= a, (pp - a) // 2, start)
    split = int(np.searchsorted(base, length))
    for p, s in zip(base[:split].tolist(), start[:split].tolist()):
        mask[s::p] = False
    far = start[split:]  # primes of at least ``length`` strike at most once
    mask[far[far < length]] = False
    return mask


def _walk_segments(first: int, count: int, base: np.ndarray):
    """Yield (a, ``_odd_mask`` of a, a + 2, ...) for ascending segments of
    ``_SIEVE_SEGMENT`` odd numbers covering the ``count`` odd numbers from
    ``first`` (an exact sieve's: below 2^62).  Residues are taken once and
    then shifted from segment to segment.  Every mask is filled into one
    buffer allocated per walk, so a mask is valid until the next is yielded.
    """
    import numpy as np

    buffer = np.empty(min(_SIEVE_SEGMENT, count), dtype=bool)
    done, res = 0, first % base
    while done < count:
        a, length = first + 2 * done, min(_SIEVE_SEGMENT, count - done)
        yield a, _odd_mask(buffer[:length], a, base, res)
        done += length
        res = (res + 2 * length) % base


# Base primes up to this bound stay cached once sieved: the explorer's under
# the default enumeration cap (a const:2 window of width 10^7 needs them to
# 5*10^6).  Larger ones are sieved batch by batch and dropped.
_BASE_CACHE_LIMIT = 1 << 23
# (limit, the primes up to it as an int64 array): the _TRIAL_PRIMES within
# _BASE_CACHE_LIMIT on first use, then grown on demand up to that bound;
# swapped whole, so every thread reads a matching pair.
_base_cache: tuple = (0, None)


def _base_primes(limit: int) -> np.ndarray:
    """The primes up to min(limit, _BASE_CACHE_LIMIT), from the cache; a
    cache too short grows by the primes past its old bound, struck by base
    primes from here, taken first (so a fill recurses only while the cache
    is short of their bound, and sieves only past what that recursion
    filled: from the seed, the first fill, to 2^16, needs those to 256)."""
    import numpy as np

    global _base_cache
    limit = min(limit, _BASE_CACHE_LIMIT)
    cached, primes = _base_cache
    if primes is None:
        cached = min(_TRIAL_PRIMES[-1], _BASE_CACHE_LIMIT)
        primes = np.array([p for p in _TRIAL_PRIMES if p <= cached], dtype=np.int64)
        _base_cache = (cached, primes)
    if limit > cached:
        grown = min(max(limit, 2 * cached, 1 << 16), _BASE_CACHE_LIMIT)
        _base_primes(isqrt(grown))  # may grow the cache itself
        cached, primes = _base_cache
        primes = np.concatenate((primes, *_odd_primes(cached + 1, grown + 1, isqrt(grown))))
        _base_cache = (grown, primes)
    return primes[: np.searchsorted(primes, limit, side="right")]


def _odd_primes(lo: int, hi: int, strike: int):
    """Yield the numbers ``_sieve_segments(lo, hi, strike)`` marks as
    ascending int64 arrays, one per segment: the odd primes of [lo, hi)
    when ``strike`` is at least sqrt(hi - 1)."""
    import numpy as np

    for a, mask in _sieve_segments(lo, hi, strike):
        i = np.flatnonzero(mask)  # a + 2i in place: no temporary per segment
        yield np.add(np.multiply(i, 2, out=i), a, out=i)


def _sieve_bound(lo: int, hi: int) -> int:
    """isqrt(hi - 1), the largest base prime an exact sieve of [lo, hi)
    needs, after the refusals every exact sieve makes first."""
    # bounds in bits: lo, hi and the width may be too long to print
    need = isqrt(hi - 1)
    if need > MAX_SIEVE_BASE:
        raise EnumerationCapError(
            f"sieving below a {hi.bit_length()}-bit bound needs "
            f"{need.bit_length()}-bit base primes, above the configured bound "
            f"{MAX_SIEVE_BASE}",
            MAX_SIEVE_BASE,
        )
    width = hi - lo
    if width > _SEGMENT_WIDTH_LIMIT:
        raise EnumerationCapError(
            f"segment of {width.bit_length()}-bit width exceeds {_SEGMENT_WIDTH_LIMIT}",
            _SEGMENT_WIDTH_LIMIT,
        )
    return need


def _sieve_segments(lo: int, hi: int, strike: int):
    """Yield (a, mask) covering the odd numbers of [max(lo, 3), hi).

    ``mask`` marks the numbers among a, a + 2, ... with no odd prime
    factor up to ``strike`` but themselves: exactly the primes when
    ``strike`` is at least sqrt(hi - 1).  Nothing is refused here; the
    public sieves call ``_sieve_bound`` first.  Callers add 2.
    """
    _, first, odd = _scan_layout(lo, hi)
    segments = _walk_segments(first, odd, _base_primes(strike)[1:])
    if strike > _BASE_CACHE_LIMIT:
        # the base primes past the cache come from this same sieve, batch
        # by batch, and each batch strikes every segment in turn, so all
        # the segments' masks are kept (copied out of the walk's one
        # buffer) until the last batch
        segments = [(a, mask.copy()) for a, mask in segments]
        for batch in _odd_primes(_BASE_CACHE_LIMIT + 1, strike + 1, isqrt(strike)):
            struck = _walk_segments(first, odd, batch)
            for (_, mask), (_, more) in zip(segments, struck):
                mask &= more
    yield from segments


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi) by segmented sieve — exact, no probabilistic step.

    Needs base primes up to sqrt(hi); refuses when that exceeds
    ``MAX_SIEVE_BASE`` (values around 10^16).
    """
    lo = max(lo, 2)
    if hi <= lo:
        return []
    primes = [2] if lo == 2 else []
    for batch in _odd_primes(lo, hi, _sieve_bound(lo, hi)):
        primes += batch.tolist()
    return primes


# ---------------------------------------------------------------------------
# counts: pi(x) below the cache bound, and Lehmer's P2 term

# (bound, words, counts), the table of the odd numbers of [3, bound): bit
# i of words[w] (little-endian uint64) is set exactly when 3 + 2*(64w + i)
# is prime, and counts[w] (int32) is the number of bits set in the words
# before w.  Built once, to _BASE_CACHE_LIMIT, by the first prime_pi whose
# largest x reaches its bound; swapped whole, as _base_cache is.
_table: tuple = (0, None, None)


def popcount64(x: np.ndarray) -> np.ndarray:
    """The number of bits set in each entry of a uint64 array, as uint64,
    by SWAR: pairs, nibbles and bytes summed in place, then the bytes added
    up by one multiply (``np.bitwise_count`` needs numpy 2)."""
    u = x.dtype.type  # np.uint64
    x = x - ((x >> u(1)) & u(0x5555555555555555))
    x = (x & u(0x3333333333333333)) + ((x >> u(2)) & u(0x3333333333333333))
    x = (x + (x >> u(4))) & u(0x0F0F0F0F0F0F0F0F)
    return (x * u(0x0101010101010101)) >> u(56)


def _build(bound: int) -> tuple:
    """``_table`` to ``bound``, sieved one segment at a time: each mask is
    packed into its words and summed, 64 entries at a time, into their
    counts (segments hold a multiple of 64 odd numbers)."""
    import numpy as np

    size = (bound - 2) // 2 // 64 + 1  # to the word of x = bound - 1 in prime_pi
    words = np.zeros(size, dtype="<u8")
    counts = np.zeros(size + 1, dtype=np.int32)  # the words' counts, shifted by one
    raw = words.view(np.uint8)
    for a, mask in _sieve_segments(3, bound, isqrt(bound - 1)):
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
    ``_table``, which is rebuilt to ``_BASE_CACHE_LIMIT`` when the largest
    x reaches its bound: the count of the words before x's and the popcount
    of the bits of x's word up to x, plus 1 for the prime 2."""
    import numpy as np

    global _table
    table = _table
    if int(x.max()) >= table[0]:
        table = _table = _build(_BASE_CACHE_LIMIT)
    _, words, counts = table
    n = (x - 1) >> 1  # the odd numbers of [3, x]
    w, below = n >> 6, (n & 63).astype(np.uint64)
    bits = words[w] & ((np.uint64(1) << below) - np.uint64(1))
    return counts[w] + popcount64(bits).astype(np.int64) + (x >= 2)


def count_primes_in_range(lo: int, hi: int) -> int:
    """len(primes_in_range(lo, hi)), refusals included, without
    building the list.

    With t = min(max(cbrt(hi - 1) + 1, (hi - 1) // _BASE_CACHE_LIMIT + 1,
    3), sqrt(hi - 1) + 1), ``_sieve_segments`` strikes only the odd primes
    below t.  As t^3 > hi - 1, the odd composites left standing are
    exactly the products p*q of primes t <= p <= q, and for each p up to
    sqrt(hi - 1) with such a product in the window the q are counted as
    pi(q_hi) - pi(q_lo - 1) by ``prime_pi`` (Lehmer's P2 term); the second
    term of t keeps every q, at most (hi - 1) / t, below the table's
    bound, ``_BASE_CACHE_LIMIT``.  The p come from the base-prime cache,
    which so grows only to sqrt(hi - 1).  Where the cap applies (past about
    2^46) there is no such p and every base prime strikes, as in
    ``primes_in_range``.
    """
    lo = max(lo, 2)
    if hi <= lo:
        return 0
    import numpy as np

    need = _sieve_bound(lo, hi)
    top = hi - 1
    t = min(max(nth_root_floor(top, 3) + 1, top // _BASE_CACHE_LIMIT + 1, 3), need + 1)
    ps = _base_primes(need)
    ps = ps[np.searchsorted(ps, t) :]
    # per p, the primes q from max(p, ceil(lo/p)) to top // p, for the p
    # with a multiple in [lo, top] (p <= top // p, as p <= sqrt(top))
    q_lo, q_hi = np.maximum(ps, -(-lo // ps)), top // ps
    hit = q_lo <= q_hi
    count = 1 if lo == 2 else 0
    if hit.any():
        count -= int((prime_pi(q_hi[hit]) - prime_pi(q_lo[hit] - 1)).sum())
    return count + sum(int(np.count_nonzero(mask)) for _, mask in _sieve_segments(lo, hi, t - 1))


def enumerable_window(p: int, c: int) -> Window:
    """``Window.from_parent(p, c)``, or EnumerationCapError: the one rule for
    which windows are enumerated exactly.

    A window wider than ``ENUMERATION_CAP`` is refused, unbuilt when its
    width, at least p^(c-1) >= 2^((n-1)(c-1)) for n = p.bit_length(), passes
    the cap by bit lengths alone.  A window let through has (p+1)^c <=
    2^(n*c) <= 2^48 (the cap has 24 bits) and a sqrt(hi) of at most
    5 * 10^6, reached at p = 5 * 10^6 and c = 2, so neither exact sieve
    refuses it for base primes past ``MAX_SIEVE_BASE``.

    A frontier window of a const:3 forest:

    >>> w = enumerable_window(1361, 3)
    >>> count_primes_in_range(w.lo, w.hi_exclusive)
    256666
    """
    bits = (p.bit_length() - 1) * (c - 1)
    if bits >= ENUMERATION_CAP.bit_length():
        raise EnumerationCapError(
            f"window wider than 2^{bits} exceeds enumeration cap {ENUMERATION_CAP}",
            ENUMERATION_CAP,
        )
    window = Window.from_parent(p, c)
    if window.width > ENUMERATION_CAP:
        # in bits: the width itself may be too long to print
        raise EnumerationCapError(
            f"window of {window.width.bit_length()}-bit width exceeds enumeration cap "
            f"{ENUMERATION_CAP}",
            ENUMERATION_CAP,
        )
    return window


# Width of the ranges the oracles below sieve at a time.
_ORACLE_SEGMENT = 1 << 17


def first_prime_in_range(lo: int, hi: int) -> int | None:
    """Least prime in [lo, hi) via segmented sieve only (oracle-grade)."""
    seg_lo = max(lo, 2)
    while seg_lo < hi:
        seg_hi = min(seg_lo + _ORACLE_SEGMENT, hi)
        ps = primes_in_range(seg_lo, seg_hi)
        if ps:
            return ps[0]
        seg_lo = seg_hi
    return None


def last_prime_in_range(lo: int, hi: int) -> int | None:
    """Greatest prime in [lo, hi) via segmented sieve only (oracle-grade)."""
    seg_hi = hi
    floor = max(lo, 2)
    while seg_hi > floor:
        seg_lo = max(seg_hi - _ORACLE_SEGMENT, floor)
        ps = primes_in_range(seg_lo, seg_hi)
        if ps:
            return ps[-1]
        seg_hi = seg_lo
    return None
