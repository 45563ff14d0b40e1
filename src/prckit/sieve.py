"""Exact prime enumeration: counts, listings and the sieve-only oracles,
for the explorer; chains, verification and digits only scan (``primality``).

One numpy kernel, imported on first use, sieves millions of numbers in
class rows: the row of r holds the numbers 30k + r for one of the eight
residues r prime to 30, so no multiple of 2, 3 or 5 is stored.
``_class_rows`` is its one loop that strikes multiples (from a cached
pattern of the numbers prime to 7*11*13*17 when its base primes begin 7,
11, 13, 17).  Exact primes come one way: ``_struck`` strikes a range with
the base primes up to a bound, sqrt(hi) for a listing (``_sieve_segments``,
the rows interleaved into masks of the odd numbers: ``primes_in_range``,
the fill of the base-prime cache to 2^23, the base primes past it,
uncached, and the prime-count table below 2^23) and a t from cbrt(hi) for
a count (``count_primes_in_range``, which counts the rows of
``_sieve_rows`` and subtracts Lehmer's P2 term by one lookup in that
table, ``prime_pi``).  ``enumerable_window`` is the one rule for which
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
# Entries per segment of the exact sieve: a count's class rows, of up to
# 1 MiB, or a listing's odd numbers, a 1 MiB mask.
_SIEVE_SEGMENT = 1 << 20

# ---------------------------------------------------------------------------
# the numpy kernel: one striking loop over class rows

# The residues prime to 30: the row of r holds the numbers 30k + r, so no
# multiple of 2, 3 or 5 is ever stored.
_CLASSES = (1, 7, 11, 13, 17, 19, 23, 29)
# -1/r modulo 30 at r: for p prime to 30, (1 + p * _STEP[p % 30]) // 30
# is the inverse of 30 modulo p.
_STEP = tuple(-pow(r, -1, 30) % 30 if math.gcd(r, 30) == 1 else 0 for r in range(30))
# The primes of the row pattern, their product (its period in k: 30k + r
# and 30(k + _PATTERN_PERIOD) + r share every residue), and that pattern,
# built on first use: entry (c, j) is True exactly when 30j + _CLASSES[c]
# is prime to all four.
_PATTERN_PRIMES = (7, 11, 13, 17)
_PATTERN_PERIOD = math.prod(_PATTERN_PRIMES)  # 17017
_pattern = None
# Primes from a row's length // _FEW strike it at most _FEW times: cheaper
# in one index over the hits of them all than in a slice each.  Up to
# eight rows of up to _GROUP entries in all (``_row_buffer``) are struck
# together: one pass of the per-prime work (the starts, that index) serves
# them all, and its temporaries stay small enough to reuse the
# allocator's pages.  The
# sweeps of both are in BENCH_28.json: slicing every prime below the row
# length doubles the time of narrow windows' counts, and groups of all
# eight rows of any length slow the (2, 31) forest's counts by a third.
_FEW = 64
_GROUP = 1 << 16


def _class_pattern() -> np.ndarray:
    """The cached (8, 17017) row pattern, built by the plain path of the
    four primes alone, from k = 17017, where every number is past 17^2."""
    import numpy as np

    global _pattern
    if _pattern is None:
        primes = np.array(_PATTERN_PRIMES, dtype=np.int64)
        buffer = np.empty(len(_CLASSES) * _PATTERN_PERIOD, dtype=bool)
        blocks = _class_rows(buffer, _PATTERN_PERIOD, _PATTERN_PERIOD, primes)
        _pattern = np.concatenate([block.copy() for _, block in blocks])
    return _pattern


def _class_rows(buffer: np.ndarray, k0: int, length: int, base: np.ndarray):
    """Yield (c, block) for the classes of ``_CLASSES`` in groups of
    g = min(8, buffer.size // length), from c = 0 on: row i of ``block``,
    a (g, length) view of ``buffer`` (the last group's may have fewer
    rows), is the sieve mask of the numbers 30k + _CLASSES[c + i] for k in
    [k0, k0 + length).  The buffer is refilled for the next group, so a
    block is valid until the next is yielded.

    ``k0`` is at least 0 and 30*k0 below 2^62; ``base`` holds ascending
    primes from 7.  An entry is False exactly when its number is p*m with p
    in ``base`` and m >= p: when it has a factor in ``base`` other than
    itself, for a base holding every prime from 7 up to its last (every
    base but an uncached batch of ``_struck``).

    When ``base`` begins 7, 11, 13, 17 and goes on, each row starts from
    the cached pattern of those four and only the rest strike; four primes
    alone take the plain path, which is how the pattern itself is built.
    A prime p below the rows' span 30 * length strikes each row from s,
    taken from the inverse of 30 modulo p, never below p^2: by row[s::p]
    below length // _FEW, and from there by one index per group over the
    hits of them all (at most one a row from ``length`` on).  The larger
    primes, with at most one multiple in the span, strike by one index per
    group over those multiples.
    """
    import numpy as np

    g = min(len(_CLASSES), buffer.size // length)
    four = len(_PATTERN_PRIMES)
    patterned = base.size > four and int(base[four - 1]) == _PATTERN_PRIMES[-1]
    if patterned:
        pattern, j = _class_pattern(), k0 % _PATTERN_PERIOD
        head = min(_PATTERN_PERIOD - j, length)  # entries before the pattern wraps
        whole = length - (length - head) % _PATTERN_PERIOD
        base = base[four:]
    # the primes below the rows' span 30 * length strike from each row's
    # start; the larger ones have at most one multiple in the span
    split = int(np.searchsorted(base, 30 * length))
    near, far = base[:split], base[split:]
    few = int(np.searchsorted(near, length // _FEW))
    sliced = near[:few].tolist()
    # a column: the starts are (prime, row) arrays, p divides 30(k0 + s) + r
    # for s = (shift - r * inverse) % p
    near = near[:, None]
    inverse = (1 + near * np.array(_STEP)[near % 30]) // 30
    shift = -(k0 % near)
    # smaller multiples of p than p*p are struck by their other, smaller
    # prime factor, and p itself is prime
    square = near * near if near.size and 30 * k0 + 1 < int(near[-1, 0]) ** 2 else None
    p = near[few:]
    # the larger primes' multiples p*m >= p^2 in the span: their rows (-1
    # off the classes) and entries
    far_row = far_at = far[:0]
    if far.size:
        n = far * np.maximum(-(-30 * k0 // far), far)
        k, row = np.divmod(n[n < 30 * (k0 + length)], 30)
        row_of = np.full(30, -1)
        row_of[list(_CLASSES)] = np.arange(len(_CLASSES))
        row = row_of[row]
        far_row, far_at = row[row >= 0], k[row >= 0] - k0
    classes = np.array(_CLASSES, dtype=np.int64)
    for c in range(0, len(_CLASSES), g):
        r = classes[c : c + g]
        flat = buffer[: r.size * length]
        block = flat.reshape(r.size, length)
        start = (shift - r * inverse) % near
        if square is not None:
            least = (square - r + 29) // 30 - k0
            start = np.where(least > start, start + (least - start + near - 1) // near * near, start)
        if patterned:
            rows = pattern[c : c + r.size]
            block[:, :head] = rows[:, j : j + head]
            block[:, head:whole].reshape(r.size, -1, _PATTERN_PERIOD)[:] = rows[:, None]
            block[:, whole:] = rows[:, : length - whole]
            if k0 == 0:  # the pattern's primes are prime
                block[:, 0] |= np.isin(r, _PATTERN_PRIMES)
        else:
            block[:] = True
        for entries, starts in zip(block, start[:few].T.tolist()):
            for q, t in zip(sliced, starts):
                entries[t::q] = False
        # the hits s + p*i of the other near primes, at i*length + s in
        # ``flat`` for row i, in one index built in place over the (prime,
        # row) pairs with hits: each fresh temporary as long as the hits
        # costs its page faults
        s = start[few:]
        hits = np.maximum((length - 1 - s) // p + 1, 0).ravel()
        runs = hits > 0
        s = (s + np.arange(0, flat.size, length)).ravel()[runs]
        steps, hits = np.repeat(p, r.size)[runs], hits[runs]
        firsts = np.cumsum(hits) - hits  # of each pair's run of hits
        at = np.repeat(steps, hits)
        at *= np.arange(at.size)
        at += np.repeat(s - steps * firsts, hits)
        flat[at] = False
        if far_row.size:
            mine = (far_row >= c) & (far_row < c + r.size)
            flat[(far_row[mine] - c) * length + far_at[mine]] = False
        yield c, block


def _row_buffer(length: int) -> np.ndarray:
    """The one buffer of a walk whose segments have rows of up to
    ``length`` entries: for one row, or for as many as ``_GROUP`` entries
    hold, up to all eight."""
    import numpy as np

    return np.empty(max(length, min(len(_CLASSES) * length, _GROUP)), dtype=bool)


def _row_walk(lo: int, hi: int, base: np.ndarray):
    """Yield (n, block) for the class rows of [lo, hi), lo >= 2, in
    ascending segments of up to ``_SIEVE_SEGMENT`` values of k, each in the
    groups of ``_class_rows``: ``block`` is a group's mask with the entries
    outside [lo, hi) cleared, and ``n`` the int64 array of its rows' first
    numbers 30k + r.  Every block is a view of one buffer allocated per
    walk, ``_row_buffer``'s."""
    import numpy as np

    k, k_end = lo // 30, (hi - 1) // 30 + 1
    buffer = _row_buffer(min(_SIEVE_SEGMENT, k_end - k))
    while k < k_end:
        length = min(_SIEVE_SEGMENT, k_end - k)
        for c, block in _class_rows(buffer, k, length, base):
            n = 30 * k + np.array(_CLASSES[c : c + len(block)], dtype=np.int64)
            block[:, 0] &= n >= lo
            block[:, -1] &= n + 30 * (length - 1) < hi
            yield n, block
        k += length


def _odd_walk(first: int, count: int, base: np.ndarray):
    """Yield (a, mask) for ascending segments of ``_SIEVE_SEGMENT`` odd
    numbers covering the ``count`` odd numbers from ``first`` (odd, at
    least 3): ``mask`` marks the numbers among a, a + 2, ... that the
    class rows covering them leave standing, and 3 and 5.  The rows, in
    ``_row_buffer``'s buffer, are interleaved into one buffer of odd
    numbers allocated per walk, whose entries for the other multiples of 3
    and 5 stay False, so a mask is valid until the next is yielded."""
    import numpy as np

    size = min(_SIEVE_SEGMENT, count)
    span_max = size // 15 + 2  # rows a segment's numbers fall in
    rows = _row_buffer(span_max)
    odd = np.zeros(15 * span_max, dtype=bool)  # entry i: 30k + 2i + 1
    done = 0
    while done < count:
        a, length = first + 2 * done, min(size, count - done)
        k = a // 30
        span = (a + 2 * length - 2) // 30 + 1 - k
        for c, block in _class_rows(rows, k, span, base):
            for r, row in zip(_CLASSES[c:], block):
                odd[(r - 1) // 2 : 15 * span : 15] = row
        odd[1:3] = k == 0  # 3 and 5
        at = (a - 30 * k) // 2
        yield a, odd[at : at + length]
        done += length


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


def _struck(strike: int, walk, *args):
    """Yield the segments of ``walk(*args, base)`` (``_odd_walk`` or
    ``_row_walk``) struck by every prime from 7 up to ``strike``.

    The base primes past the cache come from this same sieve, batch by
    batch, and each batch strikes every segment in turn, so all the
    segments' masks are kept (copied out of the walk's one buffer) until
    the last batch.
    """
    segments = walk(*args, _base_primes(strike)[3:])
    if strike > _BASE_CACHE_LIMIT:
        segments = [(n, mask.copy()) for n, mask in segments]
        for batch in _odd_primes(_BASE_CACHE_LIMIT + 1, strike + 1, isqrt(strike)):
            for (_, mask), (_, more) in zip(segments, walk(*args, batch)):
                mask &= more
    yield from segments


def _sieve_segments(lo: int, hi: int, strike: int):
    """Yield (a, mask) covering the odd numbers of [max(lo, 3), hi).

    ``mask`` marks the numbers among a, a + 2, ... with no odd prime
    factor up to max(``strike``, 5) but themselves: exactly the primes
    when ``strike`` is at least sqrt(hi - 1).  Nothing is refused here; the
    public sieves call ``_sieve_bound`` first.  Callers add 2.
    """
    _, first, odd = _scan_layout(lo, hi)
    return _struck(strike, _odd_walk, first, odd)


def _sieve_rows(lo: int, hi: int, strike: int):
    """Yield (n, block) covering the numbers prime to 30 of [max(lo, 2), hi).

    Row i of ``block`` marks the numbers among n[i], n[i] + 30, ... in
    [lo, hi) with no prime factor from 7 up to ``strike`` but themselves.
    Nothing is refused here.
    """
    return _struck(strike, _row_walk, max(lo, 2), hi)


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
# Entries per piece of a prime_pi lookup: its temporaries, 64 KiB each,
# stay below glibc's 128 KiB mmap threshold and so reuse heap pages.  A
# count of a window 6*10^5 wide near 9*10^10 took 2.1-2.4 ms so, against
# 2.7-4.8 ms with one unpieced call per bound; the (2, 31) forest's
# lookups, about 10^5 bounds a count, take 1.5 ms so and 2.9-3.3 ms in
# one piece (BENCH_28.json, prime_pi_lookups).
_PI_PIECE = 1 << 13


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
    of the bits of x's word up to x, plus 1 for the prime 2, taken in pieces
    of ``_PI_PIECE`` entries."""
    import numpy as np

    global _table
    table = _table
    if int(x.max()) >= table[0]:
        table = _table = _build(_BASE_CACHE_LIMIT)
    _, words, counts = table
    pi = np.empty_like(x)
    for i in range(0, x.size, _PI_PIECE):
        part = x[i : i + _PI_PIECE]
        n = (part - 1) >> 1  # the odd numbers of [3, x]
        w, below = n >> 6, (n & 63).astype(np.uint64)
        bits = words[w] & ((np.uint64(1) << below) - np.uint64(1))
        pi[i : i + _PI_PIECE] = counts[w] + popcount64(bits).astype(np.int64) + (part >= 2)
    return pi


def count_primes_in_range(lo: int, hi: int) -> int:
    """len(primes_in_range(lo, hi)), refusals included, without
    building the list.

    With t = min(max(cbrt(hi - 1) + 1, (hi - 1) // _BASE_CACHE_LIMIT + 1,
    7), sqrt(hi - 1) + 1), ``_sieve_rows`` strikes the class rows (which
    hold no multiple of 2, 3 or 5) only with the primes from 7 below t.
    As t^3 > hi - 1, the composites left standing are exactly the products
    p*q of primes t <= p <= q, and for each p up to sqrt(hi - 1) with such
    a product in the window the q are counted as pi(q_hi) - pi(q_lo - 1)
    by one ``prime_pi`` call over both bounds (Lehmer's P2 term); the
    second term of t keeps every q, at most (hi - 1) / t, below the
    table's bound, ``_BASE_CACHE_LIMIT``.  The p come from the base-prime
    cache, which so grows only to sqrt(hi - 1).  Where the cap applies
    (past about 2^46) there is no such p and every base prime strikes, as
    in ``primes_in_range``.
    """
    lo = max(lo, 2)
    if hi <= lo:
        return 0
    import numpy as np

    need = _sieve_bound(lo, hi)
    top = hi - 1
    t = min(max(nth_root_floor(top, 3) + 1, top // _BASE_CACHE_LIMIT + 1, 7), need + 1)
    ps = _base_primes(need)
    ps = ps[np.searchsorted(ps, t) :]
    # per p, the primes q from max(p, ceil(lo/p)) to top // p, for the p
    # with a multiple in [lo, top] (p <= top // p, as p <= sqrt(top))
    q_lo, q_hi = np.maximum(ps, -(-lo // ps)), top // ps
    hit = q_lo <= q_hi
    count = sum(lo <= p < hi for p in (2, 3, 5))
    if hit.any():
        pi = prime_pi(np.concatenate((q_hi[hit], q_lo[hit] - 1)))
        half = pi.size // 2
        count -= int(pi[:half].sum() - pi[half:].sum())
    return count + sum(int(np.count_nonzero(row)) for _, row in _sieve_rows(lo, hi, t - 1))


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
