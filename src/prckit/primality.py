"""Primality decisions and prime search inside windows.

Verdicts carry an explicit certainty tier: ``deterministic`` for complete
trial division, sieve enumeration, or the fixed Miller-Rabin witness set
below 2^64; ``probable:<rounds>`` for larger values, which get a
Baillie-PSW test (strong base-2 probable prime plus strong Lucas) followed
by ``MR_ROUNDS`` extra Miller-Rabin rounds.  Composite verdicts are
always exact.  Everything here is pure and deterministic: the extra
rounds draw their bases from a PRNG seeded by the value under test, so
identical inputs always produce identical outputs.

Every strong probable-prime round ends in one modular power, ``_powmod``.
For odd moduli of at least 2^64 it runs libgmp's ``mpz_powm`` through
ctypes when the shared library loads (``libgmp.so.10``, ``libgmp.so`` or
``libgmp.10.dylib``, tried once, on the first such modulus, and never at
import); otherwise, and for every smaller modulus, it is the builtin
``pow``.  Both compute the same integer, so tests, bases, verdicts and
tiers do not depend on the backend; ``modexp_backend()`` reports which
one runs.  The strong Lucas test is one V-only Lucas chain
(``_lucas_v``), run from 768 bits on the same libgmp handle (mpz_mul,
mpz_sub and mpz_mod per step) and in Python ints below that or without
libgmp.

One scheduler, ``_in_order``, runs every test call and reads the results
in call order: in place, or, with libgmp and at least two usable CPUs,
for values from 1024 bits, on one shared pool of at most 4 threads, made
on first use (``concurrent.futures`` is imported only then).  The strong
Lucas test and the Miller-Rabin rounds of a value past base 2 are all in
flight at once; a scan has as many survivors' base-2 tests in flight as
the pool has threads, and gives those that pass the rest of the test
(``_past_base_2``) in scan order.  The libgmp calls release the GIL, so
the threads overlap.  Verdicts, tiers, the bases drawn and scan budgets
do not depend on the pool.

Window scans (``scan_range``: min and max scans) sieve with
``_strike_walk``, in pure Python: each segment is a bytearray struck by
slice assignment, each base prime's first multiple is found once per scan
from the anchor's residues modulo products of ``_RESIDUE_GROUP`` primes,
and survivors are read with ``itertools.compress``.  A scan strikes by the
odd primes up to min(2^17, the square root of its last position,
``_scan_bound`` of that position's bits), tests only the survivors and
returns the ``is_prime`` verdict of the first prime; budgets count scan
positions (every odd number, plus every integer below 3), struck or not.
Its base primes come from the same walk over [1009, 2^17], struck by
``_TRIAL_PRIMES``.  So chains, verification and digits never load numpy:
a window scan meets its prime within a few thousand positions, too few
for numpy's import (about 0.1 s and 13 MB) to pay.  Exact enumeration
(counts, listings, the explorer) is ``prckit.sieve``, which imports this
module; this module imports only ``core``, so importing it loads neither
numpy nor ctypes.  ``MR_ROUNDS`` is a module constant read at call time;
no function here takes a ``Config``: the scans take a ``budget`` of scan
positions, by default ``DEFAULT_CONFIG.window_budget``.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import itertools
import math
import os
import random
import threading
from math import gcd, isqrt

from .core import (
    DEFAULT_CONFIG,
    DETERMINISTIC,
    PrimalityVerdict,
    Window,
    WindowSearchExhausted,
    probable,
)

# Strong-pseudoprime witness set (the primes 2..37) proven exhaustive for
# n < 3.186e23, comfortably covering the deterministic tier below 2^64.
# (The bound 3.317e24 belongs to the 13-base set that adds 41.)
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TWO64 = 1 << 64

# by trial division, not the sieve kernel: importing this module loads no numpy
_TRIAL_PRIMES = tuple(n for n in range(2, 998) if all(n % p for p in range(2, isqrt(n) + 1)))
_TRIAL_SET = frozenset(_TRIAL_PRIMES)
_TRIAL_PRIMORIAL = math.prod(_TRIAL_PRIMES)
# Survivors of division by every prime <= 997 have no factor below 1009,
# so composites start at 1009^2.
_TRIAL_COMPLETE_LIMIT = 1009 * 1009

_BASE_SALT = 0x9E3779B97F4A7C15  # seeds the per-value PRNG for extra rounds

# Extra Miller-Rabin rounds on top of BPSW for values of at least 2^64.
MR_ROUNDS = 32


# Shared-library names tried in order, on the first big odd modulus.
_GMP_NAMES = ("libgmp.so.10", "libgmp.so", "libgmp.10.dylib")
# (version, powm, lucas_v) once libgmp has loaded, False when none loaded,
# None before the first try.
_gmp = None


def _libgmp():
    """``_gmp``, binding libgmp through ctypes on the first call.

    Returns ``(version, powm, lucas_v)``, or False when no library loads or
    one lacks the symbols; either answer is kept for the life of the
    process.  ``powm(a, e, n)`` is pow(a, e, n) and ``lucas_v`` computes
    what ``_lucas_v`` does.
    """
    global _gmp
    if _gmp is not None:
        return _gmp
    import ctypes

    names = ("init", "clear", "import", "export", "powm", "mul", "sub", "sub_ui", "mod")
    for name in _GMP_NAMES:
        try:
            lib = ctypes.CDLL(name)
            version = ctypes.c_char_p.in_dll(lib, "__gmp_version").value.decode()
            fns = [lib["__gmpz_" + fn] for fn in names]
        except (OSError, AttributeError, ValueError):
            continue
        break
    else:
        _gmp = False
        return _gmp
    init, clear, mpz_import, mpz_export, mpz_powm, mul, sub, sub_ui, mod = fns

    class Mpz(ctypes.Structure):  # __mpz_struct of gmp.h
        _fields_ = [
            ("alloc", ctypes.c_int),
            ("size", ctypes.c_int),
            ("limbs", ctypes.c_void_p),
        ]

    # Values pass as plain addresses: a POINTER(Mpz) argument costs about
    # 1 us more per call, which the Lucas ladder's 6 calls per bit would feel.
    mpz, size_t, c_int = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int
    init.argtypes = clear.argtypes = [mpz]
    mpz_powm.argtypes = [mpz] * 4
    mul.argtypes = sub.argtypes = mod.argtypes = [mpz] * 3
    sub_ui.argtypes = [mpz, mpz, ctypes.c_ulong]
    # (rop, count, order, size, endian, nails, data) and its inverse
    mpz_import.argtypes = [mpz, size_t, c_int, size_t, c_int, size_t, ctypes.c_char_p]
    mpz_export.argtypes = [
        ctypes.c_char_p, ctypes.POINTER(size_t), c_int, size_t, c_int, size_t, mpz
    ]
    for fn in fns:
        fn.restype = None
    mpz_export.restype = ctypes.c_void_p

    def run(values, body, size):
        """body(*addresses) on fresh mpz values set to ``values``; returns
        the values at the addresses body returns, read as ``size``-byte ints.

        Fresh values on every call: the foreign calls release the GIL, so
        shared scratch values would race between threads.
        """
        zs = [Mpz() for _ in values]
        addrs = [ctypes.addressof(z) for z in zs]
        for z in addrs:
            init(z)
        try:
            for z, v in zip(addrs, values):
                raw = v.to_bytes((v.bit_length() + 7) // 8, "little")
                mpz_import(z, len(raw), -1, 1, 0, 0, raw)  # bytes, least first
            out, count = ctypes.create_string_buffer(size), size_t()
            results = []
            for z in body(*addrs):
                mpz_export(out, ctypes.byref(count), -1, 1, 0, 0, z)
                results.append(int.from_bytes(out.raw[: count.value], "little"))
            return results
        finally:
            for z in addrs:
                clear(z)

    def powm(a: int, e: int, n: int) -> int:
        def body(r, b, x, m):
            mpz_powm(r, b, x, m)
            return (r,)

        # r < n fits in as many bytes as n
        return run((0, a, e, n), body, (n.bit_length() + 7) // 8)[0]

    def lucas_v(pp: int, m: int, n: int) -> tuple[int, int]:
        def body(a, b, t, zn, zp):
            for bit in bin(m)[2:]:  # the chain of _lucas_v
                mul(t, a, b)
                sub(t, t, zp)
                mod(t, t, zn)  # V_(2k+1)
                if bit == "1":
                    mul(b, b, b)
                    sub_ui(b, b, 2)
                    mod(b, b, zn)  # V_(2k+2)
                    a, t = t, a
                else:
                    mul(a, a, a)
                    sub_ui(a, a, 2)
                    mod(a, a, zn)  # V_(2k)
                    b, t = t, b
            return a, b

        return tuple(run((2, pp, 0, n, pp), body, (n.bit_length() + 7) // 8))

    _gmp = (version, powm, lucas_v)
    return _gmp


def _powmod(a: int, e: int, n: int) -> int:
    """pow(a, e, n), through libgmp's mpz_powm for odd n >= 2^64 (a, e >= 0)
    when libgmp loads, else the builtin."""
    if n & 1 and n >= _TWO64 and a >= 0 and e >= 0:
        gmp = _libgmp()
        if gmp:
            return gmp[1](a, e, n)
    return pow(a, e, n)


def modexp_backend() -> str:
    """``"gmp <version>"`` when big moduli run through libgmp, else
    ``"builtin"``.  Only reports: results are identical either way."""
    gmp = _libgmp()
    return f"gmp {gmp[0]}" if gmp else "builtin"


# Break-evens from the sweeps recorded in BENCH_7.json (2 vCPU, GMP 6.2.1):
# the strong Lucas ladder runs on libgmp from this many bits of n (below,
# ctypes call overhead outweighs the faster arithmetic) ...
_LUCAS_GMP_BITS = 768
# ... and tests of n from this many bits run on the test pool (below, the
# second core saved little more than the hand-offs to threads cost, and a
# scan's sieving in the calling thread holds the GIL its workers wait for).
_POOL_MIN_BITS = 1024
_POOL_MAX_WORKERS = 4
# (executor, workers) once made, False with one usable CPU, None before the
# first test of at least _POOL_MIN_BITS bits.
_pool = None
_pool_lock = threading.Lock()


def _pool_for(n: int):
    """(executor, workers) of the shared test pool when tests of n should
    run on it, else None.

    Only libgmp's calls release the GIL, so without libgmp nothing runs
    pooled; libgmp is bound here, in the calling thread, before any
    submit.  Pool tasks are ``_sprp`` and ``_strong_lucas_prp`` calls: they
    never submit to the pool themselves.
    """
    global _pool
    if n.bit_length() < _POOL_MIN_BITS or not _libgmp():
        return None
    with _pool_lock:
        if _pool is None:
            try:
                cpus = len(os.sched_getaffinity(0))
            except AttributeError:  # not on every platform
                cpus = os.cpu_count() or 1
            workers = min(_POOL_MAX_WORKERS, cpus)
            _pool = False
            if workers > 1:
                # imported here: concurrent.futures costs about 11 ms to import
                from concurrent.futures import ThreadPoolExecutor

                _pool = (ThreadPoolExecutor(workers, "prckit-test"), workers)
    return _pool or None


def _forget_pool() -> None:
    """A forked child has none of its parent's pool threads, and its copy
    of the lock may have been held by one of them."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _sprp(n: int, a: int) -> bool:
    """Strong probable prime test to base a (n odd, n > 2)."""
    a %= n
    if a == 0:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = _powmod(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _lucas_v(pp: int, m: int, n: int) -> tuple[int, int]:
    """(V_m, V_(m+1)) mod n of the Lucas sequence V_0 = 2, V_1 = pp,
    V_(k+1) = pp V_k - V_(k-1) (parameters (pp, 1)), by a Lucas chain over
    the bits of m (0 <= pp < n)."""
    a, b = 2, pp
    for bit in bin(m)[2:]:  # (a, b) = (V_k, V_(k+1)), then k becomes 2k + bit
        t = (a * b - pp) % n
        if bit == "1":
            a, b = t, (b * b - 2) % n
        else:
            a, b = (a * a - 2) % n, t
    return a, b


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable prime test with Selfridge parameters.

    Caller must have ruled out even n, small factors, and perfect squares
    (the discriminant search below does not terminate on squares).

    With P = 1, Q = (1 - D)/4 and n + 1 = d 2^s, d odd, n passes when U_d
    or some V_(d 2^r), 0 <= r < s, is 0 mod n.  Only a V-only ladder runs:
    W below is the Lucas V sequence of parameters (1/Q - 2, 1).  For a
    unit Q and d = 2m + 1, V_(2k) = Q^k W_k, V_d = Q^(m+1) (W_m + W_(m+1))
    and D U_d = Q^(m+1) (W_(m+1) - W_m), D being a unit by its Jacobi
    symbol; so n passes when W_m = W_(m+1), W_m = -W_(m+1) or some
    W_(d 2^r), 0 <= r < s - 1, is 0, where W_d = W_m W_(m+1) - W_1.  Q is
    a unit: a prime p dividing Q and n is below |D|, so the search met
    D = +-p (or 9, for p = 3) first, with symbol 0.
    """
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == 0:
            return False
        if j == -1:
            break
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    pp = (pow(Q, -1, n) - 2) % n
    ladder = _lucas_v
    if n.bit_length() >= _LUCAS_GMP_BITS:
        gmp = _libgmp()
        if gmp:
            ladder = gmp[2]
    w, w1 = ladder(pp, d >> 1, n)
    if w == w1 or (w + w1) % n == 0:
        return True
    w = (w * w1 - pp) % n
    for _ in range(s - 1):
        if w == 0:
            return True
        w = (w * w - 2) % n
    return False


def _in_order(pool, calls, ahead):
    """Yield ((fn, *args), fn(*args)) for each call, in order: run in place
    when asked for without ``pool``, else up to ``ahead`` at a time on its
    executor.  Closing the generator cancels the calls not started yet."""
    if pool is None:
        yield from ((call, call[0](*call[1:])) for call in calls)
        return
    calls, pending = iter(calls), collections.deque()
    try:
        while True:
            for call in itertools.islice(calls, ahead - len(pending)):
                pending.append((call, pool[0].submit(*call)))
            if not pending:
                return
            call, future = pending.popleft()
            yield call, future.result()
    finally:
        for _, future in pending:
            future.cancel()


def is_prime(n: int) -> PrimalityVerdict:
    """Primality verdict with certainty tier.

    Deterministic below 2^64; Baillie-PSW plus ``MR_ROUNDS`` extra
    Miller-Rabin rounds above.  Composite verdicts are exact at every size.
    """
    if n < 2:
        return PrimalityVerdict(n, False, DETERMINISTIC)
    if n <= _TRIAL_PRIMES[-1]:
        return PrimalityVerdict(n, n in _TRIAL_SET, DETERMINISTIC)
    if gcd(n, _TRIAL_PRIMORIAL) > 1:
        return PrimalityVerdict(n, False, DETERMINISTIC)
    if n < _TRIAL_COMPLETE_LIMIT:
        return PrimalityVerdict(n, True, DETERMINISTIC)
    if n < _TWO64:
        ok = all(_sprp(n, a) for a in _MR_BASES_64)
        return PrimalityVerdict(n, ok, DETERMINISTIC)
    if not _sprp(n, 2):
        return PrimalityVerdict(n, False, DETERMINISTIC)
    return _past_base_2(n)


def _past_base_2(n: int) -> PrimalityVerdict:
    """``is_prime(n)`` for n >= 2^64 with no factor up to 997 that
    is a strong probable prime to base 2: the rest of its test."""
    r = isqrt(n)
    if r * r == n:
        return PrimalityVerdict(n, False, DETERMINISTIC)
    rng = random.Random(n ^ _BASE_SALT)
    rounds = [(_sprp, n, rng.randrange(2, n - 1)) for _ in range(MR_ROUNDS)]
    tests = [(_strong_lucas_prp, n), *rounds]
    # all in flight at once; the first failure in call order decides
    with contextlib.closing(_in_order(_pool_for(n), tests, len(tests))) as results:
        if not all(passed for _, passed in results):
            return PrimalityVerdict(n, False, DETERMINISTIC)
    return PrimalityVerdict(n, True, probable(MR_ROUNDS))


# ---------------------------------------------------------------------------
# window scans: sieve, then test

# Scans strike composites from each segment by odd base primes up to this
# bound at most, before anything reaches is_prime.
_SCAN_SIEVE_LIMIT = 1 << 17
# A scan's first segment holds this many odd positions; each later one
# doubles, up to the cap, so short scans sieve little past their prime.
_SCAN_SEGMENT_FIRST = 1 << 8
_SCAN_SEGMENT_CAP = 1 << 15
# Struck segment entries are copied from this.
_SCAN_ZEROS = memoryview(bytes(_SCAN_SEGMENT_CAP))
# Base primes are taken modulo products of this many at a time first.
_RESIDUE_GROUP = 32


# (bits, bound): a scan whose last position has at least ``bits`` bits
# strikes by the odd primes up to ``bound`` at most, from the break-even
# sweep of BENCH_18.json.  Striking by one more prime costs about the same
# at every size, while each survivor it removes saves an is_prime whose
# cost grows with the bits.  The least bound, 1009, leaves every survivor
# from 2^64 with no factor up to 997, as scan_range assumes.
_SCAN_BOUND_STEPS = (
    (0, 1009),
    (128, 1 << 11),
    (320, 1 << 12),
    (512, 1 << 13),
    (640, 1 << 14),
    (768, 1 << 15),
    (896, 1 << 16),
    (1152, _SCAN_SIEVE_LIMIT),
)


def _scan_bound(bits: int) -> int:
    """The bound of the last step of ``_SCAN_BOUND_STEPS`` at or below
    ``bits``."""
    return _SCAN_BOUND_STEPS[bisect.bisect_right(_SCAN_BOUND_STEPS, (bits, math.inf)) - 1][1]


def _residue_groups(primes: list[int]) -> list[tuple[int, list[int]]]:
    """(product, the primes) for each run of ``_RESIDUE_GROUP`` of
    ``primes``, in order."""
    runs = (primes[i : i + _RESIDUE_GROUP] for i in range(0, len(primes), _RESIDUE_GROUP))
    return [(math.prod(run), run) for run in runs]


def _strike_walk(anchor: int, step: int, count: int, primes: list[int], groups: list):
    """Yield the numbers anchor + step*j, 0 <= j < count, in that order,
    that no prime of ``primes`` divides but themselves.

    ``anchor`` is odd, every number is at least 3, ``step`` is 2 or -2,
    ``primes`` holds ascending odd primes and ``groups`` is
    ``_residue_groups`` of a list that begins with them.  Segments of
    ``_SCAN_SEGMENT_FIRST`` positions, doubling up to ``_SCAN_SEGMENT_CAP``,
    are bytearrays struck by slice assignment.  Each prime's first multiple
    is found once, from the anchor's residue modulo its group's product; a
    segment takes its offset modulo p only from the primes below the
    segment's end, since from there on only a prime's first multiple can
    lie in it.
    """
    # the multiples of p sit at the j = c / 2 (mod p): c = -anchor / (step / 2)
    c = -anchor if step > 0 else anchor
    starts = []
    for prod, run in groups:
        x = c % prod
        x = (x + (x & 1) * prod) >> 1  # c / 2 modulo the odd product
        starts += [x % p for p in run]
    del starts[len(primes) :]
    j, length = 0, _SCAN_SEGMENT_FIRST
    while j < count:
        n = min(length, count - j)
        end = j + n
        segment = bytearray(b"\x01") * n
        split = bisect.bisect_left(primes, end)
        for p, s in zip(primes[:split], starts):
            s = (s - j) % p
            segment[s::p] = _SCAN_ZEROS[: (n - 1 - s) // p + 1]
        for s in [s - j for s in starts[split:] if j <= s < end]:
            segment[s] = 0
        a, b = anchor + step * j, anchor + step * (j + n - 1)
        low, high = sorted((a, b))
        if primes and low <= primes[-1]:  # base primes in the segment are prime
            inside = slice(bisect.bisect_left(primes, low), bisect.bisect_right(primes, high))
            for p in primes[inside]:
                segment[(p - a) // step] = 1
        yield from itertools.compress(range(a, b + step, step), segment)
        j, length = end, min(2 * length, _SCAN_SEGMENT_CAP)


# The odd primes up to _SCAN_SIEVE_LIMIT and their _residue_groups, made on
# the first scan: the _TRIAL_PRIMES and the survivors of [1009, 2^17]
# struck by them (997^2 > 2^17).
_scan_primes = None


def _scan_base(bound: int) -> tuple[list[int], list]:
    """The odd primes up to min(bound, _SCAN_SIEVE_LIMIT) and the
    ``_residue_groups`` that cover them."""
    global _scan_primes
    if _scan_primes is None:
        trial = list(_TRIAL_PRIMES[1:])
        count = (_SCAN_SIEVE_LIMIT - 1009) // 2 + 1
        primes = trial + list(_strike_walk(1009, 2, count, trial, _residue_groups(trial)))
        _scan_primes = (primes, _residue_groups(primes))
    primes, groups = _scan_primes
    k = bisect.bisect_right(primes, bound)
    return primes[:k], groups[: -(-k // _RESIDUE_GROUP)]


def _scan_layout(lo: int, hi: int) -> tuple[int, int, int]:
    """(small, first, odd) for the scan positions of [lo, hi).

    Scan positions are every integer below 3 (``small`` of them) and the
    ``odd`` odd integers first, first + 2, ... from 3 up.  Window budgets
    count positions, including those the sieve strikes.
    """
    small = max(0, min(hi, 3) - lo)
    first = max(lo, 3) | 1
    return small, first, max(0, (hi - first + 1) // 2)


def _survivors(lo: int, hi: int, descending: bool, limit: int):
    """Yield the sieve survivors among the first ``limit`` scan positions of
    [lo, hi), in scan order.

    Ascending scans take the positions below 3 first, descending scans
    last.  Of those only 2 survives; odd positions survive unless an odd
    prime other than themselves divides them up to min(_SCAN_SIEVE_LIMIT,
    the square root of the last, ``_scan_bound`` of its bits).
    """
    small, first, odd = _scan_layout(lo, hi)
    if descending:
        count = min(odd, limit)
        first += 2 * (odd - count)  # the top ``count`` odd positions
        two = lo <= 2 < hi and odd + min(hi, 3) - 3 < limit
    else:
        count = min(odd, limit - small)
        two = lo <= 2 < hi and 2 - lo < limit
    if two and not descending:
        yield 2
    if count > 0:
        last = first + 2 * (count - 1)
        primes, groups = _scan_base(
            min(_SCAN_SIEVE_LIMIT, isqrt(last), _scan_bound(last.bit_length()))
        )
        anchor, step = (last, -2) if descending else (first, 2)
        yield from _strike_walk(anchor, step, count, primes, groups)
    if two and descending:
        yield 2


def scan_range(
    lo: int,
    hi: int,
    budget: int = DEFAULT_CONFIG.window_budget,
    descending: bool = False,
) -> PrimalityVerdict | None:
    """Verdict of the first prime in [lo, hi), scanning from the chosen end.

    Each segment of odd positions is sieved by the odd primes up to a
    bound from the operand size (at most 2^17; see ``_survivors``).  The
    survivors' base-2 tests run through ``_in_order``, as many ahead as the
    pool has threads, and the first prime's ``is_prime`` verdict (tier
    included) is returned.  Returns None when the whole range was scanned
    without finding one.  Raises WindowSearchExhausted when the budget of
    scan positions (every integer below 3 and every odd integer, struck by
    the sieve or not) runs out first, never returning a non-extremal value.
    """
    limit = max(budget, 0)
    pool = _pool_for(max(lo, 2))
    tests = ((_sprp, n, 2) for n in _survivors(lo, hi, descending, limit))
    with contextlib.closing(_in_order(pool, tests, pool and pool[1])) as results:
        for (_, n, _), passed in results:
            if not passed:
                continue  # composite
            # a survivor from 2^64 has no factor up to 997
            verdict = _past_base_2(n) if n >= _TWO64 else is_prime(n)
            if verdict.is_prime:
                return verdict
    small, _, odd = _scan_layout(lo, hi)
    if small + odd > limit:
        raise WindowSearchExhausted(
            f"no prime found in [{lo}, {hi}) after {limit} candidates",
            scanned_all=False,
            tested=limit,
        )
    return None


def find_prime_in_range(
    lo: int,
    hi: int,
    budget: int = DEFAULT_CONFIG.window_budget,
    descending: bool = False,
) -> int | None:
    """First prime in [lo, hi), scanning from the chosen end.

    Returns None when the whole range was scanned without finding one.
    Raises WindowSearchExhausted when the candidate budget runs out first
    (never silently returns a non-extremal value).
    """
    verdict = scan_range(lo, hi, budget, descending)
    return None if verdict is None else verdict.value


def window_prime(
    window: Window,
    budget: int = DEFAULT_CONFIG.window_budget,
    descending: bool = False,
) -> PrimalityVerdict:
    """Verdict of the least (or, descending, the greatest) prime in the window.

    Raises WindowSearchExhausted with ``scanned_all`` set when the window
    holds no prime, as well as when the budget runs out.
    """
    found = scan_range(window.lo, window.hi_exclusive, budget, descending)
    if found is None:
        raise WindowSearchExhausted(
            f"window [{window.lo}, {window.hi_exclusive}) contains no prime "
            "at the recorded certainty",
            scanned_all=True,
            tested=window.width,
        )
    return found


def min_prime_in_window(window: Window, budget: int = DEFAULT_CONFIG.window_budget) -> int:
    """Least prime in the window; ascending scan, so the true minimum.

    >>> min_prime_in_window(Window.from_parent(2, 3))
    11
    >>> min_prime_in_window(Window.from_parent(127, 4))
    260144663
    """
    return window_prime(window, budget).value


def max_prime_in_window(window: Window, budget: int = DEFAULT_CONFIG.window_budget) -> int:
    """Greatest prime in the window; descending scan from the top."""
    return window_prime(window, budget, descending=True).value


def __getattr__(name):
    # perfbench/tracing.py's TARGETS bind primes_in_range here until a later
    # benchmark change retargets them to prckit.sieve and deletes this
    if name == "primes_in_range":
        from .sieve import primes_in_range

        return primes_in_range
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
