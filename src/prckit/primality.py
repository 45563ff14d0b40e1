"""Primality decisions and prime search inside windows.

Verdicts carry an explicit certainty tier: ``deterministic`` for complete
trial division, sieve enumeration, or the fixed Miller-Rabin witness set
below 2^64; ``probable:<rounds>`` for larger values, which get a
Baillie-PSW test (strong base-2 probable prime plus strong Lucas) followed
by the configured number of extra Miller-Rabin rounds.  Composite verdicts
are always exact.  Everything here is pure and deterministic: the extra
rounds draw their bases from a PRNG seeded by the value under test, so
identical inputs always produce identical outputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .core import (
    DEFAULT_CONFIG,
    DETERMINISTIC,
    Config,
    EnumerationCapError,
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


def _tiny_sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


_TRIAL_PRIMES = tuple(_tiny_sieve(997))
_TRIAL_SET = frozenset(_TRIAL_PRIMES)
_TRIAL_PRIMORIAL = math.prod(_TRIAL_PRIMES)
# Survivors of division by every prime <= 997 have no factor below 1009,
# so composites start at 1009^2.
_TRIAL_COMPLETE_LIMIT = 1009 * 1009

_BASE_SALT = 0x9E3779B97F4A7C15  # seeds the per-value PRNG for extra rounds


def _sprp(n: int, a: int) -> bool:
    """Strong probable prime test to base a (n odd, n > 2)."""
    a %= n
    if a == 0:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
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


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable prime test with Selfridge parameters.

    Caller must have ruled out even n, small factors, and perfect squares
    (the discriminant search below does not terminate on squares).
    """
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == 0:
            return False
        if j == -1:
            break
        D = -(D + 2) if D > 0 else -(D - 2)
    P = 1
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    U, V, Qk = 1, P, Q % n
    inv2 = (n + 1) >> 1
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (P * U + V) * inv2 % n, (D * U + P * V) * inv2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n: int, config: Config = DEFAULT_CONFIG) -> PrimalityVerdict:
    """Primality verdict with certainty tier.

    Deterministic below 2^64; Baillie-PSW plus ``config.mr_rounds`` extra
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
    r = isqrt(n)
    if r * r == n:
        return PrimalityVerdict(n, False, DETERMINISTIC)
    if not _strong_lucas_prp(n):
        return PrimalityVerdict(n, False, DETERMINISTIC)
    rng = random.Random(n ^ _BASE_SALT)
    for _ in range(config.mr_rounds):
        if not _sprp(n, rng.randrange(2, n - 1)):
            return PrimalityVerdict(n, False, DETERMINISTIC)
    return PrimalityVerdict(n, True, probable(config.mr_rounds))


# ---------------------------------------------------------------------------
# window scans

_WHEEL_RESIDUES = tuple(r for r in range(210) if gcd(r, 210) == 1)


def _candidates(lo: int, hi: int, descending: bool, use_wheel: bool):
    """Integers in [lo, hi) worth testing, ascending or descending.

    Evens other than 2 are never yielded.  With the wheel enabled (and the
    range safely above 210) only residues coprime to 2*3*5*7 are yielded;
    the skipped values are composite, so extrema are unaffected.
    """
    if hi <= lo:
        return
    if use_wheel and lo > 210:
        residues = _WHEEL_RESIDUES if not descending else _WHEEL_RESIDUES[::-1]
        block = (lo if not descending else hi - 1) // 210 * 210
        step = 210 if not descending else -210
        while (block + 210 > lo) if descending else (block < hi):
            for r in residues:
                n = block + r
                if lo <= n < hi:
                    yield n
            block += step
        return
    if descending:
        n = hi - 1
        if n > 2 and n % 2 == 0:
            n -= 1
        while n >= lo:
            yield n
            n -= 2 if n > 3 else 1
    else:
        n = lo
        if n > 2 and n % 2 == 0:
            n += 1
        while n < hi:
            yield n
            n += 2 if n >= 3 else 1


def find_prime_in_range(
    lo: int,
    hi: int,
    config: Config = DEFAULT_CONFIG,
    budget: int | None = None,
    descending: bool = False,
) -> int | None:
    """First prime in [lo, hi), scanning from the chosen end.

    Returns None when the whole range was scanned without finding one.
    Raises WindowSearchExhausted when the candidate budget runs out first
    (never silently returns a non-extremal value).
    """
    if budget is None:
        budget = config.window_budget
    tested = 0
    for n in _candidates(lo, hi, descending, config.wheel):
        if tested >= budget:
            raise WindowSearchExhausted(
                f"no prime found in [{lo}, {hi}) after {tested} candidates",
                scanned_all=False,
                tested=tested,
            )
        tested += 1
        if is_prime(n, config).is_prime:
            return n
    return None


def min_prime_in_window(
    window: Window, config: Config = DEFAULT_CONFIG, budget: int | None = None
) -> int:
    """Least prime in the window; ascending scan, so the true minimum.

    >>> min_prime_in_window(Window.from_parent(2, 3))
    11
    >>> min_prime_in_window(Window.from_parent(127, 4))
    260144663
    """
    found = find_prime_in_range(window.lo, window.hi_exclusive, config, budget)
    if found is None:
        raise WindowSearchExhausted(
            f"window [{window.lo}, {window.hi_exclusive}) contains no prime "
            "at the recorded certainty",
            scanned_all=True,
            tested=window.width,
        )
    return found


def max_prime_in_window(
    window: Window, config: Config = DEFAULT_CONFIG, budget: int | None = None
) -> int:
    """Greatest prime in the window; descending scan from the top."""
    found = find_prime_in_range(
        window.lo, window.hi_exclusive, config, budget, descending=True
    )
    if found is None:
        raise WindowSearchExhausted(
            f"window [{window.lo}, {window.hi_exclusive}) contains no prime "
            "at the recorded certainty",
            scanned_all=True,
            tested=window.width,
        )
    return found


@dataclass(frozen=True)
class WindowCount:
    count: int
    primes: tuple[int, ...] | None
    certainty: str


def count_primes_in_window(
    window: Window,
    config: Config = DEFAULT_CONFIG,
    cap: int | None = None,
    include_list: bool = False,
) -> WindowCount:
    """Exact prime count of a window below the enumeration cap.

    Windows whose square root fits under the sieve base bound are counted
    by segmented sieve (deterministic).  Narrow windows beyond that bound
    fall back to per-candidate testing, and the weakest certainty tier
    encountered is reported.
    """
    if cap is None:
        cap = config.enumeration_cap
    if window.width > cap:
        raise EnumerationCapError(
            f"window width {window.width} exceeds enumeration cap {cap}", cap
        )
    if isqrt(window.hi_exclusive - 1) <= config.max_sieve_base:
        ps = primes_in_range(window.lo, window.hi_exclusive, config)
        return WindowCount(
            len(ps), tuple(ps) if include_list else None, DETERMINISTIC
        )
    if window.width > 10_000:
        raise EnumerationCapError(
            "window too high for sieving and too wide for per-candidate "
            f"enumeration (width {window.width})",
            10_000,
        )
    ps, worst = [], DETERMINISTIC
    for n in _candidates(window.lo, window.hi_exclusive, False, config.wheel):
        v = is_prime(n, config)
        if v.is_prime:
            ps.append(n)
            if v.certainty != DETERMINISTIC:
                worst = v.certainty
    return WindowCount(len(ps), tuple(ps) if include_list else None, worst)


# ---------------------------------------------------------------------------
# exact sieving (used for enumeration, oracles, and seed listing)

_base_cache: dict = {"limit": 1, "primes": np.empty(0, dtype=np.int64)}


def _sieve_odd(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (odd-only sieve of Eratosthenes)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    half = (limit + 1) // 2
    mask = np.ones(half, dtype=bool)
    mask[0] = False
    for i in range(1, (isqrt(limit) - 1) // 2 + 1):  # odd p = 2i+1 <= sqrt(limit)
        if mask[i]:
            p = 2 * i + 1
            start = (p * p) // 2
            if start < half:
                mask[start::p] = False
    odds = 2 * np.flatnonzero(mask).astype(np.int64) + 1
    odds = odds[odds <= limit]
    return np.concatenate((np.array([2], dtype=np.int64), odds))


def _base_primes(limit: int) -> np.ndarray:
    if limit > _base_cache["limit"]:
        grown = max(limit, 2 * _base_cache["limit"], 1 << 16)
        _base_cache["primes"] = _sieve_odd(grown)
        _base_cache["limit"] = grown
    primes = _base_cache["primes"]
    return primes[: np.searchsorted(primes, limit, side="right")]


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit (exact sieve)."""
    return [int(p) for p in _base_primes(limit)]


_SEGMENT_WIDTH_LIMIT = 50_000_000


def primes_in_range(lo: int, hi: int, config: Config = DEFAULT_CONFIG) -> list[int]:
    """Primes in [lo, hi) by segmented sieve — exact, no probabilistic step.

    Needs base primes up to sqrt(hi); refuses when that exceeds
    ``config.max_sieve_base`` (values around 10^16 with the default).
    """
    lo = max(lo, 2)
    if hi <= lo:
        return []
    need = isqrt(hi - 1)
    if need > config.max_sieve_base:
        raise EnumerationCapError(
            f"sieving [{lo}, {hi}) needs base primes to {need}, above the "
            f"configured bound {config.max_sieve_base}",
            config.max_sieve_base,
        )
    width = hi - lo
    if width > _SEGMENT_WIDTH_LIMIT:
        raise EnumerationCapError(
            f"segment width {width} exceeds {_SEGMENT_WIDTH_LIMIT}",
            _SEGMENT_WIDTH_LIMIT,
        )
    base = _base_primes(need)
    mask = np.ones(width, dtype=bool)
    if base.size:
        starts = (-lo) % base
        pp = base * base  # p <= 1e8 keeps p*p inside int64
        starts = np.where(pp >= lo, pp - lo, starts)
        for i in np.flatnonzero(starts < width).tolist():
            p = int(base[i])
            mask[int(starts[i]) :: p] = False
    return [int(lo + i) for i in np.flatnonzero(mask)]


def first_prime_in_range(
    lo: int, hi: int, config: Config = DEFAULT_CONFIG, segment: int = 1 << 17
) -> int | None:
    """Least prime in [lo, hi) via segmented sieve only (oracle-grade)."""
    seg_lo = max(lo, 2)
    while seg_lo < hi:
        seg_hi = min(seg_lo + segment, hi)
        ps = primes_in_range(seg_lo, seg_hi, config)
        if ps:
            return ps[0]
        seg_lo = seg_hi
    return None


def last_prime_in_range(
    lo: int, hi: int, config: Config = DEFAULT_CONFIG, segment: int = 1 << 17
) -> int | None:
    """Greatest prime in [lo, hi) via segmented sieve only (oracle-grade)."""
    seg_hi = hi
    floor = max(lo, 2)
    while seg_hi > floor:
        seg_lo = max(seg_hi - segment, floor)
        ps = primes_in_range(seg_lo, seg_hi, config)
        if ps:
            return ps[-1]
        seg_hi = seg_lo
    return None
