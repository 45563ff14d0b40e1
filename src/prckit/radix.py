"""Exact integer n-th roots and certified decimal digit extraction.

Digits of a constant bracketed by [p^(1/C), (p+1)^(1/C)] are produced by
scaling: the floor of p^(1/C) * 10^d, which equals the one-shot root
floor((p * 10^(d*C))^(1/C)), is an integer mantissa whose first digits are
provably correct, because the root itself is computed exactly.  For large
radicands ``scaled_root_floor`` gets that same integer from composed
prime-order roots: C is split into primes q and the q-th roots are taken
one after another at fixed point, each on a radicand of about (d + guard)
* q digits instead of d * C, with the one-shot root as the fallback when
the composed bounds do not settle the floor.  The bit ceiling bounds every
radicand ``scaled_root_floor`` builds, checked before it is built.  No
floating point is involved anywhere; 86 or 254 certified decimal places
cannot be had any other way at reasonable cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DEFAULT_CONFIG,
    BitCeilingError,
    CertifiedDecimalInterval,
    Config,
    PrimeChain,
    decimal_length,
)

_LOG2_10 = 3.321928094887362
# _LOG2_10 as the exact ratio num / den: the radicand-bit estimates below
# are floors of x * _LOG2_10 taken in integers, so no order overflows them.
_LOG2_10_NUM, _LOG2_10_DEN = _LOG2_10.as_integer_ratio()
# One-shot radicands below this many bits are cheap enough to root directly.
_COMPOSE_MIN_BITS = 1 << 14
# Extra fixed-point digits carried through composed roots.  Each bound ends
# within about two units of the exact scaled root, so the bounds disagree
# (and the one-shot root decides) only when the root lies within a few
# units of the last guard digit of a digit boundary.
_GUARD_DIGITS = 10
# A d*order of more bits than this is refused before its order is factored
# (a powfact:3 order 3^(9!) would take 362880 trial divisions of a
# 575k-bit number): past the float range, where no such call ever got an
# answer, so no call below it changes.
_SCALED_MAX_BITS = 1024


def _newton_from_above(n: int, r: int, x: int) -> int:
    """Floor of n^(1/r) given an overestimate x; monotone correction at the end."""
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    while x**r > n:
        x -= 1
    while (x + 1) ** r <= n:
        x += 1
    return x


def nth_root_floor(n: int, r: int) -> int:
    """Largest m with m**r <= n, by integer Newton iteration.

    The iteration runs from above, seeded for large radicands by a
    recursively computed half-precision root (floor((n >> r*k)^(1/r)) + 1,
    shifted back up, is a strict overestimate), so only a couple of
    full-precision steps remain; the trailing adjustment loops in the
    worker absorb the off-by-one cases so the result is exactly the floor.

    >>> nth_root_floor(26, 3)
    2
    >>> nth_root_floor(10**18, 6)
    1000
    >>> nth_root_floor(7**100 - 1, 100)
    6
    """
    if r < 1:
        raise ValueError(f"root order must be >= 1, got {r}")
    if n < 0:
        raise ValueError(f"radicand must be >= 0, got {n}")
    if n < 2 or r == 1:
        return n
    if r == 2:
        return math.isqrt(n)
    bits = n.bit_length()
    if r >= bits:
        return 1
    root_bits = bits // r
    if root_bits <= 32:
        return _newton_from_above(n, r, 1 << -(-bits // r))
    k = root_bits // 2
    q = nth_root_floor(n >> (r * k), r)
    return _newton_from_above(n, r, (q + 1) << k)


def _prime_factors(n: int) -> list[int]:
    """Prime factors of n >= 1 by trial division below 2^10, ascending.

    A cofactor with no divisor below 2^10 is kept whole as the last entry.
    """
    factors = []
    q = 2
    while q * q <= n and q < 1 << 10:
        while n % q == 0:
            factors.append(q)
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def scaled_root_floor(value: int, order: int, d: int, config: Config = DEFAULT_CONFIG) -> int:
    """floor(value^(1/order) * 10^d), exactly.

    The result always equals the one-shot root
    ``nth_root_floor(value * 10**(d*order), order)``.  When that radicand
    is large and order is composite, the prime factors q of order are
    applied one after another as q-th roots at fixed point with
    D = d + guard digits: a lower chain floors every step and an upper
    chain adds one after every floor, so the two bracket
    value^(1/order) * 10^D exactly.  Their common floor at d digits is the
    answer; if they straddle a digit boundary the one-shot root decides.

    Raises BitCeilingError before building a radicand above the ceiling:
    composed steps need at most value.bit_length() + D*q*log2(10) + 2 bits
    for the largest factor q; the one-shot root is checked when it runs.
    A d >= 1 whose d*order passes both the ceiling and 2^1024 is refused
    first, in integers: its one-shot radicand has more than d*order bits.

    >>> scaled_root_floor(2, 2, 5)
    141421
    >>> scaled_root_floor(3, 729, 10)  # composed: 3^6, one-shot ~24k bits
    10015081488
    >>> scaled_root_floor(3, 729, 10) == nth_root_floor(3 * 10**7290, 729)
    True
    """
    if value < 0 or order < 1 or d < 0:
        raise ValueError(
            f"need value >= 0, order >= 1 and digits >= 0, got {value}, {order}, {d}"
        )
    scaled = d * order
    if scaled > config.radicand_bit_ceiling and scaled.bit_length() > _SCALED_MAX_BITS:
        # in bits: the order may be too long to print, and log2(10) is
        # rounded up to 3.3219290, so the feasible digits are not overstated
        feasible = (config.radicand_bit_ceiling - value.bit_length() - 2) * 10**7 // (order * 33219290)
        raise BitCeilingError(
            f"radicand for {d} digits at a {order.bit_length()}-bit root order needs "
            f"over 2^{scaled.bit_length() - 1} bits, above the ceiling "
            f"{config.radicand_bit_ceiling}; at most ~{max(feasible, 0)} digits are feasible",
            max_feasible_digits=max(feasible, 0),
        )
    if value.bit_length() + scaled * _LOG2_10_NUM // _LOG2_10_DEN >= _COMPOSE_MIN_BITS:
        factors = _prime_factors(order)
        if len(factors) > 1:
            _radicand_guard(value, d, factors[-1], _GUARD_DIGITS, config)
            scale = 10 ** (d + _GUARD_DIGITS)
            lo = nth_root_floor(value * scale ** factors[0], factors[0])
            hi = lo + 1
            for q in factors[1:]:
                lift = scale ** (q - 1)
                lo = nth_root_floor(lo * lift, q)
                hi = nth_root_floor(hi * lift, q) + 1
            guard = 10**_GUARD_DIGITS
            if lo // guard == (hi - 1) // guard:
                return lo // guard
    _radicand_guard(value, d, order, 0, config)
    return nth_root_floor(value * 10 ** (d * order), order)


def _radicand_guard(value: int, digits: int, order: int, guard: int, config: Config) -> None:
    ceiling = config.radicand_bit_ceiling
    bits_estimate = value.bit_length() + (digits + guard) * order * _LOG2_10_NUM // _LOG2_10_DEN + 2
    if bits_estimate > ceiling:
        feasible = (ceiling - value.bit_length() - 2) * _LOG2_10_DEN // (order * _LOG2_10_NUM) - guard
        raise BitCeilingError(
            f"radicand for {digits} digits at root order {order} needs about "
            f"{bits_estimate} bits, above the ceiling {ceiling}; at most "
            f"~{max(feasible, 0)} digits are feasible",
            max_feasible_digits=max(feasible, 0),
        )


def point_root_enclosure(
    value: int, order: int, digits: int, config: Config = DEFAULT_CONFIG
) -> CertifiedDecimalInterval:
    """One-ulp decimal enclosure of value^(1/order) at the given precision."""
    m = scaled_root_floor(value, order, digits, config)
    return CertifiedDecimalInterval(m, m + 1, digits)


def certified_root_enclosure(
    p: int, order: int, digits: int, config: Config = DEFAULT_CONFIG
) -> CertifiedDecimalInterval:
    """Decimal enclosure provably containing [p^(1/order), (p+1)^(1/order)].

    The low mantissa is the exact floor of the scaled lower root; the high
    mantissa gets +1 after the floor because flooring truncates downward
    and the raw value could undercover the upper endpoint.  p + 1 is rooted
    first, so a refusal reports its (larger) radicand.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    hi = scaled_root_floor(p + 1, order, digits, config) + 1
    lo = scaled_root_floor(p, order, digits, config)
    return CertifiedDecimalInterval(lo, hi, digits)


@dataclass(frozen=True)
class DigitResult:
    """Agreed decimal prefix of every constant inside the chain's bracket.

    ``digits`` is the common prefix of the enclosure endpoints (truncation
    semantics, no rounding of the last place); ``agreed_places`` counts
    digits after the point.  The prefix is correct for every real in
    [p_K^(1/C_K), (p_K+1)^(1/C_K)], in particular for the chain's limit.
    """

    digits: str
    agreed_places: int
    enclosure: CertifiedDecimalInterval
    chain_depth_used: int


def prc_digits(
    chain: PrimeChain, max_digits: int, config: Config = DEFAULT_CONFIG
) -> DigitResult:
    """Certified digits of the constant approached by a chain.

    Precision rises until the agreed prefix stops growing (the bracket
    width, roughly 1/(C_K * p_K), is the ceiling) or max_digits is reached.
    """
    if max_digits < 1:
        raise ValueError("max_digits must be positive")
    p = chain.primes[-1]
    depth = chain.depth
    order = chain.exps.partial_product(depth)
    # the bracket closes near 1/(order * p): the digit count overshoots by a hair
    estimate = decimal_length(p) + decimal_length(order) - 1
    d = min(estimate, max_digits) + 6
    prev_places = -1
    while True:
        enclosure = certified_root_enclosure(p, order, d, config)
        digits, places = enclosure.agreed_digits()
        if places >= max_digits:
            point = digits.index(".")
            return DigitResult(
                digits[: point + 1 + max_digits], max_digits, enclosure, depth
            )
        if places == prev_places:
            return DigitResult(digits, places, enclosure, depth)
        prev_places = places
        d += 8


def verify_floor_recovery(
    enclosure: CertifiedDecimalInterval,
    c_power: int,
    expected: int,
    config: Config = DEFAULT_CONFIG,
) -> bool | None:
    """Does every real x in the enclosure satisfy floor(x^c_power) == expected?

    True requires expected * 10^(d*c) <= lo^c and hi^c < (expected+1) *
    10^(d*c), both exact integer comparisons.  When the padded enclosure
    fails but its one-ulp interior would pass, the failure is attributable
    to outward rounding alone and the verdict is None (indeterminate,
    distinct from False): the enclosure is too wide to decide.
    """
    d = enclosure.digits_after_point
    bits = enclosure.hi_mantissa.bit_length() * c_power
    if bits > config.radicand_bit_ceiling:
        raise BitCeilingError(
            f"powering the enclosure to {c_power} needs about {bits} bits, "
            f"above the ceiling {config.radicand_bit_ceiling}"
        )
    scale = 10 ** (d * c_power)
    lo_ok = expected * scale <= enclosure.lo_mantissa**c_power
    hi_ok = enclosure.hi_mantissa**c_power < (expected + 1) * scale
    if lo_ok and hi_ok:
        return True
    ilo = enclosure.lo_mantissa + 1
    ihi = enclosure.hi_mantissa - 1
    if (
        ilo <= ihi
        and expected * scale <= ilo**c_power
        and ihi**c_power < (expected + 1) * scale
    ):
        return None
    return False


@dataclass(frozen=True)
class ApproxRecord:
    """One row of a rational approximation scan.

    For denominator ``den``, ``num`` is the integer minimizing
    |num/den - midpoint|.  ``inside`` means the fraction lies inside the
    enclosure, so nothing can be certified about it; otherwise
    ``separation`` is an exact rational lower bound on the distance from
    every constant in the enclosure to num/den.
    """

    den: int
    num: int
    inside: bool
    separation: Fraction | None


def rational_approx_scan(
    enclosure: CertifiedDecimalInterval, max_den: int
) -> list[ApproxRecord]:
    """Certified separations from all fractions with denominator <= max_den.

    Never claims irrationality: fractions inside the enclosure are reported
    as undecided, fractions outside get an exact lower bound on their
    distance to anything in the enclosure.
    """
    if max_den < 1:
        raise ValueError("max_den must be positive")
    if enclosure.width >= Fraction(1, 100):
        raise ValueError(
            f"enclosure width {enclosure.width} is too wide for a meaningful "
            "scan (need < 1/100)"
        )
    lo, hi = enclosure.lo, enclosure.hi
    mid = (lo + hi) / 2
    records = []
    for den in range(1, max_den + 1):
        # nearest integer to den*mid, ties resolved upward
        num = (2 * den * mid.numerator + mid.denominator) // (2 * mid.denominator)
        frac = Fraction(num, den)
        if frac < lo:
            records.append(ApproxRecord(den, num, False, lo - frac))
        elif frac > hi:
            records.append(ApproxRecord(den, num, False, frac - hi))
        else:
            records.append(ApproxRecord(den, num, True, None))
    return records
