"""Prime chain construction and verification.

A min-chain picks the least prime of every window [p^c, (p+1)^c - 1) and
converges to a left sub-boundary constant; a max-chain mirrors it on the
right.  Gap policies record which prime-gap theorem (if any) guarantees
each window is nonempty: steps whose exponent clears the policy threshold
carry an a-priori guarantee, steps below it are searched empirically, and
a chain is flagged conditional exactly when a hypothesis-dependent
guarantee was actually invoked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    DEFAULT_CONFIG,
    EMPIRICAL,
    THETA,
    BitCeilingError,
    CompositeSeedError,
    Config,
    ExponentSequence,
    GapPolicy,
    PrimeChain,
    Window,
    WindowSearchExhausted,
    decimal_length,
)
from .primality import find_prime_in_range, is_prime, window_prime
from .radix import scaled_root_floor

# Max bits of p^c while extending a chain, and of any step verified.
CHAIN_BIT_CEILING = 1 << 20
# Max scan positions when re-verifying a step's extremality.
RESCAN_CAP = 10_000_000


def build_chain(
    exps: ExponentSequence,
    seed: int,
    depth: int,
    mode: str = "min",
    policy: GapPolicy = EMPIRICAL,
    config: Config = DEFAULT_CONFIG,
) -> PrimeChain:
    """Extend a seed prime to the requested depth, min or max per window.

    Stops early (returning a truncated chain with the reason recorded)
    when a window power would exceed the chain bit ceiling or a window
    search exhausts its budget.  A composite seed is an error.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"build mode must be min or max, got {mode!r}")
    if depth < 1:
        raise ValueError("depth must be positive")
    if depth > exps.max_depth:
        raise ValueError(f"depth {depth} beyond sequence max depth {exps.max_depth}")
    verdict = is_prime(seed)
    if not verdict.is_prime:
        raise CompositeSeedError(f"seed {seed} is composite")
    primes = [seed]
    certainty = [verdict.certainty]
    invoked = False
    truncated = False
    reason = None
    for k in range(1, depth):
        c = exps.term(k + 1)
        p = primes[-1]
        if _over_ceiling(p, exps, k + 1):
            truncated = True
            reason = (
                f"step {k}: {p.bit_length()}-bit prime to the power {c} exceeds "
                f"the {CHAIN_BIT_CEILING}-bit chain ceiling; reachable "
                f"depth {len(primes)}"
            )
            break
        window = Window.from_parent(p, c)
        if policy.covers(c):
            invoked = True
        try:
            found = window_prime(window, config.window_budget, descending=mode == "max")
        except WindowSearchExhausted as exc:
            truncated = True
            reason = f"step {k}: {exc}; reachable depth {len(primes)}"
            break
        primes.append(found.value)
        certainty.append(found.certainty)
    return PrimeChain(
        exps=exps,
        primes=tuple(primes),
        mode=mode,
        certainty=tuple(certainty),
        policy=policy,
        conditional=policy.conditional and invoked,
        truncated=truncated,
        truncation_reason=reason,
        requested_depth=depth,
    )


def _over_ceiling(p: int, exps: ExponentSequence, k: int) -> bool:
    """The chain bit-ceiling test: whether p^c_k has more than
    CHAIN_BIT_CEILING bits.

    With n = p.bit_length(), p^c has more than (n - 1) * c bits and at most
    n * c, so these bounds decide unless (n - 1) * c < CHAIN_BIT_CEILING <
    n * c; there the power is built, of fewer than twice the ceiling's bits.
    A powfact term b^(k! - (k-1)!) is never built when its exponent alone
    decides the test: for p >= 2 and b >= 2, (n - 1) * c is then at least
    2^(bits of the ceiling).
    """
    if exps.kind == "powfact" and k > 1 and p >= 2:
        exponent = math.factorial(k) - math.factorial(k - 1)
        if exponent * (exps.base.bit_length() - 1) >= CHAIN_BIT_CEILING.bit_length():
            return True
    c, n = exps.term(k), p.bit_length()
    if (n - 1) * c < CHAIN_BIT_CEILING < n * c:
        return (p**c).bit_length() > CHAIN_BIT_CEILING
    return (n - 1) * c >= CHAIN_BIT_CEILING


@dataclass(frozen=True)
class StepCheck:
    """Verification record for one chain step k -> k+1.

    ``certainty`` is the tier recomputed for p_{k+1}; ``prime_ok`` holds
    only when p_{k+1} is prime at exactly the tier the chain recorded.
    """

    k: int
    window_ok: bool
    prime_ok: bool
    certainty: str
    extremality: str  # "verified" | "failed" | "budget" | "not-applicable"

    @property
    def passed(self) -> bool:
        return self.window_ok and self.prime_ok and self.extremality != "failed"


@dataclass(frozen=True)
class ChainReport:
    """Verification report; ``seed_ok`` holds when the seed is prime at
    exactly its recorded tier, and ``seed_certainty`` is the recomputed one."""

    seed_ok: bool
    seed_certainty: str
    conditional_ok: bool
    steps: tuple[StepCheck, ...]

    @property
    def passed(self) -> bool:
        return self.seed_ok and self.conditional_ok and all(s.passed for s in self.steps)


def verify_chain(chain: PrimeChain) -> ChainReport:
    """Re-check every chain invariant; failures are report entries, not errors.

    Window membership, primality and the certainty tier are re-tested for
    every prime; a recorded tier that differs from the recomputed one fails
    that prime's check.  For min and max chains, extremality is re-verified
    by scanning the window from its edge towards the claimed prime: a
    prime met before it fails the step, and a scan that reaches it is
    "verified".  A scan whose ``RESCAN_CAP`` scan positions run out first
    is reported as "budget" (unverified), which is not a failure; as the
    scan stops at the first prime, a far-claimed prime fails as soon as a
    prime lies within the cap of the edge.

    Before any window is built, every step must pass the chain bit-ceiling
    test that ``build_chain`` applies; a step that fails it raises
    BitCeilingError, so a hostile exponent cannot start an unbounded power.
    """
    exponents = _step_exponents(chain)
    seed_verdict = is_prime(chain.primes[0])
    invoked = any(chain.policy.covers(c) for c in exponents)
    conditional_ok = chain.conditional == (chain.policy.conditional and invoked)
    steps = []
    for k, c in enumerate(exponents, start=1):
        p, q = chain.primes[k - 1], chain.primes[k]
        window = Window.from_parent(p, c)
        window_ok = q in window
        verdict = is_prime(q)
        if chain.mode == "explicit" or not window_ok:
            extremality = "not-applicable"
        elif chain.mode == "min":
            extremality = _rescan(window.lo, q, descending=False)
        else:
            extremality = _rescan(q + 1, window.hi_exclusive, descending=True)
        steps.append(
            StepCheck(
                k=k,
                window_ok=window_ok,
                prime_ok=verdict.is_prime and verdict.certainty == chain.certainty[k],
                certainty=verdict.certainty,
                extremality=extremality,
            )
        )
    return ChainReport(
        seed_ok=seed_verdict.is_prime and seed_verdict.certainty == chain.certainty[0],
        seed_certainty=seed_verdict.certainty,
        conditional_ok=conditional_ok,
        steps=tuple(steps),
    )


def _step_exponents(chain: PrimeChain) -> list[int]:
    """c_2, ..., c_K of the chain's steps, or BitCeilingError as soon as a
    step fails the chain bit-ceiling test that ``build_chain`` applies."""
    exponents = []
    for k in range(1, chain.depth):
        p = chain.primes[k - 1]
        if _over_ceiling(p, chain.exps, k + 1):
            raise BitCeilingError(
                f"step {k}: {p.bit_length()}-bit prime to the power c_{k + 1} "
                f"exceeds the {CHAIN_BIT_CEILING}-bit chain ceiling"
            )
        exponents.append(chain.exps.term(k + 1))
    return exponents


def _rescan(lo: int, hi: int, descending: bool) -> str:
    try:
        found = find_prime_in_range(lo, hi, budget=RESCAN_CAP, descending=descending)
    except WindowSearchExhausted:
        return "budget"
    return "verified" if found is None else "failed"


@dataclass(frozen=True)
class ThetaRecord:
    """Exact-integer witness for one theta-window membership test.

    For the left side the test is p_{k+1} <= p_k^c + p_k^(theta*c), decided
    exactly as offset^40 <= p_k^(21*c) where offset = p_{k+1} - p_k^c (and
    trivially satisfied when the offset is not positive).  The right side
    mirrors it at (p_k+1)^c.  lhs/rhs are the integers actually compared.
    """

    k: int
    side: str  # "left" | "right"
    satisfied: bool
    offset: int
    lhs: int | None
    rhs: int | None


@dataclass(frozen=True)
class ThetaReport:
    """Per-step theta-window flags for the steps with exponent >= 3.

    Purely descriptive: the theta window is an asymptotic statement that
    holds from some uncomputable index on, so early unsatisfied steps are
    expected and never treated as errors.
    """

    records: tuple[ThetaRecord, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(r.satisfied for r in self.records)


def theta_window_report(chain: PrimeChain, config: Config = DEFAULT_CONFIG) -> ThetaReport:
    """Exact theta-window membership per step (only steps with c_{k+1} >= 3).

    Like ``verify_chain``, raises BitCeilingError before any window power
    is built when a step fails the chain bit-ceiling test.
    """
    side = "right" if chain.mode == "max" else "left"
    records = []
    for k, c in enumerate(_step_exponents(chain), start=1):
        if c < 3:
            continue
        p, q = chain.primes[k - 1], chain.primes[k]
        if side == "left":
            base = p
            offset = q - p**c
        else:
            base = p + 1
            offset = base**c - q
        if offset <= 0:
            records.append(ThetaRecord(k, side, True, offset, None, None))
            continue
        if offset.bit_length() * THETA.denominator > config.radicand_bit_ceiling:
            raise BitCeilingError(
                f"theta witness at step {k} needs about "
                f"{offset.bit_length() * THETA.denominator} bits"
            )
        lhs = offset**THETA.denominator
        rhs = base ** (THETA.numerator * c)
        records.append(ThetaRecord(k, side, lhs <= rhs, offset, lhs, rhs))
    return ThetaReport(tuple(records))


@dataclass(frozen=True)
class ConvergenceCheck:
    """Outcome of one convergence-speed comparison.

    ``holds`` is True when the step-k approximant gap is certified below
    the geometric bound, False when certified above, None when the
    comparison could not be decided under the bit ceiling.  Bit lengths of
    the two integer sides at the deciding precision are reported.
    """

    k: int
    holds: bool | None
    precision: int
    lhs_bits: int
    rhs_bits: int


def convergence_bound_check(
    chain: PrimeChain, k: int, config: Config = DEFAULT_CONFIG
) -> ConvergenceCheck:
    """Certify p_{k+1}^(1/C_{k+1}) - p_k^(1/C_k) <= (p_k+1)^(1/C_k) * g,
    where g = p_1^((theta-1) * C_{k+1} / c_1).

    The limit constant itself is not finitely representable, so the check
    uses the bracketing approximants on both sides, which is sound: the
    true gap to the limit is at most the approximant gap, and the bound's
    leading factor is at most (p_k+1)^(1/C_k).  Both sides are enclosed by
    integer-mantissa intervals and compared exactly, refining precision
    until one side certifiably clears the other.
    """
    if chain.mode != "min":
        raise ValueError("convergence bound check applies to min chains")
    if not 1 <= k < chain.depth:
        raise ValueError(f"need 1 <= k < depth, got k={k} depth={chain.depth}")
    p1 = chain.primes[0]
    c1 = chain.exps.term(1)
    pk, pk1 = chain.primes[k - 1], chain.primes[k]
    ck = chain.exps.partial_product(k)
    ck1 = chain.exps.partial_product(k + 1)
    # g = p1^(-a/b) with a/b = (1-theta) * C_{k+1} / c_1, reduced
    a = (1 - THETA).numerator * ck1
    b = (1 - THETA).denominator * c1
    g = math.gcd(a, b)
    a //= g
    b //= g
    if a * p1.bit_length() > config.radicand_bit_ceiling:
        return ConvergenceCheck(k, None, 0, 0, 0)
    p1a = p1**a
    # precision must at least resolve g's magnitude ~ 10^(-a/b * log10 p1)
    d = (a * decimal_length(p1)) // b + 16
    while True:
        pow10 = 10 ** d
        try:
            # [s, s+1] encloses pk1^(1/Ck1), [m, m+1] encloses p1^(a/b)
            s = scaled_root_floor(pk1, ck1, d, config)
            t = scaled_root_floor(pk, ck, d, config)
            u = scaled_root_floor(pk + 1, ck, d, config)
            m = scaled_root_floor(p1a, b, d, config)
        except BitCeilingError:
            return ConvergenceCheck(k, None, d, 0, 0)
        # LHS <= (s + 1 - t)/10^d; RHS >= u / (m + 1), both scale-free here
        lhs_hi = (s + 1 - t) * (m + 1)
        rhs_lo = u * pow10
        if lhs_hi <= rhs_lo:
            return ConvergenceCheck(k, True, d, lhs_hi.bit_length(), rhs_lo.bit_length())
        lhs_lo = (s - t - 1) * m
        rhs_hi = (u + 1) * pow10
        if lhs_lo > rhs_hi:
            return ConvergenceCheck(k, False, d, lhs_lo.bit_length(), rhs_hi.bit_length())
        d *= 2


def approximants_monotone(chain: PrimeChain) -> bool:
    """Exact cross-powered check that the bracketing approximants nest.

    Consecutive steps must satisfy p_k^(c_{k+1}) <= p_{k+1} and
    p_{k+1} + 1 <= (p_k + 1)^(c_{k+1}), which is the integer form of
    p_k^(1/C_k) <= p_{k+1}^(1/C_{k+1}) < (p_{k+1}+1)^(1/C_{k+1}) <=
    (p_k+1)^(1/C_k).

    Like ``verify_chain``, raises BitCeilingError before any power is built
    when a step fails the chain bit-ceiling test.
    """
    for k, c in enumerate(_step_exponents(chain), start=1):
        p, q = chain.primes[k - 1], chain.primes[k]
        if not (p**c <= q and q + 1 <= (p + 1) ** c):
            return False
    return True
