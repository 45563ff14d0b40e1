"""Domain types for Mills-type prime-representing constants.

A prime-representing constant (PRC) for an integer exponent sequence
(c_1, c_2, ...) is a real A > 1 such that floor(A^(c_1*...*c_k)) is prime
for every k.  Everything here is exact: sequences produce exact terms and
partial products, windows are exact integer intervals, and decimal
enclosures carry integer mantissas so that later comparisons never touch
floating point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction


class PrcError(Exception):
    """Base class for errors raised by this package."""


class ExponentSpecError(PrcError, ValueError):
    """Malformed exponent spec, or a term violating the sequence conditions."""


class CompositeSeedError(PrcError, ValueError):
    """A chain seed failed its primality check."""


class BitCeilingError(PrcError, RuntimeError):
    """An exact computation would exceed the configured bit ceiling."""

    def __init__(self, message: str, max_feasible_digits: int | None = None):
        super().__init__(message)
        self.max_feasible_digits = max_feasible_digits


class WindowSearchExhausted(PrcError, RuntimeError):
    """No prime found within the candidate budget.

    ``scanned_all`` is True when every candidate in the window was tested,
    i.e. the window is prime-free at the recorded certainty; False means the
    budget ran out mid-scan.
    """

    def __init__(self, message: str, scanned_all: bool = False, tested: int = 0):
        super().__init__(message)
        self.scanned_all = scanned_all
        self.tested = tested


class EnumerationCapError(PrcError, RuntimeError):
    """A window was too large to enumerate exhaustively."""

    def __init__(self, message: str, cap: int | None = None):
        super().__init__(message)
        self.cap = cap


class SchemaError(PrcError, ValueError):
    """A chain JSON document did not match the documented schema."""


# Exponent of the short-interval prime count bound used by the theta-window
# reports: [x, x + x^theta] contains primes for all sufficiently large x
# (Baker-Harman-Pintz).  Kept as an exact fraction; every test involving it
# clears denominators and compares integers.
THETA = Fraction(21, 40)


@dataclass(frozen=True)
class Config:
    """Budgets and ceilings shared across modules.

    mr_rounds            extra Miller-Rabin rounds on top of the BPSW test
                         for values at or above 2^64
    window_budget        max candidates tested per window search
    enumeration_cap      max window width for exhaustive enumeration
    rescan_cap           max candidates when re-verifying extremality
    chain_bit_ceiling    max bits of p^c while extending a chain
    radicand_bit_ceiling max bits of the one-shot radicand p * 10^(d*C) when
                         extracting roots; digits come from composed
                         prime-order roots with far smaller radicands (the
                         one-shot root is only their fallback), but the
                         ceiling still bounds the equivalent one-shot size,
                         so refusals do not depend on the path
    max_sieve_base       largest base-prime bound the segmented sieve will build
    wheel                inert: window scans sieve every segment by the odd
                         primes up to 2^17 whatever its value.  Kept only
                         because every manifest serializes "wheel": false and
                         removing it would change artifact bytes; it goes
                         with the golden-stdout codec work (ROADMAP item 5)
    """

    mr_rounds: int = 32
    window_budget: int = 1_000_000
    enumeration_cap: int = 10_000_000
    rescan_cap: int = 10_000_000
    chain_bit_ceiling: int = 1 << 20
    radicand_bit_ceiling: int = 1 << 24
    max_sieve_base: int = 100_000_000
    wheel: bool = False


DEFAULT_CONFIG = Config()

_KINDS = ("const", "factorial", "powfact", "list")


@dataclass(frozen=True)
class ExponentSequence:
    """Integer exponent sequence (c_k) with exact terms and partial products.

    Kinds:
      const(c)     c_k = c for all k
      factorial    c_k = k, so the partial product is k!
      powfact(b)   c_1 = b and c_k = b^(k! - (k-1)!), telescoping the
                   partial product to exactly b^(k!)
      list         explicit finite list of terms

    The first term must be >= 1 and every later term >= 2.  Terms of the
    powfact kind grow so violently that depth beyond a handful of steps is
    unreachable anyway; ``max_depth`` (default 64) is the hard cutoff.
    """

    kind: str
    base: int | None = None
    values: tuple[int, ...] = ()
    max_depth: int = 64

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ExponentSpecError(f"unknown exponent kind {self.kind!r}")
        if self.max_depth < 1:
            raise ExponentSpecError("max_depth must be positive")
        if self.kind in ("const", "powfact"):
            if self.base is None or self.base < 1:
                raise ExponentSpecError(f"{self.kind} needs a base >= 1")
            if self.base < 2 and self.max_depth >= 2:
                # term 2 would be 1 (const) resp. b^(2!-1!) = 1 (powfact)
                raise ExponentSpecError(
                    f"term 2 of {self.render()} is {self.base}, must be >= 2"
                )
        elif self.kind == "list":
            if not self.values:
                raise ExponentSpecError("explicit list needs at least one term")
            if self.values[0] < 1:
                raise ExponentSpecError(f"term 1 must be >= 1, got {self.values[0]}")
            for i, v in enumerate(self.values[1:], start=2):
                if v < 2:
                    raise ExponentSpecError(f"term {i} must be >= 2, got {v}")
            object.__setattr__(self, "max_depth", len(self.values))

    def term(self, k: int) -> int:
        """c_k (1-based).  Beware: powfact terms get astronomically large."""
        self._check_depth(k)
        if self.kind == "const":
            return self.base
        if self.kind == "factorial":
            return k
        if self.kind == "powfact":
            if k == 1:
                return self.base
            return self.base ** (math.factorial(k) - math.factorial(k - 1))
        return self.values[k - 1]

    def partial_product(self, k: int) -> int:
        """C_k = c_1 * ... * c_k, exactly."""
        self._check_depth(k)
        out = 1
        for j in range(1, k + 1):
            out *= self.term(j)
        return out

    def _check_depth(self, k: int) -> None:
        if k < 1:
            raise ExponentSpecError(f"term index must be positive, got {k}")
        if k > self.max_depth:
            raise ExponentSpecError(
                f"term index {k} beyond max depth {self.max_depth}"
            )

    def render(self) -> str:
        """Canonical spec string; parse_exponent_spec inverts this."""
        if self.kind == "const":
            return f"const:{self.base}"
        if self.kind == "factorial":
            return "factorial"
        if self.kind == "powfact":
            return f"powfact:{self.base}"
        return "list:" + ",".join(str(v) for v in self.values)


_SPEC_PATTERNS = (
    ("const", re.compile(r"const:(\d+)\Z")),
    ("factorial", re.compile(r"factorial\Z")),
    ("powfact", re.compile(r"powfact:(\d+)\Z")),
    ("list", re.compile(r"list:(\d+(?:,\d+)*)\Z")),
)


def parse_exponent_spec(spec: str, max_depth: int = 64) -> ExponentSequence:
    """Parse the exponent mini-language.

    Accepted forms: ``const:<c>`` | ``factorial`` | ``powfact:<b>`` |
    ``list:<v1>,<v2>,...``.  Rejects sequences with c_1 < 1 or any later
    term < 2, naming the offending term.

    >>> [parse_exponent_spec("powfact:3").term(k) for k in (1, 2, 3)]
    [3, 3, 81]
    >>> parse_exponent_spec("powfact:3").partial_product(3)
    729
    >>> parse_exponent_spec("factorial").partial_product(6)
    720
    """
    spec = spec.strip()
    for kind, pat in _SPEC_PATTERNS:
        m = pat.match(spec)
        if m is None:
            continue
        if kind == "const":
            return ExponentSequence("const", base=int(m.group(1)), max_depth=max_depth)
        if kind == "factorial":
            return ExponentSequence("factorial", max_depth=max_depth)
        if kind == "powfact":
            return ExponentSequence("powfact", base=int(m.group(1)), max_depth=max_depth)
        values = tuple(int(v) for v in m.group(1).split(","))
        return ExponentSequence("list", values=values)
    raise ExponentSpecError(
        f"cannot parse exponent spec {spec!r}; expected const:<c>, factorial, "
        "powfact:<b>, or list:<v1>,<v2>,..."
    )


@dataclass(frozen=True)
class Window:
    """Integer search window [p^c, (p+1)^c - 1) for the next chain prime.

    The top value (p+1)^c - 1 factors as p * (1 + (p+1) + ... + (p+1)^(c-1))
    and is therefore composite, so excluding it loses nothing; admissible
    primes satisfy q <= (p+1)^c - 2.
    """

    parent_prime: int
    exponent: int
    lo: int
    hi_exclusive: int

    @classmethod
    def from_parent(cls, p: int, c: int) -> "Window":
        if p < 2:
            raise ValueError(f"window parent must be >= 2, got {p}")
        if c < 2:
            raise ValueError(f"window exponent must be >= 2, got {c}")
        return cls(p, c, p**c, (p + 1) ** c - 1)

    @property
    def width(self) -> int:
        return self.hi_exclusive - self.lo

    def __contains__(self, n: int) -> bool:
        return self.lo <= n < self.hi_exclusive


@dataclass(frozen=True)
class GapPolicy:
    """Which prime-gap theorem licenses window nonemptiness.

    ``threshold`` is the least exponent m for which the policy guarantees a
    prime in (n^m, (n+1)^m).  The empirical policy guarantees nothing a
    priori; searches under it may report emptiness-within-budget.
    """

    name: str
    threshold: int
    conditional: bool

    def covers(self, exponent: int) -> bool:
        """True when this step's window is guaranteed nonempty a priori."""
        return self.name != "empirical" and exponent >= self.threshold


MATTNER = GapPolicy("mattner", 1438989, False)
CULLY_HUGILL = GapPolicy("cully-hugill", 180, False)
RH_CMS = GapPolicy("rh-cms", 3, True)
EMPIRICAL = GapPolicy("empirical", 2, False)

GAP_POLICIES = {p.name: p for p in (MATTNER, CULLY_HUGILL, RH_CMS, EMPIRICAL)}


@dataclass(frozen=True)
class CertifiedDecimalInterval:
    """Closed interval [lo, hi] with endpoints lo_mantissa * 10^-d etc.

    Mantissas are exact integers; d = digits_after_point.  All containment
    and comparison questions reduce to integer arithmetic on mantissas.
    """

    lo_mantissa: int
    hi_mantissa: int
    digits_after_point: int

    def __post_init__(self):
        if self.digits_after_point < 0:
            raise ValueError("digits_after_point must be >= 0")
        if self.lo_mantissa > self.hi_mantissa:
            raise ValueError("interval endpoints out of order")

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_mantissa, 10**self.digits_after_point)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_mantissa, 10**self.digits_after_point)

    @property
    def width(self) -> Fraction:
        return Fraction(
            self.hi_mantissa - self.lo_mantissa, 10**self.digits_after_point
        )

    def agreed_digits(self) -> tuple[str, int]:
        """Common decimal prefix of the two endpoints, truncation semantics.

        Returns (digits, places) where ``digits`` looks like "1.3052" and
        ``places`` counts agreed digits after the point.  Every real in the
        interval starts with the returned prefix.  If even the integer parts
        disagree the result is ("", 0).
        """
        d = self.digits_after_point
        lo = str(self.lo_mantissa)
        hi = str(self.hi_mantissa)
        width = max(len(lo), len(hi), d + 1)
        lo = lo.zfill(width)
        hi = hi.zfill(width)
        common = 0
        while common < width and lo[common] == hi[common]:
            common += 1
        int_len = width - d
        if common < int_len:
            return "", 0
        places = common - int_len
        if places == 0:
            return lo[:int_len], 0
        return lo[:int_len] + "." + lo[int_len : int_len + places], places

    def contains(self, value: Fraction) -> bool:
        return self.lo <= value <= self.hi

    def as_json(self) -> dict:
        return {
            "lo_mantissa": str(self.lo_mantissa),
            "hi_mantissa": str(self.hi_mantissa),
            "digits_after_point": str(self.digits_after_point),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CertifiedDecimalInterval":
        try:
            return cls(
                int(obj["lo_mantissa"]),
                int(obj["hi_mantissa"]),
                int(obj["digits_after_point"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad interval object: {exc}") from exc


DETERMINISTIC = "deterministic"


def probable(rounds: int) -> str:
    return f"probable:{rounds}"


@dataclass(frozen=True)
class PrimalityVerdict:
    value: int
    is_prime: bool
    certainty: str  # "deterministic" | "probable:<rounds>"


@dataclass(frozen=True)
class PrimeChain:
    """A finite prime chain p_1, ..., p_K for an exponent sequence.

    Each consecutive pair is meant to satisfy the window inequality
    p_k^(c_{k+1}) <= p_{k+1} <= (p_k+1)^(c_{k+1}) - 2; construction
    guarantees it, but instances are plain data and deserialized chains may
    violate it.  verify_chain() is the checker.

    ``conditional`` is True iff the gap policy is hypothesis-dependent and
    at least one step actually invoked its guarantee.  ``truncated`` marks
    chains cut short by a budget or bit ceiling; ``requested_depth`` always
    records what was asked for.
    """

    exps: ExponentSequence
    primes: tuple[int, ...]
    mode: str  # "min" | "max" | "explicit"
    certainty: tuple[str, ...]
    policy: GapPolicy
    conditional: bool
    truncated: bool = False
    truncation_reason: str | None = None
    requested_depth: int | None = None

    def __post_init__(self):
        if self.mode not in ("min", "max", "explicit"):
            raise ValueError(f"unknown chain mode {self.mode!r}")
        if len(self.primes) != len(self.certainty):
            raise ValueError("one certainty tag per prime required")
        if not self.primes:
            raise ValueError("chain must contain at least the seed")

    @property
    def depth(self) -> int:
        return len(self.primes)

    def window(self, k: int) -> Window:
        """Search window for step k -> k+1 (1-based, k < depth is typical)."""
        return Window.from_parent(self.primes[k - 1], self.exps.term(k + 1))

    def to_json_dict(self) -> dict:
        return {
            "exps": self.exps.render(),
            "primes": [str(p) for p in self.primes],
            "mode": self.mode,
            "gap_policy": self.policy.name,
            "conditional": self.conditional,
            "certainty": list(self.certainty),
            "truncated": self.truncated,
            "truncation_reason": self.truncation_reason,
            "requested_depth": None
            if self.requested_depth is None
            else str(self.requested_depth),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PrimeChain":
        if not isinstance(obj, dict):
            raise SchemaError("chain document must be a JSON object")
        try:
            exps = parse_exponent_spec(obj["exps"])
            primes = tuple(int(p) for p in obj["primes"])
            mode = obj["mode"]
            policy = GAP_POLICIES[obj["gap_policy"]]
            conditional = obj["conditional"]
            truncated = obj.get("truncated", False)
            certainty = tuple(str(c) for c in obj["certainty"])
        except ExponentSpecError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"chain document missing or malformed field: {exc}") from exc
        if not isinstance(conditional, bool) or not isinstance(truncated, bool):
            raise SchemaError("conditional and truncated must be JSON booleans")
        requested = obj.get("requested_depth")
        try:
            return cls(
                exps=exps,
                primes=primes,
                mode=mode,
                certainty=certainty,
                policy=policy,
                conditional=conditional,
                truncated=truncated,
                truncation_reason=obj.get("truncation_reason"),
                requested_depth=None if requested is None else int(requested),
            )
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
