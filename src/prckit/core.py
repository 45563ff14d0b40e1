"""Domain types for Mills-type prime-representing constants.

A prime-representing constant (PRC) for an integer exponent sequence
(c_1, c_2, ...) is a real A > 1 such that floor(A^(c_1*...*c_k)) is prime
for every k.  Everything here is exact: sequences produce exact terms and
partial products, windows are exact integer intervals, and decimal
enclosures carry integer mantissas so that later comparisons never touch
floating point.  ``Config`` holds only what a caller may choose: the
window search budget and the radicand bit ceiling.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction


class PrcError(Exception):
    """Base class for errors raised by this package."""


class ExponentSpecError(PrcError, ValueError):
    """Malformed exponent spec, or a term violating the sequence conditions."""


class CompositeSeedError(PrcError, ValueError):
    """A chain seed failed its primality check."""


class BitCeilingError(PrcError, RuntimeError):
    """An exact computation would exceed the configured bit ceiling, or an
    integer to be written in decimal exceeds the interpreter's int-string
    limit."""

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
    """The two settings a caller chooses.

    window_budget        max candidates tested per window search
    radicand_bit_ceiling max bits of any radicand an exact root builds

    Fixed limits live as constants in the module that reads them:
    ``primality`` (Miller-Rabin rounds), ``sieve`` (enumeration cap, sieve
    base bound) and ``chain`` (rescan cap, chain bit ceiling).  Artifacts
    record both fields and those limits in their manifest.
    """

    window_budget: int = 1_000_000
    radicand_bit_ceiling: int = 1 << 24


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
    term < 2, naming the offending term, and terms too long for ``int``.

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
        if kind == "factorial":
            return ExponentSequence("factorial", max_depth=max_depth)
        terms = m.group(1).split(",")
        values = tuple(_digits(v, "exponent term", ExponentSpecError) for v in terms)
        if kind == "list":
            return ExponentSequence("list", values=values)
        return ExponentSequence(kind, base=values[0], max_depth=max_depth)
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


_INTERVAL_KEYS = ("lo_mantissa", "hi_mantissa", "digits_after_point")


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
        disagree the result is ("", 0).  A mantissa past the interpreter's
        int-string limit is a BitCeilingError.
        """
        d = self.digits_after_point
        lo = _decimal_str(self.lo_mantissa)
        hi = _decimal_str(self.hi_mantissa)
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

    @classmethod
    def from_json(cls, obj: dict) -> "CertifiedDecimalInterval":
        """Inverse of ``to_json`` on an interval."""
        try:
            return cls(*(_parse_decimal(obj[key], key) for key in _INTERVAL_KEYS))
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
    policy: GapPolicy
    conditional: bool
    certainty: tuple[str, ...]
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
        # the artifact names the policy field "gap_policy"
        return {
            "gap_policy" if key == "policy" else key: value
            for key, value in to_json(self).items()
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PrimeChain":
        """Strict inverse of ``to_json_dict`` for untrusted documents.

        Primes and ``requested_depth`` must be decimal strings, every prime
        at least 2; each tier must be ``deterministic`` or ``probable:<k>``
        with k a positive decimal without leading zeros,
        ``truncation_reason`` a string or null and the two flags JSON
        booleans.  The metadata must agree with itself: the depth is at
        most ``requested_depth``, which is at most the sequence's
        ``max_depth``; ``truncated`` holds exactly when fewer primes than
        requested are given; and a truncation reason is given exactly
        when the chain is truncated.  Anything else raises SchemaError.
        """
        if not isinstance(obj, dict):
            raise SchemaError("chain document must be a JSON object")
        try:
            spec, primes, certainty = obj["exps"], obj["primes"], obj["certainty"]
            mode, conditional = obj["mode"], obj["conditional"]
            policy = GAP_POLICIES[obj["gap_policy"]]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"chain document missing or malformed field: {exc}") from exc
        if not isinstance(spec, str):
            raise SchemaError("exps must be a string")
        try:
            exps = parse_exponent_spec(spec)
        except ExponentSpecError as exc:
            raise SchemaError(f"exps: {exc}") from exc
        if not isinstance(primes, list) or not isinstance(certainty, list):
            raise SchemaError("primes and certainty must be JSON arrays")
        primes = tuple(_parse_decimal(p, "prime") for p in primes)
        if any(p < 2 for p in primes):
            raise SchemaError("every prime must be at least 2")
        if len(primes) > exps.max_depth:
            raise SchemaError(f"{len(primes)} primes exceed the depth of {spec}")
        if not all(isinstance(c, str) and _TIER.fullmatch(c) for c in certainty):
            raise SchemaError('certainty entries must be "deterministic" or "probable:<k>"')
        truncated = obj.get("truncated", False)
        if not isinstance(conditional, bool) or not isinstance(truncated, bool):
            raise SchemaError("conditional and truncated must be JSON booleans")
        reason = obj.get("truncation_reason")
        if reason is not None and not isinstance(reason, str):
            raise SchemaError("truncation_reason must be a string or null")
        requested = obj.get("requested_depth")
        if requested is not None:
            requested = _parse_decimal(requested, "requested_depth")
            if not len(primes) <= requested <= exps.max_depth:
                raise SchemaError(
                    f"requested_depth {requested} outside [{len(primes)}, {exps.max_depth}]"
                )
        if truncated != (requested is not None and len(primes) < requested):
            raise SchemaError("truncated must say whether fewer primes than requested are given")
        if (reason is None) == truncated:
            raise SchemaError("truncation_reason must be given exactly when truncated")
        try:
            return cls(
                exps=exps,
                primes=primes,
                mode=mode,
                certainty=tuple(certainty),
                policy=policy,
                conditional=conditional,
                truncated=truncated,
                truncation_reason=reason,
                requested_depth=requested,
            )
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# JSON codec: the one place the artifact format is decided


def to_json(value):
    """Encode a value for a JSON artifact.

    Integers become decimal strings (84-digit primes do not survive
    float-parsing consumers), bools stay JSON booleans, Fractions use
    ``str`` ("7" when integral, else "a/b"), exponent sequences their spec
    and gap policies their name.  A dataclass becomes a dict of its fields
    in declaration order (properties are not fields and are skipped);
    tuples and lists become lists, dicts keep their keys, and None and
    strings pass through.  Encoding an encoded value changes nothing.  An
    integer past the interpreter's int-string limit is a BitCeilingError.

    >>> to_json({"n": 10**20, "ok": True, "f": Fraction(14, 2), "c": None})
    {'n': '100000000000000000000', 'ok': True, 'f': '7', 'c': None}
    >>> to_json(CertifiedDecimalInterval(13052, 13054, 4))
    {'lo_mantissa': '13052', 'hi_mantissa': '13054', 'digits_after_point': '4'}
    """
    kind = type(value)  # exact types, so a bool is never taken for an int
    if kind is int or kind is Fraction:
        return _decimal_str(value)
    if value is None or kind is bool or kind is str:
        return value
    if kind is tuple or kind is list:
        return [to_json(v) for v in value]
    if kind is dict:
        return {key: to_json(v) for key, v in value.items()}
    if kind is ExponentSequence:
        return value.render()
    if kind is GapPolicy:
        return value.name
    names = getattr(kind, "__dataclass_fields__", None)  # in declaration order
    if names is not None:
        return {name: to_json(getattr(value, name)) for name in names}
    raise TypeError(f"no JSON encoding for {kind.__name__}")


def _decimal_str(value: int | Fraction) -> str:
    """str(value), or BitCeilingError, giving the digit count and the limit,
    when the interpreter's int-string limit refuses it."""
    try:
        return str(value)
    except ValueError:
        # only interpreters with the limit raise here
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        digits = decimal_length(max(abs(value.numerator), value.denominator))
        raise BitCeilingError(
            f"a {digits}-digit integer exceeds the interpreter's int-string "
            f"limit of {limit} digits"
        ) from None


_DECIMAL = re.compile(r"[0-9]+")
_TIER = re.compile(r"deterministic|probable:[1-9][0-9]*")  # what probable(k) writes


def _parse_decimal(text, what: str) -> int:
    """Inverse of ``to_json`` on a non-negative int: a string of ASCII digits.

    JSON numbers, signs, spaces and underscores are refused with a
    SchemaError, as are strings too long for ``int`` to convert, with a
    message that gives the interpreter's digit limit.
    """
    if isinstance(text, str) and _DECIMAL.fullmatch(text):
        return _digits(text, what, SchemaError)
    raise SchemaError(f"{what} must be a decimal string, got {text!r:.40}")


def _digits(text: str, what: str, error: type) -> int:
    """int(text) of a digit string, or ``error`` past the int-string limit."""
    try:
        return int(text)
    except ValueError:
        # only interpreters with the limit raise here; none need str(int)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        raise error(
            f"{what} has {len(text)} digits, more than the interpreter's "
            f"int-string limit of {limit}"
        ) from None


# ceil(log10(2) * 2^64): (bits * _LOG10_2_UP) >> 64 overshoots floor(bits *
# log10(2)) by at most one for any bit length below 2^63.
_LOG10_2_UP = 0x4D104D427DE7FBCD


def decimal_length(n: int) -> int:
    """len(str(n)) for n >= 0, from n.bit_length() and one comparison with a
    power of 10, so it holds past the interpreter's int-to-str limit.

    With b bits, log10(n) lies in [(b - 1) log10(2), b log10(2)), so n has
    k or k + 1 digits for k = floor(b log10(2)), k + 1 exactly when
    n >= 10^k.  When the estimate overshoots k, b log10(2) sits just below
    k + 1 and (b - 1) log10(2) above k: n has k + 1 digits and is below
    10^(k + 1), so the same comparison still answers.

    >>> decimal_length(0), decimal_length(9), decimal_length(10), decimal_length(10**4400 + 1)
    (1, 1, 2, 4401)
    """
    if n == 0:
        return 1
    k = n.bit_length() * _LOG10_2_UP >> 64
    return k + 1 if n >= 10**k else k
