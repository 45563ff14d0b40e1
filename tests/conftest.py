"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own machinery: trial
division and a plain bytearray sieve are slow but unarguable, and give the
tests something to disagree with.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prckit as pk


def run_probe(probe: str, timeout: float | None = None) -> list[str]:
    """Stdout lines of ``probe`` run in a fresh interpreter on this prckit,
    killed (``subprocess.TimeoutExpired``) after ``timeout`` seconds."""
    src = str(Path(pk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, check=True, timeout=timeout,
    ).stdout.split("\n")


def trial_is_prime(n: int) -> bool:
    """Complete trial division up to the square root."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def sieve_list(limit: int) -> list[int]:
    """Primes <= limit by a plain bytearray sieve."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi) by trial division (fine for narrow test ranges)."""
    return [n for n in range(lo, hi) if trial_is_prime(n)]


@pytest.fixture(scope="session")
def powfact3_chain():
    return pk.build_chain(pk.parse_exponent_spec("powfact:3"), 2, 3, "min", pk.EMPIRICAL)


@pytest.fixture(scope="session")
def factorial_chain():
    return pk.build_chain(pk.parse_exponent_spec("factorial"), 2, 6, "min", pk.RH_CMS)


@pytest.fixture(scope="session")
def factorial_digits(factorial_chain):
    return pk.prc_digits(factorial_chain, 1000)


@pytest.fixture(scope="session")
def mills_chain():
    return pk.build_chain(pk.parse_exponent_spec("const:3"), 2, 4, "min", pk.EMPIRICAL)


def far_claimed_prime(chain: pk.PrimeChain) -> int:
    """A prime in the window of ``chain``'s last step, 3 * RESCAN_CAP from
    the edge its mode scans from: 1.5 * RESCAN_CAP odd positions away, so
    a claim of it is refuted only by a rescan that stops at the first prime."""
    p, c = chain.primes[-2], chain.exps.term(chain.depth)
    window = pk.Window.from_parent(p, c)
    offset = 3 * pk.chain.RESCAN_CAP
    if chain.mode == "min":
        return pk.find_prime_in_range(window.lo + offset, window.hi_exclusive)
    return pk.find_prime_in_range(window.lo, window.hi_exclusive - offset, descending=True)


@pytest.fixture
def int_limit_640():
    """The interpreter's int-string limit lowered to 640 digits for one test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int-string limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)
