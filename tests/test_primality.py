import bisect
import itertools
import math
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from math import isqrt

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import prckit as pk
from prckit import primality, sieve
from prckit.core import Window
from prckit.primality import scan_range

from conftest import primes_between, run_probe, sieve_list, trial_is_prime


class TestIsPrime:
    def test_known_values(self):
        v = pk.is_prime(11)
        assert v.is_prime and v.certainty == "deterministic"
        assert not pk.is_prime(27).is_prime
        assert not pk.is_prime(1).is_prime and not pk.is_prime(0).is_prime

    def test_large_deterministic_example(self):
        # independent oracle: complete trial division up to ~50210
        assert trial_is_prime(2521008887)
        v = pk.is_prime(2521008887)
        assert v.is_prime and v.certainty == "deterministic"

    def test_sieve_agreement_to_one_million(self):
        flags = bytearray(10**6 + 1)
        for p in sieve_list(10**6):
            flags[p] = 1
        mismatches = [
            n for n in range(10**6 + 1) if pk.is_prime(n).is_prime != bool(flags[n])
        ]
        assert mismatches == []

    def test_certainty_tiers(self, monkeypatch):
        assert pk.is_prime((1 << 61) - 1).certainty == "deterministic"  # Mersenne prime
        big = 11**81 + 140
        v = pk.is_prime(big)
        assert v.is_prime and v.certainty == "probable:32"
        monkeypatch.setattr(primality, "MR_ROUNDS", 40)
        assert pk.is_prime(big).certainty == "probable:40"
        # composite verdicts are exact at any size
        assert pk.is_prime(11**81 + 141).certainty == "deterministic"

    def test_agrees_with_sympy_on_big_values(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.getrandbits(80) | 1
            assert pk.is_prime(n).is_prime == sympy.isprime(n)

    def test_deterministic_across_calls(self):
        n = 11**81 + 140
        assert pk.is_prime(n) == pk.is_prime(n)


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=300, deadline=None)
def test_is_prime_matches_trial_division(n):
    assert pk.is_prime(n).is_prime == trial_is_prime(n)


class TestWindowScans:
    def test_min_examples(self):
        assert pk.min_prime_in_window(pk.Window.from_parent(2, 3)) == 11
        assert pk.min_prime_in_window(pk.Window.from_parent(127, 4)) == 127**4 + 22
        assert 127**4 + 22 == 260144663
        # oracle for the 127^4 window: ascending trial-division scan
        lo = 127**4
        expect = next(n for n in range(lo, lo + 100) if trial_is_prime(n))
        assert expect == 260144663

    def test_min_large_window(self):
        w = pk.Window.from_parent(11, 81)
        assert pk.min_prime_in_window(w) == 11**81 + 140

    def test_max_examples(self):
        assert pk.max_prime_in_window(pk.Window.from_parent(2, 3)) == 23
        assert pk.max_prime_in_window(pk.Window.from_parent(2, 2)) == 7
        assert pk.max_prime_in_window(pk.Window.from_parent(3, 2)) == 13

    def test_count_examples(self):
        w = pk.enumerable_window(2, 3)
        assert pk.count_primes_in_range(w.lo, w.hi_exclusive) == 5
        w = pk.enumerable_window(2, 2)
        assert pk.count_primes_in_range(w.lo, w.hi_exclusive) == 2
        w = pk.enumerable_window(5, 2)
        # sieve of [25, 34]: {29, 31}
        assert pk.primes_in_range(w.lo, w.hi_exclusive) == [29, 31]
        assert pk.count_primes_in_range(w.lo, w.hi_exclusive) == 2

    @pytest.mark.parametrize("p,c", [(2, 3), (3, 2), (7, 3), (13, 2), (31, 3)])
    def test_scans_match_trial_division(self, p, c):
        w = pk.Window.from_parent(p, c)
        oracle = primes_between(w.lo, w.hi_exclusive)
        assert pk.min_prime_in_window(w) == oracle[0]
        assert pk.max_prime_in_window(w) == oracle[-1]
        assert pk.max_prime_in_window(w) >= pk.min_prime_in_window(w)
        assert pk.enumerable_window(p, c) == w
        assert pk.primes_in_range(w.lo, w.hi_exclusive) == oracle
        assert pk.count_primes_in_range(w.lo, w.hi_exclusive) == len(oracle)

    def test_scans_match_sieve_oracles(self):
        for p, c in [(31, 3), (127, 4), (997, 2)]:
            w = pk.Window.from_parent(p, c)
            lo, hi = w.lo, w.hi_exclusive
            assert pk.min_prime_in_window(w) == pk.first_prime_in_range(lo, hi)
            assert pk.max_prime_in_window(w) == pk.last_prime_in_range(lo, hi)

    def test_scan_fuzz_matches_sieve_oracles(self):
        rng = random.Random(404)
        for _ in range(60):
            lo = rng.randrange(2, 10**6)
            hi = lo + rng.randrange(1, 2000)
            assert pk.find_prime_in_range(lo, hi) == pk.first_prime_in_range(lo, hi)
            assert pk.find_prime_in_range(
                lo, hi, descending=True
            ) == pk.last_prime_in_range(lo, hi)

    def test_count_fallback_above_sieve_base(self):
        # bounds too high to sieve are refused, however narrow: no window
        # that enumerable_window lets through has them (test below)
        lo = 10**18 + 9
        for width in (500, 20_001):
            for exact in (pk.count_primes_in_range, pk.primes_in_range):
                with pytest.raises(pk.EnumerationCapError, match="base primes"):
                    exact(lo, lo + width)

    def test_windows_within_the_cap_need_base_primes_to_five_million(self):
        # the widest window of exponent c grows with p, so the largest p whose
        # window fits under ENUMERATION_CAP gives each c's largest sqrt(hi);
        # past c = 14 not even p = 2 fits
        cap, worst = sieve.ENUMERATION_CAP, []
        for c in range(2, 200):
            if pk.Window.from_parent(2, c).width > cap:
                continue
            lo, hi = 2, 2
            while pk.Window.from_parent(hi, c).width <= cap:
                lo, hi = hi, 2 * hi
            while hi - lo > 1:  # width(lo) <= cap < width(hi)
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if pk.Window.from_parent(mid, c).width <= cap else (lo, mid)
            w = pk.Window.from_parent(lo, c)
            worst.append((isqrt(w.hi_exclusive - 1), lo, c))
        assert max(worst) == (5_000_000, 5_000_000, 2)
        assert [c for _, _, c in worst] == list(range(2, 15))
        assert max(worst)[0] <= sieve.MAX_SIEVE_BASE

    @pytest.mark.parametrize("cap", [sieve.ENUMERATION_CAP, 10**8])
    def test_capped_window_refuses_only_windows_past_the_cap(self, monkeypatch, cap):
        # refused exactly when wider than the cap, and every window let
        # through has (p + 1)^c within twice the cap's bits
        monkeypatch.setattr(sieve, "ENUMERATION_CAP", cap)
        for p in primes_between(2, 1 << 12):
            for c in range(2, 41):
                wide = Window.from_parent(p, c).width > cap
                try:
                    window = sieve.enumerable_window(p, c)
                except pk.EnumerationCapError:
                    assert wide, (p, c)
                else:
                    assert not wide, (p, c)
                    assert window == Window.from_parent(p, c)
                    assert (p + 1) ** c <= 1 << (2 * cap.bit_length()), (p, c)

    def test_budget_exhaustion(self):
        w = pk.Window.from_parent(127, 4)
        with pytest.raises(pk.WindowSearchExhausted) as err:
            pk.min_prime_in_window(w, budget=3)
        assert not err.value.scanned_all and err.value.tested == 3

    def test_empty_window_scanned_all(self):
        # fabricated prime-free range; real windows this small do not exist
        fake = Window(parent_prime=2, exponent=2, lo=24, hi_exclusive=29)
        with pytest.raises(pk.WindowSearchExhausted) as err:
            pk.min_prime_in_window(fake)
        assert err.value.scanned_all

    def test_count_refuses_oversized_window(self):
        # width ~3e10
        with pytest.raises(pk.EnumerationCapError):
            pk.enumerable_window(99991, 3)

    def test_count_refuses_a_width_too_long_to_print(self):
        # about 9.5k digits, past the interpreter's int-to-str limit
        with pytest.raises(pk.EnumerationCapError, match=r"wider than 2\^19999 "):
            pk.enumerable_window(2, 20_000)
        forest = pk.explore_tree(pk.parse_exponent_spec("const:20000"), (2, 3), 1)
        assert [r.child_count for r in forest.roots] == [None, None]


TWO17 = 1 << 17


@st.composite
def scan_ranges(draw):
    """[lo, hi) ranges for the scan engine: starts at 0..3, short ranges
    below 2^17, ranges straddling it, and ranges from the sieving primes
    themselves (lo below sqrt(hi)) up to just past 2^17."""
    kind = draw(st.sampled_from(("start", "low", "straddle", "sieving")))
    if kind == "start":
        lo = draw(st.sampled_from((0, 1, 2, 3)))
        hi = lo + draw(st.integers(0, 60))
    elif kind == "low":
        lo = draw(st.integers(0, TWO17 - 1))
        hi = lo + draw(st.integers(0, 400))
    elif kind == "straddle":
        lo = draw(st.integers(TWO17 - 3000, TWO17))
        hi = draw(st.integers(TWO17, TWO17 + 3000))
    else:
        lo = draw(st.integers(0, 400))
        hi = draw(st.integers(TWO17 - 100, TWO17 + 100))
    return lo, hi


class TestScanEngine:
    @given(scan_ranges())
    @settings(max_examples=150, deadline=None)
    def test_scans_match_sieve_oracles(self, lohi):
        lo, hi = lohi
        first = pk.find_prime_in_range(lo, hi)
        last = pk.find_prime_in_range(lo, hi, descending=True)
        assert first == pk.first_prime_in_range(lo, hi)
        assert last == pk.last_prime_in_range(lo, hi)
        for found, descending in ((first, False), (last, True)):
            verdict = scan_range(lo, hi, descending=descending)
            assert verdict == (None if found is None else pk.is_prime(found))

    @pytest.mark.parametrize("seed", range(4))
    def test_scans_above_two_to_the_64(self, seed):
        rng = random.Random(seed)
        lo = rng.randrange(1 << 64, 1 << 100)
        hi = lo + 3000
        up = scan_range(lo, hi)
        down = scan_range(lo, hi, descending=True)
        assert up.value == sympy.nextprime(lo - 1)
        assert down.value == sympy.prevprime(hi)
        assert up.certainty == down.certainty == "probable:32"

    def test_primes_past_the_first_segment(self):
        # the maximal gap of 1132 after p: 565 odd composites, so the scans
        # meet the bounding primes only in their second segment
        p = 1693182318746371
        q = p + 1132
        assert pk.find_prime_in_range(p + 1, q + 1) == q
        assert pk.find_prime_in_range(p, q, descending=True) == p
        assert pk.find_prime_in_range(p + 1, q) is None
        assert pk.first_prime_in_range(p + 1, q + 1) == q

    @pytest.mark.parametrize("descending", [False, True])
    def test_budget_counts_sieved_positions(self, descending):
        # [1328, 1361) lies in the prime gap after 1327: 16 odd positions,
        # every one struck by the sieve, still each counted against the budget
        assert pk.find_prime_in_range(1328, 1361, budget=16, descending=descending) is None
        with pytest.raises(pk.WindowSearchExhausted) as err:
            pk.find_prime_in_range(1328, 1361, budget=15, descending=descending)
        assert str(err.value) == "no prime found in [1328, 1361) after 15 candidates"
        assert err.value.tested == 15 and not err.value.scanned_all
        # the odd positions 2^64+1..2^64+11 are composite; 2^64+13 is prime
        lo, hi = (1 << 64) + 1, (1 << 64) + 13
        assert pk.find_prime_in_range(lo, hi, budget=6, descending=descending) is None
        with pytest.raises(pk.WindowSearchExhausted) as err:
            pk.find_prime_in_range(lo, hi, budget=5, descending=descending)
        assert str(err.value) == f"no prime found in [{lo}, {hi}) after 5 candidates"
        assert err.value.tested == 5

    def test_budget_counts_positions_below_three(self):
        # 0 and 1 are positions too; 2 is never reached on a budget of 2
        assert pk.find_prime_in_range(0, 2, budget=2) is None
        with pytest.raises(pk.WindowSearchExhausted) as err:
            pk.find_prime_in_range(0, 2, budget=1, descending=True)
        assert str(err.value) == "no prime found in [0, 2) after 1 candidates"
        assert err.value.tested == 1
        assert pk.find_prime_in_range(0, 3, budget=3) == 2
        with pytest.raises(pk.WindowSearchExhausted):
            pk.find_prime_in_range(0, 3, budget=2)


# ---------------------------------------------------------------------------
# the scan sieve: bytearray segments against trial division

ODD_PRIMES_TO_2_17 = sieve_list(TWO17)[1:]
TRIAL_PRIMORIAL = primality._TRIAL_PRIMORIAL


def scan_positions(lo: int, hi: int, descending: bool, limit: int) -> list[int]:
    """The first ``limit`` scan positions of [lo, hi) in scan order: the
    integers below 3, then the odd ones from 3, or all of it reversed."""
    small, odd = range(lo, min(hi, 3)), range(max(lo, 3) | 1, hi, 2)
    order = (reversed(odd), reversed(small)) if descending else (small, odd)
    return list(itertools.islice(itertools.chain(*order), max(limit, 0)))


def trial_division_survivors(positions: list[int]) -> list[int]:
    """The positions that are 2 or odd with no odd prime factor other than
    themselves up to the scan's bound: min(2^17, sqrt(last), _scan_bound of
    its bits), last the greatest odd position.  Every base prime is tried
    at every position, from one residue per prime of the least odd one."""
    odd = [n for n in positions if n >= 3]
    if not odd:
        return [n for n in positions if n == 2]
    last, least = max(odd), min(odd)
    bound = min(TWO17, isqrt(last), primality._scan_bound(last.bit_length()))
    primes = np.array(ODD_PRIMES_TO_2_17[: bisect.bisect_right(ODD_PRIMES_TO_2_17, bound)])
    residues = np.array([least % p for p in primes.tolist()], dtype=np.int64)
    out = []
    for n in positions:
        if n < 3:
            if n == 2:
                out.append(n)
            continue
        divides = (residues + (n - least)) % primes == 0
        if not divides.any() or (n <= bound and n in primes):
            out.append(n)
    return out


# bit sizes on both sides of each step of the bound, and of 2^64
SCAN_BOUND_EDGES = sorted(
    {b + d for b, _ in primality._SCAN_BOUND_STEPS[1:] for d in (-1, 0)} | {64, 65}
)


@st.composite
def scan_sieve_args(draw):
    """(lo, hi, descending, limit): ranges from 0..3, low ranges where the
    base primes lie in the segment (lo <= p^2), and ranges of any bit size
    up to 2100, often at an edge of ``SCAN_BOUND_EDGES``; widths to cross
    the first segments (256, 512 and 1024 positions); budgets that end
    anywhere, mid-segment included, or past the range."""
    kind = draw(st.sampled_from(("start", "low", "edge", "any")))
    if kind == "start":
        lo = draw(st.integers(0, 3))
    elif kind == "low":
        lo = draw(st.integers(0, 20_000))
    else:
        bits = draw(
            st.sampled_from(SCAN_BOUND_EDGES) if kind == "edge" else st.integers(18, 2100)
        )
        lo = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    hi = lo + draw(st.one_of(st.integers(0, 40), st.integers(0, 4000)))
    descending = draw(st.booleans())
    limit = draw(st.one_of(st.integers(0, hi - lo + 1), st.just(10**6)))
    return lo, hi, descending, limit


class TestScanSieve:
    @given(scan_sieve_args())
    @settings(max_examples=200, deadline=None)
    def test_survivors_match_trial_division(self, args):
        lo, hi, descending, limit = args
        want = trial_division_survivors(scan_positions(lo, hi, descending, limit))
        assert list(primality._survivors(lo, hi, descending, limit)) == want

    def test_base_primes_are_the_odd_primes_to_2_to_the_17(self):
        primes, groups = primality._scan_base(TWO17)
        assert primes == ODD_PRIMES_TO_2_17
        assert [p for _, run in groups for p in run] == primes
        assert all(prod == math.prod(run) for prod, run in groups)
        few, few_groups = primality._scan_base(1009)
        assert few == ODD_PRIMES_TO_2_17[:168] and few[-1] == 1009
        assert few_groups == groups[: -(-168 // primality._RESIDUE_GROUP)]

    def test_bound_steps(self):
        steps = primality._SCAN_BOUND_STEPS
        assert steps[0] == (0, 1009) and steps[-1][1] == TWO17
        assert all(a < b and x < y for (a, x), (b, y) in zip(steps, steps[1:]))
        for bits, bound in steps:
            assert primality._scan_bound(bits) == bound
            assert primality._scan_bound(bits - 1) < bound or bits == 0
        assert primality._scan_bound(10**6) == TWO17

    @given(
        st.integers(64, 2100).flatmap(lambda b: st.integers((1 << b) - 3000, 1 << b)),
        st.integers(0, 3000),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_survivors_from_2_to_the_64_have_no_factor_to_997(self, lo, width, descending):
        for n in primality._survivors(lo, lo + width, descending, 10**6):
            assert n < TWO64 or math.gcd(n, TRIAL_PRIMORIAL) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_pooled_survivors_reach_past_base_2_without_small_factors(
        self, pooled_tests, monkeypatch, seed
    ):
        # with the pool at every size, survivors that pass base 2 go straight
        # to _past_base_2, which does no trial division of its own
        rng = random.Random(seed)
        bits = rng.choice((65, 66, 100, 200, *SCAN_BOUND_EDGES[:4]))
        lo = rng.randrange(max(TWO64 - 2000, 1 << (bits - 1)), 1 << bits)
        past, reached = primality._past_base_2, []
        monkeypatch.setattr(
            primality, "_past_base_2", lambda n: reached.append(n) or past(n)
        )
        hi = lo + 10_000
        for descending in (False, True):
            want = sympy.prevprime(hi) if descending else sympy.nextprime(lo - 1)
            assert lo <= want < hi
            assert scan_range(lo, hi, descending=descending) == pk.is_prime(want)
        assert reached and all(math.gcd(n, TRIAL_PRIMORIAL) == 1 for n in reached)


# ---------------------------------------------------------------------------
# exact enumeration (prckit.sieve): counts, listings, kernel and tables


def rough_bound(hi: int) -> int:
    """t of ``count_primes_in_range(lo, hi)``: max(cbrt(hi - 1) + 1,
    (hi - 1) // _BASE_CACHE_LIMIT + 1, 3), the cube root by plain search."""
    top = hi - 1
    c = round(top ** (1 / 3))
    while c**3 > top:
        c -= 1
    while (c + 1) ** 3 <= top:
        c += 1
    return max(c + 1, top // sieve._BASE_CACHE_LIMIT + 1, 3)


class TestCountOnly:
    @pytest.mark.parametrize(
        "lo,hi",
        [
            (4, 4), (10, 5), (0, 0), (0, 2), (2, 3), (1, 2), (-5, 10), (0, 30),
            (2, 10**5), (9, 100), (25, 26), (49, 1000), (121, 5000),
            (1009**2, 1009**2 + 20_000), (9973**2 - 1, 9973**2 + 50_000),
            (10**6, 10**6 + 3 * (1 << 20) + 7),
        ],
    )
    def test_matches_listing(self, lo, hi):
        assert pk.count_primes_in_range(lo, hi) == len(pk.primes_in_range(lo, hi))

    def test_near_sieve_base_refusal(self, monkeypatch):
        monkeypatch.setattr(sieve, "MAX_SIEVE_BASE", 1000)
        # sqrt(hi - 1) may reach 1000 exactly; one more and both refuse
        lo, hi = 1001**2 - 30_000, 1001**2
        got = pk.count_primes_in_range(lo, hi)
        assert got == len(pk.primes_in_range(lo, hi)) == len(primes_between(lo, hi))
        for fn in (pk.count_primes_in_range, pk.primes_in_range):
            with pytest.raises(pk.EnumerationCapError):
                fn(lo, hi + 1)

    @given(st.integers(0, 10**7), st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_random_ranges(self, lo, width):
        assert pk.count_primes_in_range(lo, lo + width) == len(
            pk.primes_in_range(lo, lo + width)
        )

    # The count strikes only the odd primes below t and subtracts the
    # products p*q of primes t <= p <= q; ``primes_in_range`` strikes every
    # base prime, so it is the oracle here.

    @given(st.integers(10**9, 10**12), st.integers(0, 3 * 10**5))
    @settings(max_examples=30, deadline=None)
    def test_high_windows(self, lo, width):
        assert pk.count_primes_in_range(lo, lo + width) == len(
            pk.primes_in_range(lo, lo + width)
        )

    @pytest.mark.parametrize("m", [2, 3, 5, 11, 29, 47, 61, 64, 100, 1361])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_top_at_a_cube(self, m, shift):
        # hi - 1 = m^3 + shift: for a prime m up to 61, t = m + 1 exactly when
        # m^3 is in range, and a t one too small would count m^3 as a prime
        hi = m**3 + shift + 1
        for lo in {max(2, hi - 50_000), m**3 - 3, m**3 - 1, m**3}:
            if lo < hi:
                assert pk.count_primes_in_range(lo, hi) == len(pk.primes_in_range(lo, hi))

    @pytest.mark.parametrize("top", [47**3 - 1, (8 * 101) ** 2, (8 * 509) ** 2 + 5])
    def test_products_at_the_bound(self, top):
        # windows starting around r^2, r*p, p^2 and p*q for the least primes
        # r < p < q from t (r = t at 47^3 - 1), where ceil(lo/p) and q >= p
        # decide each term
        hi = top + 1
        r = sympy.nextprime(rough_bound(hi) - 1)
        p = sympy.nextprime(r)
        q = sympy.nextprime(p)
        for x in (r * r, r * p, p * p, p * q):
            for lo in (x - 1, x, x + 1):
                assert pk.count_primes_in_range(lo, hi) == len(pk.primes_in_range(lo, hi))

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (0, 9), (2, 9), (3, 8), (4, 10), (2, 10), (2, 27), (2, 28), (3, 28),
            (5, 2000), (17, 5000), (2, 262_145), (3, 10**6),
        ],
    )
    def test_low_windows(self, lo, hi):
        # lo below t, lo = 2, and t above sqrt(hi - 1) (hi up to 9)
        want = len(sieve_list(hi - 1)) - len(sieve_list(lo - 1))
        assert pk.count_primes_in_range(lo, hi) == want

    def test_smallest_explore_window(self):
        # [4, 8): a t of 2 would subtract the even products 2*2 and 2*3
        w = pk.enumerable_window(2, 2)
        assert pk.count_primes_in_range(w.lo, w.hi_exclusive) == 2
        assert pk.count_primes_in_range(4, 10) == 2  # t = 3 = sqrt(9)

    def test_full_sieve_past_the_cache_bound(self, monkeypatch):
        # with a tiny cache bound, t = (hi - 1) // bound + 1 passes
        # sqrt(hi - 1) near 2 * 10^6 (as it does past 2^46 with 2^23), so t
        # is capped at sqrt(hi - 1) + 1 and every base prime strikes, as in
        # the listing
        monkeypatch.setattr(sieve, "_table", (0, None, None))
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "_BASE_CACHE_LIMIT", 1 << 10)
            mp.setattr(sieve, "_base_cache", (0, None))
            segments = sieve._sieve_segments
            mp.setattr(
                sieve,
                "_sieve_segments",
                lambda lo, hi, strike: calls.append((lo, hi, strike)) or segments(lo, hi, strike),
            )
            for lo, hi, rough in ((2 * 10**6, 2 * 10**6 + 5000, False), (4000, 5000, True)):
                need = isqrt(hi - 1)
                assert (rough_bound(hi) <= need) == rough
                calls.clear()
                assert pk.count_primes_in_range(lo, hi) == len(primes_between(lo, hi))
                # the count's own sieve; the cache fill, the count table and
                # the base primes past the cache sieve other ranges
                strikes = [strike for a, b, strike in calls if (a, b) == (lo, hi)]
                assert strikes == [rough_bound(hi) - 1 if rough else need]
                assert (strikes[0] < need) == rough
            assert sieve._table[0] == 1 << 10
        # the patch undone, a count whose q pass the tiny table rebuilds it
        assert pk.count_primes_in_range(1361**3, 1362**3) == 256666
        assert sieve._table[0] == sieve._BASE_CACHE_LIMIT

    def test_explore_window_walks_only_primes_below_t(self, monkeypatch):
        lo, hi = 1361**3, 1362**3
        # a first count fills the base-prime cache, whose fill walks too
        assert pk.count_primes_in_range(lo, hi) == 256666
        walked = []
        walk = sieve._walk_segments
        monkeypatch.setattr(
            sieve,
            "_walk_segments",
            lambda first, count, base, *args: walked.append(base.copy())
            or walk(first, count, base, *args),
        )
        assert pk.count_primes_in_range(lo, hi) == 256666
        t = rough_bound(hi)
        assert t == 1362 and len(walked) == 1
        assert walked[0].tolist() == sieve_list(t - 1)[1:] and len(walked[0]) == 217
        assert sympy.primepi(hi - 1) - sympy.primepi(lo - 1) == 256666

    @pytest.mark.parametrize("height", [10**12, 4 * 10**12, 10**13])
    @pytest.mark.parametrize("width", [10**4, 10**5])
    def test_rough_count_up_to_2_to_the_46(self, height, width):
        # t = (hi - 1) // _BASE_CACHE_LIMIT + 1 here, below sqrt(hi - 1)
        hi = height + width
        assert rough_bound(hi) <= isqrt(hi - 1)
        assert pk.count_primes_in_range(height, hi) == len(pk.primes_in_range(height, hi))

    def test_p2_terms_with_one_multiple_or_none(self):
        # p from t to sqrt(top) with its only multiple p*q at lo, at top or
        # outside the window; q prime, so each p*q must be subtracted
        p = sympy.nextprime(5 * 10**5)
        q = sympy.nextprime(2 * 10**6)
        assert rough_bound(p * q + 1) < p < 10**4 + p < isqrt(p * q) and q > p
        windows = (
            (p * q, p * q + 10**4),  # at lo
            (p * q - 10**4 + 1, p * q + 1),  # at top
            (p * q + 1, p * (q + 1)),  # none: the window lies between two
            (p * q - 10**4, p * q),  # none, ending just below p*q
        )
        for lo, hi in windows:
            assert pk.count_primes_in_range(lo, hi) == len(pk.primes_in_range(lo, hi))


class TestSieves:
    def test_primes_upto_matches_oracle(self, monkeypatch):
        assert pk.primes_in_range(2, 10_001) == sieve_list(10_000)
        assert pk.primes_in_range(2, 2) == []
        assert pk.primes_in_range(2, 3) == [2]
        # from an empty cache: below 0 (no square root to take), and around
        # the last trial prime, the seed of the base-prime cache
        monkeypatch.setattr(sieve, "_base_cache", (0, None))
        assert pk.primes_in_range(2, 0) == pk.primes_in_range(2, 1) == []
        assert pk.primes_in_range(2, 998) == sieve_list(997)
        assert pk.primes_in_range(2, 999) == sieve_list(998)

    @pytest.mark.parametrize(
        "lo,hi",
        [(0, 30), (10**6, 10**6 + 10**4), (999_900, 1_000_100), (25, 35), (4, 4)],
    )
    def test_primes_in_range_matches_oracle(self, lo, hi):
        assert pk.primes_in_range(lo, hi) == primes_between(lo, hi)

    def test_primes_in_range_across_segments(self):
        # 2.25M odd positions: three segments of the exact sieve
        assert pk.primes_in_range(0, 4_500_000) == sieve_list(4_499_999)

    def test_primes_in_range_high_segment(self):
        lo = 10**12
        got = pk.primes_in_range(lo, lo + 2000)
        assert got == [n for n in range(lo, lo + 2000) if sympy.isprime(n)]

    def test_primes_in_range_very_high_segment(self):
        # exercises the large-base vectorized path (base primes to 1e7)
        lo = 10**14
        got = pk.primes_in_range(lo, lo + 1000)
        assert got == [n for n in range(lo, lo + 1000) if sympy.isprime(n)]

    def test_edge_scans(self):
        w = pk.Window.from_parent(127, 4)
        assert pk.first_prime_in_range(w.lo, w.hi_exclusive) == 260144663
        assert pk.last_prime_in_range(w.lo, w.hi_exclusive) == pk.max_prime_in_window(w)
        assert pk.first_prime_in_range(24, 29) is None
        assert pk.last_prime_in_range(24, 29) is None

    @pytest.mark.parametrize("limit", [10**17, 10**9])
    def test_primes_upto_refuses_before_sieving(self, monkeypatch, limit):
        # 10^17 needs base primes past MAX_SIEVE_BASE and 10^9 a segment
        # past the width limit: both refuse before any segment is sieved
        def sieved(*args):
            raise AssertionError(f"sieved {args} before refusing")

        monkeypatch.setattr(sieve, "_sieve_segments", sieved)
        with pytest.raises(pk.EnumerationCapError):
            pk.primes_in_range(2, limit + 1)

    def test_sieve_refuses_unreachable_base(self):
        with pytest.raises(pk.EnumerationCapError):
            pk.primes_in_range(10**17, 10**17 + 10)

    @pytest.mark.parametrize("sieve", [pk.primes_in_range, pk.count_primes_in_range])
    def test_refusal_of_bounds_too_long_to_print(self, sieve):
        # about 5000 digits, past the interpreter's int-to-str limit
        with pytest.raises(pk.EnumerationCapError, match="16610-bit bound needs 8305-bit"):
            sieve(10**5000, 10**5000 + 10)


class TestSieveKernel:
    """``_odd_primes`` (and so ``_sieve_segments`` and ``_odd_mask``, the
    one striking loop), the cached ``_base_primes`` and ``primes_in_range``
    against a plain bytearray sieve."""

    ORACLE = sieve_list(997**2 + 2)
    ORACLE_ARRAY = np.array(ORACLE, dtype=np.int64)

    def _check(self, limit):
        count = bisect.bisect_right(self.ORACLE, limit)
        for first in (0, limit // 2):
            batches = list(sieve._odd_primes(first, limit + 1, isqrt(limit)))
            assert all(b.dtype == np.int64 for b in batches), limit
            got = np.concatenate([np.empty(0, np.int64), *batches])
            skip = bisect.bisect_left(self.ORACLE, max(first, 3))  # odd primes only
            assert np.array_equal(got, self.ORACLE_ARRAY[skip:count]), (first, limit)
        cached = bisect.bisect_right(self.ORACLE, sieve._BASE_CACHE_LIMIT)
        got = sieve._base_primes(limit)
        assert np.array_equal(got, self.ORACLE_ARRAY[: min(count, cached)]), limit
        assert pk.primes_in_range(2, limit + 1) == self.ORACLE[:count], limit

    def test_trial_primes_are_the_primes_below_1000(self):
        assert primality._TRIAL_PRIMES == tuple(sieve_list(999))
        assert len(primality._TRIAL_PRIMES) == 168

    def test_every_limit_to_3000(self):
        for limit in range(3001):
            self._check(limit)

    def test_limits_around_prime_squares(self):
        for p in sieve_list(999):
            for limit in range(p * p - 2, p * p + 3):
                self._check(limit)

    def test_two_to_the_17(self):
        self._check(1 << 17)

    def test_base_primes_past_the_cache_bound(self, monkeypatch):
        # a tiny cache bound and segment: base primes above the bound come
        # in several uncached batches (struck by uncached ones from 65^2 on),
        # each striking many segments
        monkeypatch.setattr(sieve, "_BASE_CACHE_LIMIT", 1 << 6)
        monkeypatch.setattr(sieve, "_SIEVE_SEGMENT", 1 << 9)
        monkeypatch.setattr(sieve, "_base_cache", (0, None))
        for limit in (63, 64, 65, 4224, 4225, 10**5, 997**2 + 2):
            self._check(limit)
        for lo, hi in ((1 << 20, (1 << 20) + 5000), ((1 << 23) - 200_000, 1 << 23)):
            want = [n for n in range(lo | 1, hi, 2) if sympy.isprime(n)]
            assert pk.primes_in_range(lo, hi) == want
            assert pk.count_primes_in_range(lo, hi) == len(want)
        assert sieve._base_cache[0] == 1 << 6

    def test_cache_grown_in_steps_equals_one_fill(self, monkeypatch):
        # the cache starts as the trial primes, each step sieves only the
        # primes past the old bound, over several segments, and the result
        # equals a fill from an empty cache
        monkeypatch.setattr(sieve, "_SIEVE_SEGMENT", 1 << 9)
        monkeypatch.setattr(sieve, "_base_cache", (0, None))
        fills = []
        odd_primes = sieve._odd_primes
        monkeypatch.setattr(
            sieve,
            "_odd_primes",
            lambda lo, hi, strike: fills.append((lo, hi - 1, strike))
            or odd_primes(lo, hi, strike),
        )
        for limit in (10, 1 << 16, 70_000, 300_000, 1 << 20):
            sieve._base_primes(limit)
        stepped = sieve._base_cache
        # each fill strikes with the cached primes to its square root
        assert fills == [
            (998, 1 << 16, 1 << 8), ((1 << 16) + 1, 1 << 17, 362),
            ((1 << 17) + 1, 300_000, 547), (300_001, 1 << 20, 1 << 10),
        ]
        monkeypatch.setattr(sieve, "_base_cache", (0, None))
        sieve._base_primes(1 << 20)
        assert sieve._base_cache[0] == stepped[0] == 1 << 20
        assert np.array_equal(sieve._base_cache[1], stepped[1])
        assert stepped[1].tolist() == sieve_list(1 << 20)

    def test_one_fill_from_empty_sieves_each_range_once(self, monkeypatch):
        # the strike primes are taken first, so the fill sieves only past
        # what their own fill (to 2^16) left in the cache
        monkeypatch.setattr(sieve, "_base_cache", (0, None))
        fills = []
        odd_primes = sieve._odd_primes
        monkeypatch.setattr(
            sieve,
            "_odd_primes",
            lambda lo, hi, strike: fills.append((lo, hi)) or odd_primes(lo, hi, strike),
        )
        sieve._base_primes(1 << 23)
        fills.sort()
        assert fills[0][0] == 998 and fills[-1][1] == (1 << 23) + 1
        assert all(hi == lo for (_, hi), (lo, _) in zip(fills, fills[1:]))  # disjoint, no gap
        assert sieve._base_cache[1].size == 564163


DIFFERENTIAL_TOP = 2 * 10**6
DIFFERENTIAL_ORACLE = sieve_list(DIFFERENTIAL_TOP)


@given(
    st.integers(-5, DIFFERENTIAL_TOP),
    st.one_of(st.integers(-5, 3000), st.integers(-5, DIFFERENTIAL_TOP)),
)
@settings(max_examples=40, deadline=None)
def test_sieves_across_a_tiny_cache_bound(lo, width):
    # with a cache bound of 2^6 and segments of 2^9 odd numbers, the cache
    # holds only its seed and every base prime past 64 comes from the
    # sieve's own uncached batches, over many segments
    hi = min(lo + width, DIFFERENTIAL_TOP + 1)
    top = bisect.bisect_left(DIFFERENTIAL_ORACLE, hi)
    want = DIFFERENTIAL_ORACLE[bisect.bisect_left(DIFFERENTIAL_ORACLE, lo) : top]
    # hypothesis forbids function-scoped fixtures, so patch by hand
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_BASE_CACHE_LIMIT", 1 << 6)
        mp.setattr(sieve, "_SIEVE_SEGMENT", 1 << 9)
        mp.setattr(sieve, "_base_cache", (0, None))
        mp.setattr(sieve, "_table", (0, None, None))
        assert pk.primes_in_range(lo, hi) == want
        assert pk.count_primes_in_range(lo, hi) == len(want)
        assert pk.primes_in_range(2, hi) == DIFFERENTIAL_ORACLE[:top]
        assert sieve._base_cache[0] <= 1 << 6
        assert sieve._table[0] <= 1 << 6
    assert pk.count_primes_in_range(lo, hi) == len(want)


ODD_PRIMES = sieve_list(2000)[1:]


@st.composite
def mask_args(draw):
    """(a, length, base) for ``_odd_mask``: odd a from 3 up to below 2^62,
    as far as exact sieves reach (hi <= 10^16), small ones (around the
    wheel primes, and a <= p^2 for base primes p) drawn often; lengths up
    to three wheel periods and more; bases that begin at 3 (the wheel) or
    further on (the plain path)."""
    half = st.one_of(st.integers(1, 12), st.integers(1, 2000), st.integers(1, 2**61 - 1))
    a = 2 * draw(half) + 1
    length = draw(st.one_of(st.integers(1, 40), st.integers(1, 3 * 15015 + 7)))
    first = draw(st.one_of(st.just(0), st.integers(0, len(ODD_PRIMES))))
    size = draw(st.integers(0, 60))
    return a, length, np.array(ODD_PRIMES[first : first + size], dtype=np.int64)


def trial_division_mask(a: int, length: int, base: np.ndarray) -> np.ndarray:
    """Entry i is False exactly when a + 2i = p*m with p in ``base`` and
    m >= p, tested for each p at every entry."""
    index = np.arange(length)
    mask = np.ones(length, dtype=bool)
    for p in base.tolist():
        divides = (a % p + 2 * index) % p == 0
        mask &= ~(divides & (index >= (p * p - a + 1) // 2))
    return mask


@given(mask_args())
@settings(max_examples=200, deadline=None)
def test_odd_mask_matches_trial_division(args):
    # with every odd prime up to its last in ``base`` (so with the wheel),
    # that is: False exactly when the number has a factor in base other
    # than itself
    a, length, base = args
    got = sieve._odd_mask(np.empty(length, dtype=bool), a, base, a % base)
    assert np.array_equal(got, trial_division_mask(a, length, base))


def test_walk_fills_one_buffer(monkeypatch):
    # every segment's mask is a view of the one buffer the walk allocated,
    # the last and shorter one included
    monkeypatch.setattr(sieve, "_SIEVE_SEGMENT", 1 << 9)
    base = np.array(ODD_PRIMES[:40], dtype=np.int64)
    first, count = 10**6 + 1, 5 * (1 << 9) + 77
    masks = list(sieve._walk_segments(first, count, base))
    assert [mask.size for _, mask in masks] == [1 << 9] * 5 + [77]
    buffer = masks[0][1].base
    assert buffer is not None and buffer.size == 1 << 9
    assert all(mask.base is buffer for _, mask in masks)
    a, last = masks[-1]
    assert np.array_equal(last, trial_division_mask(a, 77, base))


def test_wheel_pattern_is_built_on_first_use():
    """Import builds no wheel; the first mask with a base from 3 past 13
    builds it once, as the odd numbers coprime to 3*5*7*11*13."""
    probe = """
import prckit
from prckit import sieve

print(sieve._wheel is None)
prckit.primes_in_range(10**6, 10**6 + 100)
wheel = sieve._wheel
prckit.count_primes_in_range(1361**3, 1362**3)
print(wheel.size, wheel is sieve._wheel, "".join("01"[b] for b in wheel[:12].tolist()))
"""
    out = run_probe(probe)
    # 2j + 1 for j = 0..11: 1 3 5 7 9 11 13 15 17 19 21 23
    assert out[:2] == ["True", "15015 True 100000001101"]


def test_count_cache_build_peak():
    """What an explore-window count builds first (its base primes and the
    prime-count table of its P2 term) grows the peak RSS by under 8 MB."""
    probe = """
import resource, sys
import numpy
import prckit

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
count = prckit.count_primes_in_range(1361**3, 1362**3)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(count, grown / 2**20 if sys.platform == "darwin" else grown / 2**10)  # bytes or KiB
"""
    count, grown_mb = run_probe(probe)[0].split()
    assert int(count) == 256666
    assert float(grown_mb) < 8


def test_base_primes_past_the_cache_bound_are_dropped():
    """A count needing base primes to 10^8 keeps only those up to the cache
    bound, and peaks far below one sieve of all of them (211 MB)."""
    probe = """
import resource, sys
import numpy
import prckit
from prckit import sieve

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
count = prckit.count_primes_in_range(10**16 - 1000, 10**16)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
limit, primes = sieve._base_cache
mb = grown / 2**20 if sys.platform == "darwin" else grown / 2**10  # bytes or KiB
print(count, mb, limit, int(primes[-1]), sieve._BASE_CACHE_LIMIT)
"""
    count, grown_mb, limit, largest, bound = run_probe(probe)[0].split()
    want = sum(1 for n in range(10**16 - 999, 10**16, 2) if sympy.isprime(n))
    assert int(count) == want == 30
    assert float(grown_mb) < 50
    assert int(largest) <= int(limit) <= int(bound)


def test_cold_count_leaves_the_cache_below_its_bound():
    """A count near 10^12 grows the base-prime cache only to sqrt(hi), not
    to (hi - 1) / t near 2^23, and its P2 term's count table (0.77 MB)
    keeps the count's traced peak under 6 MB (8.7 MB with a cache grown
    to 2^23)."""
    probe = """
import tracemalloc
import numpy
import prckit
from prckit import sieve

lo, hi = 10**12, 10**12 + 10**5
tracemalloc.start()
count = prckit.count_primes_in_range(lo, hi)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(count == len(prckit.primes_in_range(lo, hi)), sieve._base_cache[0], peak / 2**20)
"""
    same, cached, peak_mb = run_probe(probe)[0].split()
    assert same == "True"
    # the fill policy may overshoot sqrt(hi) = 10^6 by at most a doubling
    assert int(cached) <= 2 * 10**6 < 1 << 23
    assert float(peak_mb) < 6


# A count table with a partial last word and segment: its bound is odd and
# segments hold 2^9 odd numbers.
TABLE_BOUND = 70_001
TABLE_SEGMENT = 1 << 9
TABLE_ORACLE = sieve_list(TABLE_BOUND - 1)


def table_points():
    """x in [1, TABLE_BOUND): anywhere, or within 3 of 2, of the bound and
    of the first odd number of a 64-bit word or of a segment (3 + 128w,
    3 + 2 * TABLE_SEGMENT * k)."""
    edge = st.one_of(
        st.sampled_from((2, TABLE_BOUND - 1)),
        st.integers(0, TABLE_BOUND // 128).map(lambda w: 3 + 128 * w),
        st.integers(0, TABLE_BOUND // (2 * TABLE_SEGMENT)).map(lambda k: 3 + 2 * TABLE_SEGMENT * k),
    )
    near = st.tuples(edge, st.integers(-3, 3)).map(sum)
    return (near | st.integers(1, TABLE_BOUND - 1)).filter(lambda x: 1 <= x < TABLE_BOUND)


@given(st.lists(table_points(), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_prime_pi_matches_a_listing(xs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_BASE_CACHE_LIMIT", TABLE_BOUND)
        mp.setattr(sieve, "_SIEVE_SEGMENT", TABLE_SEGMENT)
        mp.setattr(sieve, "_table", (0, None, None))
        got = sieve.prime_pi(np.array([*xs, 2, TABLE_BOUND - 1], dtype=np.int64))
        assert sieve._table[0] == TABLE_BOUND
    want = [bisect.bisect_right(TABLE_ORACLE, x) for x in (*xs, 2, TABLE_BOUND - 1)]
    assert got.dtype == np.int64 and got.tolist() == want


def test_prime_pi_to_the_cache_bound():
    bound = sieve._BASE_CACHE_LIMIT
    got = sieve.prime_pi(np.array([1, 2, 3, bound - 1], dtype=np.int64))
    assert got.tolist() == [0, 1, 2, sympy.primepi(bound - 1)]
    assert sieve._table[0] == bound
    # 2^22 - 1 odd numbers from 3, 64 to a word: 0.5 MB of words, 0.25 MB of counts
    assert sieve._table[1].nbytes + sieve._table[2].nbytes == 3 << 18


@given(st.lists(st.integers(0, 2**64 - 1) | st.sampled_from((1, 2**63, 2**64 - 2))))
@settings(max_examples=100, deadline=None)
def test_popcount_matches_bit_count(values):
    values = [0, 2**64 - 1, *values]
    got = sieve.popcount64(np.array(values, dtype=np.uint64))
    assert got.tolist() == [v.bit_count() for v in values]


# ---------------------------------------------------------------------------
# modular powers: libgmp's mpz_powm against the builtin pow

TWO64 = 1 << 64
# Strong pseudoprimes to base 2, two of them above 2^64 (those reach the
# strong Lucas test, the others fail a later base of the 12-base set).
SPSP2 = (
    3215031751,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
CARMICHAEL = 1501081 * 3002161 * 4503241  # Chernick form, above 2^64
# p_{k+1} - p_k^3 along the const:3 seed-2 min chain to depth 8
MILLS_OFFSETS = (3, 30, 6, 80, 12, 450, 894)


def mills_primes() -> list[int]:
    primes = [2]
    for offset in MILLS_OFFSETS:
        primes.append(primes[-1] ** 3 + offset)
    return primes


@pytest.fixture
def builtin_modexp(monkeypatch):
    """Force the builtin pow: the cached libgmp handle reads as unavailable."""
    monkeypatch.setattr(primality, "_gmp", False)


@st.composite
def modexp_args(draw):
    """(a, e, n): n from 2^64 - 1 and 2^64 + 1 up to 8000 bits, even ones
    included; a among 0, 1, n - 1 and values beyond n; e among 0, 1 and
    up to 600 bits, so the builtin reference stays fast (full-size
    exponents are tested separately)."""
    n = draw(
        st.sampled_from((TWO64 - 1, TWO64 + 1))
        | st.integers(64, 8000).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))
    )
    a = draw(
        st.sampled_from((0, 1, n - 1, n, n + 1))
        | st.integers(0, n - 1)
        | st.integers(n, 5 * n)
    )
    e = draw(st.sampled_from((0, 1, 2)) | st.integers(0, (1 << 600) - 1))
    return a, e, n


class TestModexp:
    @given(modexp_args())
    @settings(max_examples=120, deadline=None)
    def test_powmod_matches_pow(self, args):
        a, e, n = args
        assert primality._powmod(a, e, n) == pow(a, e, n)

    @pytest.mark.parametrize("bits", [64, 65, 840, 2530])
    def test_full_size_exponents(self, bits):
        rng = random.Random(bits)
        n = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
        for a in (2, rng.randrange(n), n - 1):
            assert primality._powmod(a, n - 1, n) == pow(a, n - 1, n)

    def test_only_big_odd_moduli_reach_libgmp(self, monkeypatch):
        seen = []

        def spy(a, e, n):
            seen.append(n)
            return pow(a, e, n)

        monkeypatch.setattr(primality, "_gmp", ("spy", spy))
        assert pk.modexp_backend() == "gmp spy"
        for n in (TWO64 - 1, TWO64, TWO64 + 1, 3 * TWO64, (1 << 65) + 1):
            assert primality._powmod(3, 5, n) == pow(3, 5, n)
        assert primality._powmod(-3, 5, TWO64 + 1) == pow(-3, 5, TWO64 + 1)
        assert primality._powmod(3, -1, TWO64 + 1) == pow(3, -1, TWO64 + 1)
        assert seen == [TWO64 + 1, (1 << 65) + 1]

    def test_concurrent_calls(self):
        # the foreign calls release the GIL; each call owns its values
        rng = random.Random(5)
        cases = []
        for _ in range(48):
            n = rng.getrandbits(1024) | 1 | (1 << 1023)
            cases.append((rng.randrange(n), rng.getrandbits(256), n))
        want = [pow(*case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(primality._powmod, *case) for case in cases * 4]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 4

    def test_fallback_is_the_builtin(self, builtin_modexp):
        assert pk.modexp_backend() == "builtin"
        n = (1 << 127) - 1
        assert primality._powmod(3, n - 1, n) == 1

    def test_backend_report(self):
        backend = pk.modexp_backend()
        assert backend == "builtin" or backend.startswith("gmp ")

    def test_verdicts_identical_under_both_backends(self, monkeypatch):
        chain = mills_primes()
        big = [p for p in chain if p.bit_length() >= 256]
        products = [p * q for i, p in enumerate(big) for q in big[i:]]
        values = [*SPSP2, CARMICHAEL, *chain, *products]
        with_gmp = [pk.is_prime(n) for n in values]
        sprp2 = [primality._sprp(n, 2) for n in SPSP2]
        monkeypatch.setattr(primality, "_gmp", False)
        assert [pk.is_prime(n) for n in values] == with_gmp
        assert [primality._sprp(n, 2) for n in SPSP2] == sprp2 == [True] * 4
        composite, small_prime = (False, "deterministic"), (True, "deterministic")
        expected = (
            [composite] * 5  # the pseudoprimes and the Carmichael number
            + [small_prime] * 4  # the chain below 2^64
            + [(True, "probable:32")] * 4
            + [composite] * len(products)
        )
        assert [(v.is_prime, v.certainty) for v in with_gmp] == expected
        assert [p.bit_length() for p in big] == [282, 844, 2530]


def test_libgmp_loads_lazily():
    """Import, the CLI module and a sieve-only explore never try libgmp;
    the first primality test above 2^64 does."""
    probe = """
import prckit, prckit.cli
from prckit import primality

def mapped():
    try:
        with open("/proc/self/maps") as maps:
            return "libgmp" in maps.read()
    except OSError:
        return None

prckit.explore_tree(prckit.parse_exponent_spec("const:3"), (2, 2), 2)
print(primality._gmp is None, mapped())
prckit.is_prime((1 << 89) - 1)
print(primality._gmp is not None, mapped(), primality.modexp_backend())
"""
    out = run_probe(probe)
    untried, mapped_before = out[0].split()
    assert untried == "True" and mapped_before in ("False", "None")
    tried, mapped_after, backend = out[1].split(maxsplit=2)
    assert tried == "True"
    if backend.startswith("gmp") and mapped_after != "None":
        assert mapped_after == "True"


def test_pool_starts_lazily():
    """Import, the CLI module and a sieve-only explore start no thread and
    leave concurrent.futures unimported; a 2530-bit is_prime then starts
    at most min(4, usable CPUs) pool threads."""
    probe = """
import os, sys, threading
import prckit, prckit.cli

prckit.explore_tree(prckit.parse_exponent_spec("const:3"), (2, 2), 2)
print("concurrent.futures" in sys.modules, threading.active_count())
p = 2
for offset in (3, 30, 6, 80, 12, 450, 894):
    p = p**3 + offset
assert p.bit_length() == 2530 and prckit.is_prime(p).is_prime
cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
print(threading.active_count() - 1, cpus)
"""
    out = run_probe(probe)
    assert out[0] == "False 1"
    started, cpus = map(int, out[1].split())
    assert started <= min(4, cpus)


def test_numpy_loads_on_first_enumeration(tmp_path):
    """Import, ``--version``, a refused ``verify``, ``build_chain``,
    ``verify_chain``, ``prc_digits`` and the ``chain``, ``digits``,
    ``approx`` and ``verify`` commands load no numpy (the first three nor
    ctypes, nor concurrent.futures; the library calls nor ``prckit.sieve``);
    the first ``count_primes_in_range``, ``primes_in_range`` or ``explore``
    does."""
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"primes": ["2"]}')
    chain_file = tmp_path / "chain.json"
    probe = f"""
import contextlib, io, sys
import prckit, prckit.cli

print(*(name in sys.modules for name in ("numpy", "ctypes", "concurrent.futures")))
with contextlib.redirect_stdout(io.StringIO()) as version:
    try:
        prckit.cli.main(["--version"])
    except SystemExit as exc:
        code = exc.code
print(code, version.getvalue().strip() == prckit.__version__, "numpy" in sys.modules)
code = prckit.cli.main(["verify", "--chain-file", {str(malformed)!r}])
print(code, "numpy" in sys.modules)
chain = prckit.build_chain(prckit.parse_exponent_spec("const:3"), 2, 6)
report, digits = prckit.verify_chain(chain), prckit.prc_digits(chain, 50)
print(report.passed, digits.agreed_places > 0, "numpy" in sys.modules, "prckit.sieve" in sys.modules)
spec = ["--exps", "const:3", "--seed", "2", "--depth", "6"]
codes = []
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes.append(prckit.cli.main(["chain", *spec]))
with open({str(chain_file)!r}, "w") as f:
    f.write(out.getvalue())
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(prckit.cli.main(["digits", *spec]))
    codes.append(prckit.cli.main(["approx", *spec, "--max-den", "10"]))
    codes.append(prckit.cli.main(["verify", "--chain-file", {str(chain_file)!r}]))
print(*codes, "numpy" in sys.modules)
"""
    loads = """
import contextlib, io, sys
import prckit, prckit.cli

{}
print("numpy" in sys.modules)
"""
    out = run_probe(probe + "prckit.count_primes_in_range(10, 20)\nprint('numpy' in sys.modules)")
    assert out[:4] == ["False False False", "0 True False", "66 False", "True True False False"]
    assert out[4:6] == ["0 0 0 0 False", "True"]
    assert run_probe(loads.format("prckit.primes_in_range(10, 20)"))[0] == "True"
    explore = """
with contextlib.redirect_stdout(io.StringIO()):
    prckit.cli.main(["explore", "--exps", "const:3", "--seeds", "2:3", "--depth", "1"])"""
    assert run_probe(loads.format(explore))[0] == "True"


# ---------------------------------------------------------------------------
# the strong Lucas test: one V-only ladder, in Python ints and on libgmp

# Strong Lucas pseudoprimes (OEIS A217255): odd composites that pass.
SLPSP = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439)


def strong_lucas_uv(n: int) -> bool:
    """The strong Lucas test by the U, V ladder with Selfridge parameters
    (n odd and no square): the reference for the V-only ladder."""
    D = 5
    while True:
        j = sympy.jacobi_symbol(D % n, n)
        if j == 0:
            return False
        if j == -1:
            break
        D = -(D + 2) if D > 0 else -(D - 2)
    P, Q = 1, (1 - D) // 4
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


@pytest.fixture(scope="module")
def gmp():
    handle = primality._libgmp()
    if not handle:
        pytest.skip("libgmp does not load here")
    return handle


@st.composite
def ladder_args(draw):
    """(pp, m, n): odd n of 2 to 8000 bits, so on both sides of the libgmp
    cutoff; pp among 0, 1, 2, n - 1 and any residue; m among 0, 1, 2 and
    up to 600 bits, so the Python ladder stays fast (full-length ladders
    are tested separately)."""
    n = draw(st.integers(2, 8000).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)))
    n |= 1
    pp = draw(st.sampled_from((0, 1, 2, n - 1)) | st.integers(0, n - 1))
    m = draw(st.sampled_from((0, 1, 2)) | st.integers(0, (1 << 600) - 1))
    return pp, m, n


class TestStrongLucas:
    @given(ladder_args())
    @settings(max_examples=150, deadline=None)
    def test_libgmp_ladder_matches_python(self, gmp, args):
        pp, m, n = args
        assert gmp[2](pp, m, n) == primality._lucas_v(pp, m, n)

    @pytest.mark.parametrize("bits", [767, 768, 2530, 4096])
    def test_full_length_ladders(self, gmp, bits):
        rng = random.Random(bits)
        n = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
        pp, m = rng.randrange(n), (n + 1) >> 2
        assert gmp[2](pp, m, n) == primality._lucas_v(pp, m, n)

    def test_verdicts_match_the_uv_ladder(self, monkeypatch):
        # every odd non-square to 6001 (small factors included), the strong
        # Lucas pseudoprimes, the strong base-2 pseudoprimes, the chain
        # primes from 2^64 and their products
        chain = [p for p in mills_primes() if p >= TWO64]
        values = [n for n in range(3, 6002, 2) if isqrt(n) ** 2 != n]
        values += [*SLPSP, *SPSP2, CARMICHAEL, *chain]
        values += [p * q for i, p in enumerate(chain) for q in chain[i + 1 :]]
        want = [strong_lucas_uv(n) for n in values]
        verdicts = {}
        for side, cutoff in (("python", 1 << 30), ("libgmp", 0)):
            monkeypatch.setattr(primality, "_LUCAS_GMP_BITS", cutoff)
            verdicts[side] = [primality._strong_lucas_prp(n) for n in values]
        assert verdicts["python"] == verdicts["libgmp"] == want
        passed = {n for n, ok in zip(values, want) if ok}
        assert passed.issuperset(SLPSP) and passed.issuperset(chain)
        assert passed.isdisjoint(SPSP2) and CARMICHAEL not in passed


# ---------------------------------------------------------------------------
# the test pool: verdicts, scan order and budgets do not depend on it


@pytest.fixture
def inline_tests(monkeypatch):
    """Force every test inline, as with one usable CPU."""
    monkeypatch.setattr(primality, "_pool", False)


@pytest.fixture
def pooled_tests(monkeypatch):
    """A fresh two-worker pool that takes the tests of every value from
    2^64 (what pooled tests need: libgmp)."""
    if not primality._libgmp():
        pytest.skip("nothing runs pooled without libgmp")
    executor = ThreadPoolExecutor(2, "prckit-test")
    monkeypatch.setattr(primality, "_pool", (executor, 2))
    monkeypatch.setattr(primality, "_POOL_MIN_BITS", 0)
    yield executor
    executor.shutdown()


def pool_threads(monkeypatch) -> list[str]:
    """Names of the threads that run each strong probable prime test from
    now on."""
    sprp, names = primality._sprp, []

    def spy(n, a):
        names.append(threading.current_thread().name)
        return sprp(n, a)

    monkeypatch.setattr(primality, "_sprp", spy)
    return names


def chain_values() -> list[int]:
    chain = mills_primes()
    big = [p for p in chain if p.bit_length() >= 256]
    products = [p * q for i, p in enumerate(big) for q in big[i:]]
    return [*SPSP2, CARMICHAEL, *chain, *products]


class TestPool:
    def test_verdicts_and_tiers_identical_with_the_pool_off(self, inline_tests):
        # the same cases and expectations as under both modexp backends
        values = chain_values()
        expected = [pk.is_prime(n) for n in values]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primality, "_pool", None)  # default: made on first use
            assert [pk.is_prime(n) for n in values] == expected
        assert [(v.is_prime, v.certainty) for v in expected].count((True, "probable:32")) == 4

    def test_verdicts_identical_with_every_size_pooled(self, pooled_tests, monkeypatch):
        values = chain_values()
        names = pool_threads(monkeypatch)
        pooled = [pk.is_prime(n) for n in values]
        assert any(name.startswith("prckit-test") for name in names)
        monkeypatch.setattr(primality, "_pool", False)
        assert [pk.is_prime(n) for n in values] == pooled

    @pytest.mark.parametrize("descending", [False, True])
    def test_first_prime_in_scan_order_wins(self, pooled_tests, monkeypatch, descending):
        # twin primes: both are survivors tested in one batch, and the base-2
        # test of the first in scan order is made to finish last
        p = (1 << 100) + 5635
        assert sympy.isprime(p) and sympy.isprime(p + 2)
        first = p + 2 if descending else p
        sprp, tested = primality._sprp, []

        def slow_first(n, a):
            if a == 2:
                tested.append(n)
                if n == first and tested.count(first) == 1:  # the scan's test
                    time.sleep(0.2)
            return sprp(n, a)

        monkeypatch.setattr(primality, "_sprp", slow_first)
        verdict = scan_range(p, p + 3, descending=descending)
        assert verdict == pk.is_prime(first) and verdict.value == first
        assert sorted(tested[:2]) == [p, p + 2]

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("p", [(1 << 100) + 5635, 10**9 + 7])  # p and p + 2 are prime
    def test_base_2_runs_once_per_found_prime(self, pooled_tests, monkeypatch, descending, p):
        # from 2^64 the scan's base-2 test of the found prime is not repeated
        # by the rest of its test; below, the whole 12-base set still runs
        found = p + 2 if descending else p
        expected = pk.is_prime(found)
        sprp, bases = primality._sprp, []

        def spy(n, a):
            if n == found:
                bases.append(a)
            return sprp(n, a)

        monkeypatch.setattr(primality, "_sprp", spy)
        assert scan_range(p, p + 3, descending=descending) == expected
        if p > TWO64:
            assert expected.certainty == "probable:32"
            assert bases.count(2) == 1 and len(bases) == 1 + 32
        else:
            assert expected.certainty == "deterministic"
            assert bases == [2, *primality._MR_BASES_64]

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("p", [(1 << 100) + 5635, 10**9 + 7])
    def test_base_2_runs_once_per_found_prime_inline(
        self, inline_tests, monkeypatch, descending, p
    ):
        # the same bases as on the pool: scans take one path with or without it
        self.test_base_2_runs_once_per_found_prime(None, monkeypatch, descending, p)

    @pytest.mark.parametrize("descending", [False, True])
    def test_budget_exhaustion_identical_with_the_pool_off(self, monkeypatch, descending):
        # 2530 bits, no prime: p_8 = p_7^3 + 894 is the least prime from p_7^3
        lo = mills_primes()[-2] ** 3
        hi = lo + 894

        def exhausted():
            with pytest.raises(pk.WindowSearchExhausted) as err:
                pk.find_prime_in_range(lo, hi, budget=100, descending=descending)
            return str(err.value), err.value.tested, err.value.scanned_all

        pooled = exhausted()
        monkeypatch.setattr(primality, "_pool", False)
        assert exhausted() == pooled
        assert pooled == (f"no prime found in [{lo}, {hi}) after 100 candidates", 100, False)

    def test_callers_on_many_threads_share_one_pool(self, monkeypatch):
        if not primality._libgmp():
            pytest.skip("nothing runs pooled without libgmp")
        import concurrent.futures

        made = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        values = chain_values()
        monkeypatch.setattr(primality, "_pool", False)
        want = [pk.is_prime(n) for n in values]
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        monkeypatch.setattr(primality, "_POOL_MIN_BITS", 0)
        monkeypatch.setattr(primality, "_pool", None)  # made by the first caller
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as callers:
                runs = [callers.submit(lambda: [pk.is_prime(n) for n in values]) for _ in range(6)]
                got = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
            for pool in made:
                pool.shutdown()
        assert got == [want] * 6
        assert len(made) == (0 if primality._pool is False else 1)  # False: one CPU


# ---------------------------------------------------------------------------
# the in-order scheduler every test call runs through


def delayed(seconds: float, value):
    time.sleep(seconds)
    return value


class TestInOrder:
    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_results_come_in_call_order(self, workers):
        # on two workers the later, shorter calls finish first
        calls = [(delayed, 0.03 * (3 - k), k) for k in range(4)]
        if workers is None:
            got = list(primality._in_order(None, calls, 2))
        else:
            with ThreadPoolExecutor(workers) as executor:
                got = list(primality._in_order((executor, workers), calls, workers))
        assert got == [(call, k) for k, call in enumerate(calls)]

    def test_closing_cancels_the_queued_calls(self):
        # one worker, three calls ahead: the first returns at once, the
        # second holds the worker, so the third waits in the queue when the
        # generator is closed; it never runs, and the fourth is never submitted
        held, ran = threading.Event(), []
        calls = [(int,), (held.wait, 10), (ran.append, 3), (ran.append, 4)]
        with ThreadPoolExecutor(1) as executor:
            results = primality._in_order((executor, 1), calls, 3)
            assert next(results) == ((int,), 0)
            results.close()
            held.set()
        assert ran == []

    def test_inline_calls_run_lazily_and_stop_at_close(self):
        ran = []
        results = primality._in_order(None, [(ran.append, k) for k in range(3)], 3)
        assert ran == []
        assert next(results) == ((ran.append, 0), None)
        results.close()
        assert ran == [0]
