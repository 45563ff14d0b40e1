import time
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import prckit as pk
from prckit.core import CertifiedDecimalInterval


def brute_root(n, r):
    m = 0
    while (m + 1) ** r <= n:
        m += 1
    return m


class TestNthRootFloor:
    @pytest.mark.parametrize(
        "n,r,expect",
        [(26, 3, 2), (27, 3, 3), (1, 5, 1), (1, 1000, 1), (0, 7, 0), (10**18, 6, 1000)],
    )
    def test_examples(self, n, r, expect):
        assert pk.nth_root_floor(n, r) == expect

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pk.nth_root_floor(10, 0)
        with pytest.raises(ValueError):
            pk.nth_root_floor(-1, 2)

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10))
    @settings(max_examples=400, deadline=None)
    def test_matches_brute_force(self, n, r):
        m = pk.nth_root_floor(n, r)
        assert m == brute_root(n, r)
        assert m**r <= n < (m + 1) ** r

    @given(st.integers(min_value=1, max_value=10**40), st.integers(min_value=1, max_value=1000))
    @settings(max_examples=150, deadline=None)
    def test_perfect_power_roundtrip(self, a, r):
        assert pk.nth_root_floor(a**r, r) == a

    def test_huge_radicand(self):
        n = 11**81 * 10**729
        m = pk.nth_root_floor(n, 729)
        assert m**729 <= n < (m + 1) ** 729


class TestScaledRootFloor:
    # prime powers, mixed composites, and a list-style order whose prime
    # cofactor 1009 is rooted whole
    ORDERS = (4, 6, 8, 9, 27, 64, 81, 120, 243, 720, 2187, 3 * 1009)

    @staticmethod
    def one_shot(value, order, d):
        return pk.nth_root_floor(value * 10 ** (d * order), order)

    @given(
        st.sampled_from(ORDERS),
        st.integers(min_value=0, max_value=2**900),
        st.data(),
    )
    @example(order=2187, value=2**842 + 1, data=None)  # composed: one-shot ~22k bits
    @example(order=81, value=11, data=None)  # one-shot: below the cutoff
    @settings(max_examples=40, deadline=None)
    def test_matches_one_shot_root(self, order, value, data):
        # d reaches one-shot radicands of about 2.5 * 2^14 bits, so draws
        # fall on both sides of the 2^14-bit composition cutoff
        d_max = (3 << 14) // (4 * order)
        d = 3 if data is None else data.draw(st.integers(min_value=0, max_value=d_max))
        assert pk.scaled_root_floor(value, order, d) == self.one_shot(value, order, d)

    @pytest.mark.parametrize(
        "value,order",
        [(8, 3), (1, 9), (2**729, 729), (10**81, 81), (2**729 - 1, 729), (10**81 - 1, 81)],
    )
    def test_perfect_powers_and_neighbours(self, value, order):
        for d in (0, 2, 12, 40):
            assert pk.scaled_root_floor(value, order, d) == self.one_shot(value, order, d)

    def test_composed_path_and_one_shot_fallback(self, monkeypatch):
        # (2^729 - 1)^(1/729) lies just below 2, so the composed lower chain
        # ends below the digit boundary and the upper chain on it: the
        # one-shot root decides.  3 * 2^729 is settled by the small roots.
        from prckit import radix

        value = 3 * 2**729
        expected = self.one_shot(value, 729, 12)
        radicands = []
        root = radix.nth_root_floor

        def spy(n, r):
            radicands.append(n)
            return root(n, r)

        monkeypatch.setattr(radix, "nth_root_floor", spy)
        assert radix.scaled_root_floor(2**729 - 1, 729, 12) == 2 * 10**12 - 1
        assert (2**729 - 1) * 10 ** (12 * 729) in radicands
        # the fallback's ~29.8k-bit radicand is refused under a 2^14 ceiling,
        # after the composed steps ran
        radicands.clear()
        small = replace(pk.DEFAULT_CONFIG, radicand_bit_ceiling=1 << 14)
        with pytest.raises(pk.BitCeilingError, match="root order 729 needs about"):
            radix.scaled_root_floor(2**729 - 1, 729, 12, small)
        assert radicands and max(radicands).bit_length() < 1000
        radicands.clear()
        assert radix.scaled_root_floor(value, 729, 12) == expected
        assert max(radicands).bit_length() < 1000  # one-shot needs ~29k bits

    @given(
        st.sampled_from(ORDERS + (83, 1009)),
        st.integers(min_value=0, max_value=2**900),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=10, max_value=1 << 15),
    )
    @example(order=2187, value=2**842 + 1, d=12, ceiling=1 << 10)  # composed, refused
    @example(order=729, value=2**729 - 1, d=12, ceiling=1 << 14)  # fallback, refused
    @settings(max_examples=60, deadline=None)
    def test_no_radicand_above_the_ceiling_is_built(self, order, value, d, ceiling):
        from prckit import radix

        config = replace(pk.DEFAULT_CONFIG, radicand_bit_ceiling=ceiling)
        radicands = []
        root = radix.nth_root_floor

        def spy(n, r):
            radicands.append(n.bit_length())
            return root(n, r)

        # hypothesis forbids function-scoped fixtures, so patch by hand
        radix.nth_root_floor = spy
        try:
            got = radix.scaled_root_floor(value, order, d, config)
        except pk.BitCeilingError:
            got = None
        finally:
            radix.nth_root_floor = root
        assert all(bits <= ceiling for bits in radicands)
        if got is not None:
            assert got == self.one_shot(value, order, d)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pk.scaled_root_floor(10, 0, 3)
        with pytest.raises(ValueError):
            pk.scaled_root_floor(10, 9, -1)
        with pytest.raises(ValueError):
            pk.scaled_root_floor(-1, 9, 3)


class TestCertifiedRootEnclosure:
    def test_brackets_pair_by_powering(self):
        # contract: the interval contains [p^(1/C), (p+1)^(1/C)] exactly
        enc = pk.certified_root_enclosure(11, 9, 4)
        assert enc.lo_mantissa == 13052  # floor(11^(1/9) * 10^4)
        assert enc.lo_mantissa**9 <= 11 * 10**36
        assert enc.hi_mantissa**9 > 12 * 10**36
        assert (enc.hi_mantissa - 1) ** 9 <= 12 * 10**36

    def test_unit_value(self):
        for C, d in [(3, 2), (7, 5), (1, 4)]:
            enc = pk.certified_root_enclosure(1, C, d)
            assert enc.lo_mantissa == 10**d

    def test_cube_example(self):
        enc = pk.certified_root_enclosure(8, 3, 2)
        assert enc.lo_mantissa == 200  # 8^(1/3) = 2 exactly
        assert enc.hi_mantissa == 209  # 9^(1/3) = 2.0800...
        assert enc.agreed_digits() == ("2.0", 1)

    def test_point_enclosure_one_ulp(self):
        for d in (3, 6, 9):
            enc = pk.point_root_enclosure(11, 9, d)
            assert enc.hi_mantissa - enc.lo_mantissa == 1
            assert enc.width == Fraction(1, 10**d)
            assert enc.lo_mantissa**9 <= 11 * 10 ** (9 * d) < enc.hi_mantissa**9

    def test_pair_width_tightens_to_true_width(self):
        # outward slack is at most 2 ulp at any precision
        for d in (4, 6, 8):
            enc = pk.certified_root_enclosure(11, 9, d)
            tight = pk.certified_root_enclosure(11, 9, d + 6)
            slack = enc.width - tight.width
            assert 0 <= slack <= Fraction(2, 10**d)

    def test_bit_ceiling_refusal(self):
        # the ceiling bounds the radicands actually built: a prime order is
        # rooted one-shot (~28k bits), order 81 = 3^4 in cube roots (~1.1k)
        small = replace(pk.DEFAULT_CONFIG, radicand_bit_ceiling=1 << 12)
        with pytest.raises(pk.BitCeilingError) as err:
            pk.certified_root_enclosure(11, 83, 100, small)
        assert err.value.max_feasible_digits is not None
        assert err.value.max_feasible_digits < 100
        one_shot = TestScaledRootFloor.one_shot
        assert pk.certified_root_enclosure(11, 81, 100, small) == CertifiedDecimalInterval(
            one_shot(11, 81, 100), one_shot(12, 81, 100) + 1, 100
        )
        tiny = replace(pk.DEFAULT_CONFIG, radicand_bit_ceiling=1 << 10)
        with pytest.raises(pk.BitCeilingError) as err:
            pk.certified_root_enclosure(11, 81, 100, tiny)
        assert err.value.max_feasible_digits < 100

    @staticmethod
    def decoded_powfact_chain(length):
        """A decoded powfact:3 chain of ``length`` primes "2" (order 3^(k!)
        at depth k), never verified."""
        chain = pk.build_chain(pk.parse_exponent_spec("powfact:3"), 2, 2, "min", pk.EMPIRICAL)
        doc = chain.to_json_dict()
        doc.update(primes=["2"] * length, certainty=["deterministic"] * length)
        doc["requested_depth"] = str(length)
        return pk.PrimeChain.from_json_dict(doc)

    def test_huge_orders_refused_before_any_float(self):
        # d*order past the ceiling and 2^1024 is refused in integers, where
        # the float estimate of the radicand bits raised OverflowError
        from prckit import radix

        started = time.monotonic()
        with pytest.raises(pk.BitCeilingError, match="at a 1101-bit root order") as err:
            radix.scaled_root_floor(2, 2**1100, 1)
        assert err.value.max_feasible_digits == 0
        with pytest.raises(pk.BitCeilingError, match="at a 575152-bit root order"):
            pk.prc_digits(self.decoded_powfact_chain(9), 10)
        assert time.monotonic() - started < 1
        # from 2^1024 down, the bit estimates are taken in integers too: a
        # 1024-bit order that rounds to 2^1024 as a float, and an order 2q
        # whose largest factor q (near 2^1020, none below 2^10) passes the
        # float range in the guard of the composed roots, are refused there
        q = sympy.nextprime(2**1020)
        for order in (2**1024 - 1, 2 * q):
            assert order.bit_length() <= 1024
            with pytest.raises(pk.BitCeilingError, match="at root order") as err:
                radix.scaled_root_floor(2, order, 1)
            assert err.value.max_feasible_digits == 0
        # below 2^1024 nothing changes: five primes give digits (order
        # 3^120), a 1024-bit order 3^646 composes 646 cube roots, and 1006
        # digits at order 3^9 (a const:3 depth-9 chain's 1000 places)
        # compose cube roots, though d*order passes the ceiling
        assert (3**646).bit_length() == 1024 and radix.scaled_root_floor(2, 3**646, 1) == 10
        assert pk.prc_digits(self.decoded_powfact_chain(5), 10).digits == "1.0000000000"
        value = 2**7589 + 1
        assert 1006 * 3**9 > pk.DEFAULT_CONFIG.radicand_bit_ceiling
        full = radix.scaled_root_floor(value, 3**9, 1006)
        assert full // 10**956 == radix.scaled_root_floor(value, 3**9, 50)


class TestPrcDigits:
    def test_mills_depth_four(self, mills_chain):
        res = pk.prc_digits(mills_chain, 40)
        assert res.digits.startswith("1.3063")
        assert res.chain_depth_used == 4
        # enclosure brackets the pair by powering
        C = 81
        d = res.enclosure.digits_after_point
        assert res.enclosure.lo_mantissa**C <= 2521008887 * 10 ** (d * C)
        assert res.enclosure.hi_mantissa**C > 2521008888 * 10 ** (d * C)

    def test_max_digits_cap(self, mills_chain):
        res = pk.prc_digits(mills_chain, 5)
        assert res.agreed_places == 5
        assert res.digits == "1.30637"

    def test_deeper_chains_extend_the_prefix(self):
        exps = pk.parse_exponent_spec("const:3")
        prev = ""
        for depth in (2, 3, 4):
            chain = pk.build_chain(exps, 2, depth)
            digits = pk.prc_digits(chain, 60).digits
            assert digits.startswith(prev)
            prev = digits

    def test_powfact3_reaches_86_places(self, powfact3_chain):
        res = pk.prc_digits(powfact3_chain, 1000)
        assert res.digits.startswith("1.3052998807")
        assert res.agreed_places >= 86

    def test_every_certified_digit_matches_high_precision_oracle(
        self, powfact3_chain, factorial_chain, mills_chain
    ):
        # every agreed digit, not just the headline prefix, must equal the
        # truncation of an independently computed high-precision root
        from mpmath import mp

        mp.dps = 420
        for chain in (powfact3_chain, factorial_chain, mills_chain):
            res = pk.prc_digits(chain, 1000)
            p = chain.primes[-1]
            order = chain.exps.partial_product(chain.depth)
            root = mp.power(p, mp.mpf(1) / order)
            want = int(mp.floor(root * mp.mpf(10) ** res.agreed_places))
            assert int(res.digits.replace(".", "")) == want

    def test_max_chain_digits(self):
        # right sub-boundary approach: greatest prime of every window
        from mpmath import mp

        chain = pk.build_chain(pk.parse_exponent_spec("const:3"), 2, 4, "max")
        res = pk.prc_digits(chain, 60)
        mp.dps = 60
        root = mp.power(chain.primes[-1], mp.mpf(1) / 81)
        want = int(mp.floor(root * mp.mpf(10) ** res.agreed_places))
        assert int(res.digits.replace(".", "")) == want


class TestDeepDigits:
    """Chains past the old one-shot ceiling, rebuilt from recorded offsets."""

    MILLS_MIN = (3, 30, 6, 80, 12, 450, 894)  # p_{k+1} = p_k^3 + offset
    MILLS_MAX = (4, 17, 3, 101, 459, 961, 1123)  # p_{k+1} = (p_k + 1)^3 - offset
    FACTORIAL = (1, 2, 22, 104, 700, 3710)  # p_k = p_{k-1}^k + offset

    @staticmethod
    def chain(spec, primes, mode):
        return pk.PrimeChain(
            exps=pk.parse_exponent_spec(spec),
            primes=tuple(primes),
            mode=mode,
            certainty=("probable:32",) * len(primes),
            policy=pk.EMPIRICAL,
            conditional=False,
        )

    @staticmethod
    def assert_matches_mpmath(chain, result):
        # the digits truncate both bracket endpoints p^(1/C) and (p+1)^(1/C)
        from mpmath import mp

        order = chain.exps.partial_product(chain.depth)
        places = result.agreed_places
        mantissa = int(result.digits.replace(".", ""))
        with mp.workdps(places + 40):
            for p in (chain.primes[-1], chain.primes[-1] + 1):
                root = mp.power(p, mp.mpf(1) / order)
                assert int(mp.floor(root * mp.mpf(10) ** places)) == mantissa

    def test_mills_depth_eight_min(self):
        primes = [2]
        for offset in self.MILLS_MIN:
            primes.append(primes[-1] ** 3 + offset)
        chain = self.chain("const:3", primes, "min")
        result = pk.prc_digits(chain, 5000)
        assert result.agreed_places == 765
        assert result.digits.startswith("1.3063778838")
        self.assert_matches_mpmath(chain, result)

    def test_mills_depth_eight_max(self):
        primes = [2]
        for offset in self.MILLS_MAX:
            primes.append((primes[-1] + 1) ** 3 - offset)
        chain = self.chain("const:3", primes, "max")
        result = pk.prc_digits(chain, 5000)
        assert result.agreed_places == 1009
        self.assert_matches_mpmath(chain, result)

    def test_factorial_depth_seven(self):
        primes = [2]
        for k, offset in enumerate(self.FACTORIAL, start=2):
            primes.append(primes[-1] ** k + offset)
        chain = self.chain("factorial", primes, "min")
        result = pk.prc_digits(chain, 5000)
        assert result.agreed_places == 1770
        self.assert_matches_mpmath(chain, result)


class TestVerifyFloorRecovery:
    def test_powfact3_recovers_shallow_primes(self, powfact3_chain):
        res = pk.prc_digits(powfact3_chain, 200)
        # C_1 = 3 recovers the seed, C_2 = 9 recovers 11
        assert pk.verify_floor_recovery(res.enclosure, 3, 2) is True
        assert pk.verify_floor_recovery(res.enclosure, 9, 11) is True
        assert pk.verify_floor_recovery(res.enclosure, 9, 13) is False

    def test_factorial_recovers_127(self, factorial_digits):
        assert pk.verify_floor_recovery(factorial_digits.enclosure, 6, 127) is True

    def test_degenerate_enclosure(self):
        assert pk.verify_floor_recovery(CertifiedDecimalInterval(2, 2, 0), 5, 32) is True
        assert pk.verify_floor_recovery(CertifiedDecimalInterval(2, 2, 0), 5, 31) is False

    def test_deepest_level_is_indeterminate(self, mills_chain):
        # outward rounding spills across both floor boundaries at the
        # chain's own depth, so the verdict is indeterminate, not False
        res = pk.prc_digits(mills_chain, 40)
        assert pk.verify_floor_recovery(res.enclosure, 81, 2521008887) is None

    def test_next_refinement_recovers_the_deepest_prime(self):
        exps = pk.parse_exponent_spec("const:3")
        deeper = pk.build_chain(exps, 2, 5)
        res = pk.prc_digits(deeper, 60)
        assert pk.verify_floor_recovery(res.enclosure, 81, 2521008887) is True


class TestRationalApproxScan:
    def test_powfact3_all_separated(self, powfact3_chain):
        enc = pk.prc_digits(powfact3_chain, 100).enclosure
        records = pk.rational_approx_scan(enc, 10)
        assert all(not r.inside for r in records)
        by_den = {r.den: r for r in records}
        r10 = by_den[10]
        assert (r10.num, r10.den) == (13, 10)
        assert r10.separation >= Fraction(52, 10000)

    def test_degenerate_exact_hit(self):
        enc = CertifiedDecimalInterval(15, 15, 1)
        records = pk.rational_approx_scan(enc, 2)
        assert records[1].den == 2 and records[1].num == 3 and records[1].inside
        assert records[1].separation is None
        assert records[0].separation == Fraction(1, 2)

    def test_factorial_scan_to_100(self, factorial_digits):
        records = pk.rational_approx_scan(factorial_digits.enclosure, 100)
        assert all((not r.inside) and r.separation > 0 for r in records)

    def test_wide_enclosure_refused(self):
        with pytest.raises(ValueError):
            pk.rational_approx_scan(CertifiedDecimalInterval(10, 15, 1), 5)
