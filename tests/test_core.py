import json
import math
import sys
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

import prckit as pk
from prckit.core import CertifiedDecimalInterval, decimal_length


class TestExponentSequences:
    def test_const_terms(self):
        seq = pk.parse_exponent_spec("const:3")
        assert [seq.term(k) for k in (1, 2, 5)] == [3, 3, 3]
        assert seq.partial_product(4) == 3**4

    def test_factorial_terms(self):
        seq = pk.parse_exponent_spec("factorial")
        assert seq.term(1) == 1
        assert seq.term(6) == 6
        assert seq.partial_product(6) == 720

    def test_powfact_terms_telescope(self):
        seq = pk.parse_exponent_spec("powfact:3")
        assert seq.term(1) == 3
        assert seq.term(2) == 3  # 3^(2!-1!)
        assert seq.term(3) == 81  # 3^(3!-2!)
        assert seq.partial_product(2) == 9
        assert seq.partial_product(3) == 729

    @pytest.mark.parametrize("base", [2, 3, 5])
    def test_powfact_partial_product_is_base_to_factorial(self, base):
        seq = pk.ExponentSequence("powfact", base=base)
        for k in range(1, 6):
            assert seq.partial_product(k) == base ** math.factorial(k)

    def test_explicit_list(self):
        seq = pk.parse_exponent_spec("list:3,4,5")
        assert seq.partial_product(3) == 60
        assert seq.max_depth == 3
        with pytest.raises(pk.ExponentSpecError):
            seq.term(4)

    def test_partial_product_recurrence(self):
        for spec in ("const:2", "factorial", "powfact:2", "list:1,2,3,4"):
            seq = pk.parse_exponent_spec(spec)
            for k in range(1, min(5, seq.max_depth)):
                assert seq.partial_product(k + 1) == seq.partial_product(k) * seq.term(k + 1)

    @pytest.mark.parametrize(
        "spec", ["const:3", "factorial", "powfact:3", "list:3,4,5", "const:17"]
    )
    def test_parse_render_roundtrip(self, spec):
        assert pk.parse_exponent_spec(spec).render() == spec

    @given(st.integers(min_value=2, max_value=10**6))
    def test_parse_render_roundtrip_const(self, c):
        assert pk.parse_exponent_spec(f"const:{c}").render() == f"const:{c}"

    @pytest.mark.parametrize(
        "bad",
        ["", "const", "const:", "const:x", "list:", "powfact:-2", "fact", "list:3,,4"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(pk.ExponentSpecError):
            pk.parse_exponent_spec(bad)

    @pytest.mark.parametrize(
        "bad,term",
        [("const:1", "2"), ("powfact:1", "2"), ("list:0", "1"), ("list:3,1,5", "2")],
    )
    def test_term_conditions_rejected_with_index(self, bad, term):
        with pytest.raises(pk.ExponentSpecError) as err:
            pk.parse_exponent_spec(bad)
        assert f"term {term}" in str(err.value)

    def test_depth_limits(self):
        seq = pk.parse_exponent_spec("const:2", max_depth=3)
        with pytest.raises(pk.ExponentSpecError):
            seq.term(4)
        with pytest.raises(pk.ExponentSpecError):
            seq.partial_product(4)
        with pytest.raises(pk.ExponentSpecError):
            seq.term(0)


class TestWindow:
    def test_bounds(self):
        w = pk.Window.from_parent(2, 3)
        assert (w.lo, w.hi_exclusive) == (8, 26)
        assert 11 in w and 25 in w and 26 not in w and 7 not in w

    def test_top_value_is_composite(self):
        # (p+1)^c - 1 = p * (1 + (p+1) + ... + (p+1)^(c-1))
        for p, c in [(2, 3), (5, 4), (11, 2), (127, 4)]:
            top = (p + 1) ** c - 1
            assert top % p == 0 and 1 < p < top

    @given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=2, max_value=8))
    def test_window_nonempty(self, p, c):
        w = pk.Window.from_parent(p, c)
        assert w.lo < w.hi_exclusive
        assert w.width >= p ** (c - 1)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            pk.Window.from_parent(1, 3)
        with pytest.raises(ValueError):
            pk.Window.from_parent(2, 1)


class TestGapPolicies:
    def test_thresholds(self):
        assert pk.MATTNER.threshold == 1438989 and not pk.MATTNER.conditional
        assert pk.CULLY_HUGILL.threshold == 180 and not pk.CULLY_HUGILL.conditional
        assert pk.RH_CMS.threshold == 3 and pk.RH_CMS.conditional
        assert pk.EMPIRICAL.threshold == 2 and not pk.EMPIRICAL.conditional

    def test_covers(self):
        assert pk.RH_CMS.covers(3) and not pk.RH_CMS.covers(2)
        assert pk.CULLY_HUGILL.covers(180) and not pk.CULLY_HUGILL.covers(179)
        assert pk.MATTNER.covers(1438989) and not pk.MATTNER.covers(1438988)
        # empirical guarantees nothing no matter the exponent
        assert not pk.EMPIRICAL.covers(10**9)

    def test_theta_value(self):
        assert pk.THETA.numerator == 21 and pk.THETA.denominator == 40


class TestDecimalLength:
    @given(
        st.one_of(
            st.integers(0, 10**1200),
            st.integers(1, 4000).flatmap(
                lambda k: st.sampled_from([10**k - 1, 10**k, 2**k - 1, 2**k])
            ),
        )
    )
    def test_matches_str(self, n):
        assert decimal_length(n) == len(str(n))

    def test_both_ends_of_every_bit_length(self):
        # the estimate from the bit length is closest to a wrong answer where
        # bits * log10(2) nears an integer, e.g. at 2136 bits
        powers = [10**k for k in range(1510)]
        for bits in range(1, 5001):
            for n in (1 << (bits - 1), (1 << bits) - 1):
                d = decimal_length(n)
                assert powers[d - 1] <= n < powers[d], bits

    def test_past_the_int_to_str_limit(self):
        # any int-to-str conversion of a number this long would raise here
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if limit is not None:
            sys.set_int_max_str_digits(640)
        try:
            assert decimal_length(10**4400 + 1) == 4401
            assert decimal_length(10**4400 - 1) == 4400
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)


def test_past_the_int_string_limit_is_a_refusal(int_limit_640):
    # the message gives the digit count (by decimal_length) and the limit
    message = "a 701-digit integer exceeds the interpreter's int-string limit of 640 digits"
    for value in (10**700, -(10**700), pk.core.Fraction(1, 10**700), [{"p": 10**700}]):
        with pytest.raises(pk.BitCeilingError) as exc:
            pk.to_json(value)
        assert str(exc.value) == message
    with pytest.raises(pk.BitCeilingError, match=message):
        CertifiedDecimalInterval(10**700, 10**700 + 1, 700).agreed_digits()
    assert pk.to_json(10**639) == "1" + "0" * 639


class TestCertifiedDecimalInterval:
    def test_agreed_digits_basic(self):
        enc = CertifiedDecimalInterval(13052, 13054, 4)
        assert enc.agreed_digits() == ("1.305", 3)

    def test_agreed_digits_exact(self):
        enc = CertifiedDecimalInterval(200, 200, 2)
        assert enc.agreed_digits() == ("2.00", 2)

    def test_agreed_digits_integer_disagreement(self):
        assert CertifiedDecimalInterval(999, 1001, 3).agreed_digits() == ("", 0)
        assert CertifiedDecimalInterval(19, 21, 1).agreed_digits() == ("", 0)

    def test_agreed_digits_no_fractional_agreement(self):
        assert CertifiedDecimalInterval(141, 173, 2).agreed_digits() == ("1", 0)

    def test_width_and_order(self):
        enc = CertifiedDecimalInterval(10, 12, 3)
        assert enc.width == pk.core.Fraction(2, 1000)
        with pytest.raises(ValueError):
            CertifiedDecimalInterval(5, 4, 1)

    def test_json_roundtrip(self):
        enc = CertifiedDecimalInterval(13052, 13054, 4)
        assert CertifiedDecimalInterval.from_json(pk.to_json(enc)) == enc


class TestPrimeChainSerialization:
    def test_roundtrip(self, mills_chain):
        doc = mills_chain.to_json_dict()
        assert doc["primes"] == ["2", "11", "1361", "2521008887"]
        assert pk.PrimeChain.from_json_dict(doc) == mills_chain

    def test_schema_errors(self):
        with pytest.raises(pk.SchemaError):
            pk.PrimeChain.from_json_dict({"primes": ["2"]})
        with pytest.raises(pk.SchemaError):
            pk.PrimeChain.from_json_dict([])
        good = {
            "exps": "const:3",
            "primes": ["2", "11"],
            "mode": "min",
            "gap_policy": "empirical",
            "conditional": False,
            "certainty": ["deterministic", "deterministic"],
        }
        assert pk.PrimeChain.from_json_dict(good).depth == 2
        bad = dict(good, mode="weird")
        with pytest.raises(pk.SchemaError):
            pk.PrimeChain.from_json_dict(bad)

    TWO_PRIMES = {
        "exps": "const:3",
        "primes": ["2", "11"],
        "mode": "min",
        "gap_policy": "empirical",
        "conditional": False,
        "certainty": ["deterministic", "deterministic"],
        "truncated": False,
        "truncation_reason": None,
        "requested_depth": "2",
    }

    def test_strict_document_decodes(self):
        chain = pk.PrimeChain.from_json_dict(
            dict(self.TWO_PRIMES, truncated=True, truncation_reason="cut", requested_depth="5")
        )
        assert chain.primes == (2, 11) and chain.requested_depth == 5
        assert chain.truncated and chain.truncation_reason == "cut"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("primes", [2.9, "11"]),  # a JSON number, even an integral one
            ("primes", [2, "11"]),
            ("primes", [" 2", "11"]),
            ("primes", ["1_1", "11"]),
            ("primes", ["+2", "11"]),
            ("primes", ["\u0662", "11"]),  # a non-ASCII digit int() would accept
            ("primes", ["1" * 5000, "11"]),  # beyond the int-string limit
            ("primes", ["1", "11"]),
            ("primes", ["0", "11"]),
            ("primes", ["-5", "11"]),
            ("primes", "211"),
            ("requested_depth", 2),
            ("requested_depth", "2.0"),
            ("certainty", [1, "deterministic"]),
            ("certainty", [None, "deterministic"]),
            ("certainty", "deterministic"),
            ("truncation_reason", 5),
            ("truncation_reason", ["cut"]),
            ("exps", 3),
            ("gap_policy", ["empirical"]),
            ("certainty", ["banana", "deterministic"]),
            ("certainty", ["probable:", "deterministic"]),
            ("certainty", ["probable:032", "deterministic"]),
            ("certainty", ["probable:0", "deterministic"]),
            ("certainty", ["probable:-1", "deterministic"]),
            ("certainty", ["probable:3 ", "deterministic"]),
            ("certainty", ["Deterministic", "deterministic"]),
            # metadata that disagrees with itself (depth 2, not truncated)
            ("requested_depth", "1"),
            ("requested_depth", "3"),
            ("requested_depth", "65"),
            ("requested_depth", "775"),
            ("truncated", True),
            ("truncation_reason", "cut"),
            ("truncation_reason", ""),
        ],
    )
    def test_strict_decoding(self, field, value):
        with pytest.raises(pk.SchemaError):
            pk.PrimeChain.from_json_dict(dict(self.TWO_PRIMES, **{field: value}))

    @pytest.mark.parametrize("requested", ["65", "775"])
    def test_requested_depth_beyond_the_sequence_refused(self, requested):
        # even with a consistent truncation claim: const:3 stops at depth 64
        doc = dict(
            self.TWO_PRIMES, truncated=True, truncation_reason="cut", requested_depth=requested
        )
        with pytest.raises(pk.SchemaError, match="requested_depth"):
            pk.PrimeChain.from_json_dict(doc)

    def test_known_tiers_decode(self):
        tiers = ["probable:1", "probable:32000000000000000000"]
        chain = pk.PrimeChain.from_json_dict(dict(self.TWO_PRIMES, certainty=tiers))
        assert chain.certainty == tuple(tiers)

    def test_depth_beyond_the_sequence_refused(self):
        doc = dict(
            self.TWO_PRIMES,
            exps="list:1,2",
            primes=["2", "3", "5"],
            certainty=["deterministic"] * 3,
        )
        with pytest.raises(pk.SchemaError):
            pk.PrimeChain.from_json_dict(doc)

    @pytest.mark.parametrize("field", ["conditional", "truncated"])
    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_flags_must_be_json_booleans(self, mills_chain, field, value):
        doc = dict(mills_chain.to_json_dict(), **{field: value})
        with pytest.raises(pk.SchemaError):
            pk.PrimeChain.from_json_dict(doc)

    def test_boolean_flags_roundtrip(self, mills_chain, factorial_chain):
        tiny = replace(pk.DEFAULT_CONFIG, window_budget=3)
        truncated = pk.build_chain(pk.parse_exponent_spec("const:3"), 2, 5, config=tiny)
        assert factorial_chain.conditional and truncated.truncated
        for chain in (mills_chain, factorial_chain, truncated):
            doc = json.loads(json.dumps(chain.to_json_dict()))
            assert pk.PrimeChain.from_json_dict(doc) == chain

    def test_certainty_length_enforced(self):
        with pytest.raises(ValueError):
            pk.PrimeChain(
                exps=pk.parse_exponent_spec("const:3"),
                primes=(2, 11),
                mode="min",
                certainty=("deterministic",),
                policy=pk.EMPIRICAL,
                conditional=False,
            )
