import copy
import json
import re
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from mpmath import mp

import prckit as pk
from prckit import chain as chain_module
from prckit.chain import _over_ceiling
from prckit.core import PrimeChain

from conftest import far_claimed_prime, run_probe

F_P4 = 127**4 + 22
F_P5 = F_P4**5 + 104
F_P6 = F_P5**6 + 700


class TestBuildChain:
    def test_mills_chain(self, mills_chain):
        assert mills_chain.primes == (2, 11, 1361, 2521008887)
        assert not mills_chain.conditional and not mills_chain.truncated
        assert all(c == "deterministic" for c in mills_chain.certainty)

    def test_powfact3_chain(self, powfact3_chain):
        assert powfact3_chain.primes == (2, 11, 11**81 + 140)
        assert powfact3_chain.certainty == (
            "deterministic",
            "deterministic",
            "probable:32",
        )
        assert not powfact3_chain.conditional

    def test_factorial_chain_under_rh_policy(self, factorial_chain):
        assert factorial_chain.primes == (2, 5, 127, F_P4, F_P5, F_P6)
        assert factorial_chain.conditional
        assert factorial_chain.certainty[:4] == ("deterministic",) * 4
        assert factorial_chain.certainty[4] == "probable:32"
        assert factorial_chain.certainty[5] == "probable:32"

    def test_conditional_needs_an_invoked_guarantee(self):
        exps = pk.parse_exponent_spec("factorial")
        # depth 2 only uses c_2 = 2, below the rh-cms threshold of 3
        shallow = pk.build_chain(exps, 2, 2, "min", pk.RH_CMS)
        assert not shallow.conditional
        # mattner never fires at desk scale
        pf = pk.build_chain(pk.parse_exponent_spec("powfact:3"), 2, 3, "min", pk.MATTNER)
        assert not pf.conditional

    def test_max_mode(self):
        chain = pk.build_chain(pk.parse_exponent_spec("const:3"), 2, 2, "max")
        assert chain.primes == (2, 23)

    def test_composite_seed_rejected(self):
        with pytest.raises(pk.CompositeSeedError):
            pk.build_chain(pk.parse_exponent_spec("const:3"), 4, 2)

    def test_depth_validation(self):
        exps = pk.parse_exponent_spec("list:3,4")
        with pytest.raises(ValueError):
            pk.build_chain(exps, 2, 3)
        with pytest.raises(ValueError):
            pk.build_chain(exps, 2, 0)
        with pytest.raises(ValueError):
            pk.build_chain(exps, 2, 2, mode="explicit")

    def test_bit_ceiling_truncation(self):
        chain = pk.build_chain(pk.parse_exponent_spec("powfact:3"), 2, 4)
        assert chain.truncated and chain.depth == 3
        assert chain.requested_depth == 4
        assert "ceiling" in chain.truncation_reason

    def test_budget_truncation(self):
        tiny = replace(pk.DEFAULT_CONFIG, window_budget=2)
        chain = pk.build_chain(
            pk.parse_exponent_spec("const:3"), 2, 3, config=tiny
        )
        assert chain.truncated and chain.depth < 3

    def test_seed_candidates(self):
        # a seed range is closed: the explorer's roots are the primes in [2, 11]
        forest = pk.explore_tree(pk.parse_exponent_spec("const:3"), (2, 11), 1)
        assert [r.value for r in forest.roots] == [2, 3, 5, 7, 11]
        assert not hasattr(pk, "seed_candidates")


class TestVerifyChain:
    def test_built_chains_pass(self, mills_chain, powfact3_chain, factorial_chain):
        for chain in (mills_chain, powfact3_chain, factorial_chain):
            report = pk.verify_chain(chain)
            assert report.passed
            assert all(s.extremality == "verified" for s in report.steps)

    @pytest.mark.parametrize(
        "spec,depth",
        [("const:4000000000", 2), ("list:1,99999999999999", 2), ("powfact:3", 20)],
    )
    def test_hostile_powers_refused(self, spec, depth):
        chain = PrimeChain(
            exps=pk.parse_exponent_spec(spec),
            primes=(2,) * depth,
            mode="min",
            certainty=("deterministic",) * depth,
            policy=pk.CULLY_HUGILL,
            conditional=False,
        )
        with pytest.raises(pk.BitCeilingError):
            pk.verify_chain(chain)

    def test_powfact_ceiling_decided_from_the_exponent(self, monkeypatch):
        # c_20 = 3^(20! - 19!) could never be built; the test needs only 20! - 19!
        exps = pk.parse_exponent_spec("powfact:3")
        assert _over_ceiling(2, exps, 20)
        # below the shortcut the exact test decides: 1 * 3^4 against 81 and 82
        monkeypatch.setattr(chain_module, "CHAIN_BIT_CEILING", 81)
        assert _over_ceiling(2, exps, 3)
        monkeypatch.setattr(chain_module, "CHAIN_BIT_CEILING", 82)
        assert not _over_ceiling(2, exps, 3)

    def test_extremality_failure(self):
        # 13 is prime and in [8, 26), but 11 is smaller
        chain = PrimeChain(
            exps=pk.parse_exponent_spec("const:3"),
            primes=(2, 13),
            mode="min",
            certainty=("deterministic",) * 2,
            policy=pk.EMPIRICAL,
            conditional=False,
        )
        report = pk.verify_chain(chain)
        assert not report.passed
        assert report.steps[0].window_ok and report.steps[0].prime_ok
        assert report.steps[0].extremality == "failed"

    def test_window_membership_failure(self):
        chain = PrimeChain(
            exps=pk.parse_exponent_spec("const:3"),
            primes=(2, 29),
            mode="min",
            certainty=("deterministic",) * 2,
            policy=pk.EMPIRICAL,
            conditional=False,
        )
        report = pk.verify_chain(chain)
        assert not report.passed and not report.steps[0].window_ok

    def test_composite_entry_failure(self):
        chain = PrimeChain(
            exps=pk.parse_exponent_spec("const:3"),
            primes=(2, 21),
            mode="min",
            certainty=("deterministic",) * 2,
            policy=pk.EMPIRICAL,
            conditional=False,
        )
        report = pk.verify_chain(chain)
        assert not report.passed and not report.steps[0].prime_ok

    def test_explicit_mode_skips_extremality(self):
        chain = PrimeChain(
            exps=pk.parse_exponent_spec("const:3"),
            primes=(2, 13),
            mode="explicit",
            certainty=("deterministic",) * 2,
            policy=pk.EMPIRICAL,
            conditional=False,
        )
        report = pk.verify_chain(chain)
        assert report.passed
        assert report.steps[0].extremality == "not-applicable"

    def test_tampered_conditional_flag(self, factorial_chain):
        tampered = replace(factorial_chain, conditional=False)
        report = pk.verify_chain(tampered)
        assert not report.conditional_ok and not report.passed

    def test_rescan_budget_reported(self, monkeypatch, mills_chain):
        monkeypatch.setattr(chain_module, "RESCAN_CAP", 1)
        report = pk.verify_chain(mills_chain)
        assert report.passed  # unverified-by-budget is not a failure
        assert any(s.extremality == "budget" for s in report.steps)

    def test_rescan_cap_counts_scan_positions(self, monkeypatch):
        # step 1 rescans [8, 11): one scan position, 9, within a cap of one
        chain = pk.build_chain(pk.parse_exponent_spec("const:3"), 2, 3)
        monkeypatch.setattr(chain_module, "RESCAN_CAP", 1)
        report = pk.verify_chain(chain)
        assert chain.primes[:2] == (2, 11)
        assert report.steps[0].extremality == "verified"
        assert pk.find_prime_in_range(8, 11, budget=1) is None

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_far_claimed_extreme_prime_fails(self, mode):
        # the claimed p5 lies past the rescan cap from the window's edge, yet
        # the rescan meets a prime near the edge long before its cap
        built = pk.build_chain(pk.parse_exponent_spec("const:3"), 2, 5, mode)
        q = far_claimed_prime(built)
        tiers = built.certainty[:4] + (pk.is_prime(q).certainty,)
        claimed = replace(built, primes=built.primes[:4] + (q,), certainty=tiers)
        report = pk.verify_chain(claimed)
        assert not report.passed
        step = report.steps[3]
        assert step.window_ok and step.prime_ok and step.extremality == "failed"
        assert [s.extremality for s in report.steps[:3]] == ["verified"] * 3

    def test_certainty_recomputed_not_echoed(self, powfact3_chain, mills_chain):
        for chain in (powfact3_chain, mills_chain):
            report = pk.verify_chain(chain)
            assert [s.certainty for s in report.steps] == list(chain.certainty[1:])
        assert powfact3_chain.certainty[2] == "probable:32"
        # a probable prime relabelled deterministic fails its step
        relabelled = replace(
            powfact3_chain, certainty=powfact3_chain.certainty[:2] + ("deterministic",)
        )
        report = pk.verify_chain(relabelled)
        assert not report.passed and not report.steps[1].prime_ok
        assert report.steps[1].certainty == "probable:32"
        assert report.steps[0].passed

    def test_unknown_tier_fails(self, mills_chain):
        tiers = mills_chain.certainty
        banana = replace(mills_chain, certainty=tiers[:1] + ("banana",) + tiers[2:])
        report = pk.verify_chain(banana)
        assert not report.passed and not report.steps[0].prime_ok
        assert report.steps[0].certainty == "deterministic"
        seed_banana = replace(mills_chain, certainty=("banana",) + tiers[1:])
        report = pk.verify_chain(seed_banana)
        assert not report.passed and not report.seed_ok
        assert all(s.passed for s in report.steps)

    def test_json_roundtrip_verifies_identically(self, mills_chain):
        restored = PrimeChain.from_json_dict(mills_chain.to_json_dict())
        assert pk.verify_chain(restored) == pk.verify_chain(mills_chain)

    def test_max_chain_extremality(self):
        chain = pk.build_chain(pk.parse_exponent_spec("const:3"), 2, 3, "max")
        report = pk.verify_chain(chain)
        assert report.passed
        # tamper: 19 is prime and in window, but 23 is larger
        bad = replace(chain, primes=(2, 19, chain.primes[2]), mode="max")
        assert pk.verify_chain(bad).steps[0].extremality == "failed"


class TestCeilingBand:
    """Steps the bit-length bounds alone do not decide: 3^700000 has more
    than (2 - 1) * 700000 bits and at most 2 * 700000, around the 2^20-bit
    chain ceiling, and is over it."""

    EXPS = pk.parse_exponent_spec("list:3,700000")
    CHAIN = PrimeChain(
        exps=EXPS,
        primes=(3, 5),
        mode="min",
        certainty=("deterministic",) * 2,
        policy=pk.EMPIRICAL,
        conditional=False,
    )

    @pytest.fixture
    def no_band_window(self, monkeypatch):
        built = pk.Window.from_parent

        def refusing(p, c):
            assert c != 700000, f"window of {p} to the {c} built"
            return built(p, c)

        monkeypatch.setattr(pk.Window, "from_parent", refusing)

    def test_decided_by_the_power(self, monkeypatch):
        assert (3**700000).bit_length() > chain_module.CHAIN_BIT_CEILING
        assert _over_ceiling(3, self.EXPS, 2)
        # 3^5 has 8 bits, between (2 - 1) * 5 and 2 * 5
        exps = pk.parse_exponent_spec("const:5")
        monkeypatch.setattr(chain_module, "CHAIN_BIT_CEILING", 7)
        assert _over_ceiling(3, exps, 2)
        monkeypatch.setattr(chain_module, "CHAIN_BIT_CEILING", 8)
        assert not _over_ceiling(3, exps, 2)

    def test_build_chain_truncates(self, no_band_window):
        chain = pk.build_chain(self.EXPS, 3, 2)
        assert chain.primes == (3,) and chain.truncated
        assert chain.truncation_reason == (
            "step 1: 2-bit prime to the power 700000 exceeds the 1048576-bit "
            "chain ceiling; reachable depth 1"
        )

    def test_verify_refuses_before_any_primality_test(self, monkeypatch, no_band_window):
        def no_test(n):
            raise AssertionError(f"is_prime({n}) called")

        monkeypatch.setattr(chain_module, "is_prime", no_test)
        with pytest.raises(pk.BitCeilingError, match="step 1: 2-bit prime"):
            pk.verify_chain(self.CHAIN)

    def test_theta_report_refuses(self, no_band_window):
        with pytest.raises(pk.BitCeilingError, match="step 1: 2-bit prime"):
            pk.theta_window_report(self.CHAIN)

    def test_explorer_counts_no_window(self, no_band_window):
        forest = pk.explore_tree(self.EXPS, (3, 3), 1)
        (root,) = forest.roots
        assert root.child_count is None and not forest.truncated
        assert pk.validate_forest(forest) == []


class TestThetaReport:
    def test_const3_small_step_fails_exactly(self, mills_chain):
        report = pk.theta_window_report(mills_chain)
        first = report.records[0]
        assert first.k == 1 and first.side == "left" and not first.satisfied
        assert first.offset == 3
        assert first.lhs == 3**40 == 12157665459056928801
        assert first.rhs == 2**63 == 9223372036854775808
        assert first.lhs > first.rhs

    def test_powfact3_second_step_satisfied(self, powfact3_chain):
        report = pk.theta_window_report(powfact3_chain)
        assert [r.k for r in report.records] == [1, 2]
        assert not report.records[0].satisfied  # same small-k failure as const:3
        second = report.records[1]
        assert second.satisfied and second.offset == 140
        assert second.lhs == 140**40 and second.rhs == 11 ** (21 * 81)

    def test_factorial_steps_with_small_exponent_skipped(self, factorial_chain):
        report = pk.theta_window_report(factorial_chain)
        # c_2 = 2 < 3 is outside the index set; steps 2..5 all satisfy
        assert [r.k for r in report.records] == [2, 3, 4, 5]
        assert report.all_satisfied
        assert report.records[1].offset == 22
        assert report.records[1].lhs == 22**40 and report.records[1].rhs == 127**84

    def test_max_chain_uses_right_side(self):
        chain = pk.build_chain(pk.parse_exponent_spec("const:3"), 2, 2, "max")
        report = pk.theta_window_report(chain)
        rec = report.records[0]
        assert rec.side == "right" and rec.offset == 27 - 23 == 4
        assert rec.satisfied == (4**40 <= 3**63) is True

    def test_hostile_exponent_refused_before_any_power(self):
        # 2^99999999999999 would never finish; the ceiling test comes first
        chain = PrimeChain(
            exps=pk.parse_exponent_spec("list:3,99999999999999"),
            primes=(2, 3),
            mode="explicit",
            certainty=("deterministic",) * 2,
            policy=pk.EMPIRICAL,
            conditional=False,
        )
        started = time.monotonic()
        with pytest.raises(pk.BitCeilingError):
            pk.theta_window_report(chain)
        assert time.monotonic() - started < 1


class TestConvergenceBound:
    @staticmethod
    def _oracle(chain, k):
        # 500-digit floating check of the same inequality
        mp.dps = 500
        p1 = chain.primes[0]
        c1 = chain.exps.term(1)
        pk_, pk1 = chain.primes[k - 1], chain.primes[k]
        ck = chain.exps.partial_product(k)
        ck1 = chain.exps.partial_product(k + 1)
        lhs = mp.power(pk1, mp.mpf(1) / ck1) - mp.power(pk_, mp.mpf(1) / ck)
        rhs = mp.power(pk_ + 1, mp.mpf(1) / ck) * mp.power(
            p1, (mp.mpf(21) / 40 - 1) * ck1 / c1
        )
        return lhs <= rhs

    def test_factorial_step_two(self, factorial_chain):
        check = pk.convergence_bound_check(factorial_chain, 2)
        assert check.holds is True
        assert check.holds == self._oracle(factorial_chain, 2)
        assert check.lhs_bits > 0 and check.rhs_bits > 0

    def test_powfact3_step_two(self, powfact3_chain):
        check = pk.convergence_bound_check(powfact3_chain, 2)
        assert check.holds is True
        assert check.holds == self._oracle(powfact3_chain, 2)

    def test_all_factorial_steps(self, factorial_chain):
        for k in range(1, factorial_chain.depth):
            assert pk.convergence_bound_check(factorial_chain, k).holds is True

    def test_exact_power_step_trivially_holds(self):
        # hypothetical chain landing exactly on p^c: zero gap vs positive bound
        chain = PrimeChain(
            exps=pk.parse_exponent_spec("const:3"),
            primes=(2, 8),
            mode="min",
            certainty=("deterministic",) * 2,
            policy=pk.EMPIRICAL,
            conditional=False,
        )
        assert pk.convergence_bound_check(chain, 1).holds is True

    def test_preconditions(self, mills_chain):
        with pytest.raises(ValueError):
            pk.convergence_bound_check(replace(mills_chain, mode="max"), 1)
        with pytest.raises(ValueError):
            pk.convergence_bound_check(mills_chain, 4)

    def test_ceiling_returns_indeterminate(self, powfact3_chain):
        tiny = replace(pk.DEFAULT_CONFIG, radicand_bit_ceiling=256)
        assert pk.convergence_bound_check(powfact3_chain, 2, tiny).holds is None

    def test_seed_past_the_int_string_limit(self):
        # a 4301-digit seed: the precision estimate must not call str()
        p1 = 10**4300 + 1
        chain = PrimeChain(
            exps=pk.parse_exponent_spec("const:3"),
            primes=(p1, p1**3 + 5),
            mode="min",
            certainty=("probable:32",) * 2,
            policy=pk.EMPIRICAL,
            conditional=False,
        )
        assert pk.convergence_bound_check(chain, 1).holds is True


class TestMonotoneApproximants:
    def test_built_chains(self, mills_chain, powfact3_chain, factorial_chain):
        for chain in (mills_chain, powfact3_chain, factorial_chain):
            assert pk.approximants_monotone(chain)

    def test_broken_chain(self):
        chain = PrimeChain(
            exps=pk.parse_exponent_spec("const:3"),
            primes=(2, 29),
            mode="explicit",
            certainty=("deterministic",) * 2,
            policy=pk.EMPIRICAL,
            conditional=False,
        )
        assert not pk.approximants_monotone(chain)

    def test_step_past_the_ceiling_refused_before_any_power(self):
        # p_3 of the powfact:3 chain has 281 bits and c_4 = 3^18, so p_3^c_4
        # would have about 10^11 bits: a fresh interpreter, with its address
        # space bounded and a timeout, fails instead of hanging if it is built
        probe = """
import resource
import prckit as pk
from prckit.core import PrimeChain

resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
chain = pk.build_chain(pk.parse_exponent_spec("powfact:3"), 2, 3, "min", pk.EMPIRICAL)
doc = chain.to_json_dict()
doc["primes"].append("2")
doc["certainty"].append("deterministic")
doc["requested_depth"] = "4"
try:
    pk.approximants_monotone(PrimeChain.from_json_dict(doc))
except pk.BitCeilingError as exc:
    print(exc)
"""
        assert run_probe(probe, timeout=30)[0] == (
            "step 3: 281-bit prime to the power c_4 exceeds the 1048576-bit chain ceiling"
        )

    def test_min_chain_is_leftmost(self, mills_chain):
        # every window's scan result equals the least prime by trial division
        for k in range(1, mills_chain.depth):
            w = mills_chain.window(k)
            lo = w.lo
            least = next(n for n in range(lo, lo + 1000) if pk.is_prime(n).is_prime)
            assert least == mills_chain.primes[k]


MILLS5_DOC = {
    "exps": "const:3",
    "primes": ["2", "11", "1361", "2521008887", "16022236204009818131831320183"],
    "mode": "min",
    "gap_policy": "empirical",
    "conditional": False,
    "certainty": ["deterministic"] * 4 + ["probable:32"],
    "truncated": False,
    "truncation_reason": None,
    "requested_depth": "5",
}
# bounded rescans: a moved prime must not send an example over millions
# of positions
FUZZ_RESCAN_CAP = 10_000
ODD_VALUES = ([], {}, ["2"], None, True, 0, 2.5, "", "x", "2")
TIERS = ("deterministic", "probable:32", "probable:1", "banana", "probable:032", "")
METADATA = ("truncated", "truncation_reason", "requested_depth")
META_VALUES = (
    [("truncated", v) for v in (True, False)]
    + [("truncation_reason", v) for v in (None, "cut", "")]
    + [("requested_depth", v) for v in ("4", "5", "6", "64", "65", "775", None)]
)


def _metadata_only(doc) -> bool:
    """Does ``doc`` differ from the true document at most in its metadata?"""
    def rest(d):  # as JSON text, so 0 and false differ
        return json.dumps({k: v for k, v in d.items() if k not in METADATA}, sort_keys=True)

    return rest(doc) == rest(MILLS5_DOC)


def _consistent_metadata(doc) -> bool:
    """The schema's metadata rules, restated for a document of 5 primes
    under const:3 (max depth 64)."""
    requested = doc.get("requested_depth")
    truncated = doc.get("truncated", False)
    reason = doc.get("truncation_reason")
    if type(truncated) is not bool or not (reason is None or isinstance(reason, str)):
        return False
    if requested is None:
        return not truncated and reason is None
    if not (isinstance(requested, str) and re.fullmatch("[0-9]+", requested)):
        return False
    requested = int(requested)
    return 5 <= requested <= 64 and truncated == (requested > 5) == (reason is not None)


@st.composite
def mutated_documents(draw):
    """The const:3 depth-5 chain document after one to three mutations:
    dropped keys, values of another type, edited digits, changed tiers,
    flags and modes, and arrays cut, padded or emptied."""
    doc = copy.deepcopy(MILLS5_DOC)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(
            st.sampled_from(("retype", "digits", "tier", "flag", "length", "drop", "meta"))
        )
        keys = sorted(doc)
        if kind == "drop" and keys:
            del doc[draw(st.sampled_from(keys))]
        elif kind == "retype":
            doc[draw(st.sampled_from(sorted(MILLS5_DOC)))] = draw(st.sampled_from(ODD_VALUES))
        elif kind == "digits":
            slots = [(doc, k) for k in keys if isinstance(doc[k], str)]
            slots += [
                (doc[k], i)
                for k in keys
                if isinstance(doc[k], list)
                for i, v in enumerate(doc[k])
                if isinstance(v, str)
            ]
            if slots:
                owner, key = draw(st.sampled_from(slots))
                text = owner[key]
                i = draw(st.integers(0, len(text)))
                digit = draw(st.sampled_from("0123456789"))
                cut = draw(st.integers(0, 1))  # replace a character or insert one
                owner[key] = text[:i] + digit + text[i + cut :]
        elif kind == "tier" and isinstance(doc.get("certainty"), list) and doc["certainty"]:
            i = draw(st.integers(0, len(doc["certainty"]) - 1))
            doc["certainty"][i] = draw(st.sampled_from(TIERS))
        elif kind == "flag":
            key, value = draw(
                st.sampled_from(
                    [("conditional", v) for v in (True, False, "false", 0)]
                    + [("truncated", v) for v in (True, False, "true", None)]
                    + [("mode", v) for v in ("min", "max", "explicit", "MIN")]
                    + [("gap_policy", v) for v in ("empirical", "rh-cms", "nope")]
                )
            )
            doc[key] = value
        elif kind == "meta":
            key, value = draw(st.sampled_from(META_VALUES))
            doc[key] = value
        elif kind == "length":
            key = draw(st.sampled_from(("primes", "certainty")))
            if isinstance(doc.get(key), list):
                items = doc[key]
                change = draw(st.sampled_from(("cut", "repeat", "append", "empty")))
                if change == "cut":
                    doc[key] = items[: draw(st.integers(0, len(items)))]
                elif change == "repeat" and items:
                    doc[key] = items + items[-1:]
                elif change == "append":
                    doc[key] = items + [draw(st.sampled_from(("2", "deterministic", 3)))]
                else:
                    doc[key] = []
    return doc


def _verify_fuzzed(chain):
    """verify_chain under the fuzz rescan cap; hypothesis forbids
    function-scoped fixtures, so the cap is patched by hand."""
    cap = chain_module.RESCAN_CAP
    chain_module.RESCAN_CAP = FUZZ_RESCAN_CAP
    try:
        return pk.verify_chain(chain)
    finally:
        chain_module.RESCAN_CAP = cap


class TestVerifyFuzz:
    def test_unmutated_document_passes(self):
        chain = PrimeChain.from_json_dict(copy.deepcopy(MILLS5_DOC))
        assert _verify_fuzzed(chain).passed

    @given(mutated_documents())
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_report_or_prc_error(self, doc):
        try:
            report = _verify_fuzzed(PrimeChain.from_json_dict(doc))
        except pk.PrcError:
            report = None
        else:
            assert isinstance(report, pk.ChainReport)
        if _metadata_only(doc):
            # the primes are the true ones, so only the metadata decides
            assert (report is not None and report.passed) == _consistent_metadata(doc)
