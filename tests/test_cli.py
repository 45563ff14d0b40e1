import dataclasses
import json
import re
import sys
import time
from pathlib import Path

import pytest

from prckit.cli import main
from prckit.core import Config, PrimeChain
from prckit.primality import is_prime

from conftest import far_claimed_prime


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# stderr of an out-of-range argument: one message, then the timing line
BAD_ARGUMENT = r"bad argument: .*\nelapsed_ms=\d+\n"
NEEDS_INT_LIMIT = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter has no int-string limit",
)

CHAIN_ARGS = (
    "chain",
    "--exps", "powfact:3",
    "--seed", "2",
    "--depth", "3",
    "--mode", "min",
    "--gap-policy", "empirical",
)


class TestChainCommand:
    def test_powfact3(self, capsys):
        code, doc, _ = run_json(capsys, *CHAIN_ARGS)
        assert code == 0
        assert doc["primes"] == ["2", "11", str(11**81 + 140)]
        assert doc["conditional"] is False
        assert doc["certainty"] == ["deterministic", "deterministic", "probable:32"]
        assert doc["manifest"]["command"] == "chain"
        assert doc["manifest"]["gap_policy"] == "empirical"

    def test_factorial_conditional(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "chain", "--exps", "factorial", "--seed", "2", "--depth", "6",
            "--mode", "min", "--gap-policy", "rh-cms",
        )
        assert code == 0
        assert doc["conditional"] is True
        p5 = (127**4 + 22) ** 5 + 104
        assert doc["primes"][-1] == str(p5**6 + 700)

    def test_composite_seed_exits_65(self, capsys):
        code, out, err = run_cli(
            capsys, "chain", "--exps", "const:3", "--seed", "4", "--depth", "2"
        )
        assert code == 65 and out == "" and "composite" in err

    def test_truncation_exits_2_with_partial_chain(self, capsys):
        code, out, err = run_cli(
            capsys, "chain", "--exps", "powfact:3", "--seed", "2", "--depth", "4"
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["truncated"] is True and len(doc["primes"]) == 3
        assert "refused" in err

    def test_window_budget_exhaustion_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "chain", "--exps", "const:3", "--seed", "2", "--depth", "3",
            "--window-budget", "1",
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["truncated"] is True
        assert doc["manifest"]["config"]["window_budget"] == "1"
        assert len(doc["primes"]) < 3

    @pytest.mark.parametrize("command", ["chain", "digits"])
    def test_int_string_limit_exits_2(self, capsys, int_limit_640, command):
        # the depth-8 Mills prime has 762 digits, its digits' mantissas 772
        code, out, err = run_cli(
            capsys, command, "--exps", "const:3", "--seed", "2", "--depth", "8"
        )
        assert code == 2 and out == ""
        message, elapsed = err.splitlines()
        digits = 762 if command == "chain" else 772
        assert message == (
            f"refused: a {digits}-digit integer exceeds the interpreter's "
            "int-string limit of 640 digits"
        )
        assert elapsed.startswith("elapsed_ms=")

    def test_bad_flags_exit_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chain", "--exps", "const:3"])  # missing required flags
        assert exc.value.code == 64
        with pytest.raises(SystemExit) as exc:
            main(["chain", "--exps", "const:3", "--seed", "2", "--depth", "2",
                  "--gap-policy", "nope"])
        assert exc.value.code == 64

    def test_bad_exps_exit_64(self, capsys):
        code, out, err = run_cli(
            capsys, "chain", "--exps", "const:1", "--seed", "2", "--depth", "2"
        )
        assert code == 64 and "term 2" in err

    @pytest.mark.parametrize(
        "argv,stderr",
        [
            pytest.param(
                ("chain", "--exps", "const:3", "--seed", "2", "--depth", "0"),
                BAD_ARGUMENT, id="depth-0"),
            pytest.param(
                ("chain", "--exps", "const:3", "--seed", "2", "--depth", "100"),
                BAD_ARGUMENT, id="depth-100"),
            pytest.param(
                ("chain", "--exps", "list:3", "--seed", "2", "--depth", "2"),
                BAD_ARGUMENT, id="list-too-short"),
            pytest.param(
                ("digits", "--exps", "const:3", "--seed", "2", "--depth", "2",
                 "--max-digits", "0"),
                BAD_ARGUMENT, id="max-digits-0"),
            pytest.param(
                ("explore", "--exps", "const:3", "--seeds", "2:3", "--depth", "2",
                 "--gap-level", "5"),
                BAD_ARGUMENT, id="gap-level-5"),
            pytest.param(
                ("chain", "--exps", "const:3", "--seed", "2", "--depth", "3",
                 "--window-budget", "0"),
                BAD_ARGUMENT, id="window-budget-0"),
            pytest.param(
                ("chain", "--exps", "const:3", "--seed", "2", "--depth", "3",
                 "--window-budget", "-3"),
                BAD_ARGUMENT, id="window-budget-negative"),
            # verify has no budget to set: argparse refuses the flag
            pytest.param(
                ("verify", "--chain-file",
                 str(Path(__file__).parent / "golden" / "tampered_chain.json"),
                 "--window-budget", "0"),
                r"usage: .*\nprckit: error: unrecognized arguments: --window-budget 0\n",
                id="verify-window-budget-0"),
            # refused before any chain is built
            pytest.param(
                ("approx", "--exps", "const:3", "--seed", "2", "--depth", "3",
                 "--max-den", "0"),
                r"bad argument: --max-den must be at least 1, got 0\nelapsed_ms=\d+\n",
                id="max-den-0"),
            # a composite seed would exit 65 once its chain was built
            pytest.param(
                ("digits", "--exps", "const:3", "--seed", "4", "--depth", "8",
                 "--max-digits", "0"),
                r"bad argument: max_digits must be positive\nelapsed_ms=\d+\n",
                id="max-digits-0-composite-seed"),
            pytest.param(
                ("approx", "--exps", "const:3", "--seed", "4", "--depth", "8",
                 "--max-den", "5", "--max-digits", "0"),
                r"bad argument: max_digits must be positive\nelapsed_ms=\d+\n",
                id="approx-max-digits-0-composite-seed"),
            pytest.param(
                ("explore", "--exps", "const:3", "--seeds", "2:2", "--depth", "3",
                 "--gap-level", "-1"),
                r"bad argument: level must be in \[0, 2\], got -1\nelapsed_ms=\d+\n",
                id="gap-level-negative"),
            # the depth is at fault, not the level it bounds
            pytest.param(
                ("explore", "--exps", "const:3", "--seeds", "2:2", "--depth", "0",
                 "--gap-level", "0"),
                r"bad argument: depth must be positive\nelapsed_ms=\d+\n",
                id="gap-level-at-depth-0"),
            pytest.param(
                ("explore", "--exps", "const:3", "--seeds", "2:2", "--depth", "100",
                 "--gap-level", "200"),
                r"bad argument: depth 100 beyond sequence max depth 64\nelapsed_ms=\d+\n",
                id="gap-level-past-max-depth"),
            # an exponent term too long for int() names its digit count
            pytest.param(
                ("chain", "--exps", "const:" + "9" * 5000, "--seed", "2", "--depth", "2"),
                r"bad exponent spec: exponent term has 5000 digits, more than the "
                r"interpreter's int-string limit of \d+\nelapsed_ms=\d+\n",
                id="exps-past-int-string-limit", marks=NEEDS_INT_LIMIT),
        ],
    )
    def test_out_of_range_arguments_exit_64(self, capsys, argv, stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 64 and out == ""
        assert re.fullmatch(stderr, err), err


class TestDigitsCommand:
    def test_mills_prefix(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "digits", "--exps", "const:3", "--seed", "2", "--depth", "4",
            "--max-digits", "12",
        )
        assert code == 0
        assert doc["digits"].startswith("1.3063")
        assert int(doc["agreed_places"]) >= 4
        assert doc["enclosure"]["lo_mantissa"].isdigit()

    def test_text_format(self, capsys):
        code, out, err = run_cli(
            capsys,
            "digits", "--exps", "const:3", "--seed", "2", "--depth", "4",
            "--max-digits", "6", "--format", "text",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("1.3063")
        assert lines[1].startswith("agreed_places=")

    def test_text_format_writes_no_prime(self, capsys, int_limit_640):
        # the depth-8 Mills prime has 762 digits; only its JSON artifact writes it
        argv = ("digits", "--exps", "const:3", "--seed", "2", "--depth", "8", "--max-digits", "10")
        code, out, err = run_cli(capsys, *argv, "--format", "text")
        assert code == 0 and out == "1.3063778838\nagreed_places=10\n"
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("refused: a 762-digit integer exceeds")

    def test_env_ceiling_refusal(self, capsys, monkeypatch):
        # the composed cube roots of C = 729 build radicands of about 1.3k bits
        argv = ("digits", "--exps", "powfact:3", "--seed", "2", "--depth", "3")
        monkeypatch.setenv("PRC_BIT_CEILING", "1024")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and "refused" in err
        monkeypatch.setenv("PRC_BIT_CEILING", "4096")
        code, out, err = run_cli(capsys, *argv, "--format", "text")
        golden = Path(__file__).parent / "golden" / "digits_powfact3_text.out"
        assert code == 0 and out == golden.read_text()

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "000", "12x", "+64"])
    def test_env_ceiling_must_be_a_positive_decimal(self, capsys, monkeypatch, value):
        # refused before any chain is built, as a --window-budget below 1 is
        monkeypatch.setenv("PRC_BIT_CEILING", value)
        code, out, err = run_cli(
            capsys, "digits", "--exps", "const:3", "--seed", "2", "--depth", "3"
        )
        assert code == 64 and out == ""
        assert re.fullmatch(
            rf"bad argument: PRC_BIT_CEILING must be a positive decimal, got "
            rf"'{re.escape(value)}'\nelapsed_ms=\d+\n",
            err,
        ), err


class TestVerifyCommand:
    def test_roundtrip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *CHAIN_ARGS)
        assert code == 0
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(out)
        code, doc, _ = run_json(capsys, "verify", "--chain-file", str(chain_file))
        assert code == 0 and doc["passed"] is True
        assert all(s["extremality"] == "verified" for s in doc["steps"])

    def test_tampered_chain_fails(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *CHAIN_ARGS)
        doc = json.loads(out)
        doc["primes"][1] = "13"  # 11 is the true window minimum
        chain_file = tmp_path / "tampered.json"
        chain_file.write_text(json.dumps(doc))
        code, report, _ = run_json(capsys, "verify", "--chain-file", str(chain_file))
        assert code == 1 and report["passed"] is False
        assert report["steps"][0]["extremality"] == "failed"

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_far_claimed_extreme_prime_fails(self, capsys, tmp_path, mode):
        argv = ("chain", "--exps", "const:3", "--seed", "2", "--depth", "5", "--mode", mode)
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0
        built = PrimeChain.from_json_dict(doc)
        q = far_claimed_prime(built)
        doc["primes"][4] = str(q)
        doc["certainty"][4] = is_prime(q).certainty
        chain_file = tmp_path / "far.json"
        chain_file.write_text(json.dumps(doc))
        code, report, _ = run_json(capsys, "verify", "--chain-file", str(chain_file))
        assert code == 1 and report["passed"] is False
        assert report["steps"][3]["extremality"] == "failed"

    def test_missing_file_exits_66(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--chain-file", "/nonexistent.json")
        assert code == 66 and out == ""

    def test_schema_mismatch_exits_66(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"primes": ["2"]}')
        code, out, err = run_cli(capsys, "verify", "--chain-file", str(bad))
        assert code == 66 and "schema" in err
        code, out, _ = run_cli(capsys, *CHAIN_ARGS)
        stringly = tmp_path / "stringly.json"
        stringly.write_text(out.replace('"conditional": false', '"conditional": "false"'))
        assert '"conditional": "false"' in stringly.read_text()
        code, out, err = run_cli(capsys, "verify", "--chain-file", str(stringly))
        assert code == 66 and out == "" and "boolean" in err
        notjson = tmp_path / "notjson.json"
        notjson.write_text("{broken")
        code, out, err = run_cli(capsys, "verify", "--chain-file", str(notjson))
        assert code == 66

    @pytest.mark.parametrize(
        "fields,code",
        [
            ({"primes": [2.9, "11"]}, 66),
            ({"primes": [" 2", "11"]}, 66),
            ({"primes": ["1_1", "11"]}, 66),
            ({"primes": ["1", "11"]}, 66),
            ({"primes": ["-5", "11"]}, 66),
            ({"exps": "const:4000000000", "primes": ["2", "3"]}, 2),
            ({"exps": "list:1,99999999999999", "primes": ["2", "3"]}, 2),
            # exps that do not parse, past the int-string limit too
            ({"exps": "const:1"}, 66),
            ({"exps": "list:2,1"}, 66),
            pytest.param({"exps": "const:" + "9" * 5000}, 66, marks=NEEDS_INT_LIMIT),
        ],
    )
    def test_hostile_chain_files(self, capsys, tmp_path, fields, code):
        doc = {
            "exps": "const:3",
            "primes": ["2", "11"],
            "mode": "min",
            "gap_policy": "empirical",
            "conditional": False,
            "certainty": ["deterministic", "deterministic"],
            **fields,
        }
        hostile = tmp_path / "hostile.json"
        hostile.write_text(json.dumps(doc))
        started = time.monotonic()
        got, out, err = run_cli(capsys, "verify", "--chain-file", str(hostile))
        assert time.monotonic() - started < 1
        assert got == code and out == ""
        message, elapsed = err.splitlines()  # one message, then the timing line
        prefix = "refused: " if code == 2 else "chain file schema mismatch: "
        assert message.startswith(prefix) and elapsed.startswith("elapsed_ms=")

    def test_prime_past_the_int_string_limit_exits_66(self, capsys, tmp_path):
        # a decimal string, just too long for int(): the message says so
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no int-string limit")
        code, out, _ = run_cli(capsys, *CHAIN_ARGS)
        doc = json.loads(out)
        doc["primes"][-1] = "1" + "0" * limit
        chain_file = tmp_path / "long.json"
        chain_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--chain-file", str(chain_file))
        assert code == 66 and out == ""
        message, elapsed = err.splitlines()
        assert message == (
            f"chain file schema mismatch: prime has {limit + 1} digits, more than "
            f"the interpreter's int-string limit of {limit}"
        )
        assert elapsed.startswith("elapsed_ms=")

    @pytest.mark.parametrize(
        "tier", ["banana", "probable:", "probable:032", "probable:-1", "Deterministic"]
    )
    def test_unknown_tier_exits_66(self, capsys, tmp_path, tier):
        code, out, _ = run_cli(capsys, *CHAIN_ARGS)
        doc = json.loads(out)
        doc["certainty"][1] = tier
        chain_file = tmp_path / "tier.json"
        chain_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--chain-file", str(chain_file))
        assert code == 66 and out == ""
        assert err.startswith("chain file schema mismatch: certainty entries")

    @pytest.mark.parametrize(
        "fields",
        [
            {"truncated": True},
            {"requested_depth": "775"},
            {"requested_depth": "2"},
            {"requested_depth": "4"},
            {"truncation_reason": "cut"},
            {"requested_depth": None, "truncated": True, "truncation_reason": "cut"},
            {"requested_depth": "775", "truncated": True, "truncation_reason": "cut"},
        ],
    )
    def test_inconsistent_metadata_exits_66(self, capsys, tmp_path, fields):
        code, out, _ = run_cli(capsys, *CHAIN_ARGS)
        doc = dict(json.loads(out), **fields)
        chain_file = tmp_path / "meta.json"
        chain_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--chain-file", str(chain_file))
        assert code == 66 and out == ""
        assert err.startswith("chain file schema mismatch: ")

    def test_consistent_truncation_claim_verifies(self, capsys, tmp_path):
        # three true primes of a chain asked for four: nothing to refute
        code, out, _ = run_cli(capsys, *CHAIN_ARGS)
        fields = {"requested_depth": "4", "truncated": True, "truncation_reason": "cut"}
        chain_file = tmp_path / "meta.json"
        chain_file.write_text(json.dumps(dict(json.loads(out), **fields)))
        code, report, _ = run_json(capsys, "verify", "--chain-file", str(chain_file))
        assert code == 0 and report["passed"] is True

    def test_well_formed_wrong_tier_fails_the_check(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *CHAIN_ARGS)
        doc = json.loads(out)
        doc["certainty"][1] = "probable:7"  # 11 is prime deterministically
        chain_file = tmp_path / "tier.json"
        chain_file.write_text(json.dumps(doc))
        code, report, _ = run_json(capsys, "verify", "--chain-file", str(chain_file))
        assert code == 1 and report["passed"] is False
        assert report["steps"][0]["certainty"] == "deterministic"

    @pytest.mark.parametrize(
        "content",
        [
            b'{"primes": [' + b"7" * 5000 + b"]}",  # over the int-string limit
            b"[" * 100_000,  # nested past the recursion limit
            b"\xff\xfe{}",  # not UTF-8
        ],
        ids=["5000-digit-integer", "deep-nesting", "invalid-utf8"],
    )
    def test_undecodable_json_exits_66(self, capsys, tmp_path, content):
        chain_file = tmp_path / "chain.json"
        chain_file.write_bytes(content)
        started = time.monotonic()
        code, out, err = run_cli(capsys, "verify", "--chain-file", str(chain_file))
        assert time.monotonic() - started < 1
        assert code == 66 and out == ""
        message, elapsed = err.splitlines()
        assert message.startswith("chain file is not valid JSON: ")
        assert elapsed.startswith("elapsed_ms=")


class TestExploreCommand:
    def test_json_output(self, capsys):
        code, doc, _ = run_json(
            capsys, "explore", "--exps", "const:3", "--seeds", "2:3", "--depth", "2"
        )
        assert code == 0
        assert doc["violations"] == []
        roots = doc["forest"]["roots"]
        assert len(roots) == 2
        assert len(roots[0]["children"]) == 5
        assert len(roots[1]["children"]) == 9
        assert doc["stats"]["total_leaves"] == "14"

    def test_csv_output(self, capsys):
        code, out, err = run_cli(
            capsys,
            "explore", "--exps", "const:3", "--seeds", "2:3", "--depth", "2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 16  # header + 2 roots + 5 + 9 children

    def test_gap_level(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "explore", "--exps", "const:3", "--seeds", "2:2", "--depth", "2",
            "--gap-level", "1",
        )
        assert code == 0
        assert [g["right_value"] for g in doc["gaps"]][0] == "11"
        assert len(doc["gaps"]) == 6

    def test_gap_level_is_checked_before_the_forest_is_built(self, capsys, monkeypatch):
        import prckit.explorer

        def unbuilt(*args):
            raise AssertionError("forest built")

        monkeypatch.setattr(prckit.explorer, "explore_tree", unbuilt)
        code, out, err = run_cli(
            capsys, "explore", "--exps", "const:3", "--seeds", "2:2", "--depth", "3",
            "--gap-level", "3",
        )
        assert (code, out) == (64, "")
        assert err.startswith("bad argument: level must be in [0, 2], got 3\n")

    def test_csv_ignores_the_gap_level(self, capsys):
        argv = ("explore", "--exps", "const:3", "--seeds", "2:3", "--depth", "2", "--format", "csv")
        code, out, _ = run_cli(capsys, *argv, "--gap-level", "5")
        assert code == 0 and out == run_cli(capsys, *argv)[1]

    def test_bad_seed_range(self, capsys):
        code, out, err = run_cli(
            capsys, "explore", "--exps", "const:3", "--seeds", "nope", "--depth", "2"
        )
        assert code == 64

    def test_window_over_the_chain_ceiling_is_never_built(self, capsys):
        # 3^30000000 (47.5M bits) once took 26 s to build before this refusal;
        # 30000000 = 2^7 * 3 * 5^7 is rooted in small steps, and the root's
        # window is refused, so its child count stays empty
        started = time.monotonic()
        code, doc, _ = run_json(
            capsys, "explore", "--exps", "const:30000000", "--seeds", "2:2", "--depth", "1"
        )
        assert time.monotonic() - started < 2
        assert code == 0
        [root] = doc["forest"]["roots"]
        assert root["prefix"] == ["2"] and root["child_count"] is None
        # a prime order has only the one-shot root, which is refused
        started = time.monotonic()
        code, out, err = run_cli(
            capsys, "explore", "--exps", "const:30000001", "--seeds", "2:2", "--depth", "1"
        )
        assert time.monotonic() - started < 2
        assert code == 2 and out == ""
        message, elapsed = err.splitlines()
        assert message == (
            "refused: radicand for 6 digits at root order 30000001 needs about "
            "597947081 bits, above the ceiling 16777216; at most ~0 digits are feasible"
        )
        assert elapsed.startswith("elapsed_ms=")

    def test_refusal_quotes_the_first_cylinder_rooted(self, capsys):
        # enclosures are rooted seed by seed, the top of each cylinder
        # first, so the radicand quoted is that of 3 = 2 + 1 (2 bits)
        code, out, err = run_cli(
            capsys, "explore", "--exps", "const:30000001", "--seeds", "2:5", "--depth", "1"
        )
        assert code == 2 and out == ""
        assert err.splitlines()[0] == (
            "refused: radicand for 10 digits at root order 30000001 needs about "
            "996578465 bits, above the ceiling 16777216; at most ~0 digits are feasible"
        )


class TestApproxCommand:
    def test_powfact3_separations(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "approx", "--exps", "powfact:3", "--seed", "2", "--depth", "3",
            "--max-den", "10",
        )
        assert code == 0
        assert len(doc["records"]) == 10
        assert all(r["inside"] is False for r in doc["records"])
        r10 = doc["records"][9]
        assert (r10["den"], r10["num"]) == ("10", "13")
        num, den = map(int, r10["separation"].split("/"))
        assert num * 10000 >= 52 * den  # separation >= 0.0052

    @pytest.mark.parametrize(
        "argv,undecided,reason",
        [
            # the budget runs out in the window of step 4: no fraction inside
            (("--exps", "const:3", "--depth", "6", "--max-den", "3",
              "--window-budget", "30"), False,
             "refused: step 4: no prime found in [16022236204009818131831320103, "
             "16022236223076275564393283071) after 30 candidates; reachable depth 4"),
            # the depth-3 bracket holds 74/33 and 83/37: the truncation still wins
            (("--exps", "factorial", "--depth", "4", "--max-den", "40",
              "--window-budget", "5"), True,
             "refused: step 3: no prime found in [260144641, 268435455) after 5 "
             "candidates; reachable depth 3"),
        ],
        ids=["separated", "undecided"],
    )
    def test_truncated_chain_refuses_after_the_artifact(self, capsys, argv, undecided, reason):
        code, out, err = run_cli(capsys, "approx", "--seed", "2", *argv)
        assert code == 2
        doc = json.loads(out)
        assert any(r["inside"] for r in doc["records"]) == undecided
        message, elapsed = err.splitlines()
        assert message == reason and elapsed.startswith("elapsed_ms=")


    def test_too_wide_bracket_of_a_truncated_chain_names_the_truncation(self, capsys):
        # the budget runs out in the window of step 2: the depth-2 bracket is too wide
        code, out, err = run_cli(
            capsys,
            "approx", "--exps", "const:3", "--seed", "2", "--depth", "4",
            "--window-budget", "3", "--max-den", "3",
        )
        assert code == 2 and out == ""
        width, truncation, elapsed = err.splitlines()
        assert width == (
            "refused: enclosure width 63403742090413/5000000000000000 is too wide "
            "for a meaningful scan (need < 1/100)"
        )
        assert truncation == (
            "refused: step 2: no prime found in [1331, 1727) after 3 candidates; "
            "reachable depth 2"
        )
        assert elapsed.startswith("elapsed_ms=")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            CHAIN_ARGS,
            ("digits", "--exps", "const:3", "--seed", "2", "--depth", "3"),
            ("explore", "--exps", "const:3", "--seeds", "2:3", "--depth", "2"),
            ("approx", "--exps", "const:3", "--seed", "2", "--depth", "3",
             "--max-den", "7"),
        ],
    )
    def test_stdout_byte_identical(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 and out1 == out2


def test_config_holds_only_the_settings_a_caller_sets(capsys, monkeypatch):
    # every Config field is written into every manifest, so each one must be
    # a setting the command line reaches; fixed limits are module constants
    assert [f.name for f in dataclasses.fields(Config)] == [
        "window_budget", "radicand_bit_ceiling"
    ]
    golden = Path(__file__).parent / "golden" / "chain_mills.out"
    default = json.loads(golden.read_text())["manifest"]["config"]
    argv = ("chain", "--exps", "const:3", "--seed", "2", "--depth", "2")
    _, doc, _ = run_json(capsys, *argv)
    assert len(default) == 8 and doc["manifest"]["config"] == default
    _, doc, _ = run_json(capsys, *argv, "--window-budget", "7")
    assert doc["manifest"]["config"] == {**default, "window_budget": "7"}
    monkeypatch.setenv("PRC_BIT_CEILING", "4096")
    _, doc, _ = run_json(capsys, *argv)
    assert doc["manifest"]["config"] == {**default, "radicand_bit_ceiling": "4096"}


def _only_string_leaves(value):
    if isinstance(value, dict):
        return all(_only_string_leaves(v) for v in value.values())
    if isinstance(value, list):
        return all(_only_string_leaves(v) for v in value)
    return value is None or isinstance(value, (str, bool))


class TestJsonHygiene:
    @pytest.mark.parametrize(
        "argv",
        [
            CHAIN_ARGS,
            ("digits", "--exps", "const:3", "--seed", "2", "--depth", "3"),
            ("explore", "--exps", "const:3", "--seeds", "2:3", "--depth", "2",
             "--gap-level", "1"),
            ("approx", "--exps", "const:3", "--seed", "2", "--depth", "3",
             "--max-den", "5"),
        ],
    )
    def test_numbers_are_decimal_strings(self, capsys, argv):
        code, doc, _ = run_json(capsys, *argv)
        assert _only_string_leaves(doc)

    def test_truncated_digits_exits_2_with_artifact(self, capsys):
        code, out, err = run_cli(
            capsys, "digits", "--exps", "powfact:3", "--seed", "2", "--depth", "4"
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["truncated"] is True
        assert doc["digits"].startswith("1.3052998807")
