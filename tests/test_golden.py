"""Golden stdout: the exact bytes and exit code of pinned CLI commands.

Each case runs one command in-process and compares its stdout byte for
byte with a committed file under ``tests/golden/``.  The cases cover the
README commands, the CSV and text formats, a budget-truncated chain and a
tampered chain.  A change that moves any artifact byte fails here; when
such a change is intended, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from prckit.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (name, exit code, argv); "{golden}" in an argument is the golden directory
CASES = [
    ("digits_powfact3", 0, [
        "digits", "--exps", "powfact:3", "--seed", "2", "--depth", "3",
        "--mode", "min", "--gap-policy", "empirical"]),
    ("digits_factorial", 0, [
        "digits", "--exps", "factorial", "--seed", "2", "--depth", "6",
        "--mode", "min", "--gap-policy", "rh-cms"]),
    ("digits_powfact2", 0, [
        "digits", "--exps", "powfact:2", "--seed", "2", "--depth", "3",
        "--mode", "min", "--gap-policy", "cully-hugill"]),
    ("digits_powfact3_text", 0, [
        "digits", "--exps", "powfact:3", "--seed", "2", "--depth", "3",
        "--format", "text"]),
    ("chain_mills", 0, [
        "chain", "--exps", "const:3", "--seed", "2", "--depth", "4",
        "--mode", "min", "--gap-policy", "empirical"]),
    ("chain_budget_truncated", 2, [
        "chain", "--exps", "const:3", "--seed", "2", "--depth", "5",
        "--window-budget", "3"]),
    ("verify_mills", 0, ["verify", "--chain-file", "{golden}/chain_mills.out"]),
    ("verify_tampered", 1, ["verify", "--chain-file", "{golden}/tampered_chain.json"]),
    ("explore_gaps", 0, [
        "explore", "--exps", "const:3", "--seeds", "2:3", "--depth", "2",
        "--gap-level", "1"]),
    ("explore_csv", 0, [
        "explore", "--exps", "const:3", "--seeds", "2:3", "--depth", "2",
        "--format", "csv"]),
    ("approx_powfact3", 0, [
        "approx", "--exps", "powfact:3", "--seed", "2", "--depth", "3",
        "--max-den", "10"]),
    # windows of these roots are far wider than the enumeration cap, so the
    # roots are truncated at depth 2 and carry no child count at depth 1
    ("explore_refused", 0, [
        "explore", "--exps", "const:3", "--seeds", "1000000:1000040", "--depth", "2"]),
    ("explore_refused_csv", 0, [
        "explore", "--exps", "const:3", "--seeds", "1000000:1000040", "--depth", "1",
        "--format", "csv"]),
    # the ceiling bounds the radicands the composed roots build, not the
    # one-shot radicand p * 10^(d*C): Mills depth 8 certifies 765 places,
    # and an order of 2^7 * 3 * 5^7 is rooted in small steps
    ("digits_mills_depth8_text", 0, [
        "digits", "--exps", "const:3", "--seed", "2", "--depth", "8",
        "--format", "text"]),
    ("explore_composite_order_csv", 0, [
        "explore", "--exps", "const:30000000", "--seeds", "2:2", "--depth", "1",
        "--format", "csv"]),
]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([arg.replace("{golden}", str(GOLDEN)) for arg in argv])
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_stdout(name, code, argv):
    got_code, out = _run(argv)
    assert got_code == code
    assert out == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    for name, code, argv in CASES:
        got_code, out = _run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out)
        print(f"{name}: exit {got_code} (pinned {code}), {len(out)} bytes")
