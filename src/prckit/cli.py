"""Command-line surface: chain, digits, verify, explore, approx.

Artifacts go to stdout as JSON encoded by ``core.to_json``, the one
codec: every integer is a decimal string (84-digit primes do not survive
float-parsing consumers), flags are JSON booleans and fractions "a/b".
Diagnostics, including wall-clock time, go to stderr so that re-running a
command with the same configuration reproduces stdout byte for byte.
The configuration is ``--window-budget`` and ``PRC_BIT_CEILING``; each
manifest also records the fixed limits (``primality``, ``sieve``, ``chain``).

Exit codes: 0 success / all checks passed; 1 a verification check failed;
2 refusal (budget or bit ceiling, including a chain file whose steps
exceed the chain bit ceiling and an output integer past the interpreter's
int-string limit), with a partial artifact when one exists (a truncated
chain refuses after its artifact, even where a check failed); 64 usage
error (including out-of-range arguments and a ``PRC_BIT_CEILING`` that is
not a positive decimal, refused before any chain or forest is built, so
before data errors); 65 bad input data
(composite seed); 66 missing or malformed input file (including JSON that
cannot be decoded, integers that are not decimal strings and primes below
2).  ``digits --format text`` writes no prime, so only its JSON output
meets the int-string limit; ``approx`` on a truncated chain whose bracket
is too wide to scan names the truncation after the width refusal.

Importing this module loads no other prckit module: the parser and
``main`` load ``core``, and each command imports the modules it runs
when it runs, so ``--version`` and malformed ``verify`` inputs load only
``core``.  Every manifest reads ``sieve`` for the two enumeration limits,
which loads no numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .core import PrimeChain

EX_OK = 0
EX_CHECK_FAILED = 1
EX_REFUSAL = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    from .core import GAP_POLICIES

    parser = _Parser(prog="prckit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--exps", required=True, help="const:<c> | factorial | powfact:<b> | list:v1,v2,...")
        p.add_argument("--seed", required=True, type=int, help="seed prime p_1")
        p.add_argument("--depth", required=True, type=int, help="chain depth K")
        p.add_argument("--mode", choices=("min", "max"), default="min")
        p.add_argument(
            "--gap-policy",
            choices=sorted(GAP_POLICIES),
            default="empirical",
            dest="gap_policy",
        )
        p.add_argument("--window-budget", type=int, default=None, dest="window_budget")

    p_chain = sub.add_parser("chain", help="build a min/max prime chain")
    common(p_chain)

    p_digits = sub.add_parser("digits", help="certified decimal digits of the chain's constant")
    common(p_digits)
    p_digits.add_argument("--max-digits", type=int, default=1000, dest="max_digits")
    p_digits.add_argument("--format", choices=("json", "text"), default="json")

    p_verify = sub.add_parser("verify", help="re-check a chain JSON file")
    p_verify.add_argument("--chain-file", required=True, dest="chain_file")

    p_explore = sub.add_parser("explore", help="expand the cylinder tree over a seed range")
    p_explore.add_argument("--exps", required=True)
    p_explore.add_argument("--seeds", required=True, help="LO:HI inclusive prime seed range")
    p_explore.add_argument("--depth", required=True, type=int)
    p_explore.add_argument("--format", choices=("json", "csv"), default="json")
    p_explore.add_argument("--gap-level", type=int, default=None, dest="gap_level")

    p_approx = sub.add_parser("approx", help="certified rational separation scan")
    common(p_approx)
    p_approx.add_argument("--max-den", required=True, type=int, dest="max_den")
    p_approx.add_argument("--max-digits", type=int, default=60, dest="max_digits")

    return parser


def _config(args):
    from dataclasses import replace

    from .core import DEFAULT_CONFIG

    kwargs = {}
    env_ceiling = os.environ.get("PRC_BIT_CEILING")
    if env_ceiling:
        try:
            ceiling = int(env_ceiling) if env_ceiling.isascii() and env_ceiling.isdigit() else 0
        except ValueError as exc:  # past the interpreter's int-string limit
            raise ValueError(f"PRC_BIT_CEILING: {exc}") from None
        if ceiling < 1:
            raise ValueError(f"PRC_BIT_CEILING must be a positive decimal, got {env_ceiling!r}")
        kwargs["radicand_bit_ceiling"] = ceiling
    budget = getattr(args, "window_budget", None)
    if budget is not None:
        if budget < 1:
            raise ValueError(f"--window-budget must be at least 1, got {budget}")
        kwargs["window_budget"] = budget
    return replace(DEFAULT_CONFIG, **kwargs) if kwargs else DEFAULT_CONFIG


def _manifest(command, config, **fields) -> dict:
    from . import chain, primality, sieve
    from .core import to_json

    # artifact bytes are frozen: the manifest keeps the fixed limits and
    # "wheel", a removed scan option that is always false
    limits = {
        "mr_rounds": primality.MR_ROUNDS,
        "enumeration_cap": sieve.ENUMERATION_CAP,
        "rescan_cap": chain.RESCAN_CAP,
        "chain_bit_ceiling": chain.CHAIN_BIT_CEILING,
        "max_sieve_base": sieve.MAX_SIEVE_BASE,
    }
    config_doc = {**to_json(config), **to_json(limits), "wheel": False}
    return {"command": command, "version": __version__, "config": config_doc, **fields}


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _json_text(artifact: dict) -> str:
    from .core import to_json

    return json.dumps(to_json(artifact), indent=2, sort_keys=True)


def _emit_chain_result(text: str, chain: PrimeChain, code: int = EX_OK) -> int:
    """Emit the artifact of a built chain; a truncated chain then refuses."""
    _emit(text)
    if chain.truncated:
        sys.stderr.write(f"refused: {chain.truncation_reason}\n")
        return EX_REFUSAL
    return code


def _build_from_args(args, config) -> PrimeChain:
    from .chain import build_chain
    from .core import GAP_POLICIES, parse_exponent_spec

    if getattr(args, "max_digits", 1) < 1:  # digits and approx: before any chain is built
        raise ValueError("max_digits must be positive")
    exps = parse_exponent_spec(args.exps)
    policy = GAP_POLICIES[args.gap_policy]
    return build_chain(exps, args.seed, args.depth, args.mode, policy, config)


def _chain_artifact(command, args, config, chain, **fields) -> dict:
    manifest = _manifest(
        command,
        config,
        exps=args.exps,
        seed=args.seed,
        depth=args.depth,
        mode=args.mode,
        gap_policy=args.gap_policy,
        certainty=chain.certainty,
        conditional=chain.conditional,
        **fields,
    )
    return {"manifest": manifest, **chain.to_json_dict()}


def cmd_chain(args) -> int:
    config = _config(args)
    chain = _build_from_args(args, config)
    return _emit_chain_result(_json_text(_chain_artifact("chain", args, config, chain)), chain)


def cmd_digits(args) -> int:
    from .core import to_json
    from .radix import prc_digits

    config = _config(args)
    chain = _build_from_args(args, config)
    result = prc_digits(chain, args.max_digits, config)
    if args.format == "text":  # the text output writes no prime, so builds no artifact
        text = f"{result.digits}\nagreed_places={result.agreed_places}"
    else:
        artifact = _chain_artifact("digits", args, config, chain, max_digits=args.max_digits)
        artifact.update(to_json(result))
        text = _json_text(artifact)
    return _emit_chain_result(text, chain)


def cmd_verify(args) -> int:
    from .core import PrimeChain, to_json

    config = _config(args)
    try:
        with open(args.chain_file) as fh:
            document = json.load(fh)
    except OSError as exc:
        sys.stderr.write(f"cannot read chain file: {exc}\n")
        return EX_NOINPUT
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError and the int-string limit are ValueErrors
        sys.stderr.write(f"chain file is not valid JSON: {exc}\n")
        return EX_NOINPUT
    chain = PrimeChain.from_json_dict(document)
    from .chain import verify_chain  # loaded, with primality and radix, once it decodes

    report = verify_chain(chain)
    manifest = _manifest(
        "verify", config, exps=chain.exps, mode=chain.mode, gap_policy=chain.policy
    )
    artifact = {"manifest": manifest, **to_json(report), "passed": report.passed}
    _emit(_json_text(artifact))
    return EX_OK if report.passed else EX_CHECK_FAILED


def cmd_explore(args) -> int:
    from .core import parse_exponent_spec
    from .explorer import (
        branching_stats,
        explore_tree,
        forest_to_csv,
        forest_to_json,
        gap_intervals,
        validate_forest,
    )

    config = _config(args)
    exps = parse_exponent_spec(args.exps)
    try:
        lo, hi = (int(part) for part in args.seeds.split(":"))
    except ValueError:
        sys.stderr.write("--seeds wants LO:HI\n")
        return EX_USAGE
    json_gaps = args.format == "json" and args.gap_level is not None  # CSV ignores the level
    # before any forest is built, and after the depth, which explore_tree checks itself
    if json_gaps and 1 <= args.depth <= exps.max_depth and not 0 <= args.gap_level < args.depth:
        raise ValueError(f"level must be in [0, {args.depth - 1}], got {args.gap_level}")
    forest = explore_tree(exps, (lo, hi), args.depth, config)
    violations = validate_forest(forest)
    if args.format == "csv":
        _emit(forest_to_csv(forest))
    else:
        manifest = _manifest(
            "explore", config, exps=args.exps, seeds=args.seeds, depth=args.depth
        )
        artifact = {
            "manifest": manifest,
            "forest": forest_to_json(forest),
            "stats": branching_stats(forest),
            "violations": violations,
        }
        if json_gaps:
            gaps = gap_intervals(forest, args.gap_level, config)
            artifact["gaps"] = [
                {
                    "level": args.gap_level,
                    "left_value": g.left.value,
                    "left_enclosure": g.left.enclosure,
                    "right_value": g.right.value,
                    "right_enclosure": g.right.enclosure,
                }
                for g in gaps
            ]
        _emit(_json_text(artifact))
    return EX_CHECK_FAILED if violations else EX_OK


def cmd_approx(args) -> int:
    from .radix import prc_digits, rational_approx_scan

    config = _config(args)
    if args.max_den < 1:
        raise ValueError(f"--max-den must be at least 1, got {args.max_den}")
    chain = _build_from_args(args, config)
    result = prc_digits(chain, args.max_digits, config)
    try:
        records = rational_approx_scan(result.enclosure, args.max_den)
    except ValueError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        if chain.truncated:  # a bracket from a truncated chain: say where it stopped
            sys.stderr.write(f"refused: {chain.truncation_reason}\n")
        return EX_REFUSAL
    manifest = _manifest(
        "approx",
        config,
        exps=args.exps,
        seed=args.seed,
        depth=args.depth,
        mode=args.mode,
        gap_policy=args.gap_policy,
        max_den=args.max_den,
    )
    artifact = {"manifest": manifest, "enclosure": result.enclosure, "records": records}
    undecided = any(r.inside for r in records)
    return _emit_chain_result(
        _json_text(artifact), chain, EX_CHECK_FAILED if undecided else EX_OK
    )


_COMMANDS = {
    "chain": cmd_chain,
    "digits": cmd_digits,
    "verify": cmd_verify,
    "explore": cmd_explore,
    "approx": cmd_approx,
}


def main(argv=None) -> int:
    from .core import (
        BitCeilingError,
        CompositeSeedError,
        EnumerationCapError,
        ExponentSpecError,
        PrcError,
        SchemaError,
        WindowSearchExhausted,
    )

    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code = _COMMANDS[args.command](args)
    except ExponentSpecError as exc:
        sys.stderr.write(f"bad exponent spec: {exc}\n")
        code = EX_USAGE
    except CompositeSeedError as exc:
        sys.stderr.write(f"{exc}\n")
        code = EX_DATAERR
    except SchemaError as exc:
        sys.stderr.write(f"chain file schema mismatch: {exc}\n")
        code = EX_NOINPUT
    except (BitCeilingError, WindowSearchExhausted, EnumerationCapError) as exc:
        sys.stderr.write(f"refused: {exc}\n")
        code = EX_REFUSAL
    except PrcError as exc:
        sys.stderr.write(f"error: {exc}\n")
        code = EX_DATAERR
    except ValueError as exc:
        sys.stderr.write(f"bad argument: {exc}\n")
        code = EX_USAGE
    sys.stderr.write(f"elapsed_ms={int((time.monotonic() - started) * 1000)}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
