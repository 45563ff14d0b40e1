"""The three workloads: inputs made from the seed, one pass, output checks.

Each workload is a closed loop of passes; one pass runs every input of the
workload once, each through the same pipeline of public prckit calls, and
the next call starts when the previous one returns.  The workloads are
chosen so that a different layer does most of the work in each:

- ``mills``: ``primality`` (big-integer BPSW in ascending and descending
  window scans and extremality re-scans); no sieving, no ``radix``.
- ``digits``: ``radix`` (order-64 to order-2187 roots of radicands up to
  ~1.9M bits); ``primality`` is a small share.
- ``explore``: ``primality``'s segmented sieve plus tree building and
  export; no ``is_prime`` calls and little ``radix``.

Seed 0 runs the canonical inputs and checks them against ``goldens.json``.
Any other seed draws replacement seed primes from tables whose entries cost
about the same as the canonical ones (measured on the 2-core reference
machine), so a seed changes the numbers being processed but not the load;
their outputs are checked by the exact self-checks only.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path

from prckit import chain, core, explorer, radix

MAX_DIGITS = 1000
WORKLOADS = ("mills", "digits", "explore")


@dataclass(frozen=True)
class ChainInput:
    exps: str
    seed: int
    depth: int
    mode: str = "min"
    policy: str = "empirical"

    @property
    def label(self) -> str:
        return f"{self.exps}/{self.seed}/{self.depth}/{self.mode}/{self.policy}"


@dataclass(frozen=True)
class ForestInput:
    exps: str
    lo: int
    hi: int
    depth: int
    gap_level: int = 1

    @property
    def label(self) -> str:
        return f"{self.exps}/{self.lo}:{self.hi}/{self.depth}"


CANONICAL = {
    "mills": (
        ChainInput("const:3", 2, 8),
        ChainInput("const:3", 2, 7, "max"),
    ),
    "digits": (
        ChainInput("powfact:3", 2, 3),
        ChainInput("factorial", 2, 6, policy="rh-cms"),
        ChainInput("powfact:2", 2, 3, policy="cully-hugill"),
        ChainInput("const:3", 2, 7),
    ),
    "explore": (ForestInput("const:3", 2, 2, 3),),
}

SMOKE = {
    "mills": (ChainInput("const:3", 2, 6), ChainInput("const:3", 2, 5, "max")),
    "digits": (
        ChainInput("powfact:3", 2, 3),
        ChainInput("factorial", 2, 5, policy="rh-cms"),
        ChainInput("const:3", 2, 5),
    ),
    "explore": (ForestInput("const:3", 5, 5, 2),),
}

# Replacements for seeds other than 0, each about as costly as the canonical
# inputs.  Mills pairs were matched by a cost model (per window, the count
# of candidates reaching the gcd filter and BPSW, times the measured cost of
# each at that bit length): by the model every pair is within 0.5% of the
# canonical pair, while single timings on the 2-vCPU reference machine
# scatter by +-10%.  The last pair starts from later primes of the canonical
# chains.
MILLS_PAIRS = tuple(
    (ChainInput("const:3", low, low_depth), ChainInput("const:3", high, high_depth, "max"))
    for low, low_depth, high, high_depth in (
        (1201, 6, 89, 6),
        (1373, 6, 47, 6),
        (1451, 6, 29, 6),
        (1487, 6, 53, 6),
        (1471, 6, 5, 7),
        (11, 7, 23, 6),
    )
)
# powfact:2 roots are tiny at any of these seeds; powfact:3 from 3 adds ~2%.
DIGITS_POWFACT3_SEEDS = (2, 3)
DIGITS_POWFACT2_SEEDS = (2, 3, 5, 7, 11, 13)
# The canonical forest's cost is the sieving of the windows under 11's
# children; seed ranges from 11 repeat it and add roots whose children lie
# above the enumeration cap, so only their own small windows are sieved.
EXPLORE_FORESTS = tuple(ForestInput("const:3", 11, hi, 2) for hi in (23, 29, 31, 37, 41, 43, 47))


def make_inputs(workload: str, seed: int, smoke: bool = False) -> tuple:
    """The inputs one pass runs; the same seed always gives the same inputs."""
    if smoke:
        return SMOKE[workload]
    if seed == 0:
        return CANONICAL[workload]
    rng = random.Random(seed)
    if workload == "mills":
        return rng.choice(MILLS_PAIRS)
    if workload == "digits":
        p3, factorial, p2, mills = CANONICAL["digits"]
        return (
            replace(p3, seed=rng.choice(DIGITS_POWFACT3_SEEDS)),
            factorial,
            replace(p2, seed=rng.choice(DIGITS_POWFACT2_SEEDS)),
            mills,
        )
    return (rng.choice(EXPLORE_FORESTS),)


class Clock:
    """Accumulates the wall time of named pipeline phases within one pass."""

    def __init__(self):
        self.totals: dict[str, float] = {}

    @contextlib.contextmanager
    def phase(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.totals[name] = self.totals.get(name, 0.0) + time.perf_counter() - start


def run_chain(item: ChainInput, digits: bool, clock: Clock, tracer) -> dict:
    """build_chain, then theta (mills) or digits + convergence (digits), then
    JSON round trip and verify_chain."""
    exps = core.parse_exponent_spec(item.exps)
    policy = core.GAP_POLICIES[item.policy]
    with clock.phase("chain_s"):
        built = chain.build_chain(exps, item.seed, item.depth, item.mode, policy)
    out = {"chain": built}
    if digits:
        with clock.phase("digits_s"):
            out["digits"] = radix.prc_digits(built, MAX_DIGITS)
        out["convergence"] = [
            chain.convergence_bound_check(built, k) for k in range(1, built.depth)
        ]
    else:
        out["theta"] = chain.theta_window_report(built)
    with clock.phase("verify_s"):
        with tracer.span("core.codec"):
            text = json.dumps(built.to_json_dict())
            out["back"] = core.PrimeChain.from_json_dict(json.loads(text))
        out["report"] = chain.verify_chain(out["back"])
    return out


def run_forest(item: ForestInput, clock: Clock, tracer) -> dict:
    """explore_tree, validate_forest, branching_stats, gap_intervals, export."""
    exps = core.parse_exponent_spec(item.exps)
    with clock.phase("explore_s"):
        forest = explorer.explore_tree(exps, (item.lo, item.hi), item.depth)
        out = {"forest": forest, "problems": explorer.validate_forest(forest)}
        out["stats"] = explorer.branching_stats(forest)
        out["gaps"] = explorer.gap_intervals(forest, level=item.gap_level)
        with tracer.span("explorer.export") as attrs:
            out["json"] = json.dumps(explorer.forest_to_json(forest))
            out["csv"] = explorer.forest_to_csv(forest)
            attrs["bytes"] = len(out["json"]) + len(out["csv"])
    return out


def run_item(workload: str, item, clock: Clock, tracer) -> dict:
    if workload == "explore":
        return run_forest(item, clock, tracer)
    return run_chain(item, workload == "digits", clock, tracer)


# ---------------------------------------------------------------------------
# output checks (run outside the timed region)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(workload: str, item, out: dict) -> dict:
    """The facts of one output that seed 0 pins in goldens.json."""
    if workload == "explore":
        forest = out["forest"]
        return {
            "nodes": out["csv"].count("\n") - 1,
            "display_digits": forest.display_digits,
            "gaps": len(out["gaps"]),
            "problems": out["problems"],
            "truncated": forest.truncated,
            "json_sha256": _sha(out["json"]),
            "csv_sha256": _sha(out["csv"]),
        }
    built = out["chain"]
    facts = {
        "primes_sha256": _sha(",".join(map(str, built.primes))),
        "bits": [p.bit_length() for p in built.primes],
        "certainty": list(built.certainty),
        "truncated": built.truncated,
        "conditional": built.conditional,
    }
    if "digits" in out:
        facts["digits"] = out["digits"].digits
        facts["places"] = out["digits"].agreed_places
        facts["convergence"] = [c.holds for c in out["convergence"]]
    else:
        records = out["theta"].records
        facts["theta"] = [[r.side, r.satisfied] for r in records]
        facts["theta_sha256"] = _sha(",".join(str(r.offset) for r in records))
    return facts


def _enclosure_ok(built, result) -> bool:
    """lo^C <= p * 10^(d*C) and (p+1) * 10^(d*C) <= hi^C, exactly."""
    enc = result.enclosure
    order = built.exps.partial_product(built.depth)
    p = built.primes[-1]
    scale = 10 ** (enc.digits_after_point * order)
    agreed, places = enc.agreed_digits()
    return (
        enc.lo_mantissa**order <= p * scale
        and (p + 1) * scale <= enc.hi_mantissa**order
        and agreed.startswith(result.digits)
        and len(result.digits) - result.digits.index(".") - 1 == result.agreed_places
        and result.agreed_places <= places
    )


def self_check(workload: str, item, out: dict) -> list[str]:
    """Exact checks that hold for every seed; returns the violations."""
    problems = []
    if workload == "explore":
        if out["problems"]:
            problems.append(f"validate_forest: {out['problems'][:3]}")
        nodes = out["csv"].count("\n") - 1
        levels = out["stats"].levels
        if nodes != sum(level.nodes for level in levels):
            problems.append("csv rows differ from the branching-stats node count")
        if json.loads(out["json"])["display_digits"] != str(out["forest"].display_digits):
            problems.append("forest JSON does not round-trip")
        if out["forest"].truncated:
            problems.append("forest truncated")
        return problems
    built = out["chain"]
    if built.truncated:
        problems.append(f"truncated: {built.truncation_reason}")
    if len(built.primes) != item.depth:
        problems.append(f"depth {len(built.primes)} != {item.depth}")
    if out["back"] != built:
        problems.append("JSON round trip changed the chain")
    if not out["report"].passed:
        problems.append("verify_chain failed")
    if not chain.approximants_monotone(built):
        problems.append("approximants not monotone")
    if "digits" in out:
        if not _enclosure_ok(built, out["digits"]):
            problems.append("digit enclosure does not contain the chain bracket")
        if any(c.holds is False for c in out["convergence"]):
            problems.append("convergence bound certified false")
    return problems


_GOLDENS = Path(__file__).with_name("goldens.json")


def load_goldens(workload: str, smoke: bool) -> dict:
    with open(_GOLDENS) as f:
        return json.load(f)["smoke" if smoke else "full"][workload]


def check(workload: str, item, out: dict, goldens: dict | None) -> list[str]:
    """Self-checks, plus the golden comparison when goldens are given."""
    problems = self_check(workload, item, out)
    if goldens is not None:
        want = goldens.get(item.label)
        got = summarize(workload, item, out)
        if want is None:
            problems.append(f"no golden for {item.label}")
        elif got != want:
            diff = sorted(k for k in want if got.get(k) != want[k])
            problems.append(f"golden mismatch in {diff}")
    return problems
