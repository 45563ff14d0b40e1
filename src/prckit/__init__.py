"""prckit: Mills-type prime-representing constants, computed exactly.

Build min/max prime chains for integer exponent sequences, extract
certified decimal digits of the constants they converge to, verify the
window and convergence invariants by exact integer arithmetic, and explore
the Cantor-like cylinder structure at finite depth.

Importing the package loads none of its modules.  Each exported name
(``__all__``) is looked up in its module by a module ``__getattr__``
(PEP 562), which imports that module on first use and returns the
module's current binding without storing it here, so ``prckit.is_prime``
is always whatever ``prckit.primality.is_prime`` is bound to.  The six
library modules (``core``, ``primality``, ``sieve``, ``radix``, ``chain``,
``explorer``) load the same way as attributes: ``prckit.chain``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "CULLY_HUGILL",
        "DEFAULT_CONFIG",
        "DETERMINISTIC",
        "EMPIRICAL",
        "GAP_POLICIES",
        "MATTNER",
        "RH_CMS",
        "THETA",
        "BitCeilingError",
        "CertifiedDecimalInterval",
        "CompositeSeedError",
        "Config",
        "EnumerationCapError",
        "ExponentSequence",
        "ExponentSpecError",
        "GapPolicy",
        "PrcError",
        "PrimalityVerdict",
        "PrimeChain",
        "SchemaError",
        "Window",
        "WindowSearchExhausted",
        "parse_exponent_spec",
        "probable",
        "to_json",
    ),
    "primality": (
        "find_prime_in_range",
        "is_prime",
        "max_prime_in_window",
        "min_prime_in_window",
        "modexp_backend",
        "scan_range",
        "window_prime",
    ),
    "sieve": (
        "count_primes_in_range",
        "enumerable_window",
        "first_prime_in_range",
        "last_prime_in_range",
        "primes_in_range",
    ),
    "radix": (
        "ApproxRecord",
        "DigitResult",
        "certified_root_enclosure",
        "nth_root_floor",
        "point_root_enclosure",
        "prc_digits",
        "rational_approx_scan",
        "scaled_root_floor",
        "verify_floor_recovery",
    ),
    "chain": (
        "ChainReport",
        "ConvergenceCheck",
        "StepCheck",
        "ThetaRecord",
        "ThetaReport",
        "approximants_monotone",
        "build_chain",
        "convergence_bound_check",
        "theta_window_report",
        "verify_chain",
    ),
    "explorer": (
        "BranchingStats",
        "CylinderNode",
        "Forest",
        "Gap",
        "GapEndpoint",
        "LevelStats",
        "branching_stats",
        "explore_tree",
        "forest_to_csv",
        "forest_to_json",
        "gap_intervals",
        "validate_forest",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
