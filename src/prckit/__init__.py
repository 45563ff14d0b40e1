"""prckit: Mills-type prime-representing constants, computed exactly.

Build min/max prime chains for integer exponent sequences, extract
certified decimal digits of the constants they converge to, verify the
window and convergence invariants by exact integer arithmetic, and explore
the Cantor-like cylinder structure at finite depth.
"""

from .core import (
    CULLY_HUGILL,
    DEFAULT_CONFIG,
    DETERMINISTIC,
    EMPIRICAL,
    GAP_POLICIES,
    MATTNER,
    RH_CMS,
    THETA,
    BitCeilingError,
    CertifiedDecimalInterval,
    CompositeSeedError,
    Config,
    EnumerationCapError,
    ExponentSequence,
    ExponentSpecError,
    GapPolicy,
    PrcError,
    PrimalityVerdict,
    PrimeChain,
    SchemaError,
    Window,
    WindowSearchExhausted,
    parse_exponent_spec,
    probable,
    to_json,
)
from .primality import (
    WindowCount,
    count_primes_in_range,
    count_primes_in_window,
    find_prime_in_range,
    first_prime_in_range,
    is_prime,
    last_prime_in_range,
    max_prime_in_window,
    min_prime_in_window,
    modexp_backend,
    primes_in_range,
    primes_upto,
    scan_range,
    window_prime,
)
from .radix import (
    ApproxRecord,
    DigitResult,
    certified_root_enclosure,
    nth_root_floor,
    point_root_enclosure,
    prc_digits,
    rational_approx_scan,
    scaled_root_floor,
    verify_floor_recovery,
)
from .chain import (
    ChainReport,
    ConvergenceCheck,
    StepCheck,
    ThetaRecord,
    ThetaReport,
    approximants_monotone,
    build_chain,
    convergence_bound_check,
    seed_candidates,
    theta_window_report,
    verify_chain,
)
from .explorer import (
    BranchingStats,
    CylinderNode,
    Forest,
    Gap,
    GapEndpoint,
    LevelStats,
    branching_stats,
    explore_tree,
    forest_to_csv,
    forest_to_json,
    gap_intervals,
    validate_forest,
)

__version__ = "0.1.0"
