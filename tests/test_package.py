"""The package's export surface, and which modules each entry point loads.

``import prckit`` loads no module of the package: each exported name is
resolved by the package ``__getattr__`` on first use.  The load-order
probes run in fresh interpreters, since this one has loaded everything.
"""

import ast
import importlib
from pathlib import Path

import pytest

import prckit
from conftest import run_probe

EXPORTS = {
    "core": {
        "CULLY_HUGILL", "DEFAULT_CONFIG", "DETERMINISTIC", "EMPIRICAL", "GAP_POLICIES",
        "MATTNER", "RH_CMS", "THETA", "BitCeilingError", "CertifiedDecimalInterval",
        "CompositeSeedError", "Config", "EnumerationCapError", "ExponentSequence",
        "ExponentSpecError", "GapPolicy", "PrcError", "PrimalityVerdict", "PrimeChain",
        "SchemaError", "Window", "WindowSearchExhausted", "parse_exponent_spec",
        "probable", "to_json",
    },
    "primality": {
        "find_prime_in_range", "is_prime", "max_prime_in_window", "min_prime_in_window",
        "modexp_backend", "scan_range", "window_prime",
    },
    "sieve": {
        "count_primes_in_range", "enumerable_window", "first_prime_in_range",
        "last_prime_in_range", "primes_in_range",
    },
    "radix": {
        "ApproxRecord", "DigitResult", "certified_root_enclosure", "nth_root_floor",
        "point_root_enclosure", "prc_digits", "rational_approx_scan", "scaled_root_floor",
        "verify_floor_recovery",
    },
    "chain": {
        "ChainReport", "ConvergenceCheck", "StepCheck", "ThetaRecord", "ThetaReport",
        "approximants_monotone", "build_chain", "convergence_bound_check",
        "theta_window_report", "verify_chain",
    },
    "explorer": {
        "BranchingStats", "CylinderNode", "Forest", "Gap", "GapEndpoint", "LevelStats",
        "branching_stats", "explore_tree", "forest_to_csv", "forest_to_json",
        "gap_intervals", "validate_forest",
    },
}
NAMES = {name for names in EXPORTS.values() for name in names}


def _submodule(module):
    return importlib.import_module(f"prckit.{module}")


class TestExportSurface:
    def test_all_is_the_exported_names_and_the_version(self):
        assert len(NAMES) == 68
        assert len(prckit.__all__) == 69
        assert set(prckit.__all__) == NAMES | {"__version__"}

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_is_its_modules_binding(self, module):
        for name in EXPORTS[module]:
            assert getattr(prckit, name) is getattr(_submodule(module), name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from prckit import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(prckit.__all__)
        assert all(namespace[name] is getattr(prckit, name) for name in namespace)

    def test_dir_lists_every_name(self):
        assert set(prckit.__all__) <= set(dir(prckit))

    def test_unknown_names_raise(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            prckit.no_such_name
        with pytest.raises(ImportError):
            exec("from prckit import no_such_name", {})

    def test_reading_a_name_stores_nothing(self):
        for module in EXPORTS:
            _submodule(module)
        before = dict(vars(prckit))
        for name in prckit.__all__:
            getattr(prckit, name)
        assert dict(vars(prckit)) == before

    def test_a_name_follows_its_modules_binding(self, monkeypatch):
        primality = _submodule("primality")
        original = primality.is_prime
        monkeypatch.setattr(primality, "is_prime", lambda n: None)
        assert prckit.is_prime is primality.is_prime is not original
        monkeypatch.undo()
        assert prckit.is_prime is original


def test_import_and_each_entry_point_load_only_what_they_use(tmp_path):
    """``import prckit, prckit.cli`` loads no other module of the package;
    ``--version`` and a malformed ``verify`` load ``core``, a decoded chain
    file the modules ``verify_chain`` needs and ``sieve`` (its manifest
    reads the enumeration limits there), and ``explore`` the rest."""
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"primes": ["2"]}')
    chain_file = Path(__file__).parent / "golden" / "chain_mills.out"
    probe = f"""
import contextlib, io, sys
import prckit, prckit.cli

def loaded():
    print(" ".join(sorted(m[7:] for m in sys.modules if m.startswith("prckit."))))

loaded()
with contextlib.redirect_stdout(io.StringIO()):
    try:
        prckit.cli.main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0
loaded()
print(prckit.cli.main(["verify", "--chain-file", {str(malformed)!r}]))
loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = prckit.cli.main(["verify", "--chain-file", {str(chain_file)!r}])
print(code)
loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = prckit.cli.main(["explore", "--exps", "const:3", "--seeds", "2:2", "--depth", "1"])
print(code)
loaded()
"""
    assert run_probe(probe) == [
        "cli",
        "cli core",
        "66",
        "cli core",
        "0",
        "chain cli core primality radix sieve",
        "0",
        "chain cli core explorer primality radix sieve",
        "",
    ]


def test_a_name_as_first_access_loads_its_module():
    probe = """
import sys
import prckit

forest = prckit.explore_tree(prckit.parse_exponent_spec("const:3"), (2, 2), 1)
print(len(forest.roots) > 0, "explore_tree" in vars(prckit))
print(prckit.explore_tree is sys.modules["prckit.explorer"].explore_tree)
"""
    assert run_probe(probe)[:2] == ["True False", "True"]


def test_a_module_as_first_access_is_imported():
    probe = """
import sys
import prckit

print(prckit.radix is sys.modules["prckit.radix"], "prckit.explorer" in sys.modules)
"""
    assert run_probe(probe)[0] == "True False"


def test_private_names_cross_only_the_pinned_seams():
    """Every ``from .<module> import _<name>`` in the package: a module that
    reads another's private name is a seam, and a new one must be added here
    on purpose."""
    seams = set()
    for path in Path(prckit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                seams.update(
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert seams == {("sieve", "primality", "_TRIAL_PRIMES")}
