"""What the package keeps at module level between calls.

A module-level cache stays only with a row in ROADMAP's cache ledger,
whose quartiles show that a workload runs slower without it.  Every other
module-level container is a table that nothing mutates.  So a new cache,
or a table that some call fills in, fails here until it has a ledger row.
"""

import importlib
import pkgutil

import permlang

# the caches with a ledger row, then the tables that nothing mutates
KEPT = {
    "permlang.cli._parsers",
    "permlang.codec._split",
    "permlang.tape._neighbours",
    "permlang.codec.MOVES",
    "permlang.codec._ILLEGAL",
    "permlang.counting.ROUTES",
}


def test_module_state_is_the_ledger_caches_and_fixed_tables():
    modules = [permlang] + [
        importlib.import_module(f"permlang.{info.name}")
        for info in pkgutil.iter_modules(permlang.__path__)
    ]
    found = {
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if not name.startswith("__")
        and (hasattr(value, "cache_info") or isinstance(value, (list, dict, set, bytearray)))
    }
    assert found == KEPT
