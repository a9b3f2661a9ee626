"""Exact invariants and normal forms of plane branch singularities."""

import sys

from .branch import BranchInputError, PuiseuxParam
from .catalog import (
    EXAMPLE_IDS,
    build_table_row,
    counterexample_change,
    load_samples,
    random_coordinate_change,
    run_reproduction,
)

# While `python -m planebranch.cli` locates its module it imports this
# package with sys.argv[0] == "-m", then runs cli.py as __main__; loading
# cli here as well would run it twice, which runpy warns about.  Otherwise
# cli is loaded with the package, so `planebranch.cli` is in sys.modules.
if sys.argv[:1] != ["-m"]:
    from .cli import main as cli_main

from .normalform import (
    CoordChange,
    EquivVerdict,
    NormalFormResult,
    apply_coordinate_change,
    compose_changes,
    decide_equivalence,
    eliminate_term,
    homothety_solve,
    to_normal_form,
)
from .semigroup import CharData, char_exponents_from_generators
from .series import (
    AboveTruncation,
    BiPoly,
    TSeries,
    bipoly_pullback,
    rat,
    series_root_unit,
)
from .valuation import (
    MONOMIAL_CLASS,
    DifferentialForm,
    InternalError,
    ValueSet,
    differential_gaps,
    lambda_set,
    s_sandwich_check,
    semigroup_of_values,
    value_of_differential,
    value_of_function,
    zariski_invariant,
)

__all__ = [
    "AboveTruncation",
    "BiPoly",
    "BranchInputError",
    "CharData",
    "CoordChange",
    "DifferentialForm",
    "EXAMPLE_IDS",
    "EquivVerdict",
    "InternalError",
    "MONOMIAL_CLASS",
    "NormalFormResult",
    "PuiseuxParam",
    "TSeries",
    "ValueSet",
    "apply_coordinate_change",
    "bipoly_pullback",
    "build_table_row",
    "char_exponents_from_generators",
    "cli_main",
    "counterexample_change",
    "differential_gaps",
    "compose_changes",
    "decide_equivalence",
    "eliminate_term",
    "homothety_solve",
    "lambda_set",
    "load_samples",
    "random_coordinate_change",
    "rat",
    "run_reproduction",
    "s_sandwich_check",
    "semigroup_of_values",
    "series_root_unit",
    "to_normal_form",
    "value_of_differential",
    "value_of_function",
    "zariski_invariant",
]

__version__ = "0.1.0"
