"""Exact commuting-probability toolkit for finite groups.

The library computes Pr(G), the fraction of ordered pairs that commute,
by two independent exact routes, verifies the classical closed-form
values and bounds for named group families, decomposes groups over an
abelian normal subgroup into unit-fraction form, and certifies gap
structure in unit-fraction value sets with machine-checkable witnesses.
"""

from .errors import (
    CommprobError,
    GroupValidationError,
    NoElementBelow,
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotLatinSquare,
    NotNormal,
    OrderCapExceeded,
    ParseError,
    PreconditionFailed,
    SearchBudgetExceeded,
    UnsupportedParams,
    ValidationError,
)
from .rationals import format_rational, parse_rational
from .groups import (
    ClassPartition,
    GroupTable,
    Permutation,
    Subgroup,
    all_subgroups,
    build_from_cayley,
    build_from_permutations,
    center,
    centralizer,
    conjugacy_classes,
    derived_subgroup,
    direct_product,
    fitting_subgroup,
    format_cycles,
    is_abelian,
    is_nilpotent,
    normal_core,
    normal_subgroups,
    orbit_count_on_normal,
    parse_cycles,
    quotient,
    subgroup_from_generators,
    subgroup_from_members,
)
from .probability import (
    BoundContext,
    EgyptianForm,
    FormulaTrace,
    PrReport,
    abelian_decomposition,
    check_bounds,
    pr_by_classes,
    pr_central_pgroup_formula,
    pr_direct,
    pr_report,
    verify_special_forms,
)
from .families import FamilySpec, corpus, make
from .egyptian import (
    GapCertificate,
    SpectrumQuery,
    UnitFractionMultiset,
    candidate_gap,
    descend,
    is_limit_point,
    max_below,
    solve_exact,
)
from .catalog import (
    CatalogEntry,
    ConjectureFinding,
    EntryFilter,
    SurveyReport,
    ingest,
    scan_interval,
    survey,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
