"""Exact counting, enumeration, and uniform sampling of rooted line-colored
D-ary trees, with generating-function and root-isolation diagnostics."""

__version__ = "0.1.0"

from .combinatorics import (
    ColorProfile,
    binomial,
    closed_form_count,
    fuss_catalan_total,
    narayana,
    profiles_with_total,
)
from .counting import ProfileCountTable, SampleRequest, SplitMix64
from .errors import (
    BudgetExceeded,
    ColorError,
    ColorOrderError,
    DegenerateError,
    DomainError,
    IndexOutOfRange,
    IntegralityViolation,
    LineTreesError,
    ParseError,
    RootFindingFailure,
)
from .roots import (
    CharPolynomial,
    RootReport,
    build_char_polynomial,
    d2_closed_form,
    roots_all,
    rouche_isolation_check,
)
from .series import (
    MultiSeries,
    closed_form_series,
    elementary_symmetric_series,
    solve_tree_equation,
    verify_convolution,
    verify_geometric,
    verify_linear_recursion,
)
from .trees import (
    ColoredTree,
    count_by_profile_bruteforce,
    decode,
    encode,
    enumerate_by_lines,
    profile_counts,
)
from .verification import (
    Mismatch,
    VerificationReport,
    verify_fuss_catalan_rows,
    verify_narayana_bridge,
    verify_oracle,
)
