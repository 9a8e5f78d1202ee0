"""Exact free-cumulant calculus for anti-commutators and quadratic forms.

The package computes free cumulants of ab + ba and of weighted quadratic
expressions in free random variables, entirely in rational arithmetic.
The combinatorial side (non-crossing partitions, Kreweras complements,
block multigraphs and their oriented outercycles) lives in
``partitions`` and ``cactus``; the summation formulas and their
brute-force oracle in ``cumulants``; the polynomial-time interval DP that
the command line uses by default in ``dp``; truncated power series and the
generating-function identities in ``series``; the self-checks in ``verify``.
``freecactus.cli`` wires it all into a command line tool.
"""

from freecactus.cactus import (
    BlockMultigraph,
    CactusValidation,
    OrientedCactus,
    bipartition,
    build_graph,
    canonical_outercycle,
    enumerate_oriented_cacti,
    g_exponent,
    is_connected,
    validate_cactus,
)
from freecactus.cumulants import (
    CumulantSpec,
    WeightMatrix,
    anticommutator_cumulant,
    anticommutator_cumulant_graphwise,
    cumulants_from_moments,
    even_anticommutator,
    format_rational,
    moments_from_cumulants,
    oracle_anticommutator_cumulants,
    oracle_anticommutator_moments,
    oracle_quadratic_cumulants,
    oracle_quadratic_moments,
    parse_rational,
    parse_spec,
    product_cumulant,
    quadratic_form_cumulant,
    semicircular_anticommutator,
)
from freecactus.dp import DEFAULT_DP_CAP, dp_cumulants
from freecactus.errors import ResourceCapError
from freecactus.series import (
    DEFAULT_SERIES_ORDER,
    FunctionalEquationReport,
    RMSeries,
    TruncatedSeries,
    cauchy_polynomial_residual,
    check_functional_equations,
    free_poisson_pair_cumulants,
    minverse_closed_form,
    r_m_transfer,
    y_count,
    y_count_recursive,
    y_level_counts,
    y_series,
)
from freecactus.partitions import (
    DEFAULT_ENUMERATION_CAP,
    Partition,
    PartitionClassification,
    catalan,
    classify,
    enumerate_connected,
    enumerate_nc,
    enumerate_y,
    interval_pairing,
    is_noncrossing,
    join,
    kreweras,
    level_counts,
    refines,
    restrict,
    x_membership,
)

__version__ = "0.1.0"
