"""Exact p-adic continued fractions over quadratic irrationals.

Browkin (centered digits) and Ruban (nonnegative digits) expansions with
exact state arithmetic, periodicity detection and analysis, and the
machinery for constructing square roots whose expansion has a prescribed
even period length.
"""

__version__ = "0.1.0"

from .core import (
    INF,
    DlogBudgetExceeded,
    InvariantError,
    LaurentInt,
    discrete_log,
    hensel_digits,
    legendre,
    mod_inverse,
    mult_order,
    padic_square_exists,
    sqrt_mod_p,
    vp,
)
from .engine import (
    BROWKIN,
    RUBAN,
    ConvergentTable,
    Expansion,
    QuadIrr,
    convergents,
    eval_finite,
    expand,
    expand_rational,
    normalize,
    parse_quotient_list,
    periodic_limit,
    valuation_audit,
)
from .analysis import (
    RegularityReport,
    dt_identities,
    galois_check,
    is_regular,
    reversed_period_identity,
    ruban_nonperiodic_probe,
    trace_zero_classify,
)
from .construct import (
    ConstructionInfeasible,
    ConstructionResult,
    NiceCertificate,
    beta,
    beta_polynomials,
    cala_identities,
    construct,
    family_section6,
    is_nice,
    nice_search,
)
