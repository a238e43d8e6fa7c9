"""Exact-arithmetic p-adic L-values via Bernoulli-measure Riemann sums.

The package builds the Kubota-Leopoldt p-adic L-function as an integral
of chi omega^(-1) times an integer-power weight against the Bernoulli
measure on Z/dZ x Z_p, entirely in exact arithmetic, and verifies its
interpolation property at negative integers against an independently
computed closed form in generalized Bernoulli numbers.
"""

from .bernoulli import (
    bernoulli,
    bernoulli_poly,
    bernoulli_poly_eval,
)
from .dirichlet import (
    DirichletCharacter,
    char_power,
    load_table_character,
    make_teich_char,
    parse_character_spec,
    trivial_character,
)
from .errors import (
    CostLimitExceeded,
    DivisionByZero,
    InsufficientPrecision,
    LevelOrder,
    LevelTooLow,
    NotAUnit,
    NotCoprime,
    NotDivisible,
    NotMultipleOfConductor,
    PadicLFError,
    UnsupportedOrder,
)
from .genbernoulli import (
    general_bernoulli,
    general_bernoulli_coeffs,
    general_bernoulli_exact,
    twisted_mean_limit,
    twisted_mean_truncation,
    unit_power_sum,
)
from .lfunction import (
    EvalReport,
    LpParams,
    VerifyReport,
    Weight,
    p_adic_L,
    riemann_sum,
    special_value_closed_form,
    verify_interpolation,
)
from .measure import (
    BernoulliParams,
    CylinderFunction,
    bernoulli_distribution,
    distribution_refine_sum,
    integral,
    measure_apply,
    norm_bound_check,
)
from .modarith import crt_combine, units_of
from .padic import DEFAULT_RELPREC, PadicNum, rational_valuation

__version__ = "0.1.0"
