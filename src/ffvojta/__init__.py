"""ffvojta: exact arithmetic over Q(t) with a degeneracy-bound harness.

The package provides places, divisors and heights on the projective line,
S-unit generation and dependence testing, bivariate resultant machinery,
truncated zero counting with its explicit constant ledgers, the unit-sum
height bound, a projective-family fixture, and a CLI that verifies the
height/relation/zero-count trichotomy over seeded batches.
"""

from .field_core import (
    OmegaForm,
    Place,
    Poly,
    RatFunc,
    choose_omega,
    divisor_of,
    height,
    ord_at,
    proj_height,
)
from .sunits import (
    DependenceResult,
    PlaceSet,
    SUnit,
    as_ratfunc,
    enlarge_for_coefficients,
    euler_char,
    generate,
    mult_dependence,
    sunit_from_ratfunc,
)
from .bipoly import (
    BiPoly,
    b_polynomial,
    check_dependence_transfer,
    evaluate,
    poly_height,
    rational_roots,
    resultant_x,
    resultant_y,
    torus_derivative,
    vanishes_at,
)
from .counting import (
    BoundCheck,
    check_cz_gcd_bound,
    check_zannier_bound,
    gcd_units_sum,
    min_ord_sum,
    trunc_count,
)
from .constants import (
    IrredLedger,
    PairLedger,
    ThetaLedger,
    irred_ledger,
    pair_ledger,
    theta_ledger,
)
from .unitsum import VanishingSum, bm_weight, check_bm
from .p2family import (
    BiDegree,
    BiForm,
    jacobian_ramification,
    log_canonical_bidegree,
    quartic_family,
)
from .parser import parse_bipoly, parse_place, parse_ratfunc
from .verify import (
    RunConfig,
    audit_steps,
    classify,
    emit_report,
    verify_trichotomy,
)

__version__ = "0.1.0"
