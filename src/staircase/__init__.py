"""Exact invariants of monomial ideals.

Staircase computes, in exact rational arithmetic, the basic invariants of a
monomial ideal: its Newton polytope and facets, the diagonal entry value mu
(the reciprocal of the log canonical threshold), colength, covolume, Samuel
multiplicity and integral closure.  On top of those it verifies a family of
sharp inequalities relating them, and provides a degeneration engine
(Groebner bases plus a truncated-linear-algebra oracle) that bounds the
invariants of non-monomial ideals from above.
"""

from .errors import (
    ConsistencyError,
    DimensionError,
    DomainError,
    FormatError,
    NotZeroDimensionalError,
    ParseError,
    ResourceError,
    StaircaseError,
)
from .ideals import (
    Exponent,
    GcdFactorization,
    MonomialIdeal,
    colength,
    colength_inclusion_exclusion,
    contains_polynomial,
    divides,
    factor_out_gcd,
    ideal_power,
    ideal_product,
    integral_closure,
    is_power_of_maximal,
    is_zero_dimensional,
    maximal_ideal_power,
    shift_ideal,
)
from .polytope import FacetInequality, MuValue, NewtonPolytope, build_polytope, compute_mu, covolume
from .invariants import (
    Codim2Report,
    ZeroDimReport,
    codim2_corpus,
    multiplicity,
    multiplicity_limit_estimate,
    random_corpus,
    random_ideal,
    verify_codim2,
    verify_zero_dim,
    zero_dim_corpus,
)
from .polynomials import MonomialOrder, PolyIdeal, RationalPolynomial, default_order
from .groebner import buchberger, initial_ideal
from .degeneration import (
    LengthCheck,
    TangentCone,
    check_length_preservation,
    initial_ideal_truncated,
    least_certified_mu,
    mu_upper_bound_details,
    tangent_cone,
    tangent_cone_initial,
)

__version__ = "0.1.0"
