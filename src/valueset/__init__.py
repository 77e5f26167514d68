"""Exact value-set cardinality of polynomials over finite fields.

Three independent counting algorithms (direct enumeration, codomain
root-testing, and the symmetric-function formula over equal-value tuple
counts), the quadratic-character pattern gadget, and executable subset-sum
and 3SAT hardness reductions, each checked against brute-force oracles.
"""

from .charsum import alpha_poly, chi, coverage, is_onto
from .counting import (
    count_codomain,
    count_direct,
    count_hypersurface_points,
    count_symmetric,
    count_value_set,
    has_root,
    is_permutation,
    nk_brute,
    nk_from_histogram,
    nk_from_hypersurface,
    omega_identity_check,
    sym_weights,
)
from .errors import ValueSetError
from .ffield import Field, is_irreducible, is_prime, make_field, solve_linear
from .polyrep import (
    DensePoly,
    SlpBuilder,
    SparsePoly,
    SparseShiftPoly,
    Slp,
    degree_bound,
    evaluate,
    parse_poly,
    reduce_exponents,
    serialize_poly,
    to_dense,
)
from .reductions import (
    Cnf3,
    CountingPoly,
    SubsetSumInstance,
    brute_subset_count,
    brute_subset_decision,
    build_beta,
    build_circuit,
    build_gamma,
    circuit_image_count,
    count_ssp_via_valueset,
    decide_ssp_via_root,
    find_prime_above,
    gamma_image_check,
    parse_dimacs,
    sat_count,
)

__version__ = "0.1.0"
