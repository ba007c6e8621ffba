"""Exact weighted counts of elliptic curve groups over prime finite fields.

The census counts isomorphism classes of curves over F_p with weight
1/#Aut, by group shape (m, k) meaning Z/m x Z/mk or by order N, through
weighted class numbers of binary quadratic forms.  Local Euler factors,
2-adic constants, and GL2 matrix-count densities give the conjectural main
terms; brute-force oracles back every closed formula.
"""

from .arith import (
    Factorization,
    euler_phi,
    factorize,
    is_prime,
    kronecker,
    mobius,
    primes_in_ap,
    primes_up_to,
    valuation,
)
from .curves import (
    ConsistencyError,
    CurveTally,
    GroupShape,
    brute_force_tally,
    delta_statistic,
    eta_statistic,
    inclusion_exclusion_check,
    m_of_group,
    m_of_order,
    m_p_of_group,
    m_p_of_order,
    trace_discriminant,
)
from .localfactors import (
    aut_order,
    j_r_v,
    k_of_group,
    k_of_order,
    main_term,
    p_of_ell,
    script_j,
    script_j_by_levels,
    t_closed_form,
    t_of_n,
)
from .matrixcounts import (
    MatrixCountQuery,
    count_c_brute,
    count_c_closed,
    det_count_closed,
    euler_density,
    gl2_order,
    shape_density,
)
from .quadforms import (
    class_number_twelfths,
    kronecker_class_number_weighted,
    l_value_exact,
    l_value_series,
)

__version__ = "0.1.0"
