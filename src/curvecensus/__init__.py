"""Exact weighted counts of elliptic curve groups over prime finite fields.

The census counts isomorphism classes of curves over F_p with weight
1/#Aut, by group shape (m, k) meaning Z/m x Z/mk or by order N, through
weighted class numbers of binary quadratic forms.  Local Euler factors,
2-adic constants, and GL2 matrix-count densities give the conjectural main
terms; brute-force oracles back every closed formula.

The package root exports the paper's quantities, their oracles, and the
records and errors they return; every other public name is imported from
its module, such as curvecensus.arith.kronecker.
"""

from .arith import Factorization, factorize, is_prime
from .curves import (ConsistencyError, CurveTally, GroupShape, brute_force_tally, delta_statistic,
                     eta_statistic, m_of_group, m_of_order, m_p_of_group)
from .localfactors import aut_order, k_of_group, k_of_order, main_term, script_j, script_j_by_levels
from .matrixcounts import (MatrixCountQuery, count_c_brute, count_c_closed, det_count_closed,
                           euler_density, gl2_order, shape_density)
from .quadforms import class_number_twelfths, kronecker_class_number_weighted

__version__ = "0.1.0"
