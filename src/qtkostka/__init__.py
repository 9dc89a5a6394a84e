"""Exact computation of composition Kostka functions.

The package builds non-symmetric Macdonald polynomials and parabolic
Kazhdan-Lusztig basis elements inside the same Hecke-algebra module and
pairs them, entirely over Z[v, v^-1, q, q^-1] (t = v^2).  Everything the
library exports is certified on the fly: triangularity, self-duality,
eigenvalue equations, exactness of divisions and rank stability are
rechecked during computation, and a ConsistencyError means a result could
not be certified rather than a wrong answer.
"""

from .coeffs import CoeffPoly, ConsistencyError, NonExactDivision
from .compositions import (
    MarkedDiagram,
    all_markings,
    arm,
    boxes,
    canonicalize,
    compositions_of,
    format_composition,
    format_marked,
    leg,
    marking_stats,
    pad,
    parse_composition,
    parse_marked,
    partition_length,
    sorting_data,
    weight,
)
from .bruhat import leq_affine, min_rep_length, preceq
from .parabolic import ModuleElement, MSymmetryViolation, bar_d, d_basis, msym_expand, psi_monomial
from .polyrep import (
    ZPoly,
    bar_polynomial,
    cherednik_xi,
    from_module,
    to_module,
    xi_eigenvalue,
)
from .macdonald import (
    MacdonaldResult,
    duality_check,
    e_box_product,
    e_monomial,
    e_orbit,
    e_tilde,
    intertwiner_check,
    marked_e,
    marked_orbit,
    marked_sum_check,
    symmetric_j,
)
from .kl import KLElement, kl_element, skew_positive_part
from .kostka import (
    KostkaResult,
    charge_oracle,
    kostka,
    kostka_q0_check,
    kostka_via_schur,
    marked_decomposition_check,
    marked_kostka,
    msym_basis,
    pair,
    psi_e_polynomial,
    quotients,
    scan,
    schur_z,
)
from .cache import cache_digest, cache_get, cache_path, cache_put
from .memo import clear_caches

__version__ = "0.1.0"
