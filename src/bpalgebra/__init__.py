"""Exact symbolic engine for the Bershadsky-Polyakov vertex algebra.

Singular vectors, Zhu-algebra projections and Smith-algebra relations,
highest-weight classifications at the supported levels, and the free-field
realizations, all over exact rational arithmetic.
"""

from .arith import Poly1, Poly2, binomial, frac, rational_roots, resultant
from .modes import BAR, GM, GP, HW, J, L, OMEGA, VAC, BPAlgebra, State
from .weightspace import (
    contragredient_weight,
    conjugate_weight_omega,
    enumerate_basis,
    basis_dimension_oracle,
    spectral_flow_weight,
    spectral_flow_weight_inverse,
    top_action,
    top_vector,
)
from .singular import AnnihilatorSet, find_singular, verify_singular
from .zhu import (
    SmithAlgebra,
    SmithWord,
    g_poly,
    h_poly,
    smith_relation,
    zero_mode_poly,
    zhu_circle,
    zhu_reduce,
    zhu_star,
)
from .classify import classify_level, infinite_top_certificates, pi0_bracket_identity, solve_system
from .freefield import (
    Embedding,
    FFAlgebra,
    FFState,
    check_embedding,
    embedding_for_level,
    fermionic_embedding,
    push_state,
    weyl_charge_decomposition,
    weyl_embedding,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
