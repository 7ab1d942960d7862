"""L2 invariants of group-ring matrices and their finite approximations.

The package computes spectral density functions, kernel dimensions, and
regularized (Fuglede-Kadison) determinants for matrices over group rings,
both at single finite levels and along approximation schemes (quotient
towers and Folner box exhaustions), with independent oracles for the
trivial group (exact integer linear algebra) and free abelian groups
(torus symbol quadrature, Mahler measure).
"""

__version__ = "0.1.0"

from .cw import ChainComplexSpec, L2Report, l2_invariants, validate
from .errors import L2ApproxError
from .groupring import GaussianRational, RingElement
from .groups import (
    CyclicGroup,
    DirectProductGroup,
    FiniteTableGroup,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    Homomorphism,
    TrivialGroup,
    cyclic_quotient,
    free_abelian_quotient,
    product_group,
    symmetric_group,
)
from .matrices import (
    RingMatrix,
    k_bound,
    laplacian,
    positive_square,
    trace,
    trace_poly,
    trace_poly_exact,
)
from .oracles import (
    char_poly_exact,
    mahler_1x1,
    nonzero_eigenvalue_product_exact,
    torus_density,
    torus_logdet,
    trivial_group_logdet_exact,
)
from .schemes import (
    FolnerExhaustion,
    LevelReport,
    QuotientTower,
    SandwichPolynomial,
    build_boxes_folner,
    build_sandwich,
    complex_tower_run,
    compress,
    run_folner,
    run_tower,
    sandwich_level_check,
    sintapr_check,
    squeeze_check,
    whitehead_check,
)
from .spectral import (
    EigenResult,
    SpectralDensity,
    betti,
    density_from_eigs,
    finite_spectrum,
    log_det,
    subgroup_invariance_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
