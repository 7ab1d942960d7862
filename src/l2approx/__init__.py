"""L2 invariants of group-ring matrices and their finite approximations.

The package computes spectral density functions, kernel dimensions, and
regularized (Fuglede-Kadison) determinants for matrices over group rings,
both at single finite levels and along approximation schemes (quotient
towers and Folner box exhaustions), with independent oracles for the
trivial group (exact integer linear algebra) and free abelian groups
(torus symbol quadrature).
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
)
from .oracles import (
    nonzero_eigenvalue_product_exact,
    torus_logdet,
)
from .schemes import (
    FolnerExhaustion,
    LevelReport,
    QuotientTower,
    build_boxes_folner,
    run_folner,
    run_tower,
)
from .spectral import (
    EigenResult,
    SpectralDensity,
    betti,
    density_from_eigs,
    finite_spectrum,
    log_det,
)
from .verdicts import VERDICTS, Context

__all__ = [name for name in dir() if not name.startswith("_")]
