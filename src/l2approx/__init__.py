"""L2 invariants of group-ring matrices and their finite approximations.

The package computes spectral density functions, kernel dimensions, and
regularized (Fuglede-Kadison) determinants for matrices over group rings,
both at single finite levels and along approximation schemes (quotient
towers and Folner box exhaustions), with independent oracles for the
trivial group (exact integer linear algebra) and free abelian groups
(torus symbol quadrature).

It has two layers.  The description layer (``errors``, ``groups``,
``groupring``, ``matrices``, ``jsonio``) reads, validates and writes
problems; importing the package loads it and ``_lazy``, no more.  The
numerics layer (``spectral``, ``schemes``, ``oracles``, ``verdicts``,
``cw``, ``verify``) computes; a name exported here from it imports its
module on first access.
"""

__version__ = "0.1.0"

from . import _lazy  # registers numpy, so a blocked numpy fails this import
from .errors import L2ApproxError
from .groupring import GaussianRational, RingElement
from .groups import (
    CyclicGroup,
    DirectProductGroup,
    FiniteTableGroup,
    FolnerExhaustion,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    Homomorphism,
    QuotientTower,
    TrivialGroup,
    build_boxes_folner,
    free_abelian_quotient,
    product_group,
    symmetric_group,
)
from .jsonio import VERDICTS
from .matrices import (
    ChainComplexSpec,
    RingMatrix,
    k_bound,
    laplacian,
    positive_square,
    trace,
)

# numerics module -> the names exported from it, each imported on first use
_NUMERICS = {
    "cw": ("L2Report", "l2_invariants", "validate"),
    "oracles": ("nonzero_eigenvalue_product_exact", "torus_logdet"),
    "schemes": ("LevelReport", "run_folner", "run_tower"),
    "spectral": (
        "EigenResult", "SpectralDensity", "betti", "density_from_eigs", "finite_spectrum", "log_det",
    ),
    "verdicts": ("Context",),
}
_HOME = {name: module for module, names in _NUMERICS.items() for name in names}

__all__ = sorted(
    [
        "errors", "groupring", "groups", "matrices",
        "L2ApproxError", "GaussianRational", "RingElement",
        "CyclicGroup", "DirectProductGroup", "FiniteTableGroup", "FolnerExhaustion",
        "FreeAbelianGroup", "FreeGroup", "Group", "Homomorphism", "QuotientTower",
        "TrivialGroup", "build_boxes_folner", "free_abelian_quotient", "product_group",
        "symmetric_group", "VERDICTS", "ChainComplexSpec", "RingMatrix", "k_bound",
        "laplacian", "positive_square", "trace",
        *_NUMERICS,
        *_HOME,
    ]
)


def __getattr__(name):
    """A numerics module, or a name exported from one, imported now."""
    from importlib import import_module

    if name in _NUMERICS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
