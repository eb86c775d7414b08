"""stabkit: exact-arithmetic stability machinery for quiver
representations at desk scale.

The package decides semistability, computes descending-phase
filtrations two independent ways, measures slicing and stability-space
distances on finite testsets, applies the universal-cover plane action
with exact branch bookkeeping, verifies heart-preserving deformations,
finds walls along charge paths, and classifies numerical charges on a
genus-one curve.
"""

from .exactnum import (
    ExactComplex,
    PhaseKey,
    QuadScalar,
    ccw_displacement,
    in_strict_upper_half,
)
from .quivrep import (
    Arrow,
    Quiver,
    QuiverRep,
    Submodule,
    enumerate_submodules,
    euler_form,
    hom_dim,
    subquotient,
)
from .slicing import FormalComplex, PhaseInterval, containment_check, hn_decompose, in_interval, phi_bounds, slicing_distance
from .stability import (
    CentralCharge,
    HNFiltration,
    SemistabilityCertificate,
    check_discreteness,
    hn_filtration_max_sub,
    hn_filtration_mdq,
    is_semistable,
    mass,
    phase,
)
from .stabspace import (
    ChargePath,
    GLtildeElement,
    StabilityConditionHandle,
    WallEvent,
    deform,
    find_walls,
    gl_act,
    invert,
    norm_sigma,
    stab_distance,
    validate_axioms,
)
from .ellcurve import NumClass, NumericalCharge, classify, euler_form_curve, modular_reduce, std_charge
from .session import SessionDocument, parse_session

__version__ = "0.1.0"
