"""Divisor theory on weighted tropical curves.

Exact-rational toolkit for metric graphs with vertex weights: reduced
divisors, Baker-Norine rank (pure and weighted), Abel-Jacobi maps,
divisor transport between subcurves, and Brill-Noether ranks, plus a
degeneration harness for semicontinuity experiments.
"""

from .curve import (
    CombinatorialType,
    Point,
    PointMap,
    Subcurve,
    TropicalCurve,
    attach_loops,
    contract,
    deformation_retracts,
    genus,
    loopless_model,
    neighborhood,
    realize,
    rescale,
    subdivide,
    underlying_pure,
)
from .divisor import (
    Divisor,
    PLFunction,
    clamp,
    degree,
    principal_divisor,
    pushforward,
    restrict,
    star,
)
from .models import is_equivalent, reduced_divisor
from .rank import (
    canonical,
    rank_pure,
    rank_weighted,
    rank_weighted_loops,
    rose_rank,
    weighted_A_rank,
)
from .jacobian import (
    CycleBasis,
    TorusPoint,
    UniversalCoords,
    abel_jacobi,
    cycle_basis,
    pushforward_class,
    scale_cycles,
    universal_coords,
)
from .transport import (
    TransportResult,
    arrange_multi,
    concentrate,
    confinement_search,
    dilute,
    push_single,
    slope_bound_check,
)
from .brill_noether import (
    BNQuery,
    DegenerationSpec,
    bn_rank,
    run_closedness_experiment,
    run_usc_experiment,
    wdr_member,
)

__version__ = "0.1.0"

__all__ = [
    "CombinatorialType",
    "Point",
    "PointMap",
    "Subcurve",
    "TropicalCurve",
    "attach_loops",
    "contract",
    "deformation_retracts",
    "genus",
    "loopless_model",
    "neighborhood",
    "realize",
    "rescale",
    "subdivide",
    "underlying_pure",
    "Divisor",
    "PLFunction",
    "clamp",
    "degree",
    "principal_divisor",
    "pushforward",
    "restrict",
    "star",
    "is_equivalent",
    "reduced_divisor",
    "canonical",
    "rank_pure",
    "rank_weighted",
    "rank_weighted_loops",
    "rose_rank",
    "weighted_A_rank",
    "CycleBasis",
    "TorusPoint",
    "UniversalCoords",
    "abel_jacobi",
    "cycle_basis",
    "pushforward_class",
    "scale_cycles",
    "universal_coords",
    "TransportResult",
    "arrange_multi",
    "concentrate",
    "confinement_search",
    "dilute",
    "push_single",
    "slope_bound_check",
    "BNQuery",
    "DegenerationSpec",
    "bn_rank",
    "run_closedness_experiment",
    "run_usc_experiment",
    "wdr_member",
    "__version__",
]
