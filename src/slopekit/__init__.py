"""Exact degrees, slopes, and canonical slope filtrations of euclidean
lattices, hermitian lattices over imaginary quadratic fields, and
multifiltered rational vector spaces."""

from .exactval import LogRational, compare, half_log, log_of_rational, parse, to_float
from .lattice import (
    EuclideanLattice,
    LatticeMorphism,
    Sublattice,
    a2_lattice,
    e8_lattice,
    evaluation_vector,
    tensor_vector_to_hom,
    unit_lattice,
)
from .enumeration import (
    CertifiedMuMax,
    EnumerationCapExceeded,
    ShortVectorReport,
    SlopePolygon,
    densest_sublattice,
    enumerate_short_vectors,
    hermite_constant_pow,
    is_semistable,
    lll_reduce,
    minimum_sq,
    minkowski_check,
    mu_max,
    mu_min,
    slope_filtration,
)
from .hermitian import (
    HermitianLattice,
    ImagQuadField,
    faltings_height_sq,
    identity_tensor_sq,
    rank_one_degree,
    unit_hermitian,
)
from .multifilt import (
    Filtration,
    MultifilteredSpace,
    dual_mf,
    mu_max_mf,
    multigraded_dims,
    nu_witness,
    slope_faltings,
    slope_filtration_mf,
    tensor_mf,
)
from .report import Check, Report, ReproFailure

__version__ = "0.1.0"

__all__ = [
    "LogRational",
    "compare",
    "half_log",
    "log_of_rational",
    "parse",
    "to_float",
    "EuclideanLattice",
    "LatticeMorphism",
    "Sublattice",
    "a2_lattice",
    "e8_lattice",
    "evaluation_vector",
    "tensor_vector_to_hom",
    "unit_lattice",
    "CertifiedMuMax",
    "EnumerationCapExceeded",
    "ShortVectorReport",
    "SlopePolygon",
    "densest_sublattice",
    "enumerate_short_vectors",
    "hermite_constant_pow",
    "is_semistable",
    "lll_reduce",
    "minimum_sq",
    "minkowski_check",
    "mu_max",
    "mu_min",
    "slope_filtration",
    "HermitianLattice",
    "ImagQuadField",
    "faltings_height_sq",
    "identity_tensor_sq",
    "rank_one_degree",
    "unit_hermitian",
    "Filtration",
    "MultifilteredSpace",
    "dual_mf",
    "inequality_suite",
    "mu_max_mf",
    "multigraded_dims",
    "nu_witness",
    "slope_faltings",
    "slope_filtration_mf",
    "tensor_mf",
    "Check",
    "Report",
    "ReproFailure",
]


def __getattr__(name):  # PEP 562: the experiment harness loads on first use
    if name != "inequality_suite":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .harness import inequality_suite

    return inequality_suite
