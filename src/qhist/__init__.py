"""Finite-dimensional consistent-histories engine with stable/relative fact
classification for multi-observer quantum scenarios."""

from .errors import QHistError
from .framework import (
    UNDEFINED,
    ProjectiveDecomposition,
    conjunction,
    decompositions_compatible,
    make_decomposition,
    negation,
    refine,
)
from .histories import (
    ConsistencyReport,
    Evolution,
    HistoryFamily,
    TimeGrid,
    build_family,
    chain_ket,
    coarse_grain,
    consistency_check,
)
from .linalg import (
    DEFAULT_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Tolerance,
    commutator,
    dagger,
    hermitian_eigenprojectors,
    is_projector,
    is_unitary,
    tensor_product,
)
from .oracle import exhaustive_additivity_scan, sequential_probability
from .scenario import Scenario, parse_scenario, resolve, serialize_scenario
from .stablefacts import (
    CompatibilityReport,
    FactQuery,
    ObserverRecord,
    Verdict,
    check_compatibility,
    check_total_probability_law,
    combine,
    combine_all,
    conditional_probability,
    information_preserved,
)

__version__ = "0.1.0"
