"""Concurrence hierarchies, Schmidt spectra, and LOCC convertibility for
bipartite pure quantum states, plus the Wootters concurrence machinery
for two-qubit mixed states."""

__version__ = "0.1.0"

from .errors import (
    ConcurrenceOutOfRange,
    DimensionMismatch,
    DimensionTooLargeForNewton,
    DuplicateEntry,
    EnthierError,
    IndexOutOfRange,
    InvalidDensity,
    NegativeCoefficient,
    NonFiniteInput,
    NonPositiveOrder,
    NotNormalized,
    ParseError,
    ZeroState,
)
from .linalg import (
    elementary_symmetric,
    minor_sum,
    seeded_rng,
    seeded_streams,
    singular_values_squared,
)
from .locc import (
    ConvertibilityVerdict,
    DominanceReport,
    Verdict,
    conversion_class,
    hierarchy_dominance,
    nielsen_verdict,
)
from .measures import (
    SPIN_FLIP,
    Separability,
    TwoQubitDensity,
    af_concurrence,
    binary_entropy,
    eof_from_concurrence,
    eof_pure,
    hierarchies,
    hierarchy,
    hierarchy_via_invariants,
    hierarchy_via_minors,
    invariants,
    ppt_check,
    renyi_entropy,
    rungta_concurrence,
    spin_flip_lambdas,
    wootters_concurrence,
)
from .statefile import parse_density, parse_state, state_document, write_state
from .states import (
    PureState,
    from_amplitudes,
    from_schmidt,
    random_pure,
    schmidt_rank,
    schmidt_spectra,
    schmidt_spectrum,
)
