"""Indecomposable perfect matchings: intervals, pin sequences, canonical
patterns, and certified witness search."""

from .core import (
    Edge,
    Matching,
    Segment,
    as_edge,
    find_intervals,
    is_indecomposable,
    make_matching,
    subpattern,
)
from .enumeration import (
    SOFT_CAP,
    AvoiderReport,
    CensusRow,
    all_matchings,
    census,
    recurrence_counts,
    scan_avoiders,
)
from .patterns import (
    PatternKind,
    Side,
    Witness,
    WitnessKind,
    canonical,
    canonical_edges,
    crossers,
    extract_from_crossed_edge,
    longest_monotone,
    max_pattern,
)
from .pins import (
    PinSequence,
    PinTree,
    build_pin_tree,
    classify_sequence,
    grow_right_reaching,
    properize,
)
from .ramsey import (
    Bounds,
    TheoremReport,
    WitnessReport,
    bounds,
    verify_theorem,
    witness,
)

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "Matching",
    "Segment",
    "as_edge",
    "find_intervals",
    "is_indecomposable",
    "make_matching",
    "subpattern",
    "PinSequence",
    "PinTree",
    "build_pin_tree",
    "classify_sequence",
    "grow_right_reaching",
    "properize",
    "PatternKind",
    "Side",
    "Witness",
    "WitnessKind",
    "canonical",
    "canonical_edges",
    "crossers",
    "extract_from_crossed_edge",
    "longest_monotone",
    "max_pattern",
    "Bounds",
    "TheoremReport",
    "WitnessReport",
    "bounds",
    "verify_theorem",
    "witness",
    "SOFT_CAP",
    "AvoiderReport",
    "CensusRow",
    "all_matchings",
    "census",
    "recurrence_counts",
    "scan_avoiders",
    "__version__",
]
