"""Finite lattices, simplicial complexes and their lattices of flats.

The package decides boolean representability of a simplicial complex, decides
whether a finite lattice is the lattice of flats of some complex, and builds
an explicit realizing complex when one exists.
"""

from .complexes import SimplicialComplex
from .errors import (
    ConstructionMismatch,
    EmptyRestriction,
    FlatlatError,
    LimitExceeded,
    LoopsPresent,
    NotALattice,
    NotAPartialOrder,
    NotAtomistic,
    ParseError,
    UnknownVertex,
)
from .flats import (
    FlatFamily,
    TransversalWitness,
    all_flats,
    br_violation,
    closure,
    is_transversal_bruteforce,
    simplification,
    transversal_witness,
)
from .formats import (
    Document,
    emit_dot_hasse,
    emit_json,
    format_complex,
    format_graph,
    format_lattice,
    parse,
)
from .graphs import (
    SimpleGraph,
    find_supercliques,
    supercliques_bruteforce,
    top_join_graph,
)
from .lattice import (
    FiniteLattice,
    enumerate_lattices,
    lattice_from_covers,
)
from .realize import (
    RealizabilityReport,
    TransversalComplex,
    boolean_matrix,
    is_chain_transversal_bruteforce,
    is_realizable,
    realizing_complex,
    transversal_complex,
    verify_realization,
    verify_realizing_complex,
)

__version__ = "0.1.0"

__all__ = [
    "ConstructionMismatch",
    "Document",
    "EmptyRestriction",
    "FiniteLattice",
    "FlatFamily",
    "FlatlatError",
    "LimitExceeded",
    "LoopsPresent",
    "NotALattice",
    "NotAPartialOrder",
    "NotAtomistic",
    "ParseError",
    "RealizabilityReport",
    "SimpleGraph",
    "SimplicialComplex",
    "TransversalComplex",
    "TransversalWitness",
    "UnknownVertex",
    "all_flats",
    "boolean_matrix",
    "br_violation",
    "closure",
    "emit_dot_hasse",
    "emit_json",
    "enumerate_lattices",
    "find_supercliques",
    "format_complex",
    "format_graph",
    "format_lattice",
    "is_chain_transversal_bruteforce",
    "is_realizable",
    "is_transversal_bruteforce",
    "lattice_from_covers",
    "parse",
    "realizing_complex",
    "simplification",
    "supercliques_bruteforce",
    "top_join_graph",
    "transversal_complex",
    "transversal_witness",
    "verify_realization",
    "verify_realizing_complex",
]
