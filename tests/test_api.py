"""The public surface of the package."""

import flatlat
import flatlat.errors
import flatlat.flats
import flatlat.formats
import flatlat.graphs
from flatlat import (
    FiniteLattice,
    FlatFamily,
    SimpleGraph,
    SimplicialComplex,
    transversal_complex,
)

import helpers

REMOVED_NAMES = {
    flatlat: (
        "from_faces", "validate_lattice", "flats_lattice", "is_flat", "AllLoops",
        "realizable_height3", "WrongHeight", "edge_closure", "emit_dot_graph",
        "is_boolean_representable", "is_superclique",
    ),
    flatlat.errors: ("WrongHeight",),
    flatlat.flats: ("is_boolean_representable",),
    flatlat.formats: ("emit_dot_graph",),
    flatlat.graphs: ("realizable_height3", "edge_closure", "is_superclique"),
}
REMOVED_MEMBERS = {
    FiniteLattice: (
        "label", "is_semimodular_by_covers", "atoms_below", "meet_all", "join_all",
        "lt", "is_isomorphic",
    ),
    SimplicialComplex: ("proper_part", "is_isomorphic"),
    SimpleGraph: ("neighbors", "has_edge"),
    FlatFamily: ("index", "__iter__"),
}


def test_public_names_are_sorted_resolve_and_exclude_the_removed_aliases():
    assert flatlat.__all__ == sorted(flatlat.__all__)
    assert [name for name in flatlat.__all__ if not hasattr(flatlat, name)] == []
    for module, names in REMOVED_NAMES.items():
        assert [name for name in names if hasattr(module, name)] == []
    for cls, names in REMOVED_MEMBERS.items():
        assert [name for name in names if hasattr(cls, name)] == []
    canonical = transversal_complex(helpers.nonrealizable6_lattice())
    assert vars(canonical).keys() == {"complex"}
