"""The public surface of the package."""

import flatlat
import flatlat.complexes
import flatlat.errors
import flatlat.flats
import flatlat.formats
import flatlat.graphs
import flatlat.lattice
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
        "is_boolean_representable", "is_superclique", "LatticeIso", "ComplexIso",
    ),
    flatlat.errors: ("WrongHeight",),
    flatlat.flats: ("is_boolean_representable",),
    flatlat.formats: ("emit_dot_graph",),
    flatlat.graphs: ("realizable_height3", "edge_closure", "is_superclique"),
    flatlat.lattice: ("LatticeIso",),
    flatlat.complexes: ("ComplexIso",),
}
REMOVED_MEMBERS = {
    FiniteLattice: (
        "label", "is_semimodular_by_covers", "atoms_below", "meet_all", "join_all",
        "lt", "is_isomorphic",
    ),
    SimplicialComplex: ("proper_part", "is_isomorphic", "dimension"),
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


def test_reprs_equality_with_a_foreign_type_and_equal_graphs_hash_equal(
    triangles, nonreal6
):
    graph = SimpleGraph(["1", "2", "3"], [("1", "2"), ("2", "3")])
    assert repr(triangles) == (
        "SimplicialComplex(4 vertices; facets {1,2,3}, {1,2,4}, {3,4})"
    )
    assert repr(nonreal6) == "FiniteLattice(6 elements: B 1 2 3 m T)"
    assert repr(graph) == "SimpleGraph(3 vertices, 2 edges)"
    assert repr(transversal_complex(nonreal6)) == (
        "TransversalComplex(SimplicialComplex(3 vertices; facets {1,2,3}))"
    )
    for value in (triangles, nonreal6, graph):
        assert value.__eq__("foreign") is NotImplemented and value != "foreign"
    same = SimpleGraph(["1", "2", "3"], [("3", "2"), ("2", "1")])
    assert same == graph and hash(same) == hash(graph)
