"""The public surface of the package."""

import pickle

import pytest

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
    is_realizable,
    parse,
    transversal_complex,
    transversal_witness,
)
from flatlat._util import IndexMap

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
        "lt", "is_isomorphic", "covers",
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


def test_records_keep_their_reprs_and_refuse_assignment(triangles, nonreal6):
    records = {
        "IndexMap(mapping=(0, 1))": IndexMap((0, 1)),
        "RealizabilityReport(atomistic=True, realizable=True, method='height-le-2', "
        "lattice_size=4, non_atomistic_witness=None, canonical_flat_count=None, "
        "supercliques=None)": is_realizable(helpers.powerset_lattice(["a", "b"])),
        "RealizabilityReport(atomistic=True, realizable=False, method='height-3', "
        "lattice_size=6, non_atomistic_witness=None, canonical_flat_count=None, "
        "supercliques=(('1', '3'), ('2', '3')))": is_realizable(nonreal6),
        "TransversalWitness(ordering=('3',), chain=(frozenset(), frozenset({'3'})))":
            transversal_witness(triangles, ["3"]),
        "Document(kind='lattice', value=FiniteLattice(1 elements: a))":
            parse("lattice\nelements a\n"),
    }
    for text, record in records.items():
        assert repr(record) == text
        field = text[text.index("(") + 1 : text.index("=")]
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_report_jsonable_keeps_the_field_order(nonreal6):
    assert list(is_realizable(nonreal6).to_jsonable()) == [
        "atomistic", "realizable", "method", "lattice_size", "supercliques",
    ]
    assert list(is_realizable(nonreal6, force_general=True).to_jsonable()) == [
        "atomistic", "realizable", "method", "lattice_size", "canonical_flat_count",
    ]


def test_index_map_iterates_its_images_and_equals_only_index_maps(nonreal6):
    mapping = IndexMap((2, 0, 1))
    assert list(mapping) == [2, 0, 1] and set(mapping) == {0, 1, 2}
    assert mapping.__eq__((2, 0, 1)) is NotImplemented and mapping != (2, 0, 1)
    assert mapping == IndexMap((2, 0, 1)) and hash(mapping) == hash(IndexMap((2, 0, 1)))
    assert pickle.loads(pickle.dumps(mapping)) == mapping
    assert list(nonreal6.isomorphism(nonreal6)) == list(range(len(nonreal6)))
