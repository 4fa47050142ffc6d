"""Text formats, DOT emitters, and JSON serialization."""

import json

import pytest
from hypothesis import given, strategies as st

from flatlat import (
    FiniteLattice,
    NotALattice,
    ParseError,
    SimpleGraph,
    SimplicialComplex,
    emit_dot_hasse,
    emit_json,
    enumerate_lattices,
    find_supercliques,
    format_complex,
    format_graph,
    format_lattice,
    is_realizable,
    parse,
    top_join_graph,
)

import helpers

NONREAL6_TEXT = (
    "lattice\n"
    "elements B 1 2 3 m T\n"
    "cover B 1\n"
    "cover B 2\n"
    "cover B 3\n"
    "cover 1 m\n"
    "cover 2 m\n"
    "cover m T\n"
    "cover 3 T\n"
)

TRIANGLES_TEXT = (
    "complex\n"
    "vertices 1 2 3 4\n"
    "facet 1 2 3\n"
    "facet 1 2 4\n"
    "facet 3 4\n"
)


def test_parse_lattice(nonreal6):
    doc = parse(NONREAL6_TEXT)
    assert doc.kind == "lattice"
    lat = doc.value
    assert lat.labels == nonreal6.labels
    for x in range(len(lat)):
        for y in range(len(lat)):
            assert lat.leq(x, y) == nonreal6.leq(x, y)


def test_parse_complex(triangles):
    doc = parse(TRIANGLES_TEXT)
    assert doc.kind == "complex"
    assert doc.value == triangles


def test_parse_trivial_lattice():
    lat = parse("lattice\nelements a\n").value
    assert len(lat) == 1 and lat.labels == ("a",)


def test_parse_graph():
    doc = parse("graph\nvertices x y z\nedge x y\n")
    assert doc.kind == "graph"
    assert doc.value.edges == (("x", "y"),)


def test_format_header_and_comments_are_accepted():
    text = "# leading comment\nformat 1\n\nlattice\nelements a b # trailing\ncover a b\n"
    lat = parse(text).value
    assert lat.labels == ("a", "b")


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("", 1, "empty"),
        ("format 2\nlattice\nelements a\n", 1, "format"),
        ("poset\nelements a\n", 1, "kind"),
        ("lattice\nvertices a\n", 2, "found 'vertices'"),
        ("lattice\nelements a a\n", 2, "duplicate"),
        ("lattice\nelements a\nbelow a a\n", 3, "directive"),
        ("complex\nvertices a\nfacet b\n", 3, "unknown"),
        ("graph\nvertices a b\nedge a\n", 3, "edge"),
        ("graph\nvertices a b\nedge a a\n", 3, "loop"),
        ("lattice\nelements a b\ncover a b extra\n", 3, "cover"),
    ],
)
def test_parse_errors(text, line, fragment):
    with pytest.raises(ParseError, match=fragment) as exc:
        parse(text)
    assert exc.value.line == line


def test_parse_error_coordinates_point_at_the_token():
    with pytest.raises(ParseError) as exc:
        parse("lattice\nelements a b\ncover a c\n")
    assert (exc.value.line, exc.value.column) == (3, 9)


def test_validation_errors_pass_through():
    # two maximal elements: the covers describe a poset that is not a lattice
    with pytest.raises(NotALattice):
        parse("lattice\nelements B a b\ncover B a\ncover B b\n")


def test_lattice_round_trip():
    for lat in enumerate_lattices(5):
        again = parse(format_lattice(lat)).value
        assert again.labels == lat.labels
        assert all(
            again.leq(x, y) == lat.leq(x, y)
            for x in range(len(lat))
            for y in range(len(lat))
        )


def test_complex_round_trip(fixture_complexes):
    for c in fixture_complexes:
        assert parse(format_complex(c)).value == c


def test_graph_round_trip(nonreal6):
    g = top_join_graph(nonreal6)
    assert parse(format_graph(g)).value == g


def test_format_complex_lists_facets_by_vertex_index_tuple():
    # by mask value the order would be b c, d, a e; by size then vertex
    # order it would be d, b c, a e
    c = SimplicialComplex(list("abcde"), [{"a", "e"}, {"b", "c"}, {"d"}])
    assert format_complex(c).splitlines()[2:] == ["facet a e", "facet b c", "facet d"]


# any token the line format can carry: no whitespace and no comment sign
TOKENS = st.text(
    st.characters(
        blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"), blacklist_characters="#"
    ),
    min_size=1,
    max_size=4,
).filter(lambda tok: not any(ch.isspace() for ch in tok))
SMALL_LATTICES = list(enumerate_lattices(5))


@st.composite
def labelled_lattices(draw):
    lat = draw(st.sampled_from(SMALL_LATTICES))
    n = len(lat)
    labels = draw(st.lists(TOKENS, min_size=n, max_size=n, unique=True))
    order = [[lat.leq(i, j) for j in range(n)] for i in range(n)]
    return FiniteLattice(labels, order)


@st.composite
def labelled_complexes(draw):
    labels = draw(st.lists(TOKENS, min_size=1, max_size=6, unique=True))
    faces = draw(st.lists(st.sets(st.sampled_from(labels)), max_size=5))
    return SimplicialComplex(labels, faces)


@st.composite
def labelled_graphs(draw):
    labels = draw(st.lists(TOKENS, min_size=2, max_size=6, unique=True))
    pairs = draw(st.lists(st.sets(st.sampled_from(labels), min_size=2, max_size=2)))
    return SimpleGraph(labels, [tuple(p) for p in pairs])


@given(labelled_lattices())
def test_parse_inverts_format_lattice(lat):
    assert parse(format_lattice(lat)).value == lat


@given(labelled_complexes())
def test_parse_inverts_format_complex(c):
    assert parse(format_complex(c)).value == c


@given(labelled_graphs())
def test_parse_inverts_format_graph(g):
    assert parse(format_graph(g)).value == g


def test_hasse_dot_output(nonreal6, triangles_flats):
    two = helpers.chain_lattice(2, ["B", "T"])
    dot = emit_dot_hasse(two)
    assert dot.startswith("digraph")
    assert dot.count("->") == 1 and '"B" -> "T";' in dot

    dot = emit_dot_hasse(nonreal6)
    assert dot.count("->") == 7
    assert sum(1 for line in dot.splitlines() if line.strip().startswith('"') and "->" not in line) == 6

    dot = emit_dot_hasse(triangles_flats.lattice)
    assert dot.count("->") == 9


def test_json_report_for_three_chain():
    rep = is_realizable(helpers.chain_lattice(3, ["B", "m", "T"]))
    data = json.loads(emit_json(rep))
    assert data["atomistic"] is False
    assert data["realizable"] is False
    assert list(data)[:2] == ["atomistic", "realizable"]


def test_json_superclique_witnesses(nonreal6):
    cliques = find_supercliques(top_join_graph(nonreal6))
    data = json.loads(emit_json({"supercliques": cliques}))
    assert data == {"supercliques": [["1", "3"], ["2", "3"]]}


def test_json_round_trips_nested_reports(triangles_flats):
    payload = {
        "count": len(triangles_flats),
        "flats": [sorted(f) for f in triangles_flats.flats],
    }
    assert json.loads(emit_json(payload)) == payload


def test_json_sorts_a_set_of_unorderable_values_by_their_json_text():
    assert json.loads(emit_json({1, "a"})) == ["a", 1]
