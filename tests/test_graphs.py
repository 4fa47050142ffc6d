"""Atom graphs, superclique detection, and the height-3 criterion."""

import itertools
import random

import pytest

from flatlat import (
    LimitExceeded,
    SimpleGraph,
    all_flats,
    enumerate_lattices,
    find_supercliques,
    is_realizable,
    is_superclique,
    supercliques_bruteforce,
    top_join_graph,
)
from flatlat.graphs import _grow

import helpers


def adjacent(graph, a, b):
    return (a, b) in graph.edges or (b, a) in graph.edges


def grown(graph, a, b):
    """The edge closure of {a, b}: the least superset holding every vertex
    adjacent to two of its members."""
    return graph.set_of(_grow(graph, graph.mask_of((a, b))))


def test_simple_graph_basics():
    g = SimpleGraph(["a", "b", "c"], [("a", "b")])
    assert g.edges == (("a", "b"),)
    assert SimpleGraph(["a", "b", "c"], [("b", "a")]) == g
    assert SimpleGraph(["a", "b", "c"], [("a", "c")]) != g
    with pytest.raises(ValueError):
        SimpleGraph(["a"], [("a", "a")])


def test_atom_graph_of_the_nonrealizable_lattice(nonreal6):
    g = top_join_graph(nonreal6)
    assert g.vertices == ("1", "2", "3")
    assert g.edges == (("1", "3"), ("2", "3"))


def test_atom_graph_of_example_flats(triangles_flats):
    g = top_join_graph(triangles_flats.lattice)
    assert g.vertices == ("{1}", "{2}", "{3}", "{4}")
    non_edges = [
        pair for pair in itertools.combinations(g.vertices, 2) if not adjacent(g, *pair)
    ]
    assert non_edges == [("{1}", "{2}")]


def test_atom_graph_of_geometric_height3_lattice(u34):
    lat = all_flats(u34).lattice
    assert lat.is_geometric and lat.height == 3
    g = top_join_graph(lat)
    assert g.edges == ()


def test_is_superclique(nonreal6, triangles_flats):
    g = top_join_graph(nonreal6)
    assert is_superclique(g, {"1", "3"})
    assert is_superclique(g, {"2", "3"})
    assert not is_superclique(g, {"1", "2"})
    assert not is_superclique(g, {"3"})
    assert not is_superclique(g, set())

    gamma = top_join_graph(triangles_flats.lattice)
    assert not is_superclique(gamma, {"{3}", "{4}"})


def test_complete_graph_is_its_own_superclique():
    k4 = SimpleGraph("abcd", itertools.combinations("abcd", 2))
    assert is_superclique(k4, set("abcd"))
    assert find_supercliques(k4) == (frozenset("abcd"),)
    assert supercliques_bruteforce(k4) == (frozenset("abcd"),)


def test_edge_closure_growth(nonreal6, triangles_flats):
    g = top_join_graph(nonreal6)
    assert grown(g, "1", "3") == frozenset({"1", "3"})
    gamma = top_join_graph(triangles_flats.lattice)
    assert grown(gamma, "{3}", "{4}") == frozenset(gamma.vertices)


def test_edge_closure_matches_one_vertex_at_a_time():
    """Every edge of seeded random graphs on up to 12 vertices closes to the
    set the one-vertex-at-a-time growth reaches under a shuffled scan order,
    and find_supercliques keeps exactly the cliques among those closures."""
    rng = random.Random(1994)
    for _ in range(300):
        g = helpers.random_graph(rng, max_vertices=12)
        closures = set()
        for a, b in g.edges:
            order = list(g.vertices)
            rng.shuffle(order)
            closed = helpers.edge_closure_one_at_a_time(g, a, b, order)
            assert grown(g, a, b) == closed
            closures.add(closed)
        cliques = [w for w in closures if is_superclique(g, w)]
        assert find_supercliques(g) == tuple(
            sorted(cliques, key=lambda w: (len(w), sorted(map(g._vertex, w))))
        )


def test_find_supercliques_examples(nonreal6, triangles_flats):
    assert find_supercliques(top_join_graph(nonreal6)) == (
        frozenset({"1", "3"}),
        frozenset({"2", "3"}),
    )
    assert find_supercliques(top_join_graph(triangles_flats.lattice)) == ()
    assert find_supercliques(SimpleGraph("abc", [])) == ()
    path = SimpleGraph("1234", [("1", "2"), ("2", "3"), ("3", "4")])
    assert find_supercliques(path) == (
        frozenset({"1", "2"}),
        frozenset({"2", "3"}),
        frozenset({"3", "4"}),
    )


def test_supercliques_are_maximal_cliques():
    rng = random.Random(7)
    for _ in range(100):
        g = helpers.random_graph(rng)
        for w in find_supercliques(g):
            for a, b in itertools.combinations(sorted(w), 2):
                assert adjacent(g, a, b)
            for c in set(g.vertices) - w:
                assert not all(adjacent(g, c, v) for v in w)


def test_growth_matches_naive_scan_on_random_graphs():
    rng = random.Random(20260814)
    for _ in range(200):
        g = helpers.random_graph(rng, max_vertices=10)
        assert find_supercliques(g) == supercliques_bruteforce(g)


def test_naive_scan_limit():
    big = SimpleGraph([f"v{i}" for i in range(17)], [])
    with pytest.raises(LimitExceeded):
        supercliques_bruteforce(big)
    assert supercliques_bruteforce(big, override=True) == ()


def test_height3_criterion(nonreal6, triangles_flats, u34):
    report = is_realizable(nonreal6)
    assert (report.method, report.realizable) == ("height-3", False)
    assert report.supercliques[0] == ("1", "3")
    for lat in (triangles_flats.lattice, all_flats(u34).lattice):
        report = is_realizable(lat)
        assert (report.method, report.realizable) == ("height-3", True)
        assert report.supercliques is None


def test_height3_criterion_needs_height3():
    """The criterion decides exactly the atomistic lattices of height 3."""
    for lat in enumerate_lattices(7):
        decided = is_realizable(lat).method == "height-3"
        assert decided == (lat.is_atomistic and lat.height == 3)
    report = is_realizable(helpers.powerset_lattice("ab"))
    assert (report.method, report.realizable) == ("height-le-2", True)


def test_height3_criterion_on_non_atomistic_lattice():
    chain = helpers.chain_lattice(4)
    assert chain.height == 3
    report = is_realizable(chain)
    assert (report.method, report.realizable) == ("atomistic", False)
    assert report.supercliques is None


def test_height3_criterion_matches_general_decision():
    for lat in helpers.atomistic_lattices(7):
        if lat.height != 3:
            continue
        report = is_realizable(lat)
        assert report.method == "height-3"
        assert report.realizable == is_realizable(lat, force_general=True).realizable
        cliques = find_supercliques(top_join_graph(lat))
        assert report.supercliques == (
            tuple(tuple(sorted(w, key=lat.labels.index)) for w in cliques) or None
        )
