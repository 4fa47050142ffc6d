"""Acceptance suite.

One test per acceptance criterion, so `pytest -v` prints one pass/fail line
for each.  Worked examples are checked exactly; the property suites assert
zero disagreements.  Stated time budgets are enforced with wall-clock asserts.
"""

import itertools
import random
import time

from flatlat import (
    all_flats,
    boolean_matrix,
    br_violation,
    enumerate_lattices,
    find_supercliques,
    is_chain_transversal_bruteforce,
    is_realizable,
    is_transversal_bruteforce,
    supercliques_bruteforce,
    top_join_graph,
    transversal_complex,
    transversal_witness,
    verify_realizing_complex,
    SimpleGraph,
    SimplicialComplex,
)

import helpers


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def test_criterion_1_worked_example_flats_br_semimodularity_matroid(triangles, triangles_flats):
    start = time.perf_counter()

    expected = {
        frozenset(),
        frozenset({"1"}),
        frozenset({"2"}),
        frozenset({"3"}),
        frozenset({"4"}),
        frozenset({"1", "2"}),
        frozenset({"1", "2", "3", "4"}),
    }
    assert set(triangles_flats.flats) == expected and len(triangles_flats) == 7

    assert br_violation(triangles) is None

    lat = triangles_flats.lattice
    witness = [lat.labels[i] for i in lat.semimodular_witness]
    assert witness == ["{1,2,3,4}", "{1,2}", "{2}", "{4}", "{}"]

    assert triangles.exchange_violation() is not None

    assert time.perf_counter() - start < 1.0


def test_criterion_2_three_chain_is_the_unique_smallest_non_realizable():
    start = time.perf_counter()

    small = list(enumerate_lattices(3))
    assert [len(lat) for lat in small] == [1, 2, 3]
    for lat in small:
        report = is_realizable(lat)
        if len(lat) <= 2:
            assert report.realizable
        else:
            # the only 3-element lattice is the chain
            assert lat.height == 2 and not report.realizable

    assert time.perf_counter() - start < 1.0


def test_criterion_3_unique_non_realizable_atomistic_class_up_to_six(nonreal6):
    start = time.perf_counter()

    bad = [
        lat
        for lat in enumerate_lattices(6)
        if lat.is_atomistic and not is_realizable(lat).realizable
    ]
    assert len(bad) == 1
    culprit = bad[0]
    assert culprit.isomorphism(nonreal6) is not None

    canonical = transversal_complex(culprit).complex
    assert len(canonical.vertices) == 3
    assert canonical.facets == (frozenset(canonical.vertices),)
    assert len(all_flats(canonical)) == 8 != len(culprit)

    assert time.perf_counter() - start < 10.0


def test_criterion_4_construction_round_trip_with_predicted_map():
    start = time.perf_counter()

    checked = 0
    for lat in enumerate_lattices(5):
        mapping = verify_realizing_complex(lat)
        assert len(set(mapping)) == len(lat)
        checked += 1
    assert checked == 10

    assert time.perf_counter() - start < 60.0


def test_criterion_5_canonical_complex_of_flat_lattice_recovers_the_complex(
    triangles, triangles_flats
):
    rebuilt = transversal_complex(triangles_flats.lattice).complex
    assert rebuilt.isomorphism(triangles) is not None


def test_criterion_6_superclique_criterion_matches_general_path():
    checked = 0
    for lat in enumerate_lattices(7):
        if not lat.is_atomistic or lat.height != 3:
            continue
        fast = is_realizable(lat)
        general = is_realizable(lat, force_general=True).realizable
        assert fast.method == "height-3" and fast.realizable == general
        checked += 1
    assert checked > 0


def test_criterion_7_fast_paths_agree_with_bruteforce_oracles(
    fixture_complexes, nonreal6
):
    disagreements = []

    for complex_ in fixture_complexes:
        assert len(complex_.vertices) <= 5
        for subset in _subsets(complex_.vertices):
            fast = transversal_witness(complex_, subset) is not None
            slow = is_transversal_bruteforce(complex_, subset)
            if fast != slow:
                disagreements.append(("transversal", complex_.vertices, subset))

    for lat in enumerate_lattices(6):
        if not lat.is_atomistic or len(lat) == 1:
            continue
        canonical = transversal_complex(lat).complex
        atom_labels = [lat.labels[a] for a in sorted(lat.atoms)]
        for combo in _subsets(atom_labels):
            fast = canonical.is_face(combo)
            slow = is_chain_transversal_bruteforce(lat, combo)
            if fast != slow:
                disagreements.append(("chain", lat.labels, combo))

    graphs = [
        SimpleGraph(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")]),
        top_join_graph(nonreal6),
        SimpleGraph(["a", "b", "c"], []),
        SimpleGraph("abcd", [(x, y) for x, y in itertools.combinations("abcd", 2)]),
    ]
    rng = random.Random(20260814)
    graphs += [helpers.random_graph(rng) for _ in range(200)]
    for graph in graphs:
        if find_supercliques(graph) != supercliques_bruteforce(graph):
            disagreements.append(("superclique", graph.vertices, graph.edges))

    assert disagreements == []


def test_criterion_8_structural_invariants_hold_on_the_fixture_set(
    fixture_complexes,
):
    violations = []

    br_fixtures = [c for c in fixture_complexes if br_violation(c) is None]
    assert len(br_fixtures) >= 4
    for complex_ in br_fixtures:
        family = all_flats(complex_)
        lat = family.lattice

        if not lat.is_atomistic:
            violations.append(("flats-not-atomistic", complex_.facets))

        if not complex_.loops():
            covered = set().union(*(family.flats[a] for a in lat.atoms))
            if covered != set(complex_.vertices):
                violations.append(("atoms-miss-vertices", complex_.facets))

        for flat in family.flats:
            for keep in _subsets(complex_.vertices):
                if not keep:
                    continue
                restricted = complex_.restriction(keep)
                if flat & frozenset(keep) not in all_flats(restricted).flats:
                    violations.append(("restriction-flat", complex_.facets, keep))

        if not complex_.loops():
            widened = SimplicialComplex(
                list(complex_.vertices) + ["loop1", "loop2"], complex_.facets
            )
            if all_flats(widened).lattice.isomorphism(lat) is None:
                violations.append(("loop-injection", complex_.facets))

    for lat in enumerate_lattices(6):
        if not lat.is_atomistic or len(lat) == 1:
            continue
        canonical = transversal_complex(lat)
        complex_ = canonical.complex
        for pair in itertools.combinations(complex_.vertices, 2):
            if not complex_.is_face(pair):
                violations.append(("canonical-not-simple", lat.labels, pair))
        if br_violation(complex_) is not None:
            violations.append(("canonical-not-br", lat.labels))

        family = all_flats(complex_)
        atom_sets = [
            frozenset(lat.labels[a] for a in helpers.atoms_below(lat, x))
            for x in range(len(lat))
        ]
        if len(set(atom_sets)) != len(lat):
            violations.append(("atom-map-not-injective", lat.labels))
        for x, y in itertools.product(range(len(lat)), repeat=2):
            if lat.leq(x, y) != (atom_sets[x] <= atom_sets[y]):
                violations.append(("atom-map-not-order-iso", lat.labels, x, y))
        for atoms in atom_sets:
            if atoms not in family.flats:
                violations.append(("atom-image-not-flat", lat.labels, atoms))

        rows = boolean_matrix(lat)
        if len({tuple(r) for r in rows}) != len(rows):
            violations.append(("matrix-rows-collide", lat.labels))

    assert violations == []


def test_criterion_9_height_equals_atom_count_realizable_iff_boolean():
    disagreements = []
    checked = 0
    for lat in enumerate_lattices(7):
        if lat.height != len(lat.atoms):
            continue
        checked += 1
        realizable = is_realizable(lat, force_general=True).realizable
        if realizable != lat.is_boolean:
            disagreements.append(lat.labels)
    assert checked > 0
    assert disagreements == []
