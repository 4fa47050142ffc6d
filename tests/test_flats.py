"""Flats, closure, transversal search, boolean representability, simplification."""

import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from flatlat import (
    LimitExceeded,
    LoopsPresent,
    SimplicialComplex,
    all_flats,
    br_violation,
    closure,
    enumerate_lattices,
    is_transversal_bruteforce,
    realizing_complex,
    simplification,
    transversal_witness,
)
from flatlat import flats, parse
from flatlat.flats import _flat_labels

import helpers
from conftest import FIXTURES


def test_closure_fixes_the_flats_of_the_running_example(triangles):
    assert closure(triangles, {"1", "2"}) == frozenset({"1", "2"})
    assert closure(triangles, {"1", "3"}) != frozenset({"1", "3"})
    assert closure(triangles, triangles.vertices) == frozenset(triangles.vertices)


def test_flats_of_running_example(triangles_flats):
    assert [sorted(f) for f in triangles_flats.flats] == [
        [],
        ["1"],
        ["2"],
        ["3"],
        ["4"],
        ["1", "2"],
        ["1", "2", "3", "4"],
    ]


def test_flats_of_faceless_complex(empty_faces_cx):
    fam = all_flats(empty_faces_cx)
    assert [sorted(f) for f in fam.flats] == [["a", "b", "c"]]
    assert len(fam.lattice) == 1


def test_flats_of_non_br_example(nonbr):
    assert [sorted(f) for f in all_flats(nonbr).flats] == [[], ["1", "2", "3"]]


def test_flats_of_point_family():
    fam = all_flats(helpers.uniform_complex(3, 1))
    assert [sorted(f) for f in fam.flats] == [[], ["1", "2", "3"]]
    assert fam.lattice.isomorphism(helpers.chain_lattice(2)) is not None


def test_family_is_intersection_closed_and_contains_v(fixture_complexes):
    for c in fixture_complexes:
        fam = all_flats(c)
        flats = {frozenset(f) for f in fam.flats}
        assert frozenset(c.vertices) in flats
        for a, b in itertools.combinations(flats, 2):
            assert a & b in flats


def test_every_listed_flat_passes_the_predicate(fixture_complexes):
    for c in fixture_complexes:
        for f in all_flats(c).flats:
            assert closure(c, f) == f
        for x in itertools.combinations(c.vertices, 2):
            got = closure(c, x) == frozenset(x)
            assert got == (frozenset(x) in {frozenset(f) for f in all_flats(c).flats})


def test_lattice_meet_is_intersection_join_is_least_flat(triangles_flats):
    lat = triangles_flats.lattice
    flats = [frozenset(f) for f in triangles_flats.flats]
    for i, a in enumerate(flats):
        for j, b in enumerate(flats):
            assert flats[lat.meet(i, j)] == a & b
            want = min(
                (f for f in flats if a | b <= f),
                key=len,
            )
            assert flats[lat.join(i, j)] == want


def test_closure_examples(triangles):
    assert closure(triangles, {"1"}) == frozenset({"1"})
    assert closure(triangles, {"3", "4"}) == frozenset(triangles.vertices)


def test_closure_fixes_flats(triangles, triangles_flats):
    for f in triangles_flats.flats:
        assert closure(triangles, f) == frozenset(f)


@given(st.sets(st.sampled_from("1234")), st.sets(st.sampled_from("1234")))
def test_closure_is_a_closure_operator(xs, ys):
    triangles = helpers.glued_triangles_complex()
    cx = closure(triangles, xs)
    assert set(xs) <= cx
    assert closure(triangles, cx) == cx
    if xs <= ys:
        assert cx <= closure(triangles, ys)


def test_closure_of_empty_set_collects_loops(loops_cx):
    assert closure(loops_cx, set()) == frozenset({"c"})


def test_transversal_witness_on_running_example(triangles):
    w = transversal_witness(triangles, {"1", "2", "3"})
    assert w.ordering == ("1", "2", "3")
    assert w.chain == (
        frozenset(),
        frozenset({"1"}),
        frozenset({"1", "2"}),
        frozenset({"1", "2", "3", "4"}),
    )


def test_transversal_witness_structure(triangles):
    for face in triangles.faces:
        w = transversal_witness(triangles, face)
        assert w is not None
        assert sorted(w.ordering) == sorted(face)
        assert len(w.chain) == len(face) + 1
        for small, big in zip(w.chain, w.chain[1:]):
            assert small < big
        for f in w.chain:
            assert closure(triangles, f) == f
        for i, x in enumerate(w.ordering, start=1):
            assert x in w.chain[i] and x not in w.chain[i - 1]


def test_empty_set_is_a_transversal(triangles):
    w = transversal_witness(triangles, set())
    assert w.ordering == ()
    assert w.chain == (frozenset(),)


def test_non_br_edge_has_no_witness(nonbr):
    assert transversal_witness(nonbr, {"1", "2"}) is None
    assert not is_transversal_bruteforce(nonbr, {"1", "2"})


def test_transversal_prefixes_are_faces(fixture_complexes):
    for c in fixture_complexes:
        for r in range(len(c.vertices) + 1):
            for xs in itertools.combinations(c.vertices, r):
                w = transversal_witness(c, set(xs))
                if w is None:
                    continue
                assert c.is_face(set(xs))
                for i in range(len(w.ordering) + 1):
                    assert c.is_face(set(w.ordering[:i]))


def test_fast_path_agrees_with_bruteforce_on_all_subsets(fixture_complexes):
    for c in fixture_complexes:
        assert len(c.vertices) <= 5
        for r in range(len(c.vertices) + 1):
            for xs in itertools.combinations(c.vertices, r):
                fast = transversal_witness(c, set(xs)) is not None
                assert fast == is_transversal_bruteforce(c, set(xs))


def test_bruteforce_size_limit(triangles):
    big = helpers.uniform_complex(9, 9)
    with pytest.raises(LimitExceeded):
        is_transversal_bruteforce(big, set(big.vertices))


def test_br_decisions(triangles, u24, nonbr):
    assert br_violation(triangles) is None
    assert br_violation(u24) is None
    assert br_violation(nonbr) == frozenset({"1", "2"})


def test_matroids_are_boolean_representable(u24, u34):
    for m in (u24, u34, helpers.uniform_complex(3, 1), helpers.uniform_complex(3, 3)):
        assert m.exchange_violation() is None
        assert br_violation(m) is None


def test_simplification_of_running_example(triangles):
    quotient, classes = simplification(triangles)
    assert classes == tuple(frozenset({v}) for v in triangles.vertices)
    assert quotient.isomorphism(triangles) is not None


def test_simplification_merges_equal_closures():
    c = SimplicialComplex(["a", "b"], [{"a"}, {"b"}])
    quotient, classes = simplification(c)
    assert classes == (frozenset({"a", "b"}),)
    assert len(quotient.vertices) == 1
    assert quotient.is_face({quotient.vertices[0]})


def test_simplification_requires_no_loops(loops_cx):
    with pytest.raises(LoopsPresent):
        simplification(loops_cx)


def test_simplification_preserves_the_flat_lattice():
    # vertex 5 mirrors vertex 4 in every face but {4,5} itself is not a
    # face, so the two singleton closures coincide at {4,5}
    doubled = SimplicialComplex(
        ["1", "2", "3", "4", "5"],
        [
            {"1", "2", "3"},
            {"1", "2", "4"},
            {"1", "2", "5"},
            {"3", "4"},
            {"3", "5"},
        ],
    )
    quotient, classes = simplification(doubled)
    assert frozenset({"4", "5"}) in classes
    a = all_flats(doubled).lattice
    b = all_flats(quotient).lattice
    assert a.isomorphism(b) is not None


def test_simplification_matches_the_relabelled_quotient(fixture_complexes):
    """The same quotient and classes as relabelling the facets and
    rebuilding, on the loop-free complex fixtures, every complex on 1-4
    vertices, U(3,n) up to n = 12 and seeded random triple complexes on
    9-13 vertices: those where every closure class is one vertex keep their
    facets as they are, and merged classes may make facet images nest."""
    rng = random.Random(46)
    complexes = list(fixture_complexes)
    complexes += [c for n in range(1, 5) for c in helpers.all_complexes(n)]
    complexes += [parse(path.read_text()).value for path in FIXTURES.glob("*.cx")]
    complexes += [helpers.uniform_complex(n, 3) for n in range(3, 13)]
    complexes += [
        helpers.random_triple_complex(rng, n) for n in range(9, 14) for _ in range(3)
    ]
    simple = merged = 0
    for c in complexes:
        if c.loops():
            continue
        quotient, classes = simplification(c)
        assert (quotient, classes) == helpers.simplification_by_relabelled_faces(c)
        if len(classes) == len(c.vertices):
            simple += 1
        else:
            merged += 1
    assert simple and merged


def test_flat_lattice_matches_the_inclusion_matrix(fixture_complexes):
    """The lattice read off the columns of the flat masks is the one built
    from the inclusion matrix of every pair of flats, down to its labels,
    up- and down-sets, and its meets and joins are those the pairwise scan
    finds on that matrix, on every complex with up to 4 vertices, U(3,n)
    up to n = 12, seeded random triple complexes on 9-13 vertices and the
    complex fixtures."""
    rng = random.Random(158)
    complexes = [c for n in range(1, 5) for c in helpers.all_complexes(n)]
    complexes += [helpers.uniform_complex(n, 3) for n in range(3, 13)]
    complexes += [
        helpers.random_triple_complex(rng, n) for n in range(9, 14) for _ in range(3)
    ]
    complexes += fixture_complexes
    complexes += [parse(path.read_text()).value for path in FIXTURES.glob("*.cx")]
    for c in complexes:
        family = all_flats(c)
        got, want = family.lattice, helpers.flat_lattice_by_matrix(family)
        assert got == want  # labels and up-sets
        assert got._down == want._down
        n = len(want)
        order = [[want.leq(i, j) for j in range(n)] for i in range(n)]
        assert helpers.meet_join_tables(got) == helpers.meet_join_by_scan(want.labels, order)


def test_flats_restrict_to_flats(fixture_complexes):
    # intersecting a flat with the kept vertex set lands on a flat again
    for c in fixture_complexes:
        flats = all_flats(c).flats
        for r in range(1, len(c.vertices) + 1):
            for keep in itertools.combinations(c.vertices, r):
                sub = c.restriction(set(keep))
                for f in flats:
                    x = frozenset(f) & frozenset(keep)
                    assert closure(sub, x) == x


def test_injected_loops_do_not_change_the_flat_lattice(triangles):
    padded = SimplicialComplex(
        ["1", "2", "3", "4", "x", "y"],
        [set(f) for f in triangles.facets],
    )
    assert padded.loops() == frozenset({"x", "y"})
    assert all_flats(padded).lattice.isomorphism(all_flats(triangles).lattice) is not None
    # and the flats themselves are the originals with every loop adjoined
    got = {frozenset(f) for f in all_flats(padded).flats}
    want = {frozenset(f) | {"x", "y"} for f in all_flats(triangles).flats}
    assert got == want


def test_flat_lattice_of_br_fixture_is_atomistic(triangles, u24, u34):
    for c in (triangles, u24, u34):
        assert br_violation(c) is None
        assert all_flats(c).lattice.is_atomistic


def test_vertex_set_is_union_of_atom_flats_for_br_complexes():
    # needs boolean representability: among loop-free complexes on three
    # vertices the implication holds exactly for the representable ones
    for c in helpers.all_loopfree_complexes(3):
        fam = all_flats(c)
        union = set()
        for a in fam.lattice.atoms:
            union |= set(fam.flats[a])
        if br_violation(c) is None:
            assert union == set(c.vertices)


def test_atomistic_flat_lattices_exactly_for_br_three_vertex_complexes():
    for c in helpers.all_loopfree_complexes(3):
        lat = all_flats(c).lattice
        if br_violation(c) is None:
            assert lat.is_atomistic


def test_flats_scan_soft_limit():
    big = SimplicialComplex([f"v{i}" for i in range(25)], [])
    with pytest.raises(LimitExceeded):
        all_flats(big)


def test_every_flats_entry_point_is_held_to_the_soft_limit():
    # a 25-vertex path: its only flats are the empty set and every vertex,
    # so each query answers at once, but only when the limit is lifted
    names = [f"v{i:02d}" for i in range(25)]
    path = SimplicialComplex(names, [{a, b} for a, b in zip(names, names[1:])])
    everything = frozenset(names)
    queries = [
        (lambda **kw: all_flats(path, **kw).flats, (frozenset(), everything)),
        (lambda **kw: closure(path, {"v00"}, **kw), everything),
        (lambda **kw: br_violation(path, **kw), frozenset({"v00", "v01"})),
        (lambda **kw: transversal_witness(path, {"v00", "v01"}, **kw), None),
        (lambda **kw: simplification(path, **kw)[1], (everything,)),
    ]
    for query, answer in queries:
        with pytest.raises(LimitExceeded):
            query()
        assert query(override=True) == answer


def test_the_soft_limit_bounds_only_the_face_walk():
    # the realizing complex of the 10-chain has 27 vertices and lists its
    # minimal non-faces: the closure queries walk no face and answer without
    # override, while br_violation walks the faces and stays held
    complex_, _ = realizing_complex(helpers.chain_lattice(10))
    assert len(complex_.vertices) == 27
    face = {"1^1", "2^1"}
    closed = {"1^1", "1^2", "1^3", "2^1", "2^2", "2^3"}
    queries = [
        (lambda **kw: closure(complex_, face, **kw), closed),
        (lambda **kw: transversal_witness(complex_, face, **kw).ordering, ("1^1", "2^1")),
        (lambda **kw: is_transversal_bruteforce(complex_, face, **kw), True),
        (lambda **kw: len(simplification(complex_, **kw)[1]), 9),
    ]
    for query, answer in queries:
        assert query() == query(override=True) == answer
    with pytest.raises(LimitExceeded, match="flat enumeration on 27 vertices"):
        br_violation(complex_)


def test_separator_in_a_vertex_name_does_not_merge_flat_labels():
    c = SimplicialComplex(["x", "y", "x,y"], [{"x", "x,y"}, {"y", "x,y"}])
    lat = all_flats(c).lattice
    assert lat.labels == ("{}", "{x\\,y}", "{x,y}", "{x,y,x\\,y}")


def test_flat_labels_are_injective_on_escape_characters():
    names = ["", "\\", ",", "{", "}", "\\0", "0", "a", "a,", ",a", "{}", "\\,"]
    c = SimplicialComplex(names, [])
    labels = _flat_labels(c.vertices, range(c.full_mask + 1))
    assert len(set(labels)) == 1 << len(names)
    assert labels[:2] == ["{}", "{\\0}"]


def test_flat_labels_match_the_per_flat_escape():
    """The labels of the flat lattice, each name escaped once, are those
    escaping the names again for every flat: on the complex fixtures, U(3,n)
    up to n = 12 and complexes whose names hold \\ , { } or are empty."""
    complexes = [parse(path.read_text()).value for path in FIXTURES.glob("*.cx")]
    complexes += [helpers.uniform_complex(n, 3) for n in range(3, 13)]
    names = ["", "\\", ",", "{", "}", "a\\,b", "{x}", "\\0", "c"]
    complexes += [
        SimplicialComplex(names, [set(names[:4]), set(names[3:7]), set(names[6:])]),
        SimplicialComplex(names, [{a, b} for a, b in itertools.combinations(names, 2)]),
        SimplicialComplex(names[:5], []),
    ]
    for c in complexes:
        family = all_flats(c)
        want = tuple(helpers.flat_label(c, m) for m in family._masks)
        assert family.lattice.labels == want


# -- NextClosure against the subset scan ---------------------------------------


def _assert_flats_match_scan(c):
    assert all_flats(c)._masks == helpers.flat_masks_by_scan(c)


def test_next_closure_matches_scan_on_all_complexes_up_to_five_vertices():
    for n in range(1, 6):
        for c in helpers.all_complexes(n):
            _assert_flats_match_scan(c)


def test_next_closure_matches_scan_on_small_realizing_complexes():
    for lat in enumerate_lattices(6):
        complex_, _ = realizing_complex(lat)
        _assert_flats_match_scan(complex_)


def test_next_closure_matches_scan_on_rank_three_uniform_matroids():
    for n in range(3, 9):
        _assert_flats_match_scan(helpers.uniform_complex(n, 3))


def test_closure_fixes_exactly_the_scanned_flats(fixture_complexes):
    for c in fixture_complexes:
        flats = set(helpers.flat_masks_by_scan(c))
        for x in range(c.full_mask + 1):
            assert (closure(c, c.set_of(x)) == c.set_of(x)) == (x in flats)


def test_flat_cache_is_freed_with_the_complex():
    c = helpers.uniform_complex(6, 3)
    all_flats(c)
    closure(c, {"1"})
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None


def test_br_violation_is_the_first_non_transversal_face():
    """The witness is the first face, in the order of `faces`, that the
    brute-force transversal check rejects, on every complex with up to 4
    vertices and on the uniform complexes U(2,5) and U(3,5)."""
    complexes = [c for n in range(1, 5) for c in helpers.all_complexes(n)]
    complexes += [helpers.uniform_complex(5, 2), helpers.uniform_complex(5, 3)]
    for c in complexes:
        expected = next(
            (f for f in c.faces if not is_transversal_bruteforce(c, f)), None
        )
        assert br_violation(c) == expected


# -- the escape rule against the transversal search ------------------------------


def test_br_violation_matches_the_transversal_search(fixture_complexes):
    """The same witness as the memoized search on every face, on every
    complex with up to 4 vertices, a seeded sample of those with 5, U(2,n)
    and U(3,n) up to n = 10, seeded random triple complexes on 9-14
    vertices and the complex fixtures."""
    rng = random.Random(2015)
    complexes = [c for n in range(1, 5) for c in helpers.all_complexes(n)]
    complexes += rng.sample(helpers.all_complexes(5), 1000)
    complexes += [helpers.uniform_complex(n, k) for k in (2, 3) for n in range(k, 11)]
    complexes += [
        helpers.random_triple_complex(rng, n) for n in range(9, 15) for _ in range(5)
    ]
    complexes += fixture_complexes
    complexes += [parse(path.read_text()).value for path in FIXTURES.glob("*.cx")]
    for c in complexes:
        assert br_violation(c) == helpers.br_violation_by_search(c)


def test_br_violation_never_runs_the_transversal_search(monkeypatch, fixture_complexes):
    def refuse(cl, x_mask):
        raise AssertionError("br_violation ran the transversal search")

    monkeypatch.setattr(flats, "_transversal_order", refuse)
    outcomes = [br_violation(c) for c in fixture_complexes]
    outcomes.append(br_violation(helpers.uniform_complex(6, 3)))
    assert None in outcomes and any(outcomes)
