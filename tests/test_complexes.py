"""Simplicial complex construction, restriction, matroid check, isomorphism."""

import functools
import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from flatlat import (
    EmptyRestriction,
    SimplicialComplex,
    UnknownVertex,
    parse,
    realizing_complex,
)

from flatlat._util import columns, common, mask_sort_key, maximal_masks, refine
from flatlat.complexes import _facet_implications

import helpers
from conftest import FIXTURES


def test_facets_of_running_example(triangles):
    assert sorted(sorted(f) for f in triangles.facets) == [
        ["1", "2", "3"],
        ["1", "2", "4"],
        ["3", "4"],
    ]


def test_complex_constructor_normalizes_faces():
    c = SimplicialComplex(["a"], [set()])
    assert c.facets == (frozenset(),)
    c = SimplicialComplex(["a", "b"], [{"a"}, {"a", "b"}])
    assert c.facets == (frozenset({"a", "b"}),)
    # downward closure recovers the dropped subsets
    assert c.is_face({"b"}) and c.is_face(set())


def test_complex_constructor_rejects_unknown_vertices():
    with pytest.raises(UnknownVertex):
        SimplicialComplex(["a", "b"], [{"a", "z"}])


def test_vertex_set_must_be_nonempty_and_distinct():
    with pytest.raises(ValueError):
        SimplicialComplex([], [])
    with pytest.raises(ValueError):
        SimplicialComplex(["a", "a"], [])


def test_face_membership(triangles):
    assert triangles.is_face({"1", "2", "3"})
    assert not triangles.is_face({"1", "3", "4"})
    assert triangles.is_face(set())


def test_face_family_of_running_example(triangles):
    faces = {frozenset(f) for f in triangles.faces}
    expected = {frozenset()}
    expected |= {frozenset(c) for r in (1, 2) for c in itertools.combinations("1234", r)}
    expected |= {frozenset("123"), frozenset("124")}
    assert faces == expected


def test_facets_form_an_antichain(fixture_complexes):
    for c in fixture_complexes:
        for a, b in itertools.combinations(c.facet_masks, 2):
            assert a & ~b and b & ~a


def test_restriction_of_running_example(triangles):
    r = triangles.restriction({"1", "2", "3"})
    assert r.vertices == ("1", "2", "3")
    assert {frozenset(f) for f in r.facets} == {frozenset({"1", "2", "3"})}


def test_restriction_to_everything_is_identity(triangles):
    assert triangles.restriction(set(triangles.vertices)) == triangles


def test_restriction_of_faceless_complex(empty_faces_cx):
    r = empty_faces_cx.restriction({"a", "b"})
    assert r.vertices == ("a", "b")
    assert r.facets == (frozenset(),)


def test_restriction_requires_vertices(triangles):
    with pytest.raises(EmptyRestriction):
        triangles.restriction(set())


@given(st.sets(st.sampled_from("1234"), min_size=1))
def test_restriction_composes(keep):
    triangles = helpers.glued_triangles_complex()
    outer = triangles.restriction(set(triangles.vertices))
    for sub in itertools.combinations(sorted(keep), max(1, len(keep) - 1)):
        assert triangles.restriction(keep).restriction(set(sub)) == triangles.restriction(
            set(sub)
        )
    assert outer.restriction(keep) == triangles.restriction(keep)


def test_restriction_faces_are_intersections(triangles):
    r = triangles.restriction({"2", "3", "4"})
    expected = {frozenset(f) & frozenset("234") for f in triangles.faces}
    assert {frozenset(f) for f in r.faces} == expected


def test_loops(loops_cx, triangles, empty_faces_cx):
    assert loops_cx.loops() == frozenset({"c"})
    assert triangles.loops() == frozenset()
    assert empty_faces_cx.loops() == frozenset(empty_faces_cx.vertices)


def test_exchange_violation_of_running_example(triangles):
    violation = triangles.exchange_violation()
    assert violation == (frozenset({"1", "2", "3"}), frozenset({"3", "4"}))
    assert not triangles.is_matroid


def test_exchange_violation_is_a_real_violation(triangles):
    big, small = triangles.exchange_violation()
    assert triangles.is_face(big) and triangles.is_face(small)
    assert len(big) == len(small) + 1
    for v in big - small:
        assert not triangles.is_face(small | {v})


def test_exchange_violation_matches_the_pairwise_scan(fixture_complexes):
    """The same pair as the scan of every face against every face one
    larger, on the complex fixtures, U(3,n) up to n = 10, every complex with
    up to 5 vertices, seeded random triple complexes on 9-13 vertices,
    where most are not matroids, and seeded graphic matroids on 6 vertices
    with 10-13 edges, where hundreds of faces J have an ext that misses two
    or more vertices, so only the column test decides them: the least J,
    then the least I, on the smallest violating level."""
    rng = random.Random(1998)
    randoms = [
        helpers.random_triple_complex(rng, n) for n in range(9, 14) for _ in range(4)
    ]
    complexes = list(fixture_complexes) + randoms
    complexes += [helpers.uniform_complex(n, 3) for n in range(3, 11)]
    complexes += [helpers.random_graphic_matroid(rng, 6, m) for m in range(10, 14)]
    for n in range(1, 6):
        complexes += helpers.all_complexes(n)
    for c in complexes:
        assert c.exchange_violation() == helpers.exchange_violation_pairwise(c)
    assert sum(c.exchange_violation() is not None for c in randoms) > len(randoms) // 2


def test_uniform_complexes_are_matroids(u24, u34, empty_faces_cx):
    assert u24.exchange_violation() is None
    assert u34.exchange_violation() is None
    assert empty_faces_cx.exchange_violation() is None


def test_isomorphism_identity(triangles):
    iso = triangles.isomorphism(triangles)
    assert iso is not None
    mapped = [triangles.vertices[iso[i]] for i in range(len(triangles.vertices))]
    for face in triangles.faces:
        image = {mapped[triangles.vertices.index(v)] for v in face}
        assert triangles.is_face(image)


def test_isomorphism_relabelled():
    a = SimplicialComplex(["1", "2"], [{"1"}, {"2"}])
    b = SimplicialComplex(["x", "y"], [{"x"}, {"y"}])
    assert a.isomorphism(b) is not None


def test_isomorphism_distinguishes_face_counts(triangles, u24):
    assert triangles.isomorphism(u24) is None
    assert u24.isomorphism(triangles) is None


def test_isomorphism_needs_matching_vertex_count(triangles, nonbr):
    assert triangles.isomorphism(nonbr) is None


def test_isomorphism_agrees_with_the_vertex_map_search_on_all_small_complexes():
    for n in range(1, 5):
        complexes = helpers.all_complexes(n)
        for a, b in itertools.product(complexes, repeat=2):
            iso = a.isomorphism(b)
            want = helpers.complex_isomorphism_by_vertex_maps(a, b)
            assert (iso is None) == (want is None), (a, b)
            if iso is not None:
                assert helpers.maps_facets_onto_facets(a, b, iso.mapping)


def test_pairs_with_different_degrees_never_reach_refinement(monkeypatch):
    import flatlat._util as util

    def degrees(c):
        """Sorted vertex degrees in the facets, and sorted facet sizes."""
        facets = c.facet_masks
        n = len(c.vertices)
        return sorted(sum(f >> i & 1 for f in facets) for i in range(n)), sorted(
            f.bit_count() for f in facets
        )

    def refuse(*args):
        raise AssertionError("refined")

    monkeypatch.setattr(util, "refine", refuse)
    complexes = helpers.all_complexes(3) + helpers.all_complexes(4)
    refined = 0
    for a, b in itertools.product(complexes, repeat=2):
        if degrees(a) != degrees(b):
            assert a.isomorphism(b) is None
        else:
            with pytest.raises(AssertionError, match="refined"):
                a.isomorphism(b)
            refined += 1
    assert refined >= len(complexes)


def test_a_cycle_is_not_two_half_cycles():
    c12, c6c6 = helpers.cycles_complex(12), helpers.cycles_complex(6, 6)
    assert c12.isomorphism(c6c6) is None
    assert c6c6.isomorphism(c12) is None


@pytest.mark.parametrize(
    "build",
    [
        lambda: helpers.cycles_complex(40),
        # colour refinement cannot tell the two cycles apart, so a first
        # guess may put a vertex of the 5-cycle on the 6-cycle
        lambda: helpers.cycles_complex(5, 6),
        lambda: helpers.uniform_complex(20, 3),
    ],
)
def test_isomorphism_onto_a_relabelled_copy_of_a_large_complex(build):
    # U(3,20) has 1140 facets: 1160 incidence nodes
    a = build()
    for seed in range(4):
        b = helpers.relabelled(a, seed)
        iso = a.isomorphism(b)
        assert iso is not None and helpers.maps_facets_onto_facets(a, b, iso.mapping)


def test_non_isomorphic_cubic_graphs_are_told_apart():
    # refinement gives all 60 vertices one colour in both graphs, so only
    # individualizing nodes can tell them apart
    a, b = helpers.cubic_graph_complex(60, 3), helpers.cubic_graph_complex(60, 4)
    assert helpers.distance_profile(a) != helpers.distance_profile(b)
    assert a.isomorphism(b) is None
    assert b.isomorphism(a) is None


def test_isomorphism_onto_a_relabelled_cubic_graph():
    a = helpers.cubic_graph_complex(60, 3)
    b = helpers.relabelled(a, 1)
    iso = a.isomorphism(b)
    assert iso is not None and helpers.maps_facets_onto_facets(a, b, iso.mapping)


def test_equality_is_structural(triangles):
    clone = SimplicialComplex(
        ["1", "2", "3", "4"],
        [{"3", "4"}, {"1", "2", "4"}, {"1", "2", "3"}, {"2"}],
    )
    assert clone == triangles and hash(clone) == hash(triangles)
    assert triangles != helpers.uniform_complex(4, 2)


def _triples(n):
    return [sum(1 << v for v in c) for c in itertools.combinations(range(n), 3)]


@given(st.lists(st.integers(min_value=0, max_value=(1 << 9) - 1), max_size=40))
# every mask of one size, kept as given in size order
@example(_triples(3))
@example(_triples(7))
@example(_triples(12))
@example(_triples(12)[::-1] + [0])
# 0b11 lies only in the first group's 0b1111, 0b110000 only in 0b1110000 of
# the group after it; 0b10000000 lies in none, 0b1 in both groups
@example([0b1111, 0b1110000, 0b11, 0b110000, 0b1, 0b10000000, 0])
@example([0b11, 0b1111, 0b1, 0b100, 0b10000000000, 0b1000000000])
# duplicates, in every size
@example([5, 5, 3, 3, 7, 7, 0, 0, 8, 8, 0b110000, 0b110000])
@example([0, 0])
@example([])
def test_maximal_masks_matches_pairwise_comparison(masks):
    assert maximal_masks(masks) == helpers.maximal_masks_naive(masks)


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 9) - 1), max_size=40),
    st.integers(min_value=0, max_value=(1 << 9) - 1),
)
@example([], 0)
@example([0b101, 0b111], 0)
@example([0b101, 0b111, 0b110], 0b101)
@example([0b1, 0b10], 0b11)
def test_common_is_the_set_of_masks_that_contain_the_mask(masks, m):
    got = common(columns(masks, 9), m)
    if not m:
        assert got == -1
    else:
        assert got == sum(1 << k for k, mask in enumerate(masks) if not m & ~mask)


@pytest.mark.parametrize("n", [1, 8, 9, 63, 64, 65, 130])
def test_columns_is_the_bit_by_bit_transpose(n):
    """Masks of at most 64 bits go through one array, wider ones through
    bytes per mask; both read as the transpose taken bit by bit, on no
    masks, on all-zero masks, on full masks and on seeded random ones."""
    rng = random.Random(n)
    full = (1 << n) - 1
    lists = [[], [0], [0] * 5, [full], [full, 0, full], [1 << (n - 1), 1]]
    lists += [[rng.getrandbits(n) for _ in range(count)] for count in (1, 7, 70)]
    if n >= 64:
        lists.append([(1 << 64) - 1, 1 << 63, 0])
    for masks in lists:
        want = [
            sum(1 << k for k, mask in enumerate(masks) if mask >> v & 1) for v in range(n)
        ]
        assert columns(masks, n) == want


_FEW_BITS = st.sets(st.integers(min_value=0, max_value=39), max_size=3).map(
    lambda bits: sum(1 << b for b in bits)
)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1) | _FEW_BITS, max_size=30))
@example([0, 1, 1 << 39, 0])
@example([1 << 39, 1 << 3, 1, 1 << 20, 0])
@example([0b11, 0b101, 0b110, 1 << 39 | 1, 1 << 39 | 1 << 38, 0b1001])
@example([(1 << 40) - 1, (1 << 40) - 2, (1 << 39) - 1, (1 << 40) - 1 ^ 1 << 20])
def test_mask_sort_key_orders_masks_as_their_bit_index_tuples(masks):
    """The flipped-digit key orders any masks of up to 40 bits, 0 and masks
    of one size but different bit lengths among them, as the tuple of
    their bit indices does, pair by pair."""
    assert sorted(masks, key=mask_sort_key) == sorted(
        masks, key=helpers.mask_sort_key_by_indices
    )
    ref = helpers.mask_sort_key_by_indices
    for a, b in itertools.combinations(masks, 2):
        assert (mask_sort_key(a) < mask_sort_key(b)) == (ref(a) < ref(b))
        assert (mask_sort_key(a) == mask_sort_key(b)) == (a == b)


# -- the one face walk and the byte-table closure against their oracles ------


def _small_complexes(fixture_complexes):
    """Every complex with up to 4 vertices and the complex fixtures."""
    complexes = [c for n in range(1, 5) for c in helpers.all_complexes(n)]
    complexes += fixture_complexes
    return complexes + [parse(path.read_text()).value for path in FIXTURES.glob("*.cx")]


def _large_complexes():
    """Seeded random triple complexes on 9-13 vertices and U(3,n) for n = 7,
    8, 9, 16 and 17: the last block of 8 vertices partial, full, or one
    vertex."""
    rng = random.Random(1984)
    complexes = [helpers.random_triple_complex(rng, n) for n in range(9, 14)]
    return complexes + [helpers.uniform_complex(n, 3) for n in (7, 8, 9, 16, 17)]


def _realizing_complexes():
    """The realizing complexes of chain6, M5 and B3, which list their
    minimal non-faces."""
    lattices = [helpers.chain_lattice(6), helpers.m_lattice(5)]
    lattices.append(helpers.powerset_lattice("abc"))
    return [realizing_complex(lat)[0] for lat in lattices]


def test_face_walk_matches_the_submask_union(fixture_complexes):
    """face_masks is the union of the submasks of the facets, and the walk
    keeps each face once, on the level of its size, with the union of the
    facets that contain it."""
    complexes = _small_complexes(fixture_complexes) + _large_complexes()
    for c in complexes + _realizing_complexes():
        exts = helpers.face_exts_by_submasks(c)
        assert c.face_masks == exts.keys()
        levels = c._ext_levels
        assert sum(map(len, levels)) == len(exts)
        for size, level in enumerate(levels):
            assert all(face.bit_count() == size for face in level)
            assert level == {face: exts[face] for face in level}


def _random_masks(rng, n, count):
    """Seeded masks on n bits, from sparse to dense."""
    return [
        functools.reduce(int.__and__, [rng.getrandbits(n) for _ in range(k % 4 + 1)])
        for k in range(count)
    ]


def test_byte_table_closure_matches_the_vertex_loop(fixture_complexes):
    """The closure read a byte of missing vertices at a time equals the
    per-vertex loop: on every subset of the small complexes, on seeded
    random masks of the large ones, and on seeded random masks under the
    minimal non-faces of the realizing complexes."""
    rng = random.Random(1985)
    cases = [(c, range(1 << len(c.vertices))) for c in _small_complexes(fixture_complexes)]
    cases += [(c, _random_masks(rng, len(c.vertices), 400)) for c in _large_complexes()]
    for c, masks in cases:
        n = len(c.vertices)
        oracle = helpers.closure_by_vertex_loop(dict(_facet_implications(c._ext_levels, n)), n)
        assert [c.flat_closure[mask] for mask in masks] == list(map(oracle, masks))
    for c in _realizing_complexes():
        n = len(c.vertices)
        implications = helpers.nonface_implications(c._nonface_masks)
        oracle = helpers.closure_by_vertex_loop(implications, n)
        masks = _random_masks(rng, n, 800)
        assert [c.flat_closure[mask] for mask in masks] == list(map(oracle, masks))


def test_unions_of_cubic_graphs_are_decided_within_500_refinements(monkeypatch):
    # 4 K4 and 2 K4 + Q3 are 3-regular on 16 vertices, so refinement gives
    # every vertex one colour; a search that does not prune by the
    # automorphisms it finds needs 11 609 refinements to tell them apart
    # (15 913 for the incidence lattices)
    import flatlat._util as util

    calls = []

    def counting(*args):
        calls.append(1)
        if len(calls) > 500:
            raise AssertionError("over 500 refinements")
        return refine(*args)

    monkeypatch.setattr(util, "refine", counting)
    a = helpers.graphs_complex(*[helpers.K4] * 4)
    b = helpers.graphs_complex(helpers.K4, helpers.K4, helpers.Q3)
    pairs = [
        (a, b, helpers.maps_facets_onto_facets),
        (helpers.incidence_lattice(a), helpers.incidence_lattice(b), helpers.is_order_isomorphism),
    ]
    for x, y, is_isomorphism in pairs:
        for u, v in ((x, y), (y, x)):
            calls.clear()
            assert u.isomorphism(v) is None
            copy = helpers.relabelled(u, 1)
            calls.clear()
            iso = u.isomorphism(copy)
            assert iso is not None and is_isomorphism(u, copy, iso.mapping)
