"""Canonical complexes, realizability decisions, and the general construction."""

import itertools
import random

import pytest

from flatlat import (
    ConstructionMismatch,
    FiniteLattice,
    LimitExceeded,
    NotAtomistic,
    SimplicialComplex,
    all_flats,
    boolean_matrix,
    br_violation,
    is_chain_transversal_bruteforce,
    is_realizable,
    lattice_from_covers,
    realizing_complex,
    transversal_complex,
    verify_realization,
    verify_realizing_complex,
)
from flatlat.complexes import FlatClosure

import helpers


def antichain_lattice(k):
    """Bottom, k incomparable atoms, top."""
    labels = ["B"] + [f"a{i}" for i in range(k)] + ["T"]
    covers = [("B", f"a{i}") for i in range(k)] + [(f"a{i}", "T") for i in range(k)]
    return lattice_from_covers(labels, covers)


def test_canonical_complex_of_the_nonrealizable_lattice(nonreal6):
    t = transversal_complex(nonreal6)
    assert t.complex.vertices == ("1", "2", "3")
    assert t.complex.facets == (frozenset({"1", "2", "3"}),)
    assert len(t.complex.faces) == 8


def test_canonical_complex_of_example_flats(triangles_flats):
    t = transversal_complex(triangles_flats.lattice)
    assert t.complex.vertices == ("{1}", "{2}", "{3}", "{4}")
    assert {frozenset(f) for f in t.complex.facets} == {
        frozenset({"{1}", "{2}", "{3}"}),
        frozenset({"{1}", "{2}", "{4}"}),
        frozenset({"{3}", "{4}"}),
    }


def test_canonical_complex_of_two_point_lattice():
    two = helpers.chain_lattice(2, ["B", "T"])
    t = transversal_complex(two)
    assert t.complex.vertices == ("T",)
    assert t.complex.facets == (frozenset({"T"}),)


def test_canonical_complex_requires_atomistic():
    with pytest.raises(NotAtomistic) as exc:
        transversal_complex(helpers.chain_lattice(3, ["B", "m", "T"]))
    assert exc.value.witness == "T"


def test_realizability_and_matrix_share_one_atomistic_witness():
    # the witness is a cached property: after is_realizable it is stored on
    # the lattice, and boolean_matrix reads it from there
    for lat, witness in [
        (helpers.nonrealizable6_lattice(), None),
        (helpers.powerset_lattice("abc"), None),
        (helpers.chain_lattice(3), 2),
    ]:
        is_realizable(lat)
        assert lat.__dict__["atomistic_violation"] == witness
        if witness is None:
            boolean_matrix(lat)
        else:
            with pytest.raises(NotAtomistic):
                boolean_matrix(lat)
        assert lat.__dict__["atomistic_violation"] == witness


def test_canonical_complex_rejects_trivial_lattice():
    with pytest.raises(ValueError):
        transversal_complex(FiniteLattice(["B"], [[True]]))


def test_chain_bruteforce_examples(nonreal6):
    assert is_chain_transversal_bruteforce(nonreal6, {"1", "2", "3"})
    assert is_chain_transversal_bruteforce(nonreal6, set())
    with pytest.raises(ValueError):
        is_chain_transversal_bruteforce(nonreal6, {"m"})


def test_unknown_element_label_is_a_value_error(nonreal6):
    with pytest.raises(ValueError, match=r"^unknown element 'zz'$"):
        nonreal6.index("zz")
    with pytest.raises(ValueError, match=r"^unknown element 'zz'$"):
        is_chain_transversal_bruteforce(nonreal6, ["zz"])
    for covers in ([("1", "zz")], [("zz", "1")], [("1", "T"), ("T", "zz")]):
        with pytest.raises(ValueError, match=r"^unknown element 'zz'$"):
            lattice_from_covers(nonreal6.labels, covers)
    with pytest.raises(ValueError, match=r"^'T' is not an atom$"):
        is_chain_transversal_bruteforce(nonreal6, ["T"])


def test_chain_bruteforce_size_limit():
    wide = antichain_lattice(9)
    with pytest.raises(LimitExceeded):
        is_chain_transversal_bruteforce(wide, {f"a{i}" for i in range(9)})


def test_membership_agrees_with_chain_bruteforce_on_small_lattices():
    for lat in helpers.atomistic_lattices(6):
        if len(lat) == 1:
            continue
        t = transversal_complex(lat)
        atoms = [lat.labels[a] for a in sorted(lat.atoms)]
        for r in range(len(atoms) + 1):
            for sub in itertools.combinations(atoms, r):
                assert t.complex.is_face(sub) == is_chain_transversal_bruteforce(
                    lat, sub
                )


def test_transversal_complex_matches_the_label_walk():
    """The complex the walk over label sets builds: on every atomistic
    class of up to 8 elements and three relabellings of each, and on the
    flat lattices of U(3,n), n <= 8."""
    lattices = []
    for lat in helpers.atomistic_lattices(8, override=True):
        if len(lat) > 1:
            lattices += [lat] + [helpers.relabelled(lat, seed) for seed in range(3)]
    lattices += [all_flats(helpers.uniform_complex(n, 3)).lattice for n in range(3, 9)]
    for lat in lattices:
        want = helpers.transversal_complex_by_label_walk(lat)
        assert transversal_complex(lat).complex == want


def test_canonical_complex_is_simple_and_representable():
    for lat in helpers.atomistic_lattices(7):
        if len(lat) == 1:
            continue
        t = transversal_complex(lat)
        atoms = t.complex.vertices
        for pair in itertools.combinations(atoms, 2):
            assert t.complex.is_face(pair)
        assert br_violation(t.complex) is None


def test_atom_map_embeds_the_lattice_into_its_canonical_flats():
    for lat in helpers.atomistic_lattices(7):
        if len(lat) == 1:
            continue
        t = transversal_complex(lat)
        fam = all_flats(t.complex)
        flat_set = {frozenset(f) for f in fam.flats}
        image = []
        for x in range(len(lat)):
            xi = frozenset(lat.labels[a] for a in helpers.atoms_below(lat, x))
            assert xi in flat_set
            image.append(xi)
        assert len(set(image)) == len(lat)
        for x in range(len(lat)):
            for y in range(len(lat)):
                assert lat.leq(x, y) == (image[x] <= image[y])


def test_realizable_iff_isomorphic_to_canonical_flats():
    for lat in helpers.atomistic_lattices(6):
        if len(lat) == 1:
            continue
        report = is_realizable(lat, force_general=True)
        iso = all_flats(transversal_complex(lat).complex).lattice.isomorphism(lat)
        assert report.realizable == (iso is not None)


def test_join_of_canonical_flat_stays_inside_it():
    for lat in helpers.atomistic_lattices(6):
        if len(lat) == 1:
            continue
        if not is_realizable(lat, force_general=True).realizable:
            continue
        fam = all_flats(transversal_complex(lat).complex)
        for flat in fam.flats:
            members = [lat.index(v) for v in flat]
            top_of_flat = helpers.join_all(lat, members)
            xi = {lat.labels[a] for a in helpers.atoms_below(lat, top_of_flat)}
            assert xi <= set(flat)


def test_realizability_reports():
    chain = helpers.chain_lattice(3, ["B", "m", "T"])
    rep = is_realizable(chain)
    assert rep.to_jsonable() == {
        "atomistic": False,
        "realizable": False,
        "method": "atomistic",
        "lattice_size": 3,
        "non_atomistic_witness": "T",
    }

    nr6 = helpers.nonrealizable6_lattice()
    rep = is_realizable(nr6)
    assert not rep.realizable
    assert rep.method == "height-3"
    assert rep.supercliques == (("1", "3"), ("2", "3"))

    rep = is_realizable(nr6, force_general=True)
    assert rep.method == "general"
    assert not rep.realizable
    assert rep.canonical_flat_count == 8 and rep.lattice_size == 6


def test_realizable_examples(triangles_flats):
    assert is_realizable(triangles_flats.lattice).realizable
    rep = is_realizable(triangles_flats.lattice, force_general=True)
    assert rep.realizable and rep.canonical_flat_count == 7

    two_high = antichain_lattice(3)
    assert is_realizable(two_high).method == "height-le-2"
    assert is_realizable(two_high).realizable

    cube = helpers.powerset_lattice("abc")
    rep = is_realizable(cube)
    assert rep.method == "height-3" and rep.realizable

    # the height = atom-count shortcut fires once the height-3 case is out
    hyper = helpers.powerset_lattice("abcd")
    rep = is_realizable(hyper)
    assert rep.method == "boolean" and rep.realizable


def test_trivial_lattice_is_realizable():
    rep = is_realizable(FiniteLattice(["B"], [[True]]), force_general=True)
    assert rep.realizable


def test_shortcuts_agree_with_general_path():
    for lat in (lat for lat in helpers.atomistic_lattices(7)):
        fast = is_realizable(lat)
        slow = is_realizable(lat, force_general=True)
        assert fast.realizable == slow.realizable


def _census(max_size):
    """Classes, atomistic and realizable classes per size up to max_size,
    each class decided with and without shortcuts, which must agree."""
    from flatlat import enumerate_lattices

    classes, atomistic, realizable = ([0] * max_size for _ in range(3))
    for lat in enumerate_lattices(max_size, override=True):
        fast = is_realizable(lat)
        slow = is_realizable(lat, force_general=True)
        assert (fast.atomistic, fast.realizable) == (slow.atomistic, slow.realizable)
        k = len(lat) - 1
        classes[k] += 1
        atomistic[k] += slow.atomistic
        realizable[k] += slow.realizable
    return classes, atomistic, realizable


def test_census_up_to_nine_elements_is_pinned():
    """Classes (OEIS A006966), atomistic and realizable classes per size."""
    assert _census(9) == (
        [1, 1, 1, 2, 5, 15, 53, 222, 1078],
        [1, 1, 0, 1, 1, 2, 4, 9, 22],
        [1, 1, 0, 1, 1, 1, 2, 4, 6],
    )


@pytest.mark.census
def test_census_of_ten_elements_is_pinned():
    classes, atomistic, realizable = _census(10)
    assert (classes[9], atomistic[9], realizable[9]) == (5994, 59, 14)
    assert classes[:9] == [1, 1, 1, 2, 5, 15, 53, 222, 1078]


@pytest.mark.census
def test_lattice_classes_of_eleven_elements_match_oeis_a006966():
    from flatlat import enumerate_lattices

    counts = [0] * 11
    for lat in enumerate_lattices(11, override=True):
        counts[len(lat) - 1] += 1
    assert counts == [1, 1, 1, 2, 5, 15, 53, 222, 1078, 5994, 37622]


def test_boolean_matrix_values(nonreal6):
    assert boolean_matrix(helpers.chain_lattice(2, ["B", "T"])) == [[1], [0]]
    assert boolean_matrix(nonreal6) == [
        [1, 1, 1],
        [0, 1, 1],
        [1, 0, 1],
        [1, 1, 0],
        [0, 0, 1],
        [0, 0, 0],
    ]
    square = boolean_matrix(helpers.powerset_lattice("ab"))
    assert sorted(map(tuple, square)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_boolean_matrix_requires_atomistic_and_has_distinct_rows():
    with pytest.raises(NotAtomistic):
        boolean_matrix(helpers.chain_lattice(3))
    for lat in helpers.atomistic_lattices(7):
        rows = boolean_matrix(lat)
        assert len({tuple(r) for r in rows}) == len(lat)


def test_construction_for_trivial_lattice():
    trivial = FiniteLattice(["B"], [[True]])
    complex_, predicted = realizing_complex(trivial)
    assert complex_.facets == (frozenset(),)
    assert len(complex_.vertices) == 1
    assert predicted["B"] == frozenset(complex_.vertices)
    assert verify_realizing_complex(trivial).mapping == (0,)


def test_construction_for_three_chain():
    chain = helpers.chain_lattice(3, ["B", "m", "T"])
    complex_, predicted = realizing_complex(chain)
    assert {frozenset(f) for f in complex_.facets} == {
        frozenset({"T^1", "T^2"}),
        frozenset({"m^1", "m^2", "T^1"}),
        frozenset({"m^1", "m^2", "T^2"}),
        frozenset({"m^1", "m^2", "T^3"}),
        frozenset({"m^3", "T^1"}),
        frozenset({"m^3", "T^2"}),
        frozenset({"m^3", "T^3"}),
    }
    assert predicted == {
        "B": frozenset(),
        "m": frozenset({"m^1", "m^2", "m^3"}),
        "T": frozenset(complex_.vertices),
    }
    flats = {frozenset(f) for f in all_flats(complex_).flats}
    assert flats == set(predicted.values())
    verify_realizing_complex(chain)


def test_construction_for_two_point_lattice():
    two = helpers.chain_lattice(2, ["B", "T"])
    complex_, predicted = realizing_complex(two)
    assert set(complex_.vertices) == {"T^1", "T^2", "T^3"}
    assert {frozenset(f) for f in complex_.facets} == {
        frozenset({"T^1", "T^2"}),
        frozenset({"T^3"}),
    }
    assert [sorted(f) for f in all_flats(complex_).flats] == [
        [],
        ["T^1", "T^2", "T^3"],
    ]
    assert predicted["B"] == frozenset()


def test_construction_round_trip_on_small_lattices():
    from flatlat import enumerate_lattices

    for lat in enumerate_lattices(4):
        iso = verify_realizing_complex(lat)
        complex_, predicted = realizing_complex(lat)
        fam = all_flats(complex_)
        flats = [frozenset(f) for f in fam.flats]
        for x in range(len(lat)):
            assert flats[iso[x]] == predicted[lat.labels[x]]


def test_realizing_complex_soft_limit():
    big = helpers.powerset_lattice("abcd")
    assert len(big) == 16
    with pytest.raises(LimitExceeded):
        realizing_complex(big)
    with pytest.raises(LimitExceeded):
        verify_realizing_complex(big)
    small = helpers.chain_lattice(3)
    assert realizing_complex(small, override=True)[0] == realizing_complex(small)[0]


def _mismatch(lattice, complex_of, predicted):
    """The message verify_realization raises for this prediction against
    the realizing complex of the lattice complex_of."""
    complex_, _ = realizing_complex(complex_of)
    with pytest.raises(ConstructionMismatch) as caught:
        verify_realization(lattice, complex_, predicted)
    return str(caught.value)


def test_verify_realization_reports_each_failure_with_its_hint():
    chain3 = helpers.chain_lattice(3, ["B", "m", "T"])
    chain4 = helpers.chain_lattice(4)
    square = helpers.powerset_lattice("ab")
    ms = frozenset({"m^1", "m^2", "m^3"})
    everything = ms | {"T^1", "T^2", "T^3"}
    flats = dict(B=frozenset(), m=ms, T=everything)

    assert _mismatch(square, chain3, {}) == (
        "complex has 3 flats but the lattice has 4 elements (no isomorphism exists)"
    )
    assert _mismatch(chain3, chain3, {**flats, "m": frozenset({"m^1"})}) == (
        "predicted flat for 'm' is not a flat (an isomorphism does exist)"
    )
    assert _mismatch(chain3, chain3, {**flats, "m": frozenset()}) == (
        "predicted map is not injective (an isomorphism does exist)"
    )
    assert _mismatch(chain3, chain3, {**flats, "B": everything, "T": frozenset()}) == (
        "predicted map does not preserve order on 'B', 'm' (an isomorphism does exist)"
    )
    # the flats of chain4's complex in order, read as the square's elements
    _, up_the_chain = realizing_complex(chain4)
    predicted = dict(zip(square.labels, (up_the_chain[x] for x in chain4.labels)))
    assert _mismatch(square, chain4, predicted) == (
        "predicted map does not preserve order on 'a', 'b' (no isomorphism exists)"
    )


def test_realizing_complex_matches_the_support_walk():
    """Vertices, facet masks and predicted map equal those of the support
    walk on every lattice with 2-7 elements, on three relabelled copies of
    each (so the bottom is not index 0), on chain9, M7 and the 8-element
    boolean lattice."""
    from flatlat import enumerate_lattices

    cases = []
    for lat in enumerate_lattices(7):
        if len(lat) > 1:
            cases += [lat] + [helpers.relabelled(lat, seed) for seed in range(3)]
    cases += [
        helpers.chain_lattice(9),
        helpers.m_lattice(7),
        helpers.powerset_lattice("abc"),
    ]
    for lat in cases:
        complex_, predicted = realizing_complex(lat)
        assert (
            complex_.vertices, complex_.facet_masks, predicted
        ) == helpers.realizing_facets_by_support_walk(lat)


def test_construction_round_trip_up_to_six_elements():
    from flatlat import enumerate_lattices

    for lat in enumerate_lattices(6):
        for case in [lat] + [helpers.relabelled(lat, seed) for seed in range(2)]:
            iso = verify_realizing_complex(case)
            complex_, predicted = realizing_complex(case)
            flats = all_flats(complex_).flats
            for x in range(len(case)):
                assert flats[iso[x]] == predicted[case.labels[x]]


def test_realizing_complex_of_m8_past_the_soft_limit():
    complex_, predicted = realizing_complex(helpers.m_lattice(8), override=True)
    assert len(complex_.vertices) == 27
    assert len(complex_.facet_masks) == 37204
    assert len(predicted) == 10


@pytest.mark.parametrize(
    "lattice", [helpers.m_lattice(8), helpers.chain_lattice(10)], ids=["M8", "chain10"]
)
def test_ten_element_lattices_verify_without_override(lattice):
    """The realizing complex of a 10-element lattice has 27 vertices, past
    FLATS_SOFT_LIMIT; it lists its minimal non-faces, so its flats and the
    verify map need no override, while br_violation, which walks its faces,
    and the same facets given alone, whose flats would come from that walk,
    stay held there."""
    iso = verify_realizing_complex(lattice)
    assert sorted(iso.mapping) == list(range(10))
    complex_, predicted = realizing_complex(lattice)
    assert len(complex_.vertices) == 27
    flats = all_flats(complex_).flats
    for x in range(len(lattice)):
        assert flats[iso[x]] == predicted[lattice.labels[x]]
    with pytest.raises(LimitExceeded, match="flat enumeration on 27 vertices"):
        br_violation(complex_)  # walks the faces
    walked = helpers.facets_only(complex_)
    with pytest.raises(LimitExceeded, match="flat enumeration on 27 vertices"):
        all_flats(walked)
    with pytest.raises(LimitExceeded, match="flat enumeration on 27 vertices"):
        verify_realization(lattice, walked, predicted)


def _realizing_cases(max_size, copies):
    """Every lattice with 2..max_size elements and seeded relabelled copies."""
    from flatlat import enumerate_lattices

    return [
        case
        for lat in enumerate_lattices(max_size)
        if len(lat) > 1
        for case in [lat] + [helpers.relabelled(lat, seed) for seed in range(copies)]
    ]


def test_realizing_nonfaces_match_those_derived_from_the_facets():
    """The minimal non-faces realizing_complex reads off the lattice equal
    those the walk over every face derives from its facets: on every lattice
    with 2-7 elements and a relabelled copy of each, and on the chains, M_k
    and boolean lattices with up to 10 elements."""
    cases = _realizing_cases(7, 1)
    cases += [helpers.chain_lattice(k) for k in range(2, 11)]
    cases += [helpers.m_lattice(k) for k in range(1, 9)]
    cases += [helpers.powerset_lattice("abc"[:k]) for k in range(1, 4)]
    for lat in cases:
        complex_, _ = realizing_complex(lat, override=True)
        assert sorted(complex_._nonface_masks) == helpers.minimal_nonfaces_by_face_walk(
            complex_
        )


def test_certified_flats_and_verify_maps_match_the_face_walk():
    """On every lattice with 2-6 elements and two relabelled copies of each,
    the realizing complex has the flats, and verify_realization the map,
    that it has with its flats taken from the walk over every face."""
    for lat in _realizing_cases(6, 2):
        complex_, predicted = realizing_complex(lat)
        walked = helpers.facets_only(complex_)
        assert all_flats(complex_).flats == all_flats(walked).flats
        assert verify_realizing_complex(lat) == verify_realization(lat, walked, predicted)


def _certified_flats(vertices, facets, nonfaces):
    complex_ = SimplicialComplex._from_facet_masks(vertices, facets, nonfaces)
    return complex_.flat_closure.flat_masks


def test_certificate_raises_on_a_tampered_nonface_list_or_facet_list():
    chain3 = helpers.chain_lattice(3, ["B", "m", "T"])
    complex_, _ = realizing_complex(chain3)
    vertices, facets = complex_.vertices, list(complex_.facet_masks)
    nonfaces = list(complex_._nonface_masks)
    mask = complex_.mask_of
    cases = [
        # {m^1, m^3} dropped: {m^1} is closed but is no flat
        (facets, [n for n in nonfaces if n != mask(["m^1", "m^3"])],
         "closed set {m^1} of the listed non-faces is not a flat: the face "
         "{m^1} does not extend by {m^3}"),
        # a face added, and a non-face that is not minimal
        (facets, nonfaces + [mask(["m^1"])], "listed non-face {m^1} lies in a facet"),
        (facets, nonfaces + [mask(["m^1", "m^3", "T^1"])], "listed non-face "
         "{m^1,m^3,T^1} is not minimal: {m^1,m^3} lies in no facet"),
        # the facet {m^3, T^1} removed: {m^3, T^1} is no longer a face
        ([f for f in facets if f != mask(["m^3", "T^1"])], nonfaces,
         "listed non-face {m^3,T^1,T^2} is not minimal: {m^3,T^1} lies in no facet"),
    ]
    for facet_list, nonface_list, message in cases:
        with pytest.raises(ConstructionMismatch) as caught:
            _certified_flats(vertices, facet_list, nonface_list)
        assert str(caught.value) == message


def test_all_flats_certifies_the_listed_nonfaces_when_called():
    """all_flats itself raises on a tampered list, so a family that put off
    its listing would fail here; on the list as built it holds every flat."""
    chain3 = helpers.chain_lattice(3, ["B", "m", "T"])
    complex_, _ = realizing_complex(chain3)
    family = all_flats(complex_)
    assert len(family) == len(complex_.flat_closure.flat_masks) == len(chain3)
    kept = [n for n in complex_._nonface_masks if n != complex_.mask_of(["m^1", "m^3"])]
    tampered = SimplicialComplex._from_facet_masks(
        complex_.vertices, complex_.facet_masks, kept
    )
    with pytest.raises(ConstructionMismatch) as caught:
        all_flats(tampered)
    assert str(caught.value) == (
        "closed set {m^1} of the listed non-faces is not a flat: the face "
        "{m^1} does not extend by {m^3}"
    )


def _tampered(lattices):
    """The realizing complex of each lattice with one spurious non-face
    added (a single vertex, or a non-face joined with a facet), one listed
    non-face dropped, or one facet removed, as (kind, vertices, facets,
    non-faces)."""
    for lat in lattices:
        complex_, _ = realizing_complex(lat)
        vertices, facets = complex_.vertices, list(complex_.facet_masks)
        nonfaces = list(complex_._nonface_masks)
        for k, nonface in enumerate(nonfaces):
            for spurious in (nonface & -nonface, nonface | facets[k % len(facets)]):
                if spurious not in nonfaces:
                    yield "spurious", vertices, facets, nonfaces + [spurious]
        for k in range(len(nonfaces)):
            yield "dropped", vertices, facets, nonfaces[:k] + nonfaces[k + 1 :]
        for k in range(len(facets)):
            yield "removed", vertices, facets[:k] + facets[k + 1 :], nonfaces


def test_certificate_raises_or_answers_as_the_face_walk_does():
    """Drop one listed non-face, add one face or non-minimal non-face, or
    remove one facet, on every lattice with 2-5 elements: each spurious
    entry raises, and otherwise the certificate raises exactly when a listed
    set is not a minimal non-face of the facets or the closed sets of the
    list are not their flats; when it answers, it answers as the face walk
    does."""
    raised = {"dropped": 0, "removed": 0}
    truth = {}  # facets -> their flats and minimal non-faces
    for kind, vertices, facet_list, nonface_list in _tampered(_realizing_cases(5, 0)):
        if kind == "spurious":
            with pytest.raises(ConstructionMismatch):
                _certified_flats(vertices, facet_list, nonface_list)
            continue
        if (vertices, tuple(facet_list)) not in truth:
            walked = SimplicialComplex._from_facet_masks(vertices, facet_list)
            truth[vertices, tuple(facet_list)] = (
                walked.flat_closure.flat_masks,
                set(helpers.minimal_nonfaces_by_face_walk(walked)),
            )
        flats, minimal = truth[vertices, tuple(facet_list)]
        listed = FlatClosure(helpers.nonface_implications(nonface_list), len(vertices))
        wrong = listed.flat_masks != flats or not set(nonface_list) <= minimal
        try:
            got = _certified_flats(vertices, facet_list, nonface_list)
        except ConstructionMismatch:
            assert wrong
            raised[kind] += 1
            continue
        assert not wrong and got == flats
    assert raised == {"dropped": 58, "removed": 307}


def _flats_or_message(certify, complex_):
    try:
        return certify(complex_).flat_masks
    except ConstructionMismatch as mismatch:
        return str(mismatch)


def _with_inserted_entries(lattices, rng, count):
    """The realizing complex of each lattice, count times, with 1-4 entries
    inserted at random places in its list of non-faces: a random part of a
    facet (a face), a listed N with a vertex added (not minimal), a random
    set, a repeat of a listed N, or a listed N with one vertex swapped for
    one outside it (sharing an N - p with N), as (vertices, facets,
    non-faces)."""
    for lat in lattices:
        complex_, _ = realizing_complex(lat)
        vertices, facets = complex_.vertices, list(complex_.facet_masks)
        n = len(vertices)
        for _ in range(count):
            listed = list(complex_._nonface_masks)
            for _ in range(rng.randint(1, 4)):
                nonface = rng.choice(listed)
                inside = [v for v in range(n) if nonface >> v & 1]
                outside = [v for v in range(n) if not nonface >> v & 1]
                entry = rng.choice([
                    rng.choice(facets) & rng.getrandbits(n),
                    nonface | 1 << rng.randrange(n),
                    rng.getrandbits(n),
                    nonface,
                    nonface ^ 1 << rng.choice(inside) | 1 << rng.choice(outside)
                    if inside and outside else nonface,
                ])
                listed.insert(rng.randint(0, len(listed)), entry)
            yield vertices, facets, listed


def test_certificate_reports_as_one_pass_over_the_facets_per_flat_does():
    """The certificate, which groups the facets once, gives the flats or
    the ConstructionMismatch text of the one that reads every facet once
    per meet-irreducible closed set: on every tampered input above; on
    chain7, whose groupings are cut down from larger ones, and M4, whose
    groupings are split by columns, each with every listed non-face dropped
    in turn and with each of its first 20 facets removed; and on small
    complexes listing part of their minimal non-faces, where a closed set
    that is no flat can have several traces that do not extend, so the
    order of the traces decides which one is reported.  Then on the lists
    of chain5, M4 and three random 6-element lattices with several entries
    inserted, where the first failing check depends on whether each N is
    tested after its own N - p or after every N - p of the list.  Last on
    chain6 listing only its 5 non-faces through 1^1, whose 3 104 closed sets
    are far more than the certificate can afford to compare pairwise when
    it picks the meet-irreducible ones."""
    from flatlat import enumerate_lattices

    inputs = [case[1:] for case in _tampered(_realizing_cases(5, 0))]
    inputs += helpers.partly_listed_complexes(25, 600)
    for lat in (helpers.chain_lattice(7), helpers.m_lattice(4)):
        complex_, _ = realizing_complex(lat)
        vertices, facets = complex_.vertices, list(complex_.facet_masks)
        nonfaces = list(complex_._nonface_masks)
        inputs += [
            (vertices, facets, nonfaces[:k] + nonfaces[k + 1 :])
            for k in range(len(nonfaces))
        ]
        inputs += [(vertices, facets[:k] + facets[k + 1 :], nonfaces) for k in range(20)]
    rng = random.Random(2026)
    sixes = [lat for lat in enumerate_lattices(6) if len(lat) == 6]
    lattices = [helpers.chain_lattice(5), helpers.m_lattice(4), *rng.sample(sixes, 3)]
    inputs += _with_inserted_entries(lattices, rng, 150)
    chain6, _ = realizing_complex(helpers.chain_lattice(6))
    through = [m for m in chain6._nonface_masks if m & 1 << chain6._vertex("1^1")]
    inputs.append((chain6.vertices, list(chain6.facet_masks), through))
    kinds = ("lies in a facet", "is not minimal", "is not a flat")
    reached = set()
    for vertices, facets, nonfaces in inputs:
        complex_ = SimplicialComplex._from_facet_masks(vertices, facets, nonfaces)
        got = _flats_or_message(SimplicialComplex._certified_closure, complex_)
        assert got == _flats_or_message(helpers.certified_closure_by_passes, complex_)
        reached.update(k for k in kinds if isinstance(got, str) and k in got)
    assert reached == set(kinds)
