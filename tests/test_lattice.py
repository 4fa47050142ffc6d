"""Lattice validation, classification predicates, and enumeration."""

import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from flatlat import (
    FiniteLattice,
    LimitExceeded,
    NotALattice,
    NotAPartialOrder,
    all_flats,
    enumerate_lattices,
    lattice_from_covers,
    transversal_complex,
)

import helpers
from flatlat._util import columns, leaves, refine
from flatlat.lattice import (
    _admissible_ideals,
    _canonical_key,
    _closed_up_sets,
    _lattices_of_size,
    _orbit_representatives,
)


def test_trivial_lattice():
    lat = FiniteLattice(["x"], [[True]])
    assert lat.bottom == lat.top == 0
    assert lat.height == 0
    assert lat.atoms == frozenset()


def test_three_chain_meet_join_are_min_max():
    lat = helpers.chain_lattice(3, ["B", "m", "T"])
    for i in range(3):
        for j in range(3):
            assert lat.meet(i, j) == min(i, j)
            assert lat.join(i, j) == max(i, j)


def test_missing_join_is_rejected_with_pair():
    # B below a, b, c and nothing above them
    order = [
        [True, True, True, True],
        [False, True, False, False],
        [False, False, True, False],
        [False, False, False, True],
    ]
    with pytest.raises(NotALattice) as exc:
        FiniteLattice(["B", "a", "b", "c"], order)
    assert exc.value.kind == "join"
    assert exc.value.pair == ("a", "b")


@pytest.mark.parametrize(
    "order, fragment",
    [
        ([[False]], "reflexive"),
        ([[True, True], [True, True]], "antisymmetric"),
        (
            [
                [True, True, False],
                [False, True, True],
                [False, False, True],
            ],
            "transitive",
        ),
        # as many rows as labels, but a row of another length
        ([[True, False], [True]], "^order relation must be a square matrix over the elements$"),
        ([[True], [True]], "^order relation must be a square matrix over the elements$"),
    ],
)
def test_non_partial_orders_are_rejected(order, fragment):
    with pytest.raises(NotAPartialOrder, match=fragment):
        FiniteLattice([str(i) for i in range(len(order))], order)


def _build_outcome(build):
    """The lattice built, its down-sets, every meet and join, bottom and
    top, or the class and message raised."""
    try:
        lat = build()
    except (NotAPartialOrder, NotALattice, ValueError) as exc:
        return type(exc), str(exc)
    return lat, lat._down, *helpers.meet_join_tables(lat), lat.bottom, lat.top


def _outcomes_agree(labels, up):
    """The outcome of _from_up_masks on these labels and up-sets, asserted
    equal to that of the matrix constructor on the same relation."""
    order = [[u >> j & 1 for j in range(len(up))] for u in up]
    got = _build_outcome(lambda: FiniteLattice._from_up_masks(labels, up))
    assert got == _build_outcome(lambda: FiniteLattice(labels, order))
    return got


def test_up_masks_build_what_the_matrix_builds():
    """FiniteLattice._from_up_masks raises the same exception class and
    message as the matrix constructor, or builds an equal lattice with the
    same meets and joins, on every relation over 1-3 elements, every
    reflexive one over 4 and a seeded sample of the rest over 4, and on
    empty and repeated labels."""
    cases = [(n, rel) for n in range(1, 4) for rel in range(1 << n * n)]
    diagonal = sum(1 << 5 * i for i in range(4))
    reflexive = [rel for rel in range(1 << 16) if rel & diagonal == diagonal]
    rest = sorted(set(range(1 << 16)).difference(reflexive))
    cases += [(4, rel) for rel in reflexive + random.Random(4).sample(rest, 500)]
    lattices = 0
    for n, rel in cases:
        up = [rel >> n * i & (1 << n) - 1 for i in range(n)]
        got = _outcomes_agree([f"e{i}" for i in range(n)], up)
        lattices += isinstance(got[0], FiniteLattice)
    assert lattices == 1 + 2 + 6 + 24 + 12  # labeled chains, and diamonds on 4
    for labels, up in (([], []), (["a", "a"], [1, 2])):
        _outcomes_agree(labels, up)


def _sub_relation(lattice, keep, rng):
    """The labels and up-set masks of the order of the lattice restricted to
    the elements keep, listed in a seeded random order."""
    keep = list(keep)
    rng.shuffle(keep)
    up = [sum(1 << b for b, y in enumerate(keep) if lattice.leq(x, y)) for x in keep]
    return [lattice.labels[x] for x in keep], up


def test_up_masks_reject_meet_semilattices_without_a_top_as_the_matrix_does():
    """Every lattice class with 6-9 elements and at least two coatoms, less
    its top, is a poset of 5-8 elements in which every pair has a meet but
    not every pair a join; the quick test fails on it, and _from_up_masks
    raises the join failure the matrix constructor raises, under two seeded
    element orders each."""
    rng = random.Random(1736)
    cases = 0
    for lat in enumerate_lattices(9, override=True):
        rest = [x for x in range(len(lat)) if x != lat.top]
        if len(lat) < 6 or sum(lat.covers(x, lat.top) for x in rest) < 2:
            continue
        for _ in range(2):
            got = _outcomes_agree(*_sub_relation(lat, rest, rng))
            assert got[0] is NotALattice and got[1].endswith("no unique join")
            cases += 1
    assert cases > 1000


def test_up_masks_reject_lattices_less_one_element_as_the_matrix_does():
    """Every lattice class with 2-8 elements, less any one element, in a
    seeded element order: a lattice again, or a poset without some meet or
    some join, with the same outcome from both constructors."""
    rng = random.Random(1737)
    kinds = set()
    for lat in enumerate_lattices(8, override=True):
        for gone in range(len(lat) if len(lat) > 1 else 0):
            keep = [x for x in range(len(lat)) if x != gone]
            got = _outcomes_agree(*_sub_relation(lat, keep, rng))
            kinds.add("lattice" if isinstance(got[0], FiniteLattice) else got[1][-4:])
    assert kinds == {"lattice", "meet", "join"}


def test_atoms():
    chain = helpers.chain_lattice(3, ["B", "m", "T"])
    assert {chain.labels[a] for a in chain.atoms} == {"m"}
    nr6 = helpers.nonrealizable6_lattice()
    assert {nr6.labels[a] for a in nr6.atoms} == {"1", "2", "3"}
    cube = helpers.powerset_lattice("abc")
    assert {cube.labels[a] for a in cube.atoms} == {"a", "b", "c"}


def _covers_by_brute_force(lat):
    """The pairs x < y with no z strictly between, in index order."""
    n = len(lat)
    less = [[x != y and lat.leq(x, y) for y in range(n)] for x in range(n)]
    return tuple(
        (x, y)
        for x in range(n)
        for y in range(n)
        if less[x][y] and not any(less[x][z] and less[z][y] for z in range(n))
    )


def test_covers():
    chain = helpers.chain_lattice(3, ["B", "m", "T"])
    assert chain.covers(0, 1)
    assert not chain.covers(0, 2)
    nr6 = helpers.nonrealizable6_lattice()
    assert nr6.covers(nr6.index("3"), nr6.index("T"))
    assert not nr6.covers(nr6.index("1"), nr6.index("T"))
    for lat in [*enumerate_lattices(7), _pentagon_below_boolean(8)]:
        want = _covers_by_brute_force(lat)
        assert lat.cover_pairs == want
        n = len(lat)
        pairs = [(x, y) for x in range(n) for y in range(n) if lat.covers(x, y)]
        assert pairs == list(want)  # so covers(x, x) is false, as when x is not below y


def test_height(triangles_flats):
    assert FiniteLattice(["x"], [[True]]).height == 0
    assert helpers.nonrealizable6_lattice().height == 3
    assert triangles_flats.lattice.height == 3


def test_atoms_below():
    nr6 = helpers.nonrealizable6_lattice()
    assert helpers.atoms_below(nr6, nr6.bottom) == frozenset()
    m = nr6.index("m")
    assert {nr6.labels[a] for a in helpers.atoms_below(nr6, m)} == {"1", "2"}
    cube = helpers.powerset_lattice("abc")
    ab = cube.index("ab")
    assert {cube.labels[a] for a in helpers.atoms_below(cube, ab)} == {"a", "b"}
    assert helpers.atoms_below(cube, cube.top) == cube.atoms


def test_is_atomistic():
    assert not helpers.chain_lattice(3).is_atomistic
    assert helpers.nonrealizable6_lattice().is_atomistic
    assert helpers.powerset_lattice("abc").is_atomistic


def test_semimodular_witness_on_example_flats(triangles_flats):
    lat = triangles_flats.lattice
    witness = lat.semimodular_witness
    assert witness is not None
    assert tuple(lat.labels[i] for i in witness) == (
        "{1,2,3,4}",
        "{1,2}",
        "{2}",
        "{4}",
        "{}",
    )


def test_semimodular_none_cases():
    assert helpers.powerset_lattice("abcd").semimodular_witness is None
    assert helpers.chain_lattice(3).semimodular_witness is None


def _check_forbidden_configuration(lat, witness):
    a, b, c, d, e = witness
    assert len({a, b, c, d, e}) == 5
    lt = functools.partial(helpers.lt, lat)
    assert lt(e, c) and lt(c, b) and lt(b, a)
    assert lt(e, d) and lt(d, a)
    assert lat.covers(e, d)
    assert lat.meet(b, d) == e and lat.meet(c, d) == e
    assert lat.join(b, d) == a and lat.join(c, d) == a


def test_semimodular_witnesses_satisfy_the_configuration():
    found = 0
    for lat in enumerate_lattices(6):
        witness = lat.semimodular_witness
        if witness is not None:
            found += 1
            _check_forbidden_configuration(lat, witness)
    assert found > 0


def test_both_semimodularity_predicates_agree_up_to_seven_elements():
    # The two definitions (forbidden configuration vs cover law) are not
    # assumed equivalent; this records that no lattice with at most 7
    # elements separates them.  A failure here is a report, not a bug.
    disagreements = [
        (len(lat), lat.cover_pairs)
        for lat in enumerate_lattices(7)
        if (lat.semimodular_witness is None) != helpers.is_semimodular_by_covers(lat)
    ]
    assert disagreements == []


@functools.cache
def _witness_lattices():
    """Every class up to 8 elements, with three relabelled copies of each
    from 4 elements up, and flat and incidence lattices."""
    lattices = []
    for lat in enumerate_lattices(8, override=True):
        lattices.append(lat)
        if len(lat) >= 4:
            lattices += [helpers.relabelled(lat, seed) for seed in range(3)]
    lattices += [all_flats(cx).lattice for cx in helpers.all_complexes(4)]
    lattices += [all_flats(helpers.uniform_complex(n, 3)).lattice for n in range(3, 11)]
    lattices += [
        helpers.incidence_lattice(helpers.cubic_graph_complex(n, seed))
        for n in (6, 8, 10)
        for seed in range(2)
    ]
    return tuple(lattices)


def test_semimodular_witness_matches_the_scan():
    # the pass over (b, c, d) returns the witness the five-deep scan finds
    # first, on every class up to 8 elements in several element orders and
    # on flat and incidence lattices, semimodular or not
    lattices = _witness_lattices()
    witnesses = [lat.semimodular_witness for lat in lattices]
    assert witnesses == [helpers.semimodular_witness_by_scan(lat) for lat in lattices]
    assert sum(w is not None for w in witnesses) > len(lattices) // 2


def test_atomistic_violation_matches_the_joins_of_atoms():
    lattices = _witness_lattices()
    violations = [lat.atomistic_violation for lat in lattices]
    assert violations == [helpers.atomistic_violation_by_joins(lat) for lat in lattices]
    assert 0 < sum(v is not None for v in violations) < len(lattices)


def _pentagon_below_boolean(k):
    """The pentagon 0 < x < y < t, 0 < z < t with the boolean lattice on k
    atoms above it, its bottom identified with t: 2^k + 4 elements."""
    atoms = "abcdefgh"[:k]
    subsets = ["".join(s) for r in range(1, k + 1) for s in itertools.combinations(atoms, r)]
    covers = [("0", "x"), ("x", "y"), ("y", "t"), ("0", "z"), ("z", "t")]
    covers += [("t", a) for a in atoms]
    covers += [(s, "".join(sorted(s + a))) for s in subsets for a in atoms if a not in s]
    return lattice_from_covers(["0", "x", "y", "z", "t", *subsets], covers)


def test_cover_closure_matches_warshall_on_lattices_and_random_pairs():
    for lat in enumerate_lattices(7):
        n, pairs = len(lat), lat.cover_pairs
        want = helpers.up_sets_by_warshall(n, pairs)
        assert _closed_up_sets(n, pairs) == want == list(lat._up)
    rng = random.Random(24)
    cyclic = 0
    for _ in range(500):
        n = rng.randint(1, 8)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        up = _closed_up_sets(n, pairs)
        assert up == helpers.up_sets_by_warshall(n, pairs)
        cyclic += any(up[j] >> i & 1 for i, j in pairs if i != j)
    assert 50 < cyclic < 450


def test_cyclic_covers_are_not_antisymmetric():
    with pytest.raises(NotAPartialOrder, match="^relation is not antisymmetric on 'a', 'b'$"):
        lattice_from_covers("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])


def test_semimodular_witness_of_a_pentagon_below_a_large_boolean_lattice():
    # every configuration lies in the pentagon; the scan takes minutes here
    lat = _pentagon_below_boolean(8)
    assert len(lat) == 260
    assert [lat.labels[i] for i in lat.semimodular_witness] == ["t", "y", "x", "z", "0"]


def test_is_geometric(triangles_flats, u24):
    assert not triangles_flats.lattice.is_geometric
    assert all_flats(u24).lattice.is_geometric
    assert not helpers.chain_lattice(3).is_geometric


def test_geometric_for_matroid_fixtures(u24, u34):
    for matroid in (u24, u34, helpers.uniform_complex(3, 3)):
        assert matroid.exchange_violation() is None
        assert all_flats(matroid).lattice.is_geometric


def test_is_boolean():
    assert helpers.powerset_lattice("abc").is_boolean
    assert not helpers.nonrealizable6_lattice().is_boolean
    assert helpers.chain_lattice(2).is_boolean


def test_isomorphism_identity(nonreal6):
    iso = nonreal6.isomorphism(nonreal6)
    assert iso is not None
    assert all(
        nonreal6.leq(x, y) == nonreal6.leq(iso[x], iso[y])
        for x in range(len(nonreal6))
        for y in range(len(nonreal6))
    )


def test_isomorphism_size_mismatch(nonreal6):
    assert nonreal6.isomorphism(helpers.powerset_lattice("abc")) is None


def test_canonical_complex_of_the_nonrealizable_lattice_is_a_cube(nonreal6):
    t = transversal_complex(nonreal6)
    lat = all_flats(t.complex).lattice
    assert lat.isomorphism(helpers.powerset_lattice("abc")) is not None


def test_isomorphism_respects_order_both_ways():
    a = helpers.powerset_lattice("xy")
    b = helpers.powerset_lattice("pq")
    iso = a.isomorphism(b)
    assert iso is not None
    for x in range(len(a)):
        for y in range(len(a)):
            assert a.leq(x, y) == b.leq(iso[x], iso[y])


def test_isomorphism_agrees_with_canonical_keys():
    lats = list(enumerate_lattices(6))
    copies = [helpers.relabelled(lat, seed) for seed, lat in enumerate(lats)]
    for a, b in itertools.product(lats, lats + copies):
        iso = a.isomorphism(b)
        assert (iso is not None) == (a.canonical_key == b.canonical_key)
        if iso is not None:
            assert helpers.is_order_isomorphism(a, b, iso.mapping)


def test_isomorphism_onto_a_relabelled_boolean_lattice():
    cube = helpers.powerset_lattice("abcdef")
    copy = helpers.relabelled(cube, 1)
    iso = cube.isomorphism(copy)
    assert iso is not None and helpers.is_order_isomorphism(cube, copy, iso.mapping)
    assert cube.isomorphism(helpers.relabelled(helpers.chain_lattice(64), 1)) is None


def _same_partition(xs, ys):
    return len(set(xs)) == len(set(ys)) == len(set(zip(xs, ys)))


def _keyed_by_enumeration(monkeypatch, max_size):
    """The classes enumerate_lattices yields and the (up, down) masks of
    every child it keys, in its order."""
    import flatlat.lattice as lattice_module

    keyed = []

    def recording(succ, pred, autos):
        up, down = (tuple(sum(1 << j for j in s) for s in lists) for lists in (succ, pred))
        keyed.append((up, down))
        return _canonical_key(succ, pred, autos)

    monkeypatch.setattr(lattice_module, "_canonical_key", recording)
    classes = list(enumerate_lattices(max_size, override=True))
    monkeypatch.undo()
    return classes, keyed


def test_canonical_key_classes_match_the_permutation_key_up_to_eight_elements(monkeypatch):
    # every candidate of the prefix walk, the oracle enumeration
    candidates = [c for n in range(1, 9) for c in helpers.meet_prefix_candidates(n)]
    assert len(candidates) == 4008
    keys = [helpers.canonical_key(up, down) for up, down in candidates]
    oracle = [helpers.canonical_key_by_permutations(up, down) for up, down in candidates]
    assert _same_partition(keys, oracle)

    seen, want = set(), []
    for (up, _), key in zip(candidates, oracle):
        if key not in seen:
            seen.add(key)
            want.append((tuple(str(i) for i in range(len(up))), up))
    walk = [lat for n in range(1, 9) for lat in helpers.lattices_by_meet_prefixes(n)]
    assert [(lat.labels, lat._up) for lat in walk] == want and len(want) == 300

    # every child coatom growth keys
    classes, keyed = _keyed_by_enumeration(monkeypatch, 8)
    keys = [helpers.canonical_key(up, down) for up, down in keyed]
    oracle = [helpers.canonical_key_by_permutations(up, down) for up, down in keyed]
    assert _same_partition(keys, oracle) and len(keyed) == 519

    copies = [helpers.relabelled(lat, seed) for lat in classes for seed in range(3)]
    keys = [lat.canonical_key for lat in copies]
    oracle = [helpers.canonical_key_by_permutations(lat._up, lat._down) for lat in copies]
    assert _same_partition(keys, oracle) and len(set(keys)) == 300
    assert keys[::3] == [lat.canonical_key for lat in classes]


def test_canonical_key_searches_past_the_first_leaf_where_refinement_cannot_split():
    # refinement gives all vertices of a cubic graph one colour, and unless
    # the graph is vertex-transitive some leaves read differently
    graphs = [helpers.cubic_graph_complex(8, seed) for seed in range(6)]
    lats = [helpers.incidence_lattice(g) for g in graphs]
    for lat in lats:
        assert {helpers.relabelled(lat, seed).canonical_key for seed in range(2)} == {
            lat.canonical_key
        }
    for (g, a), (h, b) in itertools.combinations(zip(graphs, lats), 2):
        assert (a.canonical_key == b.canonical_key) == (g.isomorphism(h) is not None)


@pytest.mark.parametrize("k", range(1, 13))
def test_m_k_keys_and_isomorphism_stay_polynomial(monkeypatch, k):
    import flatlat._util as util

    calls = []

    def counting(*args):
        calls.append(1)
        return refine(*args)

    monkeypatch.setattr(util, "refine", counting)
    lat = helpers.m_lattice(k)
    copy = helpers.relabelled(lat, k)
    keys = []
    for lattice in (lat, copy):
        calls.clear()
        keys.append(lattice.canonical_key)
        # the k atoms are one class: the automorphisms found prune the
        # search to k(k-1)/2 refinements, where the permutation key read k!
        # orders
        assert len(calls) <= k * (k - 1) // 2 + 1
    assert keys[0] == keys[1]
    iso = lat.isomorphism(copy)
    assert iso is not None and helpers.is_order_isomorphism(lat, copy, iso.mapping)


def test_enumeration_counts_are_frozen():
    by_size = {}
    for lat in enumerate_lattices(7):
        by_size[len(lat)] = by_size.get(len(lat), 0) + 1
    assert by_size == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}


def _enumeration_digest(max_size):
    """sha256 of every representative's labels, up-sets and canonical_key,
    in the order enumerate_lattices yields them."""
    lats = enumerate_lattices(max_size, override=True)
    text = repr([(lat.labels, lat._up, lat.canonical_key) for lat in lats])
    return hashlib.sha256(text.encode()).hexdigest()


def test_representatives_and_keys_are_frozen_up_to_eight_elements():
    assert _enumeration_digest(8) == (
        "ec6777f67ae47e5a6bc428fcbdd351ff51588b0961760e81c74495539c1809ce"
    )


@pytest.mark.census
def test_representatives_and_keys_are_frozen_up_to_ten_elements():
    assert _enumeration_digest(10) == (
        "3361aa072315d88e8d5c4aa0e60b61311d73b0024c49b93fb0a9a2924bdda2be"
    )


def test_enumeration_up_to_three_gives_chains():
    lats = list(enumerate_lattices(3))
    assert len(lats) == 3
    for lat in lats:
        assert lat.isomorphism(helpers.chain_lattice(len(lat))) is not None


def test_enumeration_matches_bruteforce_oracle():
    want = {n: helpers.bruteforce_lattice_count(n) for n in range(1, 6)}
    # a second oracle run with shuffled pair order must agree
    assert want == {n: helpers.bruteforce_lattice_count(n, seed=n) for n in want}
    got = {}
    for lat in enumerate_lattices(5):
        got[len(lat)] = got.get(len(lat), 0) + 1
    assert got == want


def test_enumeration_output_is_valid_and_pairwise_distinct():
    lats = list(enumerate_lattices(5))
    for lat in lats:
        helpers.assert_valid_lattice(lat)
    for a, b in itertools.combinations(lats, 2):
        assert a.isomorphism(b) is None


def test_enumeration_soft_limit():
    with pytest.raises(LimitExceeded):
        list(enumerate_lattices(8))
    count = sum(1 for lat in enumerate_lattices(8, override=True) if len(lat) == 8)
    assert count == 222


def test_meet_join_laws_hold_on_all_small_lattices():
    for lat in enumerate_lattices(5):
        n = len(lat)
        for x in range(n):
            for y in range(n):
                m, j = lat.meet(x, y), lat.join(x, y)
                assert lat.leq(m, x) and lat.leq(m, y)
                assert lat.leq(x, j) and lat.leq(y, j)
                assert m == lat.meet(y, x) and j == lat.join(y, x)
                assert lat.meet(x, lat.join(x, y)) == x
                assert lat.join(x, lat.meet(x, y)) == x
                for z in range(n):
                    assert lat.meet(lat.meet(x, y), z) == lat.meet(x, lat.meet(y, z))
                    assert lat.join(lat.join(x, y), z) == lat.join(x, lat.join(y, z))
        assert functools.reduce(lat.meet, range(n)) == lat.bottom
        assert functools.reduce(lat.join, range(n)) == lat.top


def test_atoms_below_is_order_preserving_and_injective_when_atomistic():
    for lat in enumerate_lattices(6):
        for x in range(len(lat)):
            for y in range(len(lat)):
                if lat.leq(x, y):
                    assert helpers.atoms_below(lat, x) <= helpers.atoms_below(lat, y)
        if lat.is_atomistic:
            images = {helpers.atoms_below(lat, x) for x in range(len(lat))}
            assert len(images) == len(lat)


@given(st.integers(0, 5), st.integers(0, 5))
def test_powerset_lattice_meet_join_are_set_operations(i, j):
    cube = helpers.powerset_lattice("abc")
    i, j = i % len(cube), j % len(cube)

    def as_set(k):
        label = cube.labels[k]
        return set() if label == "-" else set(label)

    assert as_set(cube.meet(i, j)) == as_set(i) & as_set(j)
    assert as_set(cube.join(i, j)) == as_set(i) | as_set(j)


def _assert_tables_match_the_scan(lat):
    n = len(lat)
    order = [[lat.leq(i, j) for j in range(n)] for i in range(n)]
    assert helpers.meet_join_by_scan(lat.labels, order) == helpers.meet_join_tables(lat)


def test_meet_join_tables_match_the_scan_on_enumerated_lattices():
    for lat in enumerate_lattices(7):
        _assert_tables_match_the_scan(lat)
        for seed in range(3):
            _assert_tables_match_the_scan(helpers.relabelled(lat, seed))


def test_meet_join_tables_match_the_scan_on_flat_lattices(fixture_complexes):
    for cx in fixture_complexes:
        _assert_tables_match_the_scan(all_flats(cx).lattice)
    for n in range(3, 11):
        _assert_tables_match_the_scan(all_flats(helpers.uniform_complex(n, 3)).lattice)


def _tables(labels, order):
    return helpers.meet_join_tables(FiniteLattice(labels, order))


def _outcome(build, labels, order):
    try:
        return build(labels, order)
    except (NotALattice, NotAPartialOrder) as exc:
        return type(exc), str(exc)


def test_every_reflexive_relation_up_to_four_elements_fails_like_the_scan():
    kinds = set()
    for n in range(1, 5):
        labels = [f"e{i}" for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in range(1 << len(pairs)):
            order = [[i == j for j in range(n)] for i in range(n)]
            for k, (i, j) in enumerate(pairs):
                order[i][j] = bool(bits >> k & 1)
            want = _outcome(helpers.meet_join_by_scan, labels, order)
            assert _outcome(_tables, labels, order) == want
            if want[0] is NotAPartialOrder:
                kinds.add(want[1].split()[3])
            else:
                kinds.add("lattice" if want[0] is NotALattice else "ok")
    assert kinds == {"ok", "lattice", "antisymmetric", "transitive"}


def test_every_lattice_up_to_six_elements_with_one_entry_flipped_fails_like_the_scan():
    kinds = set()
    for lat in enumerate_lattices(6):
        for copy in (lat, helpers.relabelled(lat, 0)):
            n = len(copy)
            for i, j in itertools.permutations(range(n), 2):
                order = [[copy.leq(a, b) for b in range(n)] for a in range(n)]
                order[i][j] = not order[i][j]
                want = _outcome(helpers.meet_join_by_scan, copy.labels, order)
                assert _outcome(_tables, copy.labels, order) == want
                if want[0] is NotAPartialOrder:
                    kinds.add(want[1].split()[3])
                else:
                    kinds.add("lattice" if want[0] is NotALattice else "ok")
    assert kinds == {"ok", "lattice", "antisymmetric", "transitive"}


def test_down_set_walk_matches_the_mask_scan():
    for n in range(8):
        assert list(helpers.natural_meet_prefixes(n)) == list(
            helpers.natural_meet_prefixes_by_scan(n)
        )


def test_enumeration_matches_building_every_candidate():
    got = [
        (lat.labels, lat._up)
        for n in range(1, 8)
        for lat in helpers.lattices_by_meet_prefixes(n)
    ]
    want = [
        (lat.labels, lat._up)
        for n in range(1, 8)
        for lat in helpers.lattices_by_building_every_candidate(n)
    ]
    assert got == want


def test_coatom_growth_matches_the_prefix_walk_up_to_eight_elements():
    by_size = {}
    for lat in enumerate_lattices(8, override=True):
        by_size.setdefault(len(lat), []).append(lat.canonical_key)
    assert list(by_size) == list(range(1, 9))
    for n, keys in by_size.items():
        want = {lat.canonical_key for lat in helpers.lattices_by_meet_prefixes(n)}
        assert len(set(keys)) == len(keys) and set(keys) == want


def test_coatom_growth_labels_naturally_and_deletes_to_a_smaller_class(monkeypatch):
    classes, keyed = _keyed_by_enumeration(monkeypatch, 8)
    counts = {}
    for up, _ in keyed:
        counts[len(up)] = counts.get(len(up), 0) + 1
    assert counts == {3: 1, 4: 2, 5: 6, 6: 21, 7: 86, 8: 403}

    keys = {n: set() for n in range(1, 9)}
    for lat in classes:
        keys[len(lat)].add(lat.canonical_key)
    for lat in classes:
        n = len(lat)
        if n < 3:
            continue
        assert all(d >> (i + 1) == 0 for i, d in enumerate(lat._down))  # natural
        assert lat.top == n - 1
        rest = [i for i in range(n) if i != n - 2]
        order = [[int(lat.leq(i, j)) for j in rest] for i in rest]
        smaller = FiniteLattice([lat.labels[i] for i in rest], order)
        assert smaller.canonical_key in keys[n - 1]


def _child_masks(below, ideal):
    """The up- and down-set masks of the child that coatom growth makes
    from a parent's down-sets without its top and an admissible ideal."""
    n = len(below) + 2
    down = (*below, ideal | 1 << (n - 2), (1 << n) - 1)
    return tuple(columns(down, n)), down


def test_orbit_pruning_skips_only_children_isomorphic_to_a_sibling_tried_before():
    classes, skipped = [], 0  # (lattice, automorphisms) of one size
    for n in range(1, 9):
        classes = list(_lattices_of_size(n, [(lat._down, autos) for lat, autos in classes]))
        for lat, autos in classes:
            assert all(helpers.is_order_isomorphism(lat, lat, g) for g in autos)
            below = lat._down[:-1]
            ideals = _admissible_ideals(below)
            tried = set(_orbit_representatives(ideals, autos))
            earlier = set()  # the oracle keys of the siblings tried so far
            for ideal in ideals:
                key = helpers.canonical_key_by_permutations(*_child_masks(below, ideal))
                if ideal in tried:
                    earlier.add(key)
                else:
                    assert key in earlier
                    skipped += 1
    assert skipped > 0


def test_enumeration_builds_a_lattice_only_for_a_new_class(monkeypatch):
    import flatlat.lattice as lattice_module

    built = []

    class Counting(FiniteLattice):
        @classmethod
        def _from_lattice_masks(cls, labels, up, down):
            built.append(len(labels))
            return super()._from_lattice_masks(labels, up, down)

    parents = [(lat._down, ()) for lat in enumerate_lattices(6) if len(lat) == 6]
    monkeypatch.setattr(lattice_module, "FiniteLattice", Counting)
    assert sum(1 for _ in _lattices_of_size(7, parents)) == 53
    assert built == [7] * 53


def _stored(lat):
    """Every field a FiniteLattice stores, its dicts as lists of items."""
    return (
        lat.labels, lat._up, lat._down, list(lat._by_down.items()),
        list(lat._by_up.items()), lat.bottom, lat.top,
    )


def test_every_child_of_coatom_growth_is_the_lattice_validation_builds(monkeypatch):
    import flatlat.lattice as lattice_module

    classes = [lat for lat in enumerate_lattices(7) if len(lat) >= 2]
    # every admissible ideal, each child keyed as a new class
    keys = itertools.count()
    monkeypatch.setattr(lattice_module, "_orbit_representatives", lambda ideals, autos: ideals)
    monkeypatch.setattr(lattice_module, "_canonical_key", lambda succ, pred, autos: next(keys))
    children = 0
    for n in range(3, 9):
        parents = [(lat._down, ()) for lat in classes if len(lat) == n - 1]
        for child, _ in _lattices_of_size(n, parents):
            assert _stored(child) == _stored(FiniteLattice._from_up_masks(child.labels, child._up))
            children += 1
    want = sum(len(_admissible_ideals(lat._down[:-1])) for lat in classes)
    assert children == next(keys) == want


def test_flat_lattices_are_the_lattices_validation_builds(fixture_complexes):
    for cx in [*helpers.all_complexes(4), *fixture_complexes]:
        lat = all_flats(cx).lattice
        assert _stored(lat) == _stored(FiniteLattice._from_up_masks(lat.labels, lat._up))


def test_height_peels_to_the_longest_chain():
    lats = [
        *enumerate_lattices(7),
        *(helpers.powerset_lattice("abcdef"[:k]) for k in range(1, 7)),  # B1-B6
        *(helpers.chain_lattice(n) for n in range(1, 10)),
        *(helpers.m_lattice(k) for k in range(2, 9)),
    ]
    for lat in lats:
        assert lat.height == helpers.height_by_chains(lat)


def _cubic_incidence_lattices():
    return [helpers.incidence_lattice(helpers.cubic_graph_complex(8, seed)) for seed in range(6)]


def _random_relations(count, max_nodes):
    """Seeded random digraphs, each with a random starting colouring."""
    rng = random.Random(27)
    for _ in range(count):
        n = rng.randint(1, max_nodes)
        density = rng.choice((0.1, 0.3, 0.6))
        succ = [[j for j in range(n) if rng.random() < density] for _ in range(n)]
        pred = [[i for i in range(n) if j in succ[i]] for j in range(n)]
        yield succ, pred, [rng.randrange(rng.randint(1, 3)) for _ in range(n)]


def test_refine_gives_the_colours_of_full_signatures():
    relations = [
        *_random_relations(400, 12),
        *(lat._relation for lat in enumerate_lattices(7)),
        *(lat._relation for lat in _cubic_incidence_lattices()),
    ]
    for relation in relations:
        assert refine(*relation) == helpers.refine_by_full_signatures(*relation)


def test_leaves_visit_the_leaves_and_find_the_automorphisms_of_rebuilt_paths():
    relations = [
        *(helpers.m_lattice(k)._relation for k in range(2, 9)),
        *(lat._relation for lat in _cubic_incidence_lattices()),
        *_random_relations(100, 8),
    ]
    for relation in relations:
        got, want = [], []  # the automorphisms found
        visited = list(leaves(*relation, got))
        assert visited == list(helpers.leaves_by_rebuilt_paths(*relation, want))
        assert got == want
