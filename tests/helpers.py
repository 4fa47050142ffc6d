"""Shared builders and independent brute-force oracles for the test suite.

The enumeration oracle here deliberately avoids the library's pruned search
and canonicalization: candidates are generated pair by pair and deduplicated
by minimizing over all permutations, so agreement with the library is a real
cross-check.  Likewise the flat oracle scans every vertex subset against the
definition instead of running the closure operator, the exchange oracle
compares faces pairwise instead of reading the facets above each face, and
the complex isomorphism oracle tries vertex maps one by one instead of
searching the vertex-facet incidence.  The lattice table and enumeration
oracles keep the scans the library used before its down-set lookups: every
pair's meet and join by testing each member of its lower and upper sets, and
each new element's down-set by testing all subsets of the elements before it.
The prefix walk the library ran before it grew lattices by coatoms, over
every naturally labeled meet-semilattice with a top, is kept beside them.
The lattice key oracle keeps the key the library used before its
individualization-refinement search: the least relation over every element
order that permutes each refined colour class.  The realizing complex oracle
keeps the walk over every support the library made before it generated the
facets directly.  The semimodularity oracle keeps the five-deep scan for a
forbidden configuration that the library ran before its pass over pairs,
and the cover law beside it is the textbook second definition.  The
atomistic oracle joins the frozenset of atoms below each element, pair by
pair from the bottom (atoms_below and join_all, written from leq and
join), where the library ANDs the up-sets of the atoms in its down-set
mask.
The BR oracle runs the memoized transversal search on every face, as the
library did before it decided faces by the escape rule; the canonical
complex oracle walks frozensets of atom positions instead of atom masks; and
the edge closure oracle adds one vertex at a time in a given scan order
instead of a round of them at once.  The minimal non-face oracle derives
them from the facets by the walk over every face, which is how the library
still closes generic complexes, where realizing_complex reads them off the
lattice.  The flat lattice oracle builds it from the inclusion matrix of
every pair of flats, as the library did before it read each up-set off the
columns of the flat masks, and the simplification oracle relabels the
facets and rebuilds the quotient from label sets, where the library ORs
the class bits of each facet mask.  The flat label
oracle escapes each name again for every flat that holds it, where the
library escapes each name once; the face oracle takes the union of the
submasks of every facet, where the library walks each face once, level by
level; and the closure oracle ORs the premise and conclusion columns of the
missing vertices one vertex at a time, where the library looks up a byte of
them at a time.  The closed set oracle is Ganter's lectic NextClosure, which
the library ran before Fast Close-by-One: it walks the closed sets in a
fixed order and reuses no closure that failed.  The Close-by-One reference
closes every candidate that no failed closure rules out, as the library
did before it failed a candidate by its premise's conclusion; the mask
order reference keys a mask by the tuple of its bit indices, where the
library reads its flipped binary digits.  The cover closure oracle is
Warshall's loop, n^2 steps whatever the pairs, which the library ran on
every cover document before it ORed up-sets in reverse topological order.
The certificate oracle reads every facet once for each meet-irreducible
closed set, as the library did before it grouped the facets once, from the
largest closed set down, and finds those closed sets by ANDing every larger
closed set above each, where the library reads the least closed set above
it through each outside vertex off the closed-set columns.  The refinement
and search references re-sign every node in every round and rebuild the
search path on every visit, as the library did before it signed lone nodes
by their colour and kept its bookkeeping per frame; the height oracle
takes one step per comparable pair, where the library peels the minimal
elements a round at a time.
"""

import contextlib
import functools
import io
import itertools
import os
import random
import re
import sys
from unittest import mock

import flatlat.cli

from flatlat import (
    FiniteLattice,
    NotALattice,
    NotAPartialOrder,
    ConstructionMismatch,
    NotAtomistic,
    SimpleGraph,
    SimplicialComplex,
    all_flats,
    lattice_from_covers,
)
from flatlat._util import (
    bit_indices, columns, individualize, indices, mask_sort_key, maximal_masks, refine,
)
from flatlat.complexes import FlatClosure, _facet_implications
from flatlat.flats import _transversal_order
from flatlat.lattice import _canonical_key


def chain_lattice(n, labels=None):
    if labels is None:
        labels = [str(i) for i in range(n)]
    order = [[i <= j for j in range(n)] for i in range(n)]
    return FiniteLattice(labels, order)


def powerset_lattice(atoms):
    """Boolean lattice of all subsets of `atoms`, labelled by joined names."""
    atoms = list(atoms)
    subsets = []
    for r in range(len(atoms) + 1):
        subsets.extend(itertools.combinations(atoms, r))
    labels = ["".join(s) if s else "-" for s in subsets]
    order = [[set(a) <= set(b) for b in subsets] for a in subsets]
    return FiniteLattice(labels, order)


def nonrealizable6_lattice():
    from flatlat import lattice_from_covers

    return lattice_from_covers(
        ["B", "1", "2", "3", "m", "T"],
        [
            ("B", "1"),
            ("B", "2"),
            ("B", "3"),
            ("1", "m"),
            ("2", "m"),
            ("m", "T"),
            ("3", "T"),
        ],
    )


def glued_triangles_complex():
    return SimplicialComplex(
        ["1", "2", "3", "4"],
        [{"1", "2", "3"}, {"1", "2", "4"}, {"3", "4"}],
    )


def uniform_complex(n, k):
    """All subsets of size <= k on vertices 1..n (a uniform matroid)."""
    verts = [str(i) for i in range(1, n + 1)]
    return SimplicialComplex(verts, [set(c) for c in itertools.combinations(verts, k)])


def all_loopfree_complexes(n):
    """Every complex with all singletons as faces on n labelled vertices.

    Distinct face families only; n <= 4 keeps this exact and quick.
    """
    verts = [str(i) for i in range(1, n + 1)]
    gens = [c for r in range(2, n + 1) for c in itertools.combinations(verts, r)]
    seen = set()
    out = []
    for bits in range(1 << len(gens)):
        faces = [{v} for v in verts]
        faces += [set(gens[i]) for i in range(len(gens)) if bits >> i & 1]
        c = SimplicialComplex(verts, faces)
        if c.facet_masks not in seen:
            seen.add(c.facet_masks)
            out.append(c)
    return out


@functools.cache
def all_complexes(n):
    """Every complex on n labelled vertices, loops allowed, each once, as a
    list built once per n and shared.

    Complexes are the nonempty down-closed families of subsets; the subsets
    are decided in order of size, and a subset may join only when all its
    one-smaller subsets have.
    """
    verts = [str(i) for i in range(1, n + 1)]
    subsets = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
    out = []

    def extend(i, chosen):
        if i == len(subsets):
            faces = [{verts[j] for j in range(n) if m >> j & 1} for m in chosen]
            out.append(SimplicialComplex(verts, faces))
            return
        m = subsets[i]
        extend(i + 1, chosen)
        if all(m ^ (1 << j) in chosen for j in range(n) if m >> j & 1):
            chosen.add(m)
            extend(i + 1, chosen)
            chosen.discard(m)

    extend(0, {0})
    return out


def flat_masks_by_scan(complex_):
    """All flat masks by the definition, sorted by size then vertex order.

    Scans every subset X of the ground set: X is a flat iff every face I
    inside X has its non-extending vertices inside X as well.
    """
    faces = complex_.face_masks
    n = len(complex_.vertices)
    constraints = []
    for face in faces:
        bad = 0
        for p in range(n):
            if not (face >> p) & 1 and (face | (1 << p)) not in faces:
                bad |= 1 << p
        if bad:
            constraints.append((face, bad))
    flats = [
        x
        for x in range(1 << n)
        if all(face & ~x or not bad & ~x for face, bad in constraints)
    ]
    flats.sort(key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1]))
    return tuple(flats)


def exchange_violation_pairwise(complex_):
    """The exchange scan by definition: every face J against every face I
    one larger, in (size, vertex order) order, asking whether some v in
    I - J makes J + v a face."""
    n = len(complex_.vertices)
    faces = complex_.face_masks
    ordered = sorted(
        faces, key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1])
    )
    for j in ordered:
        for i in ordered:
            if i.bit_count() != j.bit_count() + 1:
                continue
            if not any(
                (i & ~j) >> v & 1 and (j | 1 << v) in faces for v in range(n)
            ):
                return complex_.set_of(i), complex_.set_of(j)
    return None


def complex_isomorphism_by_vertex_maps(a, b):
    """A vertex map (tuple) taking the facets of a onto those of b, or None.

    The search the library used before its incidence search: vertices are
    placed in index order, each onto a vertex with the same sorted facet
    sizes, and the facet sets are compared once every vertex is placed.
    """
    n = len(a.vertices)
    if n != len(b.vertices):
        return None
    if sorted(m.bit_count() for m in a.facet_masks) != sorted(
        m.bit_count() for m in b.facet_masks
    ):
        return None

    def invariants(c):
        return [
            tuple(sorted(f.bit_count() for f in c.facet_masks if f >> i & 1))
            for i in range(n)
        ]

    mine, theirs = invariants(a), invariants(b)
    if sorted(mine) != sorted(theirs):
        return None
    target = set(b.facet_masks)
    mapping = [None] * n
    used = [False] * n

    def extend(i):
        if i == n:
            got = {
                sum(1 << mapping[v] for v in range(n) if f >> v & 1)
                for f in a.facet_masks
            }
            return got == target
        for j in range(n):
            if used[j] or theirs[j] != mine[i]:
                continue
            mapping[i], used[j] = j, True
            if extend(i + 1):
                return True
            mapping[i], used[j] = None, False
        return False

    return tuple(mapping) if extend(0) else None


def maps_facets_onto_facets(a, b, mapping):
    """Whether the vertex index map takes the facets of a onto those of b."""
    n = len(a.vertices)
    if sorted(mapping) != list(range(n)):
        return False
    got = {sum(1 << mapping[i] for i in range(n) if f >> i & 1) for f in a.facet_masks}
    return got == set(b.facet_masks)


def is_order_isomorphism(a, b, mapping):
    n = len(a)
    return sorted(mapping) == list(range(n)) and all(
        a.leq(x, y) == b.leq(mapping[x], mapping[y]) for x in range(n) for y in range(n)
    )


def relabelled(obj, seed):
    """The same lattice or complex with its elements or vertices listed in a
    seeded random order under fresh names."""
    rng = random.Random(seed)
    if isinstance(obj, FiniteLattice):
        n = len(obj)
        perm = list(range(n))
        rng.shuffle(perm)
        order = [[obj.leq(perm[i], perm[j]) for j in range(n)] for i in range(n)]
        return FiniteLattice([f"r{perm[i]}" for i in range(n)], order)
    vertices = list(obj.vertices)
    rng.shuffle(vertices)
    fresh = {v: f"r{v}" for v in vertices}
    return SimplicialComplex(
        [fresh[v] for v in vertices], [{fresh[v] for v in f} for f in obj.facets]
    )


def cubic_graph_complex(n, seed):
    """A seeded random 3-regular graph on n vertices (configuration model:
    pair up three stubs per vertex, retry until no loop or double edge) as
    a 1-dimensional complex.  Colour refinement gives every vertex of such
    a graph one colour and every edge another."""
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {frozenset(stubs[i : i + 2]) for i in range(0, len(stubs), 2)}
        if len(edges) == len(stubs) // 2 and all(len(e) == 2 for e in edges):
            return SimplicialComplex(
                [f"v{i}" for i in range(n)], [{f"v{i}" for i in e} for e in edges]
            )


def distance_profile(complex_):
    """For each vertex, how many vertices lie at each distance from it in
    the graph of the complex's edges, sorted: an isomorphism invariant."""
    n = len(complex_.vertices)
    near = [0] * n
    for f in complex_.facet_masks:
        if f.bit_count() == 2:
            u, v = bit_indices(f)
            near[u] |= 1 << v
            near[v] |= 1 << u
    profile = []
    for v in range(n):
        seen = layer = 1 << v
        counts = []
        while layer:
            reach = 0
            for u in bit_indices(layer):
                reach |= near[u]
            layer = reach & ~seen
            seen |= layer
            counts.append(layer.bit_count())
        profile.append(tuple(counts))
    return sorted(profile)


def cycles_complex(*lengths):
    """Disjoint cycles of the given lengths as a 1-dimensional complex."""
    verts = [f"c{k}_{i}" for k, n in enumerate(lengths) for i in range(n)]
    edges = [
        {f"c{k}_{i}", f"c{k}_{(i + 1) % n}"}
        for k, n in enumerate(lengths)
        for i in range(n)
    ]
    return SimplicialComplex(verts, edges)


K4 = tuple(itertools.combinations(range(4), 2))
Q3 = tuple((i, i | 1 << b) for i in range(8) for b in range(3) if not i >> b & 1)


def graphs_complex(*graphs):
    """The disjoint union of graphs, each given by its edges on the vertices
    0..k-1, as a 1-dimensional complex."""
    verts, edges = [], []
    for k, graph in enumerate(graphs):
        verts += [f"g{k}_{i}" for i in range(max(map(max, graph)) + 1)]
        edges += [{f"g{k}_{i}", f"g{k}_{j}"} for i, j in graph]
    return SimplicialComplex(verts, edges)


def maximal_masks_naive(masks):
    """Subset-maximal members of a mask collection, largest first, each
    compared with every mask kept before it."""
    out = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m & ~kept == 0 for kept in out):
            out.append(m)
    return out


def _transitive(rel, n):
    for k in range(n):
        rk = rel[k]
        for i in range(n):
            if rel[i][k]:
                ri = rel[i]
                for j in range(n):
                    if rk[j] and not ri[j]:
                        return False
    return True


def _is_lattice_relation(rel, n):
    for x in range(n):
        for y in range(x + 1, n):
            lower = [z for z in range(n) if rel[z][x] and rel[z][y]]
            if not any(all(rel[w][z] for w in lower) for z in lower):
                return False
            upper = [z for z in range(n) if rel[x][z] and rel[y][z]]
            if not any(all(rel[z][w] for w in upper) for z in upper):
                return False
    return True


def _canonical(rel, n):
    best = None
    for perm in itertools.permutations(range(n)):
        key = bytes(
            rel[perm[i]][perm[j]] for i in range(n) for j in range(n)
        )
        if best is None or key < best:
            best = key
    return best


def bruteforce_lattice_count(n, seed=None):
    """Isomorphism classes of n-element lattices by exhaustive pair assignment.

    Every unordered pair independently gets <, > or incomparable; transitive
    relations that pass the lattice test are deduplicated by the minimum
    relation matrix over all n! relabelings.  `seed` shuffles the pair order,
    which must not change the count.
    """
    pairs = list(itertools.combinations(range(n), 2))
    if seed is not None:
        random.Random(seed).shuffle(pairs)
    classes = set()
    for assignment in itertools.product(range(3), repeat=len(pairs)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), a in zip(pairs, assignment):
            if a == 1:
                rel[i][j] = True
            elif a == 2:
                rel[j][i] = True
        if _transitive(rel, n) and _is_lattice_relation(rel, n):
            classes.add(_canonical(rel, n))
    return len(classes)


def random_graph(rng, max_vertices=10):
    n = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(n)]
    edges = [
        (a, b)
        for a, b in itertools.combinations(verts, 2)
        if rng.random() < rng.choice((0.2, 0.5, 0.8))
    ]
    return SimpleGraph(verts, edges)


def atomistic_lattices(max_size, override=False):
    from flatlat import enumerate_lattices

    for lat in enumerate_lattices(max_size, override=override):
        if lat.is_atomistic:
            yield lat


def assert_valid_lattice(lat):
    """Re-validate a lattice from its raw relation (paranoia helper)."""
    n = len(lat)
    order = [[lat.leq(i, j) for j in range(n)] for i in range(n)]
    rebuilt = FiniteLattice(lat.labels, order)
    assert isinstance(rebuilt, FiniteLattice)


def _extreme(mask, reach):
    """The member x of mask with mask inside reach[x], or None: the greatest
    member when reach holds down-sets, the least when it holds up-sets."""
    for x in range(len(reach)):
        if mask >> x & 1 and mask & ~reach[x] == 0:
            return x
    return None


def meet_join_tables(lattice):
    """Every lattice.meet(i, j) and lattice.join(i, j), as two tables of
    rows, in the shape meet_join_by_scan returns."""
    n = len(lattice)
    meet = tuple(tuple(lattice.meet(i, j) for j in range(n)) for i in range(n))
    join = tuple(tuple(lattice.join(i, j) for j in range(n)) for i in range(n))
    return meet, join


def meet_join_by_scan(labels, order):
    """Meet and join tables of a labelled relation matrix, as tuples of rows.

    Validates like FiniteLattice, raising the same errors with the same
    messages, then scans each pair's common lower (upper) set for a member
    that all of the set lies below (above).
    """
    n = len(labels)
    up = [sum(1 << j for j in range(n) if order[i][j]) for i in range(n)]
    down = [sum(1 << i for i in range(n) if order[i][j]) for j in range(n)]
    for i in range(n):
        if not order[i][i]:
            raise NotAPartialOrder(f"relation is not reflexive at {labels[i]!r}")
    for i in range(n):
        for j in range(n):
            if not order[i][j]:
                continue
            if j != i and order[j][i]:
                raise NotAPartialOrder(
                    f"relation is not antisymmetric on {labels[i]!r}, {labels[j]!r}"
                )
            if up[j] & ~up[i]:
                raise NotAPartialOrder(
                    f"relation is not transitive at {labels[i]!r} <= {labels[j]!r}"
                )
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g = _extreme(down[i] & down[j], down)
            if g is None:
                raise NotALattice((labels[i], labels[j]), "meet")
            meet[i][j] = meet[j][i] = g
            l = _extreme(up[i] & up[j], up)
            if l is None:
                raise NotALattice((labels[i], labels[j]), "join")
            join[i][j] = join[j][i] = l
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


def natural_meet_prefixes_by_scan(n):
    """Down-set masks of naturally labelled posets on n elements whose pairs
    all have meets, in the library's order: each new element k tries every
    mask below 2^k in ascending order, keeping the down-sets (nonempty once
    k > 0) that give it a meet with every element not below it."""

    def extend(down):
        k = len(down)
        if k == n:
            yield tuple(down)
            return
        for ideal in range(1 << k):
            if k and ideal == 0:
                continue
            if any(ideal >> i & 1 and down[i] & ~ideal for i in range(k)):
                continue  # not a down-set
            if any(
                not ideal >> x & 1 and _extreme(ideal & down[x], down) is None
                for x in range(k)
            ):
                continue
            down.append(ideal | 1 << k)
            yield from extend(down)
            down.pop()

    yield from extend([])


def natural_meet_prefixes(n):
    """Down-set masks of naturally labeled posets on n elements whose pairs
    all have meets, by the walk the library used before coatom growth.

    Element k is added as a new maximal element below which lies a down-set
    `ideal` of the poset on 0..k-1.  The walk keeps every down-set of that
    poset, in ascending order, so it tries exactly these: the new element's
    down-set is d = ideal | bit k, and the down-sets of the larger poset are
    the old ones followed by D | bit k for every old D containing d.  A pair
    of k with an element x not below it has a meet exactly when
    ideal & down[x] is the down-set of one element, that is, when it is in
    the set of down-masks built so far.  This also drops the empty ideal
    once k > 0: a second minimal element has no meet with element 0.
    """

    def extend(down, ideals, principal):
        k = len(down)
        if k == n:
            yield tuple(down)
            return
        bit = 1 << k
        for ideal in ideals:
            if any(
                not ideal >> x & 1 and ideal & down[x] not in principal for x in range(k)
            ):
                continue
            d = ideal | bit
            down.append(d)
            principal.add(d)
            yield from extend(
                down, ideals + [D | bit for D in ideals if D & ideal == ideal], principal
            )
            principal.discard(d)
            down.pop()

    yield from extend([], [0], set())


def meet_prefix_candidates(n):
    """Up- and down-set masks of every candidate the prefix walk keys on n
    elements, in its order: each meet prefix on n - 1 elements with a top
    added (a finite meet-semilattice with a top has all joins)."""
    for prefix in natural_meet_prefixes(n - 1):
        down = (*prefix, (1 << n) - 1)
        up = tuple(sum(1 << j for j in range(n) if down[j] >> i & 1) for i in range(n))
        yield up, down


def lattices_by_meet_prefixes(n):
    """One lattice per class on n elements, by the prefix walk the library
    ran before coatom growth: the first candidate of each canonical key is
    built."""
    seen = set()
    labels = tuple(str(i) for i in range(n))
    for up, down in meet_prefix_candidates(n):
        key = canonical_key(up, down)
        if key not in seen:
            seen.add(key)
            order = [[(down[j] >> i) & 1 for j in range(n)] for i in range(n)]
            yield FiniteLattice(labels, order)


def lattices_by_building_every_candidate(n):
    """One lattice per class on n elements: every prefix with a unique
    maximal element is built as a FiniteLattice and kept when its
    canonical_key is new."""
    seen = set()
    labels = [str(i) for i in range(n)]
    for down in natural_meet_prefixes_by_scan(n):
        above = [[k for k in range(n) if k != j and down[k] >> j & 1] for j in range(n)]
        if above.count([]) != 1:
            continue  # not one maximal element
        order = [[down[j] >> i & 1 for j in range(n)] for i in range(n)]
        lat = FiniteLattice(labels, order)
        if lat.canonical_key not in seen:
            seen.add(lat.canonical_key)
            yield lat


def incidence_lattice(graph_complex):
    """A bottom, the vertices, the edges and a top of a graph (a complex
    whose facets are edges), ordered by incidence: a lattice, because two
    vertices share at most one edge and two edges at most one vertex."""
    vertices = list(graph_complex.vertices)
    edges = ["-".join(graph_complex.ordered(f)) for f in graph_complex.facets]
    covers = [("bottom", v) for v in vertices] + [(e, "top") for e in edges]
    covers += [(v, e) for e, f in zip(edges, graph_complex.facets) for v in f]
    return lattice_from_covers(["bottom", *vertices, *edges, "top"], covers)


def m_lattice(k):
    """M_k: a bottom, k pairwise incomparable atoms and a top."""
    n = k + 2
    order = [[i == j or i == 0 or j == n - 1 for j in range(n)] for i in range(n)]
    return FiniteLattice([str(i) for i in range(n)], order)


def canonical_key(up, down):
    """The library's canonical key of the lattice with these up- and
    down-set masks."""
    return _canonical_key(indices(up), indices(down))


def canonical_key_by_permutations(up, down):
    """The least relation, as a tuple of up-set rows, over every element
    order that lists the refined colour classes in turn, each permuted
    every way; keys of two lattices are equal iff they are isomorphic."""
    n = len(up)
    succ = [list(bit_indices(row)) for row in up]
    colours = refine(succ, [list(bit_indices(row)) for row in down], [0] * n)
    blocks = [[i for i, c in enumerate(colours) if c == k] for k in sorted(set(colours))]

    def relation_in(order):
        bit = {old: 1 << new for new, old in enumerate(order)}
        return tuple(sum([bit[j] for j in succ[i]]) for i in order)

    return min(
        relation_in([i for perm in perms for i in perm])
        for perms in itertools.product(*map(itertools.permutations, blocks))
    )


def refine_by_full_signatures(succ, pred, colours):
    """Colour refinement as the library ran it before it signed a node
    alone in its class by its colour only: every node is re-signed by the
    sorted colours of its successors and predecessors in every round."""
    sig = [(c, len(s), len(p)) for c, s, p in zip(colours, succ, pred)]
    classes = 0
    while True:
        rank = {s: k for k, s in enumerate(sorted(set(sig)))}
        colour = [rank[s] for s in sig]
        if len(rank) in (classes, len(sig)):
            return colour
        classes, get = len(rank), colour.__getitem__
        sig = [
            (c, tuple(sorted(map(get, s))) if s else (), tuple(sorted(map(get, p))) if p else ())
            for c, s, p in zip(colour, succ, pred)
        ]


def leaves_by_rebuilt_paths(succ, pred, colours, autos=None):
    """The individualization-refinement search as the library ran it
    before it kept its bookkeeping per frame: the path is rebuilt from the
    frames, the first class of several found again and the orbits of the
    children tried closed on every visit, a leaf's order read by sorting,
    and refinement is refine_by_full_signatures."""
    n = len(succ)
    frames = [(refine_by_full_signatures(succ, pred, colours), [])]
    best = None
    if autos is None:
        autos = []
    while frames:
        colours, tried = frames[-1]
        path = [f[1][-1] for f in frames[:-1]]
        if len(set(colours)) == n:
            order = sorted(range(n), key=colours.__getitem__)
            bit = [1 << c for c in colours].__getitem__
            leaf = tuple(sum(map(bit, succ[i])) for i in order), order, path
            yield leaf[:2]
            if best and leaf[0] == best[0]:
                autos.append(tuple(map(best[1].__getitem__, colours)))
                split = next(k for k, (v, x) in enumerate(zip(path, best[2])) if v != x)
                del frames[split + 1 :]
                continue
            best = min(best or leaf, leaf)
            frames.pop()
            continue
        side = sorted(colours)
        t = next(c for c, d in zip(side, side[1:]) if c == d)
        fixing = [g for g in autos if all(g[v] == v for v in path)]
        done = set(tried)
        while len(done) < len(grown := done | {g[v] for g in fixing for v in done}):
            done = grown
        w = next((v for v, c in enumerate(colours) if c == t and v not in done), None)
        if w is None:
            frames.pop()
            continue
        tried.append(w)
        child = individualize(colours, w)
        if len(set(child)) < n:
            child = refine_by_full_signatures(succ, pred, child)
        frames.append((child, []))


def height_by_chains(lattice):
    """The length of a longest chain, as the library found it before it
    peeled minimal elements: each element's longest chain from below, one
    step per element strictly below it."""
    n = len(lattice)
    depth = [0] * n
    for x in sorted(range(n), key=lambda i: lattice._down[i].bit_count()):
        below = lattice._down[x] & ~(1 << x)
        depth[x] = max((depth[y] + 1 for y in bit_indices(below)), default=0)
    return depth[lattice.top]


def realizing_facets_by_support_walk(lattice):
    """The vertices, facet masks and predicted map of realizing_complex, as
    the library built them before it generated the facets directly.

    Every support P (a set of non-bottom elements) with every choice of one
    copy per member is a face, extended by the doubled pair a^1, a^2 of
    each element a that lies above no member of P and whose join with a
    member never lands on another member; the facets are the maximal faces
    found.  Supports with no such a are skipped, since the full
    transversals cover them.
    """
    labels = lattice.labels
    elems = [i for i in range(len(lattice)) if i != lattice.bottom]
    copies = (1, 2, 3)
    vertex_labels = tuple(f"{labels[e]}^{c}" for e in elems for c in copies)
    copy_bits = {
        e: tuple(1 << (3 * k + c - 1) for c in copies) for k, e in enumerate(elems)
    }
    doubled = {e: bits[0] | bits[1] for e, bits in copy_bits.items()}
    faces = set()
    for r in range(len(elems) + 1):
        for support in itertools.combinations(elems, r):
            extenders = [
                a
                for a in elems
                if not any(lattice.leq(p, a) for p in support)
                and not any(
                    lattice.join(a, p) == q
                    for p in support
                    for q in support
                    if q != p
                )
            ]
            if r < len(elems) and not extenders:
                continue
            transversals = [0]
            for e in support:
                transversals = [m | bit for m in transversals for bit in copy_bits[e]]
            if r == len(elems):
                faces.update(transversals)
            for a in extenders:
                faces.update(m | doubled[a] for m in transversals)
    predicted = {
        labels[x]: frozenset(
            f"{labels[e]}^{c}" for e in elems if lattice.leq(e, x) for c in copies
        )
        for x in range(len(lattice))
    }
    return vertex_labels, tuple(sorted(maximal_masks(faces))), predicted


def minimal_nonfaces_by_face_walk(complex_):
    """The minimal non-faces I + p of the complex, as sorted masks, from the
    implications the walk over every face derives from its facets."""
    n = len(complex_.vertices)
    return sorted({
        face | 1 << p
        for face, bad in _facet_implications(complex_._ext_levels, n)
        for p in bit_indices(bad)
    })


def facets_only(complex_):
    """The same complex without the minimal non-faces its construction
    listed, so that its flats come from the walk over every face."""
    return SimplicialComplex._from_facet_masks(complex_.vertices, complex_.facet_masks)


def nonface_implications(nonface_masks):
    """The implications N - p -> p of the given non-faces as a dict from
    premise to conclusion, those sharing a premise merged into one in the
    order of their first (N, p), as SimplicialComplex._certified_closure
    merges them."""
    merged = {}
    for nonface in nonface_masks:
        for p in bit_indices(nonface):
            premise = nonface ^ 1 << p
            merged[premise] = merged.get(premise, 0) | 1 << p
    return merged


def certified_closure_by_passes(complex_):
    """SimplicialComplex._certified_closure with one pass over the facets
    per meet-irreducible closed set: the same checks in the same order,
    raising the same ConstructionMismatch, or the same closure."""
    n, facets = len(complex_.vertices), complex_.facet_masks
    full = complex_.full_mask
    shown = complex_._shown
    holders = columns(facets, n)

    def in_a_facet(mask):
        held = -1
        for v in bit_indices(mask):
            held &= holders[v]
        return held

    for nonface in complex_._nonface_masks:
        for p in bit_indices(nonface):
            if not in_a_facet(nonface ^ 1 << p):
                raise ConstructionMismatch(
                    f"listed non-face {shown(nonface)} is not minimal: "
                    f"{shown(nonface ^ 1 << p)} lies in no facet"
                )
        if in_a_facet(nonface):
            raise ConstructionMismatch(
                f"listed non-face {shown(nonface)} lies in a facet"
            )
    closure = FlatClosure(nonface_implications(complex_._nonface_masks), n)
    closed = closure.flat_masks
    for i, p in enumerate(closed):
        meet = full  # of the closed sets above p, which come after it
        for q in closed[i + 1 :]:
            if not p & ~q:
                meet &= q
        if meet == p:
            continue
        ext = {}  # trace on p -> the union of the facets with that trace
        get = ext.get
        for facet in facets:
            trace = facet & p
            ext[trace] = get(trace, 0) | facet
        outside = full & ~p
        for trace, covered in ext.items():
            missing = outside & ~covered
            # a trace inside a larger one extends as far as that one
            if missing and not any(t & ~trace and not trace & ~t for t in ext):
                raise ConstructionMismatch(
                    f"closed set {shown(p)} of the listed non-faces is not "
                    f"a flat: the face {shown(trace)} does not extend by "
                    f"{shown(missing & -missing)}"
                )
    return closure


def partly_listed_complexes(seed, count):
    """Complexes on 4-8 vertices with 4-30 random facets of one size, each
    listing a random part of its minimal non-faces, as (vertices, facet
    masks, non-face masks)."""
    rng = random.Random(seed)
    for _ in range(count):
        labels = [str(v) for v in range(rng.randint(4, 8))]
        size = rng.randint(2, len(labels) - 2)
        complex_ = SimplicialComplex(
            labels, [rng.sample(labels, size) for _ in range(rng.randint(4, 30))]
        )
        keep = rng.choice((0.5, 0.8, 0.95))
        nonfaces = minimal_nonfaces_by_face_walk(complex_)
        yield labels, complex_.facet_masks, [m for m in nonfaces if rng.random() < keep]


def semimodular_witness_by_scan(lattice):
    """First forbidden configuration, scanning from the top of the
    element order downward so the witness is deterministic."""
    n = len(lattice)
    order = range(n - 1, -1, -1)
    for a in order:
        for b in order:
            if b == a or not lt(lattice, b, a):
                continue
            for c in order:
                if c in (a, b) or not lt(lattice, c, b):
                    continue
                for e in order:
                    if e in (a, b, c) or not lt(lattice, e, c):
                        continue
                    for d in order:
                        if d in (a, b, c, e):
                            continue
                        if not (lt(lattice, e, d) and lt(lattice, d, a)):
                            continue
                        if not covers(lattice, e, d):
                            continue
                        if lattice.meet(b, d) != e or lattice.meet(c, d) != e:
                            continue
                        if lattice.join(b, d) != a or lattice.join(c, d) != a:
                            continue
                        return (a, b, c, d, e)
    return None


def is_semimodular_by_covers(lattice):
    """Textbook cover law: x^y covered by x implies y covered by x v y.

    A second definition of semimodularity, beside semimodular_witness.
    """
    n = len(lattice)
    for x in range(n):
        for y in range(n):
            if covers(lattice, lattice.meet(x, y), x) and not covers(
                lattice, y, lattice.join(x, y)
            ):
                return False
    return True


def lt(lattice, i, j):
    """i lies strictly below j."""
    return i != j and lattice.leq(i, j)


def covers(lattice, x, y):
    """y covers x: x lies strictly below y with no element strictly between,
    by a scan over every element."""
    return lt(lattice, x, y) and not any(
        lt(lattice, x, z) and lt(lattice, z, y) for z in range(len(lattice))
    )


def atoms_below(lattice, x):
    """The frozenset of atoms that lie below x."""
    return frozenset(a for a in lattice.atoms if lattice.leq(a, x))


def join_all(lattice, elems):
    """The join of the elements, folded pairwise from the bottom."""
    return functools.reduce(lattice.join, elems, lattice.bottom)


def atomistic_violation_by_joins(lattice):
    """First element that is not the join of the atoms below it, or None,
    by joining the frozenset of those atoms for every element."""
    for x in range(len(lattice)):
        if join_all(lattice, atoms_below(lattice, x)) != x:
            return x
    return None


def br_violation_by_search(complex_):
    """First face (by size, then vertex order) that is not a transversal,
    by the memoized transversal search on every face."""
    cl = complex_.flat_closure
    for face in sorted(complex_.face_masks, key=mask_sort_key):
        if _transversal_order(cl, face) is None:
            return complex_.set_of(face)
    return None


def transversal_complex_by_label_walk(lattice):
    """The canonical complex, by the subset walk over frozensets of atom
    positions whose faces become label sets."""
    violation = lattice.atomistic_violation
    if violation is not None:
        raise NotAtomistic(lattice.labels[violation])
    atoms = sorted(lattice.atoms)
    if not atoms:
        raise ValueError(
            "the one-element lattice has no canonical complex: "
            "its atom set is empty"
        )
    labels = tuple(lattice.labels[a] for a in atoms)
    joins = {frozenset(): lattice.bottom}  # face -> the join of its atoms
    queue = [frozenset()]
    while queue:
        face = queue.pop()
        join = joins[face]
        for p, a in enumerate(atoms):
            if p in face or lattice.leq(a, join):
                continue
            bigger = face | {p}
            if bigger in joins:
                continue
            joins[bigger] = lattice.join(join, a)
            queue.append(bigger)
    return SimplicialComplex(labels, [{labels[p] for p in face} for face in joins])


def edge_closure_one_at_a_time(graph, a, b, order=None):
    """Grow {a, b} by outside vertices adjacent to two members until stable,
    adding the first eligible vertex of the scan order and rescanning."""
    if (a, b) not in graph.edges and (b, a) not in graph.edges:
        raise ValueError(f"{a!r} and {b!r} are not adjacent")
    if order is None:
        scan = range(len(graph.vertices))
    else:
        scan = [graph._vertex(lab) for lab in order]
    current = graph.mask_of((a, b))
    grown = True
    while grown:
        grown = False
        for v in scan:
            if (current >> v) & 1:
                continue
            if (graph._adj[v] & current).bit_count() >= 2:
                current |= 1 << v
                grown = True
                break
    return graph.set_of(current)


def random_triple_complex(rng, n):
    """Every pair on n vertices and a seeded random share, between a half
    and all, of the triples, as a complex."""
    verts = [f"x{i}" for i in range(n)]
    triples = list(itertools.combinations(verts, 3))
    chosen = rng.sample(triples, round(rng.uniform(0.5, 1.0) * len(triples)))
    pairs = itertools.combinations(verts, 2)
    return SimplicialComplex(verts, [set(f) for f in itertools.chain(pairs, chosen)])


def graphic_matroid(edges):
    """The graphic matroid of a graph given by its edges, pairs of ints, as
    a complex on the edges named "ab": its faces are the forests, and its
    facets the spanning forests."""
    def rank(chosen):  # the edges that join two trees, added in turn
        parent = {v: v for edge in edges for v in edge}
        joined = 0
        for a, b in chosen:
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[a] = b
                joined += 1
        return joined

    names = [f"{a}{b}" for a, b in edges]
    facets = [
        {names[k] for k in chosen}
        for chosen in itertools.combinations(range(len(edges)), rank(edges))
        if rank([edges[k] for k in chosen]) == len(chosen)
    ]
    return SimplicialComplex(names, facets)


def partition_lattice(n):
    """The partition lattice Pi_n: the flats of the graphic matroid of K_n."""
    return all_flats(graphic_matroid(list(itertools.combinations(range(n), 2)))).lattice


def subspace_lattice(k):
    """The subspaces of F_2^k by inclusion, each the bitmask of its 2^k
    vectors, labelled by it in hex: s | (s xor v), over the vectors m of s,
    spans s and v."""
    size = 1 << k
    spaces, frontier = {1}, {1}
    while frontier:
        grown = {
            s | sum(1 << (m ^ v) for m in range(size) if s >> m & 1)
            for s in frontier
            for v in range(size)
        }
        frontier = grown - spaces
        spaces |= grown
    spaces = sorted(spaces)
    up = [sum(1 << j for j, t in enumerate(spaces) if not s & ~t) for s in spaces]
    return FiniteLattice._from_up_masks([f"s{s:x}" for s in spaces], up)


def random_graphic_matroid(rng, n, m):
    """The graphic matroid of a seeded random graph with m of the edges on
    n vertices."""
    return graphic_matroid(sorted(rng.sample(list(itertools.combinations(range(n), 2)), m)))


def fresh(complex_):
    """The same complex with nothing computed yet: its closure operator
    holds no closure and has listed no flat."""
    return SimplicialComplex._from_facet_masks(
        complex_.vertices, complex_.facet_masks, complex_._nonface_masks
    )


def flat_lattice_by_matrix(family):
    """The lattice of a FlatFamily from the inclusion matrix of its flats,
    every pair tested, through the matrix constructor."""
    masks = family._masks
    labels = [flat_label(family.complex, m) for m in masks]
    order = [[1 if a & ~b == 0 else 0 for b in masks] for a in masks]
    return FiniteLattice(labels, order)


def simplification_by_relabelled_faces(complex_):
    """The quotient by the same-closure classes and the classes, with each
    facet relabelled by the first vertex of each class and the quotient
    built from those faces, whether or not any two vertices share a class."""
    cl = complex_.flat_closure
    by_closure = {}
    for v in range(len(complex_.vertices)):
        by_closure.setdefault(cl[1 << v], []).append(v)
    classes = sorted(by_closure.values(), key=lambda c: c[0])
    rep = {v: complex_.vertices[cls[0]] for cls in classes for v in cls}
    new_vertices = tuple(complex_.vertices[cls[0]] for cls in classes)
    faces = [{rep[i] for i in bit_indices(facet)} for facet in complex_.facet_masks]
    partition = tuple(frozenset(complex_.vertices[v] for v in cls) for cls in classes)
    return SimplicialComplex(new_vertices, faces), partition


def flat_label(complex_, mask):
    """The flat's vertex names in vertex order, as {v1,v2,...}, each name
    escaped again for every flat that holds it."""
    names = (
        re.sub(r"[\\,{}]", r"\\\g<0>", complex_.vertices[i]) or "\\0"
        for i in bit_indices(mask)
    )
    return "{" + ",".join(names) + "}"


def submasks(mask):
    """Yield every submask of mask (including mask and 0), descending."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def face_exts_by_submasks(complex_):
    """Every face as a bitmask, the union of the submasks of the facets,
    mapped to the union of the facets it is a submask of."""
    out = {}
    for facet in complex_.facet_masks:
        for face in submasks(facet):
            out[face] = out.get(face, 0) | facet
    return out


def closure_by_vertex_loop(implications, n):
    """The closure operator of the implications, a dict from premise to
    conclusion, unmemoized: each round ORs the premise and conclusion
    columns of every missing vertex, one vertex at a time, and applies the
    ready implications."""
    implications = list(implications.items())
    conclusions = [conclusion for _, conclusion in implications]
    premises = columns([premise for premise, _ in implications], n)
    concluders = columns(conclusions, n)
    full = (1 << n) - 1

    def close(mask):
        got = mask
        while True:
            blocked = useful = 0
            for v in bit_indices(full & ~got):
                blocked |= premises[v]
                useful |= concluders[v]
            ready = useful & ~blocked
            if not ready:
                return got
            for k in bit_indices(ready):
                got |= conclusions[k]

    return close


def closed_sets_closing_every_candidate(closure, n):
    """Fast Close-by-One as _util.closed_sets ran it before the premise
    check: every candidate that no failed closure rules out is closed, by
    calling closure, and only full closures are handed down."""
    full = (1 << n) - 1
    stack = [(closure(0), 0, [0] * n)]  # a closed set, its first bit, failed closures
    while stack:
        a, start, failed = stack.pop()
        yield a
        rest = full & ~a & -(1 << start)  # the absent bits from start up
        kept, now_failed = [], failed  # copied on the first new failure
        while rest:
            bit = rest & -rest
            rest ^= bit
            j = bit.bit_length() - 1
            low = bit - 1
            if failed[j] & low & ~a:
                continue
            b = closure(a | bit)
            if b & ~a & low:
                if now_failed is failed:
                    now_failed = failed.copy()
                now_failed[j] = b
            else:
                kept.append((b, j + 1))
        stack.extend((b, start, now_failed) for b, start in reversed(kept))


def mask_sort_key_by_indices(mask):
    """Sort key ordering masks by size, then by the tuple of their bit
    indices."""
    return (mask.bit_count(), tuple(bit_indices(mask)))


def next_closure(closure, n):
    """Yield every closed set of a closure operator on n bits, lectically.

    Ganter's NextClosure (1984): from a closed set A, the next one is
    closure((A & low) | bit) for the highest absent bit whose closure adds
    nothing below it (low = the bits below bit).  At most n closures are
    computed per closed set.
    """
    a = closure(0)
    while True:
        yield a
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if a & bit:
                continue
            low = bit - 1
            b = closure((a & low) | bit)
            if (b & ~a) & low == 0:
                a = b
                break
        else:
            return


def up_sets_by_warshall(n, pairs):
    """The up-set masks of the reflexive-transitive closure of index pairs
    (i, j), i below j, by Warshall's loop: after step k, paths may pass
    through k."""
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        up[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return up


def run_cli(argv):
    """One in-process flatlat run as a golden corpus entry: its argv, exit
    code, stdout and stderr, and whether argparse ended it (help or a usage
    error, whose wording varies across Python versions).  stdin is empty,
    the terminal is 80 columns wide and the soft limits are in force."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, {"COLUMNS": "80"}))
        os.environ.pop("FLATLAT_LIMIT_OVERRIDE", None)
        stack.enter_context(mock.patch.object(sys, "stdin", io.StringIO()))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code, by_argparse = flatlat.cli.main(list(argv)), False
        except SystemExit as exc:
            code, by_argparse = exc.code, True
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "argparse": by_argparse,
    }
