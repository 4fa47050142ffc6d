"""Deciding which lattices arise as lattices of flats.

Two constructions drive everything here.  transversal_complex builds, for an
atomistic lattice, the complex on its atoms whose faces admit an enumeration
with each atom escaping the join of its predecessors; the lattice is a
lattice of flats iff that complex has exactly as many flats as the lattice
has elements.  realizing_complex builds, for an arbitrary lattice, a complex
on three copies of the nonzero elements whose flat lattice is always
isomorphic to the input, which is what makes "lattice of flats up to
isomorphism" a property worth deciding in the first place.
"""

from __future__ import annotations

from typing import NamedTuple

from ._util import IndexMap, check_limit, columns, maximal_masks
from .complexes import SimplicialComplex
from .errors import ConstructionMismatch, NotAtomistic
from .flats import ORACLE_SIZE_LIMIT, _chain_bruteforce, _check_vertex_count, all_flats
from .graphs import find_supercliques, top_join_graph

# realizing_complex costs the size of its output, at least the 3^(n-1) full
# transversals for n elements.  Verifying it walks no face: the certificate
# transposes the facets once and groups them once per meet-irreducible flat,
# each grouping cut down from a larger one or split by columns.  M8 builds
# in 5-7 ms and verifies in 8-12.5 ms, chain10 in 2.5-3.5 ms and 6-7.5 ms
# (Python 3.11, shared 2-vCPU host, 25 runs each).  So this is the one limit on
# construct --verify: its complex lists its minimal non-faces and walks no
# face, so FLATS_SOFT_LIMIT, which bounds the face walk, does not hold it,
# though a 10-element lattice gives 27 vertices
REALIZE_SOFT_LIMIT = 10


class TransversalComplex:
    """The canonical complex T(L) of an atomistic lattice, as .complex."""

    def __init__(self, complex_):
        self.complex = complex_

    def __repr__(self):
        return f"TransversalComplex({self.complex!r})"


def transversal_complex(lattice, override=False):
    """Faces are the atom sets with an enumeration escaping prefix joins.

    Whether an atom can extend a partial enumeration depends only on the set
    of atoms already placed (their join is order independent), so the faces
    are discovered by a LIFO walk over atom masks from the empty face, each
    kept with its join: an atom a extends a face when a is not below the
    face's join.  The atom count is held to FLATS_SOFT_LIMIT before the walk.

    The walk reads masks alone: the columns (_util.columns) of the atoms'
    up-sets give the atoms below each element, so a face's extensions are
    the atoms outside that mask for its join, and the join with atom a is
    the element whose up-set is the AND of the two up-sets.  The lattice
    is atomistic, so only the top lies above every atom: a face whose join
    is not the top extends, and the facets are the maximal faces among
    those joining to the top.
    """
    violation = lattice.atomistic_violation
    if violation is not None:
        raise NotAtomistic(lattice.labels[violation])
    atoms = sorted(lattice.atoms)
    if not atoms:
        raise ValueError(
            "the one-element lattice has no canonical complex: "
            "its atom set is empty"
        )
    _check_vertex_count(len(atoms), override)
    labels = tuple(lattice.labels[a] for a in atoms)
    up, by_up = lattice._up, lattice._by_up
    atom_up = [up[a] for a in atoms]
    # bit p of below[x] is set when the p-th atom lies below x
    below = columns(atom_up, len(lattice))
    everyone = (1 << len(atoms)) - 1
    joins = {0: lattice.bottom}  # face mask -> the join of its atoms
    queue = [0]
    while queue:
        face = queue.pop()
        join = joins[face]
        join_up = up[join]
        rest = everyone & ~below[join]
        while rest:
            low = rest & -rest
            rest ^= low
            bigger = face | low
            if bigger not in joins:
                joins[bigger] = by_up[join_up & atom_up[low.bit_length() - 1]]
                queue.append(bigger)
    # a face whose join is not the top extends by an atom outside it
    top = lattice.top
    facets = maximal_masks([face for face, join in joins.items() if join == top])
    complex_ = SimplicialComplex._from_facet_masks(labels, facets)
    return TransversalComplex(complex_)


def is_chain_transversal_bruteforce(lattice, atom_labels, override=False):
    """Literal check that a set of atoms enumerates along a lattice chain.

    Brute force over every ordering of the atoms and every chain
    x_0 < ... < x_m of lattice elements, asking that the i-th atom lie below
    x_i but not below x_{i-1}.
    """
    atom_set = frozenset(lattice.index(lab) for lab in atom_labels)
    for a in atom_set:
        if a not in lattice.atoms:
            raise ValueError(f"{lattice.labels[a]!r} is not an atom")
    m = len(atom_set)
    check_limit(f"chain oracle on {m} atoms", m, ORACLE_SIZE_LIMIT, override)
    return _chain_bruteforce(
        sorted(atom_set),
        range(len(lattice)),
        lambda x, y: x != y and lattice.leq(x, y),
        lattice.leq,
    )


class RealizabilityReport(NamedTuple):
    """Outcome of is_realizable, including which procedure decided it."""

    atomistic: bool
    realizable: bool
    method: str
    lattice_size: int
    non_atomistic_witness: str | None = None
    canonical_flat_count: int | None = None
    supercliques: tuple[tuple[str, ...], ...] | None = None

    def to_jsonable(self):
        return {k: v for k, v in self._asdict().items() if v is not None}


def _height_le_2(lattice, override):
    """Height h <= 2: the flat lattice of the uniform matroid U(h, k) on its k atoms."""
    return (True, {}) if lattice.height <= 2 else None


def _height_3(lattice, override):
    """Height 3: by the paper, realizable iff its atom graph has no superclique."""
    if lattice.height != 3:
        return None
    graph = top_join_graph(lattice)
    cliques = tuple(tuple(graph.ordered(w)) for w in find_supercliques(graph))
    return not cliques, {"supercliques": cliques or None}


def _boolean(lattice, override):
    """Height = atom count: the atoms enumerate along a chain, so T(L) is a simplex."""
    if lattice.height != len(lattice.atoms):
        return None
    return lattice.is_boolean, {}


def _general(lattice, override):
    """Realizable iff T(L) has |L| flats; one element is the flat lattice of a loop."""
    n = len(lattice)
    if n == 1:
        return True, {"canonical_flat_count": 1}
    count = len(transversal_complex(lattice, override).complex.flat_closure.flat_masks)
    return count == n, {"canonical_flat_count": count}


# the rows tried on an atomistic lattice, in order: decide returns None when
# its row does not apply, else the answer and its report's evidence fields
_DECIDERS = (
    ("height-le-2", _height_le_2),
    ("height-3", _height_3),
    ("boolean", _boolean),
    ("general", _general),
)


def is_realizable(lattice, force_general=False, override=False):
    """Decide whether the lattice is a lattice of flats, with evidence.

    A non-atomistic lattice is not, with the first element that is not a
    join of atoms as witness.  Otherwise the rows of _DECIDERS are tried in
    order, or only the general row when force_general is set, and the first
    that applies decides.  The general row builds T(L), which has a vertex
    per atom, so transversal_complex holds the atoms to FLATS_SOFT_LIMIT
    before it is built.
    """
    n = len(lattice)
    violation = lattice.atomistic_violation
    if violation is not None:
        return RealizabilityReport(
            atomistic=False,
            realizable=False,
            method="atomistic",
            lattice_size=n,
            non_atomistic_witness=lattice.labels[violation],
        )
    for method, decide in _DECIDERS[-1:] if force_general else _DECIDERS:
        answer = decide(lattice, override)
        if answer is not None:
            realizable, evidence = answer
            return RealizabilityReport(True, realizable, method, n, **evidence)


def boolean_matrix(lattice):
    """0/1 matrix with rows the elements and columns the atoms.

    Entry is 0 when the row element lies above the column atom.  For an
    atomistic lattice the rows are pairwise distinct.
    """
    violation = lattice.atomistic_violation
    if violation is not None:
        raise NotAtomistic(lattice.labels[violation])
    atoms = sorted(lattice.atoms)
    rows = [
        [0 if lattice.leq(a, x) else 1 for a in atoms]
        for x in range(len(lattice))
    ]
    assert len({tuple(r) for r in rows}) == len(rows)
    return rows


def realizing_complex(lattice, override=False):
    """A complex whose lattice of flats is isomorphic to the input.

    Vertices are three copies x^1, x^2, x^3 of each element x of E, the
    elements other than the bottom; a transversal of S takes one copy of
    each member of S.  A set S is admissible for a in E when no member of S
    lies below a and S never holds both p and join(a, p), unless that join
    is p itself.  The facets are
    - for each a in E and each maximal admissible S, every full transversal
      of S together with a^1 and a^2;
    - the full transversals of E, except that each a for which E - {a} is
      itself maximal admissible drops those picking a^1 or a^2.
    Returns the complex and, for each lattice element, the predicted flat:
    all copies of the elements below it.

    The admissible sets for a are the independent sets of the graph on the
    elements not below a with edges p -- join(a, p).  Each edge joins an
    element incomparable to a with an element above a, so the graph is a
    disjoint union of stars, one centred on each element above a, and a
    maximal independent set takes of each star its centre or all its
    leaves.  So E - {a} is admissible, and then maximal, exactly when a is
    the least element of E; E has one exactly when L has one atom, as every
    member of E lies above an atom.

    The complex carries its minimal non-faces, from which flat_closure
    closes sets once it has checked them against the facets.  With d(a) for
    {a^1, a^2}, they are
    - {a^1, a^3} and {a^2, a^3} for each a in E;
    - d(a) + b^c for b < a;
    - d(a) + d(b) for a and b incomparable;
    - d(a) + p^c + q^e for p incomparable to a and q = join(a, p).
    Proof: no facet holds a^3 with a^1 or a^2, nor two doubled pairs, so
    the first and third kinds are non-faces.  A set with at most one copy
    of each element is a face: it lies in a full transversal of E, or, if
    it takes a^1 or a^2 for the least element a, in d(a) + a transversal of
    E - {a}.  So a non-face that holds no set of the first and third kinds
    is d(a) plus one copy of each member of a set S that is not admissible
    for a, and S holds some b < a or both p and join(a, p): it holds a set
    of the second or fourth kind.  Dropping a vertex from a listed set
    leaves a face: a single vertex lies in a facet; so do d(a), d(a) + p^c
    and d(a) + q^e, as {p} and {q} are admissible for a; a^i + b^c and
    a^i + d(b) lie in d(b) + a transversal of a maximal admissible set for
    b that holds a, or, for c = 3, in a full transversal; and
    a^i + p^c + q^e lies in a full transversal.  In each case a is not the
    least element of E, since b or p does not lie above it.

    For the one-element lattice the complex is a single loop vertex.
    Lattices with more than REALIZE_SOFT_LIMIT elements raise LimitExceeded
    unless override is set.
    """
    n = len(lattice)
    check_limit(
        f"realizing complex of a {n}-element lattice", n, REALIZE_SOFT_LIMIT, override
    )
    labels = lattice.labels
    if n == 1:
        single = SimplicialComplex(("v",), [])
        return single, {labels[0]: frozenset(("v",))}

    elems = [i for i in range(n) if i != lattice.bottom]
    copies = (1, 2, 3)
    # vertex 3k + c - 1 is copy c of elems[k]
    vertex_labels = tuple(f"{labels[e]}^{c}" for e in elems for c in copies)
    copy_bits = {
        e: tuple(1 << (3 * k + c - 1) for c in copies) for k, e in enumerate(elems)
    }

    facets, nonfaces = [], []
    for a in elems:
        a1, a2, a3 = copy_bits[a]
        # the stars of the graph: each element above a, with the elements
        # incomparable to a whose join with a it is
        stars = {q: [] for q in elems if q != a and lattice.leq(a, q)}
        for p in elems:
            if not lattice.leq(p, a) and not lattice.leq(a, p):
                stars[lattice.join(a, p)].append(p)
        # a^1 and a^2, then of each star one copy of its centre or a
        # transversal of all its leaves
        options = [(a1 | a2,)]
        for q, leaves in stars.items():
            leaf_masks = tuple(_picks(copy_bits[p] for p in leaves)) if leaves else ()
            options.append(copy_bits[q] + leaf_masks)
        facets += _picks(options)
        nonfaces += [a1 | a3, a2 | a3]
        for b in elems:
            if b != a and lattice.leq(b, a):
                nonfaces += [a1 | a2 | bit for bit in copy_bits[b]]
        for q, leaves in stars.items():
            for p in leaves:
                nonfaces += _picks(((a1 | a2,), copy_bits[p], copy_bits[q]))
                if p > a:
                    nonfaces.append(a1 | a2 | copy_bits[p][0] | copy_bits[p][1])
    # E - {a} is maximal admissible for a iff a is E's least element, a lone atom
    least = lattice.atoms if len(lattice.atoms) == 1 else ()
    # the highest element varies slowest, so these facets come out ascending,
    # one run for the sort in _from_facet_masks
    facets += _picks(
        copy_bits[e][2:] if e in least else copy_bits[e] for e in reversed(elems)
    )

    complex_ = SimplicialComplex._from_facet_masks(vertex_labels, facets, nonfaces)
    predicted = {
        labels[x]: frozenset(
            label
            for k, e in enumerate(elems)
            if lattice.leq(e, x)
            for label in vertex_labels[3 * k : 3 * k + 3]
        )
        for x in range(n)
    }
    return complex_, predicted


def _picks(options):
    """Every union of one mask from each of the option tuples."""
    out = [0]
    for masks in options:
        out = [m | o for m in out for o in masks]
    return out


def verify_realizing_complex(lattice, override=False):
    """Build realizing_complex and check it with verify_realization."""
    complex_, predicted = realizing_complex(lattice, override=override)
    return verify_realization(lattice, complex_, predicted, override=override)


def verify_realization(lattice, complex_, predicted, override=False):
    """Check that a predicted flat map, as realizing_complex returns it, is
    an isomorphism onto the flats of complex_.

    Returns the element-index map into the flat lattice, as an IndexMap; raises
    ConstructionMismatch if the predicted map fails (reporting whether an
    isomorphism exists at all).
    """
    family = all_flats(complex_, override=override)
    flat_index = {flat: i for i, flat in enumerate(family.flats)}

    def fail(reason):
        search = lattice.isomorphism(family.lattice)
        hint = "an isomorphism does exist" if search else "no isomorphism exists"
        raise ConstructionMismatch(f"{reason} ({hint})")

    if len(family) != len(lattice):
        fail(
            f"complex has {len(family)} flats but the lattice has "
            f"{len(lattice)} elements"
        )
    mapping = []
    for i in range(len(lattice)):
        flat = predicted[lattice.labels[i]]
        if flat not in flat_index:
            fail(f"predicted flat for {lattice.labels[i]!r} is not a flat")
        mapping.append(flat_index[flat])
    if len(set(mapping)) != len(mapping):
        fail("predicted map is not injective")
    for i in range(len(lattice)):
        for j in range(len(lattice)):
            below = predicted[lattice.labels[i]] <= predicted[lattice.labels[j]]
            if lattice.leq(i, j) != below:
                fail(
                    f"predicted map does not preserve order on "
                    f"{lattice.labels[i]!r}, {lattice.labels[j]!r}"
                )
    return IndexMap(tuple(mapping))
