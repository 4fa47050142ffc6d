"""Flats of a simplicial complex and boolean representability.

A subset X of the ground set is a flat when every face contained in X
extends to a face by any single vertex from outside X.  The flats are closed
under intersection and contain the ground set, so they form a lattice under
inclusion with meet = intersection.

A face is a transversal of successive differences when it can be enumerated
x_1 .. x_k along a chain F_0 < F_1 < ... < F_k of flats with x_i in
F_i - F_{i-1}.  The complex is boolean representable when every face is such
a transversal.

Everything here goes through one closure operator, held on the complex as
SimplicialComplex.flat_closure: cl(X) is the smallest flat containing X.
all_flats lists its closed sets by Fast Close-by-One (Outrata & Vychodil
2012, _util.closed_sets), with at most one closure per vertex for each flat
found.  It computes none for a vertex that a set failed higher up its
search already rules out, and none for a candidate whose premise's
conclusion already holds a vertex that the canonicity test forbids: that
partial closure lies inside the full one, so the candidate fails either
way, and the partial closure serves as its failed closure.  The operator
is its own memo, a dict from a mask to its closed set, so closure, the BR
test, transversal_witness and simplification index the same operator and
share the closures it holds.

Once the flats are listed (all_flats, or the certificate of a realizing
complex), a closure not yet held is a lookup: the first flat, in the
listing's size order, that holds the set.  Before that, as in the CLI's
brsc, which decides BR before it lists the flats, a closure runs the
operator's implication rounds.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from typing import NamedTuple

from ._util import bit_indices, check_limit, columns, mask_sort_key, maximal_masks
from .complexes import SimplicialComplex
from .errors import LoopsPresent
from .lattice import FiniteLattice

# the limit bounds the face walk: for a complex given by its facets the
# implications of the closure operator are derived from every face, and past
# 24 vertices neither the faces nor the flats are desk scale any more.  The
# realizing complex lists its minimal non-faces and walks no face for its
# closure, and realizing_complex has already held it to REALIZE_SOFT_LIMIT
FLATS_SOFT_LIMIT = 24
# the transversal oracle tries every ordering of X against every flat chain
ORACLE_SIZE_LIMIT = 8


class TransversalWitness(NamedTuple):
    """An enumeration of a face along a strict chain of flats.

    ordering[i] lies in chain[i+1] but not chain[i]; chain[0] is the closure
    of the empty set.
    """

    ordering: tuple[str, ...]
    chain: tuple[frozenset, ...]


class FlatFamily:
    """All flats of a complex, with their lattice under inclusion: the
    flat_masks of its flat_closure, read when the family is made."""

    def __init__(self, complex_):
        self.complex = complex_
        self._masks = complex_.flat_closure.flat_masks
        self.flats = tuple(complex_.set_of(m) for m in self._masks)

    def __len__(self):
        return len(self._masks)

    @cached_property
    def lattice(self):
        """The flats under inclusion, as a FiniteLattice whose element i is
        the i-th flat, labelled by _flat_labels.

        The up-sets are the closure operator's (FlatClosure.flat_up_sets)
        and the down-sets their columns (_util.columns).  Inclusion of
        distinct sets is a partial order, and the flats are closed under
        intersection and hold the ground set, so it is a lattice by
        construction and is stored without validation.
        """
        up = self.complex.flat_closure.flat_up_sets
        labels = _flat_labels(self.complex.vertices, self._masks)
        return FiniteLattice._from_lattice_masks(labels, up, columns(up, len(up)))


def _flat_labels(vertices, masks):
    """Each mask's vertex names in vertex order, as {v1,v2,...}.

    A backslash escapes \\ , { and } inside a name and the empty name is
    written \\0, so distinct masks get distinct labels.  Each name is
    escaped once, whatever the number of masks that hold it.
    """
    names = [re.sub(r"[\\,{}]", r"\\\g<0>", v) or "\\0" for v in vertices]
    return [
        "{" + ",".join([names[i] for i in bit_indices(mask)]) + "}" for mask in masks
    ]


def split_vertex_set(text):
    """Vertex names separated by commas or whitespace, as `closure --set`
    takes them; a backslash escapes , and \\ inside a name."""
    names = re.findall(r"(?:\\[\\,]|[^\s,])+", text)
    return [re.sub(r"\\([\\,])", r"\1", name) for name in names]


def _check_flats_limit(complex_, override):
    """Hold the complex to FLATS_SOFT_LIMIT when its closure walks its
    faces, which a complex that lists its minimal non-faces does not."""
    if complex_._nonface_masks is None:
        _check_vertex_count(len(complex_.vertices), override)


def _check_vertex_count(n, override):
    """Hold a face walk on n vertices to FLATS_SOFT_LIMIT before it starts."""
    check_limit(f"flat enumeration on {n} vertices", n, FLATS_SOFT_LIMIT, override)


def all_flats(complex_, override=False):
    """The flats of the complex."""
    _check_flats_limit(complex_, override)
    return FlatFamily(complex_)


def closure(complex_, subset, override=False):
    """Smallest flat containing the subset."""
    _check_flats_limit(complex_, override)
    return complex_.set_of(complex_.flat_closure[complex_.mask_of(subset)])


def _transversal_order(cl, x_mask):
    """A valid enumeration of x_mask as vertex indices, or None.

    An ordering works iff each x_i avoids the closure of its prefix:
    the closure chain F_i = cl(x_1..x_i) is then strictly increasing with
    x_i in F_i - F_{i-1}; conversely any witness chain dominates the
    closure chain prefix by prefix.  Whether a partial choice can be
    completed depends only on the chosen set, so failed sets are memoized.
    transversal_witness is the only caller: it needs the ordering itself,
    the lexicographically first one, where br_violation needs only a yes
    or no.
    """
    dead = set()
    order = []

    def extend(s):
        if s == x_mask:
            return True
        if s in dead:
            return False
        closed = cl[s]
        for v in bit_indices(x_mask & ~s):
            if not (closed >> v) & 1:
                order.append(v)
                if extend(s | (1 << v)):
                    return True
                order.pop()
        dead.add(s)
        return False

    if extend(0):
        return tuple(order)
    return None


def transversal_witness(complex_, subset, override=False):
    """A TransversalWitness for the subset, or None if it is not one."""
    _check_flats_limit(complex_, override)
    cl = complex_.flat_closure
    order = _transversal_order(cl, complex_.mask_of(subset))
    if order is None:
        return None
    chain = [complex_.set_of(cl[0])]
    acc = 0
    for v in order:
        acc |= 1 << v
        chain.append(complex_.set_of(cl[acc]))
    ordering = tuple(complex_.vertices[v] for v in order)
    return TransversalWitness(ordering, tuple(chain))


def _chain_bruteforce(items, nodes, below, holds):
    """The literal transversal search, shared by both chain oracles: some
    ordering x_1..x_k of the items and some chain y_0 < ... < y_k of the
    nodes (below is the strict order) with holds(x_i, y_i) and not
    holds(x_i, y_{i-1}), trying every ordering against every chain."""

    def chain_from(prev, rest):  # extend a chain ending at prev by rest, in order
        if not rest:
            return True
        x = rest[0]
        if holds(x, prev):
            return False
        for y in nodes:
            if below(prev, y) and holds(x, y) and chain_from(y, rest[1:]):
                return True
        return False

    orderings = itertools.permutations(items)
    return any(chain_from(y, perm) for perm in orderings for y in nodes)


def is_transversal_bruteforce(complex_, subset, override=False):
    """Literal transversal check: every ordering against every flat chain."""
    x_mask = complex_.mask_of(subset)
    k = x_mask.bit_count()
    check_limit(f"transversal oracle on {k} vertices", k, ORACLE_SIZE_LIMIT, override)
    _check_flats_limit(complex_, override)
    return _chain_bruteforce(
        bit_indices(x_mask),
        complex_.flat_closure.flat_masks,
        lambda f, g: f != g and not f & ~g,
        lambda v, f: (f >> v) & 1,
    )


def br_violation(complex_, override=False):
    """First face (by size, then vertex order) that is not a transversal.

    An ordering of F works iff each x_i avoids the closure of its prefix,
    so F is a transversal iff, for some v in F, F - v is one and v lies
    outside cl(F - v) (put v last).  The faces are taken a size at a time,
    from 1 up, so while no smaller face has failed, every proper subset of
    F is a transversal; then F is one iff some v in F escapes cl(F - v), at
    most |F| closures per face.  Every face of a size is tested, and the
    least failing one by mask_sort_key, of the first size with one, is
    returned: only failing faces are ever sorted.  The sizes are the levels
    of the complex's one face walk (SimplicialComplex._ext_levels), which
    FLATS_SOFT_LIMIT holds on every complex.
    """
    _check_vertex_count(len(complex_.vertices), override)
    cl = complex_.flat_closure
    for faces in complex_._ext_levels[1:]:
        failing = []
        for face in faces:
            rest = face
            while rest:
                low = rest & -rest
                if not cl[face ^ low] & low:
                    break  # low escapes the closure of the rest: put it last
                rest ^= low
            else:
                failing.append(face)
        if failing:
            return complex_.set_of(min(failing, key=mask_sort_key))
    return None


def simplification(complex_, override=False):
    """Quotient by the same-closure equivalence on vertices.

    Requires every singleton to be a face.  Returns the quotient complex
    (vertices renamed to the first vertex of each class) and the classes.
    The quotient's facets are the maximal sets of classes that a facet
    meets.
    """
    _check_flats_limit(complex_, override)
    if complex_.loops():
        raise LoopsPresent(
            "simplification needs every singleton to be a face; loops: "
            + " ".join(sorted(complex_.loops()))
        )
    cl = complex_.flat_closure
    vertices = complex_.vertices
    by_closure = {}  # in the order of each class's first vertex
    for v in range(len(vertices)):
        by_closure.setdefault(cl[1 << v], []).append(v)
    classes = list(by_closure.values())
    facets = complex_.facet_masks
    # with every class one vertex the facets are already the quotient's,
    # and a remap would only cost a pass over them
    if len(classes) < len(vertices):
        bit = {v: 1 << k for k, cls in enumerate(classes) for v in cls}
        # the distinct bits of the classes a facet meets sum to their OR
        facets = maximal_masks([sum({bit[v] for v in bit_indices(f)}) for f in facets])
    quotient = SimplicialComplex._from_facet_masks(
        tuple(vertices[cls[0]] for cls in classes), facets
    )
    partition = tuple(frozenset(vertices[v] for v in cls) for cls in classes)
    return quotient, partition
