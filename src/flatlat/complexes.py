"""Abstract simplicial complexes over a labeled ground set.

A complex is stored by its facets (the subset-maximal faces); the empty set
is always a face, and vertices contained in no face are loops.  Faces are
bitmasks internally, frozensets of labels at the API surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ._util import bit_indices, maximal_masks, next_closure, submasks
from .errors import AllLoops, EmptyRestriction, UnknownVertex


@dataclass(frozen=True)
class ComplexIso:
    """Vertex bijection witnessing a complex isomorphism, as an index map."""

    mapping: tuple[int, ...]

    def __getitem__(self, index):
        return self.mapping[index]


class SimplicialComplex:
    def __init__(self, vertices, faces=()):
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("vertex set must be nonempty")
        if len(set(vertices)) != len(vertices):
            raise ValueError("vertex labels must be distinct")
        self.vertices = vertices
        self._index = {v: i for i, v in enumerate(vertices)}
        masks = [self.mask_of(face) for face in faces]
        masks.append(0)
        self.facet_masks = tuple(sorted(maximal_masks(masks)))

    def mask_of(self, labels):
        m = 0
        for lab in labels:
            i = self._index.get(lab)
            if i is None:
                raise UnknownVertex(f"unknown vertex {lab!r}")
            m |= 1 << i
        return m

    def set_of(self, mask):
        return frozenset(self.vertices[i] for i in bit_indices(mask))

    @property
    def full_mask(self):
        return (1 << len(self.vertices)) - 1

    @cached_property
    def facets(self):
        return tuple(self.set_of(m) for m in self.facet_masks)

    @cached_property
    def dimension(self):
        """Largest face size minus one; -1 for the complex with no vertices in faces."""
        return max(m.bit_count() for m in self.facet_masks) - 1

    @cached_property
    def face_masks(self):
        """Every face as a bitmask.  Exponential in facet size; desk scale only."""
        out = set()
        for facet in self.facet_masks:
            out.update(submasks(facet))
        return frozenset(out)

    @cached_property
    def flat_closure(self):
        """The closure operator whose closed sets are the flats."""
        return FlatClosure(self.facet_masks, len(self.vertices))

    @cached_property
    def faces(self):
        """All faces as label sets, sorted by size then vertex order."""
        ordered = sorted(self.face_masks, key=_mask_sort_key)
        return tuple(self.set_of(m) for m in ordered)

    def is_face(self, labels):
        m = self.mask_of(labels)
        return any(m & ~facet == 0 for facet in self.facet_masks)

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self.facet_masks == other.facet_masks

    def __hash__(self):
        return hash((self.vertices, self.facet_masks))

    def __repr__(self):
        shown = ", ".join("{" + ",".join(sorted(f)) + "}" for f in self.facets)
        return f"SimplicialComplex({len(self.vertices)} vertices; facets {shown})"

    # -- constructions ----------------------------------------------------

    def restriction(self, keep):
        """The induced subcomplex on the given nonempty vertex subset."""
        keep_mask = self.mask_of(keep)
        if keep_mask == 0:
            raise EmptyRestriction("restriction needs at least one vertex")
        new_vertices = tuple(
            v for i, v in enumerate(self.vertices) if (keep_mask >> i) & 1
        )
        faces = [self.set_of(facet & keep_mask) for facet in self.facet_masks]
        return SimplicialComplex(new_vertices, faces)

    def loops(self):
        """Vertices that belong to no face."""
        support = 0
        for facet in self.facet_masks:
            support |= facet
        return self.set_of(self.full_mask & ~support)

    def proper_part(self):
        """Restriction to the non-loop vertices, plus the removed loops."""
        removed = self.loops()
        if len(removed) == len(self.vertices):
            raise AllLoops("every vertex is a loop")
        keep = [v for v in self.vertices if v not in removed]
        return self.restriction(keep), removed

    # -- predicates --------------------------------------------------------

    def exchange_violation(self):
        """A pair (I, J) of faces with |I| = |J|+1 violating the matroid
        exchange property, or None.  Scanned in (size, vertex-order) order."""
        by_size = {}
        for m in sorted(self.face_masks, key=_mask_sort_key):
            by_size.setdefault(m.bit_count(), []).append(m)
        face_set = self.face_masks
        for size, js in sorted(by_size.items()):
            bigger = by_size.get(size + 1, ())
            for j in js:
                for i in bigger:
                    if not any(
                        (j | (1 << v)) in face_set for v in bit_indices(i & ~j)
                    ):
                        return self.set_of(i), self.set_of(j)
        return None

    @cached_property
    def is_matroid(self):
        return self.exchange_violation() is None

    # -- isomorphism -------------------------------------------------------

    @cached_property
    def _vertex_invariants(self):
        return tuple(
            tuple(sorted(f.bit_count() for f in self.facet_masks if (f >> i) & 1))
            for i in range(len(self.vertices))
        )

    def isomorphism(self, other):
        """A vertex bijection mapping faces onto faces, or None."""
        n = len(self.vertices)
        if n != len(other.vertices):
            return None
        if sorted(m.bit_count() for m in self.facet_masks) != sorted(
            m.bit_count() for m in other.facet_masks
        ):
            return None
        mine, theirs = self._vertex_invariants, other._vertex_invariants
        if sorted(mine) != sorted(theirs):
            return None
        target = set(other.facet_masks)
        mapping = [None] * n
        used = [False] * n

        def remapped_ok():
            got = set()
            for facet in self.facet_masks:
                m = 0
                for i in bit_indices(facet):
                    m |= 1 << mapping[i]
                got.add(m)
            return got == target

        def extend(i):
            if i == n:
                return remapped_ok()
            for j in range(n):
                if used[j] or theirs[j] != mine[i]:
                    continue
                mapping[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                used[j] = False
                mapping[i] = None
            return False

        if extend(0):
            return ComplexIso(tuple(mapping))
        return None

    def is_isomorphic(self, other):
        return self.isomorphism(other) is not None


class FlatClosure:
    """Closure operator on vertex masks whose closed sets are the flats.

    A set X is a flat iff it respects every implication N - p -> p, for N a
    minimal non-face and p in N, so cl(X) is the least superset of X that
    respects them all.  They come from the facets alone: ext[I], the union
    of the facets containing the face I, leaves bad(I) = V - ext[I], the
    vertices p with I + p not a face, and I + p is a minimal non-face iff p
    lies in bad(I) but in no bad(I - v).  Implications sharing a premise are
    stored as one, and closures are memoized.
    """

    def __init__(self, facet_masks, n):
        self._full = full = (1 << n) - 1
        # bit k of premises[v] (concluders[v]) is set when the premise
        # (conclusion) of the k-th implication contains v
        self._premises = [0] * n
        self._concluders = [0] * n
        self._conclusions = []
        by_size = {}
        for facet in facet_masks:
            by_size.setdefault(facet.bit_count(), []).append(facet)
        # level maps the faces of one size to their ext; each face passes its
        # ext on to the faces one smaller, so every face is visited once
        level = {}
        for size in range(max(by_size), -1, -1):
            level.update((facet, facet) for facet in by_size.get(size, ()))
            below = {}
            for face, ext in level.items():
                rest = face
                while rest:
                    low = rest & -rest
                    below[face ^ low] = below.get(face ^ low, 0) | ext
                    rest ^= low
            for face, ext in level.items():
                adds = full & ~ext
                rest = face
                while rest and adds:
                    low = rest & -rest
                    adds &= below[face ^ low]
                    rest ^= low
                if adds:
                    bit = 1 << len(self._conclusions)
                    for v in bit_indices(face):
                        self._premises[v] |= bit
                    for v in bit_indices(adds):
                        self._concluders[v] |= bit
                    self._conclusions.append(adds)
            level = below
        self._cache = {}

    def __call__(self, mask):
        got = self._cache.get(mask)
        if got is None:
            got = mask
            while True:
                # an implication still adds to the set when a vertex of its
                # conclusion is missing from it and none of its premise is
                blocked = useful = 0
                for v in bit_indices(self._full & ~got):
                    blocked |= self._premises[v]
                    useful |= self._concluders[v]
                ready = useful & ~blocked
                if not ready:
                    break
                for k in bit_indices(ready):
                    got |= self._conclusions[k]
            self._cache[mask] = got
        return got

    @cached_property
    def flat_masks(self):
        """Every closed set by NextClosure, sorted by size then vertex order."""
        return tuple(
            sorted(next_closure(self, self._full.bit_length()), key=_mask_sort_key)
        )


def _mask_sort_key(mask):
    return (mask.bit_count(), tuple(bit_indices(mask)))


def from_faces(vertices, faces):
    """Build a complex from any family of faces.

    The face family is the downward closure of the input plus the empty set;
    only the maximal faces are stored.  Unknown vertex labels raise.
    """
    return SimplicialComplex(vertices, faces)
