"""Abstract simplicial complexes over a labeled ground set.

A complex is stored by its facets (the subset-maximal faces); the empty set
is always a face, and vertices contained in no face are loops.  Faces are
bitmasks internally, frozensets of labels at the API surface.
"""

from __future__ import annotations

from functools import cached_property

from ._util import (
    GroundSet, IndexMap, bit_indices, closed_sets, columns, common,
    find_isomorphism, mask_sort_key, maximal_masks,
)
from .errors import ConstructionMismatch, EmptyRestriction


class SimplicialComplex(GroundSet):
    # the minimal non-faces, when the construction of the complex lists them
    _nonface_masks = None

    def __init__(self, vertices, faces=()):
        super().__init__(vertices)
        if not self.vertices:
            raise ValueError("vertex set must be nonempty")
        masks = [self.mask_of(face) for face in faces]
        masks.append(0)
        self.facet_masks = tuple(sorted(maximal_masks(masks)))

    @classmethod
    def _from_facet_masks(cls, vertices, masks, nonface_masks=None):
        """The complex whose facets are the given masks, taken as they are:
        they must be nonempty and pairwise incomparable, or the one mask 0.

        A construction that knows the minimal non-faces passes them as
        nonface_masks; flat_closure then closes by them, once they are
        certified against the facets, instead of walking every face.
        """
        complex_ = cls.__new__(cls)
        GroundSet.__init__(complex_, vertices)
        complex_.facet_masks = tuple(sorted(masks))
        if nonface_masks is not None:
            complex_._nonface_masks = tuple(nonface_masks)
        return complex_

    @cached_property
    def facets(self):
        return tuple(self.set_of(m) for m in self.facet_masks)

    @cached_property
    def _ext_levels(self):
        """The complex's one face walk: levels[k] maps each face of size k
        to its ext, the union of the facets that contain it (the function
        _ext_levels)."""
        return _ext_levels(self.facet_masks)

    @cached_property
    def face_masks(self):
        """Every face as a bitmask, read off the one walk over the faces
        (_ext_levels).  Exponential in facet size; desk scale only."""
        return frozenset().union(*self._ext_levels)

    @cached_property
    def flat_closure(self):
        """The closure operator whose closed sets are the flats.

        A complex given by its facets closes by the implications its face
        walk (_ext_levels) derives; a construction that listed its minimal
        non-faces closes by those, once they are certified.
        """
        n = len(self.vertices)
        if self._nonface_masks is None:
            return FlatClosure(dict(_facet_implications(self._ext_levels, n)), n)
        return self._certified_closure()

    def _certified_closure(self):
        """FlatClosure by the minimal non-faces a construction listed, once
        they are certified against the facets; raises ConstructionMismatch
        when they fail.

        (a) No facet holds a listed N, and (b) each N - p lies in a facet,
        so each N is a minimal non-face, and each implication N - p -> p
        holds on every flat: a flat holding the face N - p but not p would
        make N a face.  So every flat is closed.  The same walk over the
        pairs (N, p) merges the implications sharing a premise into one,
        as _facet_implications groups them, and each premise is tested
        only when first met, as the AND of the columns (_util.columns) of
        its vertices (_util.common); N is tested after its premises.

        (c) Each meet-irreducible closed set P is a flat: every maximal
        trace T = F & P of a facet F extends by each vertex outside P,
        which holds when the facets with trace T cover the outside.  Every
        closed set is the intersection of the meet-irreducible ones above
        it and the ground set, and flats are closed under intersection, so
        every closed set is a flat.  P is meet-irreducible when the closed
        sets strictly above it have a least one: when its up-set
        (FlatClosure.flat_up_sets) less its lowest bit, P itself, is some
        closed set's up-set, as _set_relation finds join-irreducibles.

        The facets are grouped by their trace on each P as {trace: union
        of the facets with that trace}, P taken from the largest down.  A
        trace on P is a trace on any Q above P cut down to P, so P's
        grouping is made from the smallest one already made for a Q above
        it, or from the facets themselves.  Iterating a grouping meets the
        traces in the order of their first facets, and cutting it down
        keeps that order, so the checks, run from the smallest P up, report
        the same first failing trace as one pass over the facets per P
        would.  When P has fewer subsets than that grouping has entries,
        the facets are split instead by the columns of P's vertices: each
        part is one trace, its union the vertices whose column meets it,
        and the parts go in the order of their lowest facets.
        """
        n, facets = len(self.vertices), self.facet_masks
        full = self.full_mask
        shown = self._shown
        holders = columns(facets, n)
        merged = {}  # N - p -> the OR of its p, tested when first met
        get = merged.get
        for nonface in self._nonface_masks:
            rest = nonface
            while rest:
                low = rest & -rest
                rest ^= low
                premise = nonface ^ low
                if premise not in merged and not common(holders, premise):
                    raise ConstructionMismatch(
                        f"listed non-face {shown(nonface)} is not minimal: "
                        f"{shown(premise)} lies in no facet"
                    )
                merged[premise] = get(premise, 0) | low
            if common(holders, nonface):
                raise ConstructionMismatch(
                    f"listed non-face {shown(nonface)} lies in a facet"
                )
        closure = FlatClosure(merged, n)
        up = closure.flat_up_sets
        ups = set(up)
        irreducible = [p for p, u in zip(closure.flat_masks, up) if u & (u - 1) in ups]
        everyone = (1 << len(facets)) - 1
        grouped = {}  # P -> {trace on P: the union of the facets with it}
        for p in reversed(irreducible):
            size, source = min(
                ((len(ext), ext.items()) for q, ext in grouped.items() if not p & ~q),
                key=lambda made: made[0],
                default=(len(facets), zip(facets, facets)),
            )
            if 1 << p.bit_count() < size:
                parts = [(everyone, 0)]  # facet indices, their trace
                rest = p
                while rest:
                    low = rest & -rest
                    rest ^= low
                    column = holders[low.bit_length() - 1]
                    split = []
                    for part, trace in parts:
                        inside = part & column
                        if inside:
                            split.append((inside, trace | low))
                        if inside != part:
                            split.append((part ^ inside, trace))
                    parts = split
                parts.sort(key=lambda pair: pair[0] & -pair[0])  # by lowest facet
                around = [(1 << v, holders[v]) for v in range(n) if not p >> v & 1]
                ext = {
                    trace: trace | sum(bit for bit, column in around if column & part)
                    for part, trace in parts
                }
            else:
                ext = {}
                get = ext.get
                for trace, covered in source:
                    trace &= p
                    ext[trace] = get(trace, 0) | covered
            grouped[p] = ext
        for p in irreducible:
            ext = grouped[p]
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

    def _shown(self, mask):
        return "{" + ",".join(self.vertices[i] for i in bit_indices(mask)) + "}"

    @cached_property
    def faces(self):
        """All faces as label sets, sorted by size then vertex order."""
        ordered = sorted(self.face_masks, key=mask_sort_key)
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
        new_vertices = [self.vertices[i] for i in bit_indices(keep_mask)]
        faces = [self.set_of(facet & keep_mask) for facet in self.facet_masks]
        return SimplicialComplex(new_vertices, faces)

    def loops(self):
        """Vertices that belong to no face."""
        support = 0
        for facet in self.facet_masks:
            support |= facet
        return self.set_of(self.full_mask & ~support)

    # -- predicates --------------------------------------------------------

    def exchange_violation(self):
        """A pair (I, J) of faces with |I| = |J|+1 violating the matroid
        exchange property, or None.  Scanned in (size, vertex-order) order.

        J + v is a face for v outside J iff v lies in ext[J], the union of
        the facets containing J, so I violates exchange with J iff I misses
        ext[J] - J.  The levels of the face walk (_ext_levels) are read in
        pairs from the smallest up, and the first with a violation decides.

        A violating I lies inside J + (V - ext[J]) and is one larger than
        J, so a J whose ext misses at most one vertex is skipped: with
        V - ext[J] empty no such I exists, and with V - ext[J] = {u} it can
        only be J + u, which is not a face.  A level whose J are all skipped
        builds nothing.  On the others, the faces I one larger than J that
        miss ext[J] - J are the AND (_util.common) of the complements of the
        columns (_util.columns) of its vertices; a facet J has ext[J] - J
        empty, and every I misses it.  The violation returned is its least
        J by mask_sort_key, then the least I missing ext[J] - J.
        """
        n = len(self.vertices)
        full = self.full_mask
        levels = self._ext_levels
        for below, level in zip(levels, levels[1:]):
            # an ext that misses at most one vertex leaves no violating I
            asked = [
                (j, ext) for j, ext in below.items()
                if (outside := full & ~ext) & (outside - 1)
            ]
            if not asked:
                continue
            bigger = list(level)
            everyone = (1 << len(bigger)) - 1
            # bit k of avoid[v]: bigger[k] misses v
            avoid = [everyone ^ column for column in columns(bigger, n)]
            hits = {}
            for j, ext in asked:
                # common gives -1 for a facet J, whose ext - J is empty
                missing = common(avoid, ext & ~j) & everyone
                if missing:
                    hits[j] = missing
            if hits:
                j = min(hits, key=mask_sort_key)
                i = min((bigger[k] for k in bit_indices(hits[j])), key=mask_sort_key)
                return self.set_of(i), self.set_of(j)
        return None

    @cached_property
    def is_matroid(self):
        return self.exchange_violation() is None

    # -- isomorphism -------------------------------------------------------

    def isomorphism(self, other):
        """A vertex bijection mapping faces onto faces, as an IndexMap of
        vertex indices, or None."""
        mapping = find_isomorphism(self._incidence, other._incidence)
        return None if mapping is None else IndexMap(mapping[: len(self.vertices)])

    @cached_property
    def _incidence(self):
        """Vertices (colour 0), then facets (colour 1), as find_isomorphism
        takes them: the vertex i -> the k-th facet when i lies in it, so a
        vertex's row is its column of the facets, shifted past the vertices,
        and a facet's is its mask."""
        n, facets = len(self.vertices), self.facet_masks
        up = [col << n for col in columns(facets, n)] + [0] * len(facets)
        down = [0] * n + list(facets)
        return up, down, [0] * n + [1] * len(facets)


class ByteTable(dict):
    """The OR of the columns a byte picks, for up to 8 columns, each entry
    made on first use from the entry without the byte's lowest bit."""

    __slots__ = ("_columns",)

    def __init__(self, cols):
        super().__init__({0: 0})
        self._columns = cols

    def __missing__(self, byte):
        low = byte & -byte
        self[byte] = got = self[byte ^ low] | self._columns[low.bit_length() - 1]
        return got


class FlatClosure(dict):
    """Closure operator on vertex masks given by implications, and its own
    memo: indexing it by a mask gives the mask's closed set, computed by
    __missing__ the first time it is asked for, so a later ask is one
    dict lookup.

    The implications come as premises, a dict from each premise mask to
    its conclusion mask (the conclusions of implications sharing a premise
    ORed into one), and cl(X) is the least superset of X that holds the
    conclusion of every implication whose premise it holds.  The flats of
    a complex are the closed sets of the implications N - p -> p, for N a
    minimal non-face and p in N: they come from the face walk by
    _facet_implications, or from a construction's own list of minimal
    non-faces, merged by premise as they are certified
    (SimplicialComplex._certified_closure).

    A round ORs, over the vertices missing from the set, the implications
    whose premise holds the vertex (blocked) and those whose conclusion
    does (useful); the ready ones, useful but not blocked, are applied.
    The vertices are cut into blocks of 8, and each block keeps a
    ByteTable from a byte of missing vertices to that OR, so a round costs
    one lookup per block of (full - set).to_bytes(width, "little") in place
    of one step per missing vertex.  Each table holds at most 256 entries,
    made as they are first asked for.

    cl(P) holds the premise P and its conclusion, so their union is a
    partial closure of P, a set inside cl(P).  Fast Close-by-One reads it
    to fail a candidate without closing it (flat_masks).

    Once flat_masks is listed, a closure is a lookup and runs no round:
    the AND of the flat_columns of the set's vertices (_util.common) is the
    set of the flats holding it, and its lowest bit is the index of the
    closure.  cl(X) is the flat holding X that lies inside every other flat
    holding X, so every other one is larger, and the flats are sorted by
    size.  The closures Close-by-One asks for while it lists, and any asked
    for before, run the rounds.
    """

    def __init__(self, premises, n):
        super().__init__()
        self._full = (1 << n) - 1
        self._width = (n + 7) >> 3
        self._premises = premises
        self._conclusions = list(premises.values())
        # bit k (bit m + k) of column v is set when the premise (conclusion)
        # of the k-th of the m implications contains v
        self._shift = len(premises)
        cols = columns(list(premises) + self._conclusions, n)
        self._tables = [ByteTable(cols[v : v + 8]) for v in range(0, n, 8)]

    def __missing__(self, mask):
        if "flat_masks" in self.__dict__:  # listed: the first flat holding mask
            holding = common(self.flat_columns, mask)
            got = self.flat_masks[(holding & -holding).bit_length() - 1]
            self[mask] = got
            return got
        full, width, tables = self._full, self._width, self._tables
        shift, conclusions = self._shift, self._conclusions
        got = mask
        while True:
            either = 0
            for table, byte in zip(tables, (full & ~got).to_bytes(width, "little")):
                either |= table[byte]
            # an implication still adds to the set when a vertex of its
            # conclusion is missing from it and none of its premise is
            ready = either >> shift & ~either
            if not ready:
                break
            while ready:
                low = ready & -ready
                got |= conclusions[low.bit_length() - 1]
                ready ^= low
        self[mask] = got
        return got

    @cached_property
    def flat_masks(self):
        """Every closed set by Fast Close-by-One (_util.closed_sets), sorted
        by size then vertex order.

        A candidate whose partial closure by _premises already holds a
        vertex below its new bit outside its parent fails the canonicity
        test as its full closure would, since the full closure holds the
        partial one; it is failed without a closure, and the partial set is
        handed down as its failed closure.  At most one closure per vertex
        is computed for each closed set.

        The sort puts each closure first among the flats that hold its set:
        it lies inside each of the others, so it is smaller than each.  A
        closure asked for after the listing is read off this order.
        """
        return tuple(
            sorted(
                closed_sets(self, self._full.bit_length(), self._premises),
                key=mask_sort_key,
            )
        )

    @cached_property
    def flat_columns(self):
        """The columns (_util.columns) of flat_masks: bit k of column v is
        set when the k-th flat holds v, so the AND of the columns of a
        set's vertices (_util.common) is the set of the flats holding it.
        Built on the first closure asked for after the listing, or for
        flat_up_sets."""
        return columns(self.flat_masks, self._full.bit_length())

    @cached_property
    def flat_up_sets(self):
        """The flats' up-sets, the AND of the flat_columns of each flat's
        vertices: one big-int AND per vertex, not a test per pair.  The
        flats are sorted by size, so the lowest bit of up-set i is i."""
        held, everyone = self.flat_columns, (1 << len(self.flat_masks)) - 1
        return [common(held, flat) & everyone for flat in self.flat_masks]


def _facet_implications(levels, n):
    """Yield (I, bad) for each face I with bad, the vertices p for which
    I + p is a minimal non-face, nonempty; levels are the face walk's
    (_ext_levels), read from the largest faces down.

    ext[I], the union of the facets containing I, leaves V - ext[I], the
    vertices p with I + p not a face, and I + p is a minimal non-face iff p
    lies there but in ext[I - v] for every v in I.
    """
    full = (1 << n) - 1
    for size in range(len(levels) - 1, -1, -1):
        below = levels[size - 1]  # not read at size 0: the empty face has no v
        for face, ext in levels[size].items():
            bad = full & ~ext
            rest = face
            while rest and bad:
                low = rest & -rest
                bad &= below[face ^ low]
                rest ^= low
            if bad:
                yield face, bad


def _ext_levels(facet_masks):
    """The faces of the complex with these facets, walked once: levels[k]
    maps every face of size k to its ext, the union of the facets that
    contain it, for k from 0 to the largest facet size.

    The walk goes from the largest faces down, and each face passes its ext
    on to the faces one smaller, so every face is visited once.  All levels
    are kept, so memory grows with the number of faces.
    """
    by_size = {}
    for facet in facet_masks:
        by_size.setdefault(facet.bit_count(), []).append(facet)
    top = max(by_size)
    levels = [
        {facet: facet for facet in by_size.get(size, ())} for size in range(top + 1)
    ]
    for size in range(top, 0, -1):
        below = levels[size - 1]
        get = below.get
        for face, ext in levels[size].items():
            rest = face
            while rest:
                low = rest & -rest
                below[face ^ low] = get(face ^ low, 0) | ext
                rest ^= low
    return levels

