"""Small bitmask helpers used by the enumeration kernels.

Vertex and element sets are stored as int bitmasks throughout the package;
these helpers keep the loops readable.  GroundSet is the one place where
vertex labels turn into bitmasks and back.  leaves is the one search by
individualization-refinement: lattice._canonical_key takes the least of its
leaf readings (and the enumeration the automorphisms it finds), and
find_isomorphism, for lattices and complexes alike, matches the first leaf
of one relation against the leaves of the other.
"""

import itertools
import sys
from array import array

from .errors import LimitExceeded, UnknownVertex


def bit_indices(mask):
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# swaps the binary digits 0 and 1
_FLIP = str.maketrans("01", "10")


def mask_sort_key(mask):
    """Sort key ordering masks by size, then by their bit indices.

    Of two masks of one size, the one holding the lowest bit where they
    differ comes first; that bit is the first place where their binary
    digits, read from the lowest bit up and flipped, differ, and it reads
    "0" there.  A shorter digit string is a prefix of a longer one only
    when it holds fewer bits, so the strings compare as the index tuples.
    """
    return (mask.bit_count(), bin(mask)[:1:-1].translate(_FLIP))


def maximal_masks(masks):
    """Subset-maximal members of a collection of bitmasks, deduplicated,
    largest first.

    A mask can only lie in a strictly larger one, so the masks are taken a
    size at a time: the largest are all kept, and each later mask is checked
    against the masks kept from the larger sizes.  holders[v] has bit k set
    when the k-th kept mask contains vertex v; the AND of the holders of a
    mask's vertices (common) is the set of kept masks containing it.  The
    holders of a size's kept masks are filled only when a smaller nonempty
    size follows, so masks all of one size cost one sort.
    """
    ordered = sorted(set(masks), key=int.bit_count, reverse=True)
    out, holders, filled = [], [], 0
    for size, group in itertools.groupby(ordered, int.bit_count):
        if not out:  # the largest masks: none holds another of its size
            out.extend(group)
            continue
        if not size:  # the empty mask lies in every kept mask
            break
        if not holders:
            holders = [0] * max(map(int.bit_length, ordered))
        for k in range(filled, len(out)):
            bit, rest = 1 << k, out[k]
            while rest:
                low = rest & -rest
                holders[low.bit_length() - 1] |= bit
                rest ^= low
        filled = len(out)
        out.extend(m for m in group if not common(holders, m))
    return out


def common(cols, mask):
    """The AND of cols[v] over the bits v of mask, -1 for the empty mask;
    it stops once the AND is 0.  Over columns(masks, n) it is the set of
    the masks that contain mask."""
    got = -1
    while mask and got:
        low = mask & -mask
        got &= cols[low.bit_length() - 1]
        mask ^= low
    return got


# _BIT_CHAR[k] maps each byte to the digit "0" or "1" of its bit k
_BIT_CHAR = [bytes(48 + (b >> k & 1) for b in range(256)) for k in range(8)]


def columns(masks, n):
    """The transpose of a list of masks over n bits: for each v < n, the int
    whose bit k is set when the k-th mask contains v.  The AND of the
    columns of a set's bits (common) is the set of masks that contain it.

    The masks are written out as bytes once, last mask first and each
    big-endian: masks of at most 64 bits by one array("Q", masks) call,
    wider ones one int.to_bytes call each.  Each column is then a slice
    that reads its binary digits from the highest mask down, translated
    from bytes into digits, all in C.
    """
    if n <= 64:
        words = array("Q", masks)
        words.reverse()
        if sys.byteorder == "little":
            words.byteswap()
        data, width = words.tobytes(), 8
    else:
        width = (n + 7) >> 3
        data = b"".join(
            map(int.to_bytes, reversed(masks), itertools.repeat(width), itertools.repeat("big"))
        )
    return [
        int(data[width - 1 - (v >> 3) :: width].translate(_BIT_CHAR[v & 7]) or b"0", 2)
        for v in range(n)
    ]


def closed_sets(closure, n, premises):
    """Yield every closed set of a closure operator on n bits, each once.

    Fast Close-by-One (Outrata & Vychodil 2012, Information Sciences 185),
    depth first from an explicit stack.  closure is indexed by a mask for
    its closed set, and premises maps masks to sets that their closures
    hold (for an operator given by implications, the OR of the conclusions
    filed under each premise).  The root is closure[0]; a closed set A
    reached by adding bit j tries A | bit for each absent bit above j
    (every absent bit, at the root), and keeps closure[A | bit] as a child
    when it adds nothing below bit (low = the bits below it), so each
    closed set is reached exactly once.

    Before it closes A | bit, it ORs in premises' set for A | bit.  That
    lies inside closure[A | bit], so when it already holds a vertex below
    bit outside A the candidate fails as its closure would, and no closure
    is computed.  A failed set, closed or partial, is remembered for its
    bit and handed down to the children of A: a descendant D of A holds A,
    so closure[D | bit] holds closure[A | bit] and so the failed set, and
    when that has a vertex below bit that D lacks it fails too, and the bit
    is skipped without a closure.  At most n closures are computed per
    closed set.
    """
    full = (1 << n) - 1
    implied = premises.get
    stack = [(closure[0], 0, [0] * n)]  # a closed set, its first bit, failed sets
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
            c = a | bit
            b = implied(c, 0) | c
            if not b & ~a & low:
                b = closure[c]
                if not b & ~a & low:
                    kept.append((b, j + 1))
                    continue
            if now_failed is failed:
                now_failed = failed.copy()
            now_failed[j] = b
        stack.extend((b, start, now_failed) for b, start in reversed(kept))


class GroundSet:
    """Distinct vertex labels, indexed by position; subsets are bitmasks."""

    def __init__(self, vertices):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("vertex labels must be distinct")
        self.vertices = vertices
        self._index = {v: i for i, v in enumerate(vertices)}

    def mask_of(self, labels):
        m = 0
        for lab in labels:
            i = self._index.get(lab)
            if i is None:
                raise UnknownVertex(f"unknown vertex {lab!r}")
            m |= 1 << i
        return m

    def _vertex(self, label):
        return self.mask_of((label,)).bit_length() - 1

    def set_of(self, mask):
        return frozenset(self.vertices[i] for i in bit_indices(mask))

    @property
    def full_mask(self):
        return (1 << len(self.vertices)) - 1

    def ordered(self, labels):
        """The labels as a list in vertex order."""
        return sorted(labels, key=self._vertex)


def check_limit(what, size, limit, override):
    """Raise LimitExceeded when size is over a soft limit, unless overridden."""
    if size > limit and not override:
        raise LimitExceeded(
            f"{what} exceeds soft limit {limit}; pass override=True to lift"
        )


class IndexMap:
    """A bijection between two indexed sets, as the tuple of images.

    It is immutable and hashable, and iterates over its images through
    __getitem__; it is not itself a tuple, so it equals only an IndexMap.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping):
        object.__setattr__(self, "mapping", mapping)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return IndexMap, (self.mapping,)

    def __getitem__(self, index):
        return self.mapping[index]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mapping == other.mapping

    def __hash__(self):
        return hash(self.mapping)

    def __repr__(self):
        return f"IndexMap(mapping={self.mapping!r})"


# A relation on nodes 0..n-1 is given as the objects hold it, by mask rows:
# bit j of up[i] and bit i of down[j] are set when i -> j.  leaves and
# find_isomorphism take these rows; leaves lists them once, with indices,
# as the successor and predecessor lists that refine walks.


def indices(masks):
    """The bit indices of each mask, as one list per mask."""
    return [list(bit_indices(mask)) for mask in masks]


def refine(succ, pred, colours):
    """Colour refinement (1-dimensional Weisfeiler-Leman) to its fixpoint.

    A node's next colour ranks its colour with the sorted colours of its
    successors and predecessors (at first: how many of each it has), so
    colours depend on the structure alone: an isomorphism that keeps the
    given colours keeps the refined ones.  The result is equitable
    (nodes of one colour have as many successors, and predecessors, of each
    colour), and it only splits the given classes.

    A node alone in its class keeps it whatever its neighbours, so after
    the first round it is signed (c,) alone.  Signatures compare on c
    first and no other node has colour c, so it ranks where the full
    signature would: the colours are the same, not only the classes.
    """
    sig = [(c, len(s), len(p)) for c, s, p in zip(colours, succ, pred)]
    classes = 0
    while True:
        rank = {s: k for k, s in enumerate(sorted(set(sig)))}
        colour = [rank[s] for s in sig]
        if len(rank) in (classes, len(sig)):
            return colour
        classes, get = len(rank), colour.__getitem__
        size = [0] * classes
        for c in colour:
            size[c] += 1
        sig = [
            (c,) if size[c] == 1 else (
                c,
                tuple(sorted(map(get, s))) if s else (),
                tuple(sorted(map(get, p))) if p else (),
            )
            for c, s, p in zip(colour, succ, pred)
        ]


def individualize(colours, node):
    """The colouring with node ranked just below the rest of its class."""
    t = colours[node]
    return [t if i == node else c + (c >= t) for i, c in enumerate(colours)]


def leaves(up, down, colours, autos=None):
    """Yield (reading, order) for each leaf of an individualization-
    refinement search (McKay 1981) over the relation with mask rows up and
    down, from the given colours: order lists the nodes by their discrete
    leaf colours, and reading is the up rows in that order, as masks over
    the new positions.

    The children of a refined colouring individualize each node of its
    first class of several and refine again.  The tree is built from the
    structure alone, so an isomorphism maps the trees of two relations onto
    each other, leaf readings kept.  A leaf that reads like the least one
    so far maps onto it by an automorphism fixing both paths up to their
    split, so the search jumps back there; a node skips the children in the
    orbit of one tried under the automorphisms known that fix its path.
    Every subtree skipped is thus the image of a visited one under an
    automorphism, and its leaves read like visited ones.  autos, when given,
    may hold automorphisms known on entry, as tuples of node images; each
    automorphism found is appended to it.

    Refined colourings are ranks 0..k-1, and individualizing keeps them so:
    a colouring is discrete when its largest colour is n - 1, and its
    order is then its inverse.  Each frame holds a colouring, the nodes of
    its first class of several (its cell) and the children tried.  path is
    the way from the root to the node at hand, the child tried last in each
    frame on it, pushed and popped with the frames.
    """
    n, succ, pred = len(up), indices(up), indices(down)
    frames = []  # the colourings not discrete on the path, outermost first
    path = []
    best = None  # the least leaf so far: its reading, order and path
    if autos is None:
        autos = []
    colours = refine(succ, pred, colours)
    while True:  # colours is the node that path reaches
        if max(colours, default=-1) == n - 1:  # a leaf
            order = [0] * n
            for v, c in enumerate(colours):
                order[c] = v
            bit = [1 << c for c in colours].__getitem__
            reading = tuple(sum(map(bit, succ[i])) for i in order)
            yield reading, order
            if best and reading == best[0]:
                autos.append(tuple(map(best[1].__getitem__, colours)))
                split = next(k for k, (v, x) in enumerate(zip(path, best[2])) if v != x)
                del frames[split + 1 :], path[split:]
            else:
                if best is None or reading < best[0]:
                    best = reading, order, path.copy()
                del path[-1:]
        else:  # a new frame, its cell the first class of several
            side = sorted(colours)
            t = next(c for c, d in zip(side, side[1:]) if c == d)
            frames.append((colours, [v for v, c in enumerate(colours) if c == t], []))
        while frames:  # the top frame's next child, popping frames without one
            colours, cell, tried = frames[-1]
            fixing = [g for g in autos if all(g[v] == v for v in path)]
            done = set(tried)  # grown to the orbits of the children tried
            if fixing:
                while len(done) < len(grown := done | {g[v] for g in fixing for v in done}):
                    done = grown
            w = next((v for v in cell if v not in done), None)
            if w is not None:
                break
            frames.pop()
            del path[-1:]
        else:
            return
        tried.append(w)
        path.append(w)
        colours = individualize(colours, w)
        if max(colours) < n - 1:  # a discrete colouring is refined
            colours = refine(succ, pred, colours)


def _degrees(relation):
    """The sorted (colour, out-degree, in-degree) triples of the nodes."""
    up, down, colours = relation
    return sorted(zip(colours, map(int.bit_count, up), map(int.bit_count, down)))


def find_isomorphism(a, b):
    """A colour-keeping bijection m with i -> j in a iff m[i] -> m[j] in b,
    as a tuple, or None; a and b are (up, down, colours) with mask rows.

    The first leaf of a's search is matched against the leaves of b's: if
    a and b are isomorphic, some leaf of b reads like it (see leaves), and
    the map takes each node of a's leaf order to the node at the same place
    in b's.  Colours keep their relative order down the tree, so the map
    keeps them once the degree check has matched the colour counts.
    """
    if _degrees(a) != _degrees(b):
        return None  # an isomorphism keeps colours and degrees
    reading, order = next(leaves(*a))
    for other, image in leaves(*b):
        if other == reading:
            return tuple(v for _, v in sorted(zip(order, image)))
    return None
