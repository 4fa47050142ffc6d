"""Small bitmask helpers used by the enumeration kernels.

Vertex and element sets are stored as int bitmasks throughout the package;
these helpers keep the loops readable.  GroundSet is the one place where
vertex labels turn into bitmasks and back.  leaves is the one search by
individualization-refinement: lattice._canonical_key takes the least of its
leaf readings, and find_isomorphism, for lattices and complexes alike,
matches the first leaf of one relation against the leaves of the other.
"""

import itertools
from dataclasses import dataclass

from .errors import LimitExceeded, UnknownVertex


def bit_indices(mask):
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_sort_key(mask):
    """Sort key ordering masks by size, then by their bit indices."""
    return (mask.bit_count(), tuple(bit_indices(mask)))


def maximal_masks(masks):
    """Subset-maximal members of a collection of bitmasks, deduplicated,
    largest first.

    A mask can only lie in a strictly larger one, so the masks are taken a
    size at a time: the largest are all kept, and each later mask is checked
    against the masks kept from the larger sizes.  holders[v] has bit k set
    when the k-th kept mask contains vertex v; the AND of the holders of a
    mask's vertices is the set of kept masks containing it.  The holders of
    a size's kept masks are filled only when a smaller nonempty size
    follows, so masks all of one size cost one sort.
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
        for m in group:
            common = -1
            rest = m
            while rest and common:
                low = rest & -rest
                common &= holders[low.bit_length() - 1]
                rest ^= low
            if not common:
                out.append(m)
    return out


# _BIT_CHAR[k] maps each byte to the digit "0" or "1" of its bit k
_BIT_CHAR = [bytes(48 + (b >> k & 1) for b in range(256)) for k in range(8)]


def columns(masks, n):
    """The transpose of a list of masks over n bits: for each v < n, the int
    whose bit k is set when the k-th mask contains v.  The AND of the
    columns of a set's bits is the set of masks that contain it.

    The masks are written out as bytes once; each column is read off by a
    slice and a byte translation into binary digits, all in C.
    """
    width = (n + 7) >> 3
    data = b"".join(mask.to_bytes(width, "little") for mask in masks)
    return [
        int(data[v >> 3 :: width].translate(_BIT_CHAR[v & 7])[::-1] or b"0", 2)
        for v in range(n)
    ]


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


def byte_tables(cols):
    """One ByteTable per block of 8 columns: the OR of the columns a mask
    picks is the OR of the blocks' entries for the bytes of
    mask.to_bytes(width, "little"), one lookup per block in place of one
    step per set bit.  Each table holds at most 256 entries."""
    return [ByteTable(cols[v : v + 8]) for v in range(0, len(cols), 8)]


def next_closure(closure, n):
    """Yield every closed set of a closure operator on n bits, lectically.

    Ganter's NextClosure: from a closed set A, the next one is
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


@dataclass(frozen=True)
class IndexMap:
    """A bijection between two indexed sets, as the tuple of images."""

    mapping: tuple[int, ...]

    def __getitem__(self, index):
        return self.mapping[index]


# A relation on nodes 0..n-1 is a pair of bitmask lists: bit j of out[i] and
# bit i of into[j] are set when i -> j.  refine takes it as the lists of
# those bits' indices, the successors and predecessors of each node.


def refine(succ, pred, colours):
    """Colour refinement (1-dimensional Weisfeiler-Leman) to its fixpoint.

    A node's next colour ranks its colour with the sorted colours of its
    successors and predecessors (at first: how many of each it has), so
    colours depend on the structure alone: an isomorphism that keeps the
    given colours keeps the refined ones.  The result is equitable
    (nodes of one colour have as many successors, and predecessors, of each
    colour), and it only splits the given classes.
    """
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


def individualize(colours, node):
    """The colouring with node ranked just below the rest of its class."""
    t = colours[node]
    return [t if i == node else c + (c >= t) for i, c in enumerate(colours)]


def leaves(out, into, colours):
    """Yield (reading, order) for each leaf of an individualization-
    refinement search (McKay 1981) over a relation from the given colours:
    order lists the nodes by their discrete leaf colours, and reading is
    out in that order, as masks over the new positions.

    The children of a refined colouring individualize each node of its
    first class of several and refine again.  The tree is built from the
    structure alone, so an isomorphism maps the trees of two relations onto
    each other, leaf readings kept.  A leaf that reads like the least one
    so far maps onto it by an automorphism fixing both paths up to their
    split, so the search jumps back there; a node skips the children in the
    orbit of one tried under the automorphisms found that fix its path.
    Every subtree skipped is thus the image of a visited one under an
    automorphism, and its leaves read like visited ones.
    """
    n = len(out)
    succ, pred = ([list(bit_indices(row)) for row in rows] for rows in (out, into))
    frames = [(refine(succ, pred, colours), [])]  # a colouring, its children tried
    best, autos = None, []
    while frames:
        colours, tried = frames[-1]
        path = [f[1][-1] for f in frames[:-1]]
        if len(set(colours)) == n:  # a leaf: its reading, order and path
            order = sorted(range(n), key=colours.__getitem__)
            bit = [1 << c for c in colours].__getitem__
            leaf = tuple(sum(map(bit, succ[i])) for i in order), order, path
            yield leaf[:2]
            if best and leaf[0] == best[0]:
                autos.append([best[1][c] for c in colours])
                split = next(k for k, (v, x) in enumerate(zip(path, best[2])) if v != x)
                del frames[split + 1 :]
                continue
            best = min(best or leaf, leaf)
            frames.pop()
            continue
        side = sorted(colours)
        t = next(c for c, d in zip(side, side[1:]) if c == d)  # the first class of several
        fixing = [g for g in autos if all(g[v] == v for v in path)]
        done = set(tried)  # grown to the orbits of the children tried
        while len(done) < len(grown := done | {g[v] for g in fixing for v in done}):
            done = grown
        w = next((v for v, c in enumerate(colours) if c == t and v not in done), None)
        if w is None:
            frames.pop()
            continue
        tried.append(w)
        child = individualize(colours, w)
        if len(set(child)) < n:  # a discrete colouring is refined
            child = refine(succ, pred, child)
        frames.append((child, []))


def _degrees(relation):
    """The sorted (colour, out-degree, in-degree) triples of the nodes."""
    out, into, colours = relation
    return sorted(zip(colours, map(int.bit_count, out), map(int.bit_count, into)))


def find_isomorphism(a, b):
    """A colour-keeping bijection m with i -> j in a iff m[i] -> m[j] in b,
    as a tuple, or None; a and b are (out, into, colours).

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
