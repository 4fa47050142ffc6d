"""Small bitmask helpers used by the enumeration kernels.

Vertex and element sets are stored as int bitmasks throughout the package;
these helpers keep the loops readable.  GroundSet is the one place where
vertex labels turn into bitmasks and back, and find_isomorphism is the one
isomorphism search, for lattices and complexes alike.
"""

import heapq
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


def submasks(mask):
    """Yield every submask of mask (including mask and 0), descending."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def maximal_masks(masks):
    """Subset-maximal members of a collection of bitmasks, deduplicated.

    Masks are visited by decreasing size, so a mask is dominated iff some
    mask kept so far contains it.  holders[v] has bit k set when the k-th
    kept mask contains vertex v; the AND of the holders of a mask's vertices
    is the set of kept masks containing it.
    """
    ordered = sorted(set(masks), key=int.bit_count, reverse=True)
    holders = [0] * max((m.bit_length() for m in ordered), default=0)
    out = []
    for m in ordered:
        common = (1 << len(out)) - 1
        rest = m
        while rest and common:
            low = rest & -rest
            common &= holders[low.bit_length() - 1]
            rest ^= low
        if common:
            continue
        bit = 1 << len(out)
        for v in bit_indices(m):
            holders[v] |= bit
        out.append(m)
    return out


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
# bit i of into[j] are set when i -> j.


def refine(out, into, colours):
    """Colour refinement (1-dimensional Weisfeiler-Leman) to its fixpoint.

    A node's next colour ranks its colour with the sorted colours of its
    successors and predecessors (at first: whether it relates to itself and
    how many of each it has), so colours depend on the structure alone and
    are comparable across relations refined as one disjoint union.
    """
    succ = [list(bit_indices(row)) for row in out]
    pred = [list(bit_indices(row)) for row in into]
    sig = [
        (c, out[i] >> i & 1, len(succ[i]), len(pred[i])) for i, c in enumerate(colours)
    ]
    classes = 0
    while True:
        rank = {s: k for k, s in enumerate(sorted(set(sig)))}
        colour = [rank[s] for s in sig]
        if len(rank) == classes:
            return colour
        classes, get = len(rank), colour.__getitem__
        sig = [
            (c, tuple(sorted(map(get, s))), tuple(sorted(map(get, p))))
            for c, s, p in zip(colour, succ, pred)
        ]


def _degrees(relation):
    """The sorted (colour, out-degree, in-degree) triples of the nodes."""
    out, into, colours = relation
    return sorted(zip(colours, map(int.bit_count, out), map(int.bit_count, into)))


def find_isomorphism(a, b):
    """A colour-keeping bijection m with i -> j in a iff m[i] -> m[j] in b,
    as a tuple, or None; a and b are (out, into, colours).

    After refining a and b as one, the nodes of a are placed without
    recursion, fewest possible images first (nodes of its colour relating
    to each placed neighbour as it does): the search grows from placed
    nodes like a breadth-first search, but settles a facet's vertices
    before it moves on.  A candidate image is the AND of the right
    neighbourhoods of the images of the node's placed neighbours.  No more
    is checked: a refined colour fixes a node's loop and out-degree, so a
    and b have equally many pairs i -> j, and a bijection that keeps every
    pair of a reaches every pair of b.
    """
    (out_a, in_a, col_a), (out_b, in_b, col_b) = a, b
    if _degrees(a) != _degrees(b):
        return None  # an isomorphism keeps colours and degrees
    n = len(out_a)
    colours = refine(
        [*out_a, *(row << n for row in out_b)],
        [*in_a, *(row << n for row in in_b)],
        [*col_a, *col_b],
    )
    members = {}  # colour -> its nodes, those of b shifted up by n
    for i, c in enumerate(colours):
        members[c] = members.get(c, 0) | 1 << i
    full = (1 << n) - 1  # a and b need as many nodes of each colour
    if any(m.bit_count() != 2 * (m & full).bit_count() for m in members.values()):
        return None
    domain = [members[c] & full for c in colours[:n]]
    heap = sorted((d.bit_count(), u) for u, d in enumerate(domain))
    plan, placed = [], 0
    while heap:
        size, u = heapq.heappop(heap)
        if placed >> u & 1 or size != domain[u].bit_count():
            continue
        outs = list(bit_indices(out_a[u] & placed))
        ins = list(bit_indices(in_a[u] & placed))
        plan.append((u, members[colours[u]] >> n, outs, ins))
        placed |= 1 << u
        for row in (out_a[u], in_a[u]):
            for v in bit_indices(row & ~placed):
                domain[v] &= row
                heapq.heappush(heap, (domain[v].bit_count(), v))

    # stack[t]: the untried candidates of the t-th node, None before its first
    image, used, stack = [0] * n, 0, [None]
    while stack:
        t = len(stack) - 1
        u, cand, outs, ins = plan[t]
        if stack[t] is None:
            for s in outs:
                cand &= in_b[image[s]]
            for s in ins:
                cand &= out_b[image[s]]
            cand &= ~used
        else:
            cand = stack[t]
            used ^= 1 << image[u]
        if not cand:
            stack.pop()
            continue
        low = cand & -cand
        stack[t], image[u], used = cand ^ low, low.bit_length() - 1, used | low
        if t + 1 == n:
            return tuple(image)
        stack.append(None)
    return None
