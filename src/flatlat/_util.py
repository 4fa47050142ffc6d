"""Small bitmask helpers used by the enumeration kernels.

Vertex and element sets are stored as int bitmasks throughout the package;
these helpers keep the loops readable.  GroundSet is the one place where
vertex labels turn into bitmasks and back.
"""

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
