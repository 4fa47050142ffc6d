"""Small bitmask helpers used by the enumeration kernels.

Vertex and element sets are stored as int bitmasks throughout the package;
these helpers keep the loops readable.
"""


def bit_indices(mask):
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
