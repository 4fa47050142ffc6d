"""Simple graphs and the superclique criterion.

For an atomistic lattice of height 3, being a lattice of flats is equivalent
to its atom graph (edges between atoms joining to the top) having no
superclique: a clique of size at least two such that every outside vertex is
adjacent to at most one of its members.  is_realizable applies the criterion
as its height-3 method.
"""

from __future__ import annotations

from functools import cached_property

from ._util import GroundSet, bit_indices, check_limit, mask_sort_key

# the brute-force superclique scan looks at every vertex subset
NAIVE_SUPERCLIQUE_LIMIT = 16


class SimpleGraph(GroundSet):
    """Undirected graph without loops or multiple edges."""

    def __init__(self, vertices, edges=()):
        super().__init__(vertices)
        adj = [0] * len(self.vertices)
        for a, b in edges:
            i, j = self._vertex(a), self._vertex(b)
            if i == j:
                raise ValueError(f"loop edge at {a!r} not allowed")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self._adj = tuple(adj)

    @cached_property
    def edges(self):
        out = []
        for i in range(len(self.vertices)):
            for j in bit_indices(self._adj[i]):
                if j > i:
                    out.append((self.vertices[i], self.vertices[j]))
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._adj == other._adj

    def __hash__(self):
        return hash((self.vertices, self._adj))

    def __repr__(self):
        return f"SimpleGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def top_join_graph(lattice):
    """Graph on the atoms, joining two atoms when their join is the top."""
    atoms = sorted(lattice.atoms)
    labels = [lattice.labels[a] for a in atoms]
    edges = [
        (labels[i], labels[j])
        for i in range(len(atoms))
        for j in range(i + 1, len(atoms))
        if lattice.join(atoms[i], atoms[j]) == lattice.top
    ]
    return SimpleGraph(labels, edges)


def _is_clique(graph, mask):
    for v in bit_indices(mask):
        if (mask ^ (1 << v)) & ~graph._adj[v]:
            return False
    return True


def _is_superclique_mask(graph, mask):
    if mask.bit_count() < 2 or not _is_clique(graph, mask):
        return False
    outside = graph.full_mask & ~mask
    for c in bit_indices(outside):
        if (graph._adj[c] & mask).bit_count() >= 2:
            return False
    return True


def _grow(graph, mask):
    """The least superset of mask holding every vertex adjacent to two of
    its members.  Each round adds every outside vertex with two neighbours
    inside; a vertex that qualifies keeps qualifying as the set grows, so
    the rounds reach the least fixpoint."""
    adj = graph._adj
    while new := sum(
        1 << v
        for v in bit_indices(graph.full_mask & ~mask)
        if (adj[v] & mask).bit_count() >= 2
    ):
        mask |= new
    return mask


def find_supercliques(graph):
    """Every superclique, via the edge-closure growth.

    Each superclique contains an edge whose closure reproduces it, and a
    closure is a superclique exactly when it is a clique, so growing every
    edge, as an index pair read off the adjacency masks, and keeping the
    cliques finds them all.
    """
    grown = {
        _grow(graph, 1 << i | 1 << j)
        for i, row in enumerate(graph._adj)
        for j in bit_indices(row)
        if j > i
    }
    found = [m for m in grown if _is_clique(graph, m)]
    return tuple(graph.set_of(m) for m in sorted(found, key=mask_sort_key))


def supercliques_bruteforce(graph, override=False):
    """Scan every vertex subset against the superclique definition."""
    n = len(graph.vertices)
    check_limit(
        f"naive superclique scan on {n} vertices", n, NAIVE_SUPERCLIQUE_LIMIT, override
    )
    found = [
        mask for mask in range(1 << n) if _is_superclique_mask(graph, mask)
    ]
    return tuple(graph.set_of(m) for m in sorted(found, key=mask_sort_key))
