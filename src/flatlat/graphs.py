"""Simple graphs and the superclique criterion.

For an atomistic lattice of height 3, being a lattice of flats is equivalent
to its atom graph (edges between atoms joining to the top) having no
superclique: a clique of size at least two such that every outside vertex is
adjacent to at most one of its members.
"""

from __future__ import annotations

from functools import cached_property

from ._util import GroundSet, bit_indices, check_limit, mask_sort_key
from .errors import WrongHeight

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

    def has_edge(self, a, b):
        return bool((self._adj[self._vertex(a)] >> self._vertex(b)) & 1)

    def neighbors(self, label):
        return self.set_of(self._adj[self._vertex(label)])

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


def is_superclique(graph, vertices):
    """Clique of size >= 2 whose every outside vertex misses at least one
    member of each pair inside."""
    return _is_superclique_mask(graph, graph.mask_of(vertices))


def edge_closure(graph, a, b, order=None):
    """Grow {a, b} by outside vertices adjacent to two members until stable.

    The result does not depend on the insertion order (each eligible vertex
    stays eligible as the set grows); order only fixes the scan sequence.
    """
    if not graph.has_edge(a, b):
        raise ValueError(f"{a!r} and {b!r} are not adjacent")
    if order is None:
        scan = range(len(graph.vertices))
    else:
        scan = [graph._vertex(lab) for lab in order]
    current = graph.mask_of((a, b))
    grown = True
    while grown:
        grown = False
        for v in scan:
            if (current >> v) & 1:
                continue
            if (graph._adj[v] & current).bit_count() >= 2:
                current |= 1 << v
                grown = True
                break
    return graph.set_of(current)


def find_supercliques(graph):
    """Every superclique, via the edge-closure growth.

    Each superclique contains an edge whose closure reproduces it, and a
    closure is a superclique exactly when it is a clique, so growing every
    edge and keeping the cliques finds them all.
    """
    found = set()
    for a, b in graph.edges:
        closed = graph.mask_of(edge_closure(graph, a, b))
        if _is_clique(graph, closed):
            found.add(closed)
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


def realizable_height3(lattice):
    """Atomistic with no superclique in the atom graph; witness on failure."""
    if lattice.height != 3:
        raise WrongHeight(
            f"criterion applies to height 3 only, lattice has height {lattice.height}"
        )
    if lattice.atomistic_violation() is not None:
        return False, None
    cliques = find_supercliques(top_join_graph(lattice))
    if cliques:
        return False, cliques[0]
    return True, None
