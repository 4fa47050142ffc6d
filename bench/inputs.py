"""Seeded input structures for the benchmark workloads.

Structures are plain index-based data (set families, facet lists, edge
lists).  The benchmark keeps them, computes its expected answers from them,
and turns them into library objects once per operation with labels that no
other operation uses, so no operation hands the library an input equal to one
it has seen before in the same process.
"""

from __future__ import annotations

import itertools
from pathlib import Path


class Labels:
    """Label factory: every call to ``tag`` yields a prefix used by one op."""

    def __init__(self, rng):
        self.salt = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
        self.count = 0

    def tag(self):
        self.count += 1
        return f"{self.salt}{self.count}"


# -- lattices as intersection-closed set families with a top -----------------


def chain_family(k):
    return [frozenset(range(i)) for i in range(k)]


def boolean_family(atoms):
    return [
        frozenset(c)
        for r in range(atoms + 1)
        for c in itertools.combinations(range(atoms), r)
    ]


def partition_family(points):
    """The partition lattice on ``points`` points, as sets of same-block pairs."""
    out = []
    for blocks in set_partitions(list(range(points))):
        out.append(
            frozenset(p for b in blocks for p in itertools.combinations(sorted(b), 2))
        )
    return out


def m_family(atoms):
    """M_n: a bottom, n pairwise incomparable atoms, a top."""
    return [frozenset()] + [frozenset([i]) for i in range(atoms)] + [
        frozenset(range(atoms))
    ]


def nonrealizable6_family():
    """The 6-element atomistic lattice of tests/fixtures/nonrealizable6.lat."""
    return [frozenset(s) for s in ((), (1,), (2,), (3,), (1, 2), (1, 2, 3))]


def random_family(rng, size, ground=5):
    """A seeded intersection-closed family with exactly ``size`` members.

    The ground set is always a member, so the family is a lattice under
    inclusion: meets are intersections and joins exist below the top.
    """
    full = frozenset(range(ground))
    while True:
        family = {full}
        while len(family) < size:
            s = frozenset(x for x in range(ground) if rng.random() < 0.5)
            family |= {s} | {s & f for f in family}
        if len(family) == size:
            return sorted(family, key=lambda s: (len(s), sorted(s)))


def family_order(family):
    return [[1 if a <= b else 0 for b in family] for a in family]


# -- complexes as facet lists over range(n) ----------------------------------


def uniform_facets(k, n):
    return [tuple(c) for c in itertools.combinations(range(n), k)]


def graph_forest_facets(vertices, edges):
    """Facets of the graphic matroid: the maximal forests, over edge indices."""
    rank = vertices - len(components(vertices, edges))
    return [
        c
        for c in itertools.combinations(range(len(edges)), rank)
        if len(components(vertices, [edges[i] for i in c])) == vertices - rank
    ]


def random_graph_edges(rng, vertices, edges):
    pairs = list(itertools.combinations(range(vertices), 2))
    return sorted(rng.sample(pairs, edges))


def random_triple_facets(rng, n, keep=0.85):
    """Every pair, and a random ``keep`` share of the triples (rounded)."""
    triples = list(itertools.combinations(range(n), 3))
    triples = sorted(rng.sample(triples, round(keep * len(triples))))
    covered = {p for t in triples for p in itertools.combinations(t, 2)}
    pairs = [p for p in itertools.combinations(range(n), 2) if p not in covered]
    return triples + pairs


def components(vertices, edges):
    parent = list(range(vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    groups = {}
    for v in range(vertices):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


# -- fixture documents -------------------------------------------------------


def read_complex_fixture(path: Path):
    """(vertex labels, facets as index tuples) from a complex document."""
    vertices, facets = [], []
    for raw in path.read_text().splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "vertices":
            vertices = tokens[1:]
        elif tokens[0] == "facet":
            facets.append(tuple(vertices.index(t) for t in tokens[1:]))
    return vertices, facets
