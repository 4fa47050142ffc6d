"""Expected answers that do not come from the code under test.

Values here are either frozen (published counts, the frozen census), closed
formulas for known families, or the result of a separate small
implementation over the benchmark's own index-based structures.
"""

from __future__ import annotations

import itertools
from math import comb

from inputs import components, set_partitions

# OEIS A006966: lattices on n = 1..8 unlabeled elements (Heitzig & Reinhold,
# "Counting finite lattices", Algebra Universalis 48, 2002)
A006966 = (1, 1, 1, 2, 5, 15, 53, 222)
# the census frozen in ROADMAP.md for n = 1..8
CENSUS_ATOMISTIC = (1, 1, 0, 1, 1, 2, 4, 9)
CENSUS_REALIZABLE = (1, 1, 0, 1, 1, 1, 2, 4)


def mask(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits(m):
    return [i for i in range(m.bit_length()) if (m >> i) & 1]


# -- closed formulas ---------------------------------------------------------


def uniform_flat_count(k, n):
    """U(k,n) has every set of size < k as a flat, plus the ground set."""
    return sum(comb(n, i) for i in range(k)) + 1


def uniform_closure(k, n, x):
    return x if x.bit_count() < k else (1 << n) - 1


def graphic_flat_count(vertices, edges):
    """Flats of a graphic matroid are the partitions with connected blocks."""
    count = 0
    for blocks in set_partitions(list(range(vertices))):
        if all(
            len(components(len(b), _induced(b, edges))) == 1 for b in blocks
        ):
            count += 1
    return count


def graphic_closure(vertices, edges, x):
    """Edges whose ends lie in one component of the edge set x."""
    comp = {}
    for k, group in enumerate(components(vertices, [edges[i] for i in bits(x)])):
        for v in group:
            comp[v] = k
    return mask(i for i, (a, b) in enumerate(edges) if comp[a] == comp[b])


def _induced(block, edges):
    pos = {v: i for i, v in enumerate(block)}
    return [(pos[a], pos[b]) for a, b in edges if a in pos and b in pos]


def supercliques(vertices, edges):
    """Maximal cliques of size >= 2 that no outside vertex meets twice.

    An outside vertex adjacent to two members of a superclique is ruled out,
    so every superclique is a maximal clique; Bron-Kerbosch lists those.
    """
    adj = [0] * vertices
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    found = []

    def expand(r, p, x):
        if not p and not x:
            found.append(r)
            return
        for v in bits(p):
            expand(r | (1 << v), p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, (1 << vertices) - 1, 0)
    out = []
    for w in found:
        if w.bit_count() < 2:
            continue
        outside = ((1 << vertices) - 1) & ~w
        if all((adj[c] & w).bit_count() < 2 for c in bits(outside)):
            out.append(w)
    return sorted(out, key=lambda m: (m.bit_count(), bits(m)))


# -- a separate small implementation for complexes of low dimension ----------


class SmallComplex:
    """Flats, closure and the decision procedures by their definitions.

    Meant for complexes whose faces have at most a few vertices: faces are
    listed explicitly and the closure of X is the least superset of X that
    contains every vertex a face inside it cannot be extended by.
    """

    def __init__(self, n, facets):
        self.n = n
        self.full = (1 << n) - 1
        faces = {0}
        for f in facets:
            for r in range(len(f) + 1):
                faces.update(mask(c) for c in itertools.combinations(f, r))
        self.faces = faces
        self.order = sorted(faces, key=lambda m: (m.bit_count(), bits(m)))
        self.bad = {
            f: mask(p for p in range(n) if not (f >> p) & 1 and f | (1 << p) not in faces)
            for f in faces
        }
        self.top = max(f.bit_count() for f in faces)

    def closure(self, x):
        while True:
            grown = x
            for r in range(self.top + 1):
                for c in itertools.combinations(bits(x), r):
                    face = mask(c)
                    if face in self.faces:
                        grown |= self.bad[face]
                if grown == self.full:
                    return grown
            if grown == x:
                return x
            x = grown

    def flats(self):
        """All flats, by Ganter's NextClosure in lectic order."""
        a = self.closure(0)
        out = [a]
        while a != self.full:
            for i in reversed(range(self.n)):
                if (a >> i) & 1:
                    continue
                low = a & ((1 << i) - 1)
                b = self.closure(low | (1 << i))
                if b & ~a & ((1 << i) - 1) == 0:
                    a = b
                    out.append(a)
                    break
        return out

    def is_transversal(self, face):
        """Some ordering picks each vertex outside the closure of its prefix."""
        dead = set()

        def extend(s):
            if s == face:
                return True
            if s in dead:
                return False
            cl = self.closure(s)
            if any(extend(s | (1 << v)) for v in bits(face & ~s) if not (cl >> v) & 1):
                return True
            dead.add(s)
            return False

        return extend(0)

    def br_violation(self):
        return next((f for f in self.order if not self.is_transversal(f)), None)

    def exchange_violation(self):
        for j in self.order:
            for i in self.order:
                if i.bit_count() != j.bit_count() + 1:
                    continue
                if not any(j | (1 << v) in self.faces for v in bits(i & ~j)):
                    return i, j
        return None

    def same_closure_classes(self):
        classes = {}
        for v in range(self.n):
            classes.setdefault(self.closure(1 << v), []).append(v)
        return sorted((mask(c) for c in classes.values()), key=lambda m: bits(m))

    def loops(self):
        return self.full & ~mask(v for v in range(self.n) if (1 << v) in self.faces)
