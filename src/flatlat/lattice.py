"""Finite lattices: validation, structure queries and enumeration.

A lattice is stored as an indexed tuple of element labels together with the
full order relation, as up- and down-set bitmasks; meet and join tables are
computed once at construction time and every query afterwards is table
lookup.  A set of elements has a greatest element g exactly when it is the
down-set of g, so the meet of i and j is the element whose down-set is
down[i] & down[j], one dict lookup per pair (joins likewise with up-sets).
Instances are immutable and hashable, so results of expensive derived
computations are cached on the instance.

Enumeration grows the lattice classes of each size from those one element
smaller by coatom augmentation (McKay-style isomorph-free generation, with
a set of canonical keys per size): each class loses its top and gains a
new coatom, above an admissible down-set, and a new top.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from ._util import IndexMap, bit_indices, check_limit, find_isomorphism, individualize, refine
from .errors import NotALattice, NotAPartialOrder

# Unlabeled-lattice enumeration is doubly exponential in spirit; beyond this
# size the stream stops being interactive.
ENUMERATION_SOFT_LIMIT = 7


class LatticeIso(IndexMap):
    """Order isomorphism between two lattices as an element-index map."""


class FiniteLattice:
    """A finite lattice over an indexed, labeled element set.

    The constructor validates the relation completely: it must be a partial
    order in which every pair has a unique meet and join.  Nothing is ever
    repaired silently; bad input raises NotAPartialOrder or NotALattice.
    """

    def __init__(self, labels, order):
        labels = tuple(labels)
        if not labels:
            raise NotAPartialOrder("element set must be nonempty")
        if len(set(labels)) != len(labels):
            raise ValueError("element labels must be distinct")
        n = len(labels)
        if len(order) != n or any(len(row) != n for row in order):
            raise NotAPartialOrder("order relation must be a square matrix over the elements")

        bits = [1 << j for j in range(n)]
        up = [sum(itertools.compress(bits, row)) for row in order]  # j with i <= j

        for i in range(n):
            if not (up[i] >> i) & 1:
                raise NotAPartialOrder(f"relation is not reflexive at {labels[i]!r}")
        for i in range(n):
            for j in bit_indices(up[i]):
                if j != i and (up[j] >> i) & 1:
                    raise NotAPartialOrder(
                        f"relation is not antisymmetric on {labels[i]!r}, {labels[j]!r}"
                    )
                if up[j] & ~up[i]:
                    raise NotAPartialOrder(
                        f"relation is not transitive at {labels[i]!r} <= {labels[j]!r}"
                    )

        down = [sum(itertools.compress(bits, column)) for column in zip(*order)]

        # In a partial order a set has a greatest element g exactly when it
        # is down[g], and a least element l exactly when it is up[l].
        by_down = {d: i for i, d in enumerate(down)}
        by_up = {u: i for i, u in enumerate(up)}
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for i in range(n):
            down_i, up_i = down[i], up[i]
            for j in range(i, n):
                g = by_down.get(down_i & down[j])
                if g is None:
                    raise NotALattice((labels[i], labels[j]), "meet")
                meet[i][j] = meet[j][i] = g
                l = by_up.get(up_i & up[j])
                if l is None:
                    raise NotALattice((labels[i], labels[j]), "join")
                join[i][j] = join[j][i] = l

        self.labels = labels
        self._up = tuple(up)
        self._down = tuple(down)
        self._meet = tuple(tuple(row) for row in meet)
        self._join = tuple(tuple(row) for row in join)
        self._index = {lab: i for i, lab in enumerate(labels)}
        self.bottom = min(range(n), key=lambda i: down[i].bit_count())
        self.top = max(range(n), key=lambda i: down[i].bit_count())
        assert down[self.bottom] == 1 << self.bottom
        assert up[self.top] == 1 << self.top

    # -- basic queries ---------------------------------------------------

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.labels == other.labels and self._up == other._up

    def __hash__(self):
        return hash((self.labels, self._up))

    def __repr__(self):
        return f"FiniteLattice({len(self)} elements: {' '.join(self.labels)})"

    def label(self, i):
        return self.labels[i]

    def index(self, label):
        return self._index[label]

    def leq(self, i, j):
        return bool((self._up[i] >> j) & 1)

    def lt(self, i, j):
        return i != j and self.leq(i, j)

    def meet(self, i, j):
        return self._meet[i][j]

    def join(self, i, j):
        return self._join[i][j]

    def meet_all(self, elems):
        out = self.top
        for x in elems:
            out = self._meet[out][x]
        return out

    def join_all(self, elems):
        # empty join is the bottom element
        out = self.bottom
        for x in elems:
            out = self._join[out][x]
        return out

    def covers(self, x, y):
        """True iff y covers x: x < y with nothing strictly between."""
        if x == y or not self.leq(x, y):
            return False
        return (self._up[x] & self._down[y]).bit_count() == 2

    @cached_property
    def cover_pairs(self):
        """All pairs (x, y) with y covering x, ordered by index."""
        out = []
        for x in range(len(self)):
            for y in range(len(self)):
                if self.covers(x, y):
                    out.append((x, y))
        return tuple(out)

    @cached_property
    def atoms(self):
        """Covers of the bottom element, as a frozenset of indices: the
        elements with exactly two elements in their down-set."""
        return frozenset(y for y, d in enumerate(self._down) if d.bit_count() == 2)

    @cached_property
    def height(self):
        """Length (number of edges) of a longest chain."""
        n = len(self)
        depth = [0] * n
        # a longest chain has only covers, so any y < x may precede x in it
        for x in sorted(range(n), key=lambda i: self._down[i].bit_count()):
            below = self._down[x] & ~(1 << x)
            depth[x] = max((depth[y] + 1 for y in bit_indices(below)), default=0)
        return depth[self.top]

    def atoms_below(self, x):
        """The set of atoms that lie below x."""
        return frozenset(a for a in self.atoms if self.leq(a, x))

    # -- classification predicates ---------------------------------------

    def atomistic_violation(self):
        """First element that is not the join of the atoms below it, or None."""
        for x in range(len(self)):
            if self.join_all(self.atoms_below(x)) != x:
                return x
        return None

    @cached_property
    def is_atomistic(self):
        return self.atomistic_violation() is None

    @cached_property
    def semimodular_witness(self):
        """A forbidden five-element configuration, or None if semimodular.

        The lattice is semimodular iff it has no sublattice {a,b,c,d,e} with
        e < c < b < a, e < d < a, d covering e in the whole lattice,
        b^d = c^d = e and b v d = c v d = a.  Such a configuration is fixed
        by b, c and d, as e = c^d and a = c v d, and once d covers c^d, any
        b strictly between c and c v d completes one: b v d = a because
        c <= b <= a, and b^d = e because it lies between e and d, which
        covers e, and is not d (else a <= b).  Then c and d are
        incomparable: were c <= d, nothing would lie between c and
        c v d = d, which covers c^d = c.  The one returned has the largest
        (a, b, c, e, d) in element indices, which a scan of a, b, c, e, d
        from the top of the element order down meets first.

        Such c and d are exactly a failure of the cover law
        (is_semimodular_by_covers) at x = d, y = c, so None means exactly
        that the law holds.  The pass reads the tables once per pair.
        """
        up, down, meet, join = self._up, self._down, self._meet, self._join
        n = len(self)

        def configurations():  # with the largest b for each c and d
            for c in range(n):
                for d in range(n):
                    e = meet[c][d]
                    if (up[e] & down[d]).bit_count() != 2:
                        continue  # d does not cover e
                    a = join[c][d]
                    between = up[c] & down[a] & ~(1 << c | 1 << a)
                    if between:
                        yield a, between.bit_length() - 1, c, e, d

        best = max(configurations(), default=None)
        if best is None:
            return None
        a, b, c, e, d = best
        return a, b, c, d, e

    @property
    def is_semimodular(self):
        return self.semimodular_witness is None

    def is_semimodular_by_covers(self):
        """Textbook cover law: x^y covered by x implies y covered by x v y.

        A second definition of semimodularity, beside semimodular_witness.
        """
        n = len(self)
        for x in range(n):
            for y in range(n):
                m = self._meet[x][y]
                if self.covers(m, x) and not self.covers(y, self._join[x][y]):
                    return False
        return True

    @cached_property
    def is_geometric(self):
        return self.is_atomistic and self.is_semimodular

    @cached_property
    def is_boolean(self):
        """True iff the lattice is a powerset lattice of its atoms.

        In an atomistic lattice x -> atoms_below(x) is an injective order
        embedding, so with 2^k elements it is onto the powerset of the atoms.
        """
        return self.is_atomistic and len(self) == 1 << len(self.atoms)

    # -- isomorphism ------------------------------------------------------

    def isomorphism(self, other):
        """An order isomorphism onto other as a LatticeIso, or None."""
        mapping = find_isomorphism(self._relation, other._relation)
        return None if mapping is None else LatticeIso(mapping)

    def is_isomorphic(self, other):
        return self.isomorphism(other) is not None

    @property
    def _relation(self):
        return self._up, self._down, [0] * len(self)

    @cached_property
    def canonical_key(self):
        """Relabeling-invariant fingerprint used to deduplicate lattices.

        The relation, as a tuple of up-set rows, in the element order of the
        best leaf of an individualization-refinement search (_canonical_key):
        keys are equal exactly for isomorphic lattices, and mean nothing else.
        """
        return _canonical_key(self._up, self._down)


def _canonical_key(up, down):
    """The canonical_key of the lattice with these up- and down-set masks.

    Individualization-refinement (McKay 1981): the children of a refined
    colouring individualize each node of its first class of several, and
    the key is the least reading of the relation in a discrete leaf's
    order.  A leaf that reads like the best one maps onto it by an
    automorphism fixing both paths up to their split, so the search jumps
    back there; a node skips the children in the orbit of one tried under
    the automorphisms found that fix its path.
    """
    n = len(up)
    ups, downs = ([list(bit_indices(row)) for row in rows] for rows in (up, down))
    frames = [(refine(ups, downs, [0] * n), [])]  # a colouring, its children tried
    best, autos = None, []
    while frames:
        colours, tried = frames[-1]
        path = [f[1][-1] for f in frames[:-1]]
        if len(set(colours)) == n:  # a leaf: its reading, order and path
            order = sorted(range(n), key=colours.__getitem__)
            bit = [1 << c for c in colours].__getitem__
            leaf = tuple(sum(map(bit, ups[i])) for i in order), order, path
            if best and leaf[0] == best[0]:
                autos.append([best[1][c] for c in colours])
                split = next(k for k, (v, x) in enumerate(zip(path, best[2])) if v != x)
                del frames[split + 1 :]
                continue
            best = min(best or leaf, leaf)
            frames.pop()
            continue
        t = min(c for c in colours if colours.count(c) > 1)  # the first class of several
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
            child = refine(ups, downs, child)
        frames.append((child, []))
    return best[0]


def validate_lattice(order, labels=None):
    """Validate a relation matrix and return the FiniteLattice it defines."""
    if labels is None:
        labels = [str(i) for i in range(len(order))]
    return FiniteLattice(labels, order)


def lattice_from_covers(labels, covers):
    """Build a lattice from generator pairs (lower, upper) of its order.

    The full order is the reflexive-transitive closure of the given pairs;
    the result is validated like any other input.
    """
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    up = [1 << i for i in range(n)]
    for low, high in covers:
        if low not in index:
            raise ValueError(f"unknown element {low!r}")
        if high not in index:
            raise ValueError(f"unknown element {high!r}")
        up[index[low]] |= 1 << index[high]
    # transitive closure (Warshall): after step k, paths may pass through k
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    order = [[(up[i] >> j) & 1 for j in range(n)] for i in range(n)]
    return FiniteLattice(labels, order)


def enumerate_lattices(max_size, override=False):
    """Yield one representative per isomorphism class of lattices.

    Lattices are produced in order of size, from the one-element lattice up
    to max_size elements.  The classes of each size n >= 3 are grown from
    those of size n - 1 by coatom augmentation (_lattices_of_size): each
    parent loses its top, gains a new coatom above an admissible down-set I
    of what is left, and gets a new top.  Every lattice on n >= 3 elements
    arises so, because removing a coatom c from a lattice leaves a lattice
    (a meet of two elements other than c is never c, and the top stays),
    and I is then the strict down-set of c.  Each child is keyed by
    _canonical_key from its masks, and a FiniteLattice is built only for the
    first child of each class.  Every representative on n >= 2 elements is
    naturally labeled (i below j only if i <= j), with its top last.
    """
    what = f"lattice enumeration up to {max_size} elements"
    check_limit(what, max_size, ENUMERATION_SOFT_LIMIT, override)
    parents = []
    for n in range(1, max_size + 1):
        classes = []
        for lat in _lattices_of_size(n, parents):
            classes.append(lat._down)
            yield lat
        parents = classes


def _lattices_of_size(n, parents):
    """Lattice classes on n elements, each built once, in the order of the
    first child of its class.  parents holds the down-set masks of one
    naturally labeled representative, top last, of every class on n - 1
    elements; it is not read for n <= 2, where the chain is the only class.

    A child keeps the parent's elements 0..n-3 with their down-sets, adds
    the coatom n-2 with down-set I | bit n-2 and the top n-1.  The down-set
    I of parent elements must hold the bottom, and I & down[x] must be the
    down-set of a parent element for every x <= n-3: it is then that of the
    meet of x with the coatom.  Meets among parent elements are unchanged,
    so the child is a finite meet-semilattice with a top, hence a lattice.
    """
    labels = tuple(str(i) for i in range(n))
    if n <= 2:  # the chain
        yield _from_down_masks(labels, (1, 3)[:n])
        return
    seen = set()
    coatom, top = 1 << (n - 2), 1 << (n - 1)
    for parent in parents:
        below = parent[:-1]  # the parent without its top: elements 0..n-3
        up = [top] * (n - 2)
        for j, d in enumerate(below):
            for i in bit_indices(d):
                up[i] |= 1 << j
        for ideal in _admissible_ideals(below):
            down = (*below, ideal | coatom, 2 * top - 1)
            rows = [u | coatom if ideal >> i & 1 else u for i, u in enumerate(up)]
            key = _canonical_key((*rows, coatom | top, top), down)
            if key not in seen:
                seen.add(key)
                yield _from_down_masks(labels, down)


def _admissible_ideals(down):
    """Down-sets I of the naturally labeled poset with these down-set masks
    that hold element 0 and meet every down[x] in some down[y].

    Elements are decided in label order, so once x is decided I & down[x] is
    final: x may join I when everything below it has, and may stay out when
    I & down[x] is already principal.
    """
    principal = set(down)
    ideals = [1]
    for x in range(1, len(down)):
        d, bit = down[x], 1 << x
        strict = d & ~bit
        grown = []
        for ideal in ideals:
            if ideal & strict == strict:
                grown.append(ideal | bit)
            if ideal & d in principal:
                grown.append(ideal)
        ideals = grown
    return ideals


def _from_down_masks(labels, down):
    n = len(labels)
    return FiniteLattice(labels, [[(down[j] >> i) & 1 for j in range(n)] for i in range(n)])
