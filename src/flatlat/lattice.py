"""Finite lattices: validation, structure queries and enumeration.

A lattice is stored as an indexed tuple of element labels and its order
relation, as up- and down-set bitmasks, with two dicts that map each
down-set and each up-set back to its element.  A set of elements has a
greatest element g exactly when it is the down-set of g, so the meet of i
and j is the element whose down-set is down[i] & down[j], one AND and one
dict lookup (joins likewise with up-sets); no meet or join table is kept.
Every constructor validates through _set_relation.  Instances are immutable
and hashable, so results of expensive derived computations are cached on
the instance.

Enumeration grows the lattice classes of each size from those one element
smaller by coatom augmentation (McKay-style isomorph-free generation, with
a set of canonical keys per size): each class loses its top and gains a
new coatom, above an admissible down-set, and a new top.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from ._util import IndexMap, bit_indices, check_limit, columns, find_isomorphism, leaves
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
    The order is held once, as up- and down-set masks and the dicts from
    each down-set and up-set to its element; meets and joins are read off
    them.
    """

    def __init__(self, labels, order):
        labels = _element_labels(labels)
        n = len(labels)
        if len(order) != n or any(len(row) != n for row in order):
            raise NotAPartialOrder("order relation must be a square matrix over the elements")
        bits = [1 << j for j in range(n)]
        up = [sum(itertools.compress(bits, row)) for row in order]  # j with i <= j
        self._set_relation(labels, up)

    @classmethod
    def _from_up_masks(cls, labels, up):
        """The lattice in which element i lies below the elements of up[i],
        a mask over the n elements.  It runs the constructor's validation
        (_set_relation) without a matrix, for callers that hold the up-sets:
        FlatFamily.lattice, lattice_from_covers and the enumeration."""
        lattice = cls.__new__(cls)
        lattice._set_relation(_element_labels(labels), up)
        return lattice

    def _set_relation(self, labels, up):
        """Validate that the up-set masks give a lattice and store it; the
        first failure, in the order of the checks and then of the elements,
        raises.  The down-sets are read off as the columns of the up-sets.

        The partial-order checks come first.  A finite partial order with a
        greatest element in which every pair has a meet is a lattice: the
        join of x and y is the meet of their upper bounds, a finite nonempty
        set.  So the relation is then checked by its top and its meets, one
        AND and dict lookup per pair, and only a relation that fails is
        scanned pair by pair (_raise_first_failing_pair), for the first pair
        without a meet or a join and its message.
        """
        n = len(labels)
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
        down = columns(up, n)
        by_down = {d: i for i, d in enumerate(down)}
        by_up = {u: i for i, u in enumerate(up)}
        has = by_down.__contains__
        if (1 << n) - 1 not in by_down or not all(
            all(map(has, map(down[i].__and__, down[i + 1 :]))) for i in range(n)
        ):
            _raise_first_failing_pair(labels, up, down, by_up, by_down)

        self.labels = labels
        self._up = tuple(up)
        self._down = tuple(down)
        self._by_down = by_down
        self._by_up = by_up
        # the elements below or above which every element lies
        self.bottom = by_up[(1 << n) - 1]
        self.top = by_down[(1 << n) - 1]

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

    def index(self, label):
        if label not in self.labels:
            raise ValueError(f"unknown element {label!r}")
        return self.labels.index(label)

    def leq(self, i, j):
        return bool((self._up[i] >> j) & 1)

    def meet(self, i, j):
        return self._by_down[self._down[i] & self._down[j]]

    def join(self, i, j):
        return self._by_up[self._up[i] & self._up[j]]

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

    # -- classification predicates ---------------------------------------

    @cached_property
    def atomistic_violation(self):
        """First element that is not the join of the atoms below it, or None.

        The atoms below x are down[x] & atom_mask, and x is their join iff
        the AND of their up-sets, their common upper bounds, is up[x].
        """
        up = self._up
        atom_mask = sum(1 << a for a in self.atoms)
        everyone = (1 << len(self)) - 1
        for x, below in enumerate(self._down):
            above = everyone
            for a in bit_indices(below & atom_mask):
                above &= up[a]
            if above != up[x]:
                return x
        return None

    @cached_property
    def is_atomistic(self):
        return self.atomistic_violation is None

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

        Such c and d are exactly a failure of the cover law (x^y covered
        by x implies y covered by x v y; is_semimodular_by_covers in
        tests/helpers.py is its oracle) at x = d, y = c, so None means
        exactly that the law holds.  The pass reads the masks once per pair.
        """
        up, down, by_up, by_down = self._up, self._down, self._by_up, self._by_down
        n = len(self)

        def configurations():  # with the largest b for each c and d
            for c in range(n):
                for d in range(n):
                    e = by_down[down[c] & down[d]]
                    if (up[e] & down[d]).bit_count() != 2:
                        continue  # d does not cover e
                    a = by_up[up[c] & up[d]]
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

    @cached_property
    def is_geometric(self):
        return self.is_atomistic and self.is_semimodular

    @cached_property
    def is_boolean(self):
        """True iff the lattice is a powerset lattice of its atoms.

        In an atomistic lattice the map from x to the atoms below it is an
        injective order embedding, so with 2^k elements it is onto the
        powerset of the atoms.
        """
        return self.is_atomistic and len(self) == 1 << len(self.atoms)

    # -- isomorphism ------------------------------------------------------

    def isomorphism(self, other):
        """An order isomorphism onto other as a LatticeIso, or None."""
        mapping = find_isomorphism(self._relation, other._relation)
        return None if mapping is None else LatticeIso(mapping)

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
    """The canonical_key of the lattice with these up- and down-set masks:
    the least reading of a leaf of the search _util.leaves, from one colour.
    """
    return min(reading for reading, _ in leaves(up, down, [0] * len(up)))


def _raise_first_failing_pair(labels, up, down, by_up, by_down):
    """Raise NotALattice for the first pair, in element order, of a partial
    order without a meet or a join; by_down and by_up map each down-set and
    up-set mask to its element.
    """
    n = len(labels)
    for i in range(n):
        for j in range(i, n):
            if down[i] & down[j] not in by_down:
                raise NotALattice((labels[i], labels[j]), "meet")
            if up[i] & up[j] not in by_up:
                raise NotALattice((labels[i], labels[j]), "join")


def _element_labels(labels):
    """The labels as a tuple, checked to be nonempty and distinct."""
    labels = tuple(labels)
    if not labels:
        raise NotAPartialOrder("element set must be nonempty")
    if len(set(labels)) != len(labels):
        raise ValueError("element labels must be distinct")
    return labels


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
    return FiniteLattice._from_up_masks(labels, up)


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
        yield FiniteLattice._from_up_masks(labels, [(1 << n) - (1 << i) for i in range(n)])
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
            child_up = (*rows, coatom | top, top)
            key = _canonical_key(child_up, down)
            if key not in seen:
                seen.add(key)
                yield FiniteLattice._from_up_masks(labels, child_up)


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

