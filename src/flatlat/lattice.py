"""Finite lattices: validation, structure queries and enumeration.

A lattice is stored as an indexed tuple of element labels and its order
relation, as up- and down-set bitmasks, with two dicts that map each
down-set and each up-set back to its element.  A set of elements has a
greatest element g exactly when it is the down-set of g, so the meet of i
and j is the element whose down-set is down[i] & down[j], one AND and one
dict lookup (joins likewise with up-sets); no meet or join table is kept.
The constructor, lattice_from_covers and parsed documents validate through
_set_relation; the lattices that are lattices by construction, the flats of
a complex under inclusion and the children of coatom growth, are stored
through _from_lattice_masks without it.  Instances are immutable and
hashable, so results of expensive derived computations are cached on the
instance.

Enumeration grows the lattice classes of each size from those one element
smaller by coatom augmentation (McKay-style isomorph-free generation, with
a set of canonical keys per size): each class loses its top and gains a
new coatom, above an admissible down-set, and a new top.  Down-sets that a
parent automorphism maps onto each other give isomorphic children, so one
per orbit is keyed (McKay 1998), under the automorphisms that the parent's
own key search found.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from ._util import (
    IndexMap, bit_indices, check_limit, columns, common, find_isomorphism, indices, leaves,
)
from .errors import NotALattice, NotAPartialOrder

# Unlabeled-lattice enumeration is doubly exponential in spirit; beyond this
# size the stream stops being interactive.
ENUMERATION_SOFT_LIMIT = 7


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
        lattice_from_covers and the enumeration's chains."""
        lattice = cls.__new__(cls)
        lattice._set_relation(_element_labels(labels), up)
        return lattice

    @classmethod
    def _from_lattice_masks(cls, labels, up, down):
        """The lattice with these distinct labels, up-sets and down-sets,
        stored without validation: for callers whose masks are a lattice's
        by construction, FlatFamily.lattice and the enumeration."""
        lattice = cls.__new__(cls)
        by_up = {u: i for i, u in enumerate(up)}
        by_down = {d: i for i, d in enumerate(down)}
        lattice._store(tuple(labels), up, down, by_up, by_down)
        return lattice

    def _set_relation(self, labels, up):
        """Validate that the up-set masks give a lattice and store it
        (_store); the first failure, in the order of the checks and then of
        the elements, raises.

        After the reflexive check, one sweep over the comparable pairs
        i <= j, by i and then j, checks antisymmetry and then transitivity
        at each pair and builds the down-sets as it goes.

        A finite partial order with a least element in which every pair
        has a join is a lattice: the meet of x and y is the join of their
        lower bounds, a finite nonempty set.  It is enough that every x has
        a join with every join-irreducible y, one that covers exactly one
        element, which holds when y's down-set less y is a down-set.  For
        then x v y exists for every y, by induction on down(y): it does for
        the bottom and for a join-irreducible y, and any other y covers two
        elements a and b.  Their join lies strictly above a, as b is not
        below a, and not above y, so it is y, which covers a; then up(x) &
        up(y) = up(x v a) & up(b), the up-set of (x v a) v b.  So the
        relation is checked by its bottom and by these joins: the ANDs of
        the up-set of each join-irreducible with every up-set, as a set,
        must lie in the set of the n up-sets.  In an atomistic lattice, as
        a matroid's flats are, the join-irreducibles are the atoms, so this
        is far fewer than the n^2/2 pairs.  The set is grown one
        join-irreducible at a time and given up once it holds more than n
        masks, so a relation that fails holds at most 2n of them.  Only a
        relation that fails is scanned pair by pair
        (_raise_first_failing_pair), for the first pair without a meet or a
        join and its message.
        """
        n = len(labels)
        for i in range(n):
            if not (up[i] >> i) & 1:
                raise NotAPartialOrder(f"relation is not reflexive at {labels[i]!r}")
        down = [1 << i for i in range(n)]
        for i, above in enumerate(up):
            bit = 1 << i
            bad = bit | ~above  # j <= i, or j <= k without i <= k
            rest = above ^ bit
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                if up[j] & bad:
                    if up[j] & bit:
                        raise NotAPartialOrder(
                            f"relation is not antisymmetric on {labels[i]!r}, {labels[j]!r}"
                        )
                    raise NotAPartialOrder(
                        f"relation is not transitive at {labels[i]!r} <= {labels[j]!r}"
                    )
                down[j] |= bit
        by_down = {d: i for i, d in enumerate(down)}
        by_up = {u: i for i, u in enumerate(up)}
        joins = set()  # up-sets in a lattice, so n at most: past that it fails
        for y, below in enumerate(down):
            if below ^ (1 << y) in by_down:  # y is join-irreducible
                joins.update(map(up[y].__and__, up))
                if len(joins) > n:
                    break
        if (1 << n) - 1 not in by_up or not joins <= by_up.keys():
            _raise_first_failing_pair(labels, up, down, by_up, by_down)
        self._store(labels, up, down, by_up, by_down)

    def _store(self, labels, up, down, by_up, by_down):
        """Hold a lattice's labels, as a tuple, its up- and down-set masks
        and the dicts from each up-set and down-set to its element."""
        full = (1 << len(labels)) - 1
        self.labels = labels
        self._up = tuple(up)
        self._down = tuple(down)
        self._by_down = by_down
        self._by_up = by_up
        # the elements below or above which every element lies
        self.bottom = by_up[full]
        self.top = by_down[full]

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
        """True iff y covers x: x < y with nothing strictly between, so x
        and y, two elements, are all that lie between them."""
        return (self._up[x] & self._down[y]).bit_count() == 2

    @cached_property
    def cover_pairs(self):
        """All pairs (x, y) with y covering x, ordered by index: the covers
        test read along each up-set once."""
        down = self._down
        return tuple(
            (x, y)
            for x, above in enumerate(self._up)
            for y in bit_indices(above)
            if (above & down[y]).bit_count() == 2
        )

    @cached_property
    def atoms(self):
        """Covers of the bottom element, as a frozenset of indices: the
        elements with exactly two elements in their down-set."""
        return frozenset(y for y, d in enumerate(self._down) if d.bit_count() == 2)

    @cached_property
    def height(self):
        """Length (number of edges) of a longest chain.

        Each round removes the minimal elements of what is left, those
        whose down-set meets it only in themselves; an element goes in
        round k + 1 exactly when a longest chain up to it has k edges
        (Mirsky), so the top goes last, in round height + 1.  That is one
        mask test per element left in each round.
        """
        left, rounds = (1 << len(self)) - 1, 0
        down = self._down
        while left:
            left ^= sum(1 << x for x in bit_indices(left) if down[x] & left == 1 << x)
            rounds += 1
        return rounds - 1

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
            if common(up, below & atom_mask) & everyone != up[x]:
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
        """An order isomorphism onto other as an IndexMap of element
        indices, or None."""
        mapping = find_isomorphism(self._relation, other._relation)
        return None if mapping is None else IndexMap(mapping)

    @property
    def _relation(self):
        """The order as leaves and find_isomorphism take it: the elements
        above and below each element, itself included, and one colour."""
        return indices(self._up), indices(self._down), [0] * len(self)

    @cached_property
    def canonical_key(self):
        """Relabeling-invariant fingerprint used to deduplicate lattices.

        The relation, as a tuple of up-set rows, in the element order of the
        best leaf of an individualization-refinement search (_canonical_key):
        keys are equal exactly for isomorphic lattices, and mean nothing else.
        """
        succ, pred, _ = self._relation
        return _canonical_key(succ, pred)


def _canonical_key(succ, pred, autos=None):
    """The canonical_key of the lattice in which succ[i] and pred[i] list
    the elements above and below i, i itself included: the least reading of
    a leaf of the search _util.leaves, from one colour.  The automorphisms
    the search finds are appended to autos, when given.
    """
    return min(reading for reading, _ in leaves(succ, pred, [0] * len(succ), autos))


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
    pairs = []
    for low, high in covers:
        if low not in index:
            raise ValueError(f"unknown element {low!r}")
        if high not in index:
            raise ValueError(f"unknown element {high!r}")
        pairs.append((index[low], index[high]))
    return FiniteLattice._from_up_masks(labels, _closed_up_sets(len(labels), pairs))


def _closed_up_sets(n, pairs):
    """The up-set masks of the reflexive-transitive closure of index pairs
    (i, j), each putting i below j, over the elements 0..n-1.

    An element's up-set is itself and the up-sets of the elements it is
    given below, so the up-sets are ORed in reverse topological order
    (Kahn's), one step per pair.  Pairs with a cycle have no such order;
    their closure, the same whatever way it is taken, is Warshall's loop.
    """
    up = [1 << i for i in range(n)]
    above = [[] for _ in range(n)]  # the j of each pair (i, j), j != i
    below = [0] * n  # how many pairs put an element below j
    for i, j in pairs:
        up[i] |= 1 << j
        if i != j:
            above[i].append(j)
            below[j] += 1
    order = [j for j in range(n) if not below[j]]
    for i in order:  # j is placed once every pair below it has been
        for j in above[i]:
            below[j] -= 1
            if not below[j]:
                order.append(j)
    if len(order) == n:
        for i in reversed(order):
            for j in above[i]:
                up[i] |= up[j]
        return up
    # after step k, paths may pass through k
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return up


def enumerate_lattices(max_size, override=False):
    """Yield one representative per isomorphism class of lattices.

    Lattices are produced in order of size, from the one-element lattice up
    to max_size elements.  The classes of each size n >= 3 are grown from
    those of size n - 1 by coatom augmentation (_lattices_of_size): each
    parent loses its top, gains a new coatom above an admissible down-set I
    of what is left, and gets a new top.  Every lattice on n >= 3 elements
    arises so, because removing a coatom c from a lattice leaves a lattice
    (a meet of two elements other than c is never c, and the top stays),
    and I is then the strict down-set of c.  One I per orbit of the
    parent's automorphisms is tried, each child is keyed by _canonical_key
    from its parent's adjacency lists, and a FiniteLattice is built only for
    the first child of each class.  Every representative on n >= 2 elements
    is naturally labeled (i below j only if i <= j), with its top last.
    Each class of a size below max_size is kept, as its down-sets and the
    automorphisms its key search found, to grow the next size.
    """
    what = f"lattice enumeration up to {max_size} elements"
    check_limit(what, max_size, ENUMERATION_SOFT_LIMIT, override)
    parents = []
    for n in range(1, max_size + 1):
        classes = []
        for lat, autos in _lattices_of_size(n, parents):
            if n < max_size:
                classes.append((lat._down, autos))
            yield lat
        parents = classes


def _lattices_of_size(n, parents):
    """Yield (lattice, automorphisms) for each lattice class on n elements,
    each built once, in the order of the first child of its class, with the
    automorphisms, as tuples of images, that its key search found.  parents
    holds the down-set masks of one naturally labeled representative, top
    last, of every class on n - 1 elements, each with some of its
    automorphisms; it is not read for n <= 2, where the chain is the only
    class.

    A child keeps the parent's elements 0..n-3 with their down-sets, adds
    the coatom n-2 with down-set I | bit n-2 and the top n-1.  The down-set
    I of parent elements must hold the bottom, and I & down[x] must be the
    down-set of a parent element for every x <= n-3: it is then that of the
    meet of x with the coatom.  Meets among parent elements are unchanged,
    so the child is a finite meet-semilattice with a top, hence a lattice,
    and it is stored without validation (_from_lattice_masks).

    An automorphism g of the parent fixes its top, so it maps admissible
    down-sets onto admissible ones, and g with the coatom and the top fixed
    maps the child of I onto the child of g(I).  Whatever automorphisms are
    given, a down-set in the orbit of one already tried gives a child whose
    key is already seen, so skipping it (_orbit_representatives) changes
    neither the classes nor their order.  A child's successor and
    predecessor lists, and its up- and down-sets, are the parent's, without
    its top, plus the coatom and the top, so they are read off the parent's
    masks once per parent.
    """
    labels = tuple(str(i) for i in range(n))
    if n <= 2:  # the chain
        chain = FiniteLattice._from_up_masks(labels, [(1 << n) - (1 << i) for i in range(n)])
        yield chain, ()
        return
    seen = set()
    c, t = n - 2, n - 1
    coatom, top, full = 1 << c, 1 << t, (1 << n) - 1
    every = list(range(n))
    for parent, parent_autos in parents:
        below = parent[:-1]  # the parent without its top: elements 0..n-3
        up = [u | top for u in columns(below, c)]
        pred = indices(below)
        succ = indices(up)  # each list ends at the top
        to_coatom = [s[:-1] + [c, t] for s in succ]
        for ideal in _orbit_representatives(_admissible_ideals(below), parent_autos):
            child_succ = [to_coatom[i] if ideal >> i & 1 else s for i, s in enumerate(succ)]
            child_succ += [[c, t], [t]]
            child_pred = [*pred, [*bit_indices(ideal), c], every]
            autos = []
            key = _canonical_key(child_succ, child_pred, autos)
            if key not in seen:
                seen.add(key)
                rows = [u | coatom if ideal >> i & 1 else u for i, u in enumerate(up)]
                child_up = (*rows, coatom | top, top)
                child_down = (*below, ideal | coatom, full)
                child = FiniteLattice._from_lattice_masks(labels, child_up, child_down)
                yield child, tuple(autos)


def _orbit_representatives(ideals, autos):
    """The first down-set of each orbit, in the order of ideals, of the
    group that the element permutations autos generate."""
    images = [[1 << i for i in g] for g in autos]  # the image bit of each element
    covered = set()
    for ideal in ideals:
        if ideal in covered:
            continue
        yield ideal
        covered.add(ideal)
        orbit = [ideal]
        for mask in orbit:
            for bits in images:
                image = sum(map(bits.__getitem__, bit_indices(mask)))
                if image not in covered:
                    covered.add(image)
                    orbit.append(image)


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

