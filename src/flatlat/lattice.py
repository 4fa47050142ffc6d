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
smaller by coatom augmentation (McKay 1998, isomorph-free generation by
canonical deletion): each class loses its top and gains a new coatom, above
an admissible down-set, and a new top.  Down-sets that a parent
automorphism maps onto each other give isomorphic children, so one per
orbit is tried, under the automorphisms that the parent's own key search
found.  A child is told new or repeated by the classes that deleting its
other coatoms leaves, mostly read off degree counts.  A child that deletes
to its own parent is compared with its siblings of that kind only when
their sorted degree counts are equal, and only then by keys, so only the
classes that grow and a few children are keyed, and no set of keys is
kept.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from ._util import (
    IndexMap, bit_indices, check_limit, columns, common, find_isomorphism, leaves,
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

    @cached_property
    def cover_pairs(self):
        """All pairs (x, y) with y covering x, ordered by index: x and y
        alone lie between them, read along each up-set once."""
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
        exactly that the law holds.

        The pass walks the covers, e below d, read off the masks, and for
        each every c above e other than e and not above d: as d covers e,
        c^d lies between e and d and is not d, so it is e, and these are
        exactly the c with c^d = e.  Each takes one AND and one lookup for
        a = c v d and one more AND for the b between c and a.  The bits are
        walked inline, without bit_indices, as the census classifies every
        small lattice through here.
        """
        up, down, by_up = self._up, self._down, self._by_up

        def configurations():  # with the largest b for each c and d
            for e, above in enumerate(up):
                rest = above ^ 1 << e
                while rest:
                    low = rest & -rest
                    rest ^= low
                    d = low.bit_length() - 1
                    if (above & down[d]).bit_count() != 2:
                        continue  # d does not cover e
                    up_d = up[d]
                    apart = above & ~up_d ^ 1 << e  # the c with c^d = e
                    while apart:
                        bit = apart & -apart
                        apart ^= bit
                        c = bit.bit_length() - 1
                        a = by_up[up[c] & up_d]
                        between = up[c] & down[a] & ~(bit | 1 << a)
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
        """The order as leaves and find_isomorphism take it: the up- and
        down-set masks, each element in its own, and one colour."""
        return self._up, self._down, [0] * len(self)

    @cached_property
    def canonical_key(self):
        """Relabeling-invariant fingerprint of the isomorphism class.

        The relation, as a tuple of up-set rows, in the element order of the
        best leaf of an individualization-refinement search (_canonical_key):
        keys are equal exactly for isomorphic lattices, and mean nothing else.
        """
        return _canonical_key(self._up, self._down)


def _canonical_key(up, down, autos=None):
    """The canonical_key of the lattice with up- and down-set masks up and
    down: the least reading of a leaf of the search _util.leaves, from one
    colour.  autos, when given, may hold automorphisms known on entry,
    which prune the search from its first frame without changing the key;
    those it finds are appended.
    """
    return min(reading for reading, _ in leaves(up, down, [0] * len(up), autos))


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
    parent's automorphisms is tried, and a child is told new or repeated by
    the classes its other coatom deletions fall in; a FiniteLattice is built
    only for the first child of each class.  Every representative on n >= 2
    elements is naturally labeled (i below j only if i <= j), with its top
    last.  Each class of a size below max_size is keyed by _canonical_key,
    and kept, as its down-sets, the automorphisms its key search started
    from and found, and its key, to grow the next size.
    """
    what = f"lattice enumeration up to {max_size} elements"
    check_limit(what, max_size, ENUMERATION_SOFT_LIMIT, override)
    parents = []
    for n in range(1, max_size + 1):
        grow = n < max_size
        classes = []
        for lat, autos, key in _lattices_of_size(n, parents, grow):
            if grow:
                classes.append((lat._down, autos, key))
            yield lat
        parents = classes


def _lattices_of_size(n, parents, grow):
    """Yield (lattice, automorphisms, key) for each lattice class on n
    elements, each built once, in the order of the first child of its class.
    parents holds, for every class on n - 1 elements in the order they were
    yielded, the down-set masks of one naturally labeled representative, top
    last, the automorphisms that its key search started from and found, as
    tuples of images, and its key; it is not read for n <= 2, where the
    chain is the only class.  When grow is true every class is keyed, and
    yielded with the automorphisms and the key of its search; otherwise only
    the classes that needed a key carry one, and the rest () and None.  The
    classes and their order do not depend on grow.

    A child keeps the parent's elements 0..n-3 with their down-sets, adds
    the coatom n-2 with down-set I | bit n-2 and the top n-1.  The down-set
    I of parent elements must hold the bottom, and I & down[x] must be the
    down-set of a parent element for every x <= n-3: it is then that of the
    meet of x with the coatom.  Meets among parent elements are unchanged,
    so the child is a finite meet-semilattice with a top, hence a lattice,
    and it is stored without validation (_from_lattice_masks).

    An automorphism g of the parent fixes its top, so it maps admissible
    down-sets onto admissible ones, and g with the coatom and the top fixed
    maps the child of I onto the child of g(I): only the first I of each
    orbit is tried (_orbit_representatives).  A given g with g(I) = I, so
    extended, is an automorphism of the child of I, and the child's key
    search starts from these (_canonical_key).

    A child D of the i-th parent P_i is told new or repeated by canonical
    deletion (McKay 1998, "Isomorph-free exhaustive generation"), from the
    classes of D - x for its coatoms x other than the new one, the parent's
    coatoms outside I:
    - some D - x is isomorphic to a parent P_j with j < i: D is a child of
      P_j, over the down-set x's strict down-set maps to, whose orbit P_j
      tried, so its class was yielded from P_j or before, and D is skipped;
    - else some D - x is isomorphic to P_i: D is skipped when it is
      isomorphic to an earlier sibling of this case that was kept;
    - else D is new.  No child of an earlier parent is isomorphic to D, as
      it would be a D - x.  An isomorphism onto an earlier sibling maps that
      sibling's new coatom onto a coatom y of D, and D - y is isomorphic to
      P_i, so y is the new coatom and the isomorphism restricts to an
      automorphism of P_i that maps the sibling's I onto D's, an orbit
      already tried.  That needs the automorphisms kept with P_i to generate
      its whole group, as those an individualization-refinement search
      finds, with any it started from, do (McKay 1981, "Practical graph
      isomorphism").  A sibling isomorphic to a D of the second case is of
      that case too, so it is among the siblings D is compared with.
    So each class is yielded at its first child, in the order of parents
    and of the down-sets tried (_first_parent reads the case).  The class
    of D - x is read off its degree pairs, the sorted (|up|, |down|) of its
    elements, when they are those of one parent, or when all the parents
    with them lie on one side of P_i; otherwise off its key among theirs.

    Isomorphic lattices have equal sorted degree pairs, so a D of the
    second case is compared only with the kept siblings of that case whose
    pairs equal its own, a table per parent, and by keys: D's own, which a
    growing size has anyway, and each sibling's, made from the masks it
    was kept with on the first such comparison.  Up to 11 elements no two
    of these siblings share their pairs, so the last size keys no child of
    its own; the first that do are met at 12 elements, 5 key searches
    there against the 19 918 of comparing every such child by key.

    A child's key search and its FiniteLattice both take the up- and
    down-set masks that _child_masks reads off the parent's.
    """
    labels = tuple(str(i) for i in range(n))
    if n <= 2:  # the chain
        chain = FiniteLattice._from_up_masks(labels, [(1 << n) - (1 << i) for i in range(n)])
        yield chain, (), chain.canonical_key if grow else None
        return
    c, t = n - 2, n - 1
    by_pairs, by_key = {}, {}  # the indices of the parents with these pairs; with this key
    for i, (parent, _, key) in enumerate(parents):
        pairs = _sorted_pairs(_degree_pairs(columns(parent, n - 1), parent, n))
        by_pairs.setdefault(pairs, []).append(i)
        by_key[key] = i
    for i, (parent, parent_autos, _) in enumerate(parents):
        below = parent[:-1]  # the parent without its top: elements 0..n-3
        up = [u | 1 << t for u in columns(below, c)]
        coatoms = [x for x, u in enumerate(up) if u == 1 << x | 1 << t]
        kept = {}  # sorted degree pairs: [key, up, down] of each kept child deleting to P_i
        for ideal, fixing in _orbit_representatives(_admissible_ideals(below), parent_autos):
            child_up, child_down = _child_masks(below, up, ideal)
            others = [x for x in coatoms if not ideal >> x & 1]
            pairs = _degree_pairs(child_up, child_down, n)
            first = _first_parent(i, others, child_up, child_down, pairs, by_pairs, by_key)
            if first < i:
                continue
            twins = kept.setdefault(_sorted_pairs(pairs), []) if first == i else ()
            key, autos = None, ()
            if grow or twins:
                autos = [g + (t,) for g in fixing]  # g fixes the parent's top, now c
                key = _canonical_key(child_up, child_down, autos)
                if any(key == _twin_key(twin) for twin in twins):
                    continue
            if first == i:
                twins.append([key, child_up, child_down])
            child = FiniteLattice._from_lattice_masks(labels, child_up, child_down)
            yield child, tuple(autos), key


def _child_masks(below, up, ideal):
    """The up- and down-set masks of the child of coatom growth over an
    admissible down-set ideal: below holds the parent's down-sets without
    its top, and up their up-sets with the child's top in place of the
    parent's."""
    coatom = 1 << len(below)
    top = coatom << 1
    rows = [u | coatom if ideal >> e & 1 else u for e, u in enumerate(up)]
    return (*rows, coatom | top, top), (*below, ideal | coatom, (top << 1) - 1)


def _degree_pairs(up, down, n):
    """The degree pair (|up|, |down|) of each element, coded u * n + d,
    which tells the pairs apart while every d < n."""
    return [u.bit_count() * n + d.bit_count() for u, d in zip(up, down)]


def _sorted_pairs(pairs):
    """A lattice's degree pairs (_degree_pairs), sorted: isomorphic lattices
    have equal ones."""
    return tuple(sorted(pairs))


def _twin_key(twin):
    """The key of a kept sibling [key, up, down], made from its masks and
    stored on first use when it was kept without one."""
    if twin[0] is None:
        twin[0] = _canonical_key(twin[1], twin[2])
    return twin[0]


def _first_parent(i, others, up, down, pairs, by_pairs, by_key):
    """The least index of a parent isomorphic to D - x, over the coatoms x
    of the child D in others, when it lies below i; else i when one D - x is
    isomorphic to P_i, and i + 1 when none is.  up and down are D's masks,
    pairs its _degree_pairs, by_pairs maps the sorted degree pairs of the
    n - 1 element classes to the indices of the parents that have them,
    ascending, and by_key a parent's key to its index.

    D - x has D's degree pairs without x's, with one up less for each
    element below x and one down less for the top.  They decide each D - x
    whose parents with those pairs lie on one side of i, and one below i
    ends the scan; the rest are keyed after it.
    """
    n, least, unsure = len(up), i + 1, []
    pairs = [*pairs[:-1], pairs[-1] - 1]  # the top of D - x has one element less below it
    for x in others:
        lower = down[x] ^ 1 << x  # one element less above each
        deleted = [p - n if lower >> e & 1 else p for e, p in enumerate(pairs) if e != x]
        found = by_pairs[_sorted_pairs(deleted)]
        if found[-1] < i:
            return found[-1]
        if found == [i]:
            least = i
        elif found[0] <= i:
            unsure.append(x)
    for x in unsure:
        keep = (1 << x) - 1
        deleted = (
            [m & keep | m >> 1 & ~keep for e, m in enumerate(masks) if e != x]
            for masks in (up, down)
        )
        least = min(least, by_key[_canonical_key(*deleted)])
        if least < i:
            break
    return least


def _orbit_representatives(ideals, autos):
    """Yield (ideal, fixing) for the first down-set of each orbit, in the
    order of ideals, of the group that the element permutations autos
    generate; fixing lists the generators that map that ideal onto itself."""
    images = [(g, [1 << i for i in g]) for g in autos]  # the image bit of each element
    covered = set()
    for ideal in ideals:
        if ideal in covered:
            continue
        covered.add(ideal)
        orbit, fixing = [ideal], []
        for mask in orbit:
            for g, bits in images:
                image = sum(map(bits.__getitem__, bit_indices(mask)))
                if image not in covered:
                    covered.add(image)
                    orbit.append(image)
                elif image == mask == ideal:
                    fixing.append(g)
        yield ideal, fixing


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

