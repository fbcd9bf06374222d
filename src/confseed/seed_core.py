"""Cluster seeds: exchange matrices with multipliers, weights, and labels.

A seed stores ``b2``, twice the exchange matrix, so that the half-integral
entries allowed between frozen vertices stay integral.  Invariants enforced
throughout:

* b2 is skew-symmetrizable: b2[i][j]*d[j] == -b2[j][i]*d[i];
* any entry touching an unfrozen vertex is even (b itself is integral there);
* the diagonal is zero;
* no entry has more than MAX_ENTRY_BITS bits.

A seed stores only what is nonzero, and that is the one form it takes.
``rows[i]`` holds the (j, b2[i][j]) pairs of row i whose entry is nonzero,
ascending in j, and ``slot_weights[v]`` the (slot, weight) pairs of vertex
v whose weight is nonzero, ascending in slot; ``weight_shape`` is the
number of slots and the zero weight.  A glued polygon has about four arrows
and at most three nonzero slot weights per vertex whatever its size, so
building, checking, mutating and writing a seed cost O(n + arrows) rather
than O(n^2) or O(n * slots).  ``Seed(names, frozen, mult, rows,
slot_weights, weight_shape, labels)`` and ``Seed.replace`` take these
stored fields, and ``check_seed`` refuses any that are not stored this way.
``dense`` expands one row or one vertex's weights where a caller needs every
entry, as the dense seed file does.

By skew-symmetrizability b2[i][j] and b2[j][i] are zero together, so the
columns of row k are the neighbours of k: a mutation rewrites only the rows
of k and its neighbours, and the Langlands dual's matrix is the transpose
of b2, read off the rows.

Every way to make a seed runs the full ``check_seed``, except ``mutate``,
``opposite`` and ``langlands_dual``, which build through ``_unchecked``.  A
seed is immutable and stores its sequence fields as tuples, so a checked
seed stays checked, and each of the three proves or tests what it writes.
Negation and the dual's transpose keep every invariant of b2: the transpose
is skew-symmetrizable with the multipliers max(d)/d, by the input's own
rule, so the dual tests only the weight images it computes, and hands any
that fails to the checked constructor for its message.  Those images are
memoized per weight map: a module-level ``WeakKeyDictionary`` maps each
map object to a dict from (d_v, a vertex's stored weights) to the vertex's
dual stored weights, entered only once a call's new images have passed.
A map must be a pure function, and a dual along a mutation walk maps only
the vertex that changed.
Mutation keeps skew-symmetrizability with the same multipliers (Fomin and
Zelevinsky, "Cluster algebras I", 2002, Section 4) and writes only row k
and the entries between k's neighbours; ``mutate`` checks that block with
``check_seed``'s own tests and messages, and every other row is the very
row object of the checked seed it started from.  A mutation step therefore
does O(deg^2) arithmetic, deg the number of neighbours, besides copying the
n row references into a new tuple, where a full check would cost
O(n + arrows).

The exchange relation A_k * A'_k = M+ + M- is stated once, by
``exchange``: it splits row k by sign into the two monomials, refuses a
relation that is not weight-homogeneous, and gives A'_k's weight and label.
``mutate`` takes the new vertex's weight and label from the same step, and
the flag oracle reads it without building the mutated seed.

Symmetry checks relabel a seed and then compare it exactly, and the
comparisons (``matches_under``, ``quiver_isomorphic``) take no options.
Two transforms state the relabelling rules once each.  ``opposite``
reverses every arrow by negating b2: an odd permutation of a triangle's
corners gives the opposite seed (Fock and Goncharov, "Moduli spaces of local
systems and higher Teichmuller theory", 2006).  ``moved_fields`` moves every
slot to a new one, a vertex's nonzero slots and the slots of every weight
tuple inside its label alike, and each vertex keeps its moved label's very
weight tuple: slot permutations go through it by ``move_slots``, which
checks the result, and the embedding of a triangle into a polygon's slots
by the glued seed's one check.  ``map_weights`` applies one linear map to
every weight, as diagram automorphisms acting on weight coordinates do.

Arrow convention: an arrow from vertex j to vertex i means b[i][j] > 0.  A
unit arrow between vertices with multipliers (d_i, d_j) contributes
d_i // gcd(d_i, d_j) to b[i][j]; drawn multiplicity is b over that unit, and
a half unit ("dashed") can only join two frozen vertices.

Each vertex optionally carries one weight per marked point ("slot") and a
label recording which function on the configuration space it denotes: either
an atomic wedge invariant (Minor) or an exchange tree (Exchange).  Weights are
int tuples and weight balances are doubled like b2; only b = b2/2, arrow
multiplicities and X-values are Fractions.  Every label carries its torus
weight in ``weights`` and its weight shape in ``shape``, stored as a
vertex's weights and a seed's shape are.  A Minor's weight is its own
nonzero (slot, weight) pairs, ascending in slot, and it is interned by
them and its shape; so the one ``moved`` rule of ``moved_fields`` and the
one ``mapped`` rule of ``map_weights`` relabel vertices and minors alike.
An Exchange's weight is sum e * w(plus) - w(over): its children share its
shape, its exponents are positive ints, and exchange relations are
weight-homogeneous, so its two sides have equal weights.  A label checks
all this once, when it is first interned, and refuses what no label may
be, so only labels that passed are stored; an Exchange's exponents alone
are checked on every request.  ``mutate``'s exchange step alone hands the
new Exchange the weight it has just proved, straight to the intern table.
The vertex's weight is its label's torus weight, so ``check_seed`` takes
labels only with weights and holds them to one rule in three C-level
passes, O(n): each label is a Minor or an Exchange of the seed's shape with
its vertex's weight.

Labels are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006).  ``Minor(weights, shape)`` and ``Exchange(plus, minus,
over)`` look their fields up in one intern table and return the label already
stored there, so structurally equal labels are one object: two minors are one
exactly when their dense weights are equal.  Equality and hashing are
therefore the object defaults, identity in O(1), although mutation makes the
trees grow exponentially in depth: the cost follows the DAG of distinct
nodes, which grows by at most one node per mutation.  The table is a
plain dict from each key to a weak reference that carries its key, so a
lookup is one C-level ``dict.get`` and one reference call.  A hit runs no
check, so a minor's weights equal to a stored minor's, as 7.0 equals 7,
give the stored minor.  A label leaves the table once no seed or label
refers to it.  Labels are immutable, and ``post_order`` is the one walker
over them: it visits each distinct node once with an explicit stack, so no
label code recurses however deep a walk nests the trees.
"""
from __future__ import annotations

import operator
from fractions import Fraction as Q
from itertools import chain, compress
from math import gcd
from weakref import KeyedRef, WeakKeyDictionary

from .root_data import MAX_ENTRY_BITS, MAX_VERTICES, Weight

# == labels ==

# the intern table: (weights, shape) -> a weak reference to the Minor,
# (plus, minus, over) -> one to the Exchange.  The two key shapes never
# compare equal, as their lengths differ, and each key is its label's fields
# in slot order.  A plain dict of KeyedRefs, which carry their key, is read
# in C; a label's reference drops its entry when the label dies.
_LABELS: dict = {}


def _forget(ref: KeyedRef) -> None:
    """Drop a dead label's entry, unless an equal label has taken it since."""
    if _LABELS.get(ref.key) is ref:
        del _LABELS[ref.key]


class _Label:
    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _intern(cls, key, fields):
    """The label stored under key, made on first request from key's fields
    and those that ``fields(*key)`` returns.

    The constructors pass a ``fields`` that refuses a key no label may
    have, so no refused label enters the table; a hit runs no check, as the
    stored label passed its own.  ``_exchange`` alone passes the fields it
    has proved.
    """
    ref = _LABELS.get(key)
    label = None if ref is None else ref()
    if label is None:
        label = object.__new__(cls)
        for name, value in zip(cls.__slots__, key + fields(*key)):
            object.__setattr__(label, name, value)
        _LABELS[key] = KeyedRef(label, _forget, key)
    return label


class Minor(_Label):
    """An atomic invariant, determined by its weights alone.

    ``weights`` holds the nonzero (slot, weight) pairs, ascending in slot,
    as ``Seed.slot_weights`` holds a vertex's, and ``shape`` is the (slots,
    zero weight) pair of ``Seed.weight_shape``.  Its torus weight is its
    ``weights``.
    """

    __slots__ = ("weights", "shape")

    def __new__(cls, weights: tuple[tuple[int, Weight], ...], shape: tuple[int, Weight]):
        return _intern(cls, (weights, shape), _minor_fields)

    def __repr__(self):
        return f"Minor(weights={self.weights!r}, shape={self.shape!r})"


def _minor_fields(weights, shape) -> tuple:
    """Refuse a Minor's fields unless a seed could store them as a vertex's
    weights and weight shape; a Minor has no other fields."""
    if not _is_shape(shape):
        raise ValueError(f"a minor has weight shape {shape!r}; {_SHAPE}")
    _check_pairs((("a minor", weights),), shape, "weights")
    if weights and weights[-1][0] >= shape[0]:
        raise ValueError(f"a minor stores slot {weights[-1][0]} of {shape[0]}")
    return ()


class Exchange(_Label):
    """(plus + minus) / over, each side a monomial in other labels.

    ``weights`` is its torus weight, sum e * w(plus) - w(over), stored as a
    vertex's, and ``shape`` the weight shape its children share.
    """

    __slots__ = ("plus", "minus", "over", "weights", "shape")

    def __new__(cls, plus: tuple[tuple["Label", int], ...],
                minus: tuple[tuple["Label", int], ...], over: "Label"):
        # exponents on every call: 1.0 and True equal 1, so a hit would take them
        for what, side in (("plus", plus), ("minus", minus)):
            for _, e in side:
                if type(e) is not int or not 0 < e < _TOO_BIG:
                    raise ValueError(f"{what} exponent over the cap of {MAX_ENTRY_BITS} bits"
                                     if type(e) is int and e > 0
                                     else f"{what} exponent {e!r} is not a positive integer")
        return _intern(cls, (plus, minus, over), _exchange_fields)

    def __repr__(self):
        # this node alone: the whole tree can be exponentially large
        return f"Exchange(<{len(self.plus)} plus, {len(self.minus)} minus factors>)"


def _exchange_fields(plus, minus, over) -> tuple:
    """(weights, shape) of an Exchange whose exponents have passed, refusing
    the first fault: a child that is not a label, children of different
    weight shapes, or two sides of different weight."""
    below = [l for l, _ in plus + minus] + [over]
    odd = [type(l).__name__ for l in below if type(l) not in _LABEL_TYPES]
    if odd:
        raise ValueError(
            f"an exchange holds an object of type {odd[0]}, not a Minor or an Exchange")
    other = [l.shape for l in below if l.shape != over.shape]
    if other:
        raise ValueError(f"an exchange joins labels of weight shapes {other[0]} and {over.shape}")
    terms = [(e, l.weights) for l, e in plus]
    if weight_sum(terms + [(-e, l.weights) for l, e in minus]):
        raise ValueError("an exchange is not weight-homogeneous")
    return weight_sum(terms + [(-1, over.weights)]), over.shape


Label = Minor | Exchange
_LABEL_TYPES = {Minor, Exchange}


def post_order(label: Label, done):
    """Yield the nodes of label not in done, each after its children.

    New subtrees come first in the order plus, minus, over.  The caller
    enters each yielded node into done before asking for the next one; an
    explicit stack keeps deep labels off the call stack.
    """
    stack = [label]
    while stack:
        top = stack.pop()
        if top in done:
            continue
        if isinstance(top, Exchange):
            below = [l for l, _ in top.plus + top.minus] + [top.over]
            new = [l for l in below if l not in done]
            if new:
                stack += [top, *reversed(new)]
                continue
        yield top


def map_label_weights(labels: tuple[Label, ...], fn, shape) -> tuple[Label, ...]:
    """Apply fn to the stored weights of every minor inside the labels.

    The new minors get ``shape``.  Each distinct node is mapped once per
    call, so subtrees shared within and across the labels stay shared in
    the result.
    """
    done: dict[Label, Label] = {}
    for label in labels:
        for top in post_order(label, done):
            if isinstance(top, Minor):
                done[top] = Minor(fn(top.weights), shape)
            else:
                done[top] = Exchange(
                    tuple((done[l], e) for l, e in top.plus),
                    tuple((done[l], e) for l, e in top.minus),
                    done[top.over],
                )
    return tuple(done[l] for l in labels)



# == the seed ==


def dense(pairs, length: int, zero) -> tuple:
    """The tuple of ``length`` items, all ``zero`` but those the (index, item) pairs give.

    ``dense(row, n, 0)`` is a row of b2, and ``dense(ws, *seed.weight_shape)``
    the slot weights of a vertex.
    """
    out = [zero] * length
    for i, x in pairs:
        out[i] = x
    return tuple(out)


# the indices a seed can use, made once: compressing this list yields stored
# ints, where a range makes a new int for each index past 256
_INDICES = list(range(MAX_VERTICES + 1))


def nonzero_pairs(items, length: int, nonzero=None) -> tuple:
    """The (index, item) pairs of a dense list at its true flags in ``nonzero``.

    ``nonzero`` defaults to the items themselves.  This is the one scan of
    a dense list, for input given dense.  A list that is not ``length``
    long gets one more pair, at index ``length``, which check_seed refuses
    as a row that is not square or a vertex with the wrong number of slots.
    """
    size = len(items)
    index = _INDICES if size <= len(_INDICES) else range(size)
    pairs = tuple([(i, items[i]) for i in compress(index, items if nonzero is None else nonzero)])
    return pairs if size == length else pairs + ((length, ()),)


def stored_weights(weights) -> tuple[tuple | None, tuple | None]:
    """(slot_weights, weight_shape) of dense weights, or (None, None).

    Each vertex's weights are a sequence of one weight per slot; each
    nonzero weight is stored as a tuple, so a caller's lists stay out of
    the seed.
    """
    if weights is None:
        return None, None
    slots = len(weights[0]) if weights else 0
    zero = (0,) * len(weights[0][0]) if slots else ()
    pairs = (nonzero_pairs(ws, slots, map(any, ws)) for ws in weights)
    return tuple(tuple([(s, tuple(w)) for s, w in p]) for p in pairs), (slots, zero)


# the stored fields, in the order Seed takes them
_STORED = ("names", "frozen", "mult", "rows", "slot_weights", "weight_shape", "labels")


class Seed:
    """A checked seed; see the module docstring for the stored forms."""

    __slots__ = _STORED + ("_b2",)

    def __init__(self, names, frozen, mult, rows, slot_weights=None, weight_shape=None,
                 labels=None):
        # each sequence as a tuple, so a caller's lists cannot change a
        # checked seed afterwards; the b2 view starts unbuilt
        stored = (names, frozen, mult, rows, slot_weights, weight_shape, labels, None)
        for set_field, value in zip(_SETTERS, stored):
            if value is not None and type(value) is not tuple:
                value = tuple(value)
            set_field(self, value)
        check_seed(self)

    def replace(self, **changes) -> Seed:
        """This seed with some stored fields changed, checked again.

        Any other keyword is Seed's TypeError.
        """
        return Seed(**dict(zip(_STORED, self._key()), **changes))

    def _key(self) -> tuple:
        return (self.names, self.frozen, self.mult, self.rows, self.slot_weights,
                self.weight_shape, self.labels)

    def __eq__(self, other):
        if type(other) is not Seed:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, *_):
        raise AttributeError("Seed is immutable")

    __delattr__ = __setattr__

    @property
    def b2(self) -> tuple[tuple[int, ...], ...]:
        """The dense b2, built from the rows on first use and kept.

        Nothing in confseed reads it: it stays only for the benchmark's
        independent exchange check, which reads ``seed.b2[k][j]``, and goes
        once that check reads the rows.
        """
        if self._b2 is None:
            n = len(self.names)
            _SET_B2(self, tuple(dense(row, n, 0) for row in self.rows))
        return self._b2

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def slots(self) -> int:
        if self.weight_shape is None:
            raise ValueError("seed carries no weights")
        return self.weight_shape[0]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no vertex named {name!r}") from None

    def b(self, src: str, dst: str) -> Q:
        """Exchange-matrix entry b[dst][src] (positive = arrow src -> dst)."""
        return Q(dict(self.rows[self.index(dst)]).get(self.index(src), 0), 2)

    def weight(self, name: str) -> tuple[Weight, ...]:
        slots = self.slots
        return dense(self.slot_weights[self.index(name)], slots, self.weight_shape[1])

    def unfrozen_names(self) -> tuple[str, ...]:
        return tuple(n for n, f in zip(self.names, self.frozen) if not f)

    def __repr__(self):
        n_mut = sum(1 for f in self.frozen if not f)
        return f"Seed({self.size} vertices, {n_mut} unfrozen)"


# the setters of Seed's slots, in _STORED order and then the b2 view;
# called directly, they cost less than object.__setattr__ by name
_SETTERS = tuple(Seed.__dict__[name].__set__ for name in _STORED + ("_b2",))
_SET_B2 = _SETTERS[-1]


# check_seed's refusal of a weight shape a seed file cannot hold
_SHAPE = "the weight shape must be a slot count and a zero weight tuple"


def check_seed(seed: Seed) -> None:
    """Raise ValueError unless seed is well formed.

    Checks, in this order: names that are str, frozen flags that are bool
    and multipliers that are int; unique names; equal field lengths;
    multipliers positive and of at most MAX_ENTRY_BITS bits; a square b2;
    hashable fields, so that no list a caller could change afterwards is
    inside the seed; rows stored as strictly ascending int columns with
    nonzero int entries; a zero diagonal; then, row by row over the nonzero
    entries, entries of at most MAX_ENTRY_BITS bits, skew-symmetrizability
    and even entries at every pair touching an unfrozen vertex; slot
    weights and a weight shape given together, and neither weights nor
    labels on a seed with no vertices; the shape a positive slot count and
    a zero weight of at least one coordinate, as a seed file stores no
    other; one weight tuple per vertex, all with the same number of slots,
    stored as strictly ascending int slots with nonzero weights of the zero
    weight's length, whose coordinates are int of at most MAX_ENTRY_BITS
    bits; then one label per vertex, on a seed with weights, and the label
    rule: each label is a Minor or an Exchange of the seed's weight shape
    whose weight is its vertex's.  A label checked its own fields, and
    computed its weight, when it was made, so the rule is three C-level
    passes, and a loop names the first vertex that breaks it only where
    one fails.  So a checked seed is one that a seed file can hold, and a
    value the loader refuses is refused with the loader's message.
    The first failure names its pair of vertices, or its vertex, where
    there is one.  It runs in O(n + arrows + nonzero slots).
    """
    _require(str, seed.names, "vertex tag {!r} is not a string")
    _require(bool, seed.frozen, "frozen flag {!r} is not a boolean")
    _require(int, seed.mult, "multiplier d {!r} is not a positive integer")
    n = len(seed.names)
    if len(set(seed.names)) != n:
        raise ValueError("vertex names must be unique")
    rows = seed.rows
    if not (len(seed.frozen) == len(seed.mult) == len(rows) == n):
        raise ValueError("field lengths disagree")
    if min(seed.mult, default=1) < 1:
        low = next(d for d in seed.mult if d < 1)
        raise ValueError(f"multiplier d {low} is not a positive integer")
    if max(seed.mult, default=0) >= _TOO_BIG:
        raise ValueError(f"multiplier d over the cap of {MAX_ENTRY_BITS} bits")
    # rows ascend in j, so a column past the end is a row's last
    if any(row and row[-1][0] >= n for row in rows):
        raise ValueError("b2 must be square")
    try:
        hash(seed._key())
    except TypeError:
        raise ValueError("seed fields must be hashable: tuples, not lists") from None
    for name, row in zip(seed.names, rows):
        prev = -1
        for j, b in row:
            if type(j) is not int:
                raise _not_an_index(j, "b2 row", name)
            if j <= prev or not b:
                raise _unstored(j, prev, "b2 row", name)
            if type(b) is not int:
                raise ValueError(f"b2 entry {b!r} is not an integer")
            prev = j
    lookup = dict(enumerate(map(dict, rows)))
    if any(map(dict.__contains__, lookup.values(), range(n))):
        raise ValueError("b2 diagonal must be zero")
    _check_entries(seed, enumerate(rows), lookup)
    slot_weights, shape, labels = seed.slot_weights, seed.weight_shape, seed.labels
    if (slot_weights is None) != (shape is None):
        raise ValueError("slot weights and a weight shape must be given together")
    if not n and (shape is not None or labels is not None):
        raise ValueError("a seed with no vertices carries no weights or labels")
    if slot_weights is not None:
        if not _is_shape(shape):
            raise ValueError(_SHAPE)
        if len(slot_weights) != n:
            raise ValueError("one weight tuple per vertex required")
        if any(ws and ws[-1][0] >= shape[0] for ws in slot_weights):
            raise ValueError("all vertices must use the same number of slots")
        _check_pairs(zip(seed.names, slot_weights), shape, "slot weights")
    if labels is not None:
        if len(labels) != n:
            raise ValueError("one label per vertex required")
        if shape is None:
            raise ValueError("a seed with labels must carry weights")
        # each label checked its weight and shape when it was made
        if not (set(map(type, labels)) <= _LABEL_TYPES
                and set(map(operator.attrgetter("shape"), labels)) == {shape}
                and tuple(map(operator.attrgetter("weights"), labels)) == slot_weights):
            for name, label, own in zip(seed.names, labels, slot_weights):
                if type(label) not in _LABEL_TYPES:
                    raise ValueError(f"the label of {name} holds an object of type "
                                     f"{type(label).__name__}, not a Minor or an Exchange")
                if label.shape != shape:
                    raise ValueError(f"a minor in the label of {name} has weight shape "
                                     f"{label.shape}, not {shape}")
                if label.weights != own:
                    raise ValueError(f"the label of {name} does not have its vertex's weight")


def _require(kind: type, values, message: str) -> None:
    """Refuse the first of the values whose type is not ``kind``, with
    ``message`` formatted on it.

    The types are counted in one C-level pass; the values are walked only
    where one differs.
    """
    types = list(map(type, values))
    if types.count(kind) != len(types):
        raise ValueError(message.format(next(x for x in values if type(x) is not kind)))


def _is_shape(shape) -> bool:
    """Whether shape is a weight shape a seed file can hold: a pair of a
    positive int slot count and a zero weight of at least one int zero."""
    slots, zero = shape if type(shape) is tuple and len(shape) == 2 else (0, ())
    return (type(slots) is int and slots >= 1 and type(zero) is tuple and zero
            and list(map(type, zero)).count(int) == len(zero) and not any(zero))


def _check_pairs(named_pairs, shape, what: str) -> None:
    """Refuse the first fault among (name, pairs) items, each the stored
    (slot, weight) pairs of name's ``what``: a vertex's "slot weights", or
    the "weights" of "a minor".

    Slots must be ints and ascend, and each weight must be nonzero, of the
    length of ``shape``'s zero weight, with int coordinates of at most
    MAX_ENTRY_BITS bits.  Slots past the shape's count are the caller's to
    refuse: as the pairs ascend, only the last can be.
    """
    rank = len(shape[1])
    low, high = -_TOO_BIG, _TOO_BIG
    for name, pairs in named_pairs:
        prev = -1
        for s, w in pairs:
            if type(s) is not int:
                raise _not_an_index(s, what, name)
            if len(w) != rank:
                raise ValueError(f"a weight of {name} does not have {rank} coordinates")
            if s <= prev or not any(w):
                raise _unstored(s, prev, what, name)
            prev = s
            for c in w:
                if type(c) is not int or not low < c < high:
                    raise ValueError(
                        f"weight coordinate {c!r} is not an integer" if type(c) is not int
                        else f"weight coordinate over the cap of {MAX_ENTRY_BITS} bits")


def _not_an_index(i, what: str, name: str) -> ValueError:
    """The refusal of a stored pair whose index is not an int, bools included."""
    return ValueError(f"index {i!r} in the {what} of {name} is not an integer")


def _unstored(i: int, prev: int, what: str, name: str) -> ValueError:
    """The refusal of a stored pair at index i, after one at prev: out of
    order, or else holding a zero."""
    if i <= prev:
        return ValueError(f"index {i} out of order in the {what} of {name}")
    return ValueError(f"stored zero at {i} in the {what} of {name}")


# the least magnitude of more than MAX_ENTRY_BITS bits
_TOO_BIG = 1 << MAX_ENTRY_BITS


def _check_entries(seed: Seed, rows, lookup) -> None:
    """check_seed's three entry tests, row by row, in the order given.

    ``rows`` yields (i, pairs): a row index and the (j, b2[i][j]) entries
    of that row, ascending in j.  An entry is tested where ``lookup`` holds
    row j, as a dict from i to b2[j][i] wherever that is nonzero.  Names,
    frozen flags and multipliers are read from ``seed``.  A zero facing a
    nonzero entry fails from the nonzero side, and zero is even, so the
    zero entries need no visit.
    """
    names, frozen, mult = seed.names, seed.frozen, seed.mult
    low, high = -_TOO_BIG, _TOO_BIG
    for i, pairs in rows:
        d_i, f_i = mult[i], frozen[i]
        for j, b in pairs:
            col = lookup.get(j)
            if col is None:
                continue
            if not low < b < high:
                raise ValueError(
                    f"b2 entry over the cap of {MAX_ENTRY_BITS} bits at ({names[i]},{names[j]})"
                )
            if b * mult[j] != -col.get(i, 0) * d_i:
                raise ValueError(f"not skew-symmetrizable at ({names[i]},{names[j]})")
            if b % 2 and not (f_i and frozen[j]):
                raise ValueError(f"half-integral entry at unfrozen pair ({names[i]},{names[j]})")


def _unchecked(seed: Seed, rows, slot_weights, labels, mult=None) -> Seed:
    """seed with rows, slot weights, labels and, unless None, multipliers
    replaced, for mutate, opposite and langlands_dual.

    Skips check_seed: the caller has checked every entry it wrote, or
    proved that it cannot break a check, and every other field comes from
    seed, which passed the full check_seed.
    """
    out = object.__new__(Seed)
    values = (seed.names, seed.frozen, seed.mult if mult is None else mult, rows, slot_weights,
              seed.weight_shape, labels, None)
    for set_field, value in zip(_SETTERS, values):
        set_field(out, value)
    return out


def unit(d_i: int, d_j: int) -> int:
    """b-value of one unit arrow into a vertex of multiplier d_i from one of d_j."""
    return d_i // gcd(d_i, d_j)


def arrows(seed: Seed):
    """Yield (src, dst, multiplicity) per arrow, multiplicity in unit arrows.

    Multiplicity 1/2 is a dashed (frozen-frozen) half arrow.
    """
    names, mult = seed.names, seed.mult
    for i, row in enumerate(seed.rows):
        for j, b in row:
            if b > 0:
                yield names[j], names[i], Q(b, 2 * unit(mult[i], mult[j]))


# == weights: balance and homogeneity ==


def weight_sum(terms) -> tuple:
    """Sum of c * w over (c, w) pairs, w given as (slot, weight) pairs.

    Visits only the slots the terms give, and returns the (slot, weight)
    pairs of the sum whose weight is nonzero, ascending in slot: the stored
    form of a vertex's weights.
    """
    acc: dict[int, list[int]] = {}
    for c, ws in terms:
        for s, w in ws:
            row = acc.get(s)
            if row is None:
                acc[s] = list(w) if c == 1 else [c * x for x in w]
            else:
                for r, x in enumerate(w):
                    if x:
                        row[r] += c * x
    return tuple([(s, tuple(v)) for s, v in sorted(acc.items()) if any(v)])


def weight_balance(seed: Seed, name: str) -> tuple[Weight, ...]:
    """Per-slot value of sum_j b2[k][j] * w(j) for vertex k: twice the balance."""
    slots = seed.slots
    ws = seed.slot_weights
    total = weight_sum((b, ws[j]) for j, b in seed.rows[seed.index(name)])
    return dense(total, slots, seed.weight_shape[1])


# == mutation ==


def _unfrozen(seed: Seed, at: str) -> int:
    """The index of vertex ``at``, refused unless it is unfrozen."""
    k = seed.index(at)
    if seed.frozen[k]:
        raise ValueError(f"cannot mutate frozen vertex {at!r}")
    return k


def exchange(seed: Seed, at: str) -> tuple[tuple, tuple, tuple | None, Label | None]:
    """The exchange relation A_k * A'_k = M+ + M- at an unfrozen vertex.

    Returns (plus, minus, weight, label): the (j, e) pairs of the two
    monomials M+ and M-, e = |b2[k][j]| / 2 > 0; the weight of A'_k, the
    sum of e * w_j over plus minus w_k, stored as ``mutate`` stores it, as
    (slot, weight) pairs; and the label of A'_k.  The weight is None on a
    seed without weights and the label None on one without labels.  Raises
    ValueError unless the two monomials have equal weights.
    """
    return _exchange(seed, _unfrozen(seed, at), seed.labels)


def _exchange(seed: Seed, k: int, labels):
    """``exchange`` at vertex index k.

    The label is built over ``labels`` and is None when they are; it takes
    the weight summed here, as each label of a checked seed has its
    vertex's weight.  Mutating back collapses it: when the label at k is
    already the exchange with these two sides swapped, A'_k is the label
    that one was built over.
    """
    row_k = seed.rows[k]
    plus = tuple([(j, b // 2) for j, b in row_k if b > 0])
    minus = tuple([(j, -b // 2) for j, b in row_k if b < 0])
    weight = label = None
    ws = seed.slot_weights
    if ws is not None:
        terms = [(e, ws[j]) for j, e in plus]
        # M+ and M- have equal weights when their difference is zero
        if weight_sum(terms + [(-e, ws[j]) for j, e in minus]):
            at = seed.names[k]
            raise ValueError(
                f"mutation at {at} is not weight-homogeneous: {weight_balance(seed, at)}"
            )
        weight = weight_sum(terms + [(-1, ws[k])])
    if labels is not None:
        lp = tuple([(labels[j], e) for j, e in plus])
        lm = tuple([(labels[j], e) for j, e in minus])
        over = labels[k]
        if isinstance(over, Exchange) and over.minus == lp and over.plus == lm:
            label = over.over
        else:
            # the one label made unchecked: its children are a checked
            # seed's labels, each of its vertex's weight and of its shape,
            # and the sides were just balanced and the weight summed
            label = _intern(Exchange, (lp, lm, over), lambda *_: (weight, seed.weight_shape))
    return plus, minus, weight, label


_ENTRY = operator.itemgetter(1)


def mutate(seed: Seed, at: str, *, with_labels: bool = True) -> Seed:
    """Mutate at an unfrozen vertex; involutive, weight-homogeneous.

    Only row k of ``at`` and the rows of its neighbours are written, each
    at k and at k's neighbours, and only that block is checked, diagonal
    first and then row by row, with check_seed's tests and messages; a
    fault inside it is named by the same first pair the full check would
    name.  That is enough: mutation keeps skew-symmetrizability with the
    same multipliers, and every other row is the row object of ``seed``,
    which passed the full check and cannot have changed since.  The new
    weight and label at ``at`` are those of ``exchange``.  The block check
    refuses a b2 entry of more than MAX_ENTRY_BITS bits, and the new weight
    is refused when a coordinate is.
    """
    k = _unfrozen(seed, at)
    rows = seed.rows
    row_k = rows[k]
    # b2[p][q] gains |b2[p][k]| * b2[k][q] + b2[p][k] * |b2[k][q]|, over 4
    # as b2 is doubled: that is b2[p][k] * |b2[k][q]| / 2 where the two
    # entries have one sign and 0 where they differ, so each neighbour p
    # visits only the columns q of its own sign
    ups = [(q, b) for q, b in row_k if b > 0]
    downs = [(q, -b) for q, b in row_k if b < 0]
    new = list(rows)
    new[k] = tuple([(j, -b) for j, b in row_k])
    # block: each written row as {column: entry}
    block = {k: dict(new[k])}
    for p, _ in row_k:
        row = dict(rows[p])
        b_pk = row.get(k, 0)
        for q, a in (ups if b_pk > 0 else downs if b_pk else ()):
            inc = b_pk * a
            if inc % 2:
                raise ValueError("mutation increment not integral")
            row[q] = row.get(q, 0) + inc // 2
        row[k] = -b_pk
        block[p] = row
        new[p] = tuple(sorted(filter(_ENTRY, row.items())))
    order = sorted(block)
    if any(map(dict.get, map(block.get, order), order)):
        raise ValueError("b2 diagonal must be zero")
    _check_entries(seed, zip(order, map(new.__getitem__, order)), block)

    ws, labels = seed.slot_weights, seed.labels if with_labels else None
    _, _, wk, lk = _exchange(seed, k, labels)
    if wk is not None:
        if max(map(abs, chain.from_iterable(w for _, w in wk)), default=0) >= _TOO_BIG:
            raise ValueError(f"weight coordinate over the cap of {MAX_ENTRY_BITS} bits at {at}")
        ws = ws[:k] + (wk,) + ws[k + 1:]
    if lk is not None:
        labels = labels[:k] + (lk,) + labels[k + 1:]
    return _unchecked(seed, tuple(new), ws, labels)


# == X-coordinates and the p-map ==


def p_exponents(seed: Seed, name: str) -> dict[str, int]:
    """Integer row of exponents for X_name = prod_j A_j ** b[name][j]."""
    out = {}
    for j, b in seed.rows[seed.index(name)]:
        if b % 2:
            raise ValueError(f"row {name} has a half-integral entry at {seed.names[j]}")
        out[seed.names[j]] = b // 2
    return out


def monomial(factors) -> tuple[int, int]:
    """prod v ** e over (v, e) pairs, as an int (numerator, denominator).

    Each v is an int or a Fraction and each e an int of either sign.  The
    pair is not reduced, and its denominator is 0 when a v of 0 has a
    negative exponent, so Q(num, den) raises ZeroDivisionError exactly
    where the product of Fractions would.
    """
    num = den = 1
    for v, e in factors:
        if e >= 0:
            num *= v.numerator ** e
            den *= v.denominator ** e
        else:
            num *= v.denominator ** -e
            den *= v.numerator ** -e
    return num, den


def x_from_a(seed: Seed, avals: dict, names=None) -> dict:
    """Push A-values through the p-map, X_i = prod_j A_j ** b[i][j].

    A-values are ints or Fractions; each X-value is one Fraction, built
    from the monomial's int numerator and denominator.
    """
    out = {}
    for name in names if names is not None else seed.unfrozen_names():
        out[name] = Q(*monomial(
            (avals[j], e) for j, e in p_exponents(seed, name).items()
        ))
    return out


def mutate_x(seed: Seed, at: str, xvals: dict) -> dict:
    """Transform X-values under mutation at an unfrozen vertex.

    X'_k = 1/X_k and X'_i = X_i * X_k**[b_ik]+ * (1+X_k)**(-b_ik); values may
    live in any exact field.
    """
    k = _unfrozen(seed, at)
    # column k is nonzero at k's neighbours only; k is unfrozen, so
    # check_seed's parity rule makes each b2[i][k] even
    col = {i: dict(seed.rows[i]).get(k, 0) // 2 for i, _ in seed.rows[k]}
    xk = xvals[at]
    out = {}
    for name, x in xvals.items():
        i = seed.index(name)
        if i == k:
            out[name] = 1 / xk
            continue
        bik = col.get(i, 0)
        val = x
        if bik > 0:
            val = val * xk ** bik
        val = val * (1 + xk) ** (-bik)
        out[name] = val
    return out


# == relabelling: the opposite seed, weight maps, slot moves ==


def opposite(seed: Seed) -> Seed:
    """The opposite seed: every arrow reversed, every other field kept.

    Negating b2 keeps the zero diagonal, the parity and size of every entry
    and skew-symmetrizability with the same multipliers, so the result needs
    no check beyond the one ``seed`` passed.
    """
    rows = tuple(tuple((j, -b) for j, b in row) for row in seed.rows)
    return _unchecked(seed, rows, seed.slot_weights, seed.labels)


def map_weights(seed: Seed, fn) -> Seed:
    """The seed with the linear map fn applied to every weight.

    fn takes and returns one weight of the same length.  One rule,
    ``mapped``, applies it to the nonzero weights of each vertex and,
    through ``map_label_weights``, of each minor inside the labels, so
    shared label subtrees stay shared.  Nonzero weights stay nonzero, as fn
    is invertible wherever a relabelling uses it.  Each new label checks
    itself as it is made, so an image no minor may hold is refused there,
    and the result is checked once.
    """
    def mapped(ws):
        return tuple([(s, fn(w)) for s, w in ws])

    stored, labels = seed.slot_weights, seed.labels
    if stored is not None:
        stored = tuple(map(mapped, stored))
    if labels is not None:
        labels = map_label_weights(labels, mapped, seed.weight_shape)
    return seed.replace(slot_weights=stored, labels=labels)


def moved_fields(seed: Seed, where, slots: int) -> tuple[tuple, tuple, tuple | None]:
    """(slot_weights, weight_shape, labels) of seed with old slot s moved to
    slot where[s] of ``slots``.

    Slots that no old slot moves to carry the zero weight.  One rule,
    ``moved``, moves the nonzero slots of each vertex, or, on a seed with
    labels, of each minor inside them through ``map_label_weights``: each
    label has its vertex's weight, so each vertex stores its moved label's
    very weight tuple, and the two compare by identity.  Nothing is checked
    here but the new labels, as each is made.
    """
    shape = (slots, seed.weight_shape[1])

    def moved(ws):
        return tuple(sorted([(where[s], w) for s, w in ws]))

    if seed.labels is None:
        return tuple(map(moved, seed.slot_weights)), shape, None
    labels = map_label_weights(seed.labels, moved, shape)
    return tuple(map(operator.attrgetter("weights"), labels)), shape, labels


def move_slots(seed: Seed, where, slots: int, **changes) -> Seed:
    """The seed with old slot s moved to slot where[s] of ``slots``, by
    ``moved_fields``.

    Other fields change as ``Seed.replace`` takes them, and the result is
    checked once.
    """
    stored, shape, labels = moved_fields(seed, where, slots)
    return seed.replace(slot_weights=stored, weight_shape=shape, labels=labels, **changes)


def permute_slots(seed: Seed, perm: tuple[int, ...]) -> Seed:
    """Reorder marked-point slots: new slot t carries old slot perm[t].

    Raises ValueError unless perm holds each slot of the seed once.
    """
    if seed.weight_shape is None:
        return seed
    if sorted(perm) != list(range(seed.slots)):
        raise ValueError(f"{tuple(perm)} is not a permutation of the {seed.slots} slots")
    # old slot perm[t] moves to t
    return move_slots(seed, dense(zip(perm, range(len(perm))), len(perm), 0), len(perm))


# langlands_dual's memo, one per weight map: (d, a vertex's stored weights)
# -> that vertex's dual stored weights.  A map's memo goes when the map does,
# and is emptied before it would pass the cap; a verify run fills about 160.
_DUAL_ROWS: WeakKeyDictionary = WeakKeyDictionary()
_DUAL_CAP = 1024


def langlands_dual(seed: Seed, weight_map=None) -> Seed:
    """The dual seed: b'[i][j] = -b[i][j]*d[j]/d[i], d'_i = max(d)/d_i.

    The dual matrix is the transpose of b2.  check_seed enforces
    b2[i][j]*d[j] == -b2[j][i]*d[i], so -b2[i][j]*d[j]/d[i] is exactly
    b2[j][i]: every dual entry is integral and has the parity of b2 at the
    same pair.  So the transpose cannot fail a test that ``seed`` passed:
    names and frozen flags are seed's own, each transposed row ascends and
    holds seed's nonzero entries, ``b2[j][i]*d'_j == -b2[i][j]*d'_i`` is
    seed's skew rule divided by d_i*d_j/max(d), and max(d)//d_i is a
    positive int no larger than max(d).  The result is built unchecked,
    as ``mutate`` and ``opposite`` build theirs.  The seed with no vertices
    is its own dual.

    ``weight_map`` transposes a weight to the dual weight lattice, a linear
    map, and returns an int tuple; the dual vertex weight is
    weight_map(w) / d_v, and zero weights stay zero.  Simply-laced seeds may
    omit it (weights carry over unchanged).  The images are the one new
    thing in the dual, so each distinct nonzero image gets check_seed's
    weight tests in C-level passes; where one fails, the dual is built
    through the checked ``Seed``, which refuses it with check_seed's own
    message.  Labels do not transport; they are dropped.

    The dual stored weights of a vertex depend only on the map, d_v and the
    vertex's stored weights, and a mutation changes one vertex, so each
    map keeps a memo from (d_v, stored weights) to the dual stored weights:
    a vertex seen before under the map costs one lookup and returns the
    same tuple object.  A map must therefore be a pure function.  The memo
    is held weakly by the map and goes with it, and holds at most
    ``_DUAL_CAP`` vertices: it is emptied before a call's new vertices would
    pass the cap, so a long walk under a map kept for the whole process,
    such as ``g2_weight_dual``, holds a bounded memo.  A map that cannot be
    weakly referenced or hashed, ``operator.itemgetter`` for one, gets a
    memo for the one call.  A call enters its new vertices only once all of
    their images have passed, so a refused call stores nothing.
    """
    dmax = max(seed.mult, default=1)
    if any(dmax % d for d in seed.mult):
        raise ValueError("multipliers must divide their maximum")
    new_mult = tuple(dmax // d for d in seed.mult)

    slot_weights = seed.slot_weights
    images = []  # the new nonzero images, each distinct (weight, d) pair's once
    new = {}  # the vertices the memo misses: (d, stored weights) -> dual
    if slot_weights is not None:
        if weight_map is None:
            if dmax != 1:
                raise ValueError("weight_map required unless simply laced")
        else:
            try:
                memo = _DUAL_ROWS.setdefault(weight_map, {})
            except TypeError:  # a map that cannot be weakly referenced or hashed
                memo = {}
            keys = list(zip(seed.mult, slot_weights))
            out = list(map(memo.get, keys))
            if None in out:
                # each distinct weight is mapped once per multiplier; with
                # d = 1 the image is the dual weight itself, and a zero
                # image is kept as () so that it is dropped
                dual: dict[int, dict] = {}
                for v, key in enumerate(keys):
                    if out[v] is not None:
                        continue
                    row = new.get(key)
                    if row is None:
                        d, ws = key
                        cache = dual.setdefault(d, {})
                        row = []
                        for s, w in ws:
                            img = cache.get(w)
                            if img is None:
                                img = weight_map(w)
                                if d != 1:
                                    if any(c % d for c in img):
                                        raise ValueError(
                                            f"dual weight not integral at {seed.names[v]}")
                                    img = tuple(c // d for c in img)
                                if any(img):
                                    images.append(img)
                                else:
                                    img = ()
                                cache[w] = img
                            if img:
                                row.append((s, img))
                        row = new[key] = tuple(row)
                    out[v] = row
            slot_weights = tuple(out)
    # row i lists its columns ascending, so each transposed row does too
    dual_rows = [[] for _ in seed.rows]
    for i, row in enumerate(seed.rows):
        for j, b in row:
            dual_rows[j].append((i, b))
    rows = tuple(map(tuple, dual_rows))
    if images and not _are_weights(images, len(seed.weight_shape[1])):
        return Seed(seed.names, seed.frozen, new_mult, rows, slot_weights, seed.weight_shape)
    if new and len(new) <= _DUAL_CAP:
        if len(memo) + len(new) > _DUAL_CAP:
            memo.clear()
        memo.update(new)
    return _unchecked(seed, rows, slot_weights, None, new_mult)


def _are_weights(images: list, rank: int) -> bool:
    """Whether every image is a weight check_seed lets a seed store: a tuple
    of ``rank`` int coordinates, not bool, of at most MAX_ENTRY_BITS bits.

    Each test is one C-level pass over all the images at once.
    """
    if list(map(type, images)).count(tuple) != len(images) or set(map(len, images)) != {rank}:
        return False
    coords = list(chain.from_iterable(images))
    return (list(map(type, coords)).count(int) == len(coords)
            and -_TOO_BIG < min(coords) and max(coords) < _TOO_BIG)


def _features(seed: Seed) -> list[tuple]:
    """Per vertex (multiplier, frozen, slot weights): what a matching keeps."""
    if seed.weight_shape is None:
        raise ValueError("seeds to compare need weights")
    return list(zip(seed.mult, seed.frozen, seed.slot_weights))


def matches_under(s1: Seed, s2: Seed, mapping: dict) -> bool:
    """Exact comparison under an explicit vertex bijection s1 -> s2."""
    n = s1.size
    if s2.size != n or len(mapping) != n:
        return False
    try:
        perm = [s2.index(mapping[nm]) for nm in s1.names]
    except KeyError:
        return False
    if len(set(perm)) != n:
        return False
    f1, f2 = _features(s1), _features(s2)
    if s1.weight_shape != s2.weight_shape:
        return False
    rows2 = s2.rows
    return all(
        f1[i] == f2[p] and sorted((perm[j], b) for j, b in row) == list(rows2[p])
        for i, (p, row) in enumerate(zip(perm, s1.rows))
    )


# == isomorphism of labeled quivers ==


def quiver_isomorphic(s1: Seed, s2: Seed):
    """Search for a vertex bijection matching b2, weights and multipliers.

    Returns the lexicographically least mapping {s1 name: s2 name} in vertex
    order, or None.
    """
    n = s1.size
    if s2.size != n:
        return None

    def keys(seed):
        feats = _features(seed)
        profiles = (
            tuple(sorted((b, feats[j]) for j, b in row)) for row in seed.rows
        )
        return list(zip(feats, profiles))

    keys1, keys2 = keys(s1), keys(s2)
    if s1.weight_shape != s2.weight_shape:
        return None
    by_key: dict[tuple, list[int]] = {}
    for j, key in enumerate(keys2):
        by_key.setdefault(key, []).append(j)
    cands = [by_key.get(key) for key in keys1]
    if None in cands:
        return None

    rows1, rows2 = s1.rows, s2.rows
    assigned = [0] * n
    used = [False] * n
    # depth-first over vertex i = 0, 1, ... with an explicit stack: pos[i] is
    # the next position to try in cands[i], so a 1,000-vertex seed needs no
    # Python recursion, and trying candidates in list order makes the first
    # full mapping the least one
    pos = [0] * (n + 1)
    i = 0
    while i < n:
        if pos[i] == len(cands[i]):
            if i == 0:
                return None
            i -= 1
            used[assigned[i]] = False
            continue
        j = cands[i][pos[i]]
        pos[i] += 1
        # b2[i][p] for the placed p < i must be b2[j][assigned[p]], nonzero
        # entries on both sides alike; with equal multipliers,
        # skew-symmetrizability makes a match of b2[i][p] a match of
        # b2[p][i] too
        if used[j] or (
            {assigned[p]: b for p, b in rows1[i] if p < i}
            != {c: b for c, b in rows2[j] if used[c]}
        ):
            continue
        assigned[i] = j
        used[j] = True
        i += 1
        pos[i] = 0
    return {s1.names[i]: s2.names[assigned[i]] for i in range(n)}
