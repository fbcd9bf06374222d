"""Cluster seeds: exchange matrices with multipliers, weights, and labels.

A seed stores ``b2``, twice the exchange matrix, so that the half-integral
entries allowed between frozen vertices stay integral.  Invariants enforced
throughout:

* b2 is skew-symmetrizable: b2[i][j]*d[j] == -b2[j][i]*d[i];
* any entry touching an unfrozen vertex is even (b itself is integral there);
* the diagonal is zero;
* no entry has more than MAX_ENTRY_BITS bits.

``b2`` is a dense tuple of int rows, but the kernels that scan it
(``check_seed``, ``mutate``, ``arrows``, ``p_exponents``, ``matches_under``,
``quiver_isomorphic``) visit only its nonzero entries: by
skew-symmetrizability b2[i][j] and b2[j][i] are zero together, so a mutation
rewrites only the rows of the mutated vertex's neighbours.  The same rule
makes the Langlands dual's matrix the transpose of ``b2``, so
``langlands_dual`` scans no row at all.

Every way to make a seed runs the full ``check_seed``, except ``mutate``
and ``opposite``.  A seed stores its sequence fields as tuples, so a
checked seed stays checked.  Mutation keeps skew-symmetrizability with the
same multipliers (Fomin and Zelevinsky, "Cluster algebras I", 2002,
Section 4) and writes only the block of rows and columns at the mutated
vertex and its neighbours; ``mutate`` checks that block with
``check_seed``'s own tests and messages, and every entry outside it is an
entry of the checked seed it started from.  A mutation step therefore
costs O(n * deg), deg the number of neighbours, where a full check would
cost O(n^2).

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
systems and higher Teichmuller theory", 2006).  ``map_weights`` applies one
map to every slot-weight tuple, a vertex's and those inside its label alike:
slot permutations, the embedding of a triangle into a polygon's slots, and
diagram automorphisms acting on weight coordinates all go through it.

Arrow convention: an arrow from vertex j to vertex i means b[i][j] > 0.  A
unit arrow between vertices with multipliers (d_i, d_j) contributes
d_i // gcd(d_i, d_j) to b[i][j]; drawn multiplicity is b over that unit, and
a half unit ("dashed") can only join two frozen vertices.

Each vertex optionally carries one weight per marked point ("slot") and a
label recording which function on the configuration space it denotes: either
an atomic wedge invariant (Minor) or an exchange tree (Exchange).  Weights are
int tuples and weight balances are doubled like b2; only b = b2/2, arrow
multiplicities and X-values are Fractions.

Labels are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006).  ``Minor(weights)`` and ``Exchange(plus, minus, over)``
look their fields up in one intern table and return the label already stored
there, so structurally equal labels are one object.  Equality and hashing are
therefore the object defaults, identity in O(1), although mutation makes the
trees grow exponentially in depth: the cost follows the DAG of distinct
nodes, which grows by at most one node per mutation.  The table is a
``WeakValueDictionary``; a label leaves it once no seed or label refers to
it.  Labels are immutable, and ``post_order`` is the one walker over them:
it visits each distinct node once with an explicit stack, so no label code
recurses however deep a walk nests the trees.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, fields, replace
from fractions import Fraction as Q
from itertools import chain, compress
from math import gcd
from weakref import WeakValueDictionary

from .root_data import MAX_ENTRY_BITS, Weight

# == labels ==

# the intern table: weight tuple -> Minor, (plus, minus, over) -> Exchange.
# The two key shapes never compare equal, since an Exchange key ends in a
# label and a weight tuple ends in a weight.
_LABELS: WeakValueDictionary = WeakValueDictionary()


class _Label:
    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _intern(cls, key, **fields):
    """The label stored under key, made from fields on first request."""
    label = _LABELS.get(key)
    if label is None:
        label = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(label, name, value)
        _LABELS[key] = label
    return label


class Minor(_Label):
    """An atomic invariant, determined by its weight tuple alone."""

    __slots__ = ("weights",)

    def __new__(cls, weights: tuple[Weight, ...]):
        return _intern(cls, weights, weights=weights)

    def __repr__(self):
        return f"Minor(weights={self.weights!r})"


class Exchange(_Label):
    """(plus + minus) / over, each side a monomial in other labels."""

    __slots__ = ("plus", "minus", "over")

    def __new__(cls, plus: tuple[tuple["Label", int], ...],
                minus: tuple[tuple["Label", int], ...], over: "Label"):
        return _intern(cls, (plus, minus, over), plus=plus, minus=minus, over=over)

    def __repr__(self):
        # this node alone: the whole tree can be exponentially large
        return f"Exchange(<{len(self.plus)} plus, {len(self.minus)} minus factors>)"


Label = Minor | Exchange


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


def map_label_weights(labels: tuple[Label, ...], fn) -> tuple[Label, ...]:
    """Apply fn to every weight tuple inside the labels.

    Each distinct node is mapped once per call, so subtrees shared within
    and across the labels stay shared in the result.
    """
    done: dict[Label, Label] = {}
    for label in labels:
        for top in post_order(label, done):
            if isinstance(top, Minor):
                done[top] = Minor(fn(top.weights))
            else:
                done[top] = Exchange(
                    tuple((done[l], e) for l, e in top.plus),
                    tuple((done[l], e) for l, e in top.minus),
                    done[top.over],
                )
    return tuple(done[l] for l in labels)


# == the seed ==


@dataclass(frozen=True)
class Seed:
    names: tuple[str, ...]
    frozen: tuple[bool, ...]
    mult: tuple[int, ...]
    b2: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[Weight, ...], ...] | None = None
    labels: tuple[Label, ...] | None = None

    def __post_init__(self):
        # a caller's lists would let a checked seed change afterwards, so
        # every sequence field check_seed reads is stored as a tuple
        for name in ("names", "frozen", "mult", "labels"):
            value = getattr(self, name)
            if value is not None and type(value) is not tuple:
                object.__setattr__(self, name, tuple(value))
        for name in ("b2", "weights"):
            rows = getattr(self, name)
            if rows is not None and (
                type(rows) is not tuple
                or not all(type(row) is tuple for row in rows)
            ):
                object.__setattr__(self, name, tuple(map(tuple, rows)))
        check_seed(self)

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def slots(self) -> int:
        if self.weights is None:
            raise ValueError("seed carries no weights")
        return len(self.weights[0])

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no vertex named {name!r}") from None

    def b(self, src: str, dst: str) -> Q:
        """Exchange-matrix entry b[dst][src] (positive = arrow src -> dst)."""
        return Q(self.b2[self.index(dst)][self.index(src)], 2)

    def weight(self, name: str) -> tuple[Weight, ...]:
        if self.weights is None:
            raise ValueError("seed carries no weights")
        return self.weights[self.index(name)]

    def unfrozen_names(self) -> tuple[str, ...]:
        return tuple(n for n, f in zip(self.names, self.frozen) if not f)

    def __repr__(self):
        n_mut = sum(1 for f in self.frozen if not f)
        return f"Seed({self.size} vertices, {n_mut} unfrozen)"


_FIELDS = tuple(f.name for f in fields(Seed))


def check_seed(seed: Seed) -> None:
    """Raise ValueError unless seed is well formed.

    Checks, in this order: unique names; equal field lengths; positive
    multipliers; a square b2 with zero diagonal; then, row by row over the
    nonzero entries, entries of at most MAX_ENTRY_BITS bits,
    skew-symmetrizability and even entries at every pair touching an
    unfrozen vertex; one weight tuple per vertex, all with the
    same number of slots; one label per vertex.  The first failure names
    its pair of vertices where there is one.
    """
    n = len(seed.names)
    if len(set(seed.names)) != n:
        raise ValueError("vertex names must be unique")
    if not (len(seed.frozen) == len(seed.mult) == len(seed.b2) == n):
        raise ValueError("field lengths disagree")
    if any(d < 1 for d in seed.mult):
        raise ValueError("multipliers must be positive")
    b2 = seed.b2
    if any(len(row) != n for row in b2):
        raise ValueError("b2 must be square")
    if any(row[i] != 0 for i, row in enumerate(b2)):
        raise ValueError("b2 diagonal must be zero")
    _check_entries(seed, b2, enumerate(compress(range(n), row) for row in b2))
    if seed.weights is not None:
        if len(seed.weights) != n:
            raise ValueError("one weight tuple per vertex required")
        slots = len(seed.weights[0])
        if any(len(w) != slots for w in seed.weights):
            raise ValueError("all vertices must use the same number of slots")
    if seed.labels is not None and len(seed.labels) != n:
        raise ValueError("one label per vertex required")


# the least magnitude of more than MAX_ENTRY_BITS bits
_TOO_BIG = 1 << MAX_ENTRY_BITS


def _check_entries(seed: Seed, b2, rows) -> None:
    """check_seed's three entry tests, row by row, in the order given.

    ``rows`` yields (i, js): a row index of ``b2`` and the columns of its
    nonzero entries to test.  ``b2`` may differ from ``seed.b2``; names,
    frozen flags and multipliers are read from ``seed``.  A zero facing a
    nonzero entry fails from the nonzero side, and zero is even, so the
    zero entries need no visit.
    """
    names, frozen, mult = seed.names, seed.frozen, seed.mult
    for i, js in rows:
        row, d_i, f_i = b2[i], mult[i], frozen[i]
        for j in js:
            b = row[j]
            if not -_TOO_BIG < b < _TOO_BIG:
                raise ValueError(
                    f"b2 entry over the cap of {MAX_ENTRY_BITS} bits at ({names[i]},{names[j]})"
                )
            if b * mult[j] != -b2[j][i] * d_i:
                raise ValueError(f"not skew-symmetrizable at ({names[i]},{names[j]})")
            if b % 2 and not (f_i and frozen[j]):
                raise ValueError(f"half-integral entry at unfrozen pair ({names[i]},{names[j]})")


def _unchecked(seed: Seed, b2, weights, labels) -> Seed:
    """seed with b2, weights and labels replaced, for mutate and opposite.

    Skips __post_init__: the caller has checked every entry it wrote, or
    proved that it cannot break a check, and every other field comes from
    seed, which passed the full check_seed.
    """
    out = object.__new__(Seed)
    # field by field in field order, as __init__ does, so that CPython keeps
    # the values inline rather than building a __dict__ for each seed
    for name, value in zip(_FIELDS, (seed.names, seed.frozen, seed.mult,
                                     b2, weights, labels)):
        object.__setattr__(out, name, value)
    return out


def unit(d_i: int, d_j: int) -> int:
    """b-value of one unit arrow into a vertex of multiplier d_i from one of d_j."""
    return d_i // gcd(d_i, d_j)


def arrows(seed: Seed):
    """Yield (src, dst, multiplicity) per arrow, multiplicity in unit arrows.

    Multiplicity 1/2 is a dashed (frozen-frozen) half arrow.
    """
    n = seed.size
    for i, row in enumerate(seed.b2):
        for j in compress(range(n), row):
            if row[j] > 0:
                u = unit(seed.mult[i], seed.mult[j])
                yield seed.names[j], seed.names[i], Q(row[j], 2 * u)


# == weights: balance and homogeneity ==


def weight_sum(terms, slots: int, rank: int) -> tuple[Weight, ...]:
    """Per-slot sum of c * w over (c, w) pairs, w holding one weight per slot."""
    acc = [[0] * rank for _ in range(slots)]
    for c, ws in terms:
        for row, w in zip(acc, ws):
            for r, x in enumerate(w):
                if x:
                    row[r] += c * x
    return tuple(map(tuple, acc))


def weight_balance(seed: Seed, name: str) -> tuple[Weight, ...]:
    """Per-slot value of sum_j b2[k][j] * w(j) for vertex k: twice the balance."""
    row = seed.b2[seed.index(name)]
    return weight_sum(
        ((b, w) for b, w in zip(row, seed.weights) if b),
        seed.slots, len(seed.weights[0][0]),
    )


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
    sum of e * w_j over plus minus w_k; and the label of A'_k.  The weight
    is None on a seed without weights and the label None on one without
    labels.  Raises ValueError unless the two monomials have equal weights.
    """
    k = _unfrozen(seed, at)
    return _exchange(seed, k, list(compress(range(seed.size), seed.b2[k])), seed.labels)


def _exchange(seed: Seed, k: int, nbrs: list[int], labels):
    """``exchange`` at vertex index k, whose nonzero columns are nbrs.

    The label is built over ``labels`` and is None when they are.  Mutating
    back collapses it: when the label at k is already the exchange with
    these two sides swapped, A'_k is the label that one was built over.
    """
    row_k = seed.b2[k]
    plus = tuple((j, row_k[j] // 2) for j in nbrs if row_k[j] > 0)
    minus = tuple((j, -row_k[j] // 2) for j in nbrs if row_k[j] < 0)
    weight = label = None
    ws = seed.weights
    if ws is not None:
        slots, rank = len(ws[0]), len(ws[0][0])
        pos = weight_sum(((e, ws[j]) for j, e in plus), slots, rank)
        if pos != weight_sum(((e, ws[j]) for j, e in minus), slots, rank):
            at = seed.names[k]
            raise ValueError(
                f"mutation at {at} is not weight-homogeneous: {weight_balance(seed, at)}"
            )
        weight = tuple(tuple(map(operator.sub, ps, qs)) for ps, qs in zip(pos, ws[k]))
    if labels is not None:
        lp = tuple((labels[j], e) for j, e in plus)
        lm = tuple((labels[j], e) for j, e in minus)
        over = labels[k]
        if isinstance(over, Exchange) and over.minus == lp and over.plus == lm:
            label = over.over
        else:
            label = Exchange(lp, lm, over)
    return plus, minus, weight, label


def mutate(seed: Seed, at: str, *, with_labels: bool = True) -> Seed:
    """Mutate at an unfrozen vertex; involutive, weight-homogeneous.

    Only the block of rows and columns at ``at`` and its neighbours is
    written, and only that block is checked, diagonal first and then row by
    row, with check_seed's tests and messages; a fault inside it is named by
    the same first pair the full check would name.  That is enough: mutation
    keeps skew-symmetrizability with the same multipliers, and every entry
    outside the block is unchanged from ``seed``, which passed the full
    check and cannot have changed since.  The new weight and label at
    ``at`` are those of ``exchange``.  The block check refuses a b2 entry
    of more than MAX_ENTRY_BITS bits, and the new weight is refused when a
    coordinate is.
    """
    k = _unfrozen(seed, at)
    old = seed.b2
    row_k = old[k]
    # only rows and columns of neighbours change; the others get increment 0
    nbrs = list(compress(range(seed.size), row_k))
    new_b2 = list(old)
    new_b2[k] = tuple(map(operator.neg, row_k))
    for p in nbrs:
        b_pk = old[p][k]
        row = list(old[p])
        for q in nbrs:
            num = abs(b_pk) * row_k[q] + b_pk * abs(row_k[q])
            if num % 4:
                raise ValueError("mutation increment not integral")
            row[q] += num // 4
        row[k] = -b_pk
        new_b2[p] = tuple(row)
    block = sorted(nbrs + [k])
    if any(new_b2[i][i] for i in block):
        raise ValueError("b2 diagonal must be zero")
    _check_entries(seed, new_b2, (
        (i, [j for j in block if new_b2[i][j]]) for i in block
    ))

    ws, labels = seed.weights, seed.labels if with_labels else None
    _, _, wk, lk = _exchange(seed, k, nbrs, labels)
    if wk is not None:
        if max(map(abs, chain.from_iterable(wk)), default=0) >= _TOO_BIG:
            raise ValueError(f"weight coordinate over the cap of {MAX_ENTRY_BITS} bits at {at}")
        ws = ws[:k] + (wk,) + ws[k + 1:]
    if lk is not None:
        labels = labels[:k] + (lk,) + labels[k + 1:]
    return _unchecked(seed, tuple(new_b2), ws, labels)


# == X-coordinates and the p-map ==


def p_exponents(seed: Seed, name: str) -> dict[str, int]:
    """Integer row of exponents for X_name = prod_j A_j ** b[name][j]."""
    row = seed.b2[seed.index(name)]
    out = {}
    for j in compress(range(seed.size), row):
        if row[j] % 2:
            raise ValueError(f"row {name} has a half-integral entry at {seed.names[j]}")
        out[seed.names[j]] = row[j] // 2
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
    xk = xvals[at]
    out = {}
    for name, x in xvals.items():
        i = seed.index(name)
        if i == k:
            out[name] = 1 / xk
            continue
        # k is unfrozen, so check_seed's parity rule makes b2[i][k] even
        bik = seed.b2[i][k] // 2
        val = x
        if bik > 0:
            val = val * xk ** bik
        val = val * (1 + xk) ** (-bik)
        out[name] = val
    return out


# == relabelling: the opposite seed, weight maps, slot permutations ==


def opposite(seed: Seed) -> Seed:
    """The opposite seed: every arrow reversed, every other field kept.

    Negating b2 keeps the zero diagonal, the parity and size of every entry
    and skew-symmetrizability with the same multipliers, so the result needs
    no check beyond the one ``seed`` passed.
    """
    b2 = tuple(tuple(map(operator.neg, row)) for row in seed.b2)
    return _unchecked(seed, b2, seed.weights, seed.labels)


def map_weights(seed: Seed, fn) -> tuple[tuple | None, tuple[Label, ...] | None]:
    """(weights, labels) with fn applied to every slot-weight tuple.

    fn takes and returns one tuple of slot weights; it is applied to each
    vertex's weights and, through ``map_label_weights``, to every weight
    tuple inside the labels, so shared label subtrees stay shared.  Either
    part is None where the seed has none.
    """
    weights, labels = seed.weights, seed.labels
    return (None if weights is None else tuple(map(fn, weights)),
            None if labels is None else map_label_weights(labels, fn))


def permute_slots(seed: Seed, perm: tuple[int, ...]) -> Seed:
    """Reorder marked-point slots: new slot t carries old slot perm[t].

    Raises ValueError unless perm holds each slot of the seed once.
    """
    if seed.weights is None:
        return seed
    if sorted(perm) != list(range(seed.slots)):
        raise ValueError(f"{tuple(perm)} is not a permutation of the {seed.slots} slots")
    weights, labels = map_weights(seed, lambda ws: tuple(ws[p] for p in perm))
    return replace(seed, weights=weights, labels=labels)


def langlands_dual(seed: Seed, weight_map=None) -> Seed:
    """The dual seed: b'[i][j] = -b[i][j]*d[j]/d[i], d'_i = max(d)/d_i.

    The dual matrix is the transpose of b2.  check_seed enforces
    b2[i][j]*d[j] == -b2[j][i]*d[i], so -b2[i][j]*d[j]/d[i] is exactly
    b2[j][i]: every dual entry is integral and has the parity of b2 at the
    same pair.  The result still runs the full check_seed.

    ``weight_map`` transposes a weight to the dual weight lattice and returns
    an int tuple; the dual vertex weight is weight_map(w) / d_v.
    Simply-laced seeds may omit it (weights carry over unchanged).  Labels
    do not transport; they are dropped.
    """
    dmax = max(seed.mult)
    if any(dmax % d for d in seed.mult):
        raise ValueError("multipliers must divide their maximum")
    new_mult = tuple(dmax // d for d in seed.mult)

    new_weights = seed.weights
    if seed.weights is not None:
        if weight_map is None:
            if dmax != 1:
                raise ValueError("weight_map required unless simply laced")
        else:
            # each distinct (weight, d) pair is mapped once; with d = 1 the
            # image is the dual weight itself
            dual: dict[tuple, Weight] = {}
            rows = []
            for v, (d, ws) in enumerate(zip(seed.mult, seed.weights)):
                row = []
                for w in ws:
                    img = dual.get((w, d))
                    if img is None:
                        img = weight_map(w)
                        if d != 1:
                            if any(c % d for c in img):
                                raise ValueError(f"dual weight not integral at {seed.names[v]}")
                            img = tuple(c // d for c in img)
                        dual[w, d] = img
                    row.append(img)
                rows.append(tuple(row))
            new_weights = tuple(rows)
    return replace(
        seed, mult=new_mult, b2=tuple(zip(*seed.b2)), weights=new_weights, labels=None
    )


def _nonzero_rows(seed: Seed) -> list[dict[int, int]]:
    """Each b2 row as {column: entry} over its nonzero entries only."""
    n = seed.size
    return [{j: row[j] for j in compress(range(n), row)} for row in seed.b2]


def _features(seed: Seed) -> list[tuple]:
    """Per vertex (multiplier, frozen, weight tuple): what a matching keeps."""
    if seed.weights is None:
        raise ValueError("seeds to compare need weights")
    return list(zip(seed.mult, seed.frozen, seed.weights))


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
    rows2 = _nonzero_rows(s2)
    return all(
        f1[i] == f2[p] and {perm[j]: b for j, b in row.items()} == rows2[p]
        for i, (p, row) in enumerate(zip(perm, _nonzero_rows(s1)))
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
            tuple(sorted((b, feats[j]) for j, b in row.items()))
            for row in _nonzero_rows(seed)
        )
        return list(zip(feats, profiles))

    by_key: dict[tuple, list[int]] = {}
    for j, key in enumerate(keys(s2)):
        by_key.setdefault(key, []).append(j)
    cands = [by_key.get(key) for key in keys(s1)]
    if None in cands:
        return None

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
        # with equal multipliers, skew-symmetrizability makes a match of
        # b2[i][p] a match of b2[p][i] too
        if used[j] or any(
            s2.b2[j][assigned[p]] != s1.b2[i][p] for p in range(i)
        ):
            continue
        assigned[i] = j
        used[j] = True
        i += 1
        pos[i] = 0
    return {s1.names[i]: s2.names[assigned[i]] for i in range(n)}
