"""Dense references for the differential tests of the sparse seed kernels.

A Seed stores only its nonzero rows and slot weights.  ``dense_seed``
builds one from a dense n x n b2 and dense weights, and ``dense_weights``
expands a seed's weights back, one tuple of slot weights per vertex.  Each
reference states its rule over every entry of the dense b2, or every slot
of the dense weights, and reads a seed only through ``b2`` and
``dense_weights``.  The kernels in ``confseed`` visit only the stored
nonzero rows and slots; the tests require the two to agree.
"""
from __future__ import annotations

from confseed import seed_core
from confseed.root_data import MAX_ENTRY_BITS
from confseed.seed_core import Exchange, Minor, Seed, dense, nonzero_pairs, stored_weights


def dense_seed(names, frozen, mult, b2, weights=None, labels=None) -> Seed:
    """The Seed of a dense b2 and dense weights, checked by check_seed.

    A row or weight list of the wrong length keeps the one extra pair that
    ``nonzero_pairs`` gives it, so check_seed refuses it as it refuses
    such a row or vertex in a seed file.
    """
    rows = tuple(nonzero_pairs(tuple(row), len(names)) for row in b2)
    return Seed(names, frozen, mult, rows, *stored_weights(weights), labels)


def dense_minor(weights) -> Minor:
    """The Minor of dense weights, one per slot, stored as a vertex's are."""
    (pairs,), shape = stored_weights((weights,))
    return Minor(pairs, shape)


def dense_weights(seed: Seed):
    """The dense weights of a seed, one tuple of slot weights per vertex, or None."""
    if seed.weight_shape is None:
        return None
    return tuple(dense(ws, *seed.weight_shape) for ws in seed.slot_weights)


def reference_check_seed(names, frozen, mult, b2, weights=None, labels=None) -> None:
    """check_seed's rules over the dense fields, in check_seed's order: O(n^2).

    Every entry of every row is visited, so this raises the message, and
    names the first offending pair, that the sparse check must raise.  Each
    label's weight is found by ``dense_label_weight``, vertex by vertex.
    """
    for kind, values, message in ((str, names, "vertex tag {!r} is not a string"),
                                  (bool, frozen, "frozen flag {!r} is not a boolean"),
                                  (int, mult, "multiplier d {!r} is not a positive integer")):
        for x in values:
            if type(x) is not kind:
                raise ValueError(message.format(x))
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("vertex names must be unique")
    if not (len(frozen) == len(mult) == len(b2) == n):
        raise ValueError("field lengths disagree")
    for d in mult:
        if d < 1:
            raise ValueError(f"multiplier d {d} is not a positive integer")
    if any(d.bit_length() > MAX_ENTRY_BITS for d in mult):
        raise ValueError(f"multiplier d over the cap of {MAX_ENTRY_BITS} bits")
    if any(len(row) != n for row in b2):
        raise ValueError("b2 must be square")
    for b in (b for row in b2 for b in row):
        # a zero entry is not stored, whatever its type
        if b and type(b) is not int:
            raise ValueError(f"b2 entry {b!r} is not an integer")
    if any(row[i] != 0 for i, row in enumerate(b2)):
        raise ValueError("b2 diagonal must be zero")
    for i, row in enumerate(b2):
        for j in range(n):
            b = row[j]
            if not b:
                continue
            if b.bit_length() > MAX_ENTRY_BITS:
                raise ValueError(
                    f"b2 entry over the cap of {MAX_ENTRY_BITS} bits at ({names[i]},{names[j]})"
                )
            if b * mult[j] != -b2[j][i] * mult[i]:
                raise ValueError(f"not skew-symmetrizable at ({names[i]},{names[j]})")
            if b % 2 and not (frozen[i] and frozen[j]):
                raise ValueError(f"half-integral entry at unfrozen pair ({names[i]},{names[j]})")
    if not n and (weights is not None or labels is not None):
        raise ValueError("a seed with no vertices carries no weights or labels")
    if weights is not None:
        if len(weights) != n:
            raise ValueError("one weight tuple per vertex required")
        if any(len(ws) != len(weights[0]) for ws in weights):
            raise ValueError("all vertices must use the same number of slots")
        _check_coordinates(weights)
    if labels is not None:
        if len(labels) != n:
            raise ValueError("one label per vertex required")
        if weights is None:
            raise ValueError("a seed with labels must carry weights")
        shape = (len(weights[0]), len(weights[0][0]))
        found = {}
        for name, label, own in zip(names, labels, weights):
            if dense_label_weight(label, shape, found, name) != tuple(map(tuple, own)):
                raise ValueError(f"the label of {name} does not have its vertex's weight")


def _check_coordinates(weights) -> None:
    """Refuse the first coordinate of the dense weights no seed stores."""
    # a zero weight is not stored, whatever its coordinates' types
    for c in (c for ws in weights for w in ws if any(w) for c in w):
        if type(c) is not int:
            raise ValueError(f"weight coordinate {c!r} is not an integer")
        if c.bit_length() > MAX_ENTRY_BITS:
            raise ValueError(f"weight coordinate over the cap of {MAX_ENTRY_BITS} bits")


def dense_label_weight(label, shape, found: dict, name: str = "") -> tuple:
    """The dense weight of a label on a seed of ``shape``, (slots, rank).

    A minor's weight is its dense weights, and an exchange's is the sum of e * w over plus less the weight of
    over, its two sides of equal weight.  Each node's weight is entered in
    ``found``, children first in the order plus, minus, over, so a fault is
    named as check_seed names it, by vertex ``name``.  Recursive: the tests'
    labels are shallow.
    """
    if label in found:
        return found[label]
    slots, rank = shape
    if isinstance(label, Exchange):
        for part, _ in label.plus + label.minus + ((label.over, 1),):
            dense_label_weight(part, shape, found, name)

        def side(terms):
            return tuple(tuple(sum(e * found[l][s][r] for l, e in terms) for r in range(rank))
                         for s in range(slots))

        plus = side(label.plus)
        if plus != side(label.minus):
            raise ValueError(f"an exchange in the label of {name} is not weight-homogeneous")
        weight = side(label.plus + ((label.over, -1),))
    elif isinstance(label, Minor):
        want = (slots, (0,) * rank)
        if label.shape != want:
            raise ValueError(
                f"a minor in the label of {name} has weight shape {label.shape}, not {want}")
        weight = dense(label.weights, *label.shape)
        _check_coordinates((weight,))
    else:
        raise ValueError(f"the label of {name} holds an object of type "
                         f"{type(label).__name__}, not a Minor or an Exchange")
    found[label] = weight
    return weight


def plant(seed: Seed, b2) -> Seed:
    """A copy of seed holding the dense b2, made past every check."""
    rows = tuple(tuple((j, b) for j, b in enumerate(row) if b) for row in b2)
    return seed_core._unchecked(seed, rows, seed.slot_weights, seed.labels)


def dense_mutate_b2(b2, k):
    """The mutation rule applied to every entry of b2."""
    n = len(b2)
    out = []
    for p in range(n):
        row = []
        for q in range(n):
            if p == k or q == k:
                row.append(-b2[p][q])
            else:
                num = abs(b2[p][k]) * b2[k][q] + b2[p][k] * abs(b2[k][q])
                assert num % 4 == 0
                row.append(b2[p][q] + num // 4)
        out.append(tuple(row))
    return tuple(out)


def dense_exchange(seed: Seed, k: int):
    """exchange's sides, weight and label over every column of row k."""
    row, ws, labels = seed.b2[k], dense_weights(seed), seed.labels
    plus = tuple((j, b // 2) for j, b in enumerate(row) if b > 0)
    minus = tuple((j, -b // 2) for j, b in enumerate(row) if b < 0)

    def side(terms):
        return [
            [sum(e * ws[j][s][r] for j, e in terms) for r in range(len(ws[k][s]))]
            for s in range(len(ws[k]))
        ]

    assert side(plus) == side(minus)
    weight = tuple(
        tuple(p - w for p, w in zip(ps, wk)) for ps, wk in zip(side(plus), ws[k])
    )
    label = None
    if labels is not None:
        lp = tuple((labels[j], e) for j, e in plus)
        lm = tuple((labels[j], e) for j, e in minus)
        old = labels[k]
        if isinstance(old, Exchange) and (old.plus, old.minus) == (lm, lp):
            label = old.over
        else:
            label = Exchange(lp, lm, old)
    return plus, minus, weight, label


def dense_dual_b2(seed: Seed):
    """b'[i][j] = -b[i][j] * d[j] / d[i] over every entry."""
    out = []
    for i in range(seed.size):
        row = []
        for j in range(seed.size):
            num = -seed.b2[i][j] * seed.mult[j]
            assert num % seed.mult[i] == 0
            row.append(num // seed.mult[i])
        out.append(tuple(row))
    return tuple(out)


def reference_amalgamate(a: Seed, b: Seed, pairs) -> Seed:
    """Gluing vertex by vertex through name lookups, as a slow reference."""
    partner = {q: p for p, q in pairs}
    names = list(a.names) + [nm for nm in b.names if nm not in partner]
    pos = {nm: i for i, nm in enumerate(names)}

    def spot(seed, nm):
        if seed is b and nm in partner:
            nm = partner[nm]
        return pos[nm]

    total = len(names)
    big = [[0] * total for _ in range(total)]
    for seed in (a, b):
        for i, ni in enumerate(seed.names):
            for j, nj in enumerate(seed.names):
                if seed.b2[i][j]:
                    big[spot(seed, ni)][spot(seed, nj)] += seed.b2[i][j]

    merged_names = set(partner.values())
    frozen = []
    mult = []
    a_weights, b_weights = dense_weights(a), dense_weights(b)
    weights = [] if a_weights is not None and b_weights is not None else None
    labels = [] if a.labels is not None and b.labels is not None else None
    for nm in names:
        if nm in a.names:
            i = a.index(nm)
            frozen.append(False if nm in merged_names else a.frozen[i])
            mult.append(a.mult[i])
            if weights is not None:
                weights.append(a_weights[i])
            if labels is not None:
                labels.append(a.labels[i])
        else:
            i = b.index(nm)
            frozen.append(b.frozen[i])
            mult.append(b.mult[i])
            if weights is not None:
                weights.append(b_weights[i])
            if labels is not None:
                labels.append(b.labels[i])
    return dense_seed(
        tuple(names),
        tuple(frozen),
        tuple(mult),
        tuple(tuple(row) for row in big),
        tuple(weights) if weights is not None else None,
        tuple(labels) if labels is not None else None,
    )


def reference_fold(pieces, pairs) -> Seed:
    """The pieces glued one at a time, in order, with reference_amalgamate:
    the sequential gluing that one amalgamate pass replaces.  A piece given
    as a record of stored fields is first made the checked Seed of them."""
    pieces = [p if isinstance(p, Seed) else Seed(*p) for p in pieces]
    placed = pieces[0]
    for b in pieces[1:]:
        step = [(p, q) for p, q in pairs if q in b.names]
        placed = reference_amalgamate(placed, b, step)
    return placed
