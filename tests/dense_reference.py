"""Dense references for the differential tests of the sparse seed kernels.

Each reference states its rule over every entry of a dense n x n b2, or
every slot of the dense weights, and reads a seed only through its dense
views ``b2`` and ``weights``.  The kernels in ``confseed`` visit only the
stored nonzero rows and slots; the tests require the two to agree.
"""
from __future__ import annotations

from confseed import seed_core
from confseed.root_data import MAX_ENTRY_BITS
from confseed.seed_core import Exchange, Seed


def reference_check_seed(names, frozen, mult, b2, weights=None, labels=None) -> None:
    """check_seed's rules over the dense fields, in check_seed's order: O(n^2).

    Every entry of every row is visited, so this raises the message, and
    names the first offending pair, that the sparse check must raise.
    """
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("vertex names must be unique")
    if not (len(frozen) == len(mult) == len(b2) == n):
        raise ValueError("field lengths disagree")
    if any(d < 1 for d in mult):
        raise ValueError("multipliers must be positive")
    if any(len(row) != n for row in b2):
        raise ValueError("b2 must be square")
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
    if weights is not None:
        if len(weights) != n:
            raise ValueError("one weight tuple per vertex required")
        if any(len(ws) != len(weights[0]) for ws in weights):
            raise ValueError("all vertices must use the same number of slots")
    if labels is not None and len(labels) != n:
        raise ValueError("one label per vertex required")


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
    row, ws, labels = seed.b2[k], seed.weights, seed.labels
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
    weights = [] if a.weights is not None and b.weights is not None else None
    labels = [] if a.labels is not None and b.labels is not None else None
    for nm in names:
        if nm in a.names:
            i = a.index(nm)
            frozen.append(False if nm in merged_names else a.frozen[i])
            mult.append(a.mult[i])
            if weights is not None:
                weights.append(a.weights[i])
            if labels is not None:
                labels.append(a.labels[i])
        else:
            i = b.index(nm)
            frozen.append(b.frozen[i])
            mult.append(b.mult[i])
            if weights is not None:
                weights.append(b.weights[i])
            if labels is not None:
                labels.append(b.labels[i])
    return Seed(
        tuple(names),
        tuple(frozen),
        tuple(mult),
        tuple(tuple(row) for row in big),
        tuple(weights) if weights is not None else None,
        tuple(labels) if labels is not None else None,
    )


def reference_fold(pieces, pairs) -> Seed:
    """The pieces glued one at a time, in order, with reference_amalgamate:
    the sequential gluing that one amalgamate pass replaces."""
    placed = pieces[0]
    for b in pieces[1:]:
        step = [(p, q) for p, q in pairs if q in b.names]
        placed = reference_amalgamate(placed, b, step)
    return placed
