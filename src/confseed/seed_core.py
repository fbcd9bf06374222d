"""Cluster seeds: exchange matrices with multipliers, weights, and labels.

A seed stores ``b2``, twice the exchange matrix, so that the half-integral
entries allowed between frozen vertices stay integral.  Invariants enforced
throughout:

* b2 is skew-symmetrizable: b2[i][j]*d[j] == -b2[j][i]*d[i];
* any entry touching an unfrozen vertex is even (b itself is integral there);
* the diagonal is zero.

Arrow convention: an arrow from vertex j to vertex i means b[i][j] > 0.  A
unit arrow between vertices with multipliers (d_i, d_j) contributes
d_i // gcd(d_i, d_j) to b[i][j]; drawn multiplicity is b over that unit, and
a half unit ("dashed") can only join two frozen vertices.

Each vertex optionally carries one weight per marked point ("slot") and a
label recording which function on the configuration space it denotes: either
an atomic wedge invariant (Minor) or an exchange tree (Exchange).  Weights are
int tuples and weight balances are doubled like b2; only b = b2/2, arrow
multiplicities and X-values are Fractions.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction as Q
from math import gcd

from .root_data import Weight

# == labels ==


@dataclass(frozen=True)
class Minor:
    """An atomic invariant, determined by its weight tuple alone."""

    weights: tuple[Weight, ...]


@dataclass(frozen=True)
class Exchange:
    """(plus + minus) / over, each side a monomial in other labels."""

    plus: tuple[tuple["Label", int], ...]
    minus: tuple[tuple["Label", int], ...]
    over: "Label"


Label = Minor | Exchange


def map_label_weights(label: Label, fn) -> Label:
    """Apply fn to every weight tuple inside a label tree."""
    if isinstance(label, Minor):
        return Minor(fn(label.weights))
    return Exchange(
        tuple((map_label_weights(l, fn), e) for l, e in label.plus),
        tuple((map_label_weights(l, fn), e) for l, e in label.minus),
        map_label_weights(label.over, fn),
    )


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


def check_seed(seed: Seed) -> None:
    n = len(seed.names)
    if len(set(seed.names)) != n:
        raise ValueError("vertex names must be unique")
    if not (len(seed.frozen) == len(seed.mult) == len(seed.b2) == n):
        raise ValueError("field lengths disagree")
    if any(d < 1 for d in seed.mult):
        raise ValueError("multipliers must be positive")
    for i in range(n):
        if len(seed.b2[i]) != n:
            raise ValueError("b2 must be square")
        if seed.b2[i][i] != 0:
            raise ValueError("b2 diagonal must be zero")
        for j in range(n):
            if seed.b2[i][j] * seed.mult[j] != -seed.b2[j][i] * seed.mult[i]:
                raise ValueError(f"not skew-symmetrizable at ({seed.names[i]},{seed.names[j]})")
            if seed.b2[i][j] % 2 and not (seed.frozen[i] and seed.frozen[j]):
                raise ValueError(f"half-integral entry at unfrozen pair ({seed.names[i]},{seed.names[j]})")
    if seed.weights is not None:
        if len(seed.weights) != n:
            raise ValueError("one weight tuple per vertex required")
        slots = len(seed.weights[0])
        if any(len(w) != slots for w in seed.weights):
            raise ValueError("all vertices must use the same number of slots")
    if seed.labels is not None and len(seed.labels) != n:
        raise ValueError("one label per vertex required")


def unit(d_i: int, d_j: int) -> int:
    """b-value of one unit arrow into a vertex of multiplier d_i from one of d_j."""
    return d_i // gcd(d_i, d_j)


def arrows(seed: Seed):
    """Yield (src, dst, multiplicity) per arrow, multiplicity in unit arrows.

    Multiplicity 1/2 is a dashed (frozen-frozen) half arrow.
    """
    for i in range(seed.size):
        for j in range(seed.size):
            if seed.b2[i][j] > 0:
                u = unit(seed.mult[i], seed.mult[j])
                yield seed.names[j], seed.names[i], Q(seed.b2[i][j], 2 * u)


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


def is_balanced(seed: Seed, name: str) -> bool:
    return all(all(c == 0 for c in slot) for slot in weight_balance(seed, name))


def assert_face_equations(seed: Seed) -> None:
    """Every unfrozen row must pair to zero against the weights."""
    for name in seed.unfrozen_names():
        if not is_balanced(seed, name):
            raise ValueError(f"face equation fails at {name}: {weight_balance(seed, name)}")


# == mutation ==


def mutate(seed: Seed, at: str, *, with_labels: bool = True) -> Seed:
    """Mutate at an unfrozen vertex; involutive, weight-homogeneous."""
    k = seed.index(at)
    if seed.frozen[k]:
        raise ValueError(f"cannot mutate frozen vertex {at!r}")
    n = seed.size
    old = seed.b2
    new_b2 = []
    for p in range(n):
        row = []
        for q in range(n):
            if p == k or q == k:
                row.append(-old[p][q])
            else:
                num = abs(old[p][k]) * old[k][q] + old[p][k] * abs(old[k][q])
                if num % 4:
                    raise ValueError("mutation increment not integral")
                row.append(old[p][q] + num // 4)
        new_b2.append(tuple(row))

    new_weights = seed.weights
    if seed.weights is not None:
        slots, rank = seed.slots, len(seed.weights[0][0])
        pos = weight_sum(
            ((b // 2, w) for b, w in zip(old[k], seed.weights) if b > 0), slots, rank
        )
        neg = weight_sum(
            ((-b // 2, w) for b, w in zip(old[k], seed.weights) if b < 0), slots, rank
        )
        if pos != neg:
            raise ValueError(
                f"mutation at {at} is not weight-homogeneous: "
                f"{weight_balance(seed, at)}"
            )
        wk = tuple(
            tuple(p - q for p, q in zip(ps, qs))
            for ps, qs in zip(pos, seed.weights[k])
        )
        new_weights = seed.weights[:k] + (wk,) + seed.weights[k + 1:]

    new_labels = seed.labels
    if seed.labels is not None:
        if with_labels:
            plus = tuple(
                (seed.labels[j], old[k][j] // 2) for j in range(n) if old[k][j] > 0
            )
            minus = tuple(
                (seed.labels[j], -old[k][j] // 2) for j in range(n) if old[k][j] < 0
            )
            over = seed.labels[k]
            if isinstance(over, Exchange) and over.minus == plus and over.plus == minus:
                lk: Label = over.over
            else:
                lk = Exchange(plus, minus, over)
            new_labels = seed.labels[:k] + (lk,) + seed.labels[k + 1:]
        else:
            new_labels = None

    return replace(seed, b2=tuple(new_b2), weights=new_weights, labels=new_labels)


# == X-coordinates and the p-map ==


def p_exponents(seed: Seed, name: str) -> dict[str, int]:
    """Integer row of exponents for X_name = prod_j A_j ** b[name][j]."""
    k = seed.index(name)
    out = {}
    for j in range(seed.size):
        if seed.b2[k][j] % 2:
            raise ValueError(f"row {name} has a half-integral entry at {seed.names[j]}")
        if seed.b2[k][j]:
            out[seed.names[j]] = seed.b2[k][j] // 2
    return out


def x_from_a(seed: Seed, avals: dict, names=None) -> dict:
    """Push A-values through the p-map, X_i = prod_j A_j ** b[i][j]."""
    out = {}
    for name in names if names is not None else seed.unfrozen_names():
        x = Q(1)
        for j, e in p_exponents(seed, name).items():
            x *= Q(avals[j]) ** e
        out[name] = x
    return out


def mutate_x(seed: Seed, at: str, xvals: dict) -> dict:
    """Transform X-values under mutation at an unfrozen vertex.

    X'_k = 1/X_k and X'_i = X_i * X_k**[b_ik]+ * (1+X_k)**(-b_ik); values may
    live in any exact field.
    """
    k = seed.index(at)
    if seed.frozen[k]:
        raise ValueError(f"cannot mutate frozen vertex {at!r}")
    xk = xvals[at]
    out = {}
    for name, x in xvals.items():
        i = seed.index(name)
        if i == k:
            out[name] = 1 / xk
            continue
        if seed.b2[i][k] % 2:
            raise ValueError(f"no integral X-row at {name}")
        bik = seed.b2[i][k] // 2
        val = x
        if bik > 0:
            val = val * xk ** bik
        val = val * (1 + xk) ** (-bik)
        out[name] = val
    return out


# == slot permutations and Langlands dual ==


def permute_slots(seed: Seed, perm: tuple[int, ...]) -> Seed:
    """Reorder marked-point slots: new slot t carries old slot perm[t]."""
    if seed.weights is None:
        return seed

    def pw(ws):
        return tuple(ws[p] for p in perm)

    new_weights = tuple(pw(ws) for ws in seed.weights)
    new_labels = seed.labels
    if seed.labels is not None:
        new_labels = tuple(map_label_weights(l, pw) for l in seed.labels)
    return replace(seed, weights=new_weights, labels=new_labels)


def negate_b2(seed: Seed) -> Seed:
    return replace(seed, b2=tuple(tuple(-x for x in row) for row in seed.b2))


def langlands_dual(seed: Seed, weight_map=None) -> Seed:
    """The dual seed: b'[i][j] = -b[i][j]*d[j]/d[i], d'_i = max(d)/d_i.

    ``weight_map`` transposes a weight to the dual weight lattice; the dual
    vertex weight is weight_map(w) / d_v.  Simply-laced seeds may omit it
    (weights carry over unchanged).  Labels do not transport; they are
    dropped.
    """
    dmax = max(seed.mult)
    if any(dmax % d for d in seed.mult):
        raise ValueError("multipliers must divide their maximum")
    new_mult = tuple(dmax // d for d in seed.mult)
    new_b2 = []
    for i in range(seed.size):
        row = []
        for j in range(seed.size):
            num = -seed.b2[i][j] * seed.mult[j]
            if num % seed.mult[i]:
                raise ValueError(f"dual entry not integral at ({i},{j})")
            row.append(num // seed.mult[i])
        new_b2.append(tuple(row))

    new_weights = seed.weights
    if seed.weights is not None:
        if weight_map is None:
            if dmax != 1:
                raise ValueError("weight_map required unless simply laced")
        else:
            rows = []
            for v in range(seed.size):
                d = seed.mult[v]
                ws = []
                for w in seed.weights[v]:
                    img = weight_map(w)
                    if any(c % d for c in img):
                        raise ValueError(f"dual weight not integral at {seed.names[v]}")
                    ws.append(tuple(c // d for c in img))
                rows.append(tuple(ws))
            new_weights = tuple(rows)
    return replace(
        seed, mult=new_mult, b2=tuple(new_b2), weights=new_weights, labels=None
    )


def matches_under(
    s1: Seed,
    s2: Seed,
    mapping: dict,
    *,
    reverse_arrows: bool = False,
    match_weights: bool = True,
    weight_map=None,
) -> bool:
    """Exact comparison under an explicit vertex bijection s1 -> s2.

    ``weight_map`` (optional) transforms each s1 slot weight before
    comparing.
    """
    n = s1.size
    if s2.size != n or len(mapping) != n:
        return False
    sign = -1 if reverse_arrows else 1
    try:
        perm = [s2.index(mapping[nm]) for nm in s1.names]
    except KeyError:
        return False
    if len(set(perm)) != n:
        return False
    for i in range(n):
        p = perm[i]
        if s1.mult[i] != s2.mult[p] or s1.frozen[i] != s2.frozen[p]:
            return False
        if match_weights:
            w = s1.weights[i]
            if weight_map is not None:
                w = tuple(weight_map(x) for x in w)
            if w != s2.weights[p]:
                return False
        for j in range(n):
            if sign * s1.b2[i][j] != s2.b2[perm[i]][perm[j]]:
                return False
    return True


# == isomorphism of labeled quivers ==


def quiver_isomorphic(
    s1: Seed,
    s2: Seed,
    *,
    reverse_arrows: bool = False,
    match_weights: bool = True,
    match_frozen: bool = True,
    slot_perm: tuple[int, ...] | None = None,
):
    """Search for a vertex bijection matching b2 (and weights, multipliers).

    Returns the lexicographically least mapping {s1 name: s2 name} in vertex
    order, or None.  ``reverse_arrows`` matches s2 against the opposite of
    s1; ``slot_perm`` permutes s1's weight slots before comparing.
    """
    n = s1.size
    if s2.size != n:
        return None
    sign = -1 if reverse_arrows else 1

    if match_weights and (s1.weights is None or s2.weights is None):
        raise ValueError("both seeds need weights to match weights")
    w1 = None
    if match_weights:
        w1 = list(s1.weights)
        if slot_perm is not None:
            w1 = [tuple(ws[p] for p in slot_perm) for ws in w1]

    def feature(seed, i, w):
        parts = [seed.mult[i]]
        if match_frozen:
            parts.append(seed.frozen[i])
        if w is not None:
            parts.append(w[i])
        return tuple(parts)

    def row_profile(seed, i, w, s):
        prof = []
        for j in range(seed.size):
            if seed.b2[i][j]:
                prof.append((s * seed.b2[i][j],) + feature(seed, j, w))
        return tuple(sorted(prof))

    w2 = list(s2.weights) if match_weights else None
    feats2 = [feature(s2, j, w2) for j in range(n)]
    profs2 = [row_profile(s2, j, w2, 1) for j in range(n)]
    cands = []
    for i in range(n):
        f = feature(s1, i, w1)
        p = row_profile(s1, i, w1, sign)
        cs = [j for j in range(n) if feats2[j] == f and profs2[j] == p]
        if not cs:
            return None
        cands.append(cs)

    assigned: list[int | None] = [None] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in cands[i]:
            if used[j]:
                continue
            ok = True
            for p in range(i):
                q = assigned[p]
                if (
                    s2.b2[q][j] != sign * s1.b2[p][i]
                    or s2.b2[j][q] != sign * s1.b2[i][p]
                ):
                    ok = False
                    break
            if ok:
                assigned[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                assigned[i] = None
                used[j] = False
        return False

    if not extend(0):
        return None
    return {s1.names[i]: s2.names[assigned[i]] for i in range(n)}
