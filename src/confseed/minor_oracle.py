"""Exact evaluation of type-A seeds on tuples of decorated flags.

A decorated flag is an n x n rational matrix of determinant one whose leading
rows span the filtration steps.  A vertex whose slot weights are all
fundamental or zero denotes the determinant of stacked leading rows; seeds
built here carry those atomic labels, and mutation grows exchange trees over
them.  Everything evaluates in exact rational arithmetic, so every identity
check below is pass/fail with no tolerance.
"""
from __future__ import annotations

from fractions import Fraction as Q
from functools import cache
from itertools import filterfalse

from . import root_data as rd
from .linalg import det, mat_mul
from .seed_core import (
    Label, Minor, Seed, exchange, matches_under, monomial, mutate, post_order,
    quiver_isomorphic, x_from_a,
)

Flag = tuple  # n x n matrix, rows first

# draws each random-flag retry loop makes before it gives up
MAX_FLAG_DRAWS = 1000


# == flags ==

def random_flag(rng, n: int) -> Flag:
    """A flag of determinant one: integer rows but the last, divided by the det."""
    for _ in range(MAX_FLAG_DRAWS):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        d = det(rows).numerator  # an int, as the rows are
        if d != 0:
            rows[-1] = [Q(x, d) for x in rows[-1]]
            return tuple(tuple(r) for r in rows)
    raise ValueError(f"random_flag: no invertible matrix in {MAX_FLAG_DRAWS} draws")


def random_flags(rng, n: int, m: int) -> tuple[Flag, ...]:
    return tuple(random_flag(rng, n) for _ in range(m))


def until_defined(check: str, trial):
    """Return trial() from the first fresh draw on which no value vanishes.

    A trial that raises ZeroDivisionError hit a vanishing value and is drawn
    again; after MAX_FLAG_DRAWS such draws the check gives up with a
    ValueError naming it.
    """
    for _ in range(MAX_FLAG_DRAWS):
        try:
            return trial()
        except ZeroDivisionError:
            pass
    raise ValueError(f"{check}: a value vanished in each of {MAX_FLAG_DRAWS} draws")


def scale_flag(diag, flag: Flag) -> Flag:
    return tuple(tuple(t * x for x in row) for t, row in zip(diag, flag))


def random_torus(rng, n: int):
    """A random diagonal of determinant one, nonzero rational entries."""
    out = []
    prod = Q(1)
    for _ in range(n - 1):
        t = Q(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            t = -t
        out.append(t)
        prod *= t
    out.append(1 / prod)
    return tuple(out)


# == atomic invariants ==

@cache
def degrees_of(weights, slots: int) -> tuple[int, ...]:
    """Row counts per slot for atomic weights; raises otherwise.

    ``weights`` are stored (slot, weight) pairs, as a vertex or a Minor
    holds them, of ``slots`` slots; a slot without a pair has degree 0.
    Cached by both, so the pairs must be hashable.
    """
    degs = [0] * slots
    for s, w in weights:
        nz = [(i, c) for i, c in enumerate(w) if c != 0]
        if len(nz) != 1 or nz[0][1] != 1:
            raise ValueError(f"weight {w} is not fundamental or zero")
        degs[s] = nz[0][0] + 1
    return tuple(degs)


def wedge_invariant(degrees, flags) -> Q:
    n = len(flags[0])
    if sum(degrees) != n:
        raise ValueError(f"degrees {degrees} do not stack to {n} rows")
    rows = []
    for d, flag in zip(degrees, flags, strict=True):
        rows.extend(flag[:d])
    return det(rows)


def evaluatable(weights, slots: int, n: int) -> bool:
    try:
        return sum(degrees_of(weights, slots)) == n
    except ValueError:
        return False


# the flags evaluate_label last saw, and a table of the value on them of each
# label node it has met since
_current: list = [None, {}]


def evaluate_label(label: Label, flags) -> Q:
    """The value of a label on a tuple of flags.

    This module owns one value table, for the flags object evaluate_label
    last saw, compared by identity (``is``, not ``==``); a new flags object
    starts a new table.  So evaluating a DAG, or every label of a seed and
    then those of a mutated seed, computes each distinct node once.  Since
    the table is keyed by identity, flags must be immutable: tuples of row
    tuples, as every flag producer here returns.  The table holds those
    flags alive, so their identity is not reused while it is current, and
    with them every label node it has valued and its value, until a new
    flags object replaces them.  The nodes are visited by ``post_order``,
    so deep labels take no recursion.  An exchange node multiplies its
    factors' numerators and denominators as ints and builds its value as
    one Fraction.
    """
    # one read and one write of the pair, so a value never lands in the
    # table of other flags
    last, values = _current
    if last is not flags:
        values = {}
        _current[:] = flags, values
    if label in values:
        return values[label]
    for top in post_order(label, values):
        if isinstance(top, Minor):
            val = wedge_invariant(degrees_of(top.weights, top.shape[0]), flags)
        else:
            pn, pd = monomial((values[l], e) for l, e in top.plus)
            mn, md = monomial((values[l], e) for l, e in top.minus)
            over = values[top.over]
            val = Q((pn * md + mn * pd) * over.denominator, pd * md * over.numerator)
        values[top] = val
    return values[label]


def _labels_of(seed: Seed) -> tuple[Label, ...]:
    if seed.labels is None:
        raise ValueError("seed carries no labels")
    return seed.labels


def seed_values(seed: Seed, flags) -> dict[str, Q]:
    """The value of each vertex's label on flags, keyed by name in vertex order.

    The labels that the flags' value table lacks are evaluated first, in
    vertex order, so the first vanishing value raises from the same label
    as evaluating every label in turn would; then one C-level pass reads
    every value off the table.
    """
    labels = _labels_of(seed)
    if labels and _current[0] is not flags:
        evaluate_label(labels[0], flags)  # starts the table of these flags
    values = _current[1]
    for label in filterfalse(values.__contains__, labels):
        evaluate_label(label, flags)
    return dict(zip(seed.names, map(values.__getitem__, labels)))


# == identity checks ==

def check_exchange(seed: Seed, at: str, flags) -> Q:
    """Residual of A_k * A'_k - (M+ + M-) under one mutation, a Fraction.

    The sides, the new weight and the new label come from ``exchange``.
    When the new weight is atomic, A'_k is evaluated as a fresh stacked
    minor, independent of the exchange relation, so the residual is a
    genuine identity between determinants.  Otherwise A'_k is the value of
    the new label, which is (M+ + M-) / A_k by construction, so the
    residual is zero whatever the flags, except on the collapse path: when
    mutating back, the label is the one the current label was built over,
    and the residual checks the relation that built it.  No mutated weight
    of the a2 or a3 triangle is atomic (0 of 1 and 0 of 3 unfrozen
    vertices), so there only the label branch runs.  Raises ValueError when
    the seed carries no labels or no weights, and ZeroDivisionError when a
    value it divides by vanishes.
    """
    labels = _labels_of(seed)
    a_k = evaluate_label(labels[seed.index(at)], flags)
    plus, minus, weight, label = exchange(seed, at)
    if weight is None:
        raise ValueError("seed carries no weights")
    if evaluatable(weight, seed.slots, len(flags[0])):
        a_new = wedge_invariant(degrees_of(weight, seed.slots), flags)
    else:
        a_new = evaluate_label(label, flags)
    # in column order, so that of two failing neighbours the first in row k raises
    value = {j: evaluate_label(labels[j], flags) for j, _ in sorted(plus + minus)}
    pn, pd = monomial((value[j], e) for j, e in plus)
    mn, md = monomial((value[j], e) for j, e in minus)
    num = a_k.numerator * a_new.numerator
    den = a_k.denominator * a_new.denominator
    return Q(num * pd * md - den * (pn * md + mn * pd), den * pd * md)


def torus_scale(weights, toruses) -> Q:
    """Character of a weight tuple against one diagonal per slot.

    A weight c in fundamental coordinates takes a diagonal h to
    prod_i (h_1 ... h_i) ** c_i, which is prod_i h_i ** (c_i + ... + c_{n-1}).
    """
    factors = []
    for w, h in zip(weights, toruses, strict=True):
        if any(c != int(c) for c in w):
            raise ValueError("character needs integral weights")
        e = 0
        for i in reversed(range(len(w))):
            e += int(w[i])
            factors.append((h[i], e))
    return Q(*monomial(factors))


def torus_weight_check(seed: Seed, flags, toruses) -> bool:
    """Every vertex value must scale by the character of its stored weights."""
    base = seed_values(seed, flags)
    moved = tuple(scale_flag(h, f) for h, f in zip(toruses, flags, strict=True))
    after = seed_values(seed, moved)
    for nm in seed.names:
        if after[nm] != torus_scale(seed.weight(nm), toruses) * base[nm]:
            return False
    return True


def check_pentagon(seed: Seed, j: str, k: str, flags) -> bool:
    """Five alternating mutations at a unit exchange pair swap the pair.

    Needs b(j,k) = +-1 with both vertices unfrozen and multiplier one.  The
    walk mu_j mu_k mu_j mu_k mu_j must return the seed with j and k
    exchanged -- matrix, weights, and exact values alike; the two label
    trees evaluating to each other's values is a consistency check no
    single exchange step can see.
    """
    if abs(seed.b(j, k)) != 1:
        raise ValueError("pentagon needs a unit exchange pair")
    base = seed_values(seed, flags)
    walked = seed
    for at in (j, k, j, k, j):
        walked = mutate(walked, at)
    swap = {j: k, k: j}
    if not matches_under(walked, seed, {nm: swap.get(nm, nm) for nm in seed.names}):
        return False
    after = seed_values(walked, flags)
    return all(after[nm] == base[swap.get(nm, nm)] for nm in seed.names)


def check_flip_values(flipped: Seed, target: Seed, flags) -> tuple[str, ...]:
    """Vertices of ``flipped`` whose value differs from ``target``'s at their image.

    The image is that of ``quiver_isomorphic(flipped, target)``.  After a
    type-A flip sequence on the four-point seed, each label is the function
    the rebuilt flipped seed has at its image, so the result is empty.
    Raises ValueError when the two quivers do not match, and
    ZeroDivisionError when a value it divides by vanishes.
    """
    mapping = quiver_isomorphic(flipped, target)
    if mapping is None:
        raise ValueError("the flipped seed does not match the target's quiver")
    have, want = seed_values(flipped, flags), seed_values(target, flags)
    return tuple(nm for nm in flipped.names if have[nm] != want[mapping[nm]])


# == the longest-element lift and the twisted cyclic shift ==

@cache
def lift_w0(n: int) -> tuple[tuple[int, ...], ...]:
    """Product of (I-E_i)(I+F_i)(I-E_i) along the standard longest word.

    Each factor is the identity with the block [[0,-1],[1,0]] on rows and
    columns i-1, i.  Computed once per n and returned as row tuples, so no
    caller can change the cached matrix.
    """
    datum = rd.root_datum(f"a{n - 1}")
    out = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for node in rd.standard_longest_word(datum):
        i = int(node)
        s = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        s[i - 1][i - 1] = s[i][i] = 0
        s[i - 1][i], s[i][i - 1] = -1, 1
        out = mat_mul(out, s)
    return tuple(map(tuple, out))


@cache
def w0_square_sign(n: int) -> int:
    """The central element lift(w0)^2 as +1 or -1, computed once per n."""
    w = lift_w0(n)
    sq = mat_mul(w, w)
    for s in (1, -1):
        if all(sq[r][c] == (s if r == c else 0) for r in range(n) for c in range(n)):
            return s
    raise ValueError("lift squared is not central")


def twisted_shift(flags, n: int):
    """(F1,...,Fm) -> (F2,...,Fm, z F1) with z the lift of w0 squared."""
    s = w0_square_sign(n)
    first = tuple(tuple(s * x for x in row) for row in flags[0])
    return flags[1:] + (first,)


def check_cyclic_symmetry(seed: Seed, flags) -> bool:
    """Values on shifted flags must equal sign-adjusted rotated-slot values.

    For degrees (d_1,...,d_m): shifting flags matches rotating the slots,
    up to sign(z)^(d_m) from the twist and (-1)^(d_m * (d_1+...+d_{m-1}))
    from moving a block of rows across the stack.  On a triangle seed the
    rotation must also map the stored weight tuples into the seed's own
    weight set, so the shift permutes the cluster.
    """
    n = len(flags[0])
    s = w0_square_sign(n)
    shifted = twisted_shift(flags, n)
    slots = seed.slots
    weight_set = set(seed.slot_weights)
    for ws in seed.slot_weights:
        # the rotation moves slot t to t + 1
        if slots == 3 and tuple(sorted([((t + 1) % 3, w) for t, w in ws])) not in weight_set:
            return False
        degs = degrees_of(ws, slots)
        lhs = wedge_invariant(degs, shifted)
        rotated = (degs[-1],) + degs[:-1]
        eps = (s ** degs[-1]) * ((-1) ** (degs[-1] * sum(degs[:-1])))
        rhs = eps * wedge_invariant(rotated, flags)
        if lhs != rhs:
            return False
    return True


# == shearing one flag moves the glued X-coordinates by a root character ==

def simple_root_character(j: int, h) -> Q:
    """alpha_j on a diagonal torus element of SL_n: t_j / t_{j+1}."""
    return h[j - 1] / h[j]


def group_scale_flag(flag: Flag, diag) -> Flag:
    """Act on a flag by a diagonal group element (rows are row vectors)."""
    return tuple(tuple(x * t for x, t in zip(row, diag)) for row in flag)


def check_shear_action(seed: Seed, flags, h) -> dict[str, Q]:
    """Ratios X_v(sheared flags) / X_v(flags) at the unfrozen vertices.

    The shear moves the last flag by the diagonal group element h; the
    returned ratios should be simple-root characters of h at the glued
    vertices and exactly 1 at the face vertices (callers compare
    against simple_root_character).
    """
    sheared = flags[:-1] + (group_scale_flag(flags[-1], h),)
    names = seed.unfrozen_names()
    base = x_from_a(seed, seed_values(seed, flags), names)
    moved = x_from_a(seed, seed_values(seed, sheared), names)
    return {nm: moved[nm] / base[nm] for nm in names}


def shear_configuration(rng, n: int):
    """Four flags with the glued diagonal (corners 1 and 3) in standard gauge.

    Corner 1 holds the standard flag and corner 3 its w0-translate, so the
    diagonal torus stabilizes the glued edge; corners 2 and 4 are generic
    unipotent translates.  Shearing then acts by diagonal group elements.
    """
    ident = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))

    def unitriangular(lower: bool):
        m = [list(row) for row in ident]
        for r in range(n):
            for c in range(n):
                if r != c and (r > c) == lower:
                    m[r][c] = rng.randint(-9, 9)
        return tuple(tuple(row) for row in m)

    def transpose(m):
        return tuple(tuple(row[i] for row in m) for i in range(len(m)))

    w0 = lift_w0(n)
    return (
        ident,
        transpose(unitriangular(True)),
        transpose(w0),
        transpose(mat_mul(unitriangular(False), w0)),
    )


def check_shear_law(seed: Seed, rng, n: int) -> bool:
    """Edge X-coordinates move by simple-root characters, faces stay put.

    Under a diagonal shear h of the corner-4 flag, X at a glued vertex (an
    unfrozen vertex supported on corners 1 and 3) with omega_j at corner 1
    scales by the character of minus alpha_j (the frame at corner 3 is the
    w0-translate of the standard one), and X at every face vertex is
    unchanged.
    """
    def trial():
        flags = shear_configuration(rng, n)
        h = random_torus(rng, n)
        return h, check_shear_action(seed, flags, h)

    h, ratios = until_defined("check_shear_law", trial)
    stored = dict(zip(seed.names, seed.slot_weights))
    for nm, ratio in ratios.items():
        ws = stored[nm]
        if [t for t, _ in ws] == [0, 2]:
            (j,) = degrees_of(ws[:1], 1)
            if ratio * simple_root_character(j, h) != 1:
                return False
        elif ratio != 1:
            return False
    return True
