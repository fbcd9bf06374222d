"""Exact evaluation of type-A seeds on tuples of decorated flags.

A decorated flag is an n x n rational matrix of determinant one whose leading
rows span the filtration steps.  A vertex whose slot weights are all
fundamental or zero denotes the determinant of stacked leading rows; seeds
built here carry those atomic labels, and mutation grows exchange trees over
them.  Everything evaluates in exact rational arithmetic, so every identity
check below is pass/fail with no tolerance.
"""
from __future__ import annotations

from collections import deque
from fractions import Fraction as Q

from . import root_data as rd
from .linalg import det, mat_mul
from .seed_core import Exchange, Label, Minor, Seed, mutate, p_exponents

Flag = tuple  # n x n matrix, rows first


# == flags ==

def random_flag(rng, n: int) -> Flag:
    while True:
        rows = [[Q(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        d = det(rows)
        if d != 0:
            rows[-1] = [x / d for x in rows[-1]]
            return tuple(tuple(r) for r in rows)


def random_flags(rng, n: int, m: int) -> tuple[Flag, ...]:
    return tuple(random_flag(rng, n) for _ in range(m))


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

def degrees_of(weights) -> tuple[int, ...]:
    """Row counts per slot for an atomic weight tuple; raises otherwise."""
    degs = []
    for w in weights:
        nz = [(i, c) for i, c in enumerate(w) if c != 0]
        if not nz:
            degs.append(0)
        elif len(nz) == 1 and nz[0][1] == 1:
            degs.append(nz[0][0] + 1)
        else:
            raise ValueError(f"weight {w} is not fundamental or zero")
    return tuple(degs)


def wedge_invariant(degrees, flags) -> Q:
    n = len(flags[0])
    if sum(degrees) != n:
        raise ValueError(f"degrees {degrees} do not stack to {n} rows")
    rows = []
    for d, flag in zip(degrees, flags, strict=True):
        rows.extend(flag[:d])
    return det(rows)


def evaluatable(weights, n: int) -> bool:
    try:
        return sum(degrees_of(weights)) == n
    except ValueError:
        return False


def evaluate_label(label: Label, flags, cache=None) -> Q:
    if cache is None:
        cache = {}
    if label in cache:
        return cache[label]
    if isinstance(label, Minor):
        val = wedge_invariant(degrees_of(label.weights), flags)
    else:
        plus = Q(1)
        for l, e in label.plus:
            plus *= evaluate_label(l, flags, cache) ** e
        minus = Q(1)
        for l, e in label.minus:
            minus *= evaluate_label(l, flags, cache) ** e
        val = (plus + minus) / evaluate_label(label.over, flags, cache)
    cache[label] = val
    return val


def seed_values(seed: Seed, flags, cache=None) -> dict[str, Q]:
    if seed.labels is None:
        raise ValueError("seed carries no labels")
    cache = {} if cache is None else cache
    return {nm: evaluate_label(l, flags, cache) for nm, l in zip(seed.names, seed.labels)}


# == identity checks ==

def atomic_mutations(seed: Seed) -> tuple[str, ...]:
    """Unfrozen vertices whose exchange partner is again a stacked minor."""
    n = len(seed.weights[0][0]) + 1
    out = []
    for nm in seed.unfrozen_names():
        w = mutate(seed, nm, with_labels=False).weight(nm)
        if evaluatable(w, n):
            out.append(nm)
    return tuple(out)


def check_exchange(seed: Seed, at: str, flags, cache=None) -> Q:
    """Residual of A_k * A'_k - (M+ + M-) under one mutation.

    When the mutated vertex weight is atomic, A'_k is evaluated as a fresh
    stacked minor -- independent of the exchange relation, so the residual
    is a genuine identity between determinants.  Otherwise A'_k comes from
    the new vertex's label tree, which exercises the evaluation machinery
    and the bookkeeping of the mutated seed.
    """
    cache = {} if cache is None else cache
    k = seed.index(at)
    a_k = evaluate_label(seed.labels[k], flags, cache)
    stepped = mutate(seed, at)
    n = len(flags[0])
    if evaluatable(stepped.weight(at), n):
        a_new = wedge_invariant(degrees_of(stepped.weight(at)), flags)
    else:
        a_new = evaluate_label(stepped.labels[k], flags, cache)
    plus = Q(1)
    minus = Q(1)
    for j in range(seed.size):
        e = seed.b2[k][j] // 2
        if e > 0:
            plus *= evaluate_label(seed.labels[j], flags, cache) ** e
        elif e < 0:
            minus *= evaluate_label(seed.labels[j], flags, cache) ** (-e)
    return a_k * a_new - (plus + minus)


def torus_scale(weights, toruses) -> Q:
    """Character of a weight tuple against one diagonal per slot."""
    out = Q(1)
    for w, h in zip(weights, toruses, strict=True):
        lead = Q(1)
        for i, c in enumerate(w):
            lead *= h[i]
            if c != int(c):
                raise ValueError("character needs integral weights")
            out *= lead ** int(c)
    return out


def torus_weight_check(seed: Seed, flags, toruses, cache=None) -> bool:
    """Every vertex value must scale by the character of its stored weights."""
    base = seed_values(seed, flags, cache)
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
    for nm in seed.names:
        other = swap.get(nm, nm)
        if walked.weight(nm) != seed.weight(other):
            return False
    after = seed_values(walked, flags)
    for nm in seed.names:
        if after[nm] != base[swap.get(nm, nm)]:
            return False
    idx = {nm: seed.index(nm) for nm in seed.names}
    for p in seed.names:
        for q in seed.names:
            if walked.b2[idx[p]][idx[q]] != seed.b2[idx[swap.get(p, p)]][idx[swap.get(q, q)]]:
                return False
    return True


# == the longest-element lift and the twisted cyclic shift ==

def lift_w0(n: int):
    """Product of (I-E_i)(I+F_i)(I-E_i) along the standard longest word.

    Each factor is the identity with the block [[0,-1],[1,0]] on rows and
    columns i-1, i.
    """
    datum = rd.root_datum(f"a{n - 1}")
    out = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for node in rd.standard_longest_word(datum):
        i = int(node)
        s = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        s[i - 1][i - 1] = s[i][i] = 0
        s[i - 1][i], s[i][i - 1] = -1, 1
        out = mat_mul(out, s)
    return out


def w0_square_sign(n: int) -> int:
    """The central element lift(w0)^2 as +1 or -1."""
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


def check_cyclic_symmetry(seed: Seed, flags, closed: bool | None = None) -> bool:
    """Values on shifted flags must equal sign-adjusted rotated-slot values.

    For degrees (d_1,...,d_m): shifting flags matches rotating the slots,
    up to sign(z)^(d_m) from the twist and (-1)^(d_m * (d_1+...+d_{m-1}))
    from moving a block of rows across the stack.  When ``closed`` (default
    for triangles), the rotation must also map the stored weight tuples
    into the seed's own weight set, so the shift permutes the cluster.
    """
    n = len(flags[0])
    s = w0_square_sign(n)
    shifted = twisted_shift(flags, n)
    if closed is None:
        closed = seed.slots == 3
    weight_set = {seed.weight(nm) for nm in seed.names}
    for nm in seed.names:
        w = seed.weight(nm)
        if closed and (w[-1],) + w[:-1] not in weight_set:
            return False
        degs = degrees_of(w)
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


def x_values(seed: Seed, names, flags, cache=None) -> dict[str, Q]:
    """X-coordinates at the given vertices, via products of vertex values."""
    base = seed_values(seed, flags, cache)
    out = {}
    for nm in names:
        x = Q(1)
        for other, e in p_exponents(seed, nm).items():
            x *= base[other] ** e
        out[nm] = x
    return out


def check_shear_action(seed: Seed, flags, h, cache=None) -> dict[str, Q]:
    """Ratios X_v(sheared flags) / X_v(flags) at the unfrozen vertices.

    The shear moves the last flag by the diagonal group element h; the
    returned ratios should be simple-root characters of h at the glued
    vertices x_0k and exactly 1 at the face vertices (callers compare
    against simple_root_character).
    """
    sheared = flags[:-1] + (group_scale_flag(flags[-1], h),)
    names = seed.unfrozen_names()
    base = x_values(seed, names, flags, cache)
    moved = x_values(seed, names, sheared)
    return {nm: moved[nm] / base[nm] for nm in names}


def shear_configuration(rng, n: int):
    """Four flags with the glued diagonal (corners 1 and 3) in standard gauge.

    Corner 1 holds the standard flag and corner 3 its w0-translate, so the
    diagonal torus stabilizes the glued edge; corners 2 and 4 are generic
    unipotent translates.  Shearing then acts by diagonal group elements.
    """
    ident = tuple(
        tuple(Q(1) if r == c else Q(0) for c in range(n)) for r in range(n)
    )

    def unitriangular(lower: bool):
        m = [[Q(1) if r == c else Q(0) for c in range(n)] for r in range(n)]
        for r in range(n):
            for c in range(n):
                if r != c and (r > c) == lower:
                    m[r][c] = Q(rng.randint(-9, 9))
        return tuple(tuple(row) for row in m)

    def transpose(m):
        return tuple(tuple(row[i] for row in m) for i in range(len(m)))

    w0 = tuple(tuple(Q(x) for x in row) for row in lift_w0(n))
    return (
        ident,
        transpose(unitriangular(True)),
        transpose(w0),
        transpose(mat_mul(unitriangular(False), w0)),
    )


def check_shear_law(seed: Seed, rng, n: int) -> bool:
    """Edge X-coordinates move by simple-root characters, faces stay put.

    Under a diagonal shear h of the corner-4 flag, X at the glued vertex
    x_0k scales by the character of minus the simple root at the dual node
    (the frame at corner 3 is the w0-translate of the standard one), and X
    at every face vertex is unchanged.
    """
    while True:
        flags = shear_configuration(rng, n)
        h = random_torus(rng, n)
        try:
            ratios = check_shear_action(seed, flags, h)
        except ZeroDivisionError:
            continue
        break
    for nm, ratio in ratios.items():
        if nm.startswith("x_0"):
            k = int(nm[3:])
            if ratio * simple_root_character(n - k, h) != 1:
                return False
        elif ratio != 1:
            return False
    return True


# == searching for flip sequences by exact values ==

def search_flip_sequence(start: Seed, target: Seed, rng, *, max_depth: int = 6):
    """Breadth-first search for a mutation path from start to target.

    States are keyed by the exact multiset of vertex values on one random
    flag tuple; a hit is confirmed against the full seed.  Returns the list
    of mutated vertex names, or None within the depth bound.
    """
    from .seed_core import quiver_isomorphic

    n = len(start.weights[0][0]) + 1
    m = start.slots
    while True:
        flags = random_flags(rng, n, m)
        try:
            base = seed_values(start, flags)
            goal = seed_values(target, flags)
        except ZeroDivisionError:
            continue
        if 0 in base.values() or 0 in goal.values():
            continue
        if len(set(base.values())) == len(base):
            break
    goal_key = tuple(sorted(goal.values()))

    bare = Seed(start.names, start.frozen, start.mult, start.b2, start.weights)
    queue = deque([(bare, tuple(base[nm] for nm in start.names), ())])
    seen = {tuple(sorted(base.values()))}
    while queue:
        seed, vals, path = queue.popleft()
        if len(path) >= max_depth:
            continue
        for k, nm in enumerate(seed.names):
            if seed.frozen[k]:
                continue
            plus = Q(1)
            minus = Q(1)
            for j in range(seed.size):
                e = seed.b2[k][j] // 2
                if e > 0:
                    plus *= vals[j] ** e
                elif e < 0:
                    minus *= vals[j] ** (-e)
            if vals[k] == 0:
                continue
            new_val = (plus + minus) / vals[k]
            if new_val == 0:
                continue
            new_vals = vals[:k] + (new_val,) + vals[k + 1:]
            key = tuple(sorted(new_vals))
            if key in seen:
                continue
            seen.add(key)
            stepped = mutate(seed, nm)
            new_path = path + (nm,)
            if key == goal_key and quiver_isomorphic(stepped, target) is not None:
                return list(new_path)
            queue.append((stepped, new_vals, new_path))
    return None
