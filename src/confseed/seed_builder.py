"""Build triangle seeds: the word quiver, vertex weights, edge completion.

The word quiver for a reduced word of the longest element has one frozen
vertex per node before the scan plus one vertex per letter; letters are
processed in application order (rightmost letter of the written word first).
Each letter i adds a vertex v, a full arrow v -> current(i), and for every
Dynkin neighbor j a half arrow current(i) -> current(j) plus a half arrow
current(j) -> v.  Half arrows between consecutive occurrences merge into full
ones; the surviving halves join frozen vertices only.

Completion adds one frozen vertex per node on the remaining side of the
triangle and solves for the connecting arrows: every unfrozen row must pair
to zero against the weights, and every frozen row must pair to its boundary
pattern -- alpha_m/2 at the edge's cyclically first corner (the one carrying
omega_m), w0(alpha_m)/2 at the second, zero at the opposite corner.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from . import root_data as rd
from .linalg import solve_with_kernel
from .seed_core import Minor, Seed, unit, weight_balance, weight_sum


def vertex_node_occ(datum: rd.RootDatum, name: str) -> tuple[str, int | None]:
    """Split a vertex name: "x_a12" -> ("a1", 2), "x_b" -> ("b", None)."""
    if not name.startswith("x_"):
        raise ValueError(f"not a row or edge vertex: {name!r}")
    rest = name[2:]
    for node in sorted(datum.nodes, key=len, reverse=True):
        if rest.startswith(node):
            tail = rest[len(node):]
            if not tail:
                return node, None
            if tail.isdigit():
                return node, int(tail)
    raise ValueError(f"cannot parse vertex name {name!r} for type {datum.kind}")


# == word-vertex weights ==

def _a_n_weights(datum: rd.RootDatum, node: str, occ: int):
    n = datum.rank + 1
    i = int(node)

    def fw(k: int):
        if k == 0:
            return rd.zero_weight(datum)
        return rd.fundamental_weight(datum, str(k))

    return (fw(n - i - occ), fw(occ), fw(i))


_G2_WORD_WEIGHTS = {
    ("a", 0): ("a", "0", "a"),
    ("a", 1): ("b", "a", "a"),
    ("a", 2): ("b", "2a", "a"),
    ("a", 3): ("0", "a", "a"),
    ("b", 0): ("b", "0", "b"),
    ("b", 1): ("2b", "3a", "b"),
    ("b", 2): ("b", "3a", "b"),
    ("b", 3): ("0", "b", "b"),
}


def _parse_weight_symbol(datum: rd.RootDatum, sym: str):
    """Tiny reader for table entries like "2a" or "a1+a3" or "0"."""
    w = rd.zero_weight(datum)
    if sym == "0":
        return w
    for term in sym.split("+"):
        mult = 1
        while term and term[0].isdigit() and term not in datum.nodes:
            mult = int(term[0])
            term = term[1:]
        w = rd.add_weights(w, rd.scale_weight(mult, rd.fundamental_weight(datum, term)))
    return w


def _g2_weights(datum, node, occ):
    syms = _G2_WORD_WEIGHTS[(node, occ)]
    return tuple(_parse_weight_symbol(datum, s) for s in syms)


def _d4_weights(datum, node, occ):
    outer = ("a1", "a2", "a3")
    fw = lambda nd: rd.fundamental_weight(datum, nd)
    zero = rd.zero_weight(datum)
    all_outer = fw("a1")
    all_outer = rd.add_weights(all_outer, fw("a2"))
    all_outer = rd.add_weights(all_outer, fw("a3"))
    if node == "b":
        return {
            0: (fw("b"), zero, fw("b")),
            1: (rd.scale_weight(2, fw("b")), all_outer, fw("b")),
            2: (fw("b"), all_outer, fw("b")),
            3: (zero, fw("b"), fw("b")),
        }[occ]
    others = rd.sub_weights(all_outer, fw(node))
    return {
        0: (fw(node), zero, fw(node)),
        1: (fw("b"), fw(node), fw(node)),
        2: (fw("b"), others, fw(node)),
        3: (zero, fw(node), fw(node)),
    }[occ]


def _swap12(ws):
    return (ws[1], ws[0], ws[2])


def word_vertex_weights(datum: rd.RootDatum, word: tuple[str, ...]):
    """Weight triples for every word vertex, or None when unknown.

    Known cases: the standard longest word of each supported type, and its
    reversal (vertex x_{i,j} of the reversed word carries the weight of
    x_{i, r_i - j} with the first two corners swapped).
    """
    std = rd.standard_longest_word(datum)
    if word == std:
        if datum.kind.startswith("a"):
            per = lambda node, occ: _a_n_weights(datum, node, occ)
        elif datum.kind == "g2":
            per = lambda node, occ: _g2_weights(datum, node, occ)
        elif datum.kind == "d4":
            per = lambda node, occ: _d4_weights(datum, node, occ)
        else:
            return None
        out = {}
        for node in datum.nodes:
            r = std.count(node)
            for occ in range(r + 1):
                out[f"x_{node}{occ}"] = per(node, occ)
        return out
    if word == tuple(reversed(std)):
        base = word_vertex_weights(datum, std)
        out = {}
        for node in datum.nodes:
            r = std.count(node)
            for occ in range(r + 1):
                out[f"x_{node}{occ}"] = _swap12(base[f"x_{node}{r - occ}"])
        return out
    return None


# == the word quiver ==

def build_bruhat_seed(
    datum: rd.RootDatum, word: tuple[str, ...], weights: dict | None = None
) -> Seed:
    """The word quiver of a reduced word for the longest element."""
    if not rd.is_longest_word(datum, word):
        raise ValueError(f"{''.join(word)!r} is not a reduced word for w0 of {datum.kind}")

    names: list[str] = [f"x_{node}0" for node in datum.nodes]
    node_of: list[str] = list(datum.nodes)
    current = {node: i for i, node in enumerate(datum.nodes)}
    counts = {node: 0 for node in datum.nodes}
    entries: dict[tuple[int, int], int] = {}

    def add_arrow(dst: int, src: int, halves: int) -> None:
        di = datum.d[datum.index(node_of[dst])]
        dj = datum.d[datum.index(node_of[src])]
        entries[(dst, src)] = entries.get((dst, src), 0) + halves * unit(di, dj)
        entries[(src, dst)] = entries.get((src, dst), 0) - halves * unit(dj, di)

    for letter in reversed(word):
        counts[letter] += 1
        v = len(names)
        names.append(f"x_{letter}{counts[letter]}")
        node_of.append(letter)
        add_arrow(current[letter], v, 2)
        for nb in rd.dynkin_neighbors(datum, letter):
            add_arrow(current[nb], current[letter], 1)
            add_arrow(v, current[nb], 1)
        current[letter] = v

    n = len(names)
    b2 = tuple(
        tuple(entries.get((i, j), 0) for j in range(n)) for i in range(n)
    )
    frozen = []
    for i, name in enumerate(names):
        node, occ = vertex_node_occ(datum, name)
        frozen.append(occ == 0 or occ == counts[node])
    mult = tuple(datum.d[datum.index(nd)] for nd in node_of)

    if weights is None:
        weights = word_vertex_weights(datum, word)
    wtuple = None
    labels = None
    if weights is not None:
        missing = [nm for nm in names if nm not in weights]
        if missing:
            raise ValueError(f"weights missing for {missing}")
        wtuple = tuple(weights[nm] for nm in names)
        if len(set(wtuple)) != n:
            raise ValueError("vertex weight tuples must be distinct")
        labels = tuple(Minor(w) for w in wtuple)
    return Seed(tuple(names), tuple(frozen), mult, b2, wtuple, labels)


# == completion ==

@dataclass(frozen=True)
class CompletionReport:
    edge_names: tuple[str, ...]
    patterns: dict
    unique: bool


def _boundary_pattern(datum, m_node, first_slot, second_slot):
    alpha = rd.simple_root(datum, m_node)
    w0a = rd.w0_on_weight(datum, alpha)
    zero = rd.zero_weight(datum)
    S = [zero, zero, zero]
    S[first_slot] = rd.scale_weight(Q(1, 2), alpha)
    S[second_slot] = rd.scale_weight(Q(1, 2), w0a)
    return tuple(S)


def _stack(ws):
    return [c for w in ws for c in w]


def complete_triangle_seed(
    datum: rd.RootDatum, seed: Seed
) -> tuple[Seed, CompletionReport]:
    """Add the third-edge vertices and solve for their arrows.

    Every unfrozen row must pair to zero against the weights and every frozen
    row to its boundary pattern; each row's system is solved exactly and must
    have a unique solution.  Raises ValueError when any system is
    inconsistent, non-integral, or underdetermined.
    """
    if seed.weights is None:
        raise ValueError("completion needs vertex weights")
    n = seed.size
    zero = rd.zero_weight(datum)

    edge_names = []
    edge_weights = []
    for node in datum.nodes:
        nm = f"x_{node}"
        if nm in seed.names:
            raise ValueError(f"edge vertex name {nm} already taken")
        dual = rd.w0_dual(datum, node)
        edge_names.append(nm)
        edge_weights.append(
            (rd.fundamental_weight(datum, dual), rd.fundamental_weight(datum, node), zero)
        )
    r = len(edge_names)

    patterns = {}
    for name in seed.names:
        node, occ = vertex_node_occ(datum, name)
        if seed.frozen[seed.index(name)]:
            if occ == 0:
                patterns[name] = _boundary_pattern(datum, node, 2, 0)
            else:
                patterns[name] = _boundary_pattern(datum, rd.w0_dual(datum, node), 1, 2)
    for e, nm in enumerate(edge_names):
        node, _ = vertex_node_occ(datum, nm)
        patterns[nm] = _boundary_pattern(datum, rd.w0_dual(datum, node), 0, 1)

    columns = [_stack(w) for w in edge_weights]
    matrix = [[columns[e][c] for e in range(r)] for c in range(3 * datum.rank)]

    unique = True

    def solve_row(rhs_tuple, *, slot3_must_vanish: str | None):
        rhs = _stack(rhs_tuple)
        if slot3_must_vanish is not None and any(
            c != 0 for c in rhs[2 * datum.rank:]
        ):
            raise ValueError(
                f"third-corner component obstructs completion at {slot3_must_vanish}"
            )
        sol, kernel = solve_with_kernel(matrix, rhs)
        nonlocal unique
        if kernel:
            unique = False
        return sol

    # rows of existing vertices against the new edges
    b_to_edges: list[list[Q]] = []
    for i, name in enumerate(seed.names):
        if seed.frozen[i]:
            target = tuple(
                tuple(p - q for p, q in zip(pt, it))
                for pt, it in zip(patterns[name], weight_balance(seed, name))
            )
            sol = solve_row(target, slot3_must_vanish=name)
        else:
            target = tuple(tuple(-c for c in t) for t in weight_balance(seed, name))
            sol = solve_row(target, slot3_must_vanish=None)
        for e, x in enumerate(sol):
            b2x = 2 * x
            if b2x.denominator != 1:
                raise ValueError(f"entry ({name},{edge_names[e]}) not half-integral: {x}")
            if not seed.frozen[i] and x.denominator != 1:
                raise ValueError(f"unfrozen entry ({name},{edge_names[e]}) not integral: {x}")
        b_to_edges.append(sol)

    # edge rows: old entries by skew-symmetrizability, then edge-edge solves
    d_edge = [datum.d[datum.index(vertex_node_occ(datum, nm)[0])] for nm in edge_names]
    edge_to_old: list[list[Q]] = []
    for e in range(r):
        row = []
        for i in range(n):
            row.append(-b_to_edges[i][e] * seed.mult[i] / d_edge[e])
        edge_to_old.append(row)

    edge_to_edge = [[Q(0)] * r for _ in range(r)]
    for e in range(r):
        acc = weight_sum(
            ((c, w) for c, w in zip(edge_to_old[e], seed.weights) if c), 3, datum.rank
        )
        target = tuple(
            tuple(p - q for p, q in zip(pt, it))
            for pt, it in zip(patterns[edge_names[e]], acc)
        )
        sol = solve_row(target, slot3_must_vanish=edge_names[e])
        if sol[e] != 0:
            raise ValueError(f"edge row {edge_names[e]} hits its own column")
        edge_to_edge[e] = sol

    for e in range(r):
        for f in range(r):
            if edge_to_edge[e][f] * d_edge[f] != -edge_to_edge[f][e] * d_edge[e]:
                raise ValueError(
                    f"edge rows disagree at ({edge_names[e]},{edge_names[f]})"
                )

    # assemble
    def as_b2(x: Q, what: str) -> int:
        v = 2 * x
        if v.denominator != 1:
            raise ValueError(f"{what} is not half-integral: {x}")
        return int(v)

    total = n + r
    big = [[0] * total for _ in range(total)]
    for i in range(n):
        for j in range(n):
            big[i][j] = seed.b2[i][j]
        for e in range(r):
            big[i][n + e] = as_b2(b_to_edges[i][e], f"({seed.names[i]},{edge_names[e]})")
            big[n + e][i] = as_b2(edge_to_old[e][i], f"({edge_names[e]},{seed.names[i]})")
    for e in range(r):
        for f in range(r):
            if e != f:
                big[n + e][n + f] = as_b2(
                    edge_to_edge[e][f], f"({edge_names[e]},{edge_names[f]})"
                )

    names = seed.names + tuple(edge_names)
    frozen = seed.frozen + (True,) * r
    mult = seed.mult + tuple(d_edge)
    weights = seed.weights + tuple(edge_weights)
    if len(set(weights)) != total:
        raise ValueError("vertex weight tuples must be distinct")
    labels = tuple(Minor(w) for w in weights)
    out = Seed(names, frozen, mult, tuple(tuple(row) for row in big), weights, labels)

    # final validation: faces and boundary patterns
    for i, name in enumerate(out.names):
        bal = weight_balance(out, name)
        want = patterns.get(name)
        if want is None:
            want = (zero, zero, zero)
        if bal != tuple(want):
            raise ValueError(f"completed row {name} pairs to {bal}, wanted {want}")
    return out, CompletionReport(tuple(edge_names), patterns, unique)


def build_triangle_seed(
    datum: rd.RootDatum, word: tuple[str, ...] | None = None, weights: dict | None = None
) -> Seed:
    """Word quiver plus completion, using the standard word by default."""
    if word is None:
        word = rd.standard_longest_word(datum)
    seed = build_bruhat_seed(datum, word, weights)
    done, _ = complete_triangle_seed(datum, seed)
    return done


def reverse_word_seed(datum: rd.RootDatum) -> Seed:
    """Completed triangle built from the reversal of the standard word."""
    word = tuple(reversed(rd.standard_longest_word(datum)))
    return build_triangle_seed(datum, word)
