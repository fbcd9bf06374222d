"""Build triangle seeds: the word quiver, vertex weights, edge completion.

The word quiver for a reduced word of the longest element has one frozen
vertex per node before the scan plus one vertex per letter; letters are
processed in application order (rightmost letter of the written word first).
Each letter i adds a vertex v, a full arrow v -> current(i), and for every
Dynkin neighbor j a half arrow current(i) -> current(j) plus a half arrow
current(j) -> v.  Half arrows between consecutive occurrences merge into full
ones; the surviving halves join frozen vertices only.

Word-vertex weights come from the same scan.  The vertex of the k-th letter
a_k = i has the chamber weight gamma = s_{a_1}...s_{a_k}(omega_i), and a
vertex before the scan has gamma = omega_i (Berenstein, Fomin and Zelevinsky,
"Cluster algebras III", 2005).  Each node keeps its latest chamber weight,
and letter i updates its own by gamma(i) <- -gamma(i) - sum of C[m][i]
gamma(m) over the Dynkin neighbours m of i.  The vertex carries the weights
(iota(gamma+), gamma-, omega_i), with gamma+ and gamma- the positive and
negative parts of gamma's coordinates and iota the diagram involution.  The
one rule serves every reduced word; on the reversed standard word it gives
x_{i,j} the weights of x_{i,r_i-j} with the first two corners swapped.

Completion adds one frozen vertex per node on the remaining side of the
triangle and reads off the connecting arrows: every unfrozen row must pair
to zero against the weights, and every frozen row must pair to its boundary
pattern -- alpha_m/2 at the edge's cyclically first corner (the one carrying
omega_m), w0(alpha_m)/2 at the second, zero at the opposite corner.  Edge
vertex e carries the weights (omega_{e*}, omega_e, 0), so each arrow to it
appears alone in one equation.  Weights are int tuples and balances are
doubled like b2, so the rows read off hold b2 entries.  Completion returns
the completed Seed; Seed's own check_seed refuses a matrix that is not
skew-symmetrizable, has a nonzero diagonal or an odd entry at an unfrozen
vertex, so completion tests only what the weights alone decide.

Vertex x_{i,j} is node i at occurrence j (j = 0 before the scan); edge vertex
x_i belongs to node i.  Names only render these pairs, and two formatters
write them all: triangle_name ("x_a2", edge "x_a") and four_point_name
("x_2a", "x_-2a", "y_a", "y_-a").  From rank 10 up both put "_" between node
and occurrence, so x_1_0 differs from the edge vertex x_10.  Nothing reads a
name back: a frozen vertex's boundary pattern comes from its weights, which
must lie on the edge from some corner s to corner s+1 (mod 3) with a
fundamental weight omega_m at s.
"""
from __future__ import annotations

import operator

from . import root_data as rd
from .seed_core import Minor, Seed, dense, stored_weights, unit, weight_sum


def _sep(datum: rd.RootDatum) -> str:
    """Between node and occurrence once node names can have two digits."""
    return "_" if datum.rank >= 10 else ""


def triangle_name(datum: rd.RootDatum, node: str, occ: int | None = None) -> str:
    """x_{node}{occ} for a word vertex, x_{node} for an edge vertex."""
    return f"x_{node}" if occ is None else f"x_{node}{_sep(datum)}{occ}"


def four_point_name(
    datum: rd.RootDatum, node: str, occ: int | None = None, *, second: bool = False
) -> str:
    """The default four-point name of a triangle vertex.

    x_{occ}{node} and y_{node} in the first triangle, x_-{occ}{node} and
    y_-{node} in the second.
    """
    sign = "-" if second else ""
    return f"y_{sign}{node}" if occ is None else f"x_{sign}{occ}{_sep(datum)}{node}"


def triangle_vertices(datum: rd.RootDatum) -> list[tuple[str, int | None]]:
    """(node, occ) of every vertex of the standard triangle seed, occ None on edges."""
    word = rd.standard_longest_word(datum)
    out = [(node, occ) for node in datum.nodes for occ in range(word.count(node) + 1)]
    return out + [(node, None) for node in datum.nodes]


# == the word quiver ==

def build_bruhat_seed(datum: rd.RootDatum, word: tuple[str, ...]) -> Seed:
    """The word quiver of a reduced word for the longest element, with weights.

    Letters a_1, a_2, ... are read in application order, keeping one chamber
    weight gamma(m) per node, first omega_m.  Letter a_k = i makes gamma(i)
    = s_{a_1}...s_{a_k}(omega_i) (Berenstein, Fomin and Zelevinsky,
    "Cluster algebras III", 2005).  As s_i(omega_i) = omega_i - alpha_i and
    alpha_i = sum_m C[m][i] omega_m, that is the recurrence
    gamma(i) <- -gamma(i) - sum over Dynkin neighbours m of C[m][i] gamma(m).
    The vertex gets the weights (iota(gamma+), gamma-, omega_i), with gamma+
    and gamma- the positive and negative parts of gamma's coordinates.
    """
    if not rd.is_longest_word(datum, word):
        raise ValueError(f"{''.join(word)!r} is not a reduced word for w0 of {datum.kind}")

    def vertex_weights(gamma, node):
        # iota(gamma+) = w0(-gamma+)
        first = rd.w0_on_weight(datum, tuple(-max(c, 0) for c in gamma))
        return first, tuple(max(-c, 0) for c in gamma), rd.fundamental_weight(datum, node)

    names: list[str] = [triangle_name(datum, node, 0) for node in datum.nodes]
    mult: list[int] = list(datum.d)
    chamber = {node: rd.fundamental_weight(datum, node) for node in datum.nodes}
    weights = [vertex_weights(chamber[node], node) for node in datum.nodes]
    current = {node: i for i, node in enumerate(datum.nodes)}
    counts = {node: 0 for node in datum.nodes}
    entries: dict[tuple[int, int], int] = {}

    def add_arrow(dst: int, src: int, halves: int) -> None:
        entries[(dst, src)] = entries.get((dst, src), 0) + halves * unit(mult[dst], mult[src])
        entries[(src, dst)] = entries.get((src, dst), 0) - halves * unit(mult[src], mult[dst])

    for letter in reversed(word):
        counts[letter] += 1
        v = len(names)
        col = datum.index(letter)
        names.append(triangle_name(datum, letter, counts[letter]))
        mult.append(datum.d[col])
        add_arrow(current[letter], v, 2)
        gamma = tuple(-c for c in chamber[letter])
        for nb in rd.dynkin_neighbors(datum, letter):
            add_arrow(current[nb], current[letter], 1)
            add_arrow(v, current[nb], 1)
            c = datum.cartan[datum.index(nb)][col]
            gamma = tuple(g - c * x for g, x in zip(gamma, chamber[nb]))
        chamber[letter] = gamma
        weights.append(vertex_weights(gamma, letter))
        current[letter] = v

    n = len(names)
    rows = [[] for _ in range(n)]
    for (i, j), b in sorted(entries.items()):
        if b:
            rows[i].append((j, b))
    # frozen: the vertices before the scan and each node's last vertex
    last = set(current.values())
    frozen = tuple(v < datum.rank or v in last for v in range(n))
    labels = tuple(Minor(w) for w in weights)
    return Seed(names, frozen, mult, tuple(map(tuple, rows)), *stored_weights(weights),
                labels)


# == completion ==

def _boundary_pattern(datum, name, ws):
    """Twice the boundary pattern of a frozen vertex, read from its weights.

    The weights must lie on the edge from corner s to corner s+1 (mod 3) and
    carry a fundamental weight omega_m at s; the pattern is alpha_m at s and
    w0(alpha_m) at s+1.
    """
    zero = rd.zero_weight(datum)
    fundamental = {rd.fundamental_weight(datum, m): m for m in datum.nodes}
    for s in range(3):
        t, off = (s + 1) % 3, (s + 2) % 3
        if ws[off] == zero and ws[t] != zero and ws[s] in fundamental:
            alpha = rd.simple_root(datum, fundamental[ws[s]])
            S = [zero, zero, zero]
            S[s] = alpha
            S[t] = rd.w0_on_weight(datum, alpha)
            return tuple(S)
    raise ValueError(f"frozen vertex {name} has weights {ws} off the triangle's edges")


def complete_triangle_seed(datum: rd.RootDatum, seed: Seed) -> Seed:
    """Add the third-edge vertices, read off their arrows, return the Seed.

    Every unfrozen row must pair to zero against the weights and every frozen
    row to its boundary pattern.  Edge vertex e carries the weights
    (omega_{e*}, omega_e, 0), so a row's entry at e is fixed by one equation:
    it is coordinate e of the second slot of the row's doubled target
    (pattern minus balance).  The row is consistent exactly when coordinate
    e* of the first slot agrees for every e and the third slot is zero, so
    the completion is unique.  An edge row's entries at the old vertices
    follow by skew-symmetrizability, and its entries at the edges are read
    off the balance of those.  Raises ValueError when a row is inconsistent,
    an edge entry is not half-integral, or weights repeat; Seed itself
    refuses a completed matrix that check_seed rejects.

    Every completed row then pairs to its target, so nothing is checked
    again: a row with doubled balance acc gets the entries
    second = want_2 - acc_2 at the edges, and read_off has refused it
    unless want_3 = acc_3 and (want_1 - acc_1)[e*] = second[e] for every e.
    The edges' weights (omega_{e*}, omega_e, 0) add second[e] at e* of slot
    1 and at e of slot 2, and e -> e* is a bijection, so the completed
    balance is want in every slot.
    """
    if seed.weight_shape is None:
        raise ValueError("completion needs vertex weights")
    zero = rd.zero_weight(datum)

    edge_names = []
    # every vertex's weights, the edges' appended
    weights = [dense(ws, *seed.weight_shape) for ws in seed.slot_weights]
    star = []
    for node in datum.nodes:
        nm = triangle_name(datum, node)
        if nm in seed.names:
            raise ValueError(f"edge vertex name {nm} already taken")
        dual = rd.w0_dual(datum, node)
        edge_names.append(nm)
        weights.append(
            (rd.fundamental_weight(datum, dual), rd.fundamental_weight(datum, node), zero)
        )
        star.append(datum.index(dual))
    names = seed.names + tuple(edge_names)
    frozen = seed.frozen + (True,) * datum.rank

    patterns = {
        name: _boundary_pattern(datum, name, ws)
        for name, fz, ws in zip(names, frozen, weights)
        if fz
    }

    def read_off(name, terms, *, frozen_row: bool) -> tuple[int, ...]:
        """The entries at the edges of a row, from its (b2 entry, slot
        weights) terms."""
        want = patterns.get(name, (zero, zero, zero))
        acc = dict(weight_sum(terms))
        first, second, third = (
            tuple(map(operator.sub, w, acc.get(s, zero))) for s, w in enumerate(want)
        )
        if frozen_row and any(third):
            raise ValueError(f"third-corner component obstructs completion at {name}")
        if any(third) or any(first[s] != x for s, x in zip(star, second)):
            raise ValueError("inconsistent linear system")
        return second

    def at_edges(entries) -> tuple[tuple[int, int], ...]:
        return tuple((n + e, x) for e, x in enumerate(entries) if x)

    # rows of existing vertices against the new edges
    n, ws = seed.size, seed.slot_weights
    to_edges = [
        read_off(name, ((b, ws[j]) for j, b in row), frozen_row=fz)
        for name, fz, row in zip(seed.names, seed.frozen, seed.rows)
    ]
    rows = [row + at_edges(ext) for row, ext in zip(seed.rows, to_edges)]

    # edge rows: old entries by skew-symmetrizability, then edge-edge entries
    for e, d_e in enumerate(datum.d):
        skew = []
        for i, ext in enumerate(to_edges):
            num = -ext[e] * seed.mult[i]
            if num % d_e:
                raise ValueError(f"({edge_names[e]},{seed.names[i]}) is not half-integral")
            if num:
                skew.append((i, num // d_e))
        ext = read_off(edge_names[e], ((c, ws[i]) for i, c in skew), frozen_row=True)
        rows.append(tuple(skew) + at_edges(ext))

    if len(set(weights)) != len(weights):
        raise ValueError("vertex weight tuples must be distinct")
    labels = tuple(Minor(w) for w in weights)
    return Seed(names, frozen, seed.mult + datum.d, rows, *stored_weights(weights), labels)


def build_triangle_seed(datum: rd.RootDatum, word: tuple[str, ...] | None = None) -> Seed:
    """Word quiver plus completion, using the standard word by default."""
    if word is None:
        word = rd.standard_longest_word(datum)
    return complete_triangle_seed(datum, build_bruhat_seed(datum, word))


def reverse_word_seed(datum: rd.RootDatum) -> Seed:
    """Completed triangle built from the reversal of the standard word."""
    word = tuple(reversed(rd.standard_longest_word(datum)))
    return build_triangle_seed(datum, word)
