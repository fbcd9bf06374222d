"""Glue triangle seeds into polygon seeds.

A triangulated m-gon has marked points 1..m.  Every triangle carries the
same seed, so one completed triangle seed is built per polygon and embedded
once per corner order into the m weight slots (slot t of the triangle maps
to corner order[t]).  All the embedded triangles are then amalgamated in one
pass along their shared diagonals: frozen vertices with equal weight tuples
are merged and the merged vertex unfreezes (Fock and Goncharov, "Cluster
X-varieties, amalgamation, and Poisson-Lie groups", 2006).  The pieces'
nonzero rows are concatenated with their columns moved to the glued places,
merged rows adding, and the glued seed is checked once, whatever m is, so
gluing costs O(n + arrows).  Diagonals are matched
per triangle: a diagonal lies in exactly two triangles, so the vertices to
merge across it are found between those two pieces alone, not by a scan of
the whole glued seed.  Corner orders are taken counterclockwise; a clockwise
(odd) order reverses all arrows of that triangle.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations

from . import root_data as rd
from .seed_builder import (
    build_triangle_seed,
    four_point_name,
    triangle_name,
    triangle_vertices,
)
from .seed_core import Seed, move_slots, opposite


@dataclass(frozen=True)
class Triangulation:
    m: int
    triangles: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        m = self.m
        listed = Counter(self.triangles)
        for tri in self.triangles:
            if tuple(sorted(tri)) != tri:
                raise ValueError(f"triangle {tri} must be listed ascending")
            if not all(1 <= c <= m for c in tri):
                raise ValueError(f"triangle {tri} outside 1..{m}")
            if listed[tri] > 1:
                raise ValueError(f"triangle {tri} is listed twice")
        if len(self.triangles) != m - 2:
            raise ValueError("an m-gon triangulation has m-2 triangles")
        # m-2 distinct triangles with each side of the m-gon in one of them
        # and every other edge in none or two form a disk with all vertices
        # on its boundary, so they tile the m-gon and no two diagonals cross
        seen = self._edge_counts()
        for k in range(1, m + 1):
            if seen.pop(frozenset((k, k % m + 1)), 0) != 1:
                raise ValueError(f"side {k}-{k % m + 1} must lie in exactly one triangle")
        for e, c in seen.items():
            if c != 2:
                a, b = sorted(e)
                raise ValueError(f"diagonal {a}-{b} must lie in exactly two triangles")

    def _edge_counts(self) -> Counter:
        return Counter(frozenset(e) for t in self.triangles for e in combinations(t, 2))

    def diagonals(self) -> frozenset[frozenset[int]]:
        return frozenset(e for e, k in self._edge_counts().items() if k == 2)


def fan_triangulation(m: int) -> Triangulation:
    if m < 3:
        raise ValueError("need at least a triangle")
    return Triangulation(m, tuple((1, i, i + 1) for i in range(2, m)))


def flip_diagonal(tri: Triangulation, diag) -> Triangulation:
    """Replace one diagonal by the other diagonal of its quadrilateral."""
    d = frozenset(diag)
    if d not in tri.diagonals():
        raise ValueError(f"{sorted(diag)} is not a diagonal")
    touching = [t for t in tri.triangles if d <= frozenset(t)]
    p, q = sorted((frozenset(touching[0]) | frozenset(touching[1])) - d)
    keep = [t for t in tri.triangles if t not in touching]
    keep += [tuple(sorted((p, q, r))) for r in d]
    return Triangulation(tri.m, tuple(sorted(keep)))


def default_corner_orders(tri: Triangulation) -> tuple[tuple[int, int, int], ...]:
    """Corner orders used when none are given.

    The fan from marked point 1 gets the orientation (1,2,3), then (i,i+1,1)
    for the triangle on {1,i,i+1}; any other triangulation is taken ascending.
    """
    if tri == fan_triangulation(tri.m):
        return ((1, 2, 3),) + tuple((i, i + 1, 1) for i in range(3, tri.m))
    return tri.triangles


def _parity(order: tuple[int, int, int]) -> int:
    return sum(a > b for a, b in combinations(order, 2)) % 2


def embed_triangle(seed: Seed, order: tuple[int, int, int], m: int, prefix: str) -> Seed:
    """Spread a 3-slot seed over m slots through its corner order."""
    if seed.slots != 3:
        raise ValueError("triangle seeds have three slots")
    names = tuple(prefix + nm for nm in seed.names)
    if _parity(order):
        seed = opposite(seed)
    return move_slots(seed, [c - 1 for c in order], m, names=names)


def amalgamate(pieces, pairs) -> Seed:
    """Glue seeds in one pass along (kept, merged) pairs of frozen vertices.

    The pieces come in placement order.  Each pair keeps a vertex of an
    earlier piece and merges into it one of a later piece with the same
    multiplier and weight tuple; merged rows add and the kept vertex
    unfreezes.  The glued seed lists the pieces' vertices in order less the
    merged ones, and carries weights and labels when every piece does.
    """
    names = [nm for s in pieces for nm in s.names]
    where = {nm: g for g, nm in enumerate(names)}
    if len(where) != len(names):
        raise ValueError("seeds to amalgamate must have disjoint names")
    starts = list(accumulate((s.size for s in pieces), initial=0))

    def joined(field):
        parts = [getattr(s, field) for s in pieces]
        return None if None in parts else [x for part in parts for x in part]

    frozen, mult, weights, labels = map(joined, ("frozen", "mult", "slot_weights", "labels"))
    shapes = {s.weight_shape for s in pieces}
    if weights is not None and len(shapes) > 1:
        raise ValueError("all vertices must use the same number of slots")
    into, used = {}, set()  # into: merged vertex -> the vertex kept for it
    for p, q in pairs:
        if p not in where or q not in where:
            raise KeyError(f"no vertex named {p if p not in where else q!r}")
        i, j = where[p], where[q]
        if i in used or j in used:
            raise ValueError("pairs must be disjoint")
        if not (frozen[i] and frozen[j]):
            raise ValueError(f"pair ({p},{q}) must be frozen on both sides")
        if mult[i] != mult[j]:
            raise ValueError(f"pair ({p},{q}) has mismatched multipliers")
        if weights is not None and weights[i] != weights[j]:
            raise ValueError(f"pair ({p},{q}) has mismatched weights")
        if bisect_right(starts, i) >= bisect_right(starts, j):
            raise ValueError(f"pair ({p},{q}) must keep a vertex of an earlier piece")
        into[j] = i
        used.update((i, j))
        frozen[i] = False

    keep = [g for g in range(len(names)) if g not in into]
    spot = {g: k for k, g in enumerate(keep)}
    spot.update((j, spot[i]) for j, i in into.items())
    # each piece's rows, their columns moved to the glued places; a merged
    # vertex's row adds into the row of the vertex kept for it
    glued = [{} for _ in keep]
    for s, start in zip(pieces, starts):
        for i, row in enumerate(s.rows, start):
            acc = glued[spot[i]]
            for j, b in row:
                c = spot[start + j]
                acc[c] = acc.get(c, 0) + b
    rows = tuple(tuple(sorted(item for item in acc.items() if item[1])) for acc in glued)

    def listed(xs):
        return None if xs is None else tuple(xs[g] for g in keep)

    return Seed(*map(listed, (names, frozen, mult)), rows, listed(weights),
                None if weights is None else shapes.pop(), listed(labels))


def _support(ws) -> frozenset[int]:
    """The slots of a vertex's nonzero weights."""
    return frozenset(s for s, _ in ws)


def diagonal_pairs(a: Seed, b: Seed, diag) -> list[tuple[str, str]]:
    """Frozen vertices of a and b supported exactly on the diagonal's corners,
    matched by weight tuple."""
    want = frozenset(c - 1 for c in diag)
    left = {
        ws: nm
        for nm, fz, ws in zip(a.names, a.frozen, a.slot_weights)
        if fz and _support(ws) == want
    }
    pairs = []
    for nm, fz, ws in zip(b.names, b.frozen, b.slot_weights):
        if fz and _support(ws) == want:
            if ws not in left:
                raise ValueError(f"no partner for {nm} across {sorted(diag)}")
            pairs.append((left.pop(ws), nm))
    if left:
        raise ValueError(f"unmatched vertices {sorted(left.values())} on {sorted(diag)}")
    return pairs


def build_conf_m_seed(
    datum: rd.RootDatum,
    m: int,
    triangulation: Triangulation | None = None,
    corner_orders=None,
) -> Seed:
    """Glue copies of one completed triangle seed over a triangulated m-gon.

    The triangle seed of ``datum`` is built and completed once and embedded
    once per corner order.  Sweeps over the listed triangles place each that
    shares a diagonal with one placed; one amalgamate pass glues them.

    The default four-point seed (fan triangulation, default orders) renames
    its vertices x_0a, x_1a, x_-1a, y_a, ... with positive occurrences in the
    first triangle; other shapes keep their "t<k>." prefixes.  An m whose
    seed would exceed rd.MAX_VERTICES is refused before anything is built.
    """
    rd.vertex_count(datum.kind, datum.rank, len(rd.standard_longest_word(datum)), m)
    tri = triangulation if triangulation is not None else fan_triangulation(m)
    if tri.m != m:
        raise ValueError("triangulation size disagrees with m")
    orders = tuple(corner_orders) if corner_orders is not None else default_corner_orders(tri)
    if len(orders) != len(tri.triangles):
        raise ValueError("one corner order per triangle required")
    for order, t in zip(orders, tri.triangles):
        if tuple(sorted(order)) != t:
            raise ValueError(f"corner order {order} does not match triangle {t}")

    base = build_triangle_seed(datum)
    pieces = [embed_triangle(base, order, m, f"t{k}.") for k, order in enumerate(orders)]
    if m == 4 and tri == fan_triangulation(4) and orders == default_corner_orders(tri):
        vertex = {triangle_name(datum, *v): v for v in triangle_vertices(datum)}
        pieces = [
            p.replace(names=tuple(
                four_point_name(datum, *vertex[nm], second=bool(k)) for nm in base.names
            ))
            for k, p in enumerate(pieces)
        ]

    # the triangles of a tiling are joined through its diagonals, so every
    # sweep places at least one more triangle; a diagonal lies in exactly two
    # triangles, so its pairs are matched between those two pieces alone
    placed, remaining, pairs = [0], list(range(1, len(pieces))), []
    while remaining:
        for k in list(remaining):
            corners = frozenset(tri.triangles[k])
            diags = [(s, corners & frozenset(tri.triangles[s])) for s in placed]
            shared = [(s, d) for s, d in diags if len(d) == 2]
            if shared:
                pairs += [p for s, d in shared for p in diagonal_pairs(pieces[s], pieces[k], d)]
                placed.append(k)
                remaining.remove(k)
    return amalgamate([pieces[k] for k in placed], pairs)
