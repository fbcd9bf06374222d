"""Glue triangle seeds into polygon seeds.

A triangulated m-gon has marked points 1..m.  Every triangle carries the
same seed, so one completed triangle seed is built per polygon and embedded
once per corner order into the m weight slots (slot t of the triangle maps
to corner order[t]).  Consecutive triangles are then amalgamated along their
shared diagonals: frozen vertices with equal weight tuples are merged and
the merged vertex unfreezes (Fock and Goncharov, "Cluster X-varieties,
amalgamation, and Poisson-Lie groups", 2006).  Diagonals are matched per
triangle: a diagonal lies in exactly two triangles, so the vertices to merge
across it are found between those two pieces alone, not by a scan of the
whole glued seed.  Corner orders are taken counterclockwise; a clockwise
(odd) order reverses all arrows of that triangle.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations, compress, count

from . import root_data as rd
from .seed_builder import (
    build_triangle_seed,
    four_point_name,
    triangle_name,
    triangle_vertices,
)
from .seed_core import Seed, map_label_weights


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
    quad = frozenset(touching[0]) | frozenset(touching[1])
    new_d = quad - d
    keep = [t for t in tri.triangles if t not in touching]
    p, q = sorted(new_d)
    for r in sorted(d):
        keep.append(tuple(sorted((p, q, r))))
    return Triangulation(tri.m, tuple(sorted(keep)))


def default_corner_orders(tri: Triangulation) -> tuple[tuple[int, int, int], ...]:
    """Corner orders used when none are given.

    The fan from marked point 1 gets the orientation (1,2,3), then (i,i+1,1)
    for the triangle on {1,i,i+1}; any other triangulation is taken ascending.
    """
    if tri == fan_triangulation(tri.m):
        orders = [(1, 2, 3)]
        for i in range(3, tri.m):
            orders.append((i, i + 1, 1))
        return tuple(orders)
    return tri.triangles


def _parity(order: tuple[int, int, int]) -> int:
    inv = sum(
        1
        for i in range(3)
        for j in range(i + 1, 3)
        if order[i] > order[j]
    )
    return inv % 2


def embed_triangle(seed: Seed, order: tuple[int, int, int], m: int, prefix: str) -> Seed:
    """Spread a 3-slot seed over m slots through its corner order."""
    if seed.slots != 3:
        raise ValueError("triangle seeds have three slots")
    zero = (0,) * len(seed.weights[0][0])

    def embed(ws):
        out = [zero] * m
        for t, corner in enumerate(order):
            out[corner - 1] = ws[t]
        return tuple(out)

    weights = tuple(embed(ws) for ws in seed.weights)
    labels = None
    if seed.labels is not None:
        labels = map_label_weights(seed.labels, embed)
    b2 = seed.b2
    if _parity(order):
        b2 = tuple(tuple(-x for x in row) for row in b2)
    return replace(
        seed,
        names=tuple(prefix + nm for nm in seed.names),
        b2=b2,
        weights=weights,
        labels=labels,
    )


def amalgamate(a: Seed, b: Seed, pairs) -> Seed:
    """Merge seed b into seed a along pairs of frozen vertices.

    Each pair (name_in_a, name_in_b) must agree in multiplier and weight
    tuple; merged rows add, and the merged vertex unfreezes.  The glued seed
    lists a's vertices, then b's unmerged ones in their order.
    """
    if set(a.names) & set(b.names):
        raise ValueError("seeds to amalgamate must have disjoint names")
    partner = {}  # index in b -> index in a
    for p, q in pairs:
        ia, ib = a.index(p), b.index(q)
        if not (a.frozen[ia] and b.frozen[ib]):
            raise ValueError(f"pair ({p},{q}) must be frozen on both sides")
        if a.mult[ia] != b.mult[ib]:
            raise ValueError(f"pair ({p},{q}) has mismatched multipliers")
        if a.weights is not None and b.weights is not None:
            if a.weights[ia] != b.weights[ib]:
                raise ValueError(f"pair ({p},{q}) has mismatched weights")
        if ib in partner or ia in partner.values():
            raise ValueError("pairs must be disjoint")
        partner[ib] = ia

    keep = [j for j in range(b.size) if j not in partner]
    fresh = count(a.size)
    spot = [partner[j] if j in partner else next(fresh) for j in range(b.size)]

    def glue(xs, ys):
        if xs is None or ys is None:
            return None
        return xs + tuple(ys[j] for j in keep)

    frozen = list(a.frozen)
    for i in partner.values():
        frozen[i] = False
    total = a.size + len(keep)
    pad = (0,) * len(keep)
    # rows of a that b does not write stay tuples; spot is one-to-one, so
    # each row b writes is unpacked once
    big = [row + pad for row in a.b2] + [(0,) * total] * len(keep)
    for i, row in enumerate(b.b2):
        out = list(big[spot[i]])
        for j in compress(range(b.size), row):
            out[spot[j]] += row[j]
        big[spot[i]] = tuple(out)
    return Seed(
        glue(a.names, b.names),
        glue(tuple(frozen), b.frozen),
        glue(a.mult, b.mult),
        tuple(big),
        glue(a.weights, b.weights),
        glue(a.labels, b.labels),
    )


def _support(ws) -> frozenset[int]:
    return frozenset(t for t, w in enumerate(ws) if any(w))


def diagonal_pairs(a: Seed, b: Seed, diag) -> list[tuple[str, str]]:
    """Frozen vertices of a and b supported exactly on the diagonal's corners,
    matched by weight tuple."""
    want = frozenset(c - 1 for c in diag)
    left = {
        a.weights[i]: nm
        for i, nm in enumerate(a.names)
        if a.frozen[i] and _support(a.weights[i]) == want
    }
    pairs = []
    for i, nm in enumerate(b.names):
        if b.frozen[i] and _support(b.weights[i]) == want:
            w = b.weights[i]
            if w not in left:
                raise ValueError(f"no partner for {nm} across {sorted(diag)}")
            pairs.append((left.pop(w), nm))
    if left:
        raise ValueError(f"unmatched vertices {sorted(left.values())} on {sorted(diag)}")
    return pairs


def _conf4_rename(datum, seed: Seed) -> Seed:
    rename = {}
    for k, second in (("t0.", False), ("t1.", True)):
        for node, occ in triangle_vertices(datum):
            rename[k + triangle_name(datum, node, occ)] = four_point_name(
                datum, node, occ, second=second
            )
    return replace(seed, names=tuple(rename[nm] for nm in seed.names))


def build_conf_m_seed(
    datum: rd.RootDatum,
    m: int,
    triangulation: Triangulation | None = None,
    corner_orders=None,
) -> Seed:
    """Glue copies of one completed triangle seed over a triangulated m-gon.

    The triangle seed of ``datum`` is built and completed once, then embedded
    once per corner order and amalgamated along the diagonals.

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
    pieces = [
        embed_triangle(base, order, m, f"t{k}.") for k, order in enumerate(orders)
    ]

    # the triangles of a tiling are joined through its diagonals, so every
    # sweep places at least one more triangle
    placed = pieces[0]
    placed_tris = [0]
    remaining = list(range(1, len(pieces)))
    while remaining:
        for k in list(remaining):
            shared = []
            for s in placed_tris:
                diag = frozenset(tri.triangles[k]) & frozenset(tri.triangles[s])
                if len(diag) == 2:
                    shared.append((s, diag))
            if not shared:
                continue
            pairs = []
            for s, diag in shared:
                # a diagonal lies in exactly two triangles, so the glued
                # seed's frozen vertices on it are still piece s's, unmerged
                # and under the same names
                pairs.extend(diagonal_pairs(pieces[s], pieces[k], diag))
            placed = amalgamate(placed, pieces[k], pairs)
            placed_tris.append(k)
            remaining.remove(k)

    if (
        m == 4
        and tri == fan_triangulation(4)
        and orders == default_corner_orders(tri)
    ):
        placed = _conf4_rename(datum, placed)
    return placed
