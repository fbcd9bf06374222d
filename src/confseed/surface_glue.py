"""Glue triangle seeds into polygon seeds.

A triangulated m-gon has marked points 1..m; every triangle seed is embedded
into the m weight slots through its corner order (slot t of the triangle maps
to corner order[t]), then consecutive triangles are amalgamated along their
shared diagonals: frozen vertices with equal weight tuples are merged and the
merged vertex unfreezes.  Corner orders are taken counterclockwise; a
clockwise (odd) order reverses all arrows of that triangle.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from . import root_data as rd
from .seed_builder import build_triangle_seed, vertex_node_occ
from .seed_core import Seed, map_label_weights, negate_b2, permute_slots


@dataclass(frozen=True)
class Triangulation:
    m: int
    triangles: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for tri in self.triangles:
            if tuple(sorted(tri)) != tri:
                raise ValueError(f"triangle {tri} must be listed ascending")
            if not all(1 <= c <= self.m for c in tri):
                raise ValueError(f"triangle {tri} outside 1..{self.m}")
        if len(self.triangles) != self.m - 2:
            raise ValueError("an m-gon triangulation has m-2 triangles")

    def diagonals(self) -> frozenset[frozenset[int]]:
        seen: dict[frozenset[int], int] = {}
        for tri in self.triangles:
            a, b, c = tri
            for e in (frozenset((a, b)), frozenset((b, c)), frozenset((a, c))):
                seen[e] = seen.get(e, 0) + 1
        return frozenset(e for e, k in seen.items() if k == 2)


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
        labels = tuple(map_label_weights(l, embed) for l in seed.labels)
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


def dress_triangle(seed: Seed, perm: tuple[int, int, int]) -> Seed:
    """Reattach a triangle seed to its corners in a new order.

    ``perm`` permutes the three weight slots (new slot t carries old slot
    perm[t]); an odd permutation reverses the orientation, so every arrow
    flips.
    """
    if sorted(perm) != [0, 1, 2]:
        raise ValueError("perm must rearrange (0,1,2)")
    out = permute_slots(seed, perm)
    if _parity(tuple(p + 1 for p in perm)):
        out = negate_b2(out)
    return out


def amalgamate(a: Seed, b: Seed, pairs) -> Seed:
    """Merge seed b into seed a along pairs of frozen vertices.

    Each pair (name_in_a, name_in_b) must agree in multiplier and weight
    tuple; merged rows add, and the merged vertex unfreezes.
    """
    if set(a.names) & set(b.names):
        raise ValueError("seeds to amalgamate must have disjoint names")
    partner = {}
    seen_a = set()
    for p, q in pairs:
        ia, ib = a.index(p), b.index(q)
        if not (a.frozen[ia] and b.frozen[ib]):
            raise ValueError(f"pair ({p},{q}) must be frozen on both sides")
        if a.mult[ia] != b.mult[ib]:
            raise ValueError(f"pair ({p},{q}) has mismatched multipliers")
        if a.weights is not None and b.weights is not None:
            if a.weights[ia] != b.weights[ib]:
                raise ValueError(f"pair ({p},{q}) has mismatched weights")
        if q in partner or p in seen_a:
            raise ValueError("pairs must be disjoint")
        partner[q] = p
        seen_a.add(p)

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


def _support(ws) -> frozenset[int]:
    return frozenset(t for t, w in enumerate(ws) if any(c != 0 for c in w))


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
    out = []
    for nm in seed.names:
        t, rest = nm.split(".", 1)
        node, occ = vertex_node_occ(datum, rest)
        if occ is None:
            out.append(f"y_{node}" if t == "t0" else f"y_-{node}")
        elif t == "t0":
            out.append(f"x_{occ}{node}")
        else:
            out.append(f"x_-{occ}{node}")
    return replace(seed, names=tuple(out))


def build_conf_m_seed(
    datum: rd.RootDatum,
    m: int,
    triangulation: Triangulation | None = None,
    corner_orders=None,
    words=None,
) -> Seed:
    """Glue completed triangle seeds over a triangulated m-gon.

    The default four-point seed (fan triangulation, default orders) renames
    its vertices x_0a, x_1a, x_-1a, y_a, ... with positive occurrences in the
    first triangle; other shapes keep their "t<k>." prefixes.
    """
    tri = triangulation if triangulation is not None else fan_triangulation(m)
    if tri.m != m:
        raise ValueError("triangulation size disagrees with m")
    orders = tuple(corner_orders) if corner_orders is not None else default_corner_orders(tri)
    if len(orders) != len(tri.triangles):
        raise ValueError("one corner order per triangle required")
    for order, t in zip(orders, tri.triangles):
        if tuple(sorted(order)) != t:
            raise ValueError(f"corner order {order} does not match triangle {t}")

    pieces = []
    for k, order in enumerate(orders):
        word = None if words is None else words[k]
        base = build_triangle_seed(datum, word)
        pieces.append(embed_triangle(base, order, m, f"t{k}."))

    placed = pieces[0]
    placed_tris = [0]
    remaining = list(range(1, len(pieces)))
    while remaining:
        progressed = False
        for k in list(remaining):
            shared = []
            for s in placed_tris:
                common = frozenset(tri.triangles[k]) & frozenset(tri.triangles[s])
                if len(common) == 2:
                    shared.append(common)
            if not shared:
                continue
            pairs = []
            for diag in set(shared):
                pairs.extend(diagonal_pairs(placed, pieces[k], diag))
            placed = amalgamate(placed, pieces[k], pairs)
            placed_tris.append(k)
            remaining.remove(k)
            progressed = True
        if not progressed:
            raise ValueError("triangulation is not connected")

    if (
        m == 4
        and tri == fan_triangulation(4)
        and orders == default_corner_orders(tri)
    ):
        placed = _conf4_rename(datum, placed)
    return placed
