"""Named mutation sequences, staged application, and equivalence checks.

A sequence runs in stages; the vertices inside one stage must commute.  Two
mutations commute when no arrow joins their vertices (b_uv = 0), so each
stage is checked on the arrows of the seed it starts from.  The checks
compare the outcome against slot-permuted, flipped, or Langlands-dual
targets, always exactly.  The recorded per-stage weight tables of the G2
sequences are compared whole by the suites, not here.

The type-A flips are generated, not tabled.  Fock and Goncharov ("Moduli
spaces of local systems and higher Teichmuller theory", Publ. IHES 103,
2006) decompose the SL_n flip into one mutation per octahedron of the
n-subdivided tetrahedron, C(n+1, 3) in all; ``type_a_flip`` runs them one
layer per stage, so layer k of the a<n-1> flip holds k(n-k) mutations.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

from . import root_data as rd
from .minor_oracle import degrees_of
from .seed_builder import triangle_name, triangle_vertices
from .seed_core import (
    Seed,
    dense,
    langlands_dual,
    map_weights,
    matches_under,
    mutate,
    opposite,
    permute_slots,
    quiver_isomorphic,
)
from .surface_glue import build_conf_m_seed, fan_triangulation, flip_diagonal


@dataclass(frozen=True)
class MutationSequence:
    name: str
    stages: tuple[tuple[str, ...], ...]

    def reversed(self) -> "MutationSequence":
        return MutationSequence(self.name + "_rev", tuple(reversed(self.stages)))

    def conjugated(self, mapping: dict, name: str = "") -> "MutationSequence":
        return MutationSequence(
            name or self.name + "_conj",
            tuple(tuple(mapping[v] for v in stage) for stage in self.stages),
        )


# exchange corners 1 and 3, and corners 2 and 3, of the g2 triangle seed
_S13 = (("x_a2",), ("x_a1", "x_b1"), ("x_a2",))
_S23 = (("x_b1",), ("x_b2", "x_a2"), ("x_b1",))


@cache
def type_a_flip(datum: rd.RootDatum) -> MutationSequence:
    """The diagonal flip of a type-A datum's default four-point seed.

    For SL_n, a vertex sits at the point of the n-subdivided tetrahedron
    given by its slot degrees (a, b, c, d).  Each point p with sum n - 2 is
    one octahedron: it mutates the vertex now at p + e1 + e3, which moves to
    p + e2 + e4.  Layer L holds the octahedra with b + d = L; each layer is
    one stage, in vertex order.  Other types raise ValueError.
    """
    if not datum.kind.startswith("a"):
        raise ValueError(f"type {datum.kind} has no type-A flip")
    n = datum.rank + 1
    seed = build_conf_m_seed(datum, 4)
    at = {degrees_of(dense(ws, *seed.weight_shape)): v for v, ws in enumerate(seed.slot_weights)}
    stages = []
    for layer in range(n - 1):
        moved = []
        for a, b in product(range(n - 1 - layer), range(layer + 1)):
            c, d = n - 2 - layer - a, layer - b
            v = at.pop((a + 1, b, c + 1, d))
            at[a, b + 1, c, d + 1] = v
            moved.append(v)
        stages.append(tuple(seed.names[v] for v in sorted(moved)))
    return MutationSequence(f"{datum.kind}_flip", tuple(stages))


def builtin_sequences() -> dict[str, MutationSequence]:
    return {
        "g2_swap13": MutationSequence("g2_swap13", _S13),
        "g2_swap23": MutationSequence("g2_swap23", _S23),
        # exchanges corners 1 and 2, composed from the other two swaps
        "g2_swap12": MutationSequence("g2_swap12", _S13 + _S23 + _S13),
        # moves the g2 four-point seed across the diagonal flip
        "g2_flip": MutationSequence(
            "g2_flip",
            (
                ("x_0a",),
                ("x_-1a", "x_0b", "x_1a"),
                ("x_-2a", "x_-1b", "x_0a", "x_1b", "x_2a"),
                ("x_-2b", "x_-1a", "x_0b", "x_1a", "x_2b"),
                ("x_-1b", "x_0a", "x_1b"),
                ("x_0b",),
            ),
        ),
        "a2_flip": type_a_flip(rd.root_datum("a2")),
        "a3_flip": type_a_flip(rd.root_datum("a3")),
    }


class StageOrderError(ValueError):
    pass


@dataclass
class ApplyResult:
    final: Seed
    stage_weights: tuple[dict, ...]


def apply_sequence(seed: Seed, seq: MutationSequence) -> ApplyResult:
    """Run the stages; no arrow may join two vertices of one stage.

    Mutation at u leaves every row with b_vu = 0 unchanged, so mutations at
    unjoined vertices commute (Fomin-Zelevinsky, Cluster algebras I) and a
    stage whose vertices are pairwise unjoined gives the same seed, weights
    and labels in every order.
    """
    cur = seed
    tables = []
    for s, stage in enumerate(seq.stages):
        if len(set(stage)) != len(stage):
            raise ValueError(f"stage {s + 1} of {seq.name} repeats a vertex")
        idx = {cur.index(v) for v in stage}
        if any(j in idx for p in idx for j, _ in cur.rows[p]):
            raise StageOrderError(
                f"stage {s + 1} of {seq.name} depends on its order"
            )
        for v in stage:
            cur = mutate(cur, v)
        if cur.weight_shape is not None:
            tables.append({nm: dense(ws, *cur.weight_shape)
                           for nm, ws in zip(cur.names, cur.slot_weights)})
    return ApplyResult(cur, tuple(tables))


@dataclass
class CheckReport:
    name: str
    passed: bool
    lines: tuple[str, ...] = ()

    def __bool__(self):
        return self.passed


def verify_s3(
    seed: Seed, seq: MutationSequence, slot_perm: tuple[int, int, int]
) -> CheckReport:
    """Does the sequence land on the slot-permuted seed with its arrows reversed?"""
    mapping = quiver_isomorphic(
        opposite(apply_sequence(seed, seq).final), permute_slots(seed, slot_perm)
    )
    if mapping is None:
        note = "final seed does not match the permuted start"
    else:
        moved = {k: v for k, v in mapping.items() if k != v}
        note = f"matched, relabeling {moved or 'identity'}"
    return CheckReport(f"s3:{seq.name}", mapping is not None, (f"{seq.name}: {note}",))


FLIP_CORNER_ORDERS = ((1, 2, 4), (3, 4, 2))


def flip_target(datum: rd.RootDatum) -> Seed:
    """The four-point seed rebuilt on the flipped triangulation."""
    tri = flip_diagonal(fan_triangulation(4), (1, 3))
    return build_conf_m_seed(datum, 4, tri, FLIP_CORNER_ORDERS)


def verify_flip(datum: rd.RootDatum, seed: Seed, seq: MutationSequence) -> CheckReport:
    ok = quiver_isomorphic(apply_sequence(seed, seq).final, flip_target(datum)) is not None
    note = f"final seed {'matches' if ok else 'does not match'} the flipped build"
    return CheckReport(f"flip:{seq.name}", ok, (f"{seq.name}: {note}",))


def verify_langlands_pairing(
    seed: Seed,
    seq_a: MutationSequence,
    seq_b: MutationSequence,
    pairing: dict,
    *,
    slot_perm: tuple[int, ...] | None = None,
    stage_reversal: bool = False,
) -> CheckReport:
    """Check that seq_b is the Langlands shadow of seq_a on this g2 seed.

    ``pairing`` is the self-duality relabeling: it sends each vertex to its
    dual partner, short and long nodes exchanged.  Three parts: (1)
    conjugating seq_a's stages by the pairing -- and reversing stage order
    when ``stage_reversal`` is set -- gives seq_b; (2) dualizing commutes
    with running either sequence; (3) when ``slot_perm`` is given, the seed
    is self-dual: its dual matches it under the pairing after the slot
    permutation, and so does the dual of seq_a's run against seq_b's run.
    Weights go to the dual lattice through ``rd.g2_weight_dual``.
    """
    lines = []
    ok = True

    conj = tuple(
        tuple(sorted(pairing[v] for v in stage)) for stage in seq_a.stages
    )
    if stage_reversal:
        conj = conj[::-1]
    want = tuple(tuple(sorted(stage)) for stage in seq_b.stages)
    if conj != want:
        ok = False
        lines.append("stage conjugation does not yield the paired sequence")
    else:
        lines.append("paired sequence is the conjugate of the first")

    dual = langlands_dual(seed, rd.g2_weight_dual)
    finals, dual_finals = [], []
    for seq in (seq_a, seq_b):
        finals.append(apply_sequence(seed, seq).final)
        dual_finals.append(langlands_dual(finals[-1], rd.g2_weight_dual))
        if dual_finals[-1] != apply_sequence(dual, seq).final:
            ok = False
            lines.append(f"dualizing does not commute with {seq.name}")
        else:
            lines.append(f"dualizing commutes with {seq.name}")

    if slot_perm is not None:
        base = matches_under(dual, permute_slots(seed, slot_perm), pairing)
        fin = matches_under(
            dual_finals[0], permute_slots(finals[1], slot_perm), pairing
        )
        if base and fin:
            lines.append("self-duality relabeling holds before and after")
        else:
            ok = False
            lines.append(f"self-duality relabeling fails (start {base}, end {fin})")
    return CheckReport(f"langlands:{seq_a.name}~{seq_b.name}", ok, tuple(lines))


def verify_dynkin_automorphism_d4(seed: Seed, sigma: dict) -> CheckReport:
    """A permutation of the d4 nodes acting on the completed triangle seed.

    ``sigma`` maps each node a1, a2, a3, b to its image and must be a
    permutation of the four nodes; anything else raises ValueError.  The
    report is named by the images of a1, a2, a3, as in "triality a1a3a2".
    """
    datum = rd.root_datum("d4")
    if set(sigma) != set(datum.nodes) or set(sigma.values()) != set(datum.nodes):
        raise ValueError(f"{sigma} is not a permutation of the d4 nodes")
    mapping = {
        triangle_name(datum, node, occ): triangle_name(datum, sigma[node], occ)
        for node, occ in triangle_vertices(datum)
    }

    def wmap(w):
        return dense(((datum.index(sigma[node]), w[datum.index(node)]) for node in datum.nodes),
                     datum.rank, None)

    ok = matches_under(map_weights(seed, wmap), seed, mapping)
    return CheckReport(
        f"triality {''.join(sigma[a] for a in ('a1', 'a2', 'a3'))}",
        ok,
        (f"permutation {sigma} {'preserves' if ok else 'breaks'} the seed",),
    )
