"""Root data for the Cartan types the seed builders understand.

Conventions, fixed once and used everywhere:

* nodes are short strings: "1".."n" for type A, "a","b" for G2 (a short,
  b long), "a1","a2","a3","b" for D4;
* a weight is a tuple of ints in the fundamental-weight basis, ordered
  like ``datum.nodes``;
* the Cartan matrix has C[i][j] = <alpha_j, alpha_i^vee>, so the symmetrizers
  satisfy d[i]*C[i][j] == d[j]*C[j][i] and the j-th simple root expands as
  alpha_j = sum_i C[i][j] * omega_i (columns expand roots);
* a word is a tuple of nodes and acts on weights rightmost letter first.
"""
from __future__ import annotations

from dataclasses import dataclass

from .linalg import mat_mul

Weight = tuple  # tuple of ints, fundamental-weight coordinates


@dataclass(frozen=True)
class RootDatum:
    kind: str
    nodes: tuple[str, ...]
    cartan: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.nodes)

    def index(self, node: str) -> int:
        try:
            return self.nodes.index(node)
        except ValueError:
            raise KeyError(f"unknown node {node!r} for type {self.kind}") from None


def root_datum(kind: str) -> RootDatum:
    """Return the root datum for "a<n>", "g2" or "d4"."""
    kind = kind.lower()
    if kind.startswith("a") and kind[1:].isdigit():
        n = int(kind[1:])
        if n < 1:
            raise ValueError(f"bad rank in {kind!r}")
        nodes = tuple(str(i) for i in range(1, n + 1))
        cartan = tuple(
            tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
            for i in range(n)
        )
        return RootDatum(kind, nodes, cartan, (1,) * n)
    if kind == "g2":
        return RootDatum("g2", ("a", "b"), ((2, -3), (-1, 2)), (1, 3))
    if kind == "d4":
        # central node "b", outer nodes "a1","a2","a3"
        nodes = ("a1", "a2", "a3", "b")
        cartan = (
            (2, 0, 0, -1),
            (0, 2, 0, -1),
            (0, 0, 2, -1),
            (-1, -1, -1, 2),
        )
        return RootDatum("d4", nodes, cartan, (1, 1, 1, 1))
    raise ValueError(f"unsupported type {kind!r}")


def check_symmetrizable(datum: RootDatum) -> None:
    n = datum.rank
    for i in range(n):
        if datum.cartan[i][i] != 2:
            raise ValueError("Cartan diagonal must be 2")
        for j in range(n):
            if datum.d[i] * datum.cartan[i][j] != datum.d[j] * datum.cartan[j][i]:
                raise ValueError(f"symmetrizer fails at ({i},{j})")


def zero_weight(datum: RootDatum) -> Weight:
    return (0,) * datum.rank


def fundamental_weight(datum: RootDatum, node: str) -> Weight:
    i = datum.index(node)
    return tuple(int(k == i) for k in range(datum.rank))


def simple_root(datum: RootDatum, node: str) -> Weight:
    """alpha_j in fundamental-weight coordinates (column j of the Cartan matrix).

    >>> simple_root(root_datum("g2"), "a")
    (2, -1)
    """
    j = datum.index(node)
    return tuple(datum.cartan[i][j] for i in range(datum.rank))


def add_weights(u: Weight, v: Weight) -> Weight:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub_weights(u: Weight, v: Weight) -> Weight:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def scale_weight(c, v: Weight) -> Weight:
    return tuple(c * a for a in v)


def reflect(datum: RootDatum, node: str, w: Weight) -> Weight:
    """Simple reflection s_node acting on a weight: s_i(w) = w - w_i * alpha_i."""
    i = datum.index(node)
    alpha = simple_root(datum, node)
    return tuple(a - w[i] * c for a, c in zip(w, alpha))


def apply_word(datum: RootDatum, word: tuple[str, ...], w: Weight) -> Weight:
    """Apply s_{i1}...s_{iN} to w, rightmost reflection first."""
    for node in reversed(word):
        w = reflect(datum, node, w)
    return w


def dynkin_neighbors(datum: RootDatum, node: str) -> tuple[str, ...]:
    i = datum.index(node)
    return tuple(
        datum.nodes[j]
        for j in range(datum.rank)
        if j != i and datum.cartan[i][j] != 0
    )


# == reduced words and the longest element ==

def _reflection_on_roots(datum: RootDatum, j: int) -> list[list[int]]:
    """Matrix of s_j in simple-root coordinates: S_j = I - e_j (row j of C)."""
    n = datum.rank
    mat = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for c in range(n):
        mat[j][c] -= datum.cartan[j][c]
    return mat


def is_reduced(datum: RootDatum, word: tuple[str, ...]) -> bool:
    """True when no shorter word represents the same Weyl group element."""
    n = datum.rank
    cur = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for node in word:
        j = datum.index(node)
        # column j of cur is the image of alpha_j; length goes up iff positive
        col = [cur[r][j] for r in range(n)]
        if any(c < 0 for c in col):
            return False
        cur = mat_mul(cur, _reflection_on_roots(datum, j))
    return True


def positive_roots(datum: RootDatum) -> frozenset[tuple[int, ...]]:
    """All positive roots, in simple-root coordinates."""
    n = datum.rank
    refl = [_reflection_on_roots(datum, j) for j in range(n)]
    roots = {tuple(1 if k == i else 0 for k in range(n)) for i in range(n)}
    frontier = set(roots)
    while frontier:
        fresh = set()
        for r in frontier:
            for j in range(n):
                img = tuple(
                    sum(refl[j][p][q] * r[q] for q in range(n)) for p in range(n)
                )
                if all(c >= 0 for c in img) and img not in roots:
                    fresh.add(img)
        roots |= fresh
        frontier = fresh
    return frozenset(roots)


def positive_root_count(datum: RootDatum) -> int:
    return len(positive_roots(datum))


def is_longest_word(datum: RootDatum, word: tuple[str, ...]) -> bool:
    return len(word) == positive_root_count(datum) and is_reduced(datum, word)


def standard_longest_word(datum: RootDatum) -> tuple[str, ...]:
    """A fixed reduced word for the longest element of each supported type."""
    if datum.kind.startswith("a"):
        out: list[str] = []
        for k in range(1, datum.rank + 1):
            out.extend(str(i) for i in range(k, 0, -1))
        return tuple(out)
    if datum.kind == "g2":
        return ("b", "a") * 3
    if datum.kind == "d4":
        return ("b", "a1", "a2", "a3") * 3
    raise ValueError(f"no standard longest word for {datum.kind!r}")


def w0_on_weight(datum: RootDatum, w: Weight) -> Weight:
    return apply_word(datum, standard_longest_word(datum), w)


def w0_dual(datum: RootDatum, node: str) -> str:
    """The node i* with w0(omega_i) = -omega_{i*}."""
    img = w0_on_weight(datum, fundamental_weight(datum, node))
    for j, nm in enumerate(datum.nodes):
        if img == tuple(-int(k == j) for k in range(datum.rank)):
            return nm
    raise ValueError(f"w0(omega_{node}) is not minus a fundamental weight: {img}")


# == words as strings, and D4 folding ==

def parse_word(datum: RootDatum, text: str) -> tuple[str, ...]:
    """Split a compact word string into node letters, longest node name first.

    >>> parse_word(root_datum("a3"), "121321")
    ('1', '2', '1', '3', '2', '1')
    >>> parse_word(root_datum("d4"), "ba1a2a3")
    ('b', 'a1', 'a2', 'a3')
    >>> parse_word(root_datum("d4"), "b123")
    ('b', 'a1', 'a2', 'a3')
    """
    aliases = {nm: nm for nm in datum.nodes}
    if datum.kind == "d4":
        aliases.update({"1": "a1", "2": "a2", "3": "a3"})
    names = sorted(aliases, key=len, reverse=True)
    out: list[str] = []
    pos = 0
    text = text.replace(" ", "").replace(",", "")
    while pos < len(text):
        for nm in names:
            if text.startswith(nm, pos):
                out.append(aliases[nm])
                pos += len(nm)
                break
        else:
            raise ValueError(f"cannot read a {datum.kind} node at {text[pos:]!r}")
    return tuple(out)


def fold_d4_word(word: tuple[str, ...]) -> tuple[str, ...]:
    """Fold a D4 word along the triality orbit {a1,a2,a3} -> a, b -> b.

    Each maximal run of outer letters must be a full orbit (all three outer
    nodes, once each); a run that splits or repeats cannot be folded.
    """
    out: list[str] = []
    run: list[str] = []

    def close_run():
        if not run:
            return
        if sorted(run) != ["a1", "a2", "a3"]:
            raise ValueError(f"outer-letter run {tuple(run)} is not a triality orbit")
        out.append("a")
        run.clear()

    for node in word:
        if node == "b":
            close_run()
            out.append("b")
        elif node in ("a1", "a2", "a3"):
            run.append(node)
        else:
            raise ValueError(f"not a D4 node: {node!r}")
    close_run()
    return tuple(out)


def g2_weight_dual(w: Weight) -> Weight:
    """Langlands weight map for G2 in the (a,b) basis: omega_a -> omega_b, omega_b -> 3*omega_a."""
    ca, cb = w
    return (3 * cb, ca)
