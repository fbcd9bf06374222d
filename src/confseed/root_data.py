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

Each type is one entry of a table, and every type rule reads the entry's
fields, never the type's name.  An entry is a RootDatum:

* ``cartan`` and ``d``: the Cartan matrix and its symmetrizers;
* ``iota``: the diagram involution, as node indices, with w0 = -iota, so
  w0(omega_i) = -omega_{iota[i]}: i -> n+1-i on a<n>, the identity on g2
  and d4 (Bourbaki, "Lie Groups and Lie Algebras", Ch. VI, plates);
* ``word``: the standard reduced word for w0;
* ``dual``: node i of the type goes to node dual[i] of its Langlands dual
  type, the type with the transposed Cartan matrix.  Every type here is its
  own dual: dual swaps g2's short and long node and fixes the others.

g2 and d4 are constant entries; a<n> is built from n.

The longest element w0 is read from the entry, never searched for: a word
is a reduced word for w0 exactly when it has length N = len(datum.word) and
sends rho = (1, ..., 1) to -rho.  W acts simply transitively on the Weyl
chambers, so w0 is the only element taking the dominant chamber, which
holds rho, to its negative; and a word of length l(w0) = N that represents
w0 is reduced (Humphreys, "Reflection Groups and Coxeter Groups", 1990,
sections 1.6-1.8).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache

Weight = tuple  # tuple of ints, fundamental-weight coordinates


@dataclass(frozen=True)
class RootDatum:
    kind: str
    nodes: tuple[str, ...]
    cartan: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]
    iota: tuple[int, ...]
    word: tuple[str, ...]
    dual: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.nodes)

    def index(self, node: str) -> int:
        try:
            return self.nodes.index(node)
        except ValueError:
            raise KeyError(f"unknown node {node!r} for type {self.kind}") from None


# The most vertices a built seed may have.  Seed files store b2 densely, so
# they grow like its square: the g2 128-gon, 1,010 vertices, writes 13.5 MB.
# The cap admits the a<n> triangles to a42 and the g2 polygons to m = 129.
MAX_VERTICES = 1024

# The most bits a b2 entry or weight coordinate may have.  Along a mutation
# walk on a mutation-infinite quiver the bit length of the entries grows
# exponentially with the walk's length, so mutation and loading refuse a
# larger value.  4,096 bits stay under the 4,300 decimal digits that int()
# and str() convert by default, so every seed within the cap can be written
# and loaded again.
MAX_ENTRY_BITS = 4096

_KIND = re.compile(r"a[1-9][0-9]*|g2|d4")


def vertex_count(kind: str, rank: int, length: int, m: int) -> int:
    """Vertices of the seed glued over an m-gon, refused above MAX_VERTICES.

    A triangle of rank r and word length N has r + N word vertices and r
    edge vertices; each of the m - 3 diagonals merges r pairs.
    """
    n = (m - 2) * (2 * rank + length) - (m - 3) * rank
    if n > MAX_VERTICES:
        shape = "triangle" if m == 3 else f"{m}-gon"
        raise ValueError(
            f"the {kind} {shape} seed has {n} vertices, over the cap of {MAX_VERTICES}"
        )
    return n


def _type_a(kind: str) -> RootDatum:
    """The entry of a<n>, refused first if its triangle is over the cap."""
    # a rank-r triangle has over r vertices; a rank of ten or more digits
    # is refused unread, as int() refuses strings of over 4,300 digits
    if len(kind) > 10:
        raise ValueError(f"an a<n> rank of {len(kind) - 1} digits is over "
                         f"the cap of {MAX_VERTICES} vertices")
    n = int(kind[1:])
    vertex_count(kind, n, n * (n + 1) // 2, 3)  # N = |positive roots of A_n|
    nodes = tuple(str(i) for i in range(1, n + 1))
    cartan = tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )
    # the word (1)(2 1)(3 2 1)...(n ... 1)
    word = tuple(nodes[i] for k in range(n) for i in range(k, -1, -1))
    return RootDatum(kind, nodes, cartan, (1,) * n, iota=tuple(range(n - 1, -1, -1)),
                     word=word, dual=tuple(range(n)))


# the constant entries; d4 has central node "b" and outer nodes "a1","a2","a3"
_TYPES = {
    "g2": RootDatum("g2", ("a", "b"), ((2, -3), (-1, 2)), (1, 3),
                    iota=(0, 1), word=("b", "a") * 3, dual=(1, 0)),
    "d4": RootDatum(
        "d4", ("a1", "a2", "a3", "b"),
        ((2, 0, 0, -1), (0, 2, 0, -1), (0, 0, 2, -1), (-1, -1, -1, 2)),
        (1, 1, 1, 1), iota=(0, 1, 2, 3), word=("b", "a1", "a2", "a3") * 3, dual=(0, 1, 2, 3),
    ),
}


def root_datum(kind: str) -> RootDatum:
    """Return the root datum for "a<n>" (ASCII digits, no leading zero), "g2"
    or "d4", in any case; a rank over the vertex cap is refused first."""
    kind = kind.lower()
    if not _KIND.fullmatch(kind):
        raise ValueError(f"unsupported type {kind!r}")
    return _TYPES[kind] if kind in _TYPES else _type_a(kind)


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


# == the longest element ==

def standard_longest_word(datum: RootDatum) -> tuple[str, ...]:
    """The type's fixed reduced word for the longest element."""
    return datum.word


def is_longest_word(datum: RootDatum, word: tuple[str, ...]) -> bool:
    """True when word is a reduced word for w0: length N and rho -> -rho."""
    if len(word) != len(datum.word):
        return False
    rho = (1,) * datum.rank
    return apply_word(datum, word, rho) == scale_weight(-1, rho)


def w0_on_weight(datum: RootDatum, w: Weight) -> Weight:
    """w0(w) = -iota(w): minus w with its coordinates permuted by iota."""
    return tuple(-w[j] for j in datum.iota)


def w0_dual(datum: RootDatum, node: str) -> str:
    """The node i* = iota(i), with w0(omega_i) = -omega_{i*}."""
    return datum.nodes[datum.iota[datum.index(node)]]


# == words as strings, and D4 folding ==

def parse_word(datum: RootDatum, text: str) -> tuple[str, ...]:
    """Split a word string into node letters.

    Text with commas or spaces is split there, and each token is one node,
    so two-digit nodes of a<n> can be told apart.  A compact string is read
    greedily, longest node name first.

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
    if "," in text or " " in text:
        tokens = text.replace(",", " ").split()
        for token in tokens:
            if token not in aliases:
                raise ValueError(f"cannot read a {datum.kind} node at {token!r}")
        return tuple(aliases[token] for token in tokens)
    names = sorted(aliases, key=len, reverse=True)
    out: list[str] = []
    pos = 0
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


@cache
def dual_weight_map(datum: RootDatum):
    """The Langlands weight map omega_i -> d_i * omega_{dual[i]}, from the
    weights of datum to those of its dual type, as a function on int tuples.

    Applied twice to a self-dual type it is max(d) times the identity.
    Equal datums get one map object, so every dual under a type's map
    shares the rows ``langlands_dual`` has cached for it.
    """
    src = sorted(range(datum.rank), key=datum.dual.__getitem__)  # dual[src[k]] == k
    scale = tuple(datum.d[i] for i in src)
    return lambda w: tuple(c * w[i] for c, i in zip(scale, src))


# omega_a -> omega_b, omega_b -> 3*omega_a in the (a,b) basis
g2_weight_dual = dual_weight_map(root_datum("g2"))
