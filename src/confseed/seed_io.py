"""Read and write seeds: JSON files and DOT drawings.

Seed files look like::

    {"vertices": [{"id": 0, "tag": "x_a0", "frozen": true, "d": 1,
                   "weights": [[1,0],[0,0],[1,0]], "label": 0}, ...],
     "b2": [[0, ...], ...],
     "labels": [{"kind": "minor", "weights": [...]},
                {"kind": "exchange", "plus": [[0,1]], "minus": [[2,1]], "over": 0}]}

Vertex ids are the JSON integers 0 to n-1, each once, a ``tag`` is a JSON
string, weight coordinates, ``b2`` entries and multipliers ``d`` are JSON
integers (``d`` at least 1), ``frozen`` is a JSON boolean, a label's
``kind`` is "minor" or "exchange" and label exponents are positive JSON
integers, and no integer has more than ``MAX_ENTRY_BITS`` bits; loading
refuses anything else, floats, strings and booleans included, as well as a
vertex weight list with no slots, and weight vectors of different lengths
among the vertices' or within one minor's.  The top-level "labels" table
shares repeated subtrees; each vertex points into it by index, and an
exchange entry only into earlier entries.  Either every vertex has
"weights" or none has, and either every vertex has a "label" and the file
has a "labels" table or neither is there; loading refuses any other mix,
naming the first vertex that differs.  Each label is checked as it is
made: a minor as a vertex's weights are, an exchange for its exponents,
its children's shapes and its two sides' weights.  Labels need weights, and
a vertex's label must have the vertex's weight and weight shape:
check_seed's label rule.

The file stores b2 and the weights of every vertex and every minor label
densely, one entry per vertex pair and one weight per slot, while a Seed
and a Minor store only the nonzero ones.  ``seed_from_json`` type-checks
the whole file's b2 entries in one C-level pass over the rows chained, and
likewise every vertex's weights and then every minor label's; an
entry-by-entry walk runs only where a pass fails, to name the first
offender in file order.  It keeps only the nonzero entries and slots,
building each minor's (slot, weight) pairs and shape through
``stored_weights`` as the vertices' are.  The table lists a seed's labels
in vertex order, children first, so in a built seed's file label entry i
is vertex i's own minor: a minor entry whose dense list equals (``==``)
that of the vertex at its table position, where both passes held and that
list has the seed's slot count, is made from the vertex's stored pairs and
the seed's shape, with no second ``stored_weights`` call.  Equal lists of
JSON ints have one stored form, so the seed is the same either way, and
the slot count keeps a vertex of too many slots refused as check_seed
refuses it.  Names, flags, multipliers and caps are check_seed's, and
exponents the Exchange's, with the messages used here.

``load_seed`` pauses the cyclic garbage collector while it parses and
builds, and restores the state it found.  Parsed JSON and a seed hold no
reference cycles, so the collector's passes over them free nothing, and
reference counting frees them as before.  Unpaused, writing and loading
the benchmark's 58 polygon and triangle files ran about 390 collections,
380 of them inside ``load_seed``, for 46-56 ms (2-core Xeon, Python 3.11).

Only ``seed_to_json`` expands a minor to its dense weight list.
``write_seed`` writes exactly the bytes of
``json.dump(seed_to_json(seed), fh, indent=1)`` followed by a newline,
rendered from the stored forms: a run of zero entries or zero slots, a
vertex's or a minor's, is one repeated string.  It renders that schema
itself because CPython's ``json`` turns its C encoder off whenever
``indent`` is set, and the pure-Python encoder it falls back to was the
largest cost of writing a polygon seed file.
"""
from __future__ import annotations

import gc
import json
import os
import stat
from fractions import Fraction as Q
from itertools import chain, repeat

from .seed_core import (Exchange, Label, Minor, Seed, arrows, dense, nonzero_pairs, post_order,
                        stored_weights)


def _ints(values, what: str) -> tuple[int, ...]:
    """values as a tuple, refusing anything but JSON integers."""
    out = tuple(values)
    for x in out:
        if type(x) is not int:
            raise ValueError(f"{what} {x!r} is not an integer")
    return out


def _label_table(seed: Seed) -> tuple[dict[Label, int], list[int] | None]:
    """The nodes of the "labels" table, children first, each mapped to its
    index there in table order, and each vertex's index into it."""
    index: dict[Label, int] = {}
    if seed.labels is None:
        return index, None
    for label in seed.labels:
        for top in post_order(label, index):
            index[top] = len(index)
    return index, [index[label] for label in seed.labels]


def _json_entry(top: Label, index: dict[Label, int]) -> dict:
    """The "labels" table entry of a label node, a minor's weights dense."""
    if isinstance(top, Minor):
        return {"kind": "minor", "weights": dense(top.weights, *top.shape)}
    return {
        "kind": "exchange",
        "plus": [(index[l], e) for l, e in top.plus],
        "minus": [(index[l], e) for l, e in top.minus],
        "over": index[top.over],
    }


def seed_to_json(seed: Seed) -> dict:
    """The JSON form of a seed, dense: b2 and every slot's weight."""
    index, at = _label_table(seed)
    shape = seed.weight_shape
    vertices = []
    for i, name in enumerate(seed.names):
        v = {
            "id": i,
            "tag": name,
            "frozen": seed.frozen[i],
            "d": seed.mult[i],
        }
        if shape is not None:
            v["weights"] = dense(seed.slot_weights[i], *shape)
        if at is not None:
            v["label"] = at[i]
        vertices.append(v)
    out = {"vertices": vertices, "b2": tuple(dense(row, seed.size, 0) for row in seed.rows)}
    if index:
        out["labels"] = [_json_entry(top, index) for top in index]
    return out


def _entry(built: list, i, what: str):
    """built[i] for a label index i that points at an entry already read."""
    if type(i) is not int or not 0 <= i < len(built):
        raise ValueError(f"{what} index {i!r} is outside the label table")
    return built[i]


def _monomial_in(built: list, pairs, what: str):
    """One side of an exchange entry: (label, exponent) pairs, whose
    exponents the Exchange made of them checks."""
    return tuple((_entry(built, i, what), e) for i, e in pairs)


def _all_ints(values) -> bool:
    """Whether every value is a JSON integer, in one C-level pass.

    Counting the types that are int keeps booleans out, as ``type(x) is
    int`` does.  A TypeError from iterating gives False, so that the
    entry-by-entry check of ``_ints`` names the first fault in order.
    """
    try:
        types = list(map(type, values))
    except TypeError:
        return False
    return types.count(int) == len(types)


def _weights_pass(lists) -> bool:
    """Whether the weight lists are well formed, checked in C-level passes
    over all of them at once.

    Well formed means that every coordinate is a JSON integer, every list
    has a slot, and every vector has one length; where they are not,
    ``_weights_walk`` names the first fault.
    """
    return (_all_ints(chain.from_iterable(chain.from_iterable(lists))) and all(lists)
            and len(set(map(len, chain.from_iterable(lists)))) == 1)


def _weights_walk(lists) -> None:
    """Refuse the first fault of the weight lists, list by list in file order."""
    lengths = set()
    for ws in lists:
        for w in ws:
            _ints(w, "weight coordinate")
        if not ws:
            raise ValueError("a weight list has no slots")
        lengths.update(map(len, ws))
        if len(lengths) > 1:
            raise ValueError(f"weight vectors of {min(lengths)} and {max(lengths)} coordinates")


def _carried(vertices, key: str) -> bool:
    """Whether the vertices carry ``key``: all of them do or none does."""
    first = bool(vertices) and key in vertices[0]
    for i, v in enumerate(vertices):
        if (key in v) != first:
            raise ValueError(
                f"vertex {i} has no {key!r} key, but vertex 0 has one" if first
                else f"vertex {i} has a {key!r} key, but vertex 0 has none"
            )
    return first


def seed_from_json(data: dict) -> Seed:
    """Rebuild a seed from its JSON form; raises ValueError on malformed data.

    The type checks of b2, of the vertices' weights and of the minor
    labels' weights each take one C-level pass over the whole file's
    entries, chained; only where a pass fails does an entry-by-entry walk
    run, to name the first offending entry in file order.  Only the
    nonzero b2 entries and weight slots are kept.
    """
    try:
        vertices = sorted(data["vertices"], key=lambda v: v["id"])
        ids = _ints((v["id"] for v in vertices), "vertex id")
        n = len(ids)
        if ids != tuple(range(n)):
            # n ids that are not 0..n-1 miss at least one of them
            missing = min(set(range(n)) - set(ids))
            raise ValueError(f"no vertex has id {missing}; ids must be 0 to {n - 1}")
        names = tuple(v["tag"] for v in vertices)
        frozen = tuple(v["frozen"] for v in vertices)
        mult = tuple(v["d"] for v in vertices)
        b2 = data["b2"]
        if not _all_ints(chain.from_iterable(b2)):
            for row in b2:
                _ints(row, "b2 entry")
        rows = tuple(map(nonzero_pairs, b2, repeat(n)))

        slot_weights = shape = None
        if _carried(vertices, "weights"):
            lists = [v["weights"] for v in vertices]
            if not _weights_pass(lists):
                _weights_walk(lists)
            if not lists[0][0]:
                raise ValueError("a weight vector has no coordinates")
            slot_weights, shape = stored_weights(lists)

        labels = None
        if _carried(vertices, "label") != ("labels" in data) and vertices:
            raise ValueError(
                "the file has a 'labels' table, but vertex 0 has no 'label' key"
                if "labels" in data
                else "vertex 0 has a 'label' key, but the file has no 'labels' table"
            )
        if "labels" in data and vertices:
            entries = data["labels"]
            try:
                checked = _weights_pass(
                    [entry["weights"] for entry in entries if entry["kind"] == "minor"])
            except (KeyError, TypeError):  # the walk below names the fault
                checked = False
            # vertex i's dense list, where it has the seed's slot count: a
            # minor entry of int coordinates equal to it at table position i
            # is the vertex's own minor
            owned = ([ws if len(ws) == shape[0] else None for ws in lists]
                     if checked and slot_weights is not None else [])
            built: list[Label] = []
            for at, entry in enumerate(entries):
                kind = entry["kind"]
                if kind == "minor" and at < len(owned) and entry["weights"] == owned[at]:
                    built.append(Minor(slot_weights[at], shape))
                elif kind == "minor":
                    # a minor of no slots or coordinates is refused as it is
                    # made, and one of another shape than the vertices' by
                    # the exchange over it or by check_seed
                    if not checked and entry["weights"]:
                        _weights_walk([entry["weights"]])
                    (pairs,), own = stored_weights((entry["weights"],))
                    built.append(Minor(pairs, own))
                elif kind == "exchange":
                    built.append(
                        Exchange(
                            _monomial_in(built, entry["plus"], "plus"),
                            _monomial_in(built, entry["minus"], "minus"),
                            _entry(built, entry["over"], "over"),
                        )
                    )
                else:
                    raise ValueError(f"label kind {kind!r} is not 'minor' or 'exchange'")
            labels = tuple(_entry(built, v["label"], "label") for v in vertices)
        return Seed(names, frozen, mult, rows, slot_weights, shape, labels)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed seed data ({type(exc).__name__}: {exc})") from exc


# "\n" and the indent of each depth a seed file reaches
_PAD = tuple("\n" + " " * k for k in range(6))


def _block(items, depth: int, ends: str = "[]") -> str:
    """The ``indent=1`` text of a list, or of an object with ends "{}", from
    its rendered items; its closing bracket sits at ``depth``."""
    pad = _PAD[depth + 1]
    # no JSON value renders empty, so an empty body means no items
    body = ("," + pad).join(items)
    return ends[0] + pad + body + _PAD[depth] + ends[1] if body else ends


def _runs(pairs, length: int, zero: str, depth: int) -> str:
    """``_block`` of a list of ``length`` rendered items, each ``zero`` but
    those the (index, text) pairs give, ascending in index.

    A run of zeros is one string product rather than a visit per item.
    """
    if not length:
        return "[]"
    sep = "," + _PAD[depth + 1]
    fill = zero + sep
    parts = ["[" + _PAD[depth + 1]]
    at = 0
    for i, text in pairs:
        parts += (fill * (i - at), text, sep)
        at = i + 1
    if at < length:
        parts += (fill * (length - at - 1), zero)
    else:
        parts.pop()
    parts.append(_PAD[depth] + "]")
    return "".join(parts)


class _Memo(dict):
    """key -> render(key), each distinct key rendered once."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def write_seed(seed: Seed, fh) -> None:
    """Write the seed-file text of a seed to an open text file.

    The text is ``json.dumps(seed_to_json(seed), indent=1) + "\\n"``, byte
    for byte, written one vertex, b2 row or label entry at a time.  It is
    rendered from the stored forms: the zero entries of a b2 row and the
    zero slots of a vertex's or a minor's weights go out as runs.
    """
    # seeds hold plain ints in weights, b2 and labels, which str renders as
    # json does
    ints = _Memo(str)
    # int rows at depth 4: weights, and (label index, exponent) pairs
    rows = _Memo(lambda key: _block(map(ints.__getitem__, key), 4))
    index, at = _label_table(seed)
    names, frozen, mult, n = seed.names, seed.frozen, seed.mult, seed.size

    def weights(pairs, shape) -> str:
        slots, zero = shape
        return _runs(((s, rows[w]) for s, w in pairs), slots, rows[zero], 3)

    def side(pairs) -> str:
        return _block([rows[index[l], e] for l, e in pairs], 3)

    def label_entry(top: Label) -> str:
        if type(top) is Minor:
            items = ('"kind": "minor"', f'"weights": {weights(top.weights, top.shape)}')
        else:
            items = ('"kind": "exchange"', f'"plus": {side(top.plus)}',
                     f'"minus": {side(top.minus)}', f'"over": {ints[index[top.over]]}')
        return _block(items, 2, "{}")

    def vertex(i: int) -> str:
        items = [f'"id": {ints[i]}', f'"tag": {json.dumps(names[i])}',
                 f'"frozen": {"true" if frozen[i] else "false"}', f'"d": {ints[mult[i]]}']
        if seed.slot_weights is not None:
            items.append(f'"weights": {weights(seed.slot_weights[i], seed.weight_shape)}')
        if at is not None:
            items.append(f'"label": {ints[at[i]]}')
        return _block(items, 2, "{}")

    def b2_row(row) -> str:
        return _runs(((j, ints[b]) for j, b in row), n, "0", 2)

    sections = [("vertices", range(n), vertex), ("b2", seed.rows, b2_row)]
    if index:
        sections.append(("labels", index, label_entry))
    fh.write("{")
    for k, (key, items, render) in enumerate(sections):
        fh.write(f'{"," if k else ""}\n "{key}": [')
        sep = _PAD[2]
        for item in items:
            fh.write(sep + render(item))
            sep = "," + _PAD[2]
        fh.write(_PAD[1] + "]" if items else "]")
    fh.write("\n}\n")


def write_atomically(path, write) -> None:
    """Call write(fh) on a new text file, then move that file onto path.

    The new file sits in path's directory, so ``os.replace`` moves it in one
    step: a write that fails leaves any earlier file at path as it was, and
    the new file is removed.  The file gets the mode ``open(path, "w")``
    gives, the earlier file's or 0o666 less the umask.  There is no fsync:
    this guards against a failed write, not a power loss.
    """
    # through a symbolic link to its target, as open(path, "w") writes
    target = os.path.realpath(path) if os.path.islink(path) else os.fspath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                try:
                    os.chmod(fd, stat.S_IMODE(os.stat(target).st_mode))
                except FileNotFoundError:
                    pass
                write(fh)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        # name the file asked for, as open(path, "w") would
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def save_seed(seed: Seed, path) -> None:
    """Write the seed file through ``write_atomically``."""
    write_atomically(path, lambda fh: write_seed(seed, fh))


def load_seed(path) -> Seed:
    """The seed in a seed file; raises ValueError on malformed data.

    The cyclic garbage collector is paused while the file is parsed and the
    seed built, as neither holds a reference cycle, and left as it was found.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("malformed seed data (nested too deeply)") from None
        return seed_from_json(data)
    finally:
        if enabled:
            gc.enable()


# == DOT ==


def format_weight(w, symbols) -> str:
    """Render a weight against node symbols: (1,0) with ("a","b") -> "a"."""
    terms = []
    for c, s in zip(w, symbols):
        if c == 0:
            continue
        if c == 1:
            terms.append(f"+{s}")
        elif c == -1:
            terms.append(f"-{s}")
        else:
            terms.append(f"{'+' if c > 0 else '-'}{abs(c)}{s}")
    if not terms:
        return "0"
    out = "".join(terms)
    return out[1:] if out.startswith("+") else out


def weight_symbols(rank_weight) -> tuple[str, ...]:
    # purely cosmetic: w1..wn leaves type-A digits readable
    return tuple(f"w{k + 1}" for k in range(len(rank_weight)))


def _dot_text(text: str) -> str:
    """text for the inside of a DOT double-quoted string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(seed: Seed) -> str:
    lines = ["digraph seed {", "  rankdir=LR;"]
    shape = seed.weight_shape
    for i, name in enumerate(seed.names):
        attrs = []
        node = label = _dot_text(name)
        if shape is not None:
            syms = weight_symbols(shape[1])
            label += "\\n(" + ", ".join(
                format_weight(w, syms) for w in dense(seed.slot_weights[i], *shape)
            ) + ")"
        if seed.mult[i] > 1:
            attrs.append("shape=circle")
            attrs.append(f'label="{label}"')
        else:
            attrs.append("shape=point")
            attrs.append(f'xlabel="{label}"')
        if seed.frozen[i]:
            attrs.append("color=gray40")
        lines.append(f'  "{node}" [{", ".join(attrs)}];')
    for src, dst, m in arrows(seed):
        attrs = []
        if m == Q(1, 2):
            attrs.append("style=dashed")
        elif m != 1:
            attrs.append(f'label="{m}"')
            attrs.append("penwidth=1.8")
        suffix = f' [{", ".join(attrs)}]' if attrs else ""
        lines.append(f'  "{_dot_text(src)}" -> "{_dot_text(dst)}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"
