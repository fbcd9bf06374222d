"""Read and write seeds: JSON files and DOT drawings.

Seed files look like::

    {"vertices": [{"id": 0, "tag": "x_a0", "frozen": true, "d": 1,
                   "weights": [[1,0],[0,0],[1,0]], "label": 0}, ...],
     "b2": [[0, ...], ...],
     "labels": [{"kind": "minor", "weights": [...]},
                {"kind": "exchange", "plus": [[0,1]], "minus": [[2,1]], "over": 0}]}

Weight coordinates are JSON integers; loading refuses floats, strings and
booleans.  The top-level "labels" table shares repeated subtrees; each vertex
points into it by index, and an exchange entry only into earlier entries.
"""
from __future__ import annotations

import json
from fractions import Fraction as Q

from .seed_core import Exchange, Label, Minor, Seed, arrows


def _weights_out(ws):
    return [list(w) for w in ws]


def _weights_in(rows):
    out = tuple(tuple(row) for row in rows)
    bad = [c for row in out for c in row if type(c) is not int]
    if bad:
        raise ValueError(f"weight coordinate {bad[0]!r} is not an integer")
    return out


def seed_to_json(seed: Seed) -> dict:
    label_index: dict[Label, int] = {}
    table: list[dict] = []

    def intern(label: Label) -> int:
        if label in label_index:
            return label_index[label]
        if isinstance(label, Minor):
            entry = {"kind": "minor", "weights": _weights_out(label.weights)}
        else:
            entry = {
                "kind": "exchange",
                "plus": [[intern(l), e] for l, e in label.plus],
                "minus": [[intern(l), e] for l, e in label.minus],
                "over": intern(label.over),
            }
        idx = len(table)
        table.append(entry)
        label_index[label] = idx
        return idx

    vertices = []
    for i, name in enumerate(seed.names):
        v = {
            "id": i,
            "tag": name,
            "frozen": seed.frozen[i],
            "d": seed.mult[i],
        }
        if seed.weights is not None:
            v["weights"] = _weights_out(seed.weights[i])
        if seed.labels is not None:
            v["label"] = intern(seed.labels[i])
        vertices.append(v)
    out = {"vertices": vertices, "b2": [list(row) for row in seed.b2]}
    if table:
        out["labels"] = table
    return out


def _entry(built: list, i, what: str):
    """built[i] for a label index i that points at an entry already read."""
    if type(i) is not int or not 0 <= i < len(built):
        raise ValueError(f"{what} index {i!r} is outside the label table")
    return built[i]


def seed_from_json(data: dict) -> Seed:
    """Rebuild a seed from its JSON form; raises ValueError on malformed data."""
    try:
        vertices = sorted(data["vertices"], key=lambda v: v["id"])
        names = tuple(v["tag"] for v in vertices)
        frozen = tuple(bool(v["frozen"]) for v in vertices)
        mult = tuple(int(v["d"]) for v in vertices)
        b2 = tuple(tuple(int(x) for x in row) for row in data["b2"])

        weights = None
        if vertices and "weights" in vertices[0]:
            weights = tuple(_weights_in(v["weights"]) for v in vertices)

        labels = None
        if "labels" in data and vertices and "label" in vertices[0]:
            built: list[Label] = []
            for entry in data["labels"]:
                if entry["kind"] == "minor":
                    built.append(Minor(_weights_in(entry["weights"])))
                else:
                    built.append(
                        Exchange(
                            tuple((_entry(built, i, "plus"), e) for i, e in entry["plus"]),
                            tuple((_entry(built, i, "minus"), e) for i, e in entry["minus"]),
                            _entry(built, entry["over"], "over"),
                        )
                    )
            labels = tuple(_entry(built, v["label"], "label") for v in vertices)
        return Seed(names, frozen, mult, b2, weights, labels)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed seed data ({type(exc).__name__}: {exc})") from exc


def save_seed(seed: Seed, path) -> None:
    with open(path, "w") as fh:
        json.dump(seed_to_json(seed), fh, indent=1)
        fh.write("\n")


def load_seed(path) -> Seed:
    with open(path) as fh:
        return seed_from_json(json.load(fh))


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


def _symbols(rank_weight) -> tuple[str, ...]:
    # purely cosmetic: w1..wn leaves type-A digits readable
    return tuple(f"w{k + 1}" for k in range(len(rank_weight)))


def to_dot(seed: Seed, graph_name: str = "seed") -> str:
    lines = [f"digraph {graph_name} {{", "  rankdir=LR;"]
    for i, name in enumerate(seed.names):
        attrs = []
        label = name
        if seed.weights is not None:
            syms = _symbols(seed.weights[i][0])
            label += "\\n(" + ", ".join(
                format_weight(w, syms) for w in seed.weights[i]
            ) + ")"
        if seed.mult[i] > 1:
            attrs.append("shape=circle")
            attrs.append(f'label="{label}"')
        else:
            attrs.append("shape=point")
            attrs.append(f'xlabel="{label}"')
        if seed.frozen[i]:
            attrs.append("color=gray40")
        lines.append(f'  "{name}" [{", ".join(attrs)}];')
    for src, dst, m in arrows(seed):
        attrs = []
        if m == Q(1, 2):
            attrs.append("style=dashed")
        elif m != 1:
            attrs.append(f'label="{m}"')
            attrs.append("penwidth=1.8")
        suffix = f' [{", ".join(attrs)}]' if attrs else ""
        lines.append(f'  "{src}" -> "{dst}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"
