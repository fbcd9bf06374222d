"""Spans around calls into confseed's public functions, timed from outside.

The tracer replaces every module binding of each listed function with a
wrapper that records one span per call: name, start, end, parent span and
op id.  Spans stay in memory until the run ends; self time and the derived
ratios are computed from them afterwards.
"""
from __future__ import annotations

import functools
import gzip
import os
import re
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> public functions wrapped in a traced run
TRACED = {
    "cli": ("main",),
    "root_data": ("is_longest_word", "w0_on_weight"),
    "seed_core": (
        "mutate", "check_seed", "weight_balance", "langlands_dual",
        "quiver_isomorphic", "matches_under", "permute_slots",
    ),
    "seed_builder": (
        "build_bruhat_seed", "complete_triangle_seed", "build_triangle_seed",
    ),
    "linalg": ("det", "solve_with_kernel"),
    "surface_glue": (
        "build_conf_m_seed", "embed_triangle", "amalgamate", "diagonal_pairs",
    ),
    "sequence_verifier": (
        "apply_sequence", "verify_s3", "verify_flip",
        "verify_langlands_pairing", "flip_target",
    ),
    "minor_oracle": (
        "random_flag", "seed_values", "evaluate_label", "wedge_invariant",
        "check_exchange", "torus_weight_check", "check_cyclic_symmetry",
        "check_shear_law", "check_pentagon",
    ),
    "seed_io": ("seed_to_json", "seed_from_json", "save_seed", "load_seed"),
    "golden": ("stage_tables",),
    "suites": tuple(
        f"suite_{s}" for s in (
            "builders", "g2_s3", "g2_flip", "typea_flip", "langlands",
            "triality", "reversal", "oracle",
        )
    ),
}

TRACED_NAMES = tuple(f"{m}.{f}" for m, fns in TRACED.items() for f in fns)

# metric name -> (unit, better); the order is the order of BENCHMARK.json
DERIVED = {
    "minor_oracle.seed_values.raised": ("count", "lower"),
    "minor_oracle.random_flag.accept_ratio": ("ratio", "higher"),
    "sequence_verifier.apply_sequence.useful_mutation_ratio": ("ratio", "higher"),
    "seed_io.bytes_written": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_spec() -> list[dict]:
    """The per-layer metric list, as BENCHMARK.json records it."""
    out = []
    for name in TRACED_NAMES:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in DERIVED.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


def _stage_vertices(args, kwargs) -> int:
    seq = args[1] if len(args) > 1 else kwargs["seq"]
    return sum(len(stage) for stage in seq.stages)


def _file_bytes(args, kwargs) -> int:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


# wrapped name -> (counter, function of the call's arguments), after a return
_TALLIES = {
    "sequence_verifier.apply_sequence": ("stage_vertices", _stage_vertices),
    "seed_io.save_seed": ("bytes_written", _file_bytes),
}


class Tracer:
    """Records spans while active; the runner sets ``op`` before each op."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.raised: Counter = Counter()
        self.tallies: Counter = Counter()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        tally = _TALLIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[i] = (name, start, end, parent, self.op)
            if tally is not None:
                self.tallies[tally[0]] += tally[1](args, kwargs)
            return out

        return traced

    def install(self) -> None:
        """Swap in wrappers at every binding: module globals and SUITES."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "confseed" or key.startswith("confseed.")
        ]
        by_id = {}
        for mod_name, fns in TRACED.items():
            mod = sys.modules[f"confseed.{mod_name}"]
            for fn_name in fns:
                fn = getattr(mod, fn_name)
                by_id[id(fn)] = (fn, self.wrap(f"{mod_name}.{fn_name}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        suites = sys.modules["confseed.suites"].SUITES
        for key, value in list(suites.items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                suites[key] = hit[1]

    # == derived numbers ==

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (end - start) - covered[i]
            for i, (_, start, end, _, _) in enumerate(self.spans)
        ]

    def metrics(self, overhead_ratio: float):
        """Per-layer metrics by name, and the counts behind each ratio."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += own
        under: Counter = Counter()
        for name, _, _, parent, _ in self.spans:
            if parent >= 0:
                under[self.spans[parent][0], name] += 1
        flags = calls["minor_oracle.random_flag"]
        flag_dets = under["minor_oracle.random_flag", "linalg.det"]
        seq_mutations = under["sequence_verifier.apply_sequence", "seed_core.mutate"]
        out = {}
        for name in TRACED_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        # a ratio without a base reads 0.0; the report prints both counts
        out["minor_oracle.seed_values.raised"] = self.raised[
            "minor_oracle.seed_values", "ZeroDivisionError"
        ]
        out["minor_oracle.random_flag.accept_ratio"] = (
            flags / flag_dets if flag_dets else 0.0
        )
        out["sequence_verifier.apply_sequence.useful_mutation_ratio"] = (
            self.tallies["stage_vertices"] / seq_mutations if seq_mutations else 0.0
        )
        out["seed_io.bytes_written"] = self.tallies["bytes_written"]
        out["trace.overhead_ratio"] = overhead_ratio
        bases = {
            "random_flag calls / det calls under it": (flags, flag_dets),
            "stage vertices / mutate calls under apply_sequence": (
                self.tallies["stage_vertices"], seq_mutations,
            ),
        }
        return out, bases

    def curve(self, span_name: str, pattern: str, op_keys: list[str]):
        """Median total duration of ``span_name`` per op, by the op key's x."""
        per_op: defaultdict = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if name == span_name and (
                parent < 0 or self.spans[parent][0] != span_name
            ):
                per_op[op] += end - start
        points: defaultdict = defaultdict(list)
        regex = re.compile(pattern)
        for op, key in enumerate(op_keys):
            hit = regex.fullmatch(key)
            if hit:
                points[hit.group(1)].append(per_op.get(op, 0.0))
        return {x: statistics.median(v) for x, v in points.items()}

    def write_spans(self, path, op_keys: list[str]) -> None:
        """One line per span: op id, op key, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op\top_key\tname\tstart_s\tend_s\tparent\n")
            for name, start, end, parent, op in self.spans:
                key = op_keys[op] if 0 <= op < len(op_keys) else ""
                fh.write(f"{op}\t{key}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
