"""Command-line surface: build seeds, glue polygons, mutate, verify, export.

Words are compact strings over node letters (``1..n`` for the linear types,
``a``/``b`` for the two-node type, ``1/2/3/b`` shorthand for the triality
type), applied right to left.

The argument parser is built once per process and serves every ``main``
call.  Only ``verify`` and ``oracle`` draw random numbers: they read the
``CONFSEED_RNG_SEED`` environment variable on each call, and only when no
``--rng-seed`` is given, so no other command depends on its value.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import cache

from . import root_data as rd
from .seed_builder import build_bruhat_seed, build_triangle_seed
from .seed_core import mutate
from .seed_io import (
    format_weight, load_seed, save_seed, to_dot, weight_symbols, write_atomically,
    write_seed,
)
from .sequence_verifier import apply_sequence, builtin_sequences
from .suites import run_suite
from .surface_glue import Triangulation, build_conf_m_seed


def _emit_seed(seed, out: str | None) -> None:
    if out:
        save_seed(seed, out)
    else:
        write_seed(seed, sys.stdout)


def _parse_triangles(text: str, m: int) -> Triangulation:
    triangles = []
    for chunk in text.split(";"):
        try:
            corners = tuple(int(x) for x in chunk.split(","))
        except ValueError:  # an empty or non-numeric corner
            corners = ()
        if len(corners) != 3:
            raise ValueError(f"triangle {chunk!r} needs three integer corners")
        triangles.append(corners)
    return Triangulation(m, tuple(triangles))


def _add_common(p) -> None:
    p.add_argument("--type", required=True, dest="kind",
                   help="root datum kind: a1, a2, ... or g2 or d4")
    p.add_argument("--word", help="reduced word for the longest element, "
                   "compact or split by commas or spaces, as 1,2,1 for a2 "
                   "(default: the standard word)")
    p.add_argument("--out", help="write seed JSON here instead of stdout")


def main(argv=None) -> int:
    """Run the command line; domain and file errors exit 2 with one line."""
    try:
        return _run(argv)
    except (ValueError, OSError, KeyError) as exc:
        # str() of a KeyError quotes its message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"confseed: error: {msg}", file=sys.stderr)
        return 2


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use and kept.

    It holds no per-call state: parse_args gives each call a new namespace,
    and ``--at``'s append copies its default before adding to it.
    """
    parser = argparse.ArgumentParser(
        prog="confseed",
        description="build, glue, mutate, and verify cluster seeds "
                    "for configurations of decorated flags",
    )
    # no default: verify and oracle read the environment on each call
    parser.add_argument(
        "--rng-seed", type=int,
        help="seed for randomized checks (env CONFSEED_RNG_SEED)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="word quiver for a reduced word")
    _add_common(p_build)

    p_tri = sub.add_parser("triangle", help="completed three-point seed")
    _add_common(p_tri)

    p_poly = sub.add_parser("polygon", help="glued seed for an m-gon")
    p_poly.add_argument("--type", required=True, dest="kind")
    p_poly.add_argument("--m", type=int, default=4, help="marked points (>= 3)")
    p_poly.add_argument("--triangles",
                        help="semicolon list of corner triples, e.g. '1,2,3;3,4,1'")
    p_poly.add_argument("--out")

    p_mut = sub.add_parser("mutate", help="apply mutations to a stored seed")
    p_mut.add_argument("--seed", required=True, help="seed JSON file")
    p_mut.add_argument("--at", action="append", default=[],
                       help="vertex name; repeatable, applied in order")
    p_mut.add_argument("--seq", help="named mutation sequence "
                       f"({', '.join(builtin_sequences())})")
    p_mut.add_argument("--trace", action="store_true",
                       help="print per-stage weight tables")
    p_mut.add_argument("--out")

    p_ver = sub.add_parser("verify", help="run a named check suite")
    p_ver.add_argument("--suite", default="all",
                       help="builders, g2-s3, g2-flip, typea-flip, langlands, "
                            "triality, reversal, oracle, or all")
    p_ver.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the report as JSON")
    p_ver.add_argument("--rng-seed", type=int, default=argparse.SUPPRESS,
                       help="seed for randomized checks")

    p_dot = sub.add_parser("export-dot", help="render a stored seed to DOT")
    p_dot.add_argument("--seed", required=True)
    p_dot.add_argument("--out")

    p_orc = sub.add_parser("oracle", help="numeric identity checks on flags")
    p_orc.add_argument("--json", action="store_true", dest="as_json")
    p_orc.add_argument("--rng-seed", type=int, default=argparse.SUPPRESS,
                       help="seed for randomized checks")
    return parser


def _rng_seed(args) -> int:
    """--rng-seed if given, else CONFSEED_RNG_SEED, else 0."""
    if args.rng_seed is not None:
        return args.rng_seed
    try:
        return int(os.environ.get("CONFSEED_RNG_SEED", "0"))
    except ValueError:
        raise ValueError("CONFSEED_RNG_SEED must be an integer") from None


def _run(argv) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    if args.command in ("build", "triangle"):
        datum = rd.root_datum(args.kind)
        word = (
            rd.parse_word(datum, args.word) if args.word is not None
            else rd.standard_longest_word(datum)
        )
        if args.command == "build":
            seed = build_bruhat_seed(datum, word)
        else:
            seed = build_triangle_seed(datum, word)
        _emit_seed(seed, args.out)
        return 0

    if args.command == "polygon":
        datum = rd.root_datum(args.kind)
        triangulation = (
            None if args.triangles is None else _parse_triangles(args.triangles, args.m)
        )
        seed = build_conf_m_seed(datum, args.m, triangulation)
        _emit_seed(seed, args.out)
        return 0

    if args.command == "mutate":
        seed = load_seed(args.seed)
        if args.seq:
            try:
                seq = builtin_sequences()[args.seq]
            except KeyError:
                parser.error(f"unknown sequence {args.seq!r}")
            result = apply_sequence(seed, seq)
            if args.trace:
                for t, table in enumerate(result.stage_weights, start=1):
                    print(f"stage {t}:")
                    for name in seed.names:
                        w = table[name]
                        syms = weight_symbols(w[0])
                        cells = ", ".join(format_weight(s, syms) for s in w)
                        print(f"  {name}: ({cells})")
            seed = result.final
        for step, at in enumerate(args.at, start=1):
            try:
                seed = mutate(seed, at)
            except ValueError as exc:
                raise ValueError(f"--at step {step}: {exc}") from None
        _emit_seed(seed, args.out)
        return 0

    if args.command == "export-dot":
        seed = load_seed(args.seed)
        text = to_dot(seed)
        if args.out:
            write_atomically(args.out, lambda fh: fh.write(text))
        else:
            sys.stdout.write(text)
        return 0

    if args.command in ("verify", "oracle"):
        suite = args.suite if args.command == "verify" else "oracle"
        rng = random.Random(_rng_seed(args))
        try:
            reports = run_suite(suite, rng)
        except KeyError as exc:
            parser.error(exc.args[0])
        if args.as_json:
            payload = [
                {"name": r.name, "passed": r.passed, "lines": list(r.lines)}
                for r in reports
            ]
            json.dump(payload, sys.stdout, indent=1)
            sys.stdout.write("\n")
        else:
            for r in reports:
                print(("PASS" if r.passed else "FAIL"), "-", r.name)
                if not r.passed:
                    for line in r.lines:
                        print("      ", line)
            failures = sum(1 for r in reports if not r.passed)
            print(f"{len(reports)} checks, {failures} failures")
        return 0 if all(r.passed for r in reports) else 1

    parser.error(f"unhandled command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
