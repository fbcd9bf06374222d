"""Tests for the command-line interface.

Claims covered:
    - build / triangle / polygon emit valid, deterministic seed JSON, with
      distinct vertex names for a10, a11 and a12 too; the standard a11 and
      a12 words given with commas or with spaces build the same seed as
      the default word; every file the
      benchmark's polygons workload writes has its recorded digest
    - mutating twice at one vertex reproduces the input file byte for byte
    - a 400-step walk on the g2 16-gon is refused within 1 s at the first
      step that writes a value over the entry cap, naming the step and the
      vertex, and leaves no new file and an earlier file as it was
    - named sequences run from the command line and can dump stage traces;
      the generated a3 flip writes the bytes the former ten-stage hand
      table wrote, and traces one table per layer
    - verify exits 0 on a passing suite and prints one line per check; the
      suites that map vertex names (langlands, triality, reversal) pass;
      the full text and JSON reports equal the pinned files in tests/data
    - verify and oracle read CONFSEED_RNG_SEED on every call, an explicit
      --rng-seed wins, and a malformed value stops no other command
    - one parser serves every call: each --help text equals the one pinned
      in tests/data on two calls, --at starts empty on every call, and an
      unknown sequence exits 2 again
    - export-dot renders a digraph, and writes the same bytes to --out;
      oracle runs the numeric checks
    - ``python -m confseed`` runs the command line from a checkout: the
      full verify report is the pinned one, and an unknown suite exits 2
    - usage errors (unknown flags, suites, sequences) exit with status 2;
      an unknown suite is named without stray quotes
    - domain and file errors exit with status 2 and a one-line message,
      triangle lists that do not tile the m-gon, empty triangle lists and
      triangles with an empty or non-integer corner (the message quotes the
      triangle), the empty word, seed-file integers over the entry cap,
      weight vectors with no coordinates, labels without weights, seed
      files where only some vertices carry weights or a label or whose
      labels lack their table
      (the message names the first vertex that differs), type faults past
      row 0 and vertex 0 (the message names the first in file order) and
      an --out that cannot be written (the message names that path) included
    - any reduced word builds and completes, and build writes its weights
    - every confseed line of README's command-line block exits 0
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from confseed import cli
from confseed import root_data as rd
from confseed.cli import main
from confseed.seed_io import load_seed, save_seed, seed_from_json
from confseed.sequence_verifier import MutationSequence, apply_sequence


# the pinned verify reports; they read the same at rng seeds 0, 7 and 11
DATA = Path(__file__).parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"
# the benchmark's polygons workload and the digests of the files it writes,
# read and never written here
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _polygon_calls() -> dict:
    """POLYGON_CALLS from perfbench/workloads.py, which imports hostspeed
    from its own directory."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module.POLYGON_CALLS


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# == 1. building =============================================================

class TestBuild:
    def test_build_stdout_is_a_seed(self, capsys):
        code, out = run(capsys, "build", "--type", "g2", "--word", "bababa")
        assert code == 0
        seed = seed_from_json(json.loads(out))
        assert seed.size == 8

    def test_build_is_deterministic(self, tmp_path, capsys):
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        assert main(["build", "--type", "a3", "--out", str(p1)]) == 0
        assert main(["build", "--type", "a3", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_triangle_and_polygon(self, capsys):
        code, out = run(capsys, "triangle", "--type", "a2")
        assert code == 0
        assert seed_from_json(json.loads(out)).size == 7
        code, out = run(capsys, "polygon", "--type", "a2", "--m", "4")
        assert code == 0
        assert seed_from_json(json.loads(out)).size == 12

    def test_polygon_with_explicit_triangulation(self, capsys):
        code, out = run(capsys, "polygon", "--type", "a2", "--m", "4",
                        "--triangles", "1,2,3;1,3,4")
        assert code == 0
        seed = seed_from_json(json.loads(out))
        assert seed.slots == 4

    @pytest.mark.parametrize("kind", ["a10", "a11", "a12"])
    def test_two_digit_ranks(self, kind, capsys):
        for argv in (["build"], ["triangle"], ["polygon", "--m", "4"]):
            code, out = run(capsys, *argv, "--type", kind)
            assert code == 0, argv
            seed = seed_from_json(json.loads(out))
            assert len(set(seed.names)) == seed.size, argv

    @pytest.mark.parametrize("kind", ["a11", "a12"])
    @pytest.mark.parametrize("sep", [",", " "])
    def test_separated_two_digit_word(self, kind, sep, capsys):
        # compact text cannot tell 1,0 from 10, so the standard word of
        # a11 and a12 is given with separators
        word = sep.join(rd.standard_longest_word(rd.root_datum(kind)))
        for argv in (["build"], ["triangle"]):
            _, default = run(capsys, *argv, "--type", kind)
            code, out = run(capsys, *argv, "--type", kind, "--word", word)
            assert code == 0, argv
            assert out == default, argv

    def test_polygon_workload_files_match_their_digests(self, tmp_path, capsys):
        calls = _polygon_calls()
        digests = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
        assert set(calls) == set(digests)
        differ = []
        for key, argv in calls.items():
            path = tmp_path / "seed.json"
            assert main([*argv, "--out", str(path)]) == 0, key
            if hashlib.sha256(path.read_bytes()).hexdigest() != digests[key]:
                differ.append(key)
        assert differ == []

    def test_bad_word_raises(self, capsys):
        assert main(["build", "--type", "g2", "--word", "ababa"]) == 2

    def test_any_reduced_word_builds(self, tmp_path, capsys):
        # 212321 is neither the standard a3 word nor its reversal
        path = tmp_path / "tri.json"
        assert main(["triangle", "--type", "a3", "--word", "212321",
                     "--out", str(path)]) == 0
        assert load_seed(path).size == 12
        code, out = run(capsys, "build", "--type", "a3", "--word", "212321")
        assert code == 0
        data = json.loads(out)
        assert all("weights" in v and "label" in v for v in data["vertices"])
        assert seed_from_json(data).weight_shape is not None


# == 2. mutating =============================================================

class TestMutate:
    def _seed_file(self, tmp_path, *argv):
        path = tmp_path / "seed.json"
        assert main([*argv, "--out", str(path)]) == 0
        return path

    def test_double_mutation_restores_the_file(self, tmp_path, capsys):
        src = self._seed_file(tmp_path, "triangle", "--type", "g2")
        dst = tmp_path / "back.json"
        code = main(["mutate", "--seed", str(src), "--at", "x_a2",
                     "--at", "x_a2", "--out", str(dst)])
        assert code == 0
        assert src.read_bytes() == dst.read_bytes()

    def test_deep_labels_write_and_reload(self, tmp_path, capsys):
        # 1,200 cyclic steps nest labels too deep for a recursive writer
        src = self._seed_file(tmp_path, "polygon", "--type", "a3", "--m", "4")
        dst = tmp_path / "deep.json"
        steps = [a for k in range(1200) for a in ("--at", ("x_01", "x_02", "x_11")[k % 3])]
        assert main(["mutate", "--seed", str(src), *steps, "--out", str(dst)]) == 0
        again = tmp_path / "again.json"
        save_seed(load_seed(dst), again)
        assert again.read_bytes() == dst.read_bytes()

    def test_single_mutation_changes_the_file(self, tmp_path, capsys):
        src = self._seed_file(tmp_path, "triangle", "--type", "g2")
        dst = tmp_path / "once.json"
        assert main(["mutate", "--seed", str(src), "--at", "x_a2",
                     "--out", str(dst)]) == 0
        assert src.read_bytes() != dst.read_bytes()

    def test_sequence_with_trace(self, tmp_path, capsys):
        src = self._seed_file(tmp_path, "polygon", "--type", "g2", "--m", "4")
        code, out = run(capsys, "mutate", "--seed", str(src),
                        "--seq", "g2_flip", "--trace")
        assert code == 0
        assert "stage 6:" in out
        assert "x_0a:" in out

    # the a3 flip as it was written out by hand, one mutation per stage
    A3_FLIP_TABLE = (
        ("x_01",), ("x_02",), ("x_03",), ("x_11",), ("x_12",),
        ("x_-11",), ("x_21",), ("x_-12",), ("x_02",), ("x_-21",),
    )

    def test_a3_flip_writes_what_the_former_table_wrote(self, tmp_path, capsys):
        src = self._seed_file(tmp_path, "polygon", "--type", "a3", "--m", "4")
        dst, want = tmp_path / "flipped.json", tmp_path / "want.json"
        assert main(["mutate", "--seed", str(src), "--seq", "a3_flip",
                     "--out", str(dst)]) == 0
        table = MutationSequence("a3_flip", self.A3_FLIP_TABLE)
        save_seed(apply_sequence(load_seed(src), table).final, want)
        assert dst.read_bytes() == want.read_bytes()
        # the trace shows one table per layer of octahedra
        code, out = run(capsys, "mutate", "--seed", str(src),
                        "--seq", "a3_flip", "--trace")
        tables = out.split("stage ")[1:]
        assert code == 0 and len(tables) == 3

    def test_long_walk_stops_at_the_entry_cap(self, tmp_path, capsys):
        # the largest value of this walk has 72 bits at step 200 and 47,590
        # at step 400, and its cost grows with them; the cap refuses the
        # first step that writes over 4,096 bits, so no file is written
        src = self._seed_file(tmp_path, "polygon", "--type", "g2", "--m", "16")
        rng = random.Random(3)
        names = load_seed(src).unfrozen_names()
        steps = [a for _ in range(400) for a in ("--at", rng.choice(names))]
        old = tmp_path / "old.json"
        old.write_bytes(src.read_bytes())
        for out in (tmp_path / "new.json", old):
            start = time.perf_counter()
            code = main(["mutate", "--seed", str(src), *steps, "--out", str(out)])
            assert time.perf_counter() - start < 1
            assert code == 2
            assert capsys.readouterr().err == (
                "confseed: error: --at step 292: weight coordinate over the cap "
                f"of {rd.MAX_ENTRY_BITS} bits at t4.x_a3\n"
            )
        assert old.read_bytes() == src.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json", "seed.json"]

    def test_unknown_sequence_exits_2(self, tmp_path, capsys):
        src = self._seed_file(tmp_path, "triangle", "--type", "g2")
        with pytest.raises(SystemExit) as exc:
            main(["mutate", "--seed", str(src), "--seq", "nope"])
        assert exc.value.code == 2


# == 3. verification =========================================================

class TestVerify:
    def test_passing_suite_exits_0(self, capsys):
        code, out = run(capsys, "verify", "--suite", "g2-s3")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) == 6
        assert "0 failures" in out

    def test_json_report(self, capsys):
        code, out = run(capsys, "verify", "--suite", "builders", "--json")
        assert code == 0
        report = json.loads(out)
        assert all(entry["passed"] for entry in report)

    @pytest.mark.parametrize("suite", ["langlands", "triality", "reversal"])
    def test_name_mapping_suites_pass(self, suite, capsys):
        # each maps vertex names through the formatters in seed_builder
        code, out = run(capsys, "verify", "--suite", suite)
        assert code == 0
        assert "0 failures" in out

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_unknown_suite_message_is_unquoted(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nope"])
        assert capsys.readouterr().err.endswith(
            "confseed: error: unknown suite 'nope'\n"
        )

    def test_oracle_runs(self, capsys):
        code, out = run(capsys, "--rng-seed", "5", "oracle")
        assert code == 0
        assert "negative control" in out

    def test_rng_seed_after_subcommand(self, capsys):
        code, _ = run(capsys, "oracle", "--rng-seed", "5")
        assert code == 0

    @pytest.mark.parametrize("name, flags", [
        ("verify_all.txt", ()),
        ("verify_all.json", ("--json",)),
    ], ids=["text", "json"])
    def test_full_report_is_pinned(self, name, flags, capsys):
        code, out = run(capsys, "--rng-seed", "0", "verify", "--suite", "all",
                        *flags)
        assert code == 0
        assert out.encode() == (DATA / name).read_bytes()

    def test_rng_seed_from_environment(self, capsys, monkeypatch):
        # read on every call, so a parser that kept the first value fails;
        # an explicit --rng-seed, before or after the subcommand, wins
        states = []

        def record(suite, rng):
            states.append(rng.getstate())
            return []

        monkeypatch.setattr(cli, "run_suite", record)
        for value in ("9", "11"):
            monkeypatch.setenv("CONFSEED_RNG_SEED", value)
            assert main(["verify", "--suite", "typea-flip"]) == 0
        assert main(["--rng-seed", "5", "verify", "--suite", "typea-flip"]) == 0
        assert main(["oracle", "--rng-seed", "7"]) == 0
        assert states == [random.Random(k).getstate() for k in (9, 11, 5, 7)]

    def test_malformed_environment_seed_stops_only_draws(self, tmp_path, capsys,
                                                         monkeypatch):
        # only verify and oracle read CONFSEED_RNG_SEED, and only when no
        # --rng-seed is given; bad-rng-seed in the error table is the refusal
        monkeypatch.setenv("CONFSEED_RNG_SEED", "x")
        path = tmp_path / "seed.json"
        assert main(["polygon", "--type", "g2", "--m", "4", "--out", str(path)]) == 0
        digests = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digests["polygon g2 m=4"]
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert main(["verify", "--rng-seed", "0", "--suite", "typea-flip"]) == 0

    def test_package_runs_as_a_module(self, tmp_path):
        # python -m confseed from a checkout, with src/ on the path only
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("CONFSEED_RNG_SEED", None)
        argv = [sys.executable, "-m", "confseed", "--rng-seed", "0", "verify"]
        done = subprocess.run(argv + ["--suite", "all"], cwd=tmp_path, env=env,
                              capture_output=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == (DATA / "verify_all.txt").read_bytes()
        done = subprocess.run(argv + ["--suite", "nope"], cwd=tmp_path, env=env,
                              capture_output=True)
        assert done.returncode == 2
        assert done.stderr.endswith(b"confseed: error: unknown suite 'nope'\n")


class TestOneParser:
    """The parser is built once per process and serves every call."""

    def test_help_texts_are_pinned(self, capsys, monkeypatch):
        # recorded at COLUMNS=80 when each call built its own parser; each
        # text is asked for twice
        monkeypatch.setenv("COLUMNS", "80")
        pinned = json.loads((DATA / "help.json").read_text(encoding="utf-8"))
        assert len(pinned) == 8
        for argv, text in [*pinned.items(), *pinned.items()]:
            with pytest.raises(SystemExit) as exc:
                main(argv.split())
            assert exc.value.code == 0, argv
            assert capsys.readouterr().out == text, argv

    def test_calls_share_no_arguments(self, tmp_path, capsys):
        # --at appends to a default list, which must start empty on every
        # call: an odd number of leftover steps would mutate the last seed
        src = tmp_path / "seed.json"
        assert main(["triangle", "--type", "a2", "--out", str(src)]) == 0
        for ats, same in ((["--at", "x_11", "--at", "x_11"], True),
                          (["--at", "x_11"], False), ([], True)):
            out = tmp_path / "out.json"
            assert main(["mutate", "--seed", str(src), *ats, "--out", str(out)]) == 0
            assert (out.read_bytes() == src.read_bytes()) == same, ats
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["mutate", "--seed", str(src), "--seq", "nope"])
            assert exc.value.code == 2


# == 4. export and usage errors ==============================================

class TestExportAndErrors:
    def test_export_dot(self, tmp_path, capsys):
        src = tmp_path / "seed.json"
        assert main(["triangle", "--type", "a2", "--out", str(src)]) == 0
        code, out = run(capsys, "export-dot", "--seed", str(src))
        assert code == 0
        assert out.startswith("digraph")
        assert '"x_11"' in out

    def test_export_dot_to_a_file(self, tmp_path, capsys):
        src = tmp_path / "seed.json"
        assert main(["polygon", "--type", "g2", "--m", "4", "--out", str(src)]) == 0
        code, out = run(capsys, "export-dot", "--seed", str(src))
        assert code == 0
        dot = tmp_path / "seed.dot"
        assert run(capsys, "export-dot", "--seed", str(src), "--out", str(dot)) == (0, "")
        assert dot.read_bytes() == out.encode()

    def test_export_dot_escapes_quotes_in_tags(self, tmp_path, capsys):
        src = tmp_path / "seed.json"
        assert main(["triangle", "--type", "a2", "--out", str(src)]) == 0
        data = json.loads(src.read_text())
        data["vertices"][0]["tag"] = 'a"b\\'
        src.write_text(json.dumps(data))
        code, out = run(capsys, "export-dot", "--seed", str(src))
        assert code == 0
        assert '\n  "a\\"b\\\\" [' in out
        assert 'xlabel="a\\"b\\\\\\n(' in out
        # every double quote opens or closes a string, or is escaped in one
        for line in out.splitlines():
            assert '"' not in re.sub(r'"(?:[^"\\]|\\.)*"', "", line), line

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--type", "g2", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, env_seed, message", [
        (["build", "--type", "x7"], "0", "unsupported type"),
        (["build", "--type", "a01"], "0", "unsupported type 'a01'"),
        (["triangle", "--type", "a\uff11"], "0", "unsupported type"),
        (["polygon", "--type", "a\u0663"], "0", "unsupported type"),
        (["triangle", "--type", "a100000"], "0", "over the cap of 1024"),
        (["triangle", "--type", "a" + "9" * 5000], "0",
         "rank of 5000 digits is over the cap of 1024 vertices"),
        (["polygon", "--type", "g2", "--m", "1000000000"], "0",
         "over the cap of 1024"),
        (["build", "--type", "g2", "--word", "ababa"], "0", "not a reduced word"),
        (["build", "--type", "g2", "--word", ""], "0",
         "'' is not a reduced word for w0 of g2"),
        (["triangle", "--type", "a3", "--word", ""], "0",
         "'' is not a reduced word for w0 of a3"),
        (["verify", "--suite", "typea-flip"], "x", "CONFSEED_RNG_SEED"),
        (["mutate", "--seed", "missing.json"], "0", "missing.json"),
        (["mutate", "--seed", "empty.json"], "0", "malformed seed data"),
        (["mutate", "--seed", "seed.json", "--at", "x_zz"], "0",
         "no vertex named 'x_zz'\n"),
        (["mutate", "--seed", "negative-label.json"], "0", "label index -1"),
        (["mutate", "--seed", "negative-over.json"], "0", "over index -1"),
        (["export-dot", "--seed", "label-past-end.json"], "0",
         "label index 8 is outside the label table"),
        (["mutate", "--seed", "short-row.json", "--at", "x_11"], "0", "b2 must be square\n"),
        (["export-dot", "--seed", "asymmetric.json"], "0",
         "not skew-symmetrizable at (x_10,x_20)\n"),
        # the short minor is a child of the exchange at x_11, which refuses it
        (["mutate", "--seed", "label-fewer-slots.json", "--at", "x_11"], "0",
         "an exchange joins labels of weight shapes (2, (0, 0)) and (3, (0, 0))\n"),
        (["export-dot", "--seed", "float-weight.json"], "0", "0.5"),
        (["export-dot", "--seed", "string-weight.json"], "0", "'1/2'"),
        (["export-dot", "--seed", "bool-weight.json"], "0", "True"),
        (["export-dot", "--seed", "bool-b2.json"], "0", "b2 entry True is not an integer"),
        (["export-dot", "--seed", "float-b2.json"], "0", "b2 entry -0.5"),
        (["export-dot", "--seed", "string-b2.json"], "0", "b2 entry '3'"),
        (["export-dot", "--seed", "late-float-b2.json"], "0",
         "b2 entry 2.5 is not an integer\n"),
        (["export-dot", "--seed", "two-faults-b2.json"], "0",
         "b2 entry 1.5 is not an integer\n"),
        (["export-dot", "--seed", "late-string-weight.json"], "0",
         "weight coordinate '7' is not an integer\n"),
        (["mutate", "--seed", "late-bool-minor.json"], "0",
         "weight coordinate True is not an integer\n"),
        (["export-dot", "--seed", "string-frozen.json"], "0",
         "frozen flag 'false'"),
        (["export-dot", "--seed", "float-mult.json"], "0", "multiplier d 1.0"),
        (["mutate", "--seed", "float-exponent.json"], "0",
         "plus exponent 0.5"),
        (["mutate", "--seed", "no-slots.json", "--at", "x_11"], "0",
         "a weight list has no slots"),
        (["export-dot", "--seed", "no-slots.json"], "0",
         "a weight list has no slots"),
        (["mutate", "--seed", "empty-vectors.json", "--at", "x_11"], "0",
         "a weight vector has no coordinates"),
        (["export-dot", "--seed", "empty-vectors.json"], "0",
         "a weight vector has no coordinates"),
        (["export-dot", "--seed", "empty-label-vectors.json"], "0",
         "a minor has weight shape (3, ()); the weight shape must be a slot count and a zero "
         "weight tuple\n"),
        (["mutate", "--seed", "ragged-weights.json", "--at", "x_11"], "0",
         "weight vectors of 2 and 3 coordinates"),
        (["export-dot", "--seed", "ragged-minor.json"], "0",
         "weight vectors of 1 and 2 coordinates\n"),
        (["mutate", "--seed", "deep.json"], "0",
         "malformed seed data (nested too deeply)"),
        (["export-dot", "--seed", "weights-not-at-0.json"], "0",
         "vertex 1 has a 'weights' key, but vertex 0 has none\n"),
        (["export-dot", "--seed", "label-not-at-0.json"], "0",
         "vertex 1 has a 'label' key, but vertex 0 has none\n"),
        (["export-dot", "--seed", "no-label-table.json"], "0",
         "vertex 0 has a 'label' key, but the file has no 'labels' table\n"),
        (["export-dot", "--seed", "int-tag.json"], "0",
         "vertex tag 1 is not a string"),
        (["mutate", "--seed", "unknown-kind.json", "--at", "x_11"], "0",
         "label kind 'foo' is not 'minor' or 'exchange'"),
        (["mutate", "--seed", "duplicate-id.json", "--at", "x_11"], "0",
         "no vertex has id 0; ids must be 0 to 6"),
        (["export-dot", "--seed", "null-id.json"], "0",
         "vertex id None is not an integer\n"),
        (["export-dot", "--seed", "string-id.json"], "0",
         "vertex id '1' is not an integer\n"),
        (["export-dot", "--seed", "three-item-factor.json"], "0",
         "plus factor [0, 1, 2] is not an [index, exponent] pair\n"),
        (["export-dot", "--seed", "empty-factor.json"], "0",
         "plus factor [] is not an [index, exponent] pair\n"),
        (["export-dot", "--seed", "string-side.json"], "0",
         "minus factor 'x' is not an [index, exponent] pair\n"),
        (["export-dot", "--seed", "huge-weight.json"], "0",
         "weight coordinate over the cap of 4096 bits"),
        (["export-dot", "--seed", "huge-mult.json"], "0",
         "multiplier d over the cap of 4096 bits"),
        (["mutate", "--seed", "huge-exponent.json"], "0",
         "plus exponent over the cap of 4096 bits"),
        (["triangle", "--type", "a2", "--out", "adir"], "0",
         "[Errno 21] Is a directory: 'adir'\n"),
        (["triangle", "--type", "a2", "--out", "nodir/t.json"], "0",
         "[Errno 2] No such file or directory: 'nodir/t.json'\n"),
        (["polygon", "--type", "a2", "--m", "5",
          "--triangles", "1,2,3;1,3,4;1,2,4"], "0",
         "side 1-2 must lie in exactly one triangle"),
        (["polygon", "--type", "a2", "--m", "4",
          "--triangles", "1,2,3;1,2,3"], "0", "(1, 2, 3) is listed twice"),
        (["polygon", "--type", "a2", "--m", "5", "--triangles", ","], "0",
         "triangle ',' needs three integer corners"),
        (["polygon", "--type", "a2", "--m", "5", "--triangles", "1,2,3;"], "0",
         "triangle '' needs three integer corners"),
        (["polygon", "--type", "a2", "--m", "5", "--triangles", "1,2,x"], "0",
         "triangle '1,2,x' needs three integer corners"),
        (["polygon", "--type", "a2", "--m", "5", "--triangles", ""], "0",
         "triangle '' needs three integer corners"),
    ], ids=["unknown-type", "leading-zero-rank", "full-width-digit",
            "arabic-indic-digit", "oversized-rank", "huge-rank",
            "oversized-polygon",
            "non-reduced-word", "empty-word-build",
            "empty-word-triangle", "bad-rng-seed",
            "missing-seed-file", "empty-seed-object", "unknown-vertex",
            "negative-vertex-label", "negative-exchange-ref", "label-past-end",
            "short-row", "asymmetric", "label-fewer-slots",
            "float-weight", "string-weight", "bool-weight", "bool-b2",
            "float-b2", "string-b2", "late-float-b2", "two-faults-b2",
            "late-string-weight", "late-bool-minor", "string-frozen", "float-mult",
            "float-exponent", "no-slots-mutate", "no-slots-export",
            "empty-vectors-mutate", "empty-vectors-export",
            "empty-label-vectors", "ragged-weights", "ragged-minor", "deeply-nested-file",
            "weights-not-at-vertex-0", "label-not-at-vertex-0", "no-label-table",
            "int-tag", "unknown-label-kind", "duplicate-vertex-id",
            "null-vertex-id", "string-vertex-id", "three-item-factor", "empty-factor",
            "string-exchange-side",
            "huge-weight", "huge-mult", "huge-exponent", "out-is-a-directory",
            "out-in-a-missing-directory", "non-tiling-triangles",
            "repeated-triangle", "empty-corners", "trailing-semicolon",
            "non-integer-corner", "empty-triangle-list"])
    def test_domain_and_file_errors_exit_2(self, argv, env_seed, message,
                                           tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write_seed_files(tmp_path)
        monkeypatch.setenv("CONFSEED_RNG_SEED", env_seed)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("confseed: error: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err


def _write_seed_files(tmp_path):
    """An a2 triangle mutated once at x_11, and copies broken in one place."""
    (tmp_path / "empty.json").write_text("{}")
    assert main(["triangle", "--type", "a2", "--out", "triangle.json"]) == 0
    assert main(["mutate", "--seed", "triangle.json", "--at", "x_11",
                 "--out", "seed.json"]) == 0
    text = (tmp_path / "seed.json").read_text()
    labels, b2 = json.loads(text)["labels"], json.loads(text)["b2"]
    ex = next(k for k, e in enumerate(labels) if e["kind"] == "exchange")
    minor = next(k for k, e in enumerate(labels) if e["kind"] == "minor")
    last_minor = max(k for k, e in enumerate(labels) if e["kind"] == "minor")
    weight = ("vertices", 0, "weights", 0, 0)
    for name, path, value in (
        ("negative-label", ("vertices", 0, "label"), -1),
        ("negative-over", ("labels", ex, "over"), -1),
        ("float-weight", weight, 0.5),
        ("string-weight", weight, "1/2"),
        ("bool-weight", weight, True),
        ("bool-b2", ("b2", 0, 1), True),
        ("label-past-end", ("vertices", 0, "label"), len(labels)),
        # b2[0][1] no longer the negative of b2[1][0] at equal multipliers
        ("asymmetric", ("b2", 0, 1), b2[0][1] + 2),
        ("float-b2", ("b2", 0, 1), -0.5),
        ("string-b2", ("b2", 0, 1), "3"),
        # faults past row 0 and vertex 0, for the whole-file type passes
        ("late-float-b2", ("b2", -1, 0), 2.5),
        ("late-string-weight", ("vertices", -1, "weights", -1, -1), "7"),
        ("late-bool-minor", ("labels", last_minor, "weights", -1, -1), True),
        ("ragged-minor", ("labels", minor, "weights", 1), [0]),
        ("string-frozen", ("vertices", 0, "frozen"), "false"),
        ("float-mult", ("vertices", 0, "d"), 1.0),
        ("float-exponent", ("labels", ex, "plus", 0, 1), 0.5),
        ("int-tag", ("vertices", 0, "tag"), 1),
        ("unknown-kind", ("labels", ex, "kind"), "foo"),
        ("duplicate-id", ("vertices", 0, "id"), 1),
        # ids that sorting once compared with ints, and factors that
        # unpacking once took apart
        ("null-id", ("vertices", 0, "id"), None),
        ("string-id", ("vertices", 0, "id"), "1"),
        ("three-item-factor", ("labels", ex, "plus"), [[0, 1, 2]]),
        ("empty-factor", ("labels", ex, "plus"), [[]]),
        ("string-side", ("labels", ex, "minus"), "x"),
        # 4,097 bits, so the file holds it and json reads it back
        ("huge-weight", weight, 1 << 4096),
        ("huge-mult", ("vertices", 0, "d"), 1 << 4096),
        ("huge-exponent", ("labels", ex, "plus", 0, 1), 1 << 4096),
    ):
        data = json.loads(text)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    # a float in row 1 and a string in row 4: loading names the first
    data = json.loads(text)
    data["b2"][1][0], data["b2"][4][0] = 1.5, "x"
    (tmp_path / "two-faults-b2.json").write_text(json.dumps(data))
    # a b2 row one entry short; a minor label one slot short of the
    # vertices' three, which loading once took and mutate wrote back out
    for name, drop in (
        ("short-row", lambda data: data["b2"][2].pop()),
        ("label-fewer-slots", lambda data: data["labels"][minor]["weights"].pop()),
    ):
        data = json.loads(text)
        drop(data)
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    # every vertex with no slots; every weight vector of the triangle, its
    # vertices' and its minor labels', with no coordinates, and then with
    # the vertices' left out; a third coordinate on every weight but vertex
    # 0's, which mutation read past; nesting deeper than json parses
    no_slots, ragged = json.loads(text), json.loads(text)
    empty = json.loads((tmp_path / "triangle.json").read_text())
    for v in no_slots["vertices"]:
        v["weights"] = []
    for entry in empty["vertices"] + empty["labels"]:
        entry["weights"] = [[] for _ in entry["weights"]]
    (tmp_path / "empty-vectors.json").write_text(json.dumps(empty))
    for v in empty["vertices"]:
        del v["weights"]
    (tmp_path / "empty-label-vectors.json").write_text(json.dumps(empty))
    for v in ragged["vertices"][1:]:
        for w in v["weights"]:
            w.append(1)
    (tmp_path / "no-slots.json").write_text(json.dumps(no_slots))
    (tmp_path / "ragged-weights.json").write_text(json.dumps(ragged))
    (tmp_path / "deep.json").write_text("[" * 100000)
    # the triangle with vertex 0's weights, vertex 0's label or the label
    # table left out, each of which loading once dropped without a word
    for name, drop in (
        ("weights-not-at-0", lambda data: data["vertices"][0].pop("weights")),
        ("label-not-at-0", lambda data: data["vertices"][0].pop("label")),
        ("no-label-table", lambda data: data.pop("labels")),
    ):
        data = json.loads((tmp_path / "triangle.json").read_text())
        drop(data)
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    (tmp_path / "adir").mkdir()


# == 5. the README ===========================================================

def _readme_commands() -> list[list[str]]:
    """The confseed lines of README's command-line block, cut at any pipe."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line.split("|", 1)[0])[1:]
        for line in block.splitlines()
        if line.startswith("confseed ")
    ]


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CONFSEED_RNG_SEED", raising=False)
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        assert main(argv) == 0, argv
