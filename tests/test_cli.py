"""Tests for the command-line interface.

Claims covered:
    - build / triangle / polygon emit valid, deterministic seed JSON
    - mutating twice at one vertex reproduces the input file byte for byte
    - named sequences run from the command line and can dump stage traces
    - verify exits 0 on a passing suite and prints one line per check
    - export-dot renders a digraph; oracle runs the numeric checks
    - usage errors (unknown flags, suites, sequences) exit with status 2
    - domain and file errors exit with status 2 and a one-line message
"""
from __future__ import annotations

import json

import pytest

from confseed.cli import main
from confseed.seed_io import seed_from_json


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

    def test_bad_word_raises(self, capsys):
        assert main(["build", "--type", "g2", "--word", "ababa"]) == 2


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

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_oracle_runs(self, capsys):
        code, out = run(capsys, "--rng-seed", "5", "oracle")
        assert code == 0
        assert "negative control" in out

    def test_rng_seed_after_subcommand(self, capsys):
        code, _ = run(capsys, "oracle", "--rng-seed", "5")
        assert code == 0

    def test_rng_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("CONFSEED_RNG_SEED", "9")
        code, _ = run(capsys, "verify", "--suite", "typea-flip")
        assert code == 0


# == 4. export and usage errors ==============================================

class TestExportAndErrors:
    def test_export_dot(self, tmp_path, capsys):
        src = tmp_path / "seed.json"
        assert main(["triangle", "--type", "a2", "--out", str(src)]) == 0
        code, out = run(capsys, "export-dot", "--seed", str(src))
        assert code == 0
        assert out.startswith("digraph")
        assert '"x_11"' in out

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
        (["build", "--type", "g2", "--word", "ababa"], "0", "not a reduced word"),
        (["verify", "--suite", "typea-flip"], "x", "CONFSEED_RNG_SEED"),
        (["mutate", "--seed", "missing.json"], "0", "missing.json"),
        (["mutate", "--seed", "empty.json"], "0", "malformed seed data"),
        (["mutate", "--seed", "seed.json", "--at", "x_zz"], "0",
         "no vertex named 'x_zz'\n"),
        (["mutate", "--seed", "negative-label.json"], "0", "label index -1"),
        (["mutate", "--seed", "negative-over.json"], "0", "over index -1"),
        (["export-dot", "--seed", "float-weight.json"], "0", "0.5"),
        (["export-dot", "--seed", "string-weight.json"], "0", "'1/2'"),
        (["export-dot", "--seed", "bool-weight.json"], "0", "True"),
    ], ids=["unknown-type", "non-reduced-word", "bad-rng-seed",
            "missing-seed-file", "empty-seed-object", "unknown-vertex",
            "negative-vertex-label", "negative-exchange-ref",
            "float-weight", "string-weight", "bool-weight"])
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
    labels = json.loads(text)["labels"]
    ex = next(k for k, e in enumerate(labels) if e["kind"] == "exchange")
    weight = ("vertices", 0, "weights", 0, 0)
    for name, path, value in (
        ("negative-label", ("vertices", 0, "label"), -1),
        ("negative-over", ("labels", ex, "over"), -1),
        ("float-weight", weight, 0.5),
        ("string-weight", weight, "1/2"),
        ("bool-weight", weight, True),
    ):
        data = json.loads(text)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
