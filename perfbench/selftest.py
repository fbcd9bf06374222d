"""Self-test of the benchmark: names and units, negative controls, bare copy.

    python3 perfbench/selftest.py

1. Runs every workload at its minimal size (one pass) with and without
   tracing, and checks that the result line carries exactly the metrics
   BENCHMARK.json lists, each with its unit.
2. Plants faults in the benchmark's inputs, never in confseed: a wrong
   expected digest and a walk whose way back misses its last step.  Each must
   show up as a failed op in the error rate.
3. Runs the benchmark in a copy that holds only BENCHMARK.json and this
   directory; it must fail without printing a result.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORK, WORKLOADS, OpFailed, Polygons, Runner, Walks  # noqa: E402


def bench_command(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_names_and_units() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = bench_command(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit status {done.returncode}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct or nothing attempted")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metric names or units differ from BENCHMARK.json")
            for name, entry in result["metrics"].items():
                if not isinstance(entry["value"], (int, float)):
                    problems.append(f"{where}: {name} is not a number")
            print(f"ok   {where}: {len(got)} metrics with units")
    return problems


def check_negative_controls() -> list[str]:
    cs = run.import_confseed()
    problems = []

    polygons = Polygons(cs, 1, 1)
    try:
        polygons.digests["triangle a2"] = "0" * 64
        runner = Runner()
        for key in ("triangle a2", "triangle a3"):
            try:
                polygons.run_op(runner, key)
            except OpFailed:
                pass
    finally:
        polygons.close()
    problems += _expect_failures("wrong expected digest", runner, {"triangle a2"})

    walks = Walks(cs, 1, 1)
    key, start, path, back, flags = next(w for w in walks.walks[0] if w[0] == "a3-4")
    runner = Runner()
    try:
        walks.walk(runner, key, start, path, back[:-1], flags)
    except OpFailed:
        pass
    problems += _expect_failures("walk that does not return", runner, None)
    return problems


def _expect_failures(what: str, runner: Runner, keys) -> list[str]:
    metrics, notes = run.end_to_end(runner, 0.0)
    failed = {k for k, _ in runner.failures}
    if not failed or (keys is not None and failed != keys):
        return [f"{what}: not caught ({notes['error_rate']})"]
    print(f"ok   {what}: error_rate {notes['error_rate']}")
    return []


def check_bare_copy() -> list[str]:
    bare = WORK / "bare-copy"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench_command(bare, next(iter(WORKLOADS)), 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if done.returncode == 0 or last[0].startswith("{"):
        return ["bare copy: ran or printed a result without confseed"]
    print(f"ok   bare copy: exit status {done.returncode}, no result")
    return []


def main() -> int:
    problems = check_names_and_units() + check_negative_controls() + check_bare_copy()
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
