"""The benchmark's workloads and the closed loop that runs their ops.

Each workload builds all of its inputs from the run's seed when it is
constructed (that is the set-up the benchmark times), then runs a fixed
number of ops per pass.  An op is timed on its own; its output check runs
after the clock stops, with tracing paused.  Why each workload exists is
written down in NOTES.md next to this file.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from pathlib import Path
from time import perf_counter

from hostspeed import SAMPLE_EVERY_S, HostClock

HERE = Path(__file__).resolve().parent
# run outputs (seed files, span dumps) go here, inside the checkout
WORK = HERE.parent / ".perfbench"


def rng_for(seed: int, *parts) -> random.Random:
    """A generator determined by the run's seed and the input it feeds."""
    return random.Random("/".join(str(p) for p in (seed, *parts)))


class OpFailed(Exception):
    """An op raised or its output check failed; the enclosing unit stops."""


class Runner:
    """Closed loop with one caller: each op starts when the previous ends.

    Right after each op, before its check, the host clock samples the
    reference loop, and again before the next op if the check was slow;
    ``corrected()`` gives the op times at the reference speed.
    """

    def __init__(self, tracer=None, clock: HostClock | None = None):
        self.tracer = tracer
        self.clock = clock if clock is not None else HostClock()
        self.clock.sample(4 * SAMPLE_EVERY_S)
        self.keys: list[str] = []
        # wall time of each op, and when it started and ended
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.failures: list[tuple[str, str]] = []

    def op(self, key: str, fn, check=None):
        """Time ``fn()``; ``check(result)`` returns a problem or None."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op = len(self.keys)
        self.clock.refresh()
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            out = fn()
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        else:
            problem = None
        end = perf_counter()
        if tracer is not None:
            tracer.active = False
        self.latencies.append(end - start)
        self.spans.append((start, end))
        self.keys.append(key)
        self.clock.sample(end - start)
        if problem is None and check is not None:
            try:
                problem = check(out)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failures.append((key, problem))
            raise OpFailed(key)
        return out

    def corrected(self) -> list[float]:
        """Each op's time at the reference speed of the host clock."""
        return [self.clock.corrected(start, end) for start, end in self.spans]


# == verify: the eight suites, as `confseed verify --suite all` runs them ==

# CheckReports each suite returns; 38 per pass
SUITE_REPORTS = {
    "builders": 8, "g2-s3": 6, "g2-flip": 2, "typea-flip": 2,
    "langlands": 5, "triality": 7, "reversal": 2, "oracle": 6,
}


class Verify:
    name = "verify"
    # wall time of one pass on the machine the benchmark was defined on
    pass_seconds = 2.7
    curves = ()

    def __init__(self, cs, seed: int, passes: int):
        self.cs = cs
        self.rngs = [rng_for(seed, "verify", p) for p in range(passes)]

    def run_pass(self, runner: Runner, p: int) -> None:
        rng = self.rngs[p]
        for name, suite in self.cs.suites.SUITES.items():
            try:
                runner.op(f"suite {name}", lambda: suite(rng),
                          check=lambda reports, n=name: _check_reports(n, reports))
            except OpFailed:
                pass

    def close(self) -> None:
        pass


def _check_reports(name: str, reports) -> str | None:
    failed = [r.name for r in reports if not r.passed]
    if failed:
        return f"failed checks: {', '.join(failed)}"
    if len(reports) != SUITE_REPORTS[name]:
        return f"{len(reports)} reports, expected {SUITE_REPORTS[name]}"
    return None


# == polygons: seed files written through the command line ==

# op key -> command-line arguments, less --out
POLYGON_CALLS = {
    **{f"polygon {k} m={m}": ["polygon", "--type", k, "--m", str(m)]
       for k, ms in (("g2", range(4, 33)), ("a3", range(4, 17)), ("d4", range(4, 13)))
       for m in ms},
    **{f"triangle a{n}": ["triangle", "--type", f"a{n}"] for n in range(2, 9)},
}


class Polygons:
    name = "polygons"
    pass_seconds = 16.0
    curves = (
        ("triangle build time against rank (a<n>)",
         "seed_builder.build_triangle_seed", r"triangle a(\d+)"),
        ("g2 polygon build time against m",
         "surface_glue.build_conf_m_seed", r"polygon g2 m=(\d+)"),
        ("a3 polygon build time against m",
         "surface_glue.build_conf_m_seed", r"polygon a3 m=(\d+)"),
        ("d4 polygon build time against m",
         "surface_glue.build_conf_m_seed", r"polygon d4 m=(\d+)"),
    )

    def __init__(self, cs, seed: int, passes: int):
        self.cs = cs
        with open(HERE / "digests.json", encoding="utf-8") as fh:
            self.digests = json.load(fh)
        self.orders = []
        for p in range(passes):
            keys = list(POLYGON_CALLS)
            rng_for(seed, "polygons", p).shuffle(keys)
            self.orders.append(keys)
        self.work_dir = WORK / f"polygons-{os.getpid()}"
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def run_pass(self, runner: Runner, p: int) -> None:
        for key in self.orders[p]:
            try:
                self.run_op(runner, key)
            except OpFailed:
                pass

    def run_op(self, runner: Runner, key: str) -> None:
        path = self.work_dir / (key.replace(" ", "_").replace("=", "") + ".json")
        argv = POLYGON_CALLS[key] + ["--out", str(path)]

        def build_and_load():
            code = self.cs.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit status {code}")
            return self.cs.seed_io.load_seed(path)

        runner.op(key, build_and_load, check=lambda seed: self._check(key, path, seed))

    def _check(self, key: str, path: Path, seed) -> str | None:
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != self.digests[key]:
            return "file bytes differ from the recorded digest"
        again = json.dumps(self.cs.seed_io.seed_to_json(seed), indent=1) + "\n"
        if again.encode() != data:
            return "reloaded seed does not write the same bytes"
        return None

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


# == walks: mutation steps on large seeds and on deepening labels ==

RANDOM_WALKS = (
    # (start seed, walks per pass, forward steps, evaluate labels)
    ("g2-16", 1, 20, False),
    ("g2-24", 1, 20, False),
    ("a3-4", 2, 12, True),
    ("a3-6", 2, 12, True),
)
CYCLE = ("x_01", "x_02", "x_11")
CYCLE_DEPTH = 15
# two per pass, so the deepest steps fill the tail: op_tail_ms then sits
# inside that cluster rather than at its edge
CYCLIC_WALKS = 2


class Walks:
    name = "walks"
    pass_seconds = 6.3
    curves = (
        ("label evaluation time against depth (cyclic walk)",
         "minor_oracle.seed_values", r"cyclic fwd (\d+)"),
    )

    def __init__(self, cs, seed: int, passes: int):
        self.cs = cs
        datum = cs.root_data.root_datum
        build = cs.surface_glue.build_conf_m_seed
        self.starts = {
            "g2-16": build(datum("g2"), 16),
            "g2-24": build(datum("g2"), 24),
            "a3-4": build(datum("a3"), 4),
            "a3-6": build(datum("a3"), 6),
        }
        # per pass: (op key prefix, start seed, path, way back, flags or None)
        self.walks = []
        for p in range(passes):
            rng = rng_for(seed, "walks", p)
            plan = []
            for key, count, steps, evaluate in RANDOM_WALKS:
                start = self.starts[key]
                for _ in range(count):
                    path = _random_path(rng, start.unfrozen_names(), steps)
                    flags = self._generic_flags(rng, start, path) if evaluate else None
                    plan.append((key, start, path, path[::-1], flags))
            start = self.starts["a3-4"]
            path = tuple(CYCLE[d % 3] for d in range(CYCLE_DEPTH))
            for _ in range(CYCLIC_WALKS):
                flags = self._generic_flags(rng, start, path)
                plan.append(("cyclic", start, path, path[::-1], flags))
            self.walks.append(plan)

    def _generic_flags(self, rng, start, path):
        """Random flags on which no value along ``path`` vanishes.

        A vanishing value would stop label evaluation early, so the walk's
        work, and with it every timing, would depend on luck in the flags.
        The values are stepped here by the exchange relation alone, which is
        cheap; the timed ops must then evaluate every label without a
        division by zero.
        """
        mo, mutate = self.cs.minor_oracle, self.cs.seed_core.mutate
        while True:
            flags = mo.random_flags(rng, 4, start.slots)
            values = mo.seed_values(start, flags)
            seed = start
            for at in path:
                if 0 in values.values():
                    break
                plus, minus = _exchange_sides(seed, at, values)
                values[at] = (plus + minus) / values[at]
                seed = mutate(seed, at, with_labels=False)
            else:
                if 0 not in values.values():
                    return flags

    def run_pass(self, runner: Runner, p: int) -> None:
        for walk in self.walks[p]:
            try:
                self.walk(runner, *walk)
            except OpFailed:
                pass

    def walk(self, runner: Runner, key, start, path, back, flags) -> None:
        """Step along ``path``, then along ``back``, which must return to start."""
        mutate = self.cs.seed_core.mutate
        seed_values = self.cs.minor_oracle.seed_values
        values = seed_values(start, flags) if flags is not None else None
        cur = start
        steps = [("fwd", v) for v in path] + [("rev", v) for v in back]
        for i, (way, at) in enumerate(steps):
            depth = i + 1 if way == "fwd" else len(steps) - i - 1

            def step(cur=cur, at=at):
                nxt = mutate(cur, at)
                return nxt, (seed_values(nxt, flags) if flags is not None else None)

            def check(out, cur=cur, at=at, before=values, last=i == len(steps) - 1):
                nxt, after = out
                if before is not None:
                    plus, minus = _exchange_sides(cur, at, before)
                    if before[at] * after[at] != plus + minus:
                        return f"exchange relation fails at {at}"
                if last and nxt != start:
                    return "the way back does not return the start seed"
                return None

            cur, values = runner.op(f"{key} {way} {depth}", step, check)
            if key == "cyclic" and way == "fwd" and i == len(path) - 1:
                self._round_trip(runner, cur)

    def _round_trip(self, runner: Runner, deepest) -> None:
        io = self.cs.seed_io
        runner.op(
            "cyclic round trip",
            lambda: io.seed_from_json(io.seed_to_json(deepest)),
            check=lambda back: None if back == deepest else "round trip changed the seed",
        )

    def close(self) -> None:
        pass


def _random_path(rng, names, steps: int) -> tuple[str, ...]:
    """Uniform unfrozen vertices, never the one just mutated."""
    path = []
    for _ in range(steps):
        path.append(rng.choice([n for n in names if not path or n != path[-1]]))
    return tuple(path)


def _exchange_sides(seed, at: str, values: dict):
    """M+ and M- of the exchange relation A_k * A'_k = M+ + M- at ``at``."""
    k = seed.index(at)
    plus = minus = 1
    for j, name in enumerate(seed.names):
        e = seed.b2[k][j] // 2
        if e > 0:
            plus *= values[name] ** e
        elif e < 0:
            minus *= values[name] ** -e
    return plus, minus


WORKLOADS = {w.name: w for w in (Verify, Polygons, Walks)}
