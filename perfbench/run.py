"""Benchmark for confseed: one workload per process, closed loop, exact checks.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 24 --trace 0

Workloads: verify, polygons, walks (see NOTES.md).  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics from timed wrappers around
confseed's public functions, and the spans are written to
``.perfbench/trace-<workload>-seed<n>.tsv.gz``.  The lines before it are a
readable report with the environment.  The end-to-end times are corrected
for the momentary speed of the host (see hostspeed.py); the report shows
them next to the wall-clock times.  Exit status: 0 when every output
check passed, 1 when one failed, 2 when confseed cannot be found.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_S, SAMPLE_EVERY_S, HostClock  # noqa: E402
from tracer import TRACED_NAMES, Tracer, per_layer_spec  # noqa: E402
from workloads import WORK, WORKLOADS, Runner  # noqa: E402

MODULES = (
    "root_data", "linalg", "seed_core", "seed_builder", "surface_glue",
    "sequence_verifier", "seed_io", "golden", "minor_oracle", "suites", "cli",
)
# import and input building are repeated; setup_s is the median of their
# times at the reference speed
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def import_confseed():
    """Import every confseed module afresh and return them by short name."""
    for key in [k for k in sys.modules if k == "confseed" or k.startswith("confseed.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    mods = {m: importlib.import_module(f"confseed.{m}") for m in MODULES}
    return argparse.Namespace(**mods)


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            )
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain"],
                capture_output=True, text=True, timeout=30, check=True,
            )
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": cpu,
        "git_commit": commit,
        "git_dirty": dirty,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_passes(workload, passes: int, tracer=None, clock=None) -> Runner:
    runner = Runner(tracer, clock)
    for p in range(passes):
        workload.run_pass(runner, p)
    return runner


def timings(latencies: list[float], setup_s: float, failed: int) -> dict:
    """The timing metrics of a run, from its op times and set-up time."""
    attempted = len(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((attempted - failed) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail(latencies)[0] * 1e3, "ms"),
    }


def end_to_end(runner: Runner, setup_s: float) -> tuple[dict, dict]:
    """Metrics from times at the reference speed (see hostspeed.py)."""
    attempted = len(runner.latencies)
    failed = len(runner.failures)
    metrics = {
        **timings(runner.corrected(), setup_s, failed),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "op_tail_ms": f"p{tail(runner.latencies)[1]:.1f} of {attempted} ops, "
                      f"{TAIL_BEYOND} beyond it",
        "error_rate": f"{failed / attempted:.6f} ratio ({failed} of {attempted} ops failed)",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="intended length of the timed part; fixes the op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "confseed" / "__init__.py").is_file():
        print(f"error: no confseed package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    load_before = os.getloadavg()[0]
    kind = WORKLOADS[args.workload]
    # the op count depends on --seconds only, never on how fast the code runs
    passes = max(1, round(args.seconds / kind.pass_seconds))

    clock = HostClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        clock.sample(4 * SAMPLE_EVERY_S)
        start = perf_counter()
        cs = import_confseed()
        workload = kind(cs, args.seed, passes)
        setups.append((start, perf_counter()))
        clock.sample(setups[-1][1] - start)
        if len(setups) < SETUP_REPEATS:
            workload.close()
    setup_s = statistics.median(clock.corrected(a, b) for a, b in setups)

    report = [f"workload {args.workload}, seed {args.seed}, {passes} passes"]
    try:
        if args.trace:
            untraced = run_passes(workload, 1, clock=clock)
            tracer = Tracer()
            tracer.install()
            runner = run_passes(workload, passes, tracer, clock)
            same_ops = len(untraced.latencies)
            overhead = sum(runner.corrected()[:same_ops]) / sum(untraced.corrected())
            metrics, bases = tracer.metrics(overhead)
            units = {m["name"]: m["unit"] for m in per_layer_spec()}
            result = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
            report += layer_report(tracer, runner, metrics, bases, kind, args, overhead)
        else:
            runner = run_passes(workload, passes, clock=clock)
            metrics, notes = end_to_end(runner, setup_s)
            result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            wall = timings(runner.latencies, statistics.median(b - a for a, b in setups),
                           len(runner.failures))
            report.append(f"  {'metric':<14} {'at ref speed':>14} {'wall clock':>14}")
            report += [f"  {k:<14} {v:>14.6f} "
                       + (f"{wall[k][0]:>14.6f} " if k in wall else " " * 15) + u
                       for k, (v, u) in metrics.items()]
            report += [f"  {k:<14} {v}" for k, v in notes.items()]
            report.append("  setup repeats, wall (s): "
                          + ", ".join(f"{b - a:.4f}" for a, b in setups))
            took = [t * 1e3 for t in sorted(clock.took)]
            report.append(f"  reference loop: {len(took)} samples, min {took[0]:.3f}, "
                          f"median {statistics.median(took):.3f}, max {took[-1]:.3f} ms; "
                          f"reference speed {REFERENCE_S * 1e3:.3f} ms")
    finally:
        workload.close()

    load_after = os.getloadavg()[0]
    env.update(loadavg_1m_before=load_before, loadavg_1m_after=load_after)
    for key, problem in runner.failures[:20]:
        report.append(f"  FAILED {key}: {problem}")
    print("\n".join(report))
    print("env " + json.dumps(env, sort_keys=True))
    if max(load_before, load_after) > env["nproc"]:
        print(f"warning: load average {max(load_before, load_after):.2f} exceeds "
              f"{env['nproc']} cores; timings are suspect", file=sys.stderr)
    correct = not runner.failures
    print(json.dumps({
        "correct": correct,
        "attempted": len(runner.latencies),
        "failed": len(runner.failures),
        "metrics": result,
    }))
    return 0 if correct else 1


def layer_report(tracer, runner, metrics, bases, kind, args, overhead) -> list[str]:
    """Per-layer table, ratio bases, scaling curves; writes the spans file."""
    WORK.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write_spans(spans_path, runner.keys)
    lines = [f"  tracing overhead: traced / untraced time of pass 1 at the reference "
             f"speed = {overhead:.3f}",
             f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
             "  function                                              calls      self_s"]
    for name in sorted(TRACED_NAMES, key=lambda n: -metrics[n + ".self_s"]):
        if metrics[name + ".calls"]:
            lines.append(f"  {name:<50} {metrics[name + '.calls']:>9} "
                         f"{metrics[name + '.self_s']:>11.4f}")
    for name in ("minor_oracle.seed_values.raised", "seed_io.bytes_written"):
        lines.append(f"  {name} = {metrics[name]}")
    for label, (num, den) in bases.items():
        lines.append(f"  {label}: {num} / {den}")
    for title, span, pattern in kind.curves:
        points = tracer.curve(span, pattern, runner.keys)
        lines.append(f"  curve: {title} (median {span} seconds per op)")
        for x in sorted(points, key=int):
            lines.append(f"    {x:>3}  {points[x]:.5f}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
