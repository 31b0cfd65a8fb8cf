"""mvnlock benchmark: seeded file:// workloads driven through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 one client runs the command cycle of cycle.py, one
`python -m mvnlock.cli` child per command, until S seconds have passed (at
least MIN_CYCLES cycles), and reports per-step medians at the reference speed of
cycle.reference_seconds. With --trace 1 it runs
an untraced, a traced and another untraced cycle in process and reports
per-layer metrics.
The last line of standard output is the result as one JSON object; the line
before it records the environment. Work files live under .perfbench/ in the
checkout and are removed at exit, except the span dump of a traced run.

    python3 perfbench/run.py --record

rewrites expected.json from the default seed of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
SETUPS = 3          # set-ups per run; setup_s is their median
MIN_CYCLES = 3


def _set_up(cycle, workloads, builders, name: str, seed: int, work: Path, count: int):
    """Build the workload `count` times from scratch; keep the last.

    Returns it with each build's wall time and reference_seconds() just before it.
    """
    times = []
    for _ in range(count):
        shutil.rmtree(work / "tree", ignore_errors=True)
        # each build starts with nothing left to write back from the one before
        os.sync()
        reference = cycle.reference_seconds()
        start = perf_counter()
        w = workloads.build(builders, name, seed, work / "tree")
        times.append((perf_counter() - start, reference))
    return w, times


def _fs_type(path: Path) -> str:
    out = subprocess.run(["stat", "-f", "-c", "%T", str(path)], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def _timed(cycle, w, truth, seconds: float, setup_times: list[tuple[float, float]]):
    """Cycles for `seconds`; each time metric is its median at the run's reference speed.

    Also returns the plain wall-time medians and the run's speed factor.
    """
    runner = cycle.SubprocessRunner(ROOT / "src", w.root)
    results = []
    start = perf_counter()
    while len(results) < MIN_CYCLES or perf_counter() - start < seconds:
        results.append(cycle.run_cycle(w, truth, runner))
    samples = {f"{step}_s": [(r.seconds[step], r.reference[step])
                             for r in results if step in r.seconds] for step in cycle.STEPS}
    samples["setup_s"] = setup_times
    # one speed for the whole run: a single reference time is as noisy as a
    # command, their median over the run is not
    speed = cycle.NOMINAL_REFERENCE_S / statistics.median(
        ref for pairs in samples.values() for _, ref in pairs)
    wall = {name: statistics.median(t for t, _ in pairs) if pairs else 0.0
            for name, pairs in samples.items()}
    metrics = {name: (t * speed, "s") for name, t in wall.items()}
    # the largest over the run: which big jars threads hold at once varies by cycle
    metrics["peak_rss_mb"] = (max(r.maxrss_kb for r in results) / 1024, "MB")
    return metrics, results, {"wall_s": wall, "speed": speed}


def _traced(cycle, tracing, w, truth, name: str):
    """Untraced, traced, untraced cycle in process; the overhead is against the untraced mean."""
    runner = cycle.InProcessRunner(w.root)
    before = cycle.run_cycle(w, truth, runner)
    tracer = tracing.Tracer()
    cache = {}

    def run(step, argv):
        tracer.command = step
        return runner(step, argv)

    def count_cache(step):
        if step == "generate_cold":
            files = [p for p in w.cache.rglob("*") if p.is_file()]
            cache["files"] = len(files)
            cache["bytes"] = sum(p.stat().st_size for p in files)

    tracer.install()
    try:
        traced = cycle.run_cycle(w, truth, run, count_cache)
    finally:
        tracer.uninstall()
    after_cycle = cycle.run_cycle(w, truth, runner)
    tracer.dump(WORK / f"spans-{name}.jsonl")
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["repo.cache_files_written"] = (cache.get("files", 0), "count")
    metrics["repo.cache_bytes_written"] = (cache.get("bytes", 0), "B")
    for step in cycle.STEPS:
        metrics[f"cli.{step}.traced_s"] = (traced.seconds.get(step, 0.0), "s")

    def total(r) -> float:
        return sum(r.seconds.values())

    untraced = (total(before) + total(after_cycle)) / 2
    metrics["cli.trace.overhead_frac"] = (total(traced) / untraced - 1, "ratio")
    missing = tracing.missing_layers(tracer.spans, name)
    if missing:
        traced.problems.append(("trace", [f"no calls recorded for {', '.join(missing)}"]))
    return metrics, [before, traced, after_cycle], {}


def _record(workloads, cycle, builders) -> int:
    """Write expected.json: tree digests and output digests of the default seed."""
    record = {}
    for name in workloads.SHAPES:
        work = WORK / f"record-{name}-{os.getpid()}"
        try:
            w, _ = _set_up(cycle, workloads, builders, name, DEFAULT_SEED, work, 1)
            trees = {"remote": workloads.tree_digest(w.remote),
                     "project": workloads.tree_digest(w.project)}
            digests = {}

            def after(step):
                if step == "generate_cold":
                    digests["lockfiles"] = cycle.digests(w, cycle.LOCKFILE)
                elif step == "freeze":
                    digests["frozen"] = cycle.digests(w, cycle.FROZEN)
                elif step == "cicheck_regen":
                    edited = cycle.digests(w, cycle.LOCKFILE)[w.edit_module]
                    digests["cicheck"] = {w.edit_module: edited}

            result = cycle.run_cycle(w, cycle.Truth(w, None),
                                     cycle.SubprocessRunner(ROOT / "src", w.root), after)
            if result.failed:
                print(f"perfbench: {name}: {result.problems}", file=sys.stderr)
                return 1
            record[name] = {"seed": DEFAULT_SEED, "trees": trees, **digests}
        finally:
            shutil.rmtree(work, ignore_errors=True)
    EXPECTED.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the default seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mvnlock" / "cli.py").is_file() \
            or not (ROOT / "tests" / "conftest.py").is_file():
        print(f"perfbench: {ROOT} has no src/mvnlock or tests/conftest.py", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cycle
    import tracing
    import workloads

    builders = workloads.load_builders(ROOT)
    if args.record:
        return _record(workloads, cycle, builders)
    if args.workload not in workloads.SHAPES:
        parser.error(f"--workload must be one of {', '.join(workloads.SHAPES)}")

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        count = 1 if args.trace else SETUPS
        w, setup_times = _set_up(cycle, workloads, builders, args.workload, args.seed, work,
                                 count)
        expected = None
        if args.seed == DEFAULT_SEED:
            expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[args.workload]
            for tree, path in (("remote", w.remote), ("project", w.project)):
                if workloads.tree_digest(path) != expected["trees"][tree]:
                    print(f"perfbench: the generated {tree} tree of {args.workload} seed "
                          f"{args.seed} no longer matches expected.json; the test builders "
                          "or the generator changed the benchmark's inputs", file=sys.stderr)
                    return 2
        truth = cycle.Truth(w, expected)
        if args.trace:
            metrics, results, measured = _traced(cycle, tracing, w, truth, args.workload)
        else:
            metrics, results, measured = _timed(cycle, w, truth, args.seconds, setup_times)
        fs = _fs_type(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        for step, problems in r.problems:
            print(f"perfbench: {step} failed: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed, "cycles": len(results),
        "workers": cycle.WORKERS, "python": platform.python_version(),
        "nproc": os.cpu_count(), "filesystem": fs,
        "failed_ops_frac": failed / attempted if attempted else 0.0, **measured}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
