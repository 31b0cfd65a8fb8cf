"""Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py

Runs the default seed of ranges-shared in process three times: once clean,
once with one byte of a written lockfile changed right after `generate_warm`,
and once with one byte of a frozen POM changed right after `freeze`. The clean
cycle must count no failed invocation; each planted byte must be counted as a
failed invocation of the step that wrote it. Exits 0 when all three hold.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _plant(path: Path, marker: bytes) -> None:
    """Change the first hex digit after `marker` to another hex digit."""
    data = bytearray(path.read_bytes())
    at = data.index(marker) + len(marker)
    data[at] = ord("0") if data[at] != ord("0") else ord("1")
    path.write_bytes(bytes(data))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import cycle
    import workloads
    from run import DEFAULT_SEED, EXPECTED, WORK

    builders = workloads.load_builders(ROOT)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["ranges-shared"]
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        w = workloads.build(builders, "ranges-shared", DEFAULT_SEED, work)
        truth = cycle.Truth(w, expected)
        runner = cycle.InProcessRunner(w.root)
        module = sorted(rel for rel in w.poms if rel != ".")[0]
        plants = {
            "clean": (None, None),
            "generate_warm": (cycle.LOCKFILE, b'"checksum": "'),
            "freeze": (cycle.FROZEN, b"sha256:"),
        }
        ok = True
        for step, (name, marker) in plants.items():
            def hook(done, step=step, name=name, marker=marker):
                if done == step:
                    _plant(w.project / module / name, marker)

            result = cycle.run_cycle(w, truth, runner, hook)
            frac = result.failed / result.attempted
            failed_steps = {s for s, _ in result.problems}
            passed = (result.failed == 0) if step == "clean" else (step in failed_steps)
            ok = ok and passed
            print(f"{step:14s} failed {result.failed}/{result.attempted} "
                  f"(failed_ops_frac {frac:.3f}) -> {'ok' if passed else 'NOT COUNTED'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
