"""The closed-loop command cycle, its runners and its output checks.

One client runs the seven steps below one after the other, each command
starting only after the previous one has exited. Every check compares the
program's output with values the benchmark computes itself: exit codes, jar
digests hashed from the generated repository, the declared direct
dependencies, the set of jars it tampered with, and, for the default seed,
the sha256 of every lockfile and frozen POM recorded in expected.json.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from workloads import Workload

STEPS = ("generate_cold", "generate_warm", "validate", "validate_offline", "freeze",
         "detect_tamper", "cicheck_regen")
EXPECTED_EXIT = {"detect_tamper": 1, "cicheck_regen": 3}
# nproc of the 2-vCPU machine the benchmark was sized on; no workload shares a
# cached artifact between module threads in local checksum mode (see README)
WORKERS = 2
LOCKFILE = "lockfile.json"
FROZEN = "pom.lockfile.xml"


@dataclass
class Invocation:
    code: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_kb: int = 0
    reference: float = 0.0    # reference_seconds() just before it, subprocess runs only


# median time of reference.py on the 2-vCPU machine the bounds were set on, so
# that reported times read as seconds there
NOMINAL_REFERENCE_S = 0.15
REFERENCE = Path(__file__).resolve().parent / "reference.py"


def reference_seconds() -> float:
    """Wall time of one child running reference.py.

    The speed of a shared virtual machine's CPUs drifts by up to half over
    tens of seconds. A run therefore times this fixed, mvnlock-free child next
    to every command and every build, and reports each time metric as its
    median wall time × NOMINAL_REFERENCE_S / the median of these times.
    """
    start = perf_counter()
    subprocess.run([sys.executable, str(REFERENCE)], check=True)
    return perf_counter() - start


class SubprocessRunner:
    """Runs `python -m mvnlock.cli` as a child and takes its peak RSS from os.wait4."""

    def __init__(self, src: Path, cwd: Path):
        self.cwd = cwd
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))

    def __call__(self, step: str, argv: list[str]) -> Invocation:
        out_path, err_path = self.cwd / "stdout.txt", self.cwd / "stderr.txt"
        before = reference_seconds()
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "mvnlock.cli", *argv],
                                    stdout=out, stderr=err, cwd=self.cwd, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(proc.returncode, out_path.read_text(), err_path.read_text(),
                          seconds, usage.ru_maxrss, before)


class InProcessRunner:
    """Runs `mvnlock.cli.main(argv)` in this process from `cwd`, capturing its output."""

    def __init__(self, cwd: Path):
        from mvnlock.cli import main
        self.main = main
        self.cwd = cwd

    def __call__(self, step: str, argv: list[str]) -> Invocation:
        out, err = io.StringIO(), io.StringIO()
        home = os.getcwd()
        os.chdir(self.cwd)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = perf_counter()
                code = self.main(argv)
                seconds = perf_counter() - start
        finally:
            os.chdir(home)
        return Invocation(code, out.getvalue(), err.getvalue(), seconds)


@dataclass
class CycleResult:
    seconds: dict[str, float] = field(default_factory=dict)     # step -> wall time
    reference: dict[str, float] = field(default_factory=dict)   # step -> reference_seconds()
    maxrss_kb: int = 0
    attempted: int = 0
    problems: list[tuple[str, list[str]]] = field(default_factory=list)  # per failed invocation

    @property
    def failed(self) -> int:
        return len(self.problems)


class Truth:
    """Values the benchmark knows independently of mvnlock, for one workload."""

    def __init__(self, w: Workload, expected: dict | None):
        self.w = w
        self.expected = expected          # recorded digests, default seed only
        self._digests: dict[tuple[str, str, str], str] = {}

    def jar_digest(self, key: tuple[str, str, str]) -> str:
        if key not in self._digests:
            self._digests[key] = file_digest(self.w.jar_files[key], self.w.algorithm)
        return self._digests[key]


def file_digest(path: Path, algorithm: str) -> str:
    digest = hashlib.new(algorithm)
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def walk(entries):
    for entry in entries:
        yield entry
        yield from walk(entry["children"])


def coords(entry) -> tuple[str, str, str]:
    return entry["groupId"], entry["artifactId"], entry["version"]


def check_lockfile(truth: Truth, rel: str, data: bytes, directs: set) -> list[str]:
    """Every entry is a published jar with its true digest; the roots are the declared directs."""
    w = truth.w
    doc = json.loads(data)
    problems = []
    roots = {(e["groupId"], e["artifactId"]) for e in doc["dependencies"]}
    if roots != directs:
        problems.append(f"{rel}: direct dependencies {sorted(roots ^ directs)} differ")
    for entry in doc["dependencies"]:
        if not entry["direct"] or any(c["direct"] for c in walk(entry["children"])):
            problems.append(f"{rel}: wrong direct flag under {coords(entry)}")
    for entry in walk(doc["dependencies"]):
        key = coords(entry)
        if key not in w.jar_files:
            problems.append(f"{rel}: {key} is not published")
        elif (entry["checksum"] != truth.jar_digest(key)
              or entry["checksumAlgorithm"] != w.algorithm
              or entry["checksumMode"] != w.checksum_mode
              or entry["repositorySource"] != w.url):
            problems.append(f"{rel}: wrong checksum record for {key}")
    return problems


def check_frozen(rel: str, data: bytes, lock: bytes) -> list[str]:
    """Every transitive locked entry is pinned at its locked version."""
    root = ET.fromstring(data)
    pinned = set()
    for el in root.iter():
        if el.tag.rsplit("}", 1)[-1] == "dependencyManagement":
            for dep in el.iter():
                if dep.tag.rsplit("}", 1)[-1] == "dependency":
                    text = {c.tag.rsplit("}", 1)[-1]: (c.text or "").strip() for c in dep}
                    pinned.add((text.get("groupId"), text.get("artifactId"),
                                text.get("version")))
    doc = json.loads(lock)
    missing = [coords(e) for e in walk(doc["dependencies"])
               if not e["direct"] and coords(e) not in pinned]
    return [f"{rel}: frozen POM does not pin {missing[:3]}"] if missing else []


def digests(w: Workload, name: str) -> dict[str, str]:
    return {rel: hashlib.sha256((w.project / rel / name).read_bytes()).hexdigest()
            for rel in w.poms}


def _recorded(truth: Truth, kind: str, actual: dict[str, str]) -> list[str]:
    if truth.expected is None:
        return []
    want = truth.expected[kind]
    return [f"{rel}: {kind} sha256 {actual.get(rel)} != recorded {want[rel]}"
            for rel in want if actual.get(rel) != want[rel]]


def _findings(stdout: str) -> set[tuple]:
    return {(report["modulePath"], f["kind"], f["groupId"], f["artifactId"], f["expected"],
             f["actual"])
            for report in json.loads(stdout)["reports"] for f in report["findings"]}


def _flip(path: Path, offset: int) -> None:
    with path.open("r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _tamper(w: Workload, truth: Truth):
    """Flip one byte in each of k seeded locked jars of the cache.

    Returns the flipped jars and the findings validate must report: one per
    module that locks a flipped jar, with the true and the tampered digest.
    """
    docs = {rel: json.loads((w.project / rel / LOCKFILE).read_bytes()) for rel in w.poms}
    locked = sorted({coords(e) for doc in docs.values() for e in walk(doc["dependencies"])})
    rng = random.Random(f"tamper:{w.name}:{w.seed}")
    flipped = {}
    for key in rng.sample(locked, w.tamper_k):
        g, a, v = key
        path = w.cache / g.replace(".", "/") / a / v / f"{a}-{v}.jar"
        offset = rng.randrange(path.stat().st_size)
        _flip(path, offset)
        flipped[key] = (path, offset, file_digest(path, w.algorithm))
    want = {(rel, w.tamper_kind, e["groupId"], e["artifactId"], truth.jar_digest(coords(e)),
             flipped[coords(e)][2])
            for rel, doc in docs.items() for e in walk(doc["dependencies"])
            if coords(e) in flipped}
    return flipped, want


def run_cycle(w: Workload, truth: Truth, run: Callable[[str, list[str]], Invocation],
              hook: Callable[[str], None] | None = None) -> CycleResult:
    """One cycle. `hook(step)` runs after each command, before its output is checked."""
    result = CycleResult()
    # paths relative to the workload root keep the lockfile bytes free of where it lives
    common = ["--project", "project", "--repo-url", w.url, "--local-repo", "cache",
              "--workers", str(WORKERS), *w.flags]
    machine = ["--format", "machine"]
    shutil.rmtree(w.cache, ignore_errors=True)
    w.reset()
    state: dict = {}

    def step(name: str, argv: list[str], check: Callable[[Invocation], list[str]]) -> None:
        inv = run(name, argv)
        if hook is not None:
            hook(name)
        result.attempted += 1
        result.seconds[name] = inv.seconds
        result.reference[name] = inv.reference
        result.maxrss_kb = max(result.maxrss_kb, inv.maxrss_kb)
        want = EXPECTED_EXIT.get(name, 0)
        if inv.code != want:
            problems = [f"exit {inv.code}, expected {want}: {inv.stderr[-300:]}"]
        else:
            try:
                problems = check(inv)
            except (ValueError, KeyError, TypeError, OSError, ET.ParseError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            result.problems.append((name, problems))

    def generated(inv: Invocation) -> list[str]:
        locks = digests(w, LOCKFILE)
        if "locks" in state:
            return [] if locks == state["locks"] else ["warm lockfiles differ from cold"]
        state["locks"] = locks
        problems = _recorded(truth, "lockfiles", locks)
        for rel in w.poms:
            data = (w.project / rel / LOCKFILE).read_bytes()
            problems += check_lockfile(truth, rel, data, w.directs[rel])
        return problems

    def clean(inv: Invocation) -> list[str]:
        found = _findings(inv.stdout)
        return [f"unexpected findings {sorted(found)[:3]}"] if found else []

    def frozen(inv: Invocation) -> list[str]:
        problems = _recorded(truth, "frozen", digests(w, FROZEN))
        for rel in w.poms:
            problems += check_frozen(rel, (w.project / rel / FROZEN).read_bytes(),
                                     (w.project / rel / LOCKFILE).read_bytes())
        return problems

    step("generate_cold", ["generate", *common], generated)
    step("generate_warm", ["generate", *common], generated)
    step("validate", ["validate", *common, *machine], clean)
    step("validate_offline", ["validate", *common, "--offline", *w.offline_flags, *machine],
         clean)
    step("freeze", ["freeze", *common], frozen)

    try:
        flipped, want = _tamper(w, truth)
    except (OSError, ValueError, KeyError) as exc:
        for name in STEPS[5:]:
            result.attempted += 1
            result.problems.append((name, [f"not run, cannot tamper with the cache: {exc!r}"]))
        return result

    def tampered(inv: Invocation) -> list[str]:
        found = _findings(inv.stdout)
        if found == want:
            return []
        return [f"findings differ from the {len(flipped)} flipped jars: "
                f"missing {sorted(want - found)[:2]}, extra {sorted(found - want)[:2]}"]

    step("detect_tamper", ["validate", *common, *machine], tampered)
    for path, offset, _ in flipped.values():
        _flip(path, offset)

    before = state.get("locks", {})
    (w.project / w.edit_module / "pom.xml").write_text(w.edit_pom, encoding="utf-8")
    changed = "pom.xml" if w.edit_module == "." else f"{w.edit_module}/pom.xml"

    def regenerated(inv: Invocation) -> list[str]:
        doc = json.loads(inv.stdout)
        problems = []
        if doc.get("updated") != [w.edit_module]:
            problems.append(f"updated {doc.get('updated')}, expected [{w.edit_module!r}]")
        after = digests(w, LOCKFILE)
        moved = sorted(rel for rel in w.poms if after[rel] != before.get(rel))
        if moved != [w.edit_module]:
            problems.append(f"lockfiles changed: {moved}, expected [{w.edit_module!r}]")
        data = (w.project / w.edit_module / LOCKFILE).read_bytes()
        problems += check_lockfile(truth, w.edit_module, data,
                                   w.directs[w.edit_module] | {w.edit_ga})
        problems += _recorded(truth, "cicheck", {w.edit_module: after[w.edit_module]})
        return problems

    step("cicheck_regen", ["ci-check", *common, "--changed-file", changed, *machine],
         regenerated)
    return result
