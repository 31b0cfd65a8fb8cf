"""In-process tracing of mvnlock's layers, from outside the program.

Each public function of a layer is wrapped at every mvnlock module that
holds it by name (``resolver`` imports ``parse_pom``, ``cli`` imports
``validate`` and so on), and the ``MavenRepository`` methods are wrapped on
the class. A span records its name, start, end, parent span and thread id;
spans stay in memory until the run ends. A parent is the enclosing span on
the same thread, so self time is per-thread time minus child spans, and time
a function spends waiting for a pool shows as its own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import threading
from pathlib import Path
from time import perf_counter

LAYERS = {
    "pom": ("parse_pom", "effective_pom"),
    "versions": ("compare_versions", "sorted_versions"),
    "resolver": ("resolve",),
    "project": ("load_project",),
    "lockfile": ("generate_lockfile", "serialize", "parse_lockfile"),
    "integrity": ("validate", "verify_checksums"),
    "freezer": ("freeze", "emit_frozen_xml"),
}
REPO_METHODS = ("list_versions", "fetch_pom", "source_of", "checksum_local",
                "checksum_remote", "checksum_remote_with_source")
REMOTE = ("repo.checksum_remote", "repo.checksum_remote_with_source")
DISTINCT = ("repo.list_versions", "repo.fetch_pom", "pom.parse_pom")

ALL = ("ranges-shared", "fat-jars")
# workloads on which each wrapped name must record calls; every name has one,
# so a rename that silently drops a layer fails the traced run
REQUIRED = {
    "repo.list_versions": ("ranges-shared",),
    "repo.source_of": ("fat-jars",),
    "repo.checksum_remote": ("ranges-shared",),
    "repo.checksum_remote_with_source": ("ranges-shared",),
    "versions.compare_versions": ("ranges-shared",),
    "versions.sorted_versions": ("ranges-shared",),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, thread, command, name, start, end, key, size)
        self.command = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, size=None):
        keyed = name in DISTINCT
        method = name.startswith("repo.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                key = None
                if keyed:
                    key = (args[1:] if method else args, tuple(sorted(kwargs.items())))
                self.spans.append((span_id, parent, threading.get_ident(), self.command, name,
                                   start, end, key,
                                   size(args, kwargs, result) if size and result is not None
                                   else None))

        return traced

    def install(self) -> None:
        """Wrap every layer function and repository method; fail if one is missing."""
        import mvnlock
        from mvnlock import repo
        modules = [importlib.import_module(f"mvnlock.{m.name}")
                   for m in pkgutil.iter_modules(mvnlock.__path__)]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"mvnlock.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    raise RuntimeError(f"layer function mvnlock.{layer}.{fname} is missing")
                wrapped = self.wrap(f"{layer}.{fname}", original, SIZES.get(fname))
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._set(module, fname, wrapped)
        for mname in REPO_METHODS:
            original = getattr(repo.MavenRepository, mname, None)
            if original is None:
                raise RuntimeError(f"repository method MavenRepository.{mname} is missing")
            size = _checksum_bytes(original) if mname == "checksum_local" else None
            self._set(repo.MavenRepository, mname, self.wrap(f"repo.{mname}", original, size))

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def dump(self, path: Path) -> None:
        """Write the spans out, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "thread", "command", "name", "start", "end")
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                record = dict(zip(fields, span))
                if span[8] is not None:
                    record["size"] = span[8]
                out.write(json.dumps(record) + "\n")


def _checksum_bytes(method):
    """Size of the cached file a checksum_local call hashed."""
    from mvnlock.repo import artifact_rel_path
    signature = inspect.signature(method)

    def size(args, kwargs, result) -> int:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        root = a["self"].config.local_repo_root
        return (root / artifact_rel_path(a["gav"], a["packaging"], a["classifier"])).stat().st_size

    return size


def _resolve_size(args, kwargs, tree) -> tuple[int, int]:
    return sum(1 for _ in tree.walk()), len(tree.flattened)


SIZES = {
    "serialize": lambda args, kwargs, result: len(result),
    "verify_checksums": lambda args, kwargs, result: len(args[0]),
    "freeze": lambda args, kwargs, result: len(result.managed_pins),
    "resolve": _resolve_size,
}


def layer_metrics(spans: list[tuple]) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times from the spans of one traced cycle."""
    by_id = {s[0]: s for s in spans}

    def outermost(names) -> list[tuple]:
        """Spans of `names` not nested inside another span of `names`."""
        chosen = []
        for s in spans:
            if s[4] not in names:
                continue
            parent = s[1]
            while parent is not None and by_id[parent][4] not in names:
                parent = by_id[parent][1]
            if parent is None:
                chosen.append(s)
        return chosen

    child_time: dict[int, float] = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[6] - s[5])

    m: dict[str, tuple[float, str]] = {}

    def calls_and_time(label: str, names=None) -> list[tuple]:
        chosen = outermost(names or (label,))
        m[f"{label}.calls"] = (len(chosen), "count")
        m[f"{label}.s"] = (sum(s[6] - s[5] for s in chosen), "s")
        return chosen

    def self_time(label: str) -> None:
        m[f"{label}.self_s"] = (sum(s[6] - s[5] - child_time.get(s[0], 0.0)
                                    for s in spans if s[4] == label), "s")

    def per_distinct(label: str, chosen: list[tuple]) -> None:
        # distinct arguments counted per command, since each command is its own process
        distinct = len({(s[3], s[7]) for s in chosen})
        m[f"{label}.per_distinct"] = (len(chosen) / distinct if distinct else 0.0, "ratio")

    for name in ("list_versions", "fetch_pom"):
        per_distinct(f"repo.{name}", calls_and_time(f"repo.{name}"))
    calls_and_time("repo.source_of")
    local = calls_and_time("repo.checksum_local")
    hashed = sum(s[8] for s in local if s[8] is not None)
    seconds = m["repo.checksum_local.s"][0]
    m["repo.checksum_local.bytes"] = (hashed, "B")
    m["repo.checksum_local.mb_per_s"] = (hashed / seconds / 1e6 if seconds else 0.0, "MB/s")
    calls_and_time("repo.checksum_remote", REMOTE)
    per_distinct("pom.parse_pom", calls_and_time("pom.parse_pom"))
    calls_and_time("pom.effective_pom")
    for name in LAYERS["versions"]:
        calls_and_time(f"versions.{name}")
    trees = calls_and_time("resolver.resolve")
    self_time("resolver.resolve")
    m["resolver.nodes"] = (sum(s[8][0] for s in trees if s[8]), "count")
    m["resolver.winners"] = (sum(s[8][1] for s in trees if s[8]), "count")
    calls_and_time("project.load_project")
    calls_and_time("lockfile.generate_lockfile")
    self_time("lockfile.generate_lockfile")
    written = calls_and_time("lockfile.serialize")
    m["lockfile.serialize.bytes"] = (sum(s[8] for s in written if s[8] is not None), "B")
    calls_and_time("lockfile.parse_lockfile")
    calls_and_time("integrity.validate")
    self_time("integrity.validate")
    verified = calls_and_time("integrity.verify_checksums")
    m["integrity.entries_verified"] = (sum(s[8] for s in verified if s[8] is not None),
                                       "count")
    frozen = calls_and_time("freezer.freeze")
    m["freezer.pins"] = (sum(s[8] for s in frozen if s[8] is not None), "count")
    calls_and_time("freezer.emit_frozen_xml")
    return m


def missing_layers(spans: list[tuple], workload: str) -> list[str]:
    """Wrapped names that must record calls on `workload` but recorded none."""
    called = {s[4] for s in spans}
    names = [f"{layer}.{f}" for layer, fs in LAYERS.items() for f in fs]
    names += [f"repo.{f}" for f in REPO_METHODS]
    return [n for n in names if workload in REQUIRED.get(n, ALL) and n not in called]
