"""Shared fixtures: file:// repositories and the fixture project corpus.

Fixture manifests and repositories are written as raw XML/bytes here,
independent of the package's own serializers, so the parsers are exercised
against input the implementation did not produce.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import pytest

from mvnlock.repo import MavenRepository, RepositoryConfig

# --- raw XML builders ---


def dep_xml(group: str, artifact: str, version: str | None = None, scope: str | None = None,
            optional: bool = False, exclusions: tuple = (), dep_type: str | None = None) -> str:
    parts = [f"<dependency><groupId>{group}</groupId><artifactId>{artifact}</artifactId>"]
    if version is not None:
        parts.append(f"<version>{version}</version>")
    if dep_type is not None:
        parts.append(f"<type>{dep_type}</type>")
    if scope is not None:
        parts.append(f"<scope>{scope}</scope>")
    if optional:
        parts.append("<optional>true</optional>")
    if exclusions:
        inner = "".join(
            f"<exclusion><groupId>{g}</groupId><artifactId>{a}</artifactId></exclusion>"
            for g, a in exclusions
        )
        parts.append(f"<exclusions>{inner}</exclusions>")
    parts.append("</dependency>")
    return "".join(parts)


def pom_xml(group: str | None, artifact: str, version: str | None, packaging: str | None = None,
            parent: tuple[str, str, str] | None = None, properties: dict | None = None,
            deps: tuple = (), dm: tuple = (), modules: tuple = (), plugins: tuple = ()) -> str:
    parts = ['<?xml version="1.0" encoding="UTF-8"?>', "<project>",
             "<modelVersion>4.0.0</modelVersion>"]
    if parent is not None:
        pg, pa, pv = parent
        parts.append(f"<parent><groupId>{pg}</groupId><artifactId>{pa}</artifactId>"
                     f"<version>{pv}</version></parent>")
    if group is not None:
        parts.append(f"<groupId>{group}</groupId>")
    parts.append(f"<artifactId>{artifact}</artifactId>")
    if version is not None:
        parts.append(f"<version>{version}</version>")
    if packaging is not None:
        parts.append(f"<packaging>{packaging}</packaging>")
    if properties:
        inner = "".join(f"<{k}>{v}</{k}>" for k, v in properties.items())
        parts.append(f"<properties>{inner}</properties>")
    if modules:
        inner = "".join(f"<module>{m}</module>" for m in modules)
        parts.append(f"<modules>{inner}</modules>")
    if dm:
        parts.append("<dependencyManagement><dependencies>" + "".join(dm)
                     + "</dependencies></dependencyManagement>")
    if deps:
        parts.append("<dependencies>" + "".join(deps) + "</dependencies>")
    if plugins:
        inner = "".join(
            f"<plugin><groupId>{g}</groupId><artifactId>{a}</artifactId>"
            f"<version>{v}</version></plugin>"
            for g, a, v in plugins
        )
        parts.append(f"<build><plugins>{inner}</plugins></build>")
    parts.append("</project>")
    return "\n".join(parts)


# --- repository builder ---


def jar_bytes(group: str, artifact: str, version: str) -> bytes:
    return f"binary-content::{group}:{artifact}:{version}::".encode() * 7


class RepoBuilder:
    """Writes a standard-layout repository servable over file://."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.versions: dict[tuple[str, str], list[str]] = {}

    @property
    def url(self) -> str:
        return self.root.as_uri()

    def _dir(self, group: str, artifact: str, version: str) -> Path:
        d = self.root / group.replace(".", "/") / artifact / version
        d.mkdir(parents=True, exist_ok=True)
        return d

    def add(self, group: str, artifact: str, version: str, deps: tuple = (),
            packaging: str = "jar", jar: bytes | None = None) -> None:
        d = self._dir(group, artifact, version)
        (d / f"{artifact}-{version}.pom").write_text(
            pom_xml(group, artifact, version, deps=deps), encoding="utf-8"
        )
        if packaging == "jar":
            payload = jar if jar is not None else jar_bytes(group, artifact, version)
            jar_path = d / f"{artifact}-{version}.jar"
            jar_path.write_bytes(payload)
            self.write_sidecars(jar_path)
        self.versions.setdefault((group, artifact), [])
        if version not in self.versions[(group, artifact)]:
            self.versions[(group, artifact)].append(version)
        self._write_metadata(group, artifact)

    def write_sidecars(self, path: Path) -> None:
        data = path.read_bytes()
        for algorithm in ("sha1", "sha256", "sha512"):
            digest = hashlib.new(algorithm, data).hexdigest()
            # real repositories often append the filename after the digest
            (path.parent / f"{path.name}.{algorithm}").write_text(
                f"{digest}  {path.name}\n", encoding="utf-8"
            )

    def _write_metadata(self, group: str, artifact: str) -> None:
        listed = self.versions[(group, artifact)]
        inner = "".join(f"<version>{v}</version>" for v in listed)
        meta = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f"<metadata><groupId>{group}</groupId><artifactId>{artifact}</artifactId>"
            f"<versioning><versions>{inner}</versions></versioning></metadata>\n"
        )
        target = self.root / group.replace(".", "/") / artifact / "maven-metadata.xml"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(meta, encoding="utf-8")

    def artifact_path(self, group: str, artifact: str, version: str,
                      ext: str = "jar") -> Path:
        return (self.root / group.replace(".", "/") / artifact / version
                / f"{artifact}-{version}.{ext}")


# --- fixture corpus ---


@dataclass
class Fixture:
    name: str
    project_root: Path
    repo: RepoBuilder
    cache_root: Path
    # publishes one randomized newer in-range version per drift channel
    mutate: Callable[[random.Random], list[str]] = lambda rng: []
    module_paths: list[str] = field(default_factory=lambda: ["."])

    def repository(self, offline: bool = False) -> MavenRepository:
        return MavenRepository(RepositoryConfig(
            remote_base_urls=() if offline else (self.repo.url,),
            local_repo_root=self.cache_root,
        ))

    def cached_artifact(self, group: str, artifact: str, version: str) -> Path:
        return (self.cache_root / group.replace(".", "/") / artifact / version
                / f"{artifact}-{version}.jar")


def _in_range_version(rng: random.Random, major: str) -> str:
    return f"{major}.{rng.randint(1, 8)}"


def build_single(tmp: Path) -> Fixture:
    repo = RepoBuilder(tmp / "remote")
    repo.add("com.google.code.gson", "gson", "2.13.2")
    repo.add("org.acme", "text", "1.0")
    repo.add("org.acme", "util", "1.0",
             deps=(dep_xml("org.acme", "text", "[1.0,2.0)"),))
    project = tmp / "project"
    project.mkdir()
    (project / "pom.xml").write_text(pom_xml(
        "com.acme", "app", "1.0.0",
        deps=(dep_xml("com.google.code.gson", "gson", "2.13.2"),
              dep_xml("org.acme", "util", "1.0")),
    ), encoding="utf-8")

    def mutate(rng: random.Random) -> list[str]:
        version = _in_range_version(rng, "1")
        repo.add("org.acme", "text", version)
        return [f"org.acme:text:{version}"]

    return Fixture("single", project, repo, tmp / "cache", mutate)


def build_aggregator(tmp: Path) -> Fixture:
    repo = RepoBuilder(tmp / "remote")
    repo.add("com.google.code.gson", "gson", "2.13.2")
    repo.add("org.acme", "text", "1.0")
    repo.add("org.acme", "util", "1.0",
             deps=(dep_xml("org.acme", "text", "[1.0,2.0)"),))
    repo.add("org.acme", "lib-a", "1.0",
             deps=(dep_xml("org.acme", "lib-b", "[1.0,2.0)"),))
    repo.add("org.acme", "lib-b", "1.0")
    project = tmp / "project"
    (project / "core").mkdir(parents=True)
    (project / "web").mkdir(parents=True)
    (project / "pom.xml").write_text(pom_xml(
        "com.acme.multi", "parent", "2.0", packaging="pom",
        properties={"gson.version": "2.13.2"},
        modules=("core", "web"),
        dm=(dep_xml("org.acme", "text", "1.0"),),
    ), encoding="utf-8")
    (project / "core" / "pom.xml").write_text(pom_xml(
        None, "core", None, parent=("com.acme.multi", "parent", "2.0"),
        deps=(dep_xml("com.google.code.gson", "gson", "${gson.version}"),
              dep_xml("org.acme", "text"),
              dep_xml("org.acme", "util", "1.0")),
    ), encoding="utf-8")
    (project / "web" / "pom.xml").write_text(pom_xml(
        None, "web", None, parent=("com.acme.multi", "parent", "2.0"),
        deps=(dep_xml("org.acme", "lib-a", "1.0"),),
    ), encoding="utf-8")

    def mutate(rng: random.Random) -> list[str]:
        version = _in_range_version(rng, "1")
        repo.add("org.acme", "lib-b", version)
        return [f"org.acme:lib-b:{version}"]

    return Fixture("aggregator", project, repo, tmp / "cache", mutate,
                   module_paths=[".", "core", "web"])


def break_core(fixture: Fixture) -> None:
    """Give the aggregator's core module a range no published version satisfies."""
    (fixture.project_root / "core" / "pom.xml").write_text(pom_xml(
        None, "core", None, parent=("com.acme.multi", "parent", "2.0"),
        deps=(dep_xml("org.acme", "lib-b", "[5.0,6.0)"),),
    ), encoding="utf-8")


def build_diamond(tmp: Path) -> Fixture:
    repo = RepoBuilder(tmp / "remote")
    repo.add("org.d", "d", "1.0")
    repo.add("org.d", "d", "2.0")
    repo.add("org.d", "e", "1.0")
    repo.add("org.d", "b", "1.0", deps=(dep_xml("org.d", "d", "1.0"),))
    repo.add("org.d", "c", "1.0", deps=(dep_xml("org.d", "d", "2.0"),
                                        dep_xml("org.d", "e", "[1.0,2.0)")))
    project = tmp / "project"
    project.mkdir()
    (project / "pom.xml").write_text(pom_xml(
        "com.acme", "diamond", "1.0",
        deps=(dep_xml("org.d", "b", "1.0"), dep_xml("org.d", "c", "1.0")),
    ), encoding="utf-8")

    def mutate(rng: random.Random) -> list[str]:
        version = _in_range_version(rng, "1")
        repo.add("org.d", "e", version)
        return [f"org.d:e:{version}"]

    return Fixture("diamond", project, repo, tmp / "cache", mutate)


def build_ranges(tmp: Path) -> Fixture:
    repo = RepoBuilder(tmp / "remote")
    repo.add("org.r", "base", "1.0")
    # metadata deliberately lists versions out of order
    repo.add("org.r", "rangelib", "2.1", deps=(dep_xml("org.r", "base", "1.0"),))
    repo.add("org.r", "rangelib", "2.0", deps=(dep_xml("org.r", "base", "1.0"),))
    repo.add("org.log", "api", "1.0")
    repo.add("org.r", "misc", "1.0")
    repo.add("org.r", "fat", "1.0", deps=(dep_xml("org.log", "api", "1.0"),
                                          dep_xml("org.r", "misc", "1.0")))
    repo.add("org.r", "other", "1.0", deps=(dep_xml("org.log", "api", "1.0"),))
    project = tmp / "project"
    project.mkdir()
    (project / "pom.xml").write_text(pom_xml(
        "com.acme", "ranger", "1.0",
        deps=(dep_xml("org.r", "rangelib", "[2.0,3.0)"),
              dep_xml("org.r", "fat", "1.0", exclusions=(("org.log", "*"),)),
              dep_xml("org.r", "other", "1.0")),
    ), encoding="utf-8")

    def mutate(rng: random.Random) -> list[str]:
        version = _in_range_version(rng, "2")
        repo.add("org.r", "rangelib", version, deps=(dep_xml("org.r", "base", "1.0"),))
        return [f"org.r:rangelib:{version}"]

    return Fixture("ranges", project, repo, tmp / "cache", mutate)


def build_dualpath(tmp: Path) -> Fixture:
    repo = RepoBuilder(tmp / "remote")
    repo.add("org.t", "shared", "1.0")
    repo.add("org.t", "shared2", "1.0")
    repo.add("org.t", "t-root", "1.0", deps=(dep_xml("org.t", "shared", "[1.0,2.0)"),))
    repo.add("org.t", "c-root", "1.0", deps=(dep_xml("org.t", "shared", "[1.0,2.0)"),))
    repo.add("org.t", "r-root", "1.0", deps=(dep_xml("org.t", "shared2", "1.0"),))
    repo.add("org.t", "p-root", "1.0", deps=(dep_xml("org.t", "shared2", "1.0"),))
    project = tmp / "project"
    project.mkdir()
    # the test-scoped path is declared first, so it wins breadth-first mediation
    (project / "pom.xml").write_text(pom_xml(
        "com.acme", "dual", "1.0",
        deps=(dep_xml("org.t", "t-root", "1.0", scope="test"),
              dep_xml("org.t", "c-root", "1.0"),
              dep_xml("org.t", "r-root", "1.0", scope="runtime"),
              dep_xml("org.t", "p-root", "1.0", scope="provided")),
    ), encoding="utf-8")

    def mutate(rng: random.Random) -> list[str]:
        version = _in_range_version(rng, "1")
        repo.add("org.t", "shared", version)
        return [f"org.t:shared:{version}"]

    return Fixture("dualpath", project, repo, tmp / "cache", mutate)


def many_entry_lockfile(entries: int = 900, fan: int = 8):
    """An in-memory remote sha512 lockfile of ``entries`` entries, each direct one with
    up to ``fan`` transitive children, to time how fast a lockfile is written and read."""
    from mvnlock.lockfile import LockedDependency, Lockfile, LockfileConfig
    from mvnlock.pom import Gav
    from mvnlock.repo import ChecksumRecord

    def entry(i: int, direct: bool, children: list) -> LockedDependency:
        return LockedDependency(
            f"org.pool.g{i % 37:02d}", f"artifact-{i:04d}", f"1.{i % 7}.0-rc1", "compile",
            ChecksumRecord("sha512", hashlib.sha512(str(i).encode()).hexdigest(), "remote"),
            "file:remote", direct, sorted(children, key=lambda e: e.ga))

    directs = []
    for i in range(0, entries, fan + 1):
        children = [entry(j, False, []) for j in range(i + 1, min(i + 1 + fan, entries))]
        directs.append(entry(i, True, children))
    return Lockfile(Gav("org.app", "app", "1.0.0"),
                    LockfileConfig(checksum_mode="remote", checksum_algorithm="sha512"),
                    sorted(directs, key=lambda e: e.ga))


FIXTURE_BUILDERS = {
    "single": build_single,
    "aggregator": build_aggregator,
    "diamond": build_diamond,
    "ranges": build_ranges,
    "dualpath": build_dualpath,
}


@pytest.fixture(params=sorted(FIXTURE_BUILDERS))
def fixture(request, tmp_path) -> Fixture:
    return FIXTURE_BUILDERS[request.param](tmp_path)


@pytest.fixture
def single_fixture(tmp_path) -> Fixture:
    return build_single(tmp_path)


@pytest.fixture
def dualpath_fixture(tmp_path) -> Fixture:
    return build_dualpath(tmp_path)


@pytest.fixture
def saved_cycles() -> list:
    """``gc.garbage`` while the test runs with ``gc.DEBUG_SAVEALL``: what each collection found.

    Collects first, so that only what the test builds is saved; afterwards
    the debug flags are restored and the saved objects are let go.
    """
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def flip_byte(path: Path, offset: int) -> bytes:
    """XOR one byte in place; returns the original content for restoring."""
    original = path.read_bytes()
    mutated = bytearray(original)
    mutated[offset % len(original)] ^= 0xFF
    path.write_bytes(bytes(mutated))
    return original


def fail_staging(monkeypatch, k: int, names: tuple[str, ...] = ()) -> list[str]:
    """Make the k-th (0-based) file staged by ``write_files`` fail to write.

    With ``names``, only temp files staged for targets of those names count.
    The temp file is created, then handed back read-only, so the write raises
    OSError the way a full disk would, after the temp file exists. Returns
    the counted temp file paths as they are staged.
    """
    real = os.open
    staged: list[str] = []

    def open_(path, flags, mode=0o777, *args, **kwargs):
        fd = real(path, flags, mode, *args, **kwargs)
        if flags & os.O_CREAT and (
                not names or any(Path(path).name.startswith(name + ".") for name in names)):
            staged.append(path)
            if len(staged) == k + 1:
                os.close(fd)
                fd = real(path, os.O_RDONLY)
        return fd

    monkeypatch.setattr(os, "open", open_)
    return staged
