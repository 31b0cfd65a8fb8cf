"""Lockfile schema (version 1), generation, canonical JSON, and diffing.

The serialized form is canonical: fixed key order, siblings sorted by
(groupId, artifactId), two-space indentation, LF line endings, trailing
newline, UTF-8. Two generations of the same inputs are byte-identical, which
is what makes lockfiles diffable and tamper-evident in version control.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, NamedTuple

from . import __version__
from .errors import (
    ChecksumUnavailableError,
    GenerationError,
    LockfileSchemaError,
    ModuleMismatchError,
    MvnlockError,
    UnsupportedLockfileVersionError,
)
from .pom import EffectivePom, Gav
from .project import Pool, load_project
from .records import Checked, Record
from .repo import ALGORITHMS, ChecksumRecord, MavenRepository
from .resolver import ResolvedNode, ResolvedTree, resolve
from .session import session_of

LOCKFILE_VERSION = 1
DEFAULT_LOCKFILE_NAME = "lockfile.json"


class _ConfigFields(NamedTuple):
    include_plugins: bool = False
    include_environment: bool = False
    checksum_mode: str = "local"  # "local" | "remote"
    checksum_algorithm: str = "sha256"
    include_test: bool = True


class LockfileConfig(Checked, _ConfigFields):
    __slots__ = ()

    def _check(self) -> None:
        if self.checksum_mode not in ("local", "remote"):
            raise LockfileSchemaError(f"unknown checksum mode {self.checksum_mode!r}")
        if self.checksum_algorithm not in ALGORITHMS:
            raise LockfileSchemaError(
                f"unknown checksum algorithm {self.checksum_algorithm!r}"
            )


class _EnvironmentFields(NamedTuple):
    os_name: str
    maven_version: str
    java_version: str
    tool_version: str


class EnvironmentMetadata(Checked, _EnvironmentFields):
    __slots__ = ()

    def _check(self) -> None:
        for name, value in zip(self._fields, self):
            if not value:
                raise LockfileSchemaError(f"environment field {name} must be non-empty")


def probe_environment(os_name: str | None = None, java_version: str | None = None,
                      maven_version: str | None = None) -> EnvironmentMetadata:
    """Current build environment; explicit values and env vars beat probes.

    ``platform`` is imported here, by the commands that record or compare an
    environment, instead of by every command at start-up.
    """
    import platform
    return EnvironmentMetadata(
        os_name=os_name or platform.system(),
        maven_version=maven_version or os.environ.get("MAVEN_VERSION") or "unknown",
        java_version=java_version or os.environ.get("JAVA_VERSION") or "unknown",
        tool_version=__version__,
    )


class LockedDependency(Record):
    __slots__ = ("group_id", "artifact_id", "version", "scope", "checksum",
                 "repository_source", "direct", "children")

    def __init__(self, group_id: str, artifact_id: str, version: str, scope: str,
                 checksum: ChecksumRecord, repository_source: str, direct: bool,
                 children: list[LockedDependency] | None = None):
        self.group_id = group_id
        self.artifact_id = artifact_id
        self.version = version
        self.scope = scope
        self.checksum = checksum
        self.repository_source = repository_source
        self.direct = direct
        self.children = [] if children is None else children

    @property
    def ga(self) -> tuple[str, str]:
        return (self.group_id, self.artifact_id)


class Lockfile(Record):
    __slots__ = ("module", "config", "dependencies", "environment", "plugins",
                 "lockfile_version")

    def __init__(self, module: Gav, config: LockfileConfig,
                 dependencies: list[LockedDependency],
                 environment: EnvironmentMetadata | None = None,
                 plugins: list[tuple[Gav, ChecksumRecord]] | None = None,
                 lockfile_version: int = LOCKFILE_VERSION):
        self.module = module
        self.config = config
        self.dependencies = dependencies
        self.environment = environment
        self.plugins = plugins
        self.lockfile_version = lockfile_version

    def flattened(self) -> list[LockedDependency]:
        """Every entry in the forest, depth-first over the sorted structure."""
        return list(iter_entries(self.dependencies))

    def check_module(self, coordinates: Gav) -> None:
        """Refuse to check or freeze a manifest of other coordinates against this lockfile."""
        if coordinates != self.module:
            raise ModuleMismatchError(f"lockfile is for {self.module}, manifest is {coordinates}")


def iter_entries(entries: list[LockedDependency]) -> Iterator[LockedDependency]:
    for entry in entries:
        yield entry
        yield from iter_entries(entry.children)


# --- generation ---


Job = tuple[Gav, str, str | None]  # (gav, packaging, classifier) of one artifact


def _plugin_gavs(module_pom: EffectivePom, config: LockfileConfig) -> list[Gav]:
    """The build plugins the lockfile locks: none unless plugins are included."""
    if not config.include_plugins:
        return []
    gavs = []
    for plugin in module_pom.plugins:
        if not plugin.version:
            raise GenerationError(
                f"plugin {plugin.group_id}:{plugin.artifact_id} has no version to lock"
            )
        gavs.append(Gav(plugin.group_id, plugin.artifact_id, plugin.version))
    return gavs


def _checksum_jobs(tree: ResolvedTree, plugin_gavs: list[Gav]) -> list[Job]:
    """Every artifact a lockfile records a checksum for: its selected nodes, then plugins."""
    return [n.artifact for n in tree.flattened] + [(gav, "jar", None) for gav in plugin_gavs]


def _fetch_checksum(repo, config: LockfileConfig,
                    job: Job) -> tuple[ChecksumRecord, str] | None:
    """The record and its source, or None when no checksum is published."""
    gav, packaging, classifier = job
    try:
        if config.checksum_mode == "remote":
            return repo.checksum_remote_with_source(
                gav, packaging, config.checksum_algorithm, classifier
            )
        record = repo.checksum_local(gav, packaging, config.checksum_algorithm, classifier)
        return record, repo.source_of(gav, packaging, classifier)
    except ChecksumUnavailableError:
        return None


def _resolve_and_hash(poms: list[EffectivePom], config: LockfileConfig, session,
                      workers: int) -> list[ResolvedTree | Exception]:
    """Passes 1 and 2 of ``generate_all``: each manifest's tree, or what resolving it raised.

    Each distinct artifact of every tree is queued on the pool once; leaving
    the pool joins its threads, so every checksum's outcome is in the session
    when this returns.
    """
    trees: list[ResolvedTree | Exception] = []
    jobs: dict[Job, None] = {}
    with Pool(workers) as pool:
        for pom in poms:
            try:
                tree = resolve(pom, session, include_test=config.include_test, pool=pool)
                jobs.update(dict.fromkeys(_checksum_jobs(tree, _plugin_gavs(pom, config))))
            except Exception as exc:  # raised by pass 3, in module order
                tree = exc
            trees.append(tree)
        for job in jobs:
            pool.submit(lambda job=job: _fetch_checksum(session, config, job))
    return trees


def generate_lockfile(module_pom: EffectivePom, config: LockfileConfig,
                      repo: MavenRepository,
                      environment: EnvironmentMetadata | None = None,
                      max_workers: int = 4, tree: ResolvedTree | None = None) -> Lockfile:
    """Attach a checksum to every selected node of the module's tree.

    Every read goes through one session of ``repo`` (``session_of``). With
    ``tree``, as in pass 3 of ``generate_all``, each checksum is a session
    hit and no pool starts. Without it, the module first runs passes 1 and 2
    on a pool of ``max_workers`` threads. Checksums are then read in job
    order, so the first error in that order is raised; the lockfile does not
    depend on the order in which the threads computed them.
    """
    session = session_of(repo)
    if tree is None:
        (tree,) = _resolve_and_hash([module_pom], config, session, max_workers)
        if isinstance(tree, Exception):
            raise tree
    occurrences = tree.occurrence_scopes()
    plugin_gavs = _plugin_gavs(module_pom, config)
    checksums = {job: _fetch_checksum(session, config, job)
                 for job in _checksum_jobs(tree, plugin_gavs)}
    unavailable = [job[0] for job, outcome in checksums.items() if outcome is None]
    if unavailable:
        raise GenerationError(
            "no published checksum for: " + ", ".join(str(g) for g in unavailable)
        )

    def lock_node(node: ResolvedNode) -> LockedDependency:
        record, source = checksums[node.artifact]
        return LockedDependency(
            group_id=node.gav.group_id,
            artifact_id=node.gav.artifact_id,
            version=node.gav.version,
            scope=tree.recorded_scope(node, occurrences),
            checksum=record,
            repository_source=source,
            direct=node.depth == 1,
            children=sorted(
                (lock_node(c) for c in node.children if c.selected),
                key=lambda entry: entry.ga,
            ),
        )

    forest = sorted(
        (lock_node(n) for n in tree.nodes if n.selected), key=lambda entry: entry.ga
    )

    plugins = None
    if config.include_plugins:
        plugins = sorted(
            ((gav, checksums[(gav, "jar", None)][0]) for gav in plugin_gavs),
            key=lambda item: item[0].ga,
        )

    env = None
    if config.include_environment:
        env = environment or probe_environment()

    return Lockfile(
        module=module_pom.coordinates,
        config=config,
        dependencies=forest,
        environment=env,
        plugins=plugins,
    )


def generate_all(project_root: Path, config: LockfileConfig, repo: MavenRepository,
                 environment: EnvironmentMetadata | None = None,
                 workers: int = 4) -> list[tuple[str, Lockfile]]:
    """One lockfile per module, root included (aggregators lock an empty forest).

    All modules read the repository through one session, so they share a
    single snapshot of it, and one ``Pool`` of ``workers`` threads waits on
    the repository for them. The work runs in three passes, one after another:

    1. resolve every module on the calling thread, in module order, while
       the pool fills the cache with the manifests it lacks;
    2. queue each distinct artifact of all modules on the pool once, to be
       fetched and hashed into the session; leaving the pool waits for all;
    3. assemble each module's lockfile in module order on the calling thread,
       where every checksum is a session hit.

    Results come in module order. The session keeps what a pass 2 call
    raised, and pass 1 keeps its error beside its module; pass 3 raises
    either, so the first failing module in module order is the one reported,
    as a ``GenerationError`` naming it.
    """
    session = session_of(repo)
    modules = load_project(project_root, session)
    trees = _resolve_and_hash([m.effective for m in modules], config, session, workers)
    results = []
    for module, tree in zip(modules, trees):
        try:
            if isinstance(tree, Exception):
                raise tree
            lock = generate_lockfile(module.effective, config, session,
                                     environment=environment, tree=tree)
        except MvnlockError as exc:
            raise GenerationError(f"module {module.rel_path}: {exc}") from exc
        results.append((module.rel_path, lock))
    return results


# --- canonical serialization ---


def _entry_document(entry: LockedDependency) -> dict:
    return {
        "groupId": entry.group_id,
        "artifactId": entry.artifact_id,
        "version": entry.version,
        "scope": entry.scope,
        "checksumAlgorithm": entry.checksum.algorithm,
        "checksum": entry.checksum.digest,
        "checksumMode": entry.checksum.mode,
        "repositorySource": entry.repository_source,
        "direct": entry.direct,
        "children": [_entry_document(child) for child in entry.children],
    }


def to_document(lockfile: Lockfile) -> dict:
    doc = {
        "lockfileVersion": lockfile.lockfile_version,
        "groupId": lockfile.module.group_id,
        "artifactId": lockfile.module.artifact_id,
        "version": lockfile.module.version,
        "config": {
            "includePlugins": lockfile.config.include_plugins,
            "includeEnvironment": lockfile.config.include_environment,
            "checksumMode": lockfile.config.checksum_mode,
            "checksumAlgorithm": lockfile.config.checksum_algorithm,
            "includeTest": lockfile.config.include_test,
        },
    }
    if lockfile.environment is not None:
        doc["environment"] = {
            "osName": lockfile.environment.os_name,
            "mavenVersion": lockfile.environment.maven_version,
            "javaVersion": lockfile.environment.java_version,
            "toolVersion": lockfile.environment.tool_version,
        }
    doc["dependencies"] = [_entry_document(e) for e in lockfile.dependencies]
    if lockfile.plugins is not None:
        doc["plugins"] = [
            {
                "groupId": gav.group_id,
                "artifactId": gav.artifact_id,
                "version": gav.version,
                "checksumAlgorithm": record.algorithm,
                "checksum": record.digest,
            }
            for gav, record in lockfile.plugins
        ]
    return doc


def serialize(lockfile: Lockfile) -> bytes:
    return (json.dumps(to_document(lockfile), indent=2, ensure_ascii=False) + "\n").encode(
        "utf-8"
    )


# --- parsing ---


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise LockfileSchemaError(message)


def _check_keys(obj: dict, required: tuple[str, ...], optional: tuple[str, ...],
                where: str) -> None:
    _expect(isinstance(obj, dict), f"{where} must be an object")
    unknown = set(obj) - set(required) - set(optional)
    _expect(not unknown, f"{where} has unknown keys: {sorted(unknown)}")
    missing = set(required) - set(obj)
    _expect(not missing, f"{where} is missing keys: {sorted(missing)}")


def _parse_entry(obj: dict, depth: int, where: str,
                 seen: dict[tuple[str, str], str]) -> LockedDependency:
    _check_keys(
        obj,
        ("groupId", "artifactId", "version", "scope", "checksumAlgorithm", "checksum",
         "checksumMode", "repositorySource", "direct", "children"),
        (),
        where,
    )
    for key in ("groupId", "artifactId", "version", "scope", "checksumAlgorithm",
                "checksum", "checksumMode", "repositorySource"):
        _expect(isinstance(obj[key], str) and obj[key], f"{where}.{key} must be a non-empty string")
    _expect(isinstance(obj["direct"], bool), f"{where}.direct must be a boolean")
    _expect(obj["direct"] == (depth == 1), f"{where}.direct contradicts its depth")
    _expect(obj["scope"] in ("compile", "provided", "runtime", "test"),
            f"{where}.scope is not a known scope")
    ga = (obj["groupId"], obj["artifactId"])
    _expect(ga not in seen, f"{where}: duplicate entry for {ga[0]}:{ga[1]}")
    seen[ga] = where
    try:
        record = ChecksumRecord(obj["checksumAlgorithm"], obj["checksum"], obj["checksumMode"])
    except Exception as exc:
        raise LockfileSchemaError(f"{where}: {exc}") from exc
    _expect(isinstance(obj["children"], list), f"{where}.children must be an array")
    children = [
        _parse_entry(child, depth + 1, f"{where}.children[{i}]", seen)
        for i, child in enumerate(obj["children"])
    ]
    _expect(
        [c.ga for c in children] == sorted(c.ga for c in children),
        f"{where}.children are not in canonical order",
    )
    return LockedDependency(
        group_id=obj["groupId"],
        artifact_id=obj["artifactId"],
        version=obj["version"],
        scope=obj["scope"],
        checksum=record,
        repository_source=obj["repositorySource"],
        direct=obj["direct"],
        children=children,
    )


def parse_lockfile(data: bytes) -> Lockfile:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LockfileSchemaError(f"not a valid lockfile document: {exc}") from exc
    _check_keys(
        doc,
        ("lockfileVersion", "groupId", "artifactId", "version", "config", "dependencies"),
        ("environment", "plugins"),
        "lockfile",
    )
    version = doc["lockfileVersion"]
    _expect(isinstance(version, int), "lockfile.lockfileVersion must be an integer")
    if version != LOCKFILE_VERSION:
        raise UnsupportedLockfileVersionError(
            f"unsupported lockfileVersion {version} (this tool writes {LOCKFILE_VERSION}, "
            "no migration support)"
        )
    cfg_doc = doc["config"]
    _check_keys(
        cfg_doc,
        ("includePlugins", "includeEnvironment", "checksumMode", "checksumAlgorithm",
         "includeTest"),
        (),
        "lockfile.config",
    )
    for key in ("includePlugins", "includeEnvironment", "includeTest"):
        _expect(isinstance(cfg_doc[key], bool), f"lockfile.config.{key} must be a boolean")
    config = LockfileConfig(
        include_plugins=cfg_doc["includePlugins"],
        include_environment=cfg_doc["includeEnvironment"],
        checksum_mode=cfg_doc["checksumMode"],
        checksum_algorithm=cfg_doc["checksumAlgorithm"],
        include_test=cfg_doc["includeTest"],
    )

    environment = None
    _expect(("environment" in doc) == config.include_environment,
            "environment block must be present iff config.includeEnvironment")
    if "environment" in doc:
        env_doc = doc["environment"]
        _check_keys(env_doc, ("osName", "mavenVersion", "javaVersion", "toolVersion"), (),
                    "lockfile.environment")
        for key in ("osName", "mavenVersion", "javaVersion", "toolVersion"):
            _expect(isinstance(env_doc[key], str) and env_doc[key],
                    f"lockfile.environment.{key} must be a non-empty string")
        environment = EnvironmentMetadata(
            os_name=env_doc["osName"],
            maven_version=env_doc["mavenVersion"],
            java_version=env_doc["javaVersion"],
            tool_version=env_doc["toolVersion"],
        )

    _expect(isinstance(doc["dependencies"], list), "lockfile.dependencies must be an array")
    seen: dict[tuple[str, str], str] = {}
    dependencies = [
        _parse_entry(entry, 1, f"dependencies[{i}]", seen)
        for i, entry in enumerate(doc["dependencies"])
    ]
    _expect(
        [e.ga for e in dependencies] == sorted(e.ga for e in dependencies),
        "lockfile.dependencies are not in canonical order",
    )

    plugins = None
    _expect(("plugins" in doc) == config.include_plugins,
            "plugins block must be present iff config.includePlugins")
    if "plugins" in doc:
        _expect(isinstance(doc["plugins"], list), "lockfile.plugins must be an array")
        plugins = []
        for i, plugin in enumerate(doc["plugins"]):
            where = f"plugins[{i}]"
            _check_keys(plugin, ("groupId", "artifactId", "version", "checksumAlgorithm",
                                 "checksum"), (), where)
            for key in ("groupId", "artifactId", "version", "checksumAlgorithm", "checksum"):
                _expect(isinstance(plugin[key], str) and plugin[key],
                        f"{where}.{key} must be a non-empty string")
            try:
                record = ChecksumRecord(plugin["checksumAlgorithm"], plugin["checksum"],
                                        config.checksum_mode)
            except Exception as exc:
                raise LockfileSchemaError(f"{where}: {exc}") from exc
            plugins.append((Gav(plugin["groupId"], plugin["artifactId"], plugin["version"]),
                            record))
        _expect(
            [g.ga for g, _ in plugins] == sorted(g.ga for g, _ in plugins),
            "lockfile.plugins are not in canonical order",
        )

    for key in ("groupId", "artifactId", "version"):
        _expect(isinstance(doc[key], str) and doc[key],
                f"lockfile.{key} must be a non-empty string")

    return Lockfile(
        module=Gav(doc["groupId"], doc["artifactId"], doc["version"]),
        config=config,
        dependencies=dependencies,
        environment=environment,
        plugins=plugins,
        lockfile_version=version,
    )


# --- diffing ---


class DiffEntry(NamedTuple):
    kind: str  # added | removed | version-changed | checksum-changed | scope-changed
    group_id: str
    artifact_id: str
    before: str | None
    after: str | None


def diff(old: Lockfile, new: Lockfile) -> list[DiffEntry]:
    """Typed change list between two lockfiles of the same module."""
    if old.module.ga != new.module.ga:
        raise ModuleMismatchError(
            f"cannot diff lockfiles of different modules: "
            f"{old.module.group_id}:{old.module.artifact_id} vs "
            f"{new.module.group_id}:{new.module.artifact_id}"
        )
    old_map = {e.ga: e for e in old.flattened()}
    new_map = {e.ga: e for e in new.flattened()}
    changes: list[DiffEntry] = []
    for ga in sorted(set(old_map) | set(new_map)):
        group, artifact = ga
        before, after = old_map.get(ga), new_map.get(ga)
        if before is None:
            changes.append(DiffEntry("added", group, artifact, None, after.version))
        elif after is None:
            changes.append(DiffEntry("removed", group, artifact, before.version, None))
        elif before.version != after.version:
            # a version change subsumes the inevitable checksum change
            changes.append(
                DiffEntry("version-changed", group, artifact, before.version, after.version)
            )
        else:
            if before.checksum.digest != after.checksum.digest:
                changes.append(
                    DiffEntry("checksum-changed", group, artifact,
                              before.checksum.digest, after.checksum.digest)
                )
            if before.scope != after.scope:
                changes.append(
                    DiffEntry("scope-changed", group, artifact, before.scope, after.scope)
                )
    return changes
