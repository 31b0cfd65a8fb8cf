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
from .project import load_project, read_ahead
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
    """Passes 1 and 2 of ``generate_all``: resolve each manifest, then hash its artifacts."""
    def prepare(pom: EffectivePom, pool) -> tuple[ResolvedTree, list[Job]]:
        tree = resolve(pom, session, include_test=config.include_test, pool=pool)
        return tree, _checksum_jobs(tree, _plugin_gavs(pom, config))

    return read_ahead(poms, prepare, lambda job: _fetch_checksum(session, config, job), workers)


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
    single snapshot of it. Passes 1 and 2 (``project.read_ahead``) resolve
    every module on the calling thread, in module order, while one ``Pool``
    of ``workers`` threads fetches the manifests the cache lacks, then fetch
    and hash each distinct artifact of all modules once on that pool. Pass 3
    assembles each lockfile in module order on the calling thread, where
    every checksum is a session hit.

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


# --- the format ---


class _Key(NamedTuple):
    attr: str
    kind: type  # bool, int, str (non-empty), list or dict
    part: int = 0  # which part of the block holds ``attr``
    optional: bool = False


# One table per block: each JSON key in written order, mapped to the attribute
# that holds its value. A block is written from, and read into, up to two parts:
# part 0 holds its coordinates, part 1 an entry's or plugin's ``ChecksumRecord``
# or, at the top level, the ``Lockfile`` (whose module ``Gav`` is part 0).
_GAV = {"groupId": _Key("group_id", str), "artifactId": _Key("artifact_id", str),
        "version": _Key("version", str)}
_CHECKSUM = {"checksumAlgorithm": _Key("algorithm", str, 1), "checksum": _Key("digest", str, 1)}
_CONFIG = {"includePlugins": _Key("include_plugins", bool),
           "includeEnvironment": _Key("include_environment", bool),
           "checksumMode": _Key("checksum_mode", str),
           "checksumAlgorithm": _Key("checksum_algorithm", str),
           "includeTest": _Key("include_test", bool)}
_ENVIRONMENT = {"osName": _Key("os_name", str), "mavenVersion": _Key("maven_version", str),
                "javaVersion": _Key("java_version", str), "toolVersion": _Key("tool_version", str)}
_ENTRY = {**_GAV, "scope": _Key("scope", str), **_CHECKSUM,
          "checksumMode": _Key("mode", str, 1),
          "repositorySource": _Key("repository_source", str),
          "direct": _Key("direct", bool), "children": _Key("children", list)}
_PLUGIN = {**_GAV, **_CHECKSUM}
_LOCKFILE = {"lockfileVersion": _Key("lockfile_version", int, 1), **_GAV,
             "config": _Key("config", dict, 1),
             "environment": _Key("environment", dict, 1, optional=True),
             "dependencies": _Key("dependencies", list, 1),
             "plugins": _Key("plugins", list, 1, optional=True)}
_KINDS = {bool: "a boolean", int: "an integer", str: "a non-empty string",
          list: "an array", dict: "an object"}


def _write(table: dict, *parts) -> dict:
    """One block's JSON object, each value read from the part that holds it."""
    doc = {}
    for key, (attr, kind, part, optional) in table.items():
        value = getattr(parts[part], attr)
        if optional and value is None:
            continue  # a block this lockfile does not record
        if kind is list:
            value = [_nested(item) for item in value]
        elif kind is dict:
            value = _nested(value)
        doc[key] = value
    return doc


def _nested(model) -> dict:
    """The JSON object of a config, environment, dependency entry or plugin."""
    if type(model) is LockedDependency:
        return _write(_ENTRY, model, model.checksum)
    if type(model) is tuple:  # a plugin: (Gav, ChecksumRecord)
        return _write(_PLUGIN, *model)
    return _write(_CONFIG if type(model) is LockfileConfig else _ENVIRONMENT, model)


def to_document(lockfile: Lockfile) -> dict:
    return _write(_LOCKFILE, lockfile.module, lockfile)


def serialize(lockfile: Lockfile) -> bytes:
    return (json.dumps(to_document(lockfile), indent=2, ensure_ascii=False) + "\n").encode()


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise LockfileSchemaError(message)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; a repeated key is refused, as a reader may see another value than we keep."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
        raise LockfileSchemaError(f"lockfile repeats the key {repeated!r} in one object")
    return obj


def _read(obj, table: dict, where: str) -> tuple[dict, dict]:
    """Check one block's keys and the type of each value; its values by attribute, per part."""
    _expect(type(obj) is dict, f"{where} must be an object")
    unknown = obj.keys() - table.keys()
    _expect(not unknown, f"{where} has unknown keys: {sorted(unknown)}")
    missing = [key for key in table.keys() - obj.keys() if not table[key].optional]
    _expect(not missing, f"{where} is missing keys: {sorted(missing)}")
    parts = ({}, {})
    for key, (attr, kind, part, _) in table.items():
        if key in obj:
            value = obj[key]
            if type(value) is not kind or (kind is str and not value):
                raise LockfileSchemaError(f"{where}.{key} must be {_KINDS[kind]}")
            parts[part][attr] = value
    return parts


def _checksum(values: dict, where: str) -> ChecksumRecord:
    try:
        return ChecksumRecord(**values)
    except Exception as exc:
        raise LockfileSchemaError(f"{where}: {exc}") from exc


def _expect_sorted(gas: list[tuple[str, str]], where: str) -> None:
    _expect(gas == sorted(gas), f"{where} are not in canonical order")


def _parse_entry(obj, depth: int, where: str, seen: set,
                 config: LockfileConfig) -> LockedDependency:
    values, checksum = _read(obj, _ENTRY, where)
    _expect(values["direct"] == (depth == 1), f"{where}.direct contradicts its depth")
    _expect(values["scope"] in ("compile", "provided", "runtime", "test"),
            f"{where}.scope is not a known scope")
    ga = (values["group_id"], values["artifact_id"])
    _expect(ga not in seen, f"{where}: duplicate entry for {ga[0]}:{ga[1]}")
    seen.add(ga)
    record = values["checksum"] = _checksum(checksum, where)
    for key, recorded, configured in (
            ("checksumMode", record.mode, config.checksum_mode),
            ("checksumAlgorithm", record.algorithm, config.checksum_algorithm)):
        _expect(recorded == configured,
                f"{where}.{key} is {recorded!r}, but config.{key} is {configured!r}")
    children = values["children"] = [
        _parse_entry(child, depth + 1, f"{where}.children[{i}]", seen, config)
        for i, child in enumerate(values["children"])
    ]
    _expect_sorted([c.ga for c in children], f"{where}.children")
    return LockedDependency(**values)


def _parse_plugins(objs: list, mode: str) -> list[tuple[Gav, ChecksumRecord]]:
    plugins, seen = [], set()
    for i, obj in enumerate(objs):
        where = f"plugins[{i}]"
        gav, checksum = _read(obj, _PLUGIN, where)
        ga = (gav["group_id"], gav["artifact_id"])
        _expect(ga not in seen, f"{where}: duplicate plugin {ga[0]}:{ga[1]}")
        seen.add(ga)
        plugins.append((Gav(**gav), _checksum({**checksum, "mode": mode}, where)))
    _expect_sorted([gav.ga for gav, _ in plugins], "lockfile.plugins")
    return plugins


def parse_lockfile(data: bytes) -> Lockfile:
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LockfileSchemaError(f"not a valid lockfile document: {exc}") from exc
    module, top = _read(doc, _LOCKFILE, "lockfile")
    version = top["lockfile_version"]
    if version != LOCKFILE_VERSION:
        raise UnsupportedLockfileVersionError(
            f"unsupported lockfileVersion {version} (this tool writes {LOCKFILE_VERSION}, "
            "no migration support)"
        )
    config = top["config"] = LockfileConfig(**_read(top["config"], _CONFIG, "lockfile.config")[0])
    _expect(("environment" in top) == config.include_environment,
            "environment block must be present iff config.includeEnvironment")
    if "environment" in top:
        top["environment"] = EnvironmentMetadata(
            **_read(top["environment"], _ENVIRONMENT, "lockfile.environment")[0])
    seen: set[tuple[str, str]] = set()
    dependencies = top["dependencies"] = [
        _parse_entry(entry, 1, f"dependencies[{i}]", seen, config)
        for i, entry in enumerate(top["dependencies"])]
    _expect_sorted([e.ga for e in dependencies], "lockfile.dependencies")
    _expect(("plugins" in top) == config.include_plugins,
            "plugins block must be present iff config.includePlugins")
    if "plugins" in top:
        top["plugins"] = _parse_plugins(top["plugins"], config.checksum_mode)
    return Lockfile(Gav(**module), **top)


# --- diffing ---


class DiffEntry(NamedTuple):
    kind: str  # added | removed | version-changed | checksum-changed | scope-changed
    group_id: str
    artifact_id: str
    before: str | None
    after: str | None


def match_versions(old: dict[tuple[str, str], str], new: dict[tuple[str, str], str],
                   kinds: tuple[str, str, str], record: type) -> tuple[list, list]:
    """Pair two g:a -> version maps: their version changes and same-version g:as, in g:a order.

    Each change is ``record(kind, group, artifact, before, after)``, where
    ``kinds`` names, in order, a g:a only ``new`` has, one only ``old`` has,
    and one at another version.
    """
    changes, same = [], []
    for ga in sorted(old.keys() | new.keys()):
        before, after = old.get(ga), new.get(ga)
        if before == after:
            same.append(ga)
        else:
            kind = kinds[0] if before is None else kinds[1] if after is None else kinds[2]
            changes.append(record(kind, *ga, before, after))
    return changes, same


def diff(old: Lockfile, new: Lockfile) -> list[DiffEntry]:
    """Typed change list between two lockfiles of the same module, in g:a order."""
    if old.module.ga != new.module.ga:
        raise ModuleMismatchError(
            f"cannot diff lockfiles of different modules: "
            f"{old.module.group_id}:{old.module.artifact_id} vs "
            f"{new.module.group_id}:{new.module.artifact_id}"
        )
    old_map = {e.ga: e for e in old.flattened()}
    new_map = {e.ga: e for e in new.flattened()}
    # a version change subsumes the inevitable checksum change
    changes, same = match_versions({ga: e.version for ga, e in old_map.items()},
                                   {ga: e.version for ga, e in new_map.items()},
                                   ("added", "removed", "version-changed"), DiffEntry)
    for ga in same:
        before, after = old_map[ga], new_map[ga]
        if before.checksum.digest != after.checksum.digest:
            changes.append(DiffEntry("checksum-changed", *ga,
                                     before.checksum.digest, after.checksum.digest))
        if before.scope != after.scope:
            changes.append(DiffEntry("scope-changed", *ga, before.scope, after.scope))
    # a stable sort: within one g:a, a checksum change stays before a scope change
    return sorted(changes, key=lambda change: (change.group_id, change.artifact_id))
