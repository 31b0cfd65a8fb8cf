"""Lockfile schema (version 1), generation, canonical JSON, and diffing.

The serialized form is canonical: fixed key order, siblings sorted by
(groupId, artifactId), LF line endings, a trailing newline, UTF-8, and the
two-space layout of ``json.dumps(indent=2, ensure_ascii=False)``, which
``serialize`` writes itself (the tests compare it with ``json.dumps``). Two
generations of the same inputs are byte-identical, which is what makes
lockfiles diffable and tamper-evident in version control.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, NamedTuple

from . import __version__
from .errors import (
    ChecksumUnavailableError,
    GenerationError,
    LockfileSchemaError,
    ModuleMismatchError,
    MvnlockError,
    UnsupportedLockfileVersionError,
    in_module,
)
from .pom import RANGE_CHARS, EffectivePom, Gav
from .project import ProjectModule, read_ahead
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


ERROR = "error"
WARNING = "warning"

_FINDING_KINDS = ("version-mismatch", "scope-mismatch", "direct-mismatch", "parent-mismatch",
                  "checksum-mismatch", "missing-dependency", "extra-dependency",
                  "environment-drift", "source-mismatch")


class _FindingFields(NamedTuple):
    kind: str
    group_id: str
    artifact_id: str
    expected: str | None
    actual: str | None


class Finding(Checked, _FindingFields):
    """One difference between what a lockfile records (expected) and what is found (actual)."""

    __slots__ = ()

    def _check(self) -> None:
        if self.kind not in _FINDING_KINDS:
            raise MvnlockError(f"unknown finding kind {self.kind!r}")

    @property
    def severity(self) -> str:
        return WARNING if self.kind == "environment-drift" else ERROR

    def sort_key(self) -> tuple[str, str, str]:
        return (self.kind, self.group_id, self.artifact_id)


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

    return read_ahead(poms, prepare, lambda job: _fetch_checksum(session, config, job),
                      lambda job: session.repo.read_waits(config.checksum_mode, *job), workers)


def generate_lockfile(module_pom: EffectivePom, config: LockfileConfig,
                      repo: MavenRepository,
                      environment: EnvironmentMetadata | None = None,
                      max_workers: int = 4, tree: ResolvedTree | None = None) -> Lockfile:
    """Attach a checksum to every selected node of the module's tree.

    Every read goes through one session of ``repo`` (``session_of``). With
    ``tree``, as in pass 3 of ``generate_all``, each checksum is a session
    hit and no pool starts. Without it, the module first runs passes 1 and 2
    with a pool of ``max_workers`` threads. Checksums are then read in job
    order, so the first error in that order is raised; the lockfile does not
    depend on the order in which the threads computed them.
    """
    session = session_of(repo)
    if tree is None:
        (tree,) = _resolve_and_hash([module_pom], config, session, max_workers)
        if isinstance(tree, Exception):
            raise tree
    checksums = {job: _fetch_checksum(session, config, job)
                 for job in _checksum_jobs(tree, _plugin_gavs(module_pom, config))}
    unavailable = [job[0] for job, outcome in checksums.items() if outcome is None]
    if unavailable:
        raise GenerationError(
            "no published checksum for: " + ", ".join(str(g) for g in unavailable)
        )
    return assemble(module_pom, config, tree, checksums, environment)


def assemble(module_pom: EffectivePom, config: LockfileConfig, tree: ResolvedTree,
             checksums: dict[Job, tuple[ChecksumRecord, str]] | None = None,
             environment: EnvironmentMetadata | None = None) -> Lockfile:
    """The module's lockfile from its resolved tree: the one place that places and scopes entries.

    Each selected node becomes an entry under its tree parent, with the
    scope ``tree.recorded_scope`` gives it, and its record and source from
    ``checksums``. Without ``checksums``, entries and plugins carry none: a
    forest only to compare (``integrity.compare``), never to serialize.
    """
    occurrences = tree.occurrence_scopes()
    forest = sorted(
        (_lock_node(n, tree, occurrences, checksums) for n in tree.nodes if n.selected),
        key=lambda entry: entry.ga,
    )

    plugins = None
    if config.include_plugins:
        plugins = sorted(
            ((gav, None if checksums is None else checksums[(gav, "jar", None)][0])
             for gav in _plugin_gavs(module_pom, config)),
            key=lambda item: item[0].ga,
        )

    env = (environment or probe_environment()) if config.include_environment else None
    return Lockfile(module_pom.coordinates, config, forest, env, plugins)


def _lock_node(node: ResolvedNode, tree: ResolvedTree, occurrences: dict,
               checksums: dict[Job, tuple[ChecksumRecord, str]] | None) -> LockedDependency:
    """The entry of a selected node, its selected children placed under it in g:a order."""
    record, source = (None, None) if checksums is None else checksums[node.artifact]
    return LockedDependency(
        group_id=node.gav.group_id,
        artifact_id=node.gav.artifact_id,
        version=node.gav.version,
        scope=tree.recorded_scope(node, occurrences),
        checksum=record,
        repository_source=source,
        direct=node.depth == 1,
        children=sorted(
            (_lock_node(c, tree, occurrences, checksums) for c in node.children if c.selected),
            key=lambda entry: entry.ga,
        ),
    )


def generate_all(modules: list[ProjectModule], config: LockfileConfig, repo: MavenRepository,
                 environment: EnvironmentMetadata | None = None,
                 workers: int = 4) -> list[tuple[str, Lockfile, list[str]]]:
    """Per module given: its path, its lockfile (an aggregator's is empty), resolution's notes.

    All modules read the repository through one session, the one they were
    loaded with, so they share a single snapshot of it. Passes 1 and 2
    (``project.read_ahead``) resolve every module on the calling thread, in
    module order, while one ``Pool`` of ``workers`` threads fetches the
    manifests the cache lacks, then, if any checksum read waits
    (``MavenRepository.read_waits``), fetch and hash each distinct artifact
    of all modules once on that pool. Pass 3 assembles each lockfile in
    module order on the calling thread, where every checksum pass 2 read is
    a session hit and any other is read there, in job order.

    Results come in module order. The session keeps what a pass 2 call
    raised, and pass 1 keeps its error beside its module; pass 3 raises
    either, so the first failing module in module order is the one reported,
    as a ``GenerationError`` naming it.
    """
    session = session_of(repo)
    trees = _resolve_and_hash([m.effective for m in modules], config, session, workers)
    results = []
    for module, tree in zip(modules, trees):
        with in_module(module.rel_path, GenerationError):
            if isinstance(tree, Exception):
                raise tree
            lock = generate_lockfile(module.effective, config, session,
                                     environment=environment, tree=tree)
        results.append((module.rel_path, lock, tree.warnings))
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
_SCOPES = ("compile", "provided", "runtime", "test")


def _layout(model) -> tuple[dict, tuple]:
    """The table and the parts of a config, environment, dependency entry or plugin."""
    if type(model) is LockedDependency:
        return _ENTRY, (model, model.checksum)
    if type(model) is tuple:  # a plugin: (Gav, ChecksumRecord)
        return _PLUGIN, model
    return (_CONFIG if type(model) is LockfileConfig else _ENVIRONMENT), (model,)


_encode = json.encoder.encode_basestring  # C; what ``ensure_ascii=False`` writes strings with


def _emit(out: list, table: dict, parts: tuple, pad: str) -> None:
    """Append one block's object to ``out``, laid out at ``pad`` as ``json.dumps`` does."""
    inner, opening = pad + "  ", "{"
    for key, (attr, kind, part, optional) in table.items():
        value = getattr(parts[part], attr)
        if optional and value is None:
            continue  # a block this lockfile does not record
        head, opening = f"{opening}\n{inner}{_encode(key)}: ", ","
        if kind is str:  # ``_encode`` refuses any other type
            out.append(head + _encode(value))
        elif kind is dict:
            out.append(head)
            _emit(out, *_layout(value), inner)
        elif kind is list:
            out.append(head + ("[" if value else "[]"))
            for i, item in enumerate(value):
                out.append(f"{',' if i else ''}\n{inner}  ")
                _emit(out, *_layout(item), inner + "  ")
            out.append(f"\n{inner}]" if value else "")
        elif type(value) is kind:  # a boolean or an integer
            out.append(head + (str(value) if kind is int else "true" if value else "false"))
        else:
            raise TypeError(f"{attr} must be {_KINDS[kind]}, not {value!r}")
    out.append(f"\n{pad}}}" if opening == "," else "{}")


def serialize(lockfile: Lockfile) -> bytes:
    out = []
    _emit(out, _LOCKFILE, (lockfile.module, lockfile), "")
    return ("".join(out) + "\n").encode()


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


def _spelled(at) -> str:
    """A place for a message: a string as it is, an entry's indices from the top spelled out."""
    return at if type(at) is str else "dependencies" + ".children".join(f"[{i}]" for i in at)


def _read(obj, table: dict, where) -> tuple[dict, dict]:
    """Check one block's keys and the type of each value; its values by attribute, per part."""
    if type(obj) is not dict or obj.keys() != table.keys():  # else every key check passes
        _expect(type(obj) is dict, f"{_spelled(where)} must be an object")
        unknown = obj.keys() - table.keys()
        _expect(not unknown, f"{_spelled(where)} has unknown keys: {sorted(unknown)}")
        missing = [key for key in table.keys() - obj.keys() if not table[key].optional]
        _expect(not missing, f"{_spelled(where)} is missing keys: {sorted(missing)}")
    parts = ({}, {})
    for key, (attr, kind, part, _) in table.items():
        if key in obj:
            value = obj[key]
            if type(value) is not kind or (kind is str and not value):
                raise LockfileSchemaError(f"{_spelled(where)}.{key} must be {_KINDS[kind]}")
            parts[part][attr] = value
    return parts


def _built(make, where, *args, **values):
    """``make(*args, **values)``, its refusal of a value raised as a schema error at ``where``."""
    try:
        return make(*args, **values)
    except MvnlockError as exc:
        raise LockfileSchemaError(f"{_spelled(where)}: {exc}") from exc


def _checksum(values: dict, where, config: LockfileConfig) -> ChecksumRecord:
    """The record, refused unless in ``config``'s mode and algorithm; a plugin takes its mode."""
    record = _built(ChecksumRecord, where, values["algorithm"], values["digest"],
                    values.get("mode", config.checksum_mode))
    if record.mode != config.checksum_mode:
        raise LockfileSchemaError(f"{_spelled(where)}.checksumMode is {record.mode!r}, "
                                  f"but config.checksumMode is {config.checksum_mode!r}")
    if record.algorithm != config.checksum_algorithm:
        raise LockfileSchemaError(f"{_spelled(where)}.checksumAlgorithm is {record.algorithm!r}, "
                                  f"but config.checksumAlgorithm is {config.checksum_algorithm!r}")
    return record


def _expect_sorted(gas: list[tuple[str, str]], where, what: str) -> None:
    if gas != sorted(gas):
        raise LockfileSchemaError(f"{_spelled(where)}.{what} are not in canonical order")


def _parse_entry(obj, where: tuple, seen: set, config: LockfileConfig) -> LockedDependency:
    values, checksum = _read(obj, _ENTRY, where)
    ga = (values["group_id"], values["artifact_id"])
    if values["direct"] is not (len(where) == 1) or values["scope"] not in _SCOPES or ga in seen:
        place = _spelled(where)
        _expect(values["direct"] == (len(where) == 1), f"{place}.direct contradicts its depth")
        _expect(values["scope"] in _SCOPES, f"{place}.scope is not a known scope")
        raise LockfileSchemaError(f"{place}: duplicate entry for {ga[0]}:{ga[1]}")
    seen.add(ga)
    # ``_read`` found three non-empty strings, so of a Gav's checks only the
    # range one is left; only a version that fails it builds a Gav, to be refused
    if not RANGE_CHARS.isdisjoint(values["version"]):
        _built(Gav, where, group_id=ga[0], artifact_id=ga[1], version=values["version"])
    values["checksum"] = _checksum(checksum, where, config)
    if values["children"]:  # most entries have none
        children = values["children"] = [_parse_entry(child, (*where, i), seen, config)
                                         for i, child in enumerate(values["children"])]
        _expect_sorted([c.ga for c in children], where, "children")
    return LockedDependency(**values)


def _parse_plugins(objs: list, config: LockfileConfig) -> list[tuple[Gav, ChecksumRecord]]:
    plugins, seen = [], set()
    for i, obj in enumerate(objs):
        where = f"plugins[{i}]"
        gav, checksum = _read(obj, _PLUGIN, where)
        ga = (gav["group_id"], gav["artifact_id"])
        _expect(ga not in seen, f"{where}: duplicate plugin {ga[0]}:{ga[1]}")
        seen.add(ga)
        plugins.append((_built(Gav, where, **gav), _checksum(checksum, where, config)))
    _expect_sorted([gav.ga for gav, _ in plugins], "lockfile", "plugins")
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
        _parse_entry(entry, (i,), seen, config)
        for i, entry in enumerate(top["dependencies"])]
    _expect_sorted([e.ga for e in dependencies], "lockfile", "dependencies")
    _expect(("plugins" in top) == config.include_plugins,
            "plugins block must be present iff config.includePlugins")
    if "plugins" in top:
        top["plugins"] = _parse_plugins(top["plugins"], config)
    return Lockfile(_built(Gav, "lockfile", **module), **top)


# --- diffing ---


def _facts(lockfile: Lockfile) -> tuple[dict, dict]:
    """Its entries and its plugins, by g:a: ``(version, digest, scope, placement)``.

    An entry's placement is ``"direct"`` or its parent's g:a. A plugin has
    neither scope nor placement, and an unrecorded digest is None.
    """
    entries: dict = {}
    _entry_facts(entries, lockfile.dependencies, None)
    plugins = {gav.ga: (gav.version, record and record.digest, None, None)
               for gav, record in lockfile.plugins or ()}
    return entries, plugins


def _entry_facts(entries: dict, children: list[LockedDependency], parent: str | None) -> None:
    """Add ``children`` and all below them to ``entries``; ``parent`` is their parent's g:a."""
    for e in children:
        entries[e.ga] = (e.version, e.checksum and e.checksum.digest, e.scope,
                         "direct" if e.direct else parent)
        _entry_facts(entries, e.children, f"{e.group_id}:{e.artifact_id}")


def diff(old: Lockfile, new: Lockfile) -> list[Finding]:
    """What changed from ``old`` (expected) to ``new`` (actual), in g:a order.

    Entries and plugins are matched by g:a alike: one only ``new`` has is an
    ``extra-dependency``, one only ``old`` has a ``missing-dependency``, and
    one at another version a ``version-mismatch``, which subsumes the rest.
    A g:a at one version is then compared by its digest, where both sides
    record one, then by scope, then by placement: a ``direct-mismatch`` when
    it is direct on one side only, else a ``parent-mismatch``. Within one
    g:a, changes come in that order, an entry's before a plugin's. Each field
    of two recorded environments that differs is an ``environment-drift``.
    """
    if old.module.ga != new.module.ga:
        raise ModuleMismatchError("cannot diff lockfiles of different modules: "
                                  f"{':'.join(old.module.ga)} vs {':'.join(new.module.ga)}")
    changes = []
    for was, now in zip(_facts(old), _facts(new)):
        for ga in sorted(was.keys() | now.keys()):
            version, digest, scope, placement = zip(was.get(ga, (None,) * 4),
                                                    now.get(ga, (None,) * 4))
            if version[0] != version[1]:
                kind = ("extra-dependency" if version[0] is None else
                        "missing-dependency" if version[1] is None else "version-mismatch")
                changes.append(Finding(kind, *ga, *version))
                continue
            if None not in digest and digest[0] != digest[1]:
                changes.append(Finding("checksum-mismatch", *ga, *digest))
            if scope[0] != scope[1]:
                changes.append(Finding("scope-mismatch", *ga, *scope))
            if "direct" in placement and placement[0] != placement[1]:
                changes.append(Finding("direct-mismatch", *ga, *(
                    "direct" if p == "direct" else "transitive" for p in placement)))
            elif placement[0] != placement[1]:
                changes.append(Finding("parent-mismatch", *ga, *placement))
    if old.environment is not None and new.environment is not None:
        for key, (attr, *_) in _ENVIRONMENT.items():
            was, now = getattr(old.environment, attr), getattr(new.environment, attr)
            if was != now:
                changes.append(Finding("environment-drift", "environment", key, was, now))
    # a stable sort keeps each g:a's changes in the order they were found
    return sorted(changes, key=lambda change: (change.group_id, change.artifact_id))
