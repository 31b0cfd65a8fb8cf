"""Validation of a project and its artifact cache against an existing lockfile.

Two independent drift channels are checked: re-resolution (catches silent
version, scope and direct/transitive changes, and bumped plugins) and
checksum recomputation (catches artifact tampering).
Environment differences are reported as warnings, never failures.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import MvnlockError
from .lockfile import EnvironmentMetadata, Job, Lockfile, _plugin_gavs, probe_environment
from .pom import EffectivePom, Gav
from .records import Checked, Record
from .repo import ChecksumRecord, MavenRepository
from .resolver import ResolvedTree, resolve

ERROR = "error"
WARNING = "warning"

_KINDS = (
    "version-mismatch",
    "scope-mismatch",
    "direct-mismatch",
    "checksum-mismatch",
    "missing-dependency",
    "extra-dependency",
    "environment-drift",
    "source-mismatch",
)


class _FindingFields(NamedTuple):
    kind: str
    group_id: str
    artifact_id: str
    expected: str | None
    actual: str | None


class Finding(Checked, _FindingFields):
    __slots__ = ()

    def _check(self) -> None:
        if self.kind not in _KINDS:
            raise MvnlockError(f"unknown finding kind {self.kind!r}")

    @property
    def severity(self) -> str:
        return WARNING if self.kind == "environment-drift" else ERROR

    def sort_key(self) -> tuple[str, str, str]:
        return (self.kind, self.group_id, self.artifact_id)


class ValidationReport(Record):
    __slots__ = ("module", "findings", "notes")

    def __init__(self, module: Gav, findings: list[Finding] | None = None,
                 notes: list[str] | None = None):
        self.module = module
        self.findings = [] if findings is None else findings
        self.notes = [] if notes is None else notes

    @property
    def passed(self) -> bool:
        return not any(f.severity == ERROR for f in self.findings)

    def to_document(self) -> dict:
        return {
            "groupId": self.module.group_id,
            "artifactId": self.module.artifact_id,
            "version": self.module.version,
            "passed": self.passed,
            "findings": [
                {
                    "kind": f.kind,
                    "groupId": f.group_id,
                    "artifactId": f.artifact_id,
                    "expected": f.expected,
                    "actual": f.actual,
                    "severity": f.severity,
                }
                for f in self.findings
            ],
            "notes": list(self.notes),
        }


def current_digest(repo: MavenRepository, mode: str, artifact: Job, algorithm: str) -> str:
    """The artifact's digest now: its published sidecar in remote mode, else its hash.

    ``artifact`` is ``(gav, packaging, classifier)``, read by type and
    classifier the way generate read it.
    """
    gav, packaging, classifier = artifact
    checksum = repo.checksum_remote if mode == "remote" else repo.checksum_local
    return checksum(gav, packaging, algorithm, classifier).digest


Read = tuple[str, Job, str]  # (mode, artifact, algorithm): the arguments of current_digest
Check = tuple[str, str, ChecksumRecord, tuple[Read, ...]]  # (group, artifact, record, reads)


def verify_checksums(checks: list[Check], repo: MavenRepository) -> list[Finding]:
    """Read each check's digests now; the first must equal the recorded one.

    A second read follows a remote one: the locally cached artifact hashed.
    A remote digest that disagrees with it is its own finding, since it
    means repository and cache tell different stories.
    """
    findings: list[Finding] = []
    for group, artifact, record, reads in checks:
        actual, *local = (current_digest(repo, *read) for read in reads)
        if actual != record.digest:
            findings.append(Finding("checksum-mismatch", group, artifact, record.digest, actual))
        if local and local[0] != actual:
            findings.append(Finding("source-mismatch", group, artifact, actual, local[0]))
    return findings


def _same_versions(locked: dict[tuple[str, str], str], current: dict[tuple[str, str], str],
                   findings: list[Finding]) -> list[tuple[str, str]]:
    """The g:a's locked at the version they have now; every other difference is a finding."""
    same = []
    for ga in locked | current:
        want, have = locked.get(ga), current.get(ga)
        if want is None:
            findings.append(Finding("extra-dependency", *ga, None, have))
        elif have is None:
            findings.append(Finding("missing-dependency", *ga, want, None))
        elif want != have:
            findings.append(Finding("version-mismatch", *ga, want, have))
        else:
            same.append(ga)
    return same


def compare(module_pom: EffectivePom, lockfile: Lockfile, tree: ResolvedTree,
            override_mode: str | None = None) -> tuple[list[Finding], list[Check]]:
    """Match the lockfile against the module's tree and its declared plugins.

    Returns the findings that need no digest, and a check for every entry
    and plugin still at its locked version. An entry is read by the type and
    classifier of the tree node it matched, the file generate locked, per its
    recorded mode unless ``override_mode`` is given; in remote mode the cached
    copy is read as well. A plugin is read as a jar in the lockfile's mode.
    """
    findings: list[Finding] = []
    checks: list[Check] = []
    locked = {e.ga: e for e in lockfile.flattened()}
    selected = {n.ga: n for n in tree.flattened}
    occurrences = tree.occurrence_scopes()
    for ga in _same_versions({ga: e.version for ga, e in locked.items()},
                             {ga: n.gav.version for ga, n in selected.items()}, findings):
        entry, node = locked[ga], selected[ga]
        scope = tree.recorded_scope(node, occurrences)
        if entry.scope != scope:
            findings.append(Finding("scope-mismatch", *ga, entry.scope, scope))
        if entry.direct != (node.depth == 1):
            placement = ("transitive", "direct")
            findings.append(Finding("direct-mismatch", *ga, placement[entry.direct],
                                    placement[node.depth == 1]))
        mode = override_mode or entry.checksum.mode
        reads = ((mode, node.artifact, entry.checksum.algorithm),)
        if mode == "remote":
            reads += (("local", node.artifact, entry.checksum.algorithm),)
        checks.append((*ga, entry.checksum, reads))

    plugins = {gav.ga: (gav, record) for gav, record in lockfile.plugins or ()}
    declared = {gav.ga: gav.version for gav in _plugin_gavs(module_pom, lockfile.config)}
    mode = override_mode or lockfile.config.checksum_mode
    for ga in _same_versions({ga: gav.version for ga, (gav, _) in plugins.items()}, declared,
                             findings):
        gav, record = plugins[ga]
        checks.append((*ga, record, ((mode, (gav, "jar", None), record.algorithm),)))
    return findings, checks


def check_environment(expected: EnvironmentMetadata | None,
                      actual: EnvironmentMetadata) -> list[Finding]:
    """Field-wise comparison; differences are warnings only."""
    if expected is None:
        return []
    findings = []
    pairs = (
        ("osName", expected.os_name, actual.os_name),
        ("mavenVersion", expected.maven_version, actual.maven_version),
        ("javaVersion", expected.java_version, actual.java_version),
        ("toolVersion", expected.tool_version, actual.tool_version),
    )
    for name, want, have in pairs:
        if want != have:
            findings.append(Finding("environment-drift", "environment", name, want, have))
    return findings


def validate(module_pom: EffectivePom, lockfile: Lockfile, repo: MavenRepository,
             current_environment: EnvironmentMetadata | None = None,
             override_mode: str | None = None,
             tree: ResolvedTree | None = None) -> ValidationReport:
    """Re-resolve with the lockfile's recorded settings and compare everything.

    The lockfile's recorded config wins over ambient settings; only the
    explicit ``override_mode`` changes how checksums are verified. ``tree``
    is the module already resolved that way; without it the module is
    resolved first. A lockfile recorded for other coordinates is refused,
    as freeze refuses it. Each warning of the resolution is a note.
    """
    lockfile.check_module(module_pom.coordinates)
    if tree is None:
        tree = resolve(module_pom, repo, include_test=lockfile.config.include_test)
    findings, checks = compare(module_pom, lockfile, tree, override_mode)
    findings += verify_checksums(checks, repo)
    if lockfile.environment is not None:
        findings += check_environment(lockfile.environment,
                                      current_environment or probe_environment())
    findings.sort(key=Finding.sort_key)
    return ValidationReport(lockfile.module, findings, notes=list(tree.warnings))
