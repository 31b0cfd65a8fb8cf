"""Validation of a project and its artifact cache against an existing lockfile.

Two independent drift channels are checked: re-resolution (catches silent
version and scope changes) and checksum recomputation (catches artifact
tampering).
Environment differences are reported as warnings, never failures.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import MvnlockError
from .lockfile import EnvironmentMetadata, Job, Lockfile, LockedDependency, probe_environment
from .pom import EffectivePom, Gav
from .records import Checked, Record
from .repo import ChecksumRecord, MavenRepository
from .resolver import ResolvedTree, resolve

ERROR = "error"
WARNING = "warning"

_KINDS = (
    "version-mismatch",
    "scope-mismatch",
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


def _recheck(artifact: Job, record: ChecksumRecord, mode: str, repo: MavenRepository,
             findings: list[Finding]) -> str:
    """The artifact's digest now, fetched or hashed per ``mode``; a mismatch is a finding."""
    actual = current_digest(repo, mode, artifact, record.algorithm)
    if actual != record.digest:
        gav = artifact[0]
        findings.append(Finding("checksum-mismatch", gav.group_id, gav.artifact_id,
                                record.digest, actual))
    return actual


def verify_checksums(entries: list[LockedDependency], repo: MavenRepository,
                     override_mode: str | None = None,
                     artifacts: dict[tuple[str, str], Job] | None = None) -> list[Finding]:
    """Recompute or refetch each entry's digest per its recorded mode.

    ``artifacts`` maps an entry's g:a to the artifact of the tree node it
    matched, with that node's type and classifier; an entry not in it is
    read as a plain jar, the only artifact an entry names on its own.
    In remote mode the locally cached artifact is hashed as well; a remote
    digest that disagrees with the local one is its own finding, since it
    means repository and cache tell different stories.
    """
    findings: list[Finding] = []
    for entry in entries:
        gav = Gav(entry.group_id, entry.artifact_id, entry.version)
        artifact = (artifacts or {}).get(entry.ga, (gav, "jar", None))
        mode = override_mode or entry.checksum.mode
        actual = _recheck(artifact, entry.checksum, mode, repo, findings)
        if mode == "remote":
            local = current_digest(repo, "local", artifact, entry.checksum.algorithm)
            if local != actual:
                findings.append(Finding("source-mismatch", entry.group_id,
                                        entry.artifact_id, actual, local))
    return findings


def checksum_checks(lockfile: Lockfile, tree: ResolvedTree,
                    override_mode: str | None = None) -> list[tuple[str, Job, str]]:
    """(mode, artifact, algorithm) of every digest ``validate`` reads for this lockfile and tree.

    Reading each one first with ``current_digest``, through the session that
    ``validate`` is given next, makes every read of its own a session hit.
    """
    selected = {n.ga: n for n in tree.flattened}
    checks = []
    for entry in lockfile.flattened():
        node = selected.get(entry.ga)
        if node is None or node.gav.version != entry.version:
            continue  # reported by validate without reading a digest
        mode = override_mode or entry.checksum.mode
        checks.append((mode, node.artifact, entry.checksum.algorithm))
        if mode == "remote":
            checks.append(("local", node.artifact, entry.checksum.algorithm))
    mode = override_mode or lockfile.config.checksum_mode
    checks += [(mode, (gav, "jar", None), record.algorithm)
               for gav, record in lockfile.plugins or ()]
    return checks


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
    as freeze refuses it. Each digest is read by the type and classifier of
    the tree node its entry matched.
    """
    lockfile.check_module(module_pom.coordinates)
    report = ValidationReport(module=lockfile.module)
    if tree is None:
        tree = resolve(module_pom, repo, include_test=lockfile.config.include_test)
    occurrences = tree.occurrence_scopes()
    current = {n.ga: n for n in tree.flattened}
    expected = {e.ga: e for e in lockfile.flattened()}

    matching: list[LockedDependency] = []
    for ga in set(expected) | set(current):
        want, have = expected.get(ga), current.get(ga)
        if want is None:
            report.findings.append(
                Finding("extra-dependency", ga[0], ga[1], None, have.gav.version)
            )
        elif have is None:
            report.findings.append(
                Finding("missing-dependency", ga[0], ga[1], want.version, None)
            )
        elif want.version != have.gav.version:
            report.findings.append(
                Finding("version-mismatch", ga[0], ga[1], want.version, have.gav.version)
            )
        else:
            scope = tree.recorded_scope(have, occurrences)
            if want.scope != scope:
                report.findings.append(
                    Finding("scope-mismatch", ga[0], ga[1], want.scope, scope)
                )
            matching.append(want)

    report.findings.extend(verify_checksums(
        matching, repo, override_mode, {ga: node.artifact for ga, node in current.items()}))

    for gav, record in lockfile.plugins or ():
        _recheck((gav, "jar", None), record,
                 override_mode or lockfile.config.checksum_mode, repo, report.findings)

    if lockfile.environment is not None:
        report.findings.extend(
            check_environment(lockfile.environment,
                              current_environment or probe_environment())
        )

    report.findings.sort(key=Finding.sort_key)
    return report
