"""Validation of a project and its artifact cache against an existing lockfile.

Two independent drift channels are checked: re-resolution (catches silent
version and scope changes) and checksum recomputation (catches artifact
tampering).
Environment differences are reported as warnings, never failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MvnlockError
from .lockfile import EnvironmentMetadata, Lockfile, LockedDependency, probe_environment
from .pom import EffectivePom, Gav
from .repo import ChecksumRecord, MavenRepository
from .resolver import resolve

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


@dataclass(frozen=True)
class Finding:
    kind: str
    group_id: str
    artifact_id: str
    expected: str | None
    actual: str | None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise MvnlockError(f"unknown finding kind {self.kind!r}")

    @property
    def severity(self) -> str:
        return WARNING if self.kind == "environment-drift" else ERROR

    def sort_key(self) -> tuple[str, str, str]:
        return (self.kind, self.group_id, self.artifact_id)


@dataclass
class ValidationReport:
    module: Gav
    findings: list[Finding] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

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


def _recheck(gav: Gav, record: ChecksumRecord, mode: str, repo: MavenRepository,
             findings: list[Finding]) -> str:
    """The artifact's digest now, fetched or hashed per ``mode``; a mismatch is a finding."""
    if mode == "remote":
        actual = repo.checksum_remote(gav, "jar", record.algorithm).digest
    else:
        actual = repo.checksum_local(gav, "jar", record.algorithm).digest
    if actual != record.digest:
        findings.append(Finding("checksum-mismatch", gav.group_id, gav.artifact_id,
                                record.digest, actual))
    return actual


def verify_checksums(entries: list[LockedDependency], repo: MavenRepository,
                     override_mode: str | None = None) -> list[Finding]:
    """Recompute or refetch each entry's digest per its recorded mode.

    In remote mode the locally cached artifact is hashed as well; a remote
    digest that disagrees with the local one is its own finding, since it
    means repository and cache tell different stories.
    """
    findings: list[Finding] = []
    for entry in entries:
        gav = Gav(entry.group_id, entry.artifact_id, entry.version)
        mode = override_mode or entry.checksum.mode
        actual = _recheck(gav, entry.checksum, mode, repo, findings)
        if mode == "remote":
            local = repo.checksum_local(gav, "jar", entry.checksum.algorithm)
            if local.digest != actual:
                findings.append(Finding("source-mismatch", entry.group_id,
                                        entry.artifact_id, actual, local.digest))
    return findings


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
             override_mode: str | None = None) -> ValidationReport:
    """Re-resolve with the lockfile's recorded settings and compare everything.

    The lockfile's recorded config wins over ambient settings; only the
    explicit ``override_mode`` changes how checksums are verified.
    """
    report = ValidationReport(module=lockfile.module)
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

    report.findings.extend(verify_checksums(matching, repo, override_mode))

    for gav, record in lockfile.plugins or ():
        _recheck(gav, record, override_mode or lockfile.config.checksum_mode, repo,
                 report.findings)

    if lockfile.environment is not None:
        report.findings.extend(
            check_environment(lockfile.environment,
                              current_environment or probe_environment())
        )

    report.findings.sort(key=Finding.sort_key)
    return report
