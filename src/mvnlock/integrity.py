"""Validation of a project and its artifact cache against an existing lockfile.

Two independent drift channels are checked. Re-resolution: the module is
resolved again with the lockfile's recorded config, generate assembles its
forest from that tree (``lockfile.assemble``), and ``lockfile.diff``
compares it with the recorded one. That catches silent version, scope,
direct/transitive and parent changes, and bumped, dropped or added plugins.
Checksum recomputation catches artifact tampering. Environment differences
are reported as warnings, never failures.
"""

from __future__ import annotations

from .lockfile import (
    _ENVIRONMENT,
    ERROR,
    EnvironmentMetadata,
    Finding,
    Job,
    Lockfile,
    assemble,
    diff,
    probe_environment,
)
from .pom import EffectivePom, Gav
from .records import Record
from .repo import ChecksumRecord, MavenRepository
from .resolver import ResolvedTree, resolve

_FINDING_KEYS = ("kind", "groupId", "artifactId", "expected", "actual")  # a Finding's, as JSON


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
            "findings": [{**dict(zip(_FINDING_KEYS, f)), "severity": f.severity}
                         for f in self.findings],
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


def compare(module_pom: EffectivePom, lockfile: Lockfile, tree: ResolvedTree,
            override_mode: str | None = None) -> tuple[list[Finding], list[Check]]:
    """Diff the lockfile against the forest generate assembles from ``tree``.

    The forest is assembled with the lockfile's recorded config and no
    digests, so only ``diff``'s findings that need no digest come back, with
    a check for every entry and plugin still at its locked version. An entry
    is read by the type and classifier of the tree node it matched, the file
    generate locked, per its recorded mode unless ``override_mode`` is given;
    in remote mode the cached copy is read as well. A plugin is read as a jar
    in the lockfile's mode.
    """
    # the recorded environment, so that assembling probes nothing; diff compares none
    forest = assemble(module_pom, lockfile.config, tree, environment=lockfile.environment)
    selected = {n.gav: n for n in tree.flattened}  # a Gav equals its (g, a, v) tuple
    checks: list[Check] = []
    for entry in sorted(lockfile.flattened(), key=lambda e: e.ga):
        node, record = selected.get((*entry.ga, entry.version)), entry.checksum
        if node is not None:
            mode = override_mode or record.mode
            modes = (mode, "local") if mode == "remote" else (mode,)
            checks.append((*entry.ga, record,
                           tuple((m, node.artifact, record.algorithm) for m in modes)))
    declared = {gav for gav, _ in forest.plugins or ()}
    mode = override_mode or lockfile.config.checksum_mode
    checks += [(*gav.ga, record, ((mode, (gav, "jar", None), record.algorithm),))
               for gav, record in lockfile.plugins or () if gav in declared]
    return diff(lockfile, forest), checks


def check_environment(expected: EnvironmentMetadata | None,
                      actual: EnvironmentMetadata) -> list[Finding]:
    """Field-wise comparison; differences are warnings only."""
    if expected is None:
        return []
    return [Finding("environment-drift", "environment", name, want, have)
            for name, key in _ENVIRONMENT.items()
            if (want := getattr(expected, key.attr)) != (have := getattr(actual, key.attr))]


def match(module_pom: EffectivePom, lockfile: Lockfile, repo: MavenRepository,
          override_mode: str | None = None, pool=None) -> tuple[tuple, list[Read]]:
    """Pass 1 of validate: refuse other coordinates, as freeze does, then resolve and compare.

    The module is resolved with the lockfile's recorded settings, handing
    ``pool`` the manifests the cache lacks. Returns ``(tree, findings,
    checks)``, which ``validate`` takes as ``matched``, and their digest reads.
    """
    lockfile.check_module(module_pom.coordinates)
    tree = resolve(module_pom, repo, include_test=lockfile.config.include_test, pool=pool)
    findings, checks = compare(module_pom, lockfile, tree, override_mode)
    return (tree, findings, checks), [read for *_, reads in checks for read in reads]


def validate(module_pom: EffectivePom, lockfile: Lockfile, repo: MavenRepository,
             current_environment: EnvironmentMetadata | None = None,
             override_mode: str | None = None,
             matched: tuple | None = None) -> ValidationReport:
    """Re-resolve with the lockfile's recorded settings and compare everything.

    The lockfile's recorded config wins over ambient settings; only the
    explicit ``override_mode`` changes how checksums are verified. ``matched``
    is ``match``'s result for this module and mode, or None to run ``match``
    here. Each check's digests are then read, and a recorded environment is
    compared. Each warning of the resolution is a note.
    """
    if matched is None:
        matched = match(module_pom, lockfile, repo, override_mode)[0]
    tree, findings, checks = matched
    findings = findings + verify_checksums(checks, repo)
    if lockfile.environment is not None:
        findings += check_environment(lockfile.environment,
                                      current_environment or probe_environment())
    findings.sort(key=Finding.sort_key)
    return ValidationReport(lockfile.module, findings, notes=list(tree.warnings))
