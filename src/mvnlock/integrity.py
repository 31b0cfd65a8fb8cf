"""Validation of a project and its artifact cache against an existing lockfile.

Two independent drift channels are checked. Re-resolution: the module is
resolved again with the lockfile's recorded config, generate assembles its
forest from that tree (``lockfile.assemble``), and ``lockfile.diff``
compares it with the recorded one. That catches silent version, scope,
direct/transitive and parent changes, and bumped, dropped or added plugins.
Checksum recomputation catches artifact tampering. ``diff`` also reports a
recorded environment that differs from the current one, as warnings, never
failures.
"""

from __future__ import annotations

from .errors import in_module
from .lockfile import ERROR, EnvironmentMetadata, Finding, Job, Lockfile, assemble, diff
from .pom import EffectivePom, Gav
from .project import ProjectModule, read_ahead
from .records import Record
from .repo import ChecksumRecord, MavenRepository
from .resolver import ResolvedTree, resolve
from .session import session_of

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
            override_mode: str | None = None,
            environment: EnvironmentMetadata | None = None) -> tuple[list[Finding], list[Check]]:
    """Diff the lockfile against the forest generate assembles from ``tree``.

    The forest is assembled with the lockfile's config, the current
    ``environment`` (probed when None) and no digests, so only ``diff``'s
    findings that need no digest come back, with a check for every entry and
    plugin still at its locked version. Each is read one way: in the
    lockfile's mode unless ``override_mode`` is given, and in remote mode
    from the cache too. An entry is read as the tree node it matched, the
    file generate locked; a plugin as a jar.
    """
    config = lockfile.config
    forest = assemble(module_pom, config, tree, environment=environment)
    mode = override_mode or config.checksum_mode
    modes = (mode, "local") if mode == "remote" else (mode,)
    artifacts = {n.gav: n.artifact for n in tree.flattened}  # a Gav equals its (g, a, v) tuple
    declared = {gav for gav, _ in forest.plugins or ()}
    locked = [(*entry.ga, entry.checksum, artifacts.get((*entry.ga, entry.version)))
              for entry in sorted(lockfile.flattened(), key=lambda e: e.ga)]
    locked += [(*gav.ga, record, (gav, "jar", None) if gav in declared else None)
               for gav, record in lockfile.plugins or ()]
    checks = [(group, artifact, record,
               tuple((m, job, config.checksum_algorithm) for m in modes))
              for group, artifact, record, job in locked if job is not None]
    return diff(lockfile, forest), checks


def validate(modules: list[ProjectModule], lockfiles: list[Lockfile | None],
             repo: MavenRepository, current_environment: EnvironmentMetadata | None = None,
             override_mode: str | None = None, workers: int = 4) -> list[ValidationReport]:
    """Check each module against its lockfile (None skips it), in ``generate_all``'s passes.

    Every lockfile recorded for other coordinates is refused before anything
    is resolved. Pass 1 resolves each module with its recorded config and
    runs ``compare``; pass 2 reads each distinct digest once on a pool of
    ``workers`` threads when some read waits (``project.read_ahead``); pass
    3 verifies them, reading on the calling thread any that pass 2 left. A
    recorded environment is compared with ``current_environment``, probed
    when None. The first failing module, in module order, is raised as
    ``module <path>: ...``.
    """
    session = session_of(repo)
    pairs = list(zip(modules, lockfiles, strict=True))
    for module, lock in pairs:
        with in_module(module.rel_path):
            if lock is not None:
                lock.check_module(module.gav)

    def prepare(pair, pool) -> tuple[tuple | None, list[Read]]:
        module, lock = pair
        if lock is None:
            return None, []
        tree = resolve(module.effective, session, include_test=lock.config.include_test,
                       pool=pool)
        findings, checks = compare(module.effective, lock, tree, override_mode,
                                   current_environment)
        return (tree, findings, checks), [read for *_, reads in checks for read in reads]

    def report(module: ProjectModule, lock: Lockfile | None, outcome) -> ValidationReport:
        with in_module(module.rel_path):
            if isinstance(outcome, Exception):
                raise outcome
            if lock is None:
                return ValidationReport(module.gav, notes=["validation skipped by configuration"])
            tree, findings, checks = outcome
            findings = sorted(findings + verify_checksums(checks, session), key=Finding.sort_key)
            return ValidationReport(module.gav, findings, notes=list(tree.warnings))

    outcomes = read_ahead(pairs, prepare, lambda read: current_digest(session, *read),
                          lambda read: session.repo.read_waits(read[0], *read[1]), workers)
    return [report(module, lock, outcome) for (module, lock), outcome in zip(pairs, outcomes)]
