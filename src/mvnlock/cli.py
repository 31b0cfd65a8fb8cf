"""Command-line interface: generate, validate, freeze, ci-check.

Exit codes are the CI contract:
  0  success (validation passed / nothing to update)
  1  validation failed with error findings
  2  operational failure (unresolvable dependency, missing file, bad flags)
  3  ci-check regenerated lockfiles that should be committed

A command loads only the modules it runs: ``freezer`` for freeze, and
``integrity`` for validate and for a ci-check that validates. Every command
is a short process, so what it imports is a fixed cost on each run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import MvnlockError, OfflineError, in_module
from .lockfile import (
    DEFAULT_LOCKFILE_NAME,
    EnvironmentMetadata,
    Lockfile,
    LockfileConfig,
    generate_all,
    parse_lockfile,
    probe_environment,
    serialize,
)
from .project import ProjectModule, load_project
from .repo import MavenRepository, RepositoryConfig, write_files
from .session import Session

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_OPERATIONAL = 2
EXIT_UPDATED = 3

DEFAULT_REMOTE = "https://repo.maven.apache.org/maven2"
FROZEN_POM_NAME = "pom.lockfile.xml"


def _worker_count(text: str) -> int:
    """``--workers N``: a whole number of threads, at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvnlock",
        description="Generate, validate, and freeze dependency lockfiles for "
                    "Maven-style projects.",
    )
    parser.add_argument("--version", action="version", version=f"mvnlock {__version__}")
    # the generation flags: set only when given, each under its LockfileConfig field
    generation = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    generation.add_argument("--include-plugins", action="store_true",
                            help="also lock build plugin coordinates and checksums")
    generation.add_argument("--include-environment", action="store_true",
                            help="record build environment metadata in the lockfile")
    generation.add_argument("--checksum-mode", choices=("local", "remote"))
    generation.add_argument("--checksum-algorithm", choices=("sha1", "sha256", "sha512"))
    generation.add_argument("--include-test", action=argparse.BooleanOptionalAction,
                            help="resolve direct test-scope dependencies (default: on)")
    common = argparse.ArgumentParser(add_help=False, parents=[generation])
    common.add_argument("--project", default=".", metavar="PATH",
                        help="project root containing pom.xml (default: .)")
    common.add_argument("--repo-url", action="append", default=[], metavar="URL",
                        help="remote repository base URL, repeatable, first match wins")
    common.add_argument("--local-repo", metavar="PATH",
                        help="local artifact cache root (default: ~/.m2/repository)")
    common.add_argument("--offline", action="store_true",
                        help="never touch remote repositories")
    common.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS")
    common.add_argument("--lockfile-name", default=DEFAULT_LOCKFILE_NAME, metavar="NAME")
    common.add_argument("--skip-module", action="append", default=[], metavar="PATH",
                        help="module path to skip, repeatable ('.' is the root)")
    common.add_argument("--format", choices=("text", "machine"), default="text")
    common.add_argument("--workers", type=_worker_count, default=4, metavar="N",
                        help="threads that run the reads that wait (cache fills, "
                             "network fetches, cached files over 128 KiB) while "
                             "resolution, comparison and small reads run on the main "
                             "thread; never multiplied, and no output depends on it")
    common.add_argument("--env-os", metavar="NAME", help="override probed OS name")
    common.add_argument("--env-java", metavar="VERSION", help="override probed Java version")
    common.add_argument("--env-maven", metavar="VERSION", help="override probed Maven version")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", parents=[common],
                   help="write one lockfile per module")
    p_validate = sub.add_parser("validate", parents=[common],
                                help="check the project and cache against lockfiles")
    p_validate.add_argument("--override-checksum-mode", choices=("local", "remote"),
                            help="verify with this mode instead of the recorded one")
    sub.add_parser("freeze", parents=[common],
                   help=f"write {FROZEN_POM_NAME} per module from its lockfile")
    p_ci = sub.add_parser("ci-check", parents=[common],
                          help="regenerate lockfiles when manifests changed, "
                               "otherwise validate")
    p_ci.add_argument("--changed-file", action="append", default=[], metavar="PATH",
                      help="path changed in this revision, repeatable")
    return parser


def _project(args) -> tuple[Session, list[ProjectModule], set[Path]]:
    """The command's one session and project load, and its ``--skip-module`` paths.

    A skip path that names no module (``./core`` and ``core/`` name ``core``)
    is refused here, before any dependency is resolved or read.
    """
    urls = tuple(args.repo_url) if args.repo_url else (DEFAULT_REMOTE,)
    local = Path(args.local_repo) if args.local_repo else Path.home() / ".m2" / "repository"
    session = Session(MavenRepository(RepositoryConfig(
        local, remote_base_urls=() if args.offline else urls, timeout=args.timeout)))
    modules = load_project(Path(args.project), session)
    known = {Path(module.rel_path) for module in modules}
    unknown = [path for path in args.skip_module if Path(path) not in known]
    if unknown:
        raise MvnlockError(f"--skip-module names no module: {', '.join(unknown)}")
    return session, modules, {Path(path) for path in args.skip_module}


def _given_config(args) -> dict:
    """The generation flags given on the command line, by ``LockfileConfig`` field."""
    return {field: value for field, value in vars(args).items()
            if field in LockfileConfig._fields}


def _environment(args) -> EnvironmentMetadata:
    return probe_environment(os_name=args.env_os, java_version=args.env_java,
                             maven_version=args.env_maven)


def _emit(args, text_lines: list[str], machine_doc: dict) -> None:
    if args.format == "machine":
        print(json.dumps(machine_doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _generate(args) -> list[tuple[str, Lockfile, list[str], Path, bytes]]:
    """Every module's lockfile, resolution notes, target path and bytes, in module order."""
    session, modules, _ = _project(args)  # generate locks every module
    config = LockfileConfig(**_given_config(args))
    environment = _environment(args) if config.include_environment else None
    results = generate_all(modules, config, session, environment, args.workers)
    return [(rel, lock, notes, Path(args.project) / rel / args.lockfile_name, serialize(lock))
            for rel, lock, notes in results]


def cmd_generate(args) -> int:
    generated = _generate(args)
    write_files([(target, payload) for *_, target, payload in generated])
    lines, docs = [], []
    for rel, lock, notes, target, _ in generated:
        total = len(lock.flattened())
        lines.append(f"generated {rel}/{args.lockfile_name} "
                     f"({total} dependencies, {len(lock.dependencies)} direct)")
        lines.extend(f"  note: {note}" for note in notes)
        docs.append({"module": rel, "path": str(target), "gav": str(lock.module),
                     "dependencies": total, "notes": list(notes)})
    _emit(args, lines, {"command": "generate", "modules": docs})
    return EXIT_OK


def _lockfile(args, module: ProjectModule, skipped: set[Path]) -> Lockfile | None:
    """The module's parsed lockfile, or None for a ``--skip-module`` path."""
    if Path(module.rel_path) in skipped:
        return None
    lock_path = module.directory / args.lockfile_name
    if not lock_path.is_file():
        raise MvnlockError(f"missing {args.lockfile_name}")
    try:
        lock = parse_lockfile(lock_path.read_bytes())
    except MvnlockError as exc:
        raise type(exc)(f"{lock_path}: {exc}") from exc
    # what is checked or frozen is the recorded config, so no flag may contradict it
    for field, value in _given_config(args).items():
        recorded = getattr(lock.config, field)
        if value != recorded:
            flag = "--" + ("no-" if value is False else "") + field.replace("_", "-")
            given = flag if isinstance(value, bool) else f"{flag} {value}"
            advice = (f"; to verify in mode {value!r}, pass --override-checksum-mode {value} "
                      "to validate" if field == "checksum_mode" else "")
            raise MvnlockError(f"{given} contradicts {lock_path}, which records "
                               f"{field} {recorded!r}{advice}")
    return lock


def cmd_validate(args) -> int:
    """Read and check every module's lockfile, then validate them all in one call.

    So a missing, malformed or contradicted lockfile, in any module, is
    refused before anything is resolved or fetched.
    """
    from .integrity import validate
    override = getattr(args, "override_checksum_mode", None)
    session, modules, skipped = _project(args)
    lockfiles = []
    for module in modules:
        with in_module(module.rel_path):
            lock = _lockfile(args, module, skipped)
            if (lock is not None and args.offline
                    and (override or lock.config.checksum_mode) == "remote"
                    and (lock.dependencies or lock.plugins)):
                raise OfflineError(
                    f"{module.directory / args.lockfile_name} records checksum mode "
                    "'remote', which needs remote access; to check it offline against "
                    "the local cache, pass --override-checksum-mode local to validate")
        lockfiles.append(lock)
    # only a recorded environment block is compared, so only then is one probed
    recorded = any(lock is not None and lock.environment is not None for lock in lockfiles)
    reports = validate(modules, lockfiles, session, _environment(args) if recorded else None,
                       override, args.workers)
    lines, docs = [], []
    for module, report in zip(modules, reports):
        status = "ok" if report.passed else "FAILED"
        lines.append(f"module {module.rel_path} ({module.gav}): {status}")
        for note in report.notes:
            lines.append(f"  note: {note}")
        for finding in report.findings:
            lines.append(
                f"  [{finding.severity}] {finding.kind} "
                f"{finding.group_id}:{finding.artifact_id}: "
                f"expected {finding.expected!r}, actual {finding.actual!r}"
            )
        docs.append({**report.to_document(), "modulePath": module.rel_path})
    _emit(args, lines, {"command": "validate", "reports": docs})
    return EXIT_OK if all(doc["passed"] for doc in docs) else EXIT_VALIDATION_FAILED


def cmd_freeze(args) -> int:
    from .freezer import emit_frozen_xml, freeze

    _, modules, skipped = _project(args)
    lines, docs, files = [], [], []
    for module in modules:
        with in_module(module.rel_path):
            lock = _lockfile(args, module, skipped)
            if lock is None:
                lines.append(f"skipped {module.rel_path}")
                continue
            frozen = freeze(module.effective, lock)
            payload = emit_frozen_xml(frozen).encode("utf-8")
        target = module.directory / FROZEN_POM_NAME
        files.append((target, payload))
        pinned = len(frozen.managed_pins)
        lines.append(f"wrote {module.rel_path}/{FROZEN_POM_NAME} ({pinned} pinned)")
        docs.append({"module": module.rel_path, "path": str(target), "pinned": pinned})
    write_files(files)
    _emit(args, lines, {"command": "freeze", "modules": docs})
    return EXIT_OK


def cmd_ci_check(args) -> int:
    manifest_names = {"pom.xml", args.lockfile_name}
    touched = any(Path(path).name in manifest_names for path in args.changed_file)
    if not touched:
        return cmd_validate(args)

    updated = [(rel, target, payload) for rel, _, _, target, payload in _generate(args)
               if not target.is_file() or target.read_bytes() != payload]
    if not updated:
        _emit(args, ["lockfiles up to date"],
              {"command": "ci-check", "action": "unchanged", "updated": []})
        return EXIT_OK
    write_files([(target, payload) for _, target, payload in updated])
    lines = [f"regenerated {rel}/{args.lockfile_name}" for rel, _, _ in updated]
    lines.append(f"{len(updated)} lockfile(s) rewritten; commit them")
    _emit(args, lines, {
        "command": "ci-check",
        "action": "regenerated",
        "updated": [rel for rel, _, _ in updated],
    })
    return EXIT_UPDATED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "validate": cmd_validate,
        "freeze": cmd_freeze,
        "ci-check": cmd_ci_check,
    }
    try:
        return handlers[args.command](args)
    except MvnlockError as exc:
        print(f"mvnlock: error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL
    except Exception as exc:  # keep the exit-code contract total
        print(f"mvnlock: unexpected error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL


if __name__ == "__main__":
    sys.exit(main())
