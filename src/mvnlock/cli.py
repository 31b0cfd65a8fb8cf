"""Command-line interface: generate, validate, freeze, ci-check.

Exit codes are the CI contract:
  0  success (validation passed / nothing to update)
  1  validation failed with error findings
  2  operational failure (unresolvable dependency, missing file, bad flags)
  3  ci-check regenerated lockfiles that should be committed
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import MvnlockError, OfflineError
from .freezer import FROZEN_POM_NAME, emit_frozen_xml, freeze
from .integrity import ValidationReport, validate
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
from .project import ProjectModule, for_each, load_project
from .repo import MavenRepository, RepositoryConfig, write_files
from .session import Session

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_OPERATIONAL = 2
EXIT_UPDATED = 3

DEFAULT_REMOTE = "https://repo.maven.apache.org/maven2"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvnlock",
        description="Generate, validate, and freeze dependency lockfiles for "
                    "Maven-style projects.",
    )
    parser.add_argument("--version", action="version", version=f"mvnlock {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--project", default=".", metavar="PATH",
                        help="project root containing pom.xml (default: .)")
    common.add_argument("--repo-url", action="append", default=[], metavar="URL",
                        help="remote repository base URL, repeatable, first match wins")
    common.add_argument("--local-repo", metavar="PATH",
                        help="local artifact cache root (default: ~/.m2/repository)")
    common.add_argument("--offline", action="store_true",
                        help="never touch remote repositories")
    common.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS")
    common.add_argument("--include-plugins", action="store_true",
                        help="also lock build plugin coordinates and checksums")
    common.add_argument("--include-environment", action="store_true",
                        help="record build environment metadata in the lockfile")
    common.add_argument("--checksum-mode", choices=("local", "remote"), default="local")
    common.add_argument("--checksum-algorithm", choices=("sha1", "sha256", "sha512"),
                        default="sha256")
    common.add_argument("--include-test", action=argparse.BooleanOptionalAction,
                        default=True, help="resolve direct test-scope dependencies")
    common.add_argument("--lockfile-name", default=DEFAULT_LOCKFILE_NAME, metavar="NAME")
    common.add_argument("--skip-module", action="append", default=[], metavar="PATH",
                        help="module path to skip, repeatable ('.' is the root)")
    common.add_argument("--format", choices=("text", "machine"), default="text")
    common.add_argument("--workers", type=int, default=4, metavar="N",
                        help="modules processed in parallel (output stays ordered)")
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


def _repository(args) -> Session:
    """The command's one session: every module reads the same repository snapshot."""
    urls = tuple(args.repo_url) if args.repo_url else (DEFAULT_REMOTE,)
    local = Path(args.local_repo) if args.local_repo else Path.home() / ".m2" / "repository"
    return Session(MavenRepository(RepositoryConfig(
        remote_base_urls=() if args.offline else urls,
        local_repo_root=local,
        offline=args.offline,
        timeout=args.timeout,
    )))


def _lockfile_config(args) -> LockfileConfig:
    return LockfileConfig(
        include_plugins=args.include_plugins,
        include_environment=args.include_environment,
        checksum_mode=args.checksum_mode,
        checksum_algorithm=args.checksum_algorithm,
        include_test=args.include_test,
    )


def _environment(args) -> EnvironmentMetadata:
    return probe_environment(os_name=args.env_os, java_version=args.env_java,
                             maven_version=args.env_maven)


def _emit(args, text_lines: list[str], machine_doc: dict) -> None:
    if args.format == "machine":
        print(json.dumps(machine_doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _generate(args) -> list[tuple[str, Lockfile, Path, bytes]]:
    """Every module's lockfile, its target path and its bytes, in module order."""
    environment = _environment(args) if args.include_environment else None
    results = generate_all(Path(args.project), _lockfile_config(args), _repository(args),
                           environment=environment, workers=args.workers)
    return [(rel, lock, Path(args.project) / rel / args.lockfile_name, serialize(lock))
            for rel, lock in results]


def cmd_generate(args) -> int:
    generated = _generate(args)
    write_files([(target, payload) for _, _, target, payload in generated])
    lines, docs = [], []
    for rel, lock, target, _ in generated:
        total = len(lock.flattened())
        lines.append(f"generated {rel}/{args.lockfile_name} "
                     f"({total} dependencies, {len(lock.dependencies)} direct)")
        docs.append({"module": rel, "path": str(target),
                     "gav": str(lock.module), "dependencies": total})
    _emit(args, lines, {"command": "generate", "modules": docs})
    return EXIT_OK


def _each_locked_module(args, work) -> list[tuple[ProjectModule, object]]:
    """``work(module, lockfile, repo)`` for every module, ``--workers`` at a time.

    Returns (module, result) in module order; the result is None for a
    ``--skip-module`` path. A missing lockfile, or any failure of the work,
    is an error naming the module.
    """
    repo = _repository(args)
    skip = set(args.skip_module)

    def run(module: ProjectModule):
        if module.rel_path in skip:
            return module, None
        lock_path = module.directory / args.lockfile_name
        if not lock_path.is_file():
            raise MvnlockError(f"module {module.rel_path}: missing {args.lockfile_name}")
        try:
            return module, work(module, parse_lockfile(lock_path.read_bytes()), repo)
        except MvnlockError as exc:
            raise MvnlockError(f"module {module.rel_path}: {exc}") from exc

    return for_each(load_project(Path(args.project), repo), run, args.workers)


def cmd_validate(args) -> int:
    environment = _environment(args)
    override = getattr(args, "override_checksum_mode", None)

    def check(module: ProjectModule, lock: Lockfile, repo) -> ValidationReport:
        if (args.offline and (override or lock.config.checksum_mode) == "remote"
                and (lock.dependencies or lock.plugins)):
            raise OfflineError(
                f"{module.directory / args.lockfile_name} records checksum mode 'remote', "
                "which needs remote access; to check it offline against the local "
                "cache, pass --override-checksum-mode local")
        return validate(module.effective, lock, repo,
                        current_environment=environment, override_mode=override)

    lines, docs = [], []
    failed = False
    for module, report in _each_locked_module(args, check):
        if report is None:
            report = ValidationReport(module=module.gav,
                                      notes=["validation skipped by configuration"])
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
        doc = report.to_document()
        doc["modulePath"] = module.rel_path
        docs.append(doc)
        failed = failed or not report.passed
    _emit(args, lines, {"command": "validate", "reports": docs})
    return EXIT_VALIDATION_FAILED if failed else EXIT_OK


def cmd_freeze(args) -> int:
    def frozen_pom(module: ProjectModule, lock: Lockfile, repo) -> tuple[Path, bytes, int]:
        frozen = freeze(module.effective, lock)
        return (module.directory / FROZEN_POM_NAME, emit_frozen_xml(frozen).encode("utf-8"),
                len(frozen.managed_pins))

    results = _each_locked_module(args, frozen_pom)
    write_files([result[:2] for _, result in results if result is not None])
    lines, docs = [], []
    for module, result in results:
        if result is None:
            lines.append(f"skipped {module.rel_path}")
            continue
        target, _, pinned = result
        lines.append(f"wrote {module.rel_path}/{FROZEN_POM_NAME} ({pinned} pinned)")
        docs.append({"module": module.rel_path, "path": str(target), "pinned": pinned})
    _emit(args, lines, {"command": "freeze", "modules": docs})
    return EXIT_OK


def cmd_ci_check(args) -> int:
    manifest_names = {"pom.xml", args.lockfile_name}
    touched = any(Path(path).name in manifest_names for path in args.changed_file)
    if not touched:
        return cmd_validate(args)

    updated = [(rel, target, payload) for rel, _, target, payload in _generate(args)
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
