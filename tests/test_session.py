"""Run sessions: one repository snapshot per command, each key fetched once."""

import inspect
import json
import sys
import threading
import time
from collections import Counter

import pytest

from conftest import FIXTURE_BUILDERS, RepoBuilder, dep_xml, pom_xml
from mvnlock.cli import main
from mvnlock.errors import NotFoundError
from mvnlock.lockfile import LockfileConfig, generate_all, generate_lockfile, serialize
from mvnlock.pom import Gav
from mvnlock.project import load_project
from mvnlock.repo import MavenRepository
from mvnlock.session import Session

REPO_METHODS = ("list_versions", "fetch_pom", "source_of", "checksum_local",
                "checksum_remote", "checksum_remote_with_source")


def build_shared(tmp_path):
    """Two modules whose ranges meet on org.s:shared, one directly and one through lib."""
    remote = RepoBuilder(tmp_path / "remote")
    remote.add("org.s", "leaf", "1.0")
    for version in ("1.0", "1.5"):
        remote.add("org.s", "shared", version,
                   deps=(dep_xml("org.s", "leaf", "[1.0,2.0)"),))
    remote.add("org.s", "lib", "1.0", deps=(dep_xml("org.s", "shared", "[1.0,2.0)"),))
    project = tmp_path / "project"
    for module in ("a", "b"):
        (project / module).mkdir(parents=True)
    (project / "pom.xml").write_text(pom_xml(
        "com.s", "parent", "1.0", packaging="pom", modules=("a", "b")), encoding="utf-8")
    (project / "a" / "pom.xml").write_text(pom_xml(
        None, "a", None, parent=("com.s", "parent", "1.0"),
        deps=(dep_xml("org.s", "shared", "[1.0,2.0)"),)), encoding="utf-8")
    (project / "b" / "pom.xml").write_text(pom_xml(
        None, "b", None, parent=("com.s", "parent", "1.0"),
        deps=(dep_xml("org.s", "lib", "1.0"), dep_xml("org.s", "shared", "[1.0,2.0)"))),
        encoding="utf-8")
    return remote, project


def run_cli(remote, project, cache, *argv):
    return main([argv[0], "--project", str(project), "--repo-url", remote.url,
                 "--local-repo", str(cache), *argv[1:]])


def locked_versions(project, module):
    doc = json.loads((project / module / "lockfile.json").read_text())
    found = {}

    def walk(entries):
        for e in entries:
            found[(e["groupId"], e["artifactId"])] = e["version"]
            walk(e["children"])

    walk(doc["dependencies"])
    return found


@pytest.mark.parametrize("workers", ["1", "4"])
def test_publish_during_run_does_not_split_modules(tmp_path, monkeypatch, workers):
    remote, project = build_shared(tmp_path)
    original = MavenRepository.list_versions
    published = []

    def publishing(self, group_id, artifact_id):
        listed = original(self, group_id, artifact_id)
        if (group_id, artifact_id) == ("org.s", "shared") and not published:
            remote.add("org.s", "shared", "1.9")
            published.append("1.9")
        return listed

    monkeypatch.setattr(MavenRepository, "list_versions", publishing)
    assert run_cli(remote, project, tmp_path / "cache", "generate",
                   "--workers", workers) == 0
    assert published
    a = locked_versions(project, "a")[("org.s", "shared")]
    b = locked_versions(project, "b")[("org.s", "shared")]
    assert a == b == "1.5"


class SlowRepo:
    """Answers after a pause, counting calls, optionally failing."""

    def __init__(self, fail=False):
        self.fail = fail
        self.calls = 0
        self._lock = threading.Lock()

    def list_versions(self, group_id, artifact_id):
        with self._lock:
            self.calls += 1
        time.sleep(0.05)
        if self.fail:
            raise NotFoundError(f"no versions of {group_id}:{artifact_id}")
        return ["1.0", "2.0"]


@pytest.mark.parametrize("fail", [False, True])
def test_single_flight_under_contention(fail):
    inner = SlowRepo(fail=fail)
    session = Session(inner)
    threads_n = 16
    barrier = threading.Barrier(threads_n)
    outcomes = []
    outcomes_lock = threading.Lock()

    def ask():
        barrier.wait(timeout=10)
        try:
            result = session.list_versions("org.x", "y")
        except NotFoundError as exc:
            result = exc
        with outcomes_lock:
            outcomes.append(result)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert inner.calls == 1
    assert len(outcomes) == threads_n
    if fail:
        assert all(isinstance(o, NotFoundError) and "org.x:y" in str(o) for o in outcomes)
    else:
        assert all(o == ["1.0", "2.0"] for o in outcomes)


def count_repository_calls(monkeypatch) -> Counter:
    """Count MavenRepository calls per method and normalized arguments."""
    counts: Counter = Counter()
    for name in REPO_METHODS:
        original = getattr(MavenRepository, name)
        signature = inspect.signature(original)

        def counted(*args, _original=original, _signature=signature, _name=name, **kwargs):
            bound = _signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counts[(_name,) + tuple(bound.arguments.values())[1:]] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(MavenRepository, name, counted)
    return counts


@pytest.mark.parametrize("command", [
    ("generate",),
    ("generate", "--checksum-mode", "remote"),
    ("validate",),
    ("validate", "--offline"),
    ("ci-check", "--changed-file", "a/pom.xml"),
])
def test_each_key_read_once_per_command(tmp_path, monkeypatch, command):
    remote, project = build_shared(tmp_path)
    cache = tmp_path / "cache"
    mode = ("--checksum-mode", "remote") if "remote" in command else ()
    assert run_cli(remote, project, cache, "generate", *mode) == 0
    if command[0] == "ci-check":
        (project / "b" / "lockfile.json").unlink()
    counts = count_repository_calls(monkeypatch)
    assert run_cli(remote, project, cache, *command, "--workers", "4") in (0, 3)
    assert counts[("list_versions", "org.s", "shared")] == 1
    assert counts[("fetch_pom", Gav("org.s", "shared", "1.5"))] == 1
    repeated = {key: n for key, n in counts.items() if n > 1}
    assert not repeated


@pytest.mark.parametrize("command", [("generate",), ("ci-check", "--changed-file", "pom.xml")])
def test_bad_skip_module_is_refused_before_any_read(tmp_path, monkeypatch, capsys, command):
    remote, project = build_shared(tmp_path)
    counts = count_repository_calls(monkeypatch)
    assert run_cli(remote, project, tmp_path / "cache", *command, "--skip-module", "nosuch") == 2
    assert capsys.readouterr() == ("", "mvnlock: error: --skip-module names no module: "
                                       "nosuch\n")
    assert counts == Counter()


@pytest.mark.parametrize("config", [
    LockfileConfig(),
    LockfileConfig(checksum_mode="remote", checksum_algorithm="sha512"),
], ids=["local", "remote"])
def test_session_lockfiles_match_bare_repository(tmp_path, config):
    for name, builder in sorted(FIXTURE_BUILDERS.items()):
        fixture = builder(tmp_path / name)
        repo = fixture.repository()
        bare = {
            module.rel_path: serialize(generate_lockfile(module.effective, config, repo))
            for module in load_project(fixture.project_root, repo)
        }
        session = Session(fixture.repository())
        shared = {
            rel: serialize(lock)
            for rel, lock in generate_all(load_project(fixture.project_root, session), config,
                                          session)
        }
        assert shared == bare, name


def test_shared_failure_exits_two_naming_artifact(tmp_path, capsys):
    remote, project = build_shared(tmp_path)
    (remote.root / "org" / "s" / "shared" / "1.5" / "shared-1.5.pom").unlink()
    code = run_cli(remote, project, tmp_path / "cache", "generate", "--workers", "4")
    assert code == 2
    err = capsys.readouterr().err
    assert "org.s:shared:1.5" in err
    assert not (project / "a" / "lockfile.json").exists()
    assert not (project / "b" / "lockfile.json").exists()
