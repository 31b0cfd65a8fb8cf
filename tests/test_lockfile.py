import copy
import hashlib
import json
import random
import re
import subprocess
import threading
import time
from pathlib import Path

import pytest

from conftest import RepoBuilder, build_aggregator, dep_xml, pom_xml
from mvnlock.errors import (
    GenerationError,
    LockfileSchemaError,
    ModuleMismatchError,
    NotFoundError,
    ResolutionError,
    UnsupportedLockfileVersionError,
)
from mvnlock.lockfile import (
    EnvironmentMetadata,
    Finding,
    LockedDependency,
    LockfileConfig,
    diff,
    generate_all,
    generate_lockfile,
    parse_lockfile,
    serialize,
)
from mvnlock.pom import Gav
from mvnlock.project import load_project
from mvnlock.repo import ChecksumRecord, MavenRepository, RepositoryConfig
from mvnlock.resolver import resolve
from mvnlock.session import Session

GOLDEN = Path(__file__).parent / "data" / "golden_lockfile.json"
COMPILER = ("org.apache.maven.plugins", "maven-compiler-plugin", "3.11.0")
COMPILER_DIGEST = "e996bb0ea465fae70d3e3c66b3b6e02d33d2f1eb76d5958720578b6cf359cc2e"


def plugin(group: str, artifact: str, version: str, digest: str = "cd") -> tuple:
    """A locked plugin whose sha256 repeats ``digest`` (a two-hex-digit prefix) to length."""
    return (Gav(group, artifact, version), ChecksumRecord("sha256", digest * 32, "local"))


def transitive(group: str, artifact: str) -> LockedDependency:
    return LockedDependency(group, artifact, "1.0", "compile",
                            ChecksumRecord("sha256", "cd" * 32, "local"), "local", False)


class JitterRepo:
    """A repository whose checksum methods sleep a random while first."""

    def __init__(self, inner, seed):
        self._inner = inner
        self._rng = random.Random(seed)

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name.startswith("checksum"):
            def jittered(*args, **kwargs):
                time.sleep(self._rng.uniform(0, 0.02))
                return attr(*args, **kwargs)

            return jittered
        return attr


def lock_project(root, config, repo, **kwargs):
    """``generate_all`` over the project at ``root``, loaded through the session it locks with."""
    session = Session(repo)
    return generate_all(load_project(root, session), config, session, **kwargs)


def module_effective(fixture, rel="."):
    repo = fixture.repository()
    modules = load_project(fixture.project_root, repo)
    module = next(m for m in modules if m.rel_path == rel)
    return module.effective, repo


@pytest.mark.parametrize("fields, message", [
    ({"checksum_mode": "both"}, "unknown checksum mode 'both'"),
    ({"checksum_algorithm": "md5"}, "unknown checksum algorithm 'md5'"),
])
def test_library_config_is_checked(fields, message):
    with pytest.raises(LockfileSchemaError, match=f"^{message}$"):
        LockfileConfig(**fields)


class TestGeneration:
    def test_empty_project_lockfile(self, tmp_path):
        repo_dir = RepoBuilder(tmp_path / "remote")
        project = tmp_path / "p"
        project.mkdir()
        (project / "pom.xml").write_text(pom_xml("g", "bare", "1.0"))
        from mvnlock.repo import MavenRepository, RepositoryConfig

        repo = MavenRepository(RepositoryConfig(
            remote_base_urls=(repo_dir.url,), local_repo_root=tmp_path / "cache"))
        effective, = [m.effective for m in load_project(project, repo)]
        lock = generate_lockfile(effective, LockfileConfig(), repo)
        assert lock.dependencies == []
        assert lock.environment is None and lock.plugins is None

    def test_single_fixture_digest_matches_external_tool(self, single_fixture):
        effective, repo = module_effective(single_fixture)
        lock = generate_lockfile(effective, LockfileConfig(), repo)
        gson = next(e for e in lock.flattened() if e.artifact_id == "gson")
        assert gson.direct is True
        jar = single_fixture.repo.artifact_path("com.google.code.gson", "gson", "2.13.2")
        external = subprocess.run(["sha256sum", str(jar)], capture_output=True,
                                  text=True, check=True).stdout.split()[0]
        assert gson.checksum.digest == external
        assert gson.checksum.mode == "local"
        assert gson.repository_source == single_fixture.repo.url

    def test_diamond_winner_recorded_once(self, tmp_path):
        from conftest import build_diamond

        fixture = build_diamond(tmp_path)
        effective, repo = module_effective(fixture)
        lock = generate_lockfile(effective, LockfileConfig(), repo)
        entries = [e for e in lock.flattened() if e.artifact_id == "d"]
        assert len(entries) == 1
        assert entries[0].version == "1.0"
        parent_b = next(e for e in lock.dependencies if e.artifact_id == "b")
        assert [c.artifact_id for c in parent_b.children] == ["d"]

    def test_forest_flat_agreement(self, fixture):
        for rel in fixture.module_paths:
            effective, repo = module_effective(fixture, rel)
            lock = generate_lockfile(effective, LockfileConfig(), repo)
            tree = resolve(effective, repo)
            lock_set = {(e.ga, e.version) for e in lock.flattened()}
            tree_set = {(n.ga, n.gav.version) for n in tree.flattened}
            assert lock_set == tree_set
            occurrences = tree.occurrence_scopes()
            by_ga = {e.ga: e for e in lock.flattened()}
            for node in tree.flattened:
                assert by_ga[node.ga].scope == tree.recorded_scope(node, occurrences)

    def test_remote_mode_records_sidecar_digests(self, single_fixture):
        effective, repo = module_effective(single_fixture)
        config = LockfileConfig(checksum_mode="remote", checksum_algorithm="sha1")
        lock = generate_lockfile(effective, config, repo)
        for entry in lock.flattened():
            assert entry.checksum.mode == "remote"
            assert entry.checksum.algorithm == "sha1"
            assert entry.repository_source == single_fixture.repo.url

    def test_remote_mode_missing_sidecar_lists_gavs(self, single_fixture):
        for group, artifact, version in (("org.acme", "util", "1.0"),
                                         ("com.google.code.gson", "gson", "2.13.2")):
            single_fixture.repo.artifact_path(group, artifact, version, "jar.sha256").unlink()
        for max_workers in (1, 4):
            effective, repo = module_effective(single_fixture)
            with pytest.raises(GenerationError) as err:
                generate_lockfile(effective, LockfileConfig(checksum_mode="remote"), repo,
                                  max_workers=max_workers)
            assert "org.acme:util:1.0" in str(err.value), max_workers
            assert "com.google.code.gson:gson:2.13.2" in str(err.value), max_workers

    def test_environment_block(self, single_fixture):
        effective, repo = module_effective(single_fixture)
        env = EnvironmentMetadata("Linux", "3.9.6", "17.0.2", "0.1.0")
        lock = generate_lockfile(
            effective, LockfileConfig(include_environment=True), repo, environment=env)
        assert lock.environment == env
        doc = json.loads(serialize(lock))
        assert doc["environment"]["javaVersion"] == "17.0.2"

    def test_plugins_locked_with_checksums(self, tmp_path):
        builder = RepoBuilder(tmp_path / "remote")
        builder.add("com.google.code.gson", "gson", "2.13.2")
        builder.add("org.apache.maven.plugins", "maven-compiler-plugin", "3.11.0")
        project = tmp_path / "p"
        project.mkdir()
        (project / "pom.xml").write_text(pom_xml(
            "g", "plugged", "1.0",
            deps=(dep_xml("com.google.code.gson", "gson", "2.13.2"),),
            plugins=(("org.apache.maven.plugins", "maven-compiler-plugin", "3.11.0"),),
        ))
        from mvnlock.repo import MavenRepository, RepositoryConfig

        repo = MavenRepository(RepositoryConfig(
            remote_base_urls=(builder.url,), local_repo_root=tmp_path / "cache"))
        effective = load_project(project, repo)[0].effective
        lock = generate_lockfile(effective, LockfileConfig(include_plugins=True), repo)
        (plugin,) = lock.plugins
        expected = hashlib.sha256(builder.artifact_path(
            "org.apache.maven.plugins", "maven-compiler-plugin", "3.11.0"
        ).read_bytes()).hexdigest()
        assert plugin[0].artifact_id == "maven-compiler-plugin"
        assert plugin[1].digest == expected

    def test_versionless_plugin_rejected_when_locking(self, tmp_path):
        builder = RepoBuilder(tmp_path / "remote")
        project = tmp_path / "p"
        project.mkdir()
        (project / "pom.xml").write_text(
            "<project><groupId>g</groupId><artifactId>a</artifactId>"
            "<version>1</version><build><plugins><plugin>"
            "<artifactId>maven-surefire-plugin</artifactId>"
            "</plugin></plugins></build></project>"
        )
        from mvnlock.repo import MavenRepository, RepositoryConfig

        repo = MavenRepository(RepositoryConfig(
            remote_base_urls=(builder.url,), local_repo_root=tmp_path / "cache"))
        effective = load_project(project, repo)[0].effective
        with pytest.raises(GenerationError, match="maven-surefire-plugin"):
            generate_lockfile(effective, LockfileConfig(include_plugins=True), repo)
        # without plugin locking the same manifest is fine
        lock = generate_lockfile(effective, LockfileConfig(), repo)
        assert lock.plugins is None


class TestGenerateAll:
    def test_single_module(self, single_fixture):
        repo = single_fixture.repository()
        results = lock_project(single_fixture.project_root, LockfileConfig(), repo)
        assert [rel for rel, *_ in results] == ["."]

    def test_aggregator_three_lockfiles(self, tmp_path):
        from conftest import build_aggregator

        fixture = build_aggregator(tmp_path)
        repo = fixture.repository()
        results = lock_project(fixture.project_root, LockfileConfig(), repo)
        assert [rel for rel, *_ in results] == [".", "core", "web"]
        root_lock = results[0][1]
        assert root_lock.dependencies == []  # aggregator-only root
        core_lock = {rel: lock for rel, lock, _ in results}["core"]
        text = next(e for e in core_lock.flattened() if e.artifact_id == "text")
        assert text.version == "1.0"

    def test_missing_module_path(self, tmp_path):
        project = tmp_path / "p"
        project.mkdir()
        (project / "pom.xml").write_text(pom_xml(
            "g", "root", "1", packaging="pom", modules=("ghost",)))
        repo_dir = RepoBuilder(tmp_path / "remote")
        from mvnlock.repo import MavenRepository, RepositoryConfig

        repo = MavenRepository(RepositoryConfig(
            remote_base_urls=(repo_dir.url,), local_repo_root=tmp_path / "cache"))
        with pytest.raises(NotFoundError, match="ghost"):
            lock_project(project, LockfileConfig(), repo)

    def test_workers_do_not_change_results_or_order(self, tmp_path):
        from conftest import build_aggregator

        fixture = build_aggregator(tmp_path)
        runs = [[(rel, serialize(lock)) for rel, lock, _ in
                 lock_project(fixture.project_root, LockfileConfig(), fixture.repository(),
                              workers=workers)]
                for workers in (1, 4)]
        assert [rel for rel, _ in runs[0]] == [".", "core", "web"]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_module_failure_names_the_module(self, tmp_path, workers):
        from conftest import break_core, build_aggregator

        fixture = build_aggregator(tmp_path)
        break_core(fixture)
        with pytest.raises(GenerationError, match="^module core: ") as info:
            lock_project(fixture.project_root, LockfileConfig(), fixture.repository(),
                         workers=workers)
        assert isinstance(info.value.__cause__, ResolutionError)


    @pytest.mark.parametrize("workers", [2, 4])
    def test_threads_never_exceed_workers(self, tmp_path, workers):
        class CountingRepo:
            """Records the live thread count inside every checksum_local call."""

            def __init__(self, inner):
                self._inner = inner
                self.counts = []

            def checksum_local(self, *args, **kwargs):
                time.sleep(0.02)  # keeps concurrent calls alive side by side
                self.counts.append(threading.active_count())
                return self._inner.checksum_local(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        fixture = build_aggregator(tmp_path)
        repo = CountingRepo(fixture.repository())
        before = threading.active_count()
        lock_project(fixture.project_root, LockfileConfig(), repo, workers=workers)
        assert len(repo.counts) == 5  # each distinct artifact hashed once
        assert max(repo.counts) <= before + workers

    @pytest.mark.parametrize("workers", [1, 4])
    def test_first_failing_module_wins_across_passes(self, tmp_path, workers):
        fixture = build_aggregator(tmp_path)
        # core (earlier) loses a published checksum, web (later) cannot resolve
        fixture.repo.artifact_path("com.google.code.gson", "gson", "2.13.2",
                                   "jar.sha256").unlink()
        fixture.repo.artifact_path("org.acme", "lib-a", "1.0", "pom").unlink()
        repo = fixture.repository()
        web = load_project(fixture.project_root, repo)[2]
        with pytest.raises(ResolutionError):
            resolve(web.effective, repo)
        with pytest.raises(GenerationError) as info:
            lock_project(fixture.project_root, LockfileConfig(checksum_mode="remote"), repo,
                         workers=workers)
        assert str(info.value) == \
            "module core: no published checksum for: com.google.code.gson:gson:2.13.2"


    def test_warm_cache_resolves_on_the_main_thread(self, tmp_path, monkeypatch):
        fixture = build_aggregator(tmp_path)
        lock_project(fixture.project_root, LockfileConfig(), fixture.repository())
        on_main = record_threads(monkeypatch)
        lock_project(fixture.project_root, LockfileConfig(), fixture.repository(), workers=4)
        assert on_main == {"fetch_pom": {True}, "list_versions": {True}, "parse_pom": {True}}

    def test_cold_cache_fills_manifests_on_the_pool(self, tmp_path, monkeypatch):
        fixture = build_aggregator(tmp_path)
        on_main = record_threads(monkeypatch, pause=0.01)
        runs = {}
        for workers in (4, 1):
            repo = MavenRepository(RepositoryConfig(remote_base_urls=(fixture.repo.url,),
                                                    local_repo_root=tmp_path / f"cache{workers}"))
            runs[workers] = [(rel, serialize(lock)) for rel, lock, _ in lock_project(
                fixture.project_root, LockfileConfig(), repo, workers=workers)]
        assert False in on_main["fetch_pom"]
        assert on_main["list_versions"] == {True}
        assert runs[4] == runs[1]


def record_threads(monkeypatch, pause: float = 0.0) -> dict[str, set[bool]]:
    """Whether each fetch_pom, list_versions and parse_pom call ran on the main thread.

    ``pause`` slows every manifest fetch, so pool threads get to fill some.
    """
    import mvnlock.session

    on_main: dict[str, set[bool]] = {"fetch_pom": set(), "list_versions": set(),
                                     "parse_pom": set()}

    def recorded(name, call, wait=0.0):
        def wrapper(*args, **kwargs):
            on_main[name].add(threading.current_thread() is threading.main_thread())
            time.sleep(wait)
            return call(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(MavenRepository, "fetch_pom",
                        recorded("fetch_pom", MavenRepository.fetch_pom, pause))
    monkeypatch.setattr(MavenRepository, "list_versions",
                        recorded("list_versions", MavenRepository.list_versions))
    monkeypatch.setattr(mvnlock.session, "parse_pom",
                        recorded("parse_pom", mvnlock.session.parse_pom))
    return on_main


class TestCanonicalForm:
    def test_golden_round_trip(self):
        payload = GOLDEN.read_bytes()
        assert serialize(parse_lockfile(payload)) == payload

    def test_parse_serialize_parse_stable(self):
        lock = parse_lockfile(GOLDEN.read_bytes())
        assert parse_lockfile(serialize(lock)) == lock

    def test_unsupported_version(self):
        payload = GOLDEN.read_text().replace('"lockfileVersion": 1', '"lockfileVersion": 999')
        with pytest.raises(UnsupportedLockfileVersionError):
            parse_lockfile(payload.encode())

    @pytest.mark.parametrize("key, value, digest", [
        ("checksumMode", "remote", None),
        ("checksumAlgorithm", "sha1", "ab" * 20),
    ])
    def test_entry_checksum_settings_must_be_configs(self, key, value, digest):
        doc = json.loads(GOLDEN.read_text())
        entry = doc["dependencies"][1]["children"][0]
        entry[key] = value
        if digest is not None:
            entry["checksum"] = digest
        with pytest.raises(LockfileSchemaError) as raised:
            parse_lockfile(json.dumps(doc).encode())
        assert str(raised.value) == (
            f"dependencies[1].children[0].{key} is {value!r}, "
            f"but config.{key} is {doc['config'][key]!r}")

    def test_plugin_algorithm_must_be_configs(self):
        doc = json.loads(GOLDEN.read_text())
        doc["plugins"][0].update(checksumAlgorithm="sha1", checksum="ab" * 20)
        with pytest.raises(LockfileSchemaError) as raised:
            parse_lockfile(json.dumps(doc).encode())
        assert str(raised.value) == (
            "plugins[0].checksumAlgorithm is 'sha1', but config.checksumAlgorithm is 'sha256'")

    @pytest.mark.parametrize("where", ["lockfile", "plugins[0]", "dependencies[1].children[0]"])
    def test_range_version_is_refused_at_its_place(self, where):
        doc = json.loads(GOLDEN.read_text())
        block = {"lockfile": doc, "plugins[0]": doc["plugins"][0],
                 "dependencies[1].children[0]": doc["dependencies"][1]["children"][0]}[where]
        block["version"] = "[1.0,2.0)"
        with pytest.raises(LockfileSchemaError) as raised:
            parse_lockfile(json.dumps(doc).encode())
        assert str(raised.value) == f"{where}: version '[1.0,2.0)' contains range syntax"

    def test_unknown_key_rejected(self):
        payload = GOLDEN.read_text().replace(
            '"lockfileVersion": 1', '"lockfileVersion": 1, "mystery": true')
        with pytest.raises(LockfileSchemaError, match="mystery"):
            parse_lockfile(payload.encode())

    def test_bad_digest_rejected(self):
        lock = parse_lockfile(GOLDEN.read_bytes())
        doc = serialize(lock).decode().replace(
            lock.dependencies[0].checksum.digest, "zz")
        with pytest.raises(LockfileSchemaError):
            parse_lockfile(doc.encode())

    def test_unsorted_siblings_rejected(self):
        import json

        doc = __import__("json").loads(GOLDEN.read_text())
        doc["dependencies"].reverse()
        with pytest.raises(LockfileSchemaError, match="canonical order"):
            parse_lockfile(json.dumps(doc).encode())

    @pytest.mark.parametrize("nested", [False, True])
    def test_unsorted_children_rejected_at_their_place(self, nested):
        doc = json.loads(GOLDEN.read_text())
        parent = doc["dependencies"][1]
        if nested:
            parent = parent["children"][0]
        text = dict(doc["dependencies"][1]["children"][0], children=[])
        parent["children"] = [*parent["children"], {**text, "groupId": "a.first"}]
        if nested:
            parent["children"] = [{**text, "groupId": "z.last"}, *parent["children"]]
        where = "dependencies[1].children[0]" if nested else "dependencies[1]"
        with pytest.raises(LockfileSchemaError,
                           match=rf"^{re.escape(where)}\.children are not in canonical order$"):
            parse_lockfile(json.dumps(doc).encode())

    def test_direct_flag_depth_consistency(self):
        import json

        doc = json.loads(GOLDEN.read_text())
        doc["dependencies"][0]["direct"] = False
        with pytest.raises(LockfileSchemaError, match="direct"):
            parse_lockfile(json.dumps(doc).encode())

    def test_duplicate_ga_rejected(self):
        import json

        doc = json.loads(GOLDEN.read_text())
        doc["dependencies"][1]["children"][0]["groupId"] = "com.google.code.gson"
        doc["dependencies"][1]["children"][0]["artifactId"] = "gson"
        with pytest.raises(LockfileSchemaError, match="duplicate"):
            parse_lockfile(json.dumps(doc).encode())

    def test_boolean_version_rejected(self):
        # True == 1, so a check of the value alone would accept it
        payload = GOLDEN.read_text().replace('"lockfileVersion": 1', '"lockfileVersion": true')
        with pytest.raises(LockfileSchemaError,
                           match=r"^lockfile\.lockfileVersion must be an integer$"):
            parse_lockfile(payload.encode())

    @pytest.mark.parametrize("value", [[], {}])
    def test_unhashable_config_algorithm_rejected(self, value):
        doc = json.loads(GOLDEN.read_text())
        doc["config"]["checksumAlgorithm"] = value
        with pytest.raises(LockfileSchemaError,
                           match=r"^lockfile\.config\.checksumAlgorithm must be"):
            parse_lockfile(json.dumps(doc).encode())

    @pytest.mark.parametrize("old, new", [
        ('"groupId": "com.acme"', '"groupId": "com.acme", "groupId": "org.other"'),
        ('"scope": "compile"', '"scope": "compile", "scope": "test"'),
        ('"includeTest": true', '"includeTest": true, "includeTest": true'),
    ])
    def test_repeated_key_rejected(self, old, new):
        payload = GOLDEN.read_text().replace(old, new, 1)
        key = old.split('"')[1]
        with pytest.raises(LockfileSchemaError, match=f"repeats the key '{key}'"):
            parse_lockfile(payload.encode())

    def test_duplicate_plugin_rejected(self):
        doc = json.loads(GOLDEN.read_text())
        (plugin,) = doc["plugins"]
        doc["plugins"] = [{**plugin, "groupId": "p", "artifactId": "q", "version": version}
                          for version in ("1.0", "2.0")]
        with pytest.raises(LockfileSchemaError,
                           match=r"^plugins\[1\]: duplicate plugin p:q$"):
            parse_lockfile(json.dumps(doc).encode())

    def test_trailing_newline_and_indent(self):
        payload = GOLDEN.read_bytes()
        assert payload.endswith(b"}\n")
        assert b'  "groupId"' in payload  # two-space indentation


WRONG_VALUES = (7, "", None, True, [], {})
DROP = object()


def single_faults() -> list[tuple[str, dict]]:
    """(path and fault, document) for every one-fault change of the golden document.

    At every object, each key is dropped, each value replaced by each of
    ``WRONG_VALUES``, and an unknown key added. A replacement that leaves the
    document valid is skipped: a value by an equal one of its type, and an
    array by ``[]``, which only drops siblings.
    """
    golden = json.loads(GOLDEN.read_text())

    def objects(node, path):
        if isinstance(node, dict):
            yield node, path
            for key, value in node.items():
                yield from objects(value, f"{path}.{key}")
        elif isinstance(node, list):
            for i, item in enumerate(node):
                yield from objects(item, f"{path}[{i}]")

    def changed(i, key, value):
        doc = copy.deepcopy(golden)
        obj = list(objects(doc, "lockfile"))[i][0]
        if value is DROP:
            del obj[key]
        else:
            obj[key] = value
        return doc

    faults = []
    for i, (obj, path) in enumerate(list(objects(golden, "lockfile"))):
        faults.append((f"{path} +mystery", changed(i, "mystery", "x")))
        for key, value in obj.items():
            faults.append((f"{path} -{key}", changed(i, key, DROP)))
            for wrong in WRONG_VALUES:
                if type(wrong) is type(value) and (wrong == value or type(value) is list):
                    continue
                faults.append((f"{path} {key}={json.dumps(wrong)}", changed(i, key, wrong)))
    return faults


SINGLE_FAULTS = single_faults()


@pytest.mark.parametrize("fault, doc", SINGLE_FAULTS, ids=[name for name, _ in SINGLE_FAULTS])
def test_single_fault_is_rejected(fault, doc):
    version = doc.get("lockfileVersion")
    expected = (UnsupportedLockfileVersionError
                if type(version) is int and version != 1 else LockfileSchemaError)
    with pytest.raises(Exception) as raised:
        parse_lockfile(json.dumps(doc, indent=2).encode())
    assert type(raised.value) is expected, raised.value
    # the message names the faulted object's place; a dropped block is named by its key
    path, change = fault.split(" ", 1)
    place = re.sub(r"^lockfile\.(?=dependencies|plugins)", "", path)
    named = f"{change[1:]} block" if change in ("-environment", "-plugins") else place
    assert named in str(raised.value), raised.value


class TestDeterminism:
    def test_regeneration_byte_identical(self, fixture):
        repo = fixture.repository()
        first = [serialize(lock) for _, lock, _ in
                 lock_project(fixture.project_root, LockfileConfig(), repo)]
        second = [serialize(lock) for _, lock, _ in
                  lock_project(fixture.project_root, LockfileConfig(), repo)]
        assert first == second

    def test_adversarial_scheduler(self, single_fixture):
        effective, repo = module_effective(single_fixture)
        payloads = {
            serialize(generate_lockfile(effective, LockfileConfig(),
                                        JitterRepo(repo, seed), max_workers=4))
            for seed in range(6)
        }
        assert len(payloads) == 1

    @pytest.mark.parametrize("mode", ["local", "remote"])
    def test_adversarial_scheduler_all_modules(self, fixture, mode):
        config = LockfileConfig(checksum_mode=mode)
        payloads = {
            tuple((rel, serialize(lock)) for rel, lock, _ in lock_project(
                fixture.project_root, config, JitterRepo(fixture.repository(), seed),
                workers=workers))
            for seed in range(3) for workers in (1, 4)
        }
        assert len(payloads) == 1

    def test_fresh_cache_vs_warm_cache(self, single_fixture):
        repo = fixture_repo = single_fixture.repository()
        effective, _ = module_effective(single_fixture)
        cold = serialize(generate_lockfile(effective, LockfileConfig(), fixture_repo))
        warm = serialize(generate_lockfile(effective, LockfileConfig(), repo))
        assert cold == warm


class TestDiff:
    def base(self):
        return parse_lockfile(GOLDEN.read_bytes())

    def test_identity(self):
        lock = self.base()
        assert diff(lock, lock) == []

    def test_version_change_subsumes_checksum(self):
        old, new = self.base(), self.base()
        gson = new.dependencies[0]
        gson.version = "2.13.3"
        gson.checksum = type(gson.checksum)("sha256", "ab" * 32, "local")
        (entry,) = diff(old, new)
        assert entry.kind == "version-mismatch"
        assert (entry.expected, entry.actual) == ("2.13.2", "2.13.3")

    def test_added_entry(self):
        old, new = self.base(), self.base()
        extra = copy.deepcopy(new.dependencies[0])
        extra.group_id, extra.artifact_id = "org.new", "thing"
        new.dependencies.append(extra)
        entries = diff(old, new)
        assert [e.kind for e in entries] == ["extra-dependency"]
        assert entries[0].actual == "2.13.2"

    def test_checksum_only_change(self):
        old, new = self.base(), self.base()
        gson = new.dependencies[0]
        gson.checksum = type(gson.checksum)("sha256", "ab" * 32, "local")
        (entry,) = diff(old, new)
        assert entry.kind == "checksum-mismatch"

    def test_scope_change(self):
        old, new = self.base(), self.base()
        new.dependencies[0].scope = "runtime"
        (entry,) = diff(old, new)
        assert entry.kind == "scope-mismatch"
        assert (entry.expected, entry.actual) == ("compile", "runtime")

    def test_order_is_by_ga_then_checksum_before_scope(self):
        old, new = self.base(), self.base()
        gson, util = new.dependencies
        gson.scope = "runtime"
        gson.checksum = type(gson.checksum)("sha256", "ab" * 32, "local")
        util.scope = "provided"
        util.children[0].version = "1.1"
        first = copy.deepcopy(gson)
        first.group_id, first.artifact_id = "aaa.first", "one"
        new.dependencies.insert(0, first)
        assert [(e.kind, e.group_id, e.artifact_id) for e in diff(old, new)] == [
            ("extra-dependency", "aaa.first", "one"),
            ("checksum-mismatch", "com.google.code.gson", "gson"),
            ("scope-mismatch", "com.google.code.gson", "gson"),
            ("version-mismatch", "org.acme", "text"),
            ("scope-mismatch", "org.acme", "util"),
        ]

    def test_reversal_property(self):
        old, new = self.base(), self.base()
        for lock in (old, new):
            gson, util = lock.dependencies
            gson.children.append(transitive("org.acme", "deep"))
            util.children.append(transitive("org.acme", "rising"))
            lock.plugins += [plugin("org.p", "bumped", "1.0"), plugin("org.p", "hashed", "1.0")]
        old.plugins.append(plugin("org.p", "dropped", "1.0"))
        gson, util = new.dependencies
        gson.version = "9.9"
        util.scope = "provided"
        util.checksum = type(util.checksum)("sha256", "ab" * 32, "local")
        rising = util.children[1]
        util.children = [gson.children.pop()]  # text goes, deep moves under util
        rising.direct = True
        new.dependencies.append(rising)
        new.plugins = [new.plugins[0], plugin("org.p", "added", "1.0"),
                       plugin("org.p", "bumped", "2.0"), plugin("org.p", "hashed", "1.0", "ef")]
        forward = diff(old, new)
        assert sorted({e.kind for e in forward}) == [
            "checksum-mismatch", "direct-mismatch", "extra-dependency", "missing-dependency",
            "parent-mismatch", "scope-mismatch", "version-mismatch"]
        backward = diff(new, old)
        swap = {"extra-dependency": "missing-dependency", "missing-dependency": "extra-dependency"}
        flipped = sorted(
            (swap.get(e.kind, e.kind), e.group_id, e.artifact_id, e.actual, e.expected)
            for e in backward
        )
        assert flipped == sorted(
            (e.kind, e.group_id, e.artifact_id, e.expected, e.actual) for e in forward
        )

    @pytest.mark.parametrize("promoted", [True, False], ids=["to-direct", "to-transitive"])
    def test_direct_and_transitive_swap(self, promoted):
        old, new = self.base(), self.base()
        text = new.dependencies[1].children.pop()
        text.direct = True
        new.dependencies.append(text)
        if not promoted:
            old, new = new, old
        placement = ("transitive", "direct") if promoted else ("direct", "transitive")
        assert diff(old, new) == [Finding("direct-mismatch", "org.acme", "text", *placement)]

    def test_entry_moved_under_another_parent(self):
        old, new = self.base(), self.base()
        gson, util = new.dependencies
        gson.children, util.children = util.children, []
        assert diff(old, new) == [Finding("parent-mismatch", "org.acme", "text",
                                          "org.acme:util", "com.google.code.gson:gson")]

    @pytest.mark.parametrize("change, finding", [
        ("bumped", ("version-mismatch", *COMPILER[:2], "3.11.0", "3.12.0")),
        ("dropped", ("missing-dependency", *COMPILER[:2], "3.11.0", None)),
        ("added", ("extra-dependency", "org.p", "new", None, "1.0")),
        ("digest", ("checksum-mismatch", *COMPILER[:2], COMPILER_DIGEST, "ab" * 32)),
    ])
    def test_plugin_changes(self, change, finding):
        old, new = self.base(), self.base()
        (compiler,) = new.plugins
        assert compiler == (Gav(*COMPILER), ChecksumRecord("sha256", COMPILER_DIGEST, "local"))
        new.plugins = {
            "bumped": [plugin(*COMPILER[:2], "3.12.0")],
            "dropped": [],
            "added": [compiler, plugin("org.p", "new", "1.0")],
            "digest": [plugin(*COMPILER, "ab")],
        }[change]
        assert diff(old, new) == [Finding(*finding)]

    def test_identical_environment_no_findings(self):
        old, new = self.base(), self.base()
        assert old.environment is not None
        assert diff(old, new) == []

    def test_one_field_drift_is_warning(self):
        old, new = self.base(), self.base()
        new.environment = new.environment._replace(java_version="21")
        (finding,) = diff(old, new)
        assert finding == Finding("environment-drift", "environment", "javaVersion",
                                  old.environment.java_version, "21")
        assert finding.severity == "warning"

    @pytest.mark.parametrize("unrecorded", ["old", "new"])
    def test_environment_on_one_side_no_findings(self, unrecorded):
        old, new = self.base(), self.base()
        (old if unrecorded == "old" else new).environment = None
        new.environment = new.environment and new.environment._replace(java_version="21")
        assert diff(old, new) == []

    def test_module_mismatch(self):
        old, new = self.base(), self.base()
        new.module = type(new.module)("other.group", "other", "1.0")
        with pytest.raises(ModuleMismatchError):
            diff(old, new)
