import errno
import hashlib
import os
import re
import socket
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import mvnlock
import mvnlock.repo as repo_module
from conftest import RepoBuilder, build_aggregator, fail_staging
from mvnlock.cli import main
from mvnlock.errors import (
    ChecksumUnavailableError,
    IntegrityFormatError,
    MvnlockError,
    NotFoundError,
    OfflineError,
    TransportError,
)
from mvnlock.pom import Gav
from mvnlock.repo import (
    HardLink,
    MavenRepository,
    RepositoryConfig,
    artifact_rel_path,
    metadata_rel_path,
    parse_checksum_text,
    write_files,
)

GSON = Gav("com.google.code.gson", "gson", "2.13.2")


def cached(client: MavenRepository, gav: Gav = GSON) -> Path:
    """Fill the cache with ``gav``'s jar through ``checksum_local``; its cached path."""
    client.checksum_local(gav)
    return client.config.local_repo_root / artifact_rel_path(gav)


@pytest.fixture
def repo(tmp_path):
    builder = RepoBuilder(tmp_path / "remote")
    builder.add("com.google.code.gson", "gson", "2.13.2")
    builder.add("org.acme", "text", "1.5")
    builder.add("org.acme", "text", "1.0")
    builder.add("org.acme", "text", "2.0")
    client = MavenRepository(RepositoryConfig(
        remote_base_urls=(builder.url,), local_repo_root=tmp_path / "cache",
    ))
    return builder, client


class TestLayout:
    def test_jar_path(self):
        assert artifact_rel_path(GSON) == \
            "com/google/code/gson/gson/2.13.2/gson-2.13.2.jar"

    def test_pom_path(self):
        assert artifact_rel_path(GSON, "pom").endswith("/gson-2.13.2.pom")

    def test_classifier_path(self):
        assert artifact_rel_path(GSON, "jar", "sources").endswith(
            "/gson-2.13.2-sources.jar"
        )

    def test_injective_over_fixture_corpus(self):
        inputs = [
            (GSON, "jar", None), (GSON, "pom", None), (GSON, "jar", "sources"),
            (Gav("org.acme", "text", "1.0"), "jar", None),
            (Gav("org.acme", "text", "1.5"), "jar", None),
            (Gav("org.acme.text", "x", "1.0"), "jar", None),
        ]
        paths = [artifact_rel_path(g, p, c) for g, p, c in inputs]
        assert len(set(paths)) == len(paths)


class TestFetch:
    def test_fetch_fills_cache_then_offline_hit(self, repo, tmp_path):
        builder, client = repo
        text = client.fetch_pom(GSON)
        assert "gson" in text
        offline = MavenRepository(RepositoryConfig(
            remote_base_urls=(), local_repo_root=tmp_path / "cache"))
        assert offline.fetch_pom(GSON) == text

    def test_offline_uncached_is_error(self, tmp_path):
        client = MavenRepository(RepositoryConfig(
            remote_base_urls=(), local_repo_root=tmp_path / "cache"))
        # its caller names the manifest, as the resolver and a parent load do
        with pytest.raises(OfflineError, match="^offline and not cached$"):
            client.fetch_pom(GSON)

    def test_a_manifest_is_read_once(self, repo, monkeypatch):
        builder, client = repo
        opened = Counter()
        real_open, real_path_open = open, Path.open

        def counting_open(file, *args, **kwargs):
            handle = real_open(file, *args, **kwargs)  # a cache miss opens nothing
            opened[Path(file)] += 1
            return handle

        def counting_path_open(self, *args, **kwargs):
            opened[self] += 1
            return real_path_open(self, *args, **kwargs)

        def counting_os_open(file, *args, **kwargs):  # a cache hit is read by descriptor
            fd = real_os_open(file, *args, **kwargs)
            opened[Path(file)] += 1
            return fd

        real_os_open = os.open
        monkeypatch.setattr(repo_module, "open", counting_open, raising=False)
        monkeypatch.setattr(Path, "open", counting_path_open)
        monkeypatch.setattr(os, "open", counting_os_open)
        pom = artifact_rel_path(GSON, "pom")
        text = client.fetch_pom(GSON)
        # cold: the remote copy is read once, and the cached copy is never read back
        assert {path: n for path, n in opened.items() if path.suffix == ".pom"} == {
            builder.root / pom: 1}
        opened.clear()
        assert client.fetch_pom(GSON) == text
        assert opened == Counter({client.config.local_repo_root / pom: 1})

    def test_manifest_newlines_read_as_text(self, repo):
        builder, client = repo
        path = builder.artifact_path("com.google.code.gson", "gson", "2.13.2", "pom")
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n") + b"<!-- a -->\r")
        expected = path.read_text(encoding="utf-8")
        assert "\r" not in expected
        assert client.fetch_pom(GSON) == expected  # filled
        assert client.fetch_pom(GSON) == expected  # cached

    def test_missing_artifact_is_not_found(self, repo):
        _, client = repo
        with pytest.raises(NotFoundError):
            client.fetch_pom(Gav("no.such", "thing", "9.9"))

    def test_source_recorded_on_fill(self, repo):
        builder, client = repo
        client.checksum_local(GSON)
        assert client.source_of(GSON) == builder.url

    def test_source_local_without_provenance(self, repo, tmp_path):
        builder, client = repo
        # simulate a pre-populated cache: file present, no provenance marker
        target = tmp_path / "cache" / artifact_rel_path(GSON)
        target.parent.mkdir(parents=True)
        target.write_bytes(b"prefilled")
        assert client.source_of(GSON) == "local"


class TestChecksums:
    def test_empty_file_sha256(self, repo, tmp_path):
        builder, client = repo
        builder.add("org.acme", "empty", "1.0", jar=b"")
        record = client.checksum_local(Gav("org.acme", "empty", "1.0"))
        assert record.digest == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )
        assert record.mode == "local"

    def test_local_deterministic(self, repo):
        _, client = repo
        assert client.checksum_local(GSON) == client.checksum_local(GSON)

    def test_single_byte_flip_changes_digest(self, repo):
        # expected digests computed with the external sha256sum utility
        _, client = repo
        path = cached(client)

        def external_digest():
            out = subprocess.run(["sha256sum", str(path)], capture_output=True,
                                 text=True, check=True)
            return out.stdout.split()[0]

        before = external_digest()
        assert client.checksum_local(GSON).digest == before
        data = bytearray(path.read_bytes())
        data[7] ^= 0x01
        path.write_bytes(bytes(data))
        after = external_digest()
        assert after != before
        assert client.checksum_local(GSON).digest == after

    def test_remote_sidecar_parsing(self, repo):
        builder, client = repo
        record = client.checksum_remote(GSON, algorithm="sha256")
        expected = hashlib.sha256(
            builder.artifact_path("com.google.code.gson", "gson", "2.13.2").read_bytes()
        ).hexdigest()
        assert record.digest == expected and record.mode == "remote"

    def test_no_cross_algorithm_substitution(self, repo):
        builder, client = repo
        builder.add("org.acme", "partial", "1.0")
        # remove the sha256 sidecar, keep sha1
        sidecar = builder.artifact_path("org.acme", "partial", "1.0", "jar.sha256")
        sidecar.unlink()
        with pytest.raises(ChecksumUnavailableError):
            client.checksum_remote(Gav("org.acme", "partial", "1.0"), algorithm="sha256")

    def test_unknown_algorithm_is_refused_before_any_fetch(self, repo, monkeypatch):
        _, client = repo
        monkeypatch.setattr(repo_module, "_open", lambda url, timeout: pytest.fail(url))
        with pytest.raises(IntegrityFormatError, match="^unknown checksum algorithm 'md5'$"):
            client.checksum_remote_with_source(GSON, algorithm="md5")

    def test_remote_requires_online(self, tmp_path):
        client = MavenRepository(RepositoryConfig(
            remote_base_urls=(), local_repo_root=tmp_path / "cache"))
        with pytest.raises(OfflineError):
            client.checksum_remote(GSON)

    def test_malformed_sidecar(self, repo):
        builder, client = repo
        sidecar = builder.artifact_path("com.google.code.gson", "gson", "2.13.2",
                                        "jar.sha256")
        sidecar.write_text("not-a-digest\n")
        with pytest.raises(IntegrityFormatError):
            client.checksum_remote(GSON)

    def test_sidecar_text_tolerates_filename_suffix(self):
        digest = "a" * 64
        record = parse_checksum_text(f"{digest}  gson-2.13.2.jar\n", "sha256", "remote")
        assert record.digest == digest

    def test_digest_shape_enforced(self):
        with pytest.raises(IntegrityFormatError):
            parse_checksum_text("abc", "sha256", "remote")


class TestReadWaits:
    """``read_waits``: whether a read is worth a thread, from the config and cache only."""

    def client(self, tmp_path, *bases):
        return MavenRepository(RepositoryConfig(remote_base_urls=bases,
                                                local_repo_root=tmp_path / "cache"))

    @pytest.fixture(autouse=True)
    def no_network(self, monkeypatch):
        def refused(*args, **kwargs):
            pytest.fail("read_waits opened a connection")

        monkeypatch.setattr(repo_module, "_open", refused)
        monkeypatch.setattr(socket.socket, "connect", refused)
        monkeypatch.setattr(socket, "getaddrinfo", refused)

    def place(self, client, size: int, gav: Gav = GSON, packaging: str = "jar") -> None:
        path = client.config.local_repo_root / artifact_rel_path(gav, packaging)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"j" * size)

    @pytest.mark.parametrize("base, waits", [
        ("file:///srv/maven", False),
        ("file://localhost/srv/maven", False),
        ("file:remote", False),
        ("https://repo.example.org/maven2", True),
        ("http://repo.example.org/maven2", True),
        ("file://mirror.example.org/srv/maven", True),  # not this host
    ])
    def test_remote_read_waits_unless_every_base_is_a_file_here(self, tmp_path, base, waits):
        assert self.client(tmp_path, base).read_waits("remote", GSON) is waits
        # a network base anywhere in the list may serve the read
        assert self.client(tmp_path, "file:remote", base).read_waits("remote", GSON) is waits

    def test_offline_remote_read_fails_at_once(self, tmp_path):
        assert self.client(tmp_path).read_waits("remote", GSON) is False

    @pytest.mark.parametrize("size, waits", [
        (0, False), (300, False), (repo_module._READ_HERE_MAX, False),
        (repo_module._READ_HERE_MAX + 1, True), (repo_module._CHUNK + 1, True),
    ])
    @pytest.mark.parametrize("online", [True, False], ids=["online", "offline"])
    def test_cached_read_waits_only_beyond_the_size_limit(self, tmp_path, size, waits, online):
        bases = ("https://repo.example.org/maven2",) if online else ()
        client = self.client(tmp_path, *bases)
        self.place(client, size)
        assert client.read_waits("local", GSON) is waits
        # classified and typed files are looked up at their own paths
        assert client.read_waits("local", GSON, "jar", "sources") is online
        assert client.read_waits("local", GSON, "war") is online

    @pytest.mark.parametrize("size, waits", [(300, False), (repo_module._READ_HERE_MAX + 1, True)])
    def test_a_manifest_follows_the_same_rule(self, tmp_path, size, waits):
        client = self.client(tmp_path, "file:remote")
        assert client.read_waits("local", GSON, "pom") is True
        self.place(client, size, packaging="pom")
        assert client.read_waits("local", GSON, "pom") is waits
        assert client.read_waits("local", GSON) is True  # the jar is not cached

    def test_uncached_read_waits_when_it_fills(self, tmp_path):
        assert self.client(tmp_path, "file:remote").read_waits("local", GSON) is True
        assert self.client(tmp_path).read_waits("local", GSON) is False  # offline: fails

    def test_a_directory_at_the_cached_path_is_not_cached(self, tmp_path):
        client = self.client(tmp_path, "file:remote")
        (client.config.local_repo_root / artifact_rel_path(GSON)).mkdir(parents=True)
        assert client.read_waits("local", GSON) is True


class TestVersionListing:
    def test_sorted_ascending(self, repo):
        builder, client = repo
        # builder wrote metadata in insertion order 1.5, 1.0, 2.0
        raw = (builder.root / metadata_rel_path("org.acme", "text")).read_text()
        assert raw.index("<version>1.5<") < raw.index("<version>1.0<")
        assert client.list_versions("org.acme", "text") == ["1.0", "1.5", "2.0"]

    def test_missing_metadata(self, repo):
        _, client = repo
        with pytest.raises(NotFoundError):
            client.list_versions("no.such", "thing")

    def test_empty_versions_element(self, repo, tmp_path):
        builder, client = repo
        meta = builder.root / "org" / "acme" / "hollow" / "maven-metadata.xml"
        meta.parent.mkdir(parents=True)
        meta.write_text("<metadata><versioning><versions/></versioning></metadata>")
        assert client.list_versions("org.acme", "hollow") == []

    def test_namespaced_metadata(self, repo):
        builder, client = repo
        meta = builder.root / metadata_rel_path("org.acme", "spaced")
        meta.parent.mkdir(parents=True)
        meta.write_text('<metadata xmlns="http://maven.apache.org/METADATA/1.1.0">'
                        "<versioning><versions><version>1.1</version><version>1.0</version>"
                        "</versions></versioning></metadata>")
        assert client.list_versions("org.acme", "spaced") == ["1.0", "1.1"]

    def test_refetched_when_online(self, repo):
        builder, client = repo
        assert client.list_versions("org.acme", "text") == ["1.0", "1.5", "2.0"]
        builder.add("org.acme", "text", "1.7")
        assert "1.7" in client.list_versions("org.acme", "text")

    def test_cached_metadata_written_only_when_changed(self, repo, tmp_path, monkeypatch):
        builder, client = repo
        rel = metadata_rel_path("org.acme", "text")
        client.list_versions("org.acme", "text")
        real_replace = os.replace
        replaced = []

        def counting_replace(src, dst):
            replaced.append(str(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        assert client.list_versions("org.acme", "text") == ["1.0", "1.5", "2.0"]
        assert replaced == []

        builder.add("org.acme", "text", "1.7")
        assert client.list_versions("org.acme", "text") == ["1.0", "1.5", "1.7", "2.0"]
        assert replaced == [str(tmp_path / "cache" / rel)]
        assert (tmp_path / "cache" / rel).read_bytes() == (builder.root / rel).read_bytes()
        offline = MavenRepository(RepositoryConfig(
            remote_base_urls=(), local_repo_root=tmp_path / "cache"))
        assert offline.list_versions("org.acme", "text") == ["1.0", "1.5", "1.7", "2.0"]


class TestConcurrency:
    def test_concurrent_fills_do_not_corrupt_cache(self, repo):
        from concurrent.futures import ThreadPoolExecutor

        builder, client = repo
        expected = builder.artifact_path("com.google.code.gson", "gson", "2.13.2").read_bytes()
        with ThreadPoolExecutor(max_workers=8) as pool:
            records = list(pool.map(lambda _: client.checksum_local(GSON), range(16)))
        assert {r.digest for r in records} == {hashlib.sha256(expected).hexdigest()}
        assert cached(client).read_bytes() == expected
        assert client.source_of(GSON) == builder.url


    def test_source_visible_when_artifact_lands(self, repo, monkeypatch):
        import os

        builder, client = repo
        real_replace = os.replace
        seen = []

        def replace_then_look(src, dst):
            real_replace(src, dst)
            if str(dst).endswith(".jar"):
                seen.append(client.source_of(GSON))

        monkeypatch.setattr(os, "replace", replace_then_look)
        client.checksum_local(GSON)
        assert seen == [builder.url]


def marker(client: MavenRepository, gav: Gav = GSON, packaging: str = "jar") -> Path:
    path = client.config.local_repo_root / artifact_rel_path(gav, packaging)
    return path.parent / (path.name + ".source")


def shared_marker(client: MavenRepository, base: str) -> Path:
    """The file under the cache's ``.mvnlock/`` that every marker of ``base`` links to."""
    name = hashlib.sha256(base.encode("utf-8")).hexdigest() + ".source"
    return client.config.local_repo_root / ".mvnlock" / name


class TestSharedMarker:
    """Markers of one base are hard links to one file, or files of their own
    where the file system refuses the link; either way they read the same."""

    def test_markers_of_one_base_share_one_inode(self, repo):
        builder, client = repo
        text = Gav("org.acme", "text", "1.0")
        client.checksum_local(GSON)
        client.checksum_local(text)
        shared = shared_marker(client, builder.url)
        assert shared.read_text(encoding="utf-8") == builder.url + "\n"
        for gav in (GSON, text):
            assert marker(client, gav).stat().st_ino == shared.stat().st_ino
            assert client.source_of(gav) == builder.url
        assert shared.stat().st_nlink == 3
        assert [p.name for p in shared.parent.iterdir()] == [shared.name]

    @pytest.mark.parametrize("refusal", [PermissionError(errno.EPERM, "Operation not permitted"),
                                         OSError(errno.EMLINK, "Too many links")],
                             ids=["EPERM", "EMLINK"])
    def test_refused_link_writes_a_marker_of_its_own(self, tmp_path, monkeypatch, refusal):
        def generate(root):
            fixture = build_aggregator(root)
            assert main(["generate", "--project", str(fixture.project_root),
                         "--repo-url", fixture.repo.url,
                         "--local-repo", str(fixture.cache_root)]) == 0
            markers = sorted(fixture.cache_root.rglob("*.jar.source"))
            assert markers
            lockfiles = {p.relative_to(root): p.read_bytes()
                         for p in root.rglob("lockfile.json")}
            return fixture, markers, lockfiles

        # the same path in both runs, so the recorded base URL is the same
        linked, markers, lockfiles = generate(tmp_path / "run")
        shared = shared_marker(linked.repository(), linked.repo.url)
        assert {m.stat().st_ino for m in markers} == {shared.stat().st_ino}
        (tmp_path / "run").rename(tmp_path / "linked")

        def refuse(src, dst, **kwargs):
            raise refusal

        monkeypatch.setattr(repo_module.os, "link", refuse)
        fixture, markers, refused_lockfiles = generate(tmp_path / "run")
        assert refused_lockfiles == lockfiles
        for path in markers:
            assert path.stat().st_nlink == 1
            assert path.read_text(encoding="utf-8") == fixture.repo.url + "\n"
        assert not list(fixture.cache_root.rglob("*.tmp"))

    def test_shared_file_with_wrong_text_is_rewritten_before_the_first_link(self, repo):
        builder, client = repo
        shared = shared_marker(client, builder.url)
        shared.parent.mkdir(parents=True)
        shared.write_text("file:/somewhere/else\n", encoding="utf-8")
        client.checksum_local(GSON)
        assert shared.read_text(encoding="utf-8") == builder.url + "\n"
        assert marker(client).stat().st_ino == shared.stat().st_ino
        assert client.source_of(GSON) == builder.url

    def test_each_marker_reads_the_base_that_served_it(self, repo, tmp_path):
        builder, _ = repo
        first = RepoBuilder(tmp_path / "first")
        first.add("com.google.code.gson", "gson", "2.13.2")
        first.artifact_path("com.google.code.gson", "gson", "2.13.2").unlink()
        client = MavenRepository(RepositoryConfig(
            remote_base_urls=(first.url, builder.url), local_repo_root=tmp_path / "cache2",
        ))
        client.fetch_pom(GSON)
        client.checksum_local(GSON)
        assert client.source_of(GSON, "pom") == first.url
        assert client.source_of(GSON) == builder.url
        for gav_marker, base in ((marker(client, GSON, "pom"), first.url),
                                 (marker(client), builder.url)):
            assert gav_marker.stat().st_ino == shared_marker(client, base).stat().st_ino

    def test_a_marker_of_its_own_from_an_older_cache_is_read(self, repo, tmp_path):
        builder, client = repo
        target = tmp_path / "cache" / artifact_rel_path(GSON)
        target.parent.mkdir(parents=True)
        target.write_bytes(b"prefilled")
        marker(client).write_text("https://repo.example/maven2\n", encoding="utf-8")
        assert client.source_of(GSON) == "https://repo.example/maven2"
        client.checksum_local(Gav("org.acme", "text", "1.0"))
        assert client.source_of(GSON) == "https://repo.example/maven2"
        assert marker(client).stat().st_nlink == 1

    def test_threads_filling_distinct_artifacts_leave_correct_markers(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        builder = RepoBuilder(tmp_path / "remote")
        gavs = [Gav("org.acme", f"lib{n}", "1.0") for n in range(16)]
        for gav in gavs:
            builder.add(gav.group_id, gav.artifact_id, gav.version)
        client = MavenRepository(RepositoryConfig(
            remote_base_urls=(builder.url,), local_repo_root=tmp_path / "cache",
        ))
        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(client.checksum_local, gavs))
        shared = shared_marker(client, builder.url)
        for gav in gavs:
            assert marker(client, gav).read_text(encoding="utf-8") == builder.url + "\n"
            assert marker(client, gav).stat().st_ino == shared.stat().st_ino
        assert shared.stat().st_nlink == len(gavs) + 1
        assert not list(client.config.local_repo_root.rglob("*.tmp"))


class TestWriteFiles:
    @staticmethod
    def files(tmp_path):
        """Three targets: two hold old bytes, one does not exist yet."""
        (tmp_path / "sub").mkdir()
        (tmp_path / "one").write_bytes(b"old one")
        (tmp_path / "sub" / "two").write_bytes(b"old two")
        return [(tmp_path / "one", b"new one"), (tmp_path / "sub" / "two", b"new two"),
                (tmp_path / "three", b"new three")]

    @staticmethod
    def snapshot(root):
        return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}

    def test_writes_every_file_renaming_in_list_order(self, tmp_path, monkeypatch):
        files = self.files(tmp_path)
        real_replace = os.replace
        renamed = []

        def recording_replace(src, dst):
            renamed.append(Path(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        write_files(files)
        assert renamed == [path for path, _ in files]
        assert self.snapshot(tmp_path) == dict(files)

    @pytest.mark.parametrize("k", range(3))
    def test_failure_on_kth_staged_file_leaves_every_target(self, tmp_path, monkeypatch, k):
        files = self.files(tmp_path)
        before = self.snapshot(tmp_path)
        staged = fail_staging(monkeypatch, k)
        with pytest.raises(MvnlockError, match=f"^cannot write {re.escape(str(files[k][0]))}: "):
            write_files(files)
        assert len(staged) == k + 1
        # same targets, same bytes, and no temp file left beside any of them
        assert self.snapshot(tmp_path) == before

    def test_chunk_iterables_are_written_whole(self, tmp_path):
        write_files([(tmp_path / "one", iter([b"new ", b"", b"one"])),
                     (tmp_path / "two", b"new two")])
        assert self.snapshot(tmp_path) == {tmp_path / "one": b"new one",
                                           tmp_path / "two": b"new two"}

    @pytest.mark.parametrize("failing", range(3))
    def test_chunk_iterator_error_propagates_and_changes_nothing(self, tmp_path, failing):
        files = self.files(tmp_path)
        before = self.snapshot(tmp_path)
        error = TransportError("fetching x: connection reset")

        def chunks(data):
            yield data[:2]
            raise error

        path, data = files[failing]
        files[failing] = (path, chunks(data))
        with pytest.raises(TransportError) as raised:
            write_files(files)
        assert raised.value is error
        assert self.snapshot(tmp_path) == before

    def test_failure_after_a_staged_link_removes_it(self, tmp_path):
        shared = tmp_path / "shared"
        shared.write_bytes(b"base\n")
        error = TransportError("fetching x: connection reset")

        def chunks():
            yield b"part"
            raise error

        with pytest.raises(TransportError):
            write_files([(tmp_path / "one", HardLink(shared, b"base\n")),
                         (tmp_path / "two", chunks())])
        assert self.snapshot(tmp_path) == {shared: b"base\n"}
        assert shared.stat().st_nlink == 1

    def test_empty_list_writes_nothing(self, tmp_path):
        write_files([])
        assert list(tmp_path.iterdir()) == []


class TestCacheCoherence:
    def test_identical_bytes_after_fill(self, repo, tmp_path):
        builder, client = repo
        fetched = cached(client).read_bytes()
        remote = builder.artifact_path("com.google.code.gson", "gson", "2.13.2").read_bytes()
        assert fetched == remote
        offline = MavenRepository(RepositoryConfig(
            remote_base_urls=(), local_repo_root=tmp_path / "cache"))
        assert cached(offline).read_bytes() == remote

    def test_checksum_local_tracks_byte_flips(self, repo):
        import random

        _, client = repo
        path = cached(client)
        rng = random.Random(5)
        for _ in range(10):
            before = client.checksum_local(GSON).digest
            data = bytearray(path.read_bytes())
            offset = rng.randrange(len(data))
            data[offset] ^= 0xFF
            path.write_bytes(bytes(data))
            after = client.checksum_local(GSON).digest
            assert after != before

    def test_directory_in_the_cache_is_a_miss(self, tmp_path):
        offline = MavenRepository(RepositoryConfig(remote_base_urls=(),
                                                   local_repo_root=tmp_path / "cache"))
        jar = offline.config.local_repo_root / artifact_rel_path(GSON)
        jar.mkdir(parents=True)
        (jar.parent / (jar.name + ".source")).mkdir()
        with pytest.raises(NotFoundError, match=f"^offline and not cached: {GSON}$"):
            offline.checksum_local(GSON)
        assert offline.source_of(GSON) == "local"


class TestTransport:
    def test_cli_import_loads_no_network_stack(self):
        probe = ("import sys, mvnlock.cli; print(sorted(m for m in "
                 "('urllib.request', 'http.client', 'ssl', 'email') if m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": str(Path(mvnlock.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "[]"

    def test_file_url_forms_read_the_same_bytes(self, tmp_path, monkeypatch):
        builder = RepoBuilder(tmp_path / "re mote")
        builder.add("com.google.code.gson", "gson", "2.13.2")
        (tmp_path / "remote").symlink_to("re mote")
        expected = builder.artifact_path("com.google.code.gson", "gson", "2.13.2").read_bytes()
        plain = (tmp_path / "remote").as_posix()
        monkeypatch.chdir(tmp_path)
        forms = [
            "file://" + plain,
            "file://localhost" + plain,
            builder.url,  # percent-encoded space
            "file:remote",
            "file:re%20mote/",
        ]
        assert "%20" in builder.url
        for n, base in enumerate(forms):
            client = MavenRepository(RepositoryConfig(
                remote_base_urls=(base,), local_repo_root=tmp_path / f"cache{n}",
            ))
            assert cached(client).read_bytes() == expected, base
            assert client.source_of(GSON) == base
            assert client.checksum_remote(GSON).digest == hashlib.sha256(expected).hexdigest()

    def test_miss_falls_through_to_next_repository(self, repo, tmp_path):
        builder, _ = repo
        empty = RepoBuilder(tmp_path / "empty")
        client = MavenRepository(RepositoryConfig(
            remote_base_urls=(empty.url, builder.url), local_repo_root=tmp_path / "cache2",
        ))
        client.checksum_local(GSON)
        assert client.source_of(GSON) == builder.url
        assert client.checksum_remote_with_source(GSON)[1] == builder.url

    def test_directory_in_place_of_file_is_a_miss(self, repo, tmp_path):
        builder, _ = repo
        shadow = RepoBuilder(tmp_path / "shadow")
        shadow.artifact_path("com.google.code.gson", "gson", "2.13.2").mkdir(parents=True)
        alone = MavenRepository(RepositoryConfig(
            remote_base_urls=(shadow.url,), local_repo_root=tmp_path / "cache2",
        ))
        with pytest.raises(NotFoundError):
            alone.checksum_local(GSON)
        client = MavenRepository(RepositoryConfig(
            remote_base_urls=(shadow.url, builder.url), local_repo_root=tmp_path / "cache3",
        ))
        client.checksum_local(GSON)
        assert client.source_of(GSON) == builder.url

    def test_read_error_is_transport_error_naming_url(self, single_fixture, monkeypatch,
                                                      capsys):
        # tests may run as root, where chmod cannot make a file unreadable; only the
        # remote copy fails, so the cache still sees a plain miss
        real_open = open
        remote = str(single_fixture.repo.root)

        def failing_open(file, *args, **kwargs):
            if str(file).endswith(".jar") and str(file).startswith(remote):
                raise PermissionError(13, "Permission denied", file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(repo_module, "open", failing_open, raising=False)
        url = single_fixture.repo.url + "/" + artifact_rel_path(GSON)
        with pytest.raises(TransportError, match=re.escape(url)):
            single_fixture.repository().checksum_local(GSON)
        assert main(["generate", "--project", str(single_fixture.project_root),
                     "--repo-url", single_fixture.repo.url,
                     "--local-repo", str(single_fixture.cache_root)]) == 2
        assert "fetching file:" in capsys.readouterr().err
        assert not (single_fixture.project_root / "lockfile.json").exists()

    def test_file_url_on_another_host_goes_through_urllib(self, single_fixture,
                                                          monkeypatch, capsys):
        looked_up = []

        def no_lookup(host, *args):
            looked_up.append(host)
            raise socket.gaierror(socket.EAI_NONAME, "name lookups are disabled here")

        monkeypatch.setattr(socket, "gethostbyname", no_lookup)
        monkeypatch.setattr(socket, "gethostbyname_ex", no_lookup)
        base = "file://otherhost" + single_fixture.repo.root.as_posix()
        assert main(["generate", "--project", str(single_fixture.project_root),
                     "--repo-url", base,
                     "--local-repo", str(single_fixture.cache_root)]) == 2
        assert "otherhost" in looked_up
        assert "fetching " + base in capsys.readouterr().err
