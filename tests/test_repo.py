import hashlib
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import mvnlock
import mvnlock.repo as repo_module
from conftest import RepoBuilder, fail_staging
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
    MavenRepository,
    RepositoryConfig,
    artifact_rel_path,
    metadata_rel_path,
    parse_checksum_text,
    write_files,
)

GSON = Gav("com.google.code.gson", "gson", "2.13.2")


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
        with pytest.raises(OfflineError):
            client.fetch_pom(GSON)

    def test_missing_artifact_is_not_found(self, repo):
        _, client = repo
        with pytest.raises(NotFoundError):
            client.fetch_pom(Gav("no.such", "thing", "9.9"))

    def test_source_recorded_on_fill(self, repo):
        builder, client = repo
        client.fetch_artifact(GSON)
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
        path = client.fetch_artifact(GSON)

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
            paths = list(pool.map(lambda _: client.fetch_artifact(GSON), range(16)))
        assert all(p.read_bytes() == expected for p in paths)
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
        client.fetch_artifact(GSON)
        assert seen == [builder.url]


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

    def test_empty_list_writes_nothing(self, tmp_path):
        write_files([])
        assert list(tmp_path.iterdir()) == []


class TestCacheCoherence:
    def test_identical_bytes_after_fill(self, repo, tmp_path):
        builder, client = repo
        fetched = client.fetch_artifact(GSON).read_bytes()
        remote = builder.artifact_path("com.google.code.gson", "gson", "2.13.2").read_bytes()
        assert fetched == remote
        offline = MavenRepository(RepositoryConfig(
            remote_base_urls=(), local_repo_root=tmp_path / "cache"))
        assert offline.fetch_artifact(GSON).read_bytes() == remote

    def test_checksum_local_tracks_byte_flips(self, repo):
        import random

        _, client = repo
        path = client.fetch_artifact(GSON)
        rng = random.Random(5)
        for _ in range(10):
            before = client.checksum_local(GSON).digest
            data = bytearray(path.read_bytes())
            offset = rng.randrange(len(data))
            data[offset] ^= 0xFF
            path.write_bytes(bytes(data))
            after = client.checksum_local(GSON).digest
            assert after != before


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
            assert client.fetch_artifact(GSON).read_bytes() == expected, base
            assert client.source_of(GSON) == base
            assert client.checksum_remote(GSON).digest == hashlib.sha256(expected).hexdigest()

    def test_miss_falls_through_to_next_repository(self, repo, tmp_path):
        builder, _ = repo
        empty = RepoBuilder(tmp_path / "empty")
        client = MavenRepository(RepositoryConfig(
            remote_base_urls=(empty.url, builder.url), local_repo_root=tmp_path / "cache2",
        ))
        client.fetch_artifact(GSON)
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
            alone.fetch_artifact(GSON)
        client = MavenRepository(RepositoryConfig(
            remote_base_urls=(shadow.url, builder.url), local_repo_root=tmp_path / "cache3",
        ))
        client.fetch_artifact(GSON)
        assert client.source_of(GSON) == builder.url

    def test_read_error_is_transport_error_naming_url(self, single_fixture, monkeypatch,
                                                      capsys):
        # tests may run as root, where chmod cannot make a file unreadable
        real_open = open

        def failing_open(file, *args, **kwargs):
            if str(file).endswith(".jar"):
                raise PermissionError(13, "Permission denied", file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(repo_module, "open", failing_open, raising=False)
        url = single_fixture.repo.url + "/" + artifact_rel_path(GSON)
        with pytest.raises(TransportError, match=re.escape(url)):
            single_fixture.repository().fetch_artifact(GSON)
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
