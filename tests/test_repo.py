import hashlib
import subprocess

import pytest

from conftest import RepoBuilder
from mvnlock.errors import (
    ChecksumUnavailableError,
    IntegrityFormatError,
    NotFoundError,
    OfflineError,
)
from mvnlock.pom import Gav
from mvnlock.repo import (
    MavenRepository,
    RepositoryConfig,
    artifact_rel_path,
    metadata_rel_path,
    parse_checksum_text,
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
            remote_base_urls=(), local_repo_root=tmp_path / "cache", offline=True,
        ))
        assert offline.fetch_pom(GSON) == text

    def test_offline_uncached_is_error(self, tmp_path):
        client = MavenRepository(RepositoryConfig(
            remote_base_urls=(), local_repo_root=tmp_path / "cache", offline=True,
        ))
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
            remote_base_urls=(), local_repo_root=tmp_path / "cache", offline=True,
        ))
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


class TestCacheCoherence:
    def test_identical_bytes_after_fill(self, repo, tmp_path):
        builder, client = repo
        fetched = client.fetch_artifact(GSON).read_bytes()
        remote = builder.artifact_path("com.google.code.gson", "gson", "2.13.2").read_bytes()
        assert fetched == remote
        offline = MavenRepository(RepositoryConfig(
            remote_base_urls=(), local_repo_root=tmp_path / "cache", offline=True,
        ))
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
