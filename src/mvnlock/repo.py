"""Artifact repository client: remote fetches, local cache, checksums.

Remote repositories use the standard repository layout. ``file:`` URLs on
this host (offline mirrors and fixtures) are read by path; http(s) and any
other scheme go through urllib, imported on first use. The local cache
mirrors the remote layout so it can double as a pre-populated build cache.
Every file the package writes goes through ``write_files`` (temp file, then
rename). Each cache fill records the serving base URL in a provenance sidecar
so the recorded package source is stable across reruns.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import unquote, urlsplit

from .errors import (
    ChecksumUnavailableError,
    IntegrityFormatError,
    MvnlockError,
    NotFoundError,
    OfflineError,
    TransportError,
)
from .pom import Gav
from .versions import sorted_versions

ALGORITHMS = {"sha1": 40, "sha256": 64, "sha512": 128}
_HEX_RE = re.compile(r"^[0-9a-f]+$")
_SOURCE_SUFFIX = ".source"
_MISSING = (FileNotFoundError, IsADirectoryError, NotADirectoryError)


@dataclass(frozen=True)
class ChecksumRecord:
    algorithm: str
    digest: str
    mode: str  # "remote" | "local"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise IntegrityFormatError(f"unknown checksum algorithm {self.algorithm!r}")
        if len(self.digest) != ALGORITHMS[self.algorithm] or not _HEX_RE.match(self.digest):
            raise IntegrityFormatError(
                f"digest {self.digest!r} is not a valid {self.algorithm} value"
            )
        if self.mode not in ("remote", "local"):
            raise IntegrityFormatError(f"unknown checksum mode {self.mode!r}")


@dataclass(frozen=True)
class RepositoryConfig:
    local_repo_root: Path
    remote_base_urls: tuple[str, ...] = ()
    offline: bool = False
    timeout: float = 10.0


def artifact_rel_path(gav: Gav, packaging: str = "jar", classifier: str | None = None) -> str:
    """Standard repository layout path for an artifact."""
    name = f"{gav.artifact_id}-{gav.version}"
    if classifier:
        name += f"-{classifier}"
    return f"{gav.group_id.replace('.', '/')}/{gav.artifact_id}/{gav.version}/{name}.{packaging}"


def metadata_rel_path(group_id: str, artifact_id: str) -> str:
    return f"{group_id.replace('.', '/')}/{artifact_id}/maven-metadata.xml"


def parse_checksum_text(text: str, algorithm: str, mode: str) -> ChecksumRecord:
    """Parse sidecar content: hex digest, optionally followed by a filename."""
    token = text.strip().split()[0] if text.strip() else ""
    return ChecksumRecord(algorithm=algorithm, digest=token.lower(), mode=mode)


def write_files(files: list[tuple[Path, bytes]]) -> None:
    """Write every file or none; the one place the package writes a file.

    Each file is staged as a temp file beside its target, then all are renamed
    over their targets in list order. If staging fails, the temp files are
    deleted and every target is left untouched. An ``OSError`` is raised as
    an ``MvnlockError`` naming the target it was writing.
    """
    staged: list[tuple[str, Path]] = []
    try:
        for path, data in files:
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
            staged.append((tmp, path))
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError as exc:
        raise MvnlockError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _read_or_none(path: str | Path) -> bytes | None:
    """The file's bytes, or None when no file is there."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except _MISSING:
        return None


def _get(url: str, timeout: float) -> bytes | None:
    """The bytes at url, or None when nothing is there; other failures raise OSError."""
    parts = urlsplit(url)
    if parts.scheme == "file" and parts.netloc in ("", "localhost"):
        return _read_or_none(unquote(parts.path))
    # http.client, ssl and email load only for a repository that needs them
    import urllib.error
    import urllib.request
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read()
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            return None
        raise
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, _MISSING):
            return None
        raise


class MavenRepository:
    """Fetch artifacts and checksums from remotes, caching under a local root."""

    def __init__(self, config: RepositoryConfig):
        self.config = config

    # --- low-level access ---

    def _fetch_remote(self, rel_path: str) -> tuple[bytes, str]:
        """Try each remote in order; return (bytes, base url) of the first hit."""
        if self.config.offline:
            raise OfflineError(f"offline: cannot fetch {rel_path}")
        if not self.config.remote_base_urls:
            raise NotFoundError(f"no remote repositories configured for {rel_path}")
        for base in self.config.remote_base_urls:
            url = base.rstrip("/") + "/" + rel_path
            try:
                data = _get(url, self.config.timeout)
            except OSError as exc:
                raise TransportError(f"fetching {url}: {exc}") from exc
            if data is not None:
                return data, base
        raise NotFoundError(f"{rel_path} not found in any configured repository")

    def _write_cache(self, rel_path: str, data: bytes, source: str | None) -> Path:
        path = self.config.local_repo_root / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        # the marker lands first: whoever sees the artifact also sees its source,
        # and a crash between the two leaves no artifact to misattribute
        files = [(path, data)]
        if source is not None:
            files.insert(0, (path.parent / (path.name + _SOURCE_SUFFIX),
                             (source + "\n").encode("utf-8")))
        write_files(files)
        return path

    def _ensure_cached(self, rel_path: str) -> Path:
        cached = self.config.local_repo_root / rel_path
        if cached.is_file():
            return cached
        if self.config.offline:
            raise OfflineError(f"offline and not cached: {rel_path}")
        data, base = self._fetch_remote(rel_path)
        return self._write_cache(rel_path, data, base)

    # --- public operations ---

    def fetch_pom(self, gav: Gav) -> str:
        try:
            path = self._ensure_cached(artifact_rel_path(gav, packaging="pom"))
        except NotFoundError as exc:
            raise NotFoundError(str(exc), gav=gav) from exc
        return path.read_text(encoding="utf-8")

    def fetch_artifact(self, gav: Gav, packaging: str = "jar",
                       classifier: str | None = None) -> Path:
        try:
            return self._ensure_cached(artifact_rel_path(gav, packaging, classifier))
        except NotFoundError as exc:
            raise NotFoundError(str(exc), gav=gav) from exc

    def source_of(self, gav: Gav, packaging: str = "jar",
                  classifier: str | None = None) -> str:
        """Base URL the cached artifact came from, or 'local' if unknown."""
        cached = self.config.local_repo_root / artifact_rel_path(gav, packaging, classifier)
        marker = cached.parent / (cached.name + _SOURCE_SUFFIX)
        if marker.is_file():
            return marker.read_text(encoding="utf-8").strip()
        return "local"

    def checksum_local(self, gav: Gav, packaging: str = "jar", algorithm: str = "sha256",
                       classifier: str | None = None) -> ChecksumRecord:
        """Digest computed over the cached artifact bytes (fetching if permitted)."""
        try:
            path = self._ensure_cached(artifact_rel_path(gav, packaging, classifier))
        except OfflineError as exc:
            raise NotFoundError(str(exc)) from exc
        digest = hashlib.new(algorithm)
        with path.open("rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
        return ChecksumRecord(algorithm=algorithm, digest=digest.hexdigest(), mode="local")

    def checksum_remote(self, gav: Gav, packaging: str = "jar", algorithm: str = "sha256",
                        classifier: str | None = None) -> ChecksumRecord:
        """Digest published by the repository as a sidecar file. Never cached."""
        record, _ = self.checksum_remote_with_source(gav, packaging, algorithm, classifier)
        return record

    def checksum_remote_with_source(self, gav: Gav, packaging: str = "jar",
                                    algorithm: str = "sha256",
                                    classifier: str | None = None) -> tuple[ChecksumRecord, str]:
        if self.config.offline:
            raise OfflineError("remote checksum mode requires remote access")
        if algorithm not in ALGORITHMS:
            raise IntegrityFormatError(f"unknown checksum algorithm {algorithm!r}")
        rel = artifact_rel_path(gav, packaging, classifier) + "." + algorithm
        try:
            data, base = self._fetch_remote(rel)
        except NotFoundError as exc:
            raise ChecksumUnavailableError(
                f"no {algorithm} checksum published for {gav}", gav=gav
            ) from exc
        try:
            record = parse_checksum_text(data.decode("utf-8", "replace"), algorithm, "remote")
        except IntegrityFormatError as exc:
            raise IntegrityFormatError(
                f"{gav}: bad checksum at {base.rstrip('/')}/{rel}: {exc}", gav=gav
            ) from exc
        return record, base

    def list_versions(self, group_id: str, artifact_id: str) -> list[str]:
        """Published versions, ascending.

        Online, every call refetches the metadata and writes its cached copy
        only when that copy is missing or differs. A run that must see one
        snapshot reads through a ``Session``, which calls this once per
        (group, artifact).
        """
        rel = metadata_rel_path(group_id, artifact_id)
        cached = self.config.local_repo_root / rel
        if self.config.offline:
            if not cached.is_file():
                raise NotFoundError(f"no cached version metadata for {group_id}:{artifact_id}")
            data = cached.read_bytes()
        else:
            data, _ = self._fetch_remote(rel)
            if _read_or_none(cached) != data:
                self._write_cache(rel, data, None)
        try:
            root = ET.fromstring(data)
        except ET.ParseError as exc:
            raise IntegrityFormatError(
                f"malformed version metadata for {group_id}:{artifact_id}: {exc}"
            ) from exc
        versions = [
            (el.text or "").strip()
            for el in root.findall("./versioning/versions/version")
        ]
        return sorted_versions(v for v in versions if v)
