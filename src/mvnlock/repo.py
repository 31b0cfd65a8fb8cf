"""Artifact repository client: remote fetches, local cache, checksums.

Remote repositories use the standard repository layout. ``file:`` URLs on
this host (offline mirrors and fixtures) are opened by path; http(s) and any
other scheme go through urllib, imported on first use. The local cache
mirrors the remote layout so it can double as a pre-populated build cache.
Every file the package writes goes through ``write_files`` (temp file, then
rename). A cache fill streams from the source into that temp file in
fixed-size chunks, so no run holds a whole artifact in memory, and a local
checksum of a freshly filled artifact is taken from those chunks as they
arrive instead of from a second read of the cached copy. Each cache fill
records the serving base URL in a provenance sidecar so the recorded package
source is stable across reruns.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import BinaryIO, Iterable, NamedTuple
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
from .records import Checked
from .versions import sorted_versions

ALGORITHMS = {"sha1": 40, "sha256": 64, "sha512": 128}
_HEX_RE = re.compile(r"^[0-9a-f]+$")
_SOURCE_SUFFIX = ".source"
_MISSING = (FileNotFoundError, IsADirectoryError, NotADirectoryError)
_CHUNK = 1 << 20  # files are opened unbuffered, so each read is one syscall of this size
_TEMP_IDS = itertools.count()  # with the pid, names a temp file no other writer uses


class _ChecksumFields(NamedTuple):
    algorithm: str
    digest: str
    mode: str  # "remote" | "local"


class ChecksumRecord(Checked, _ChecksumFields):
    __slots__ = ()

    def _check(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise IntegrityFormatError(f"unknown checksum algorithm {self.algorithm!r}")
        if len(self.digest) != ALGORITHMS[self.algorithm] or not _HEX_RE.match(self.digest):
            raise IntegrityFormatError(
                f"digest {self.digest!r} is not a valid {self.algorithm} value"
            )
        if self.mode not in ("remote", "local"):
            raise IntegrityFormatError(f"unknown checksum mode {self.mode!r}")


class RepositoryConfig(NamedTuple):
    local_repo_root: Path
    remote_base_urls: tuple[str, ...] = ()  # none: offline, only the cache is read
    timeout: float = 10.0

    @property
    def offline(self) -> bool:
        return not self.remote_base_urls


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


def write_files(files: list[tuple[Path, bytes | Iterable[bytes]]]) -> None:
    """Write every file or none; the one place the package writes a file.

    Each file's content is ``bytes`` or an iterable of byte chunks. Each file
    is staged as a temp file beside its target, then all are renamed over
    their targets in list order. If staging fails, the temp files are deleted
    and every target is left untouched. An ``OSError`` is raised as an
    ``MvnlockError`` naming the target it was writing; any other exception
    from a chunk iterator propagates as it is.

    A temp file is created with mode 0o666, so every file written gets the
    mode the umask leaves, as any other tool's output would. Its name carries
    this process's id and a per-process counter, so no other writer, thread
    or process, stages under the same name.
    """
    staged: list[tuple[str, Path]] = []
    renamed = 0
    try:
        for path, data in files:
            while True:
                tmp = f"{path}.{os.getpid()}.{next(_TEMP_IDS)}.tmp"
                try:
                    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                    break
                except FileExistsError:  # left by a killed run that had this pid
                    continue
            staged.append((tmp, path))
            with os.fdopen(fd, "wb") as handle:
                for chunk in (data,) if isinstance(data, bytes) else data:
                    handle.write(chunk)
        for tmp, path in staged:
            os.replace(tmp, path)
            renamed += 1
    except OSError as exc:
        raise MvnlockError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp, _ in staged[renamed:]:
            os.unlink(tmp)


def _transport_errors() -> tuple[type[Exception], ...]:
    """What a fetch can raise: OSError, and http.client's errors once urllib loaded it."""
    http = sys.modules.get("http.client")
    return (OSError, http.HTTPException) if http else (OSError,)


def _open(url: str, timeout: float) -> BinaryIO | None:
    """A binary stream of the bytes at url, or None when nothing is there."""
    parts = urlsplit(url)
    if parts.scheme == "file" and parts.netloc in ("", "localhost"):
        try:
            return open(unquote(parts.path), "rb", buffering=0)
        except _MISSING:
            return None
    # http.client, ssl and email load only for a repository that needs them
    import urllib.error
    import urllib.request
    try:
        return urllib.request.urlopen(url, timeout=timeout)
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            return None
        raise
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, _MISSING):
            return None
        raise


def _chunks(stream: BinaryIO, digest=None) -> Iterable[bytes]:
    """The stream's bytes in fixed-size chunks, each fed to ``digest`` if given."""
    for chunk in iter(lambda: stream.read(_CHUNK), b""):
        if digest is not None:
            digest.update(chunk)
        yield chunk


def _download(stream: BinaryIO, url: str, digest=None) -> Iterable[bytes]:
    """``_chunks`` of the stream fetched from url.

    A failed read, or a body that ends short of its length, raises
    ``TransportError`` naming the url.
    """
    try:
        yield from _chunks(stream, digest)
    except _transport_errors() as exc:
        raise TransportError(f"fetching {url}: {exc}") from exc
    # an http.client response whose Content-Length body is cut short reads as
    # a clean end of stream; only its remaining length tells
    missing = getattr(stream, "length", None)
    if missing:
        raise TransportError(f"fetching {url}: connection closed with {missing} "
                             "more bytes expected")


def _url(base: str, rel_path: str) -> str:
    return base.rstrip("/") + "/" + rel_path


class MavenRepository:
    """Fetch artifacts and checksums from remotes, caching under a local root."""

    def __init__(self, config: RepositoryConfig):
        self.config = config

    # --- low-level access ---

    def _fetch_remote(self, rel_path: str) -> tuple[BinaryIO, str]:
        """Try each remote in order; return (open stream, base url) of the first hit."""
        for base in self.config.remote_base_urls:
            url = _url(base, rel_path)
            try:
                stream = _open(url, self.config.timeout)
            except _transport_errors() as exc:
                raise TransportError(f"fetching {url}: {exc}") from exc
            if stream is not None:
                return stream, base
        raise NotFoundError(f"{rel_path} not found in any configured repository")

    def _fetch_bytes(self, rel_path: str) -> tuple[bytes, str]:
        """(bytes, base url) of the first remote that has rel_path; for small files."""
        stream, base = self._fetch_remote(rel_path)
        with stream:
            return b"".join(_download(stream, _url(base, rel_path))), base

    def _write_cache(self, rel_path: str, data: bytes | Iterable[bytes],
                     source: str | None) -> Path:
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

    def _ensure_cached(self, rel_path: str, digest=None) -> Path:
        """The cached copy of rel_path, streamed in from a remote when missing.

        With ``digest``, every byte of that copy goes into it exactly once:
        read back from the cache on a hit, or on its way in on a fill.
        """
        cached = self.config.local_repo_root / rel_path
        if cached.is_file():
            if digest is not None:
                with open(cached, "rb", buffering=0) as handle:
                    for _ in _chunks(handle, digest):
                        pass
            return cached
        if self.config.offline:
            raise OfflineError(f"offline and not cached: {rel_path}")
        stream, base = self._fetch_remote(rel_path)
        with stream:
            return self._write_cache(rel_path, _download(stream, _url(base, rel_path), digest),
                                     base)

    # --- public operations ---

    def is_cached(self, gav: Gav, packaging: str = "jar") -> bool:
        """Whether the artifact is in the local cache, so reading it fetches nothing."""
        return (self.config.local_repo_root / artifact_rel_path(gav, packaging)).is_file()

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
        """Digest of the cached artifact bytes (fetching if permitted).

        A fill hashes the bytes as they are written, so the digest is that of
        exactly the bytes renamed into the cache, and the copy is not read back.
        """
        digest = hashlib.new(algorithm)
        try:
            self._ensure_cached(artifact_rel_path(gav, packaging, classifier), digest)
        except OfflineError as exc:
            raise NotFoundError(str(exc)) from exc
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
            data, base = self._fetch_bytes(rel)
        except NotFoundError as exc:
            raise ChecksumUnavailableError(
                f"no {algorithm} checksum published for {gav}", gav=gav
            ) from exc
        try:
            record = parse_checksum_text(data.decode("utf-8", "replace"), algorithm, "remote")
        except IntegrityFormatError as exc:
            raise IntegrityFormatError(
                f"{gav}: bad checksum at {_url(base, rel)}: {exc}", gav=gav
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
            data, _ = self._fetch_bytes(rel)
            try:
                unchanged = cached.read_bytes() == data
            except _MISSING:
                unchanged = False
            if not unchanged:
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
