"""Artifact repository client: remote fetches, local cache, checksums.

Remote repositories use the standard repository layout. ``file:`` URLs on
this host (offline mirrors and fixtures) are opened by path; http(s) and any
other scheme go through urllib, imported on first use. The local cache
mirrors the remote layout so it can double as a pre-populated build cache.
Every file the package writes goes through ``write_files`` (temp file, then
rename). A cache fill streams from the source into that temp file in
fixed-size chunks, so no run holds a whole artifact in memory, and a local
checksum of a freshly filled artifact, like the text of a manifest, is taken
from those chunks as they arrive instead of from a second read of the cached
copy. Each cache fill records the serving base URL in a provenance sidecar
so the recorded package source is stable across reruns. The sidecars of one
base are hard links to one file under ``.mvnlock/`` in the cache, so a fill
creates one new file, not two; where the file system refuses the link, a
sidecar is a file of its own with the same text.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import stat
import sys
import threading
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
_SHARED_DIR = ".mvnlock"  # in the cache root: one file per base that its sidecars link to
_MISSING = (FileNotFoundError, IsADirectoryError, NotADirectoryError)
_CHUNK = 1 << 20  # files are opened unbuffered, so each read is one syscall of this size
# a cached file up to this size is read and hashed faster on the calling thread
# than on the pool; larger ones hash in parallel there (measured: CHANGES.md)
_READ_HERE_MAX = 128 << 10
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


class HardLink(NamedTuple):
    """File content given as a hard link to ``shared``, a file that holds ``data``."""
    shared: Path
    data: bytes


def write_files(files: list[tuple[Path, bytes | Iterable[bytes] | HardLink]]) -> None:
    """Write every file or none; the one place the package writes a file.

    Each file's content is ``bytes``, an iterable of byte chunks, or a
    ``HardLink``. Each file is staged under a temp name beside its target,
    then all are renamed over their targets in list order. If staging fails,
    the staged files are deleted and every target is left untouched. An
    ``OSError`` is raised as an ``MvnlockError`` naming the target it was
    writing; any other exception from a chunk iterator propagates as it is.

    A ``HardLink`` is staged as a new link to its shared file. Where the file
    system refuses the link (any ``OSError``: no hard links, a link limit,
    another device, or a policy such as ``protected_hardlinks``), its
    ``data`` is written as a file of its own instead.

    A temp file is created with mode 0o666, so every file written gets the
    mode the umask leaves, as any other tool's output would. Its name carries
    this process's id and a per-process counter, so no other writer, thread
    or process, stages under the same name.
    """
    staged: list[tuple[str, Path]] = []
    renamed = 0
    try:
        for path, data in files:
            shared = None
            if isinstance(data, HardLink):
                shared, data = data
            while True:
                tmp = f"{path}.{os.getpid()}.{next(_TEMP_IDS)}.tmp"
                try:
                    if shared is None:
                        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                    else:
                        os.link(shared, tmp)
                    break
                except FileExistsError:  # left by a killed run that had this pid
                    continue
                except OSError:
                    if shared is None:
                        raise
                    shared = None  # the link was refused: write the data instead
            staged.append((tmp, path))
            if shared is None:
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


def _local_path(url: str) -> str | None:
    """The path a ``file:`` URL on this host names; None for any other URL."""
    parts = urlsplit(url)
    if parts.scheme == "file" and parts.netloc in ("", "localhost"):
        return unquote(parts.path)
    return None


def _open(url: str, timeout: float) -> BinaryIO | None:
    """A binary stream of the bytes at url, or None when nothing is there."""
    path = _local_path(url)
    if path is not None:
        try:
            return open(path, "rb", buffering=0)
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


def _chunks(stream: BinaryIO, sink=None) -> Iterable[bytes]:
    """The stream's bytes in fixed-size chunks, each passed to ``sink`` if given."""
    for chunk in iter(lambda: stream.read(_CHUNK), b""):
        if sink is not None:
            sink(chunk)
        yield chunk


def _download(stream: BinaryIO, url: str, sink=None) -> Iterable[bytes]:
    """``_chunks`` of the stream fetched from url.

    A failed read, or a body that ends short of its length, raises
    ``TransportError`` naming the url.
    """
    try:
        yield from _chunks(stream, sink)
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
        self._shared_sources: dict[str, Path] = {}  # base -> its checked shared marker file
        self._shared_lock = threading.Lock()

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
                     source: str | None, what: str) -> Path:
        """Cache ``data`` at ``rel_path`` with a marker of ``source``; errors name ``what``."""
        path = self.config.local_repo_root / rel_path
        # the marker lands first: whoever sees the artifact also sees its source,
        # and a crash between the two leaves no artifact to misattribute. It is
        # a link to the base's shared file, so the fill creates one new file
        files = [(path, data)]
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if source is not None:
                text = (source + "\n").encode("utf-8")
                files.insert(0, (path.parent / (path.name + _SOURCE_SUFFIX),
                                 HardLink(self._shared_source(source, text), text)))
        except OSError as exc:  # only a mkdir raises it: a file where a directory goes
            raise MvnlockError(f"cannot create cache directory {exc.filename} for {what}: "
                               f"{exc.strerror or exc}") from exc
        write_files(files)
        return path

    def _shared_source(self, base: str, text: bytes) -> Path:
        """The file every marker of ``base`` links to, holding ``text``.

        It is read back once per base and written when it is missing or its
        text differs, so no marker links to a copy edited by hand. The check
        runs under a lock, so this handle's fills all link to one copy; other
        processes that race to write it write the same bytes.
        """
        with self._shared_lock:
            shared = self._shared_sources.get(base)
            if shared is None:
                shared = (self.config.local_repo_root / _SHARED_DIR /
                          (hashlib.sha256(base.encode("utf-8")).hexdigest() + _SOURCE_SUFFIX))
                try:
                    current = shared.read_bytes()
                except OSError:  # missing or unreadable: write it afresh
                    current = None
                if current != text:
                    shared.parent.mkdir(exist_ok=True)
                    write_files([(shared, text)])
                self._shared_sources[base] = shared
            return shared

    def _ensure_cached(self, rel_path: str, what: str, sink=None) -> None:
        """Make sure rel_path is cached, streaming it in from a remote when missing.

        With ``sink``, every chunk of that copy is passed to it once, in order:
        read from the cache on a hit, or on its way in on a fill, so the
        caller never reads the copy again. ``what`` names the coordinates of
        the file in a failure to find or fill it.
        """
        try:
            handle = open(self.config.local_repo_root / rel_path, "rb", buffering=0)
        except _MISSING:  # a miss, a directory in its place included
            if self.config.offline:
                raise OfflineError(f"offline and not cached: {what}") from None
        else:
            with handle:
                for _ in _chunks(handle, sink) if sink is not None else ():
                    pass
            return
        stream, base = self._fetch_remote(rel_path)
        with stream:
            self._write_cache(rel_path, _download(stream, _url(base, rel_path), sink), base, what)

    # --- public operations ---

    def read_waits(self, mode: str, gav: Gav, packaging: str = "jar",
                   classifier: str | None = None) -> bool:
        """Whether reading the artifact in ``mode`` can wait, so it is worth a thread.

        A remote read waits when some base is not a ``file:`` URL on this
        host. A local read waits when it fills the cache, or reads a cached
        file larger than ``_READ_HERE_MAX``, whose hashing releases the GIL.
        Any other read is a small file read, over before a thread would
        start; offline, a read of an uncached file fails at once. Only the
        config and the cache are consulted, never a remote.
        """
        if mode == "remote":
            return any(_local_path(base) is None for base in self.config.remote_base_urls)
        try:
            cached = os.stat(self.config.local_repo_root /
                             artifact_rel_path(gav, packaging, classifier))
        except OSError:
            cached = None
        if cached is None or not stat.S_ISREG(cached.st_mode):
            return not self.config.offline
        return cached.st_size > _READ_HERE_MAX

    def fetch_pom(self, gav: Gav) -> str:
        """The manifest's text, read once, with newlines as a text-mode read gives them."""
        chunks: list[bytes] = []
        try:
            self._ensure_cached(artifact_rel_path(gav, packaging="pom"), str(gav), chunks.append)
        except NotFoundError as exc:
            raise NotFoundError(str(exc), gav=gav) from exc
        return b"".join(chunks).decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")

    def source_of(self, gav: Gav, packaging: str = "jar",
                  classifier: str | None = None) -> str:
        """Base URL the cached artifact came from, or 'local' if unknown."""
        cached = self.config.local_repo_root / artifact_rel_path(gav, packaging, classifier)
        marker = cached.parent / (cached.name + _SOURCE_SUFFIX)
        try:
            return marker.read_text(encoding="utf-8").strip()
        except _MISSING:
            return "local"

    def checksum_local(self, gav: Gav, packaging: str = "jar", algorithm: str = "sha256",
                       classifier: str | None = None) -> ChecksumRecord:
        """Digest of the cached artifact bytes (fetching if permitted).

        A fill hashes the bytes as they are written, so the digest is that of
        exactly the bytes renamed into the cache, and the copy is not read back.
        """
        digest = hashlib.new(algorithm)
        try:
            self._ensure_cached(artifact_rel_path(gav, packaging, classifier), str(gav),
                                digest.update)
        except OfflineError as exc:
            raise NotFoundError(str(exc), gav=gav) from exc
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
                self._write_cache(rel, data, None, f"{group_id}:{artifact_id}")
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
