"""Exception hierarchy. Every failure the toolkit can raise derives from MvnlockError."""

from __future__ import annotations

from contextlib import contextmanager


class MvnlockError(Exception):
    """Base class for all toolkit errors."""


@contextmanager
def in_module(rel_path: str, error: type[MvnlockError] = MvnlockError):
    """Raise a failure inside the block as ``error("module <rel_path>: ...")``."""
    try:
        yield
    except MvnlockError as exc:
        raise error(f"module {rel_path}: {exc}") from exc


# --- manifest parsing / effective model ---

class PomParseError(MvnlockError):
    """Malformed XML input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class PomModelError(MvnlockError):
    """Structurally invalid manifest content (missing coordinates, bad scope, ...)."""


class UnsupportedPomFeatureError(PomModelError):
    """Manifest uses an element this tool deliberately refuses to interpret."""


class PropertyResolutionError(MvnlockError):
    """A ${...} reference cannot be resolved."""


class PropertyCycleError(PropertyResolutionError):
    """Property substitution did not converge within the depth limit."""


class ParentResolutionError(MvnlockError):
    """Parent manifest could not be loaded, or the parent chain is too deep/cyclic."""

    def __init__(self, message: str, parent_gav=None):
        super().__init__(message)
        self.parent_gav = parent_gav


class VersionSpecSyntaxError(MvnlockError):
    """Unparseable version constraint text."""


# --- resolution ---

class ResolutionError(MvnlockError):
    """Dependency graph expansion failed."""

    def __init__(self, message: str, gav=None, path=()):
        if path:
            message = f"{message} (path: {' -> '.join(str(g) for g in path)})"
        super().__init__(message)
        self.gav = gav
        self.path = tuple(path)


class EmptyRangeError(ResolutionError):
    """A version range matched none of the available versions."""


# --- repository access ---

class RepositoryError(MvnlockError):
    """Base for artifact repository failures."""

    def __init__(self, message: str, gav=None):
        super().__init__(message)
        self.gav = gav


class NotFoundError(RepositoryError):
    """Artifact, metadata, or cached file does not exist."""


class TransportError(RepositoryError):
    """Network-level failure talking to a remote repository."""


class OfflineError(RepositoryError):
    """Operation requires remote access but the configuration is offline."""


class ChecksumUnavailableError(RepositoryError):
    """The repository does not publish a checksum sidecar for the requested algorithm."""


class IntegrityFormatError(RepositoryError):
    """A checksum sidecar exists but its content is not a valid digest."""


# --- lockfiles ---

class LockfileError(MvnlockError):
    """Base for lockfile schema and generation failures."""


class LockfileSchemaError(LockfileError):
    """Document violates the lockfile schema."""


class UnsupportedLockfileVersionError(LockfileError):
    """lockfileVersion is not one this tool understands (no migration support)."""


class GenerationError(LockfileError):
    """Lockfile generation failed for one or more artifacts."""


class ModuleMismatchError(LockfileError):
    """Two documents that must describe the same module do not."""


class StaleLockfileError(LockfileError):
    """The lockfile no longer covers the manifest (e.g. a direct dependency is missing)."""
