"""One resolution session per run: every repository question answered once.

A command resolves many modules, and their dependency graphs overlap. A
``Session`` sits above any repository handle (``MavenRepository``, or any
object with the same methods) and memoizes, for the whole run, version
listings per (group, artifact), two models per manifest ``Gav``, and
provenance and checksums per artifact and algorithm. The models are the
parsed one, read from text fetched once and not kept, and the effective
one, interpolated by ``effective_pom``. All modules therefore read one
snapshot of the repository: a version published while the run is in
progress is seen by none of them or by all.

Each key is computed single-flight. The first caller asking for a key
computes it into a cell, holding the cell's lock until its outcome is set;
concurrent callers asking for the same key wait on that lock instead of
fetching again, and receive its result, or its exception, which thereby
reaches every one of them. The session starts no threads: ``prefetch`` hands
a manifest whose read waits (``repo.read_waits``) to the caller's ``Pool``,
whose thread fills the cell the resolver reads later, and generate and
validate queue their checksums there the same way when one of them waits. The
cell, not the pool, is where every outcome of pool work is kept: the pool
thread drops what the call raised, and the caller that reads the key next
raises it, in its own order.
"""

from __future__ import annotations

import threading
from typing import Callable, TypeVar

from .pom import EffectivePom, Gav, PomModel, effective_pom, parse_pom

T = TypeVar("T")


class _Cell:
    """One key's outcome: its value or its exception, readable once ``lock`` is free.

    The cell is created with its lock held, and its owner releases it when
    the outcome is set; a lock costs a small fraction of an ``Event``, and a
    run creates a cell for every key it reads.
    """

    __slots__ = ("lock", "value", "error")

    def __init__(self):
        self.lock = threading.Lock()
        self.lock.acquire()
        self.value = None
        self.error: BaseException | None = None


class Session:
    """Memoizing, single-flight view of one repository for a run; it keeps all pool outcomes."""

    def __init__(self, repo):
        self.repo = repo
        self._lock = threading.Lock()
        self._results: dict[tuple, _Cell] = {}

    def _once(self, key: tuple, compute: Callable[[], T]) -> T:
        with self._lock:
            cell = self._results.get(key)
            owner = cell is None
            if owner:
                cell = self._results[key] = _Cell()
        if owner:
            try:
                cell.value = compute()
            except BaseException as exc:  # handed to every caller below
                cell.error = exc
            cell.lock.release()
        else:
            with cell.lock:
                pass
        if cell.error is not None:
            raise cell.error
        return cell.value

    # --- resolution inputs ---

    def list_versions(self, group_id: str, artifact_id: str) -> list[str]:
        listed = self._once(("list_versions", group_id, artifact_id),
                            lambda: tuple(self.repo.list_versions(group_id, artifact_id)))
        return list(listed)

    def pom_model(self, gav: Gav) -> PomModel:
        """Parsed manifest of ``gav``, as published (no inheritance applied)."""
        return self._once(("pom_model", gav), lambda: parse_pom(self.repo.fetch_pom(gav)))

    def effective_model(self, gav: Gav) -> EffectivePom:
        """Effective manifest of ``gav``; parents load through the same session."""
        return self._once(("effective_model", gav),
                          lambda: effective_pom(self.pom_model(gav),
                                                parent_loader=self.pom_model))

    def prefetch(self, gav: Gav, pool) -> None:
        """Load ``gav``'s effective model on ``pool`` if reading its manifest waits.

        The rule is the one for every read (``repo.read_waits``): a manifest
        that must be fetched, or a cached one over its size limit, goes to a
        thread; any other is read and parsed on the caller's thread when it
        asks for the model. A failure stays in the cell, so the caller that
        asks next receives it.
        """
        if (("effective_model", gav) not in self._results
                and self.repo.read_waits("local", gav, "pom")):
            pool.submit(lambda: self.effective_model(gav))

    # --- provenance and checksums ---

    def source_of(self, gav: Gav, packaging: str = "jar",
                  classifier: str | None = None) -> str:
        return self._once(("source_of", gav, packaging, classifier),
                          lambda: self.repo.source_of(gav, packaging, classifier))

    def checksum_local(self, gav: Gav, packaging: str = "jar", algorithm: str = "sha256",
                       classifier: str | None = None):
        return self._once(("checksum_local", gav, packaging, classifier, algorithm),
                          lambda: self.repo.checksum_local(gav, packaging, algorithm,
                                                           classifier))

    def checksum_remote(self, gav: Gav, packaging: str = "jar", algorithm: str = "sha256",
                        classifier: str | None = None):
        return self._once(("checksum_remote", gav, packaging, classifier, algorithm),
                          lambda: self.repo.checksum_remote(gav, packaging, algorithm,
                                                            classifier))

    def checksum_remote_with_source(self, gav: Gav, packaging: str = "jar",
                                    algorithm: str = "sha256",
                                    classifier: str | None = None):
        return self._once(
            ("checksum_remote_with_source", gav, packaging, classifier, algorithm),
            lambda: self.repo.checksum_remote_with_source(gav, packaging, algorithm,
                                                          classifier),
        )


def session_of(repo) -> Session:
    """``repo`` itself when it already is a session, else a new session over it."""
    return repo if isinstance(repo, Session) else Session(repo)
