"""One resolution session per run: every repository question answered once.

A command resolves many modules, and their dependency graphs overlap. A
``Session`` sits above any repository handle (``MavenRepository``, or any
object with the same methods) and memoizes, for the whole run, version
listings per (group, artifact), manifest text plus its parsed and effective
models per ``Gav``, and provenance and checksums per artifact and algorithm.
All modules therefore read one snapshot of the repository: a version
published while the run is in progress is seen by none of them or by all.

Each key is computed single-flight. Concurrent callers asking for the same
key wait on the first caller's future instead of fetching again, and a
failure reaches every one of them. The session starts no threads.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Callable, TypeVar

from .pom import EffectivePom, Gav, PomModel, effective_pom, parse_pom

T = TypeVar("T")


class Session:
    """Memoizing, single-flight view of one repository for the length of a run."""

    def __init__(self, repo):
        self.repo = repo
        self._lock = threading.Lock()
        self._results: dict[tuple, Future] = {}

    def _once(self, key: tuple, compute: Callable[[], T]) -> T:
        with self._lock:
            future = self._results.get(key)
            owner = future is None
            if owner:
                future = self._results[key] = Future()
        if owner:
            try:
                future.set_result(compute())
            except BaseException as exc:  # handed to every caller by result() below
                future.set_exception(exc)
        return future.result()

    # --- resolution inputs ---

    def list_versions(self, group_id: str, artifact_id: str) -> list[str]:
        listed = self._once(("list_versions", group_id, artifact_id),
                            lambda: tuple(self.repo.list_versions(group_id, artifact_id)))
        return list(listed)

    def fetch_pom(self, gav: Gav) -> str:
        return self._once(("fetch_pom", gav), lambda: self.repo.fetch_pom(gav))

    def pom_model(self, gav: Gav) -> PomModel:
        """Parsed manifest of ``gav``, as published (no inheritance applied)."""
        return self._once(("pom_model", gav), lambda: parse_pom(self.fetch_pom(gav)))

    def effective_model(self, gav: Gav) -> EffectivePom:
        """Effective manifest of ``gav``; parents load through the same session."""
        return self._once(("effective_model", gav),
                          lambda: effective_pom(self.pom_model(gav),
                                                parent_loader=self.pom_model))

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
