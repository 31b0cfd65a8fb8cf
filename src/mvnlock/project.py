"""Multi-module project discovery, a command's one thread pool, and the read-ahead passes."""

from __future__ import annotations

import queue
import threading
from pathlib import Path
from typing import Callable

from .errors import NotFoundError, ParentResolutionError, PomModelError, PropertyResolutionError
from .pom import EffectivePom, Gav, PomModel, effective_pom, parse_pom
from .records import Record
from .session import session_of


class ProjectModule(Record):
    __slots__ = ("rel_path", "directory", "effective")

    def __init__(self, rel_path: str, directory: Path, effective: EffectivePom):
        self.rel_path = rel_path  # "." for the root module
        self.directory = directory
        self.effective = effective

    @property
    def gav(self) -> Gav:
        return self.effective.coordinates


def _raw_gav(model: PomModel) -> Gav:
    """Coordinates of a freshly parsed manifest, borrowing from <parent> if needed."""
    group = model.group_id or (model.parent.group_id if model.parent else None)
    version = model.version or (model.parent.version if model.parent else None)
    if not group or not version:
        raise PomModelError(f"cannot determine coordinates of {model.artifact_id}")
    return Gav(group, model.artifact_id, version)


def _discover(rel: str, directory: Path, raw: list[tuple[str, Path, PomModel]]) -> None:
    """Append the module at ``directory`` to ``raw``, then the modules it aggregates."""
    pom_path = directory / "pom.xml"
    if not pom_path.is_file():
        raise NotFoundError(f"module path {rel!r} has no pom.xml")
    model = parse_pom(pom_path.read_text(encoding="utf-8"))
    raw.append((rel, directory, model))
    for module in model.modules:
        child_rel = module if rel == "." else f"{rel}/{module}"
        child_dir = directory / module
        if not child_dir.is_dir():
            raise NotFoundError(f"module path {child_rel!r} does not exist")
        _discover(child_rel, child_dir, raw)


def load_project(root: Path, repo=None) -> list[ProjectModule]:
    """Parse the root manifest and every module it aggregates, recursively.

    Parent references resolve against project-local manifests first, then the
    repository when one is given. Module order is root first, then declaration
    order depth-first, which keeps all per-module output deterministic.
    """
    raw: list[tuple[str, Path, PomModel]] = []
    _discover(".", Path(root), raw)

    local_poms = {_raw_gav(model): model for _, _, model in raw}
    session = session_of(repo) if repo is not None else None

    def parent_loader(gav: Gav) -> PomModel:
        if gav in local_poms:
            return local_poms[gav]
        if session is not None:
            return session.pom_model(gav)
        raise ParentResolutionError(f"parent {gav} not found in project", gav)

    def effective(rel: str, model: PomModel) -> EffectivePom:
        try:
            return effective_pom(model, parent_loader)
        except PropertyResolutionError as exc:  # a cycle too; the class is kept
            raise type(exc)(f"module {rel}: {exc}") from exc

    return [
        ProjectModule(rel, directory, effective(rel, model))
        for rel, directory, model in raw
    ]


class Pool:
    """The command's one set of worker threads: at most ``workers``, started as work arrives.

    Threads here only wait: a call is queued only when it fills the cache,
    fetches over the network or reads a cached file larger than 128 KiB
    (``MavenRepository.read_waits``). Resolution, comparison and every small
    read stay on the calling thread, where they finish faster than they
    could be handed to a thread and back. ``submit`` is the one way in: it
    queues a call and returns at once, and the call keeps its own outcome,
    in a ``Session`` cell. A thread starts only when a call is queued, so a
    command that queues nothing runs no thread besides its own, and even one
    worker is a thread of its own. Leaving the ``with`` block lets every
    queued call finish and joins every thread, so every outcome is in place
    once the block is left.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"a pool needs at least one worker, not {workers}")
        self.workers = workers
        self._calls: queue.SimpleQueue = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()

    def __enter__(self) -> Pool:
        return self

    def __exit__(self, *exc_info) -> None:
        for _ in self._threads:
            self._calls.put(None)
        for thread in self._threads:
            thread.join()

    def submit(self, call: Callable[[], object]) -> None:
        """Run ``call()`` on a pool thread; what it returns or raises is dropped.

        A caller that needs the outcome reads it from where ``call`` keeps it,
        such as a ``Session`` cell.
        """
        self._calls.put(call)
        with self._lock:
            if len(self._threads) < self.workers:
                thread = threading.Thread(target=self._serve)
                self._threads.append(thread)
                thread.start()

    def _serve(self) -> None:
        while (call := self._calls.get()) is not None:
            try:
                call()
            except Exception:  # the call's owner keeps its outcome, see submit
                pass


def read_ahead(modules: list, prepare: Callable, read: Callable, waits: Callable,
               workers: int) -> list:
    """Passes 1 and 2 of generate and validate: prepare every module, then read ahead.

    ``prepare(module, pool)`` runs on the calling thread, in module order,
    and returns the module's outcome and the keys of the reads it needs.
    If ``waits(key)`` holds for at least one distinct key, ``read(key)`` then
    runs on the pool once per distinct key, and keeps its outcome in a
    ``Session`` cell. If no read waits, none is queued and no thread starts:
    the caller's pass 3 reads each key on its own thread, in its own order.
    Returns the outcomes in module order, a failed module's exception in its
    slot, once every queued read has finished.
    """
    outcomes, reads = [], {}
    with Pool(workers) as pool:
        for module in modules:
            try:
                outcome, keys = prepare(module, pool)
                reads.update(dict.fromkeys(keys))
            except Exception as exc:  # raised by the caller, in module order
                outcome = exc
            outcomes.append(outcome)
        if any(waits(key) for key in reads):
            for key in reads:
                pool.submit(lambda key=key: read(key))
    return outcomes
