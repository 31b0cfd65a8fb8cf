"""Multi-module project discovery: module enumeration and parent loading."""

from __future__ import annotations

import threading
from pathlib import Path

from .errors import NotFoundError, ParentResolutionError, PomModelError
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


def load_project(root: Path, repo=None) -> list[ProjectModule]:
    """Parse the root manifest and every module it aggregates, recursively.

    Parent references resolve against project-local manifests first, then the
    repository when one is given. Module order is root first, then declaration
    order depth-first, which keeps all per-module output deterministic.
    """
    root = Path(root)
    raw: list[tuple[str, Path, PomModel]] = []

    def visit(rel: str, directory: Path) -> None:
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
            visit(child_rel, child_dir)

    visit(".", root)

    local_poms = {_raw_gav(model): model for _, _, model in raw}
    session = session_of(repo) if repo is not None else None

    def parent_loader(gav: Gav) -> PomModel:
        if gav in local_poms:
            return local_poms[gav]
        if session is not None:
            return session.pom_model(gav)
        raise ParentResolutionError(f"parent {gav} not found in project", gav)

    return [
        ProjectModule(rel, directory, effective_pom(model, parent_loader))
        for rel, directory, model in raw
    ]


def for_each(items: list, worker, workers: int) -> list:
    """Apply worker to every item, ``workers`` at a time; results in item order.

    At most ``workers`` threads take the items in item order, one at a time.
    Once a call fails, no thread takes another item, so every item before the
    failed one has been started; the first error in item order is raised once
    every started call has returned. With one worker or one item, the calls
    run in order on the calling thread, which stops at the first error.

    This is the package's one thread pool, and no worker opens another, so a
    command never runs more than ``workers`` threads besides its own: generate
    calls it once per pass (resolve the modules, then fetch and hash their
    distinct artifacts) and assembles the lockfiles itself, one by one.
    """
    if workers <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    results: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    indices = iter(range(len(items)))
    lock = threading.Lock()

    def take() -> None:
        while True:
            with lock:
                index = None if errors else next(indices, None)
            if index is None:
                return
            try:
                results[index] = worker(items[index])
            except BaseException as exc:  # raised on the calling thread below
                with lock:
                    errors[index] = exc

    threads = [threading.Thread(target=take) for _ in range(min(workers, len(items)))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return results
