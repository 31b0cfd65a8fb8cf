"""Multi-module project discovery: module enumeration and parent loading."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .errors import NotFoundError, ParentResolutionError, PomModelError
from .pom import EffectivePom, Gav, PomModel, effective_pom, parse_pom
from .session import session_of


@dataclass
class ProjectModule:
    rel_path: str  # "." for the root module
    directory: Path
    effective: EffectivePom

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

    The first error in item order propagates once every started call is done.
    This is the package's one thread pool, and no worker opens another, so a
    command never runs more than ``workers`` threads besides its own: generate
    calls it once per pass (resolve the modules, then fetch and hash their
    distinct artifacts) and assembles the lockfiles itself, one by one.
    """
    if workers <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, items))
