"""Dependency graph resolution: breadth-first expansion with nearest-wins mediation.

The first occurrence of a (group, artifact) pair in breadth-first order wins;
later occurrences are recorded as unselected leaves and never expanded. Scope
derivation, exclusion accumulation, optional-transitive dropping, and root
dependencyManagement overrides follow standard Maven build semantics so the
recorded tree matches what a build would actually put on its classpaths.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from .errors import EmptyRangeError, MvnlockError, ResolutionError
from .pom import DependencyDecl, EffectivePom, Gav, VersionSpec
from .project import Pool
from .records import Record
from .session import session_of
from .versions import max_version

# transitive scope table: rows keyed by the scope of the edge into the parent,
# columns by the scope the dependency itself declares. None means "omitted".
_SCOPE_TABLE = {
    "compile": {"compile": "compile", "runtime": "runtime", "provided": None, "test": None},
    "provided": {"compile": "provided", "runtime": "provided", "provided": None, "test": None},
    "runtime": {"compile": "runtime", "runtime": "runtime", "provided": None, "test": None},
    "test": {"compile": "test", "runtime": "test", "provided": None, "test": None},
}

# precedence used when one artifact is reachable with several scopes
_SCOPE_PRECEDENCE = ("compile", "runtime", "provided")


def derive_scope(parent_edge_scope: str, declared_scope: str) -> str | None:
    """Effective scope of a transitive edge, or None when the edge is omitted."""
    return _SCOPE_TABLE[parent_edge_scope][declared_scope]


def mediate_scope(scopes: Iterable[str]) -> str:
    """Pick the scope an artifact should be recorded/pinned with.

    test loses to any other scope; among the rest, compile > runtime > provided.
    """
    seen = set(scopes)
    if not seen:
        raise MvnlockError("mediate_scope called with no occurrences")
    for candidate in _SCOPE_PRECEDENCE:
        if candidate in seen:
            return candidate
    return "test"


def resolve_range(spec: VersionSpec, available: list[str]) -> str:
    """Concrete version for a spec: pins pass through, ranges pick the highest match."""
    if spec.kind == "soft-pin":
        return spec.pin
    candidates = [v for v in available if spec.contains(v)]
    if not candidates:
        raise EmptyRangeError(
            f"no version in {available!r} satisfies range {spec.text!r}"
        )
    return max_version(candidates)


def apply_exclusions(
    decls: Iterable[DependencyDecl], excluded: frozenset[tuple[str, str]]
) -> list[DependencyDecl]:
    """Drop declarations matching any exclusion; '*' matches anything in its slot."""

    def hidden(decl: DependencyDecl) -> bool:
        return any(
            (eg in ("*", decl.group_id)) and (ea in ("*", decl.artifact_id))
            for eg, ea in excluded
        )

    return [d for d in decls if not hidden(d)]


class ResolvedNode(Record):
    __slots__ = ("gav", "effective_scope", "parent_path", "selected", "children",
                 "packaging", "classifier", "exclusions")

    def __init__(self, gav: Gav, effective_scope: str, parent_path: tuple[Gav, ...],
                 selected: bool, children: list[ResolvedNode] | None = None,
                 packaging: str = "jar", classifier: str | None = None,
                 exclusions: frozenset[tuple[str, str]] = frozenset()):
        self.gav = gav
        self.effective_scope = effective_scope
        self.parent_path = parent_path
        self.selected = selected
        self.children = [] if children is None else children
        self.packaging = packaging
        self.classifier = classifier
        self.exclusions = exclusions

    @property
    def ga(self) -> tuple[str, str]:
        return self.gav.ga

    @property
    def depth(self) -> int:
        """1 for a direct dependency: ``parent_path`` holds the root and each ancestor."""
        return len(self.parent_path)

    @property
    def artifact(self) -> tuple[Gav, str, str | None]:
        """(gav, packaging, classifier): the file this node resolves to, as checksums key it."""
        return (self.gav, self.packaging, self.classifier)


class ResolvedTree(Record):
    __slots__ = ("nodes", "warnings")

    def __init__(self, nodes: list[ResolvedNode], warnings: list[str] | None = None):
        self.nodes = nodes
        self.warnings = [] if warnings is None else warnings

    def walk(self) -> Iterator[ResolvedNode]:
        """All nodes (winners and mediation losers) in breadth-first order."""
        queue = deque(self.nodes)
        while queue:
            node = queue.popleft()
            yield node
            queue.extend(node.children)

    @property
    def flattened(self) -> list[ResolvedNode]:
        """Selected nodes in deterministic order: depth, then encounter order."""
        return [n for n in self.walk() if n.selected]

    def occurrence_scopes(self) -> dict[tuple[str, str], list[str]]:
        """Every recorded scope per (group, artifact), winners and losers alike."""
        table: dict[tuple[str, str], list[str]] = {}
        for node in self.walk():
            table.setdefault(node.ga, []).append(node.effective_scope)
        return table

    def recorded_scope(self, node: ResolvedNode,
                       occurrences: dict[tuple[str, str], list[str]]) -> str:
        """Scope a lockfile should record: direct nodes keep their declared scope,
        transitive winners get the mediated scope across every occurrence.

        ``occurrences`` is this tree's ``occurrence_scopes()``, built once by the caller.
        """
        if node.depth == 1:
            return node.effective_scope
        return mediate_scope(occurrences[node.ga])


def resolve(pom: EffectivePom, repo, include_test: bool = True,
            pool: Pool | None = None) -> ResolvedTree:
    """Resolve the complete dependency tree of an effective manifest.

    ``repo`` supplies node manifests (fetch_pom) and version listings
    (list_versions). Pass a ``Session`` to share listings and manifest models
    with the other modules of a run; any other repository handle gets a
    session of its own for this call.

    Resolution runs on the calling thread. With a ``pool``, each selected
    node whose manifest is not cached is handed to it as the node is queued,
    so the fetch overlaps the parsing of the nodes queued before it; on a
    warm cache nothing is handed over.
    """
    session = session_of(repo)
    root_gav = pom.coordinates
    root_dm = {d.ga: d for d in pom.dependency_management}
    warnings: list[str] = []
    winners: dict[tuple[str, str], ResolvedNode] = {}

    def load_effective(gav: Gav, path: tuple[Gav, ...]) -> EffectivePom:
        try:
            return session.effective_model(gav)
        except MvnlockError as exc:
            raise ResolutionError(
                f"cannot load manifest of {gav}: {exc}", gav=gav, path=path
            ) from exc

    def concrete_version(decl: DependencyDecl, managed: DependencyDecl | None,
                         path: tuple[Gav, ...]) -> str:
        # root dependencyManagement overrides transitive versions unconditionally
        spec = managed.version_spec if managed is not None and managed.version_spec else None
        if spec is None:
            spec = decl.version_spec
        if spec is None:
            raise ResolutionError(
                f"no version for {decl.group_id}:{decl.artifact_id}", path=path
            )
        if spec.kind == "soft-pin":
            return spec.pin
        try:
            available = session.list_versions(decl.group_id, decl.artifact_id)
        except MvnlockError as exc:
            raise ResolutionError(
                f"cannot list versions of {decl.group_id}:{decl.artifact_id}: {exc}",
                path=path,
            ) from exc
        try:
            return resolve_range(spec, available)
        except EmptyRangeError as exc:
            raise EmptyRangeError(f"{decl.group_id}:{decl.artifact_id}: {exc}",
                                  path=path) from exc

    def make_node(decl: DependencyDecl, parent: ResolvedNode | None) -> ResolvedNode | None:
        if parent is None:
            effective_scope = decl.scope
            path = (root_gav,)
            inherited_exclusions: frozenset[tuple[str, str]] = frozenset()
            managed = None
        else:
            effective_scope = derive_scope(parent.effective_scope, decl.scope)
            if effective_scope is None:
                return None
            path = parent.parent_path + (parent.gav,)
            inherited_exclusions = parent.exclusions
            managed = root_dm.get(decl.ga)
        version = concrete_version(decl, managed, path)
        if managed is not None and managed.scope_explicit:
            effective_scope = managed.scope
        gav = Gav(decl.group_id, decl.artifact_id, version)
        if gav in path:
            warnings.append(f"dependency cycle dropped: {gav} already on path "
                            f"{' -> '.join(str(g) for g in path)}")
            return None
        node = ResolvedNode(
            gav=gav,
            effective_scope=effective_scope,
            parent_path=path,
            selected=decl.ga not in winners,
            packaging=decl.packaging,
            classifier=decl.classifier,
            # most declarations add no exclusion: they share the inherited set
            exclusions=(inherited_exclusions.union(decl.exclusions) if decl.exclusions
                        else inherited_exclusions),
        )
        if node.selected:
            winners[decl.ga] = node
        return node

    queue: deque[ResolvedNode] = deque()
    forest: list[ResolvedNode] = []

    def enqueue(node: ResolvedNode) -> None:
        queue.append(node)
        if pool is not None:
            session.prefetch(node.gav, pool)

    for decl in pom.dependencies:
        if decl.scope == "test" and not include_test:
            continue
        node = make_node(decl, None)
        if node is None:
            continue
        forest.append(node)
        if node.selected:
            enqueue(node)

    while queue:
        node = queue.popleft()
        node_pom = load_effective(node.gav, node.parent_path)
        decls = [d for d in node_pom.dependencies if not d.optional_flag]
        for decl in apply_exclusions(decls, node.exclusions):
            child = make_node(decl, node)
            if child is None:
                continue
            node.children.append(child)
            if child.selected:
                enqueue(child)

    return ResolvedTree(nodes=forest, warnings=warnings)
