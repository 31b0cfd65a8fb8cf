"""Freezing: rewrite a manifest so its resolution is fully determined by a lockfile.

The frozen manifest (pom.lockfile.xml) replaces every direct dependency
version with the locked one and pins every transitive dependency in
dependencyManagement with the locked version and scope. A build run against
it reproduces the locked resolution even after the repositories move on.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from . import __version__
from .errors import MvnlockError, ModuleMismatchError, StaleLockfileError
from .lockfile import Lockfile, LockedDependency, iter_entries, serialize
from .pom import (
    PomModel,
    _child_map,
    _local_tag,
    _substitute,
    _text,
    property_table,
)
from .resolver import mediate_scope

FROZEN_POM_NAME = "pom.lockfile.xml"


@dataclass
class FrozenPom:
    base: PomModel
    direct_overrides: dict[tuple[str, str], str]
    managed_pins: list[tuple[str, str, str, str]]  # (group, artifact, version, scope)
    source_lockfile_digest: str = field(default="", compare=False)


def scope_for_pin(ga: tuple[str, str], forest: list[LockedDependency]) -> str:
    """Scope a managed pin should carry for an artifact present in the forest.

    test must never leak onto an artifact that any non-test path needs, so a
    pin is test-scoped only when every occurrence in the forest is; otherwise
    the highest-precedence non-test scope wins (compile > runtime > provided).
    """
    scopes = [entry.scope for entry in iter_entries(forest) if entry.ga == ga]
    if not scopes:
        raise MvnlockError(f"internal error: {ga[0]}:{ga[1]} not present in forest")
    return mediate_scope(scopes)


def freeze(pom: PomModel, lockfile: Lockfile) -> FrozenPom:
    """Compute overrides and pins. ``pom`` must carry concrete coordinates."""
    coords = pom.coordinates
    if coords != lockfile.module:
        raise ModuleMismatchError(
            f"lockfile is for {lockfile.module}, manifest is {coords}"
        )

    directs = {e.ga: e for e in lockfile.flattened() if e.direct}
    overrides: dict[tuple[str, str], str] = {}
    for decl in pom.dependencies:
        locked = directs.get(decl.ga)
        if locked is None:
            if decl.scope == "test" and not lockfile.config.include_test:
                continue  # deliberately unlocked; left untouched in the output
            raise StaleLockfileError(
                f"direct dependency {decl.group_id}:{decl.artifact_id} is not in the "
                "lockfile; regenerate it"
            )
        overrides[decl.ga] = locked.version

    # a parsed lockfile holds one entry per g:a, and generate records the scope
    # mediated over every occurrence (ResolvedTree.recorded_scope), so the
    # entry's own scope is the pin's
    pins = sorted(
        (e.group_id, e.artifact_id, e.version, e.scope)
        for e in lockfile.flattened()
        if not e.direct
    )
    digest = hashlib.sha256(serialize(lockfile)).hexdigest()
    return FrozenPom(base=pom, direct_overrides=overrides, managed_pins=pins,
                     source_lockfile_digest=digest)


# --- XML emission ---


def _dependency_children(parent: ET.Element | None) -> list[ET.Element]:
    if parent is None:
        return []
    return [child for child in parent if _local_tag(child) == "dependency"]


def _qname(root_tag: str, name: str) -> str:
    if root_tag.startswith("{"):
        return root_tag.split("}")[0] + "}" + name
    return name


def _pad(level: int) -> str:
    return "\n" + "  " * level


def _append_child(parent: ET.Element, tag: str, level: int) -> ET.Element:
    """Append an element keeping two-space block formatting consistent."""
    el = ET.Element(tag)
    el.tail = _pad(level - 1)
    if len(parent):
        parent[-1].tail = _pad(level)
    else:
        parent.text = _pad(level)
    parent.append(el)
    return el


def _leaf(parent: ET.Element, qname: str, text: str, level: int) -> ET.Element:
    el = _append_child(parent, qname, level)
    el.text = text
    return el


def emit_frozen_xml(frozen: FrozenPom) -> str:
    """Render the frozen manifest: the original XML plus overrides and pins."""
    if frozen.base.source_xml is None:
        raise MvnlockError(
            f"cannot freeze {frozen.base.artifact_id}: its model was not parsed from a pom.xml"
        )
    root = ET.fromstring(frozen.base.source_xml)
    q = lambda name: _qname(root.tag, name)
    if root.tag.startswith("{"):
        ET.register_namespace("", root.tag[1:].split("}")[0])

    # generate's ${} table, so coordinates read here match the locked ones
    table = property_table(frozen.base)

    def ga_of(children: dict[str, ET.Element]) -> tuple[str, str]:
        return (_substitute(_text(children.get("groupId")) or "", table),
                _substitute(_text(children.get("artifactId")) or "", table))

    # replace direct dependency versions in place
    deps_el = _child_map(root).get("dependencies")
    present: set[tuple[str, str]] = set()
    for dep in _dependency_children(deps_el):
        children = _child_map(dep)
        ga = ga_of(children)
        version = frozen.direct_overrides.get(ga)
        if version is None:
            continue
        present.add(ga)
        version_el = children.get("version")
        if version_el is None:
            _leaf(dep, q("version"), version, 3)
        else:
            version_el.text = version

    # direct dependencies only visible through inheritance get declared outright
    missing = [d for d in frozen.base.dependencies
               if d.ga in frozen.direct_overrides and d.ga not in present]
    if missing:
        if deps_el is None:
            deps_el = _append_child(root, q("dependencies"), 1)
        for decl in missing:
            dep_el = _append_child(deps_el, q("dependency"), 2)
            _leaf(dep_el, q("groupId"), decl.group_id, 3)
            _leaf(dep_el, q("artifactId"), decl.artifact_id, 3)
            _leaf(dep_el, q("version"), frozen.direct_overrides[decl.ga], 3)
            if decl.scope_explicit:
                _leaf(dep_el, q("scope"), decl.scope, 3)
            if decl.exclusions:
                excl_el = _append_child(dep_el, q("exclusions"), 3)
                for eg, ea in decl.exclusions:
                    e = _append_child(excl_el, q("exclusion"), 4)
                    _leaf(e, q("groupId"), eg, 5)
                    _leaf(e, q("artifactId"), ea, 5)

    # pin every transitive in dependencyManagement, overriding key collisions
    dm_el = _child_map(root).get("dependencyManagement")
    if dm_el is None:
        dm_el = _append_child(root, q("dependencyManagement"), 1)
    managed_el = _child_map(dm_el).get("dependencies")
    if managed_el is None:
        managed_el = _append_child(dm_el, q("dependencies"), 2)
    pinned = {(g, a) for g, a, _, _ in frozen.managed_pins}
    for existing in _dependency_children(managed_el):
        if ga_of(_child_map(existing)) in pinned:
            managed_el.remove(existing)
    for group, artifact, version, scope in frozen.managed_pins:
        dep_el = _append_child(managed_el, q("dependency"), 3)
        _leaf(dep_el, q("groupId"), group, 4)
        _leaf(dep_el, q("artifactId"), artifact, 4)
        _leaf(dep_el, q("version"), version, 4)
        _leaf(dep_el, q("scope"), scope, 4)

    header = (
        f"<!-- generated by mvnlock {__version__}; "
        f"source lockfile sha256:{frozen.source_lockfile_digest} -->"
    )
    body = ET.tostring(root, encoding="unicode")
    if not body.endswith("\n"):
        body += "\n"
    return f'<?xml version="1.0" encoding="UTF-8"?>\n{header}\n{body}'
