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
from .pom import PomModel, pom_to_xml
from .resolver import mediate_scope

FROZEN_POM_NAME = "pom.lockfile.xml"


@dataclass
class FrozenPom:
    base: PomModel
    direct_overrides: dict[tuple[str, str], str]
    managed_pins: list[tuple[str, str, str, str]]  # (group, artifact, version, scope)
    source_lockfile_digest: str = field(default="", compare=False)


def _occurrence_scopes(forest: list[LockedDependency]) -> dict[tuple[str, str], list[str]]:
    """Every recorded scope per (group, artifact), in forest order."""
    table: dict[tuple[str, str], list[str]] = {}
    for entry in iter_entries(forest):
        table.setdefault(entry.ga, []).append(entry.scope)
    return table


def _pin_scope(ga: tuple[str, str], occurrences: dict[tuple[str, str], list[str]]) -> str:
    scopes = occurrences.get(ga)
    if not scopes:
        raise MvnlockError(f"internal error: {ga[0]}:{ga[1]} not present in forest")
    return mediate_scope(scopes)


def scope_for_pin(ga: tuple[str, str], forest: list[LockedDependency]) -> str:
    """Scope a managed pin should carry for an artifact present in the forest.

    test must never leak onto an artifact that any non-test path needs, so a
    pin is test-scoped only when every occurrence in the forest is; otherwise
    the highest-precedence non-test scope wins (compile > runtime > provided).
    """
    return _pin_scope(ga, _occurrence_scopes(forest))


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

    # one occurrence table for all pins, not one scan of the forest per pin
    occurrences = _occurrence_scopes(lockfile.dependencies)
    pins = sorted(
        (e.ga[0], e.ga[1], e.version, _pin_scope(e.ga, occurrences))
        for e in lockfile.flattened()
        if not e.direct
    )
    digest = hashlib.sha256(serialize(lockfile)).hexdigest()
    return FrozenPom(base=pom, direct_overrides=overrides, managed_pins=pins,
                     source_lockfile_digest=digest)


# --- XML emission ---


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1] if "}" in tag else tag


def _find(parent: ET.Element, name: str) -> ET.Element | None:
    for child in parent:
        if _local(child.tag) == name:
            return child
    return None


def _child_text(parent: ET.Element, name: str) -> str:
    # explicit None check: ElementTree leaves are falsy, `or` would eat them
    child = _find(parent, name)
    if child is None or child.text is None:
        return ""
    return child.text.strip()


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


def _interp(value: str | None, properties: dict[str, str]) -> str | None:
    if value is None or "${" not in value:
        return value
    out = value
    for _ in range(10):
        changed = False
        for name, repl in properties.items():
            token = "${" + name + "}"
            if token in out:
                out = out.replace(token, repl)
                changed = True
        if not changed:
            break
    return out


def emit_frozen_xml(frozen: FrozenPom) -> str:
    """Render the frozen manifest: the original XML plus overrides and pins."""
    base_xml = frozen.base.source_xml or pom_to_xml(frozen.base)
    root = ET.fromstring(base_xml)
    q = lambda name: _qname(root.tag, name)
    if root.tag.startswith("{"):
        ET.register_namespace("", root.tag[1:].split("}")[0])

    properties: dict[str, str] = dict(frozen.base.properties)
    if frozen.base.group_id:
        properties["project.groupId"] = frozen.base.group_id
    properties["project.artifactId"] = frozen.base.artifact_id
    if frozen.base.version:
        properties["project.version"] = frozen.base.version

    # replace direct dependency versions in place
    deps_el = _find(root, "dependencies")
    present: set[tuple[str, str]] = set()
    if deps_el is not None:
        for dep in deps_el:
            if _local(dep.tag) != "dependency":
                continue
            ga = (_interp(_child_text(dep, "groupId"), properties),
                  _interp(_child_text(dep, "artifactId"), properties))
            version = frozen.direct_overrides.get(ga)
            if version is None:
                continue
            present.add(ga)
            version_el = _find(dep, "version")
            if version_el is None:
                version_el = _leaf(dep, q("version"), version, 3)
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
    dm_el = _find(root, "dependencyManagement")
    if dm_el is None:
        dm_el = _append_child(root, q("dependencyManagement"), 1)
    managed_el = _find(dm_el, "dependencies")
    if managed_el is None:
        managed_el = _append_child(dm_el, q("dependencies"), 2)
    pinned = {(g, a) for g, a, _, _ in frozen.managed_pins}
    for existing in list(managed_el):
        if _local(existing.tag) != "dependency":
            continue
        ga = (_interp(_child_text(existing, "groupId"), properties),
              _interp(_child_text(existing, "artifactId"), properties))
        if ga in pinned:
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
