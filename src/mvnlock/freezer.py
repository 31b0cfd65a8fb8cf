"""Freezing: rewrite a manifest so its resolution is fully determined by a lockfile.

The frozen manifest (pom.lockfile.xml) replaces every direct dependency
version with the locked one and pins every transitive dependency in
dependencyManagement with the locked version and scope. A build run against
it reproduces the locked resolution even after the repositories move on.
Those edits are spliced into the text of pom.xml, so the rest stays as written.
"""

from __future__ import annotations

import hashlib
import re
from xml.parsers import expat

from . import __version__
from .errors import MvnlockError, StaleLockfileError
from .lockfile import Lockfile, LockedDependency, iter_entries, serialize
from .pom import PomModel, property_table, substitute
from .records import Record
from .resolver import mediate_scope


class FrozenPom(Record):
    """A manifest's frozen form; ``source_lockfile_digest`` takes no part in equality."""

    __slots__ = ("base", "direct_overrides", "managed_pins", "source_lockfile_digest")
    _uncompared = ("source_lockfile_digest",)

    def __init__(self, base: PomModel, direct_overrides: dict[tuple[str, str], str],
                 managed_pins: list[tuple[str, str, str, str]],
                 source_lockfile_digest: str = ""):
        self.base = base
        self.direct_overrides = direct_overrides
        self.managed_pins = managed_pins  # (group, artifact, version, scope)
        self.source_lockfile_digest = source_lockfile_digest


def scope_for_pin(ga: tuple[str, str], forest: list[LockedDependency]) -> str:
    """Scope a managed pin should carry for an artifact present in the forest.

    test must never leak onto an artifact that any non-test path needs, so a
    pin is test-scoped only when every occurrence in the forest is; otherwise
    the highest-precedence non-test scope wins (compile > runtime > provided).
    ``freeze`` does not call it: it uses each entry's recorded scope, which
    generate mediated by the same rule. Only tests and the acceptance gates
    call it, to check that rule on a forest.
    """
    scopes = [entry.scope for entry in iter_entries(forest) if entry.ga == ga]
    if not scopes:
        raise MvnlockError(f"internal error: {ga[0]}:{ga[1]} not present in forest")
    return mediate_scope(scopes)


def freeze(pom: PomModel, lockfile: Lockfile) -> FrozenPom:
    """Compute overrides and pins. ``pom`` must carry concrete coordinates."""
    lockfile.check_module(pom.coordinates)

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

_DECLARATION = re.compile(rb"(?:\xef\xbb\xbf)?(?:<\?xml\s.*?\?>)?\s*", re.S)  # BOM too
_START_TAG = re.compile(rb"""<(?:[^>"']|"[^"]*"|'[^']*')*>""")
_SPACE = re.compile(rb"[ \t\r\n]*")


class _Element:
    """An element of the manifest, placed by byte offsets into its UTF-8 text."""

    __slots__ = ("name", "q", "start", "end", "children", "text")

    def __init__(self, name: str, start: int):
        self.name, self.q = name, name[:name.rfind(":") + 1]  # q: its prefix and ":", or ""
        self.start = self.end = start  # end becomes expat's end offset: "</", or past "/>"
        self.children: list[_Element] = []
        self.text: list[str] = []  # its character data, in pieces

    def child(self, local: str) -> _Element | None:
        """The last child of that local name, the one parse_pom reads."""
        return next((c for c in reversed(self.children) if c.name == c.q + local), None)


def _scan(data: bytes) -> _Element:
    """The root of ``data``, read as UTF-8 whatever it declares, so offsets stay byte offsets."""
    parser = expat.ParserCreate(encoding="UTF-8")
    stack = [_Element("", 0)]

    def start(name, attributes):
        stack.append(_Element(name, parser.CurrentByteIndex))
        stack[-2].children.append(stack[-1])

    def end(name):
        stack.pop().end = parser.CurrentByteIndex

    parser.StartElementHandler, parser.EndElementHandler = start, end
    parser.CharacterDataHandler = lambda chars: stack[-1].text.append(chars)
    parser.Parse(data, True)
    # the handlers hold the parser: unset them, so that no cycle outlives the scan
    parser.StartElementHandler = parser.EndElementHandler = parser.CharacterDataHandler = None
    return stack[0].children[0]


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _block(items: list[str], level: int) -> str:
    """Items at ``level``, two spaces a level, then the indent of their parent's end tag."""
    return "".join(f"\n{'  ' * level}{item}" for item in items) + "\n" + "  " * (level - 1)


def _new(q: str, name: str, level: int, body: str | list[str]) -> str:
    """A new element at ``level`` holding text, or elements one level deeper."""
    inner = _escape(body) if isinstance(body, str) else _block(body, level + 1)
    return f"<{q}{name}>{inner}</{q}{name}>" if body else f"<{q}{name} />"


def _dependency(q: str, level: int, group: str, artifact: str, version: str,
                scope: str | None = None, exclusions: tuple = ()) -> str:
    leaves = (("groupId", group), ("artifactId", artifact), ("version", version), ("scope", scope))
    children = [_new(q, name, level + 1, text) for name, text in leaves if text is not None]
    if exclusions:
        children.append(_new(q, "exclusions", level + 1, [_new(q, "exclusion", level + 2, [
            _new(q, "groupId", level + 3, g), _new(q, "artifactId", level + 3, a)])
            for g, a in exclusions]))
    return _new(q, "dependency", level, children)


def emit_frozen_xml(frozen: FrozenPom) -> str:
    """Render the frozen manifest: the text of its pom.xml with overrides and pins spliced in."""
    base = frozen.base
    if base.source_xml is None:
        raise MvnlockError(
            f"cannot freeze {base.artifact_id}: its model was not parsed from a pom.xml"
        )
    data = base.source_xml.encode()
    root = _scan(data)
    table = property_table(base.properties, base.group_id, base.artifact_id, base.version,
                           base.parent)  # generate's, so coordinates read here match the lock
    edits: list[tuple[int, int, bytes]] = []  # (start, end, replacement) in data
    removed: dict[int, int] = {}  # end -> start of a replaced entry and the whitespace after it

    def set_content(element: _Element, content: str, begin: int | None = None) -> None:
        # from begin (by default its start tag's end) to its end tag; <x/> gains an end tag
        tag_end = _START_TAG.match(data, element.start).end()
        if data[tag_end - 2] != ord("/"):
            edits.append((tag_end if begin is None else begin, element.end, content.encode()))
        else:
            opened = element.start + len(data[element.start:tag_end - 2].rstrip())
            edits.append((opened, tag_end, f">{content}</{element.name}>".encode()))

    def append(parent: _Element, level: int, children: list[str]) -> None:
        # new children take the whitespace before the end tag, and replaced entries up to it
        begin = parent.end
        while begin in removed or data[begin - 1] in b" \t\r\n":
            begin = removed.pop(begin, begin - 1)
        set_content(parent, _block(children, level), begin)

    def dependencies(parent: _Element | None):
        for dep in parent.children if parent else ():
            if dep.name == dep.q + "dependency":
                yield dep, tuple(substitute("".join(el.text).strip() if el else "", table)
                                 for el in (dep.child("groupId"), dep.child("artifactId")))

    # replace direct dependency versions in place
    deps_el = root.child("dependencies")
    present: set[tuple[str, str]] = set()
    for dep, ga in dependencies(deps_el):
        version = frozen.direct_overrides.get(ga)
        if version is None:
            continue
        present.add(ga)
        version_el = dep.child("version")
        if version_el is None:
            append(dep, 3, [_new(dep.q, "version", 3, version)])
        else:
            set_content(version_el, _escape(version))

    # direct dependencies only visible through inheritance get declared outright
    new_root: list[str] = []  # the root's new children, appended in one edit
    q = (deps_el or root).q
    missing = [_dependency(q, 2, d.group_id, d.artifact_id, frozen.direct_overrides[d.ga],
                           d.scope if d.scope_explicit else None, d.exclusions)
               for d in base.dependencies
               if d.ga in frozen.direct_overrides and d.ga not in present]
    if missing and deps_el is None:
        new_root.append(_new(q, "dependencies", 1, missing))
    elif missing:
        append(deps_el, 2, missing)

    # pin every transitive in dependencyManagement, replacing entries for the same g:a
    dm_el = root.child("dependencyManagement")
    managed_el = dm_el and dm_el.child("dependencies")
    q = (managed_el or dm_el or root).q
    pins = [_dependency(q, 3, *pin) for pin in frozen.managed_pins]
    if dm_el is None:
        new_root.append(_new(q, "dependencyManagement", 1, [_new(q, "dependencies", 2, pins)]))
    elif managed_el is None:
        append(dm_el, 2, [_new(q, "dependencies", 2, pins)])
    elif pins:
        pinned = {(g, a) for g, a, _, _ in frozen.managed_pins}
        for dep, ga in dependencies(managed_el):
            if ga in pinned:  # it goes with the whitespace after it, as ElementTree's remove
                removed[_SPACE.match(data, data.index(b">", dep.end) + 1).end()] = dep.start
        append(managed_el, 3, pins)
    if new_root:
        append(root, 1, new_root)

    pieces, position = [], root.start
    for start, end, text in sorted(edits + [(s, e, b"") for e, s in removed.items()]):
        pieces += (data[position:start], text)
        position = end
    prolog = data[_DECLARATION.match(data).end():root.start]  # comments before <project>
    body = (prolog + b"".join(pieces) + data[position:data.index(b">", root.end) + 1]).decode()
    header = (
        f"<!-- generated by mvnlock {__version__}; "
        f"source lockfile sha256:{frozen.source_lockfile_digest} -->"
    )
    return f'<?xml version="1.0" encoding="UTF-8"?>\n{header}\n{body}\n'
