"""Manifest model: parsing pom.xml, property interpolation, effective model.

The parser covers the subset the toolkit resolves: coordinates, parent,
properties, dependencies (scope/optional/exclusions/type/classifier),
dependencyManagement, modules, and plugin coordinates. Profiles, build
extensions, and BOM import are rejected loudly rather than resolved wrong.

``parse_pom`` keeps a manifest as written, ``${}`` references included.
``effective_pom`` is where interpolation happens, in one pass: it walks the
parent chain, merges properties, dependencies and management, builds the
``${}`` table once with ``property_table`` (which freeze reads coordinates
with too), and constructs a model whose fields are already substituted and
whose managed versions are filled. No model is changed once constructed.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import NamedTuple

from .errors import (
    ParentResolutionError,
    PomModelError,
    PomParseError,
    PropertyCycleError,
    PropertyResolutionError,
    UnsupportedPomFeatureError,
    VersionSpecSyntaxError,
)
from .records import Checked, Record
from .versions import compare_versions

SCOPES = ("compile", "provided", "runtime", "test")

_RANGE_CHARS = set("[](),")
_PROPERTY_RE = re.compile(r"\$\{([^}]+)\}")
_INTERPOLATION_DEPTH = 10
_PARENT_CHAIN_LIMIT = 10


class _GavFields(NamedTuple):
    group_id: str
    artifact_id: str
    version: str


class Gav(Checked, _GavFields):
    """Fully resolved artifact coordinate: the atom of the whole system."""

    __slots__ = ()

    def _check(self) -> None:
        for name, value in zip(self._fields, self):
            if not value:
                raise PomModelError(f"coordinate field {name} must be non-empty")
        if _RANGE_CHARS & set(self.version):
            raise PomModelError(f"version {self.version!r} contains range syntax")

    @property
    def ga(self) -> tuple[str, str]:
        return (self.group_id, self.artifact_id)

    def __str__(self) -> str:
        return f"{self.group_id}:{self.artifact_id}:{self.version}"


class Interval(NamedTuple):
    lower: str | None
    lower_inclusive: bool
    upper: str | None
    upper_inclusive: bool

    def contains(self, version: str) -> bool:
        if self.lower is not None:
            c = compare_versions(version, self.lower)
            if c < 0 or (c == 0 and not self.lower_inclusive):
                return False
        if self.upper is not None:
            c = compare_versions(version, self.upper)
            if c > 0 or (c == 0 and not self.upper_inclusive):
                return False
        return True


class VersionSpec(NamedTuple):
    """Either a soft pin (plain text) or a bracketed range."""

    kind: str  # "soft-pin" | "range"
    text: str
    pin: str | None = None
    intervals: tuple[Interval, ...] = ()

    def contains(self, version: str) -> bool:
        return any(iv.contains(version) for iv in self.intervals)


def parse_version_spec(text: str) -> VersionSpec:
    """Parse version constraint text: plain pin or interval range syntax."""
    stripped = text.strip()
    if not stripped:
        raise VersionSpecSyntaxError("empty version spec")
    if not _RANGE_CHARS & set(stripped):
        return VersionSpec(kind="soft-pin", text=stripped, pin=stripped)

    intervals: list[Interval] = []
    i = 0
    while i < len(stripped):
        ch = stripped[i]
        if ch == ",":
            i += 1
            continue
        if ch not in "[(":
            raise VersionSpecSyntaxError(f"unexpected {ch!r} in version range {stripped!r}")
        closers = [stripped.find(c, i + 1) for c in "])"]
        closers = [c for c in closers if c != -1]
        if not closers:
            raise VersionSpecSyntaxError(f"unbalanced brackets in {stripped!r}")
        j = min(closers)
        body = stripped[i + 1 : j]
        lower_inclusive = ch == "["
        upper_inclusive = stripped[j] == "]"
        if "," in body:
            lo, hi = (part.strip() for part in body.split(",", 1))
            if "," in hi:
                raise VersionSpecSyntaxError(f"too many bounds in interval of {stripped!r}")
            lower = lo or None
            upper = hi or None
        else:
            point = body.strip()
            if not point:
                raise VersionSpecSyntaxError(f"empty interval in {stripped!r}")
            if not (lower_inclusive and upper_inclusive):
                raise VersionSpecSyntaxError(f"exact interval must be inclusive in {stripped!r}")
            lower = upper = point
        if lower is not None and upper is not None and compare_versions(lower, upper) > 0:
            raise VersionSpecSyntaxError(f"inverted interval in {stripped!r}")
        intervals.append(Interval(lower, lower_inclusive, upper, upper_inclusive))
        i = j + 1
    if not intervals:
        raise VersionSpecSyntaxError(f"no intervals in {stripped!r}")
    return VersionSpec(kind="range", text=stripped, intervals=tuple(intervals))


class _DependencyFields(NamedTuple):
    group_id: str
    artifact_id: str
    version_spec: VersionSpec | None = None
    scope: str = "compile"
    scope_explicit: bool = False
    optional_flag: bool = False
    exclusions: tuple[tuple[str, str], ...] = ()
    packaging: str = "jar"
    classifier: str | None = None


class DependencyDecl(Checked, _DependencyFields):
    __slots__ = ()

    def _check(self) -> None:
        if self.scope not in SCOPES:
            raise PomModelError(
                f"unknown scope {self.scope!r} on {self.group_id}:{self.artifact_id}"
            )

    @property
    def ga(self) -> tuple[str, str]:
        return (self.group_id, self.artifact_id)


class PluginDecl(NamedTuple):
    group_id: str
    artifact_id: str
    version: str | None = None


class PomModel(Record):
    """Parsed manifest. group/version may be None until parent inheritance fills them.

    ``source_xml`` is the text the model was parsed from; it takes no part in
    equality.
    """

    __slots__ = ("artifact_id", "group_id", "version", "packaging", "parent", "properties",
                 "dependencies", "dependency_management", "modules", "plugins", "source_xml")
    _uncompared = ("source_xml",)

    def __init__(self, artifact_id: str, group_id: str | None = None,
                 version: str | None = None, packaging: str = "jar",
                 parent: Gav | None = None, properties: dict[str, str] | None = None,
                 dependencies: list[DependencyDecl] | None = None,
                 dependency_management: list[DependencyDecl] | None = None,
                 modules: list[str] | None = None, plugins: list[PluginDecl] | None = None,
                 source_xml: str | None = None):
        self.artifact_id = artifact_id
        self.group_id = group_id
        self.version = version
        self.packaging = packaging
        self.parent = parent
        self.properties = {} if properties is None else properties
        self.dependencies = [] if dependencies is None else dependencies
        self.dependency_management = ([] if dependency_management is None
                                      else dependency_management)
        self.modules = [] if modules is None else modules
        self.plugins = [] if plugins is None else plugins
        self.source_xml = source_xml

    @property
    def coordinates(self) -> Gav:
        if self.group_id is None or self.version is None:
            raise PomModelError(
                f"coordinates of {self.artifact_id} are not concrete "
                "(group/version still inherited)"
            )
        return Gav(self.group_id, self.artifact_id, self.version)


# after parent merging and property interpolation; coordinates concrete
EffectivePom = PomModel


def _local_tag(element: ET.Element) -> str:
    tag = element.tag
    return tag.rsplit("}", 1)[-1] if "}" in tag else tag


def _child_map(element: ET.Element) -> dict[str, ET.Element]:
    return {_local_tag(child): child for child in element}


def _text(element: ET.Element | None) -> str | None:
    if element is None or element.text is None:
        return None
    value = element.text.strip()
    return value or None


def _parse_dependency(element: ET.Element, context: str) -> DependencyDecl:
    children = _child_map(element)
    group = _text(children.get("groupId"))
    artifact = _text(children.get("artifactId"))
    if not group:
        raise PomModelError(f"{context} is missing <groupId>")
    if not artifact:
        raise PomModelError(f"{context} {group}:? is missing <artifactId>")
    version_text = _text(children.get("version"))
    scope_text = _text(children.get("scope"))
    if scope_text == "import":
        raise UnsupportedPomFeatureError(
            f"unsupported element: <scope>import</scope> (BOM import) on {group}:{artifact}"
        )
    if scope_text is not None and scope_text not in SCOPES:
        raise PomModelError(f"unknown scope {scope_text!r} on {group}:{artifact}")
    exclusions: list[tuple[str, str]] = []
    excl_parent = children.get("exclusions")
    if excl_parent is not None:
        for excl in excl_parent:
            emap = _child_map(excl)
            eg = _text(emap.get("groupId"))
            ea = _text(emap.get("artifactId"))
            if not eg or not ea:
                raise PomModelError(
                    f"exclusion on {group}:{artifact} needs <groupId> and <artifactId>"
                )
            exclusions.append((eg, ea))
    return DependencyDecl(
        group_id=group,
        artifact_id=artifact,
        version_spec=parse_version_spec(version_text) if version_text else None,
        scope=scope_text or "compile",
        scope_explicit=scope_text is not None,
        optional_flag=_text(children.get("optional")) == "true",
        exclusions=tuple(exclusions),
        packaging=_text(children.get("type")) or "jar",
        classifier=_text(children.get("classifier")),
    )


def _parse_dependency_list(element: ET.Element | None, context: str) -> list[DependencyDecl]:
    if element is None:
        return []
    return [
        _parse_dependency(child, context)
        for child in element
        if _local_tag(child) == "dependency"
    ]


def parse_pom(xml_text: str) -> PomModel:
    """Parse manifest XML into a PomModel. Unknown elements are ignored."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        raise PomParseError(f"malformed XML: {exc.msg.split(':')[0]}", line, column) from exc
    if _local_tag(root) != "project":
        raise PomModelError(f"expected <project> root, found <{_local_tag(root)}>")

    children = _child_map(root)
    if "profiles" in children:
        raise UnsupportedPomFeatureError("unsupported element: <profiles>")

    parent = None
    parent_el = children.get("parent")
    if parent_el is not None:
        pmap = _child_map(parent_el)
        pg, pa, pv = (_text(pmap.get(k)) for k in ("groupId", "artifactId", "version"))
        if not (pg and pa and pv):
            raise PomModelError("<parent> needs groupId, artifactId, and version")
        parent = Gav(pg, pa, pv)

    artifact = _text(children.get("artifactId"))
    if not artifact:
        raise PomModelError("<project> is missing <artifactId>")

    properties: dict[str, str] = {}
    props_el = children.get("properties")
    if props_el is not None:
        for prop in props_el:
            properties[_local_tag(prop)] = (prop.text or "").strip()

    dm_el = children.get("dependencyManagement")
    dm_deps = None
    if dm_el is not None:
        dm_deps = _child_map(dm_el).get("dependencies")

    modules: list[str] = []
    modules_el = children.get("modules")
    if modules_el is not None:
        for module in modules_el:
            path = _text(module)
            if not path:
                raise PomModelError("empty <module> entry")
            if path.startswith("/") or re.match(r"^[A-Za-z]:[\\/]", path):
                raise PomModelError(f"module path must be relative: {path!r}")
            modules.append(path)

    plugins: list[PluginDecl] = []
    build_el = children.get("build")
    if build_el is not None:
        bmap = _child_map(build_el)
        if "extensions" in bmap:
            raise UnsupportedPomFeatureError("unsupported element: <build><extensions>")
        plugins_el = bmap.get("plugins")
        if plugins_el is not None:
            for plugin in plugins_el:
                if _local_tag(plugin) != "plugin":
                    continue
                pmap = _child_map(plugin)
                pa = _text(pmap.get("artifactId"))
                if not pa:
                    raise PomModelError("<plugin> is missing <artifactId>")
                plugins.append(
                    PluginDecl(
                        group_id=_text(pmap.get("groupId")) or "org.apache.maven.plugins",
                        artifact_id=pa,
                        version=_text(pmap.get("version")),
                    )
                )

    return PomModel(
        artifact_id=artifact,
        group_id=_text(children.get("groupId")),
        version=_text(children.get("version")),
        packaging=_text(children.get("packaging")) or "jar",
        parent=parent,
        properties=properties,
        dependencies=_parse_dependency_list(children.get("dependencies"), "dependency"),
        dependency_management=_parse_dependency_list(dm_deps, "managed dependency"),
        modules=modules,
        plugins=plugins,
        source_xml=xml_text,
    )


# --- property interpolation ---


def substitute(value: str, properties: dict[str, str]) -> str:
    for _ in range(_INTERPOLATION_DEPTH):
        tokens = _PROPERTY_RE.findall(value)
        if not tokens:
            return value
        for token in tokens:
            if token not in properties:
                raise PropertyResolutionError(f"unresolvable property reference ${{{token}}}")
        value = _PROPERTY_RE.sub(lambda m: properties[m.group(1)], value)
    if _PROPERTY_RE.search(value):
        raise PropertyCycleError(f"property substitution did not converge for {value!r}")
    return value


def _builtin_properties(group_id: str | None, artifact_id: str, version: str | None,
                        parent: Gav | None) -> dict[str, str]:
    builtins = {"project.groupId": group_id, "project.artifactId": artifact_id,
                "project.version": version}
    if parent is not None:
        builtins.update({"project.parent.groupId": parent.group_id,
                         "project.parent.artifactId": parent.artifact_id,
                         "project.parent.version": parent.version})
    return {name: value for name, value in builtins.items() if value}


def property_table(properties: dict[str, str], group_id: str | None, artifact_id: str,
                   version: str | None, parent: Gav | None) -> dict[str, str]:
    """The ${...} table of a manifest, shared by effective_pom and frozen-XML output.

    ``properties`` (inherited ones included, once merged) shadow the
    project.* and project.parent.* built-ins that the coordinates and parent
    give. Declared values are themselves resolved.
    """
    table = dict(properties)
    table.update(_builtin_properties(group_id, artifact_id, version, parent))
    # property values themselves may reference other properties
    table.update({name: substitute(value, table) for name, value in properties.items()})
    return table


# --- effective model ---


def _merge_decls(child: list[DependencyDecl], parent: list[DependencyDecl]) -> list[DependencyDecl]:
    # child entries shadow parent entries with the same group:artifact key
    child_keys = {d.ga for d in child}
    return list(child) + [d for d in parent if d.ga not in child_keys]


def effective_pom(model: PomModel, parent_loader=None) -> EffectivePom:
    """Compute the effective model in one pass: parent merge, interpolation, management fill."""
    chain = [model]
    seen: set[Gav] = set()
    current = model
    while current.parent is not None:
        if current.parent in seen:
            raise ParentResolutionError(
                f"parent chain cycle at {current.parent}", current.parent
            )
        if len(chain) >= _PARENT_CHAIN_LIMIT:
            raise ParentResolutionError(
                f"parent chain longer than {_PARENT_CHAIN_LIMIT}", current.parent
            )
        seen.add(current.parent)
        if parent_loader is None:
            raise ParentResolutionError(
                f"no loader available for parent {current.parent}", current.parent
            )
        try:
            loaded = parent_loader(current.parent)
        except ParentResolutionError:
            raise
        except Exception as exc:
            raise ParentResolutionError(
                f"cannot load parent {current.parent}: {exc}", current.parent
            ) from exc
        if loaded is None:
            raise ParentResolutionError(f"parent {current.parent} not found", current.parent)
        chain.append(loaded)
        current = loaded

    # fold ancestors into the child, nearest ancestor last so the child wins
    properties: dict[str, str] = {}
    for ancestor in reversed(chain):
        properties.update(ancestor.properties)
    dependencies = chain[0].dependencies
    management = chain[0].dependency_management
    for ancestor in chain[1:]:
        dependencies = _merge_decls(dependencies, ancestor.dependencies)
        management = _merge_decls(management, ancestor.dependency_management)

    group = next((m.group_id for m in chain if m.group_id), None)
    version = next((m.version for m in chain if m.version), None)
    if group is None or version is None:
        raise PomModelError(
            f"coordinates of {model.artifact_id} remain incomplete after inheritance"
        )

    table = property_table(properties, group, model.artifact_id, version, model.parent)

    def sub_decl(decl: DependencyDecl) -> DependencyDecl:
        spec = decl.version_spec
        if spec is not None:
            new_text = substitute(spec.text, table)
            if new_text != spec.text:
                spec = parse_version_spec(new_text)
        return decl._replace(
            group_id=substitute(decl.group_id, table),
            artifact_id=substitute(decl.artifact_id, table),
            version_spec=spec,
            classifier=None if decl.classifier is None else substitute(decl.classifier, table),
            exclusions=tuple(
                (substitute(g, table), substitute(a, table)) for g, a in decl.exclusions
            ),
        )

    # fields are substituted in a fixed order: parent, coordinates, packaging,
    # dependencies, management, plugins; the first unresolvable reference raises
    parent = model.parent and Gav(*(substitute(field, table) for field in model.parent))
    artifact_id = substitute(model.artifact_id, table)
    group = substitute(group, table)
    version = substitute(version, table)
    packaging = substitute(model.packaging, table)
    dependencies = [sub_decl(d) for d in dependencies]
    management = [sub_decl(d) for d in management]
    plugins = [
        PluginDecl(substitute(p.group_id, table), substitute(p.artifact_id, table),
                   None if p.version is None else substitute(p.version, table))
        for p in model.plugins
    ]

    # dependency management fills versions that direct dependencies omit
    managed = {d.ga: d.version_spec for d in management}
    filled = [
        d._replace(version_spec=managed[d.ga])
        if d.version_spec is None and d.ga in managed else d
        for d in dependencies
    ]
    return PomModel(artifact_id, group, version, packaging, parent,
                    {name: table[name] for name in properties}, filled, management,
                    list(model.modules), plugins, model.source_xml)
