import hashlib
import random
import re
import xml.etree.ElementTree as ET

import pytest

from conftest import (
    FIXTURE_BUILDERS,
    Fixture,
    RepoBuilder,
    build_diamond,
    build_dualpath,
    build_ranges,
    build_single,
    dep_xml,
    pom_xml,
)
from mvnlock.cli import main
from mvnlock.errors import (
    ModuleMismatchError,
    MvnlockError,
    PropertyResolutionError,
    StaleLockfileError,
)
from mvnlock.freezer import FrozenPom, emit_frozen_xml, freeze, scope_for_pin
from mvnlock.lockfile import LockedDependency, LockfileConfig, generate_lockfile, parse_lockfile
from mvnlock.pom import PomModel, effective_pom, parse_pom
from mvnlock.project import load_project
from mvnlock.repo import ChecksumRecord
from mvnlock.resolver import resolve

import mvnlock.freezer
import mvnlock.resolver


def generated(fixture, rel="."):
    repo = fixture.repository()
    module = next(m for m in load_project(fixture.project_root, repo)
                  if m.rel_path == rel)
    lock = generate_lockfile(module.effective, LockfileConfig(), repo)
    return module, lock, repo


def entry(ga, scope, direct=False, children=(), version="1.0"):
    return LockedDependency(
        group_id=ga[0], artifact_id=ga[1], version=version, scope=scope,
        checksum=ChecksumRecord("sha256", "ab" * 32, "local"),
        repository_source="local", direct=direct, children=list(children),
    )


def resolved_set(effective, repo):
    tree = resolve(effective, repo)
    occurrences = tree.occurrence_scopes()
    return {(n.ga, n.gav.version, tree.recorded_scope(n, occurrences))
            for n in tree.flattened}


def locked_set(lock):
    return {(e.ga, e.version, e.scope) for e in lock.flattened()}


class TestScopeForPin:
    def forest(self):
        # the same artifact reachable under a test-scoped and a compile subtree
        return [
            entry(("org.t", "t-root"), "test", direct=True,
                  children=[entry(("org.t", "shared"), "test")]),
            entry(("org.t", "c-root"), "compile", direct=True,
                  children=[entry(("org.t", "shared"), "compile")]),
        ]

    def test_non_test_route_wins(self):
        assert scope_for_pin(("org.t", "shared"), self.forest()) == "compile"

    def test_only_test_routes(self):
        forest = [entry(("org.t", "t-root"), "test", direct=True,
                        children=[entry(("org.t", "shared"), "test")])]
        assert scope_for_pin(("org.t", "shared"), forest) == "test"

    def test_runtime_beats_provided(self):
        forest = [
            entry(("g", "r"), "runtime", direct=True,
                  children=[entry(("g", "x"), "runtime")]),
            entry(("g", "p"), "provided", direct=True,
                  children=[entry(("g", "x"), "provided")]),
        ]
        assert scope_for_pin(("g", "x"), forest) == "runtime"

    def test_absent_ga_is_internal_error(self):
        with pytest.raises(MvnlockError, match="internal"):
            scope_for_pin(("no", "where"), self.forest())

    def test_mutation_bugged_variant_detected(self):
        # the historical failure mode: taking the first occurrence's scope
        def bugged(ga, forest):
            for e in self.iter(forest):
                if e.ga == ga:
                    return e.scope
            raise AssertionError

        forest = self.forest()
        assert bugged(("org.t", "shared"), forest) == "test"
        assert scope_for_pin(("org.t", "shared"), forest) == "compile"
        with pytest.raises(AssertionError):
            self.assert_never_test_when_dual(bugged, forest)
        self.assert_never_test_when_dual(scope_for_pin, forest)

    @staticmethod
    def iter(forest):
        for e in forest:
            yield e
            yield from TestScopeForPin.iter(e.children)

    @staticmethod
    def assert_never_test_when_dual(fn, forest):
        scopes = {e.scope for e in TestScopeForPin.iter(forest)
                  if e.ga == ("org.t", "shared")}
        assert scopes == {"test", "compile"}  # the dual-path precondition
        assert fn(("org.t", "shared"), forest) != "test"


class TestFreeze:
    def test_direct_range_replaced_with_locked_version(self, tmp_path):
        fixture = build_ranges(tmp_path)
        module, lock, repo = generated(fixture)
        frozen = freeze(module.effective, lock)
        assert frozen.direct_overrides[("org.r", "rangelib")] == "2.1"

    def test_no_transitives_empty_pins(self, tmp_path):
        from conftest import RepoBuilder, dep_xml
        from mvnlock.repo import MavenRepository, RepositoryConfig

        builder = RepoBuilder(tmp_path / "remote")
        builder.add("com.google.code.gson", "gson", "2.13.2")
        project = tmp_path / "p"
        project.mkdir()
        (project / "pom.xml").write_text(pom_xml(
            "g", "flat", "1.0", deps=(dep_xml("com.google.code.gson", "gson", "2.13.2"),)))
        repo = MavenRepository(RepositoryConfig(
            remote_base_urls=(builder.url,), local_repo_root=tmp_path / "cache"))
        module = load_project(project, repo)[0]
        lock = generate_lockfile(module.effective, LockfileConfig(), repo)
        frozen = freeze(module.effective, lock)
        assert frozen.managed_pins == []

    def test_diamond_pins_winner_once(self, tmp_path):
        fixture = build_diamond(tmp_path)
        module, lock, repo = generated(fixture)
        frozen = freeze(module.effective, lock)
        d_pins = [p for p in frozen.managed_pins if p[1] == "d"]
        assert d_pins == [("org.d", "d", "1.0", "compile")]

    def test_stale_lockfile_names_dependency(self, tmp_path):
        fixture = build_single(tmp_path)
        module, lock, repo = generated(fixture)
        lock.dependencies = [e for e in lock.dependencies if e.artifact_id != "gson"]
        with pytest.raises(StaleLockfileError, match="gson"):
            freeze(module.effective, lock)

    def test_module_mismatch(self, tmp_path):
        fixture = build_single(tmp_path)
        module, lock, repo = generated(fixture)
        other = parse_pom(pom_xml("x", "other", "9"))
        with pytest.raises(ModuleMismatchError):
            freeze(other, lock)

    def test_dualpath_pins_compile_never_test(self, tmp_path):
        fixture = build_dualpath(tmp_path)
        module, lock, repo = generated(fixture)
        frozen = freeze(module.effective, lock)
        pins = {(g, a): scope for g, a, _, scope in frozen.managed_pins}
        assert pins[("org.t", "shared")] == "compile"
        assert pins[("org.t", "shared2")] == "runtime"

    def test_bugged_scope_mediation_reproduces_regression(self, tmp_path, monkeypatch):
        # first-occurrence scope instead of precedence mediation: the shared
        # artifact sits under the earlier test-scoped subtree and gets pinned
        # as test, which is exactly the failure the real rule must prevent
        bugged = lambda scopes: next(iter(scopes))
        monkeypatch.setattr(mvnlock.resolver, "mediate_scope", bugged)
        monkeypatch.setattr(mvnlock.freezer, "mediate_scope", bugged)
        fixture = build_dualpath(tmp_path)
        module, lock, repo = generated(fixture)
        frozen = freeze(module.effective, lock)
        pins = {(g, a): scope for g, a, _, scope in frozen.managed_pins}
        assert pins[("org.t", "shared")] == "test"
        with pytest.raises(AssertionError):
            assert pins[("org.t", "shared")] != "test"  # the regression suite check


class TestEmit:
    def test_zero_pins_header_only_change(self, tmp_path):
        project_xml = pom_xml("g", "flat", "1.0")
        model = parse_pom(project_xml)
        frozen = FrozenPom(base=model, direct_overrides={}, managed_pins=[],
                           source_lockfile_digest="0" * 64)
        out = emit_frozen_xml(frozen)
        assert "generated by mvnlock" in out
        assert parse_pom(out) == model
        # the digest names the lockfile, not the frozen form: equality skips it
        assert frozen == FrozenPom(model, {}, [], "1" * 64)
        assert frozen != FrozenPom(model, {}, [("g", "a", "1", "compile")], "0" * 64)

    def test_model_without_source_xml_is_an_error(self):
        model = PomModel(artifact_id="handmade", group_id="g", version="1.0")
        frozen = FrozenPom(base=model, direct_overrides={}, managed_pins=[],
                           source_lockfile_digest="0" * 64)
        with pytest.raises(MvnlockError, match="handmade"):
            emit_frozen_xml(frozen)

    def test_single_pin_element_structure(self, tmp_path):
        model = parse_pom(pom_xml("g", "flat", "1.0"))
        frozen = FrozenPom(base=model, direct_overrides={},
                           managed_pins=[("org.d", "d", "1.0", "compile")],
                           source_lockfile_digest="0" * 64)
        out = emit_frozen_xml(frozen)
        reparsed = parse_pom(out)
        (pin,) = reparsed.dependency_management
        assert pin.ga == ("org.d", "d")
        assert pin.version_spec.pin == "1.0"
        assert pin.scope == "compile" and pin.scope_explicit

    def test_emit_deterministic(self, tmp_path):
        fixture = build_ranges(tmp_path)
        module, lock, repo = generated(fixture)
        frozen = freeze(module.effective, lock)
        assert emit_frozen_xml(frozen) == emit_frozen_xml(frozen)

    def test_exclusions_preserved_verbatim(self, tmp_path):
        fixture = build_ranges(tmp_path)
        module, lock, repo = generated(fixture)
        out = emit_frozen_xml(freeze(module.effective, lock))
        reparsed = parse_pom(out)
        fat = next(d for d in reparsed.dependencies if d.artifact_id == "fat")
        assert fat.exclusions == (("org.log", "*"),)

    def test_existing_managed_entry_overridden_by_pin(self, tmp_path):
        base = parse_pom(pom_xml(
            "g", "managed", "1.0",
            dm=("<dependency><groupId>org.d</groupId><artifactId>d</artifactId>"
                "<version>0.9</version></dependency>",),
        ))
        frozen = FrozenPom(base=base, direct_overrides={},
                           managed_pins=[("org.d", "d", "1.0", "compile")],
                           source_lockfile_digest="0" * 64)
        reparsed = parse_pom(emit_frozen_xml(frozen))
        (pin,) = reparsed.dependency_management
        assert pin.version_spec.pin == "1.0"

    def test_property_version_replaced_with_concrete(self, tmp_path):
        from conftest import dep_xml

        base = parse_pom(pom_xml(
            "g", "p", "1.0", properties={"v": "1.0"},
            deps=(dep_xml("org.x", "y", "${v}"),),
        ))
        frozen = FrozenPom(base=base, direct_overrides={("org.x", "y"): "1.0"},
                           managed_pins=[], source_lockfile_digest="0" * 64)
        reparsed = parse_pom(emit_frozen_xml(frozen))
        assert reparsed.dependencies[0].version_spec.pin == "1.0"

    def test_unknown_property_is_an_error(self):
        # the strict rule generate applies: an unknown ${x} never passes through
        base = parse_pom(pom_xml("g", "p", "1.0", deps=(dep_xml("${nope}", "y", "1.0"),)))
        frozen = FrozenPom(base=base, direct_overrides={}, managed_pins=[],
                           source_lockfile_digest="0" * 64)
        with pytest.raises(PropertyResolutionError, match=r"\$\{nope\}"):
            emit_frozen_xml(frozen)


NS = "http://maven.apache.org/POM/4.0.0"
XSI = "http://www.w3.org/2001/XMLSchema-instance"


def namespaced(body: str = "", root_attributes: str = "") -> PomModel:
    """A manifest in the POM namespace, with ``body`` added at the end of <project>."""
    return parse_pom(pom_xml("g", "ns", "1.0")
                     .replace("<project>", f'<project xmlns="{NS}"{root_attributes}>')
                     .replace("</project>", f"{body}</project>"))


def frozen_of(model: PomModel) -> FrozenPom:
    return FrozenPom(base=model, direct_overrides={},
                     managed_pins=[("org.d", "d", "1.0", "compile")],
                     source_lockfile_digest="0" * 64)


class TestEmitNamespaces:
    def test_freezing_leaves_elementtree_namespace_map_unchanged(self):
        before = dict(ET._namespace_map)
        out = emit_frozen_xml(frozen_of(namespaced()))
        assert ET._namespace_map == before
        assert f'<project xmlns="{NS}">' in out and "ns0:" not in out
        assert {el.tag.split("}")[0] for el in ET.fromstring(out).iter()} == {"{" + NS}

    def test_attributes_in_no_namespace_are_written_as_read(self):
        # ElementTree's default_namespace alone refuses an unprefixed attribute
        model = namespaced(
            '<build><plugins><plugin><artifactId>p</artifactId><version>1</version>'
            '<configuration combine.children="append"><x>1</x></configuration>'
            '</plugin></plugins></build>',
            f' xmlns:xsi="{XSI}" xsi:schemaLocation="{NS} pom.xsd"'
            ' child.project.url.inherit.append.path="false"')
        out = emit_frozen_xml(frozen_of(model))
        assert (f'<project xmlns="{NS}" xmlns:xsi="{XSI}" xsi:schemaLocation="{NS} pom.xsd"'
                ' child.project.url.inherit.append.path="false">') in out
        assert '<configuration combine.children="append"><x>1</x></configuration>' in out

    def test_element_in_no_namespace_is_kept(self):
        model = namespaced('<description xmlns="">no namespace</description>')
        out = emit_frozen_xml(frozen_of(model))
        assert '<description xmlns="">no namespace</description>' in out
        (pin,) = parse_pom(out).dependency_management
        assert pin.ga == ("org.d", "d")

    def test_element_in_no_namespace_freezes_with_exit_zero(self, tmp_path, capsys):
        fixture = build_single(tmp_path)
        pom = fixture.project_root / "pom.xml"
        pom.write_text(pom.read_text(encoding="utf-8")
                       .replace("<project>", f'<project xmlns="{NS}">')
                       .replace("</project>", '<description xmlns="">x</description></project>'),
                       encoding="utf-8")
        common = ["--project", str(fixture.project_root), "--repo-url", fixture.repo.url,
                  "--local-repo", str(fixture.cache_root)]
        assert main(["generate", *common]) == 0
        capsys.readouterr()
        assert main(["freeze", *common]) == 0
        assert capsys.readouterr().err == ""
        text = (fixture.project_root / "pom.lockfile.xml").read_text(encoding="utf-8")
        assert '<description xmlns="">x</description>\n  <dependencyManagement>' in text


class TestFreezeEquivalence:
    def frozen_effective(self, module, lock, repo, fixture):
        text = emit_frozen_xml(freeze(module.effective, lock))
        frozen_path = module.directory / "pom.lockfile.xml"
        frozen_path.write_text(text, encoding="utf-8")
        model = parse_pom(text)
        from mvnlock.pom import effective_pom

        return effective_pom(model, parent_loader=lambda gav: parse_pom(repo.fetch_pom(gav)))

    def test_frozen_resolution_matches_lockfile_after_mutation(self, tmp_path):
        fixture = build_ranges(tmp_path)
        module, lock, repo = generated(fixture)
        frozen_eff = self.frozen_effective(module, lock, repo, fixture)
        fixture.mutate(random.Random(11))
        assert resolved_set(frozen_eff, repo) == locked_set(lock)
        assert resolved_set(module.effective, repo) != locked_set(lock)

    def test_dualpath_frozen_reproduces_scopes(self, tmp_path):
        fixture = build_dualpath(tmp_path)
        module, lock, repo = generated(fixture)
        frozen_eff = self.frozen_effective(module, lock, repo, fixture)
        fixture.mutate(random.Random(13))
        assert resolved_set(frozen_eff, repo) == locked_set(lock)

    def test_freeze_idempotent(self, tmp_path):
        fixture = build_ranges(tmp_path)
        module, lock, repo = generated(fixture)
        first = freeze(module.effective, lock)
        text = emit_frozen_xml(first)
        refrozen_model = parse_pom(text)
        second = freeze(refrozen_model, lock)
        assert second.direct_overrides == first.direct_overrides
        assert second.managed_pins == first.managed_pins


class TestFreezeInterpolation:
    def test_declared_project_property_freezes_locked_version(self, tmp_path):
        # a declared <project.groupId> shadows the built-in one, in freeze as in generate
        repo = RepoBuilder(tmp_path / "remote")
        repo.add("org.x", "lib", "1.0")
        repo.add("org.x", "lib", "1.5")
        project = tmp_path / "project"
        project.mkdir()
        (project / "pom.xml").write_text(pom_xml(
            "com.acme", "app", "1.0", properties={"project.groupId": "org.x"},
            deps=(dep_xml("${project.groupId}", "lib", "[1.0,2.0)"),),
        ), encoding="utf-8")
        fixture = Fixture("declared-group", project, repo, tmp_path / "cache")
        common = ["--project", str(project), "--repo-url", repo.url,
                  "--local-repo", str(fixture.cache_root)]
        assert main(["generate", *common]) == 0
        lock = parse_lockfile((project / "lockfile.json").read_bytes())
        assert [(e.ga, e.version) for e in lock.flattened()] == [(("org.x", "lib"), "1.5")]
        assert main(["freeze", *common]) == 0

        repo.add("org.x", "lib", "1.9")
        frozen = effective_pom(parse_pom((project / "pom.lockfile.xml").read_text()))
        assert [d.ga for d in frozen.dependencies] == [("org.x", "lib")]
        assert resolved_set(frozen, fixture.repository()) == locked_set(lock)


class TestFreezeInheritedDirect:
    @pytest.mark.parametrize("own", [True, False], ids=["own-dependencies", "none-of-its-own"])
    def test_namespaced_child_declares_inherited_dependency_at_its_locked_version(self, tmp_path,
                                                                                 own):
        # a direct dependency the child sees only through its parent, in a namespaced POM;
        # a child that declares none of its own gets a <dependencies> block for it
        ns = "http://maven.apache.org/POM/4.0.0"
        repo = RepoBuilder(tmp_path / "remote")
        repo.add("org.n", "noise", "1.0")
        for version in ("1.0", "1.5"):
            repo.add("org.n", "ranged", version, deps=(dep_xml("org.n", "noise", "1.0"),))
        repo.add("org.n", "own", "1.0")
        project = tmp_path / "project"
        (project / "child").mkdir(parents=True)
        (project / "pom.xml").write_text(pom_xml(
            "com.acme", "parent", "1.0", packaging="pom", modules=("child",),
            deps=(dep_xml("org.n", "ranged", "[1.0,2.0)", scope="runtime",
                          exclusions=(("org.n", "noise"),)),),
        ), encoding="utf-8")
        (project / "child" / "pom.xml").write_text(pom_xml(
            None, "child", None, parent=("com.acme", "parent", "1.0"),
            deps=(dep_xml("org.n", "own", "1.0"),) if own else (),
        ).replace("<project>", f'<project xmlns="{ns}">'), encoding="utf-8")
        fixture = Fixture("inherited-direct", project, repo, tmp_path / "cache")
        common = ["--project", str(project), "--repo-url", repo.url,
                  "--local-repo", str(fixture.cache_root)]
        assert main(["generate", *common]) == 0
        assert main(["freeze", *common]) == 0
        lock = parse_lockfile((project / "child" / "lockfile.json").read_bytes())
        owned = {(("org.n", "own"), "1.0", "compile")} if own else set()
        assert locked_set(lock) == owned | {(("org.n", "ranged"), "1.5", "runtime")}

        text = (project / "child" / "pom.lockfile.xml").read_text(encoding="utf-8")
        assert f'<project xmlns="{ns}">' in text
        assert {el.tag.split("}")[0] for el in ET.fromstring(text).iter()} == {"{" + ns}
        declared = {d.ga: d for d in parse_pom(text).dependencies}
        assert sorted(declared) == [("org.n", "own")] * own + [("org.n", "ranged")]
        ranged = declared[("org.n", "ranged")]
        assert ranged.version_spec.pin == "1.5"
        assert (ranged.scope, ranged.scope_explicit) == ("runtime", True)
        assert ranged.exclusions == (("org.n", "noise"),)

        repo.add("org.n", "ranged", "1.9", deps=(dep_xml("org.n", "noise", "1.0"),))
        parent = parse_pom((project / "pom.xml").read_text(encoding="utf-8"))
        frozen = effective_pom(parse_pom(text), parent_loader=lambda gav: parent)
        assert resolved_set(frozen, fixture.repository()) == locked_set(lock)
        child = load_project(project, fixture.repository())[1]
        assert resolved_set(child.effective, fixture.repository()) != locked_set(lock)


INDENTED = f"""<?xml version="1.0" encoding="UTF-8"?>
<project xmlns="{NS}" xmlns:xsi="{XSI}" xsi:schemaLocation="{NS} pom.xsd">
  <modelVersion>4.0.0</modelVersion>
  <groupId>g</groupId>
  <artifactId>indented</artifactId>
  <version>1.0</version>
  <properties>
    <lib.version>[1.0,2.0)</lib.version>
  </properties>
  <dependencyManagement>
    <dependencies>
      <dependency>
        <groupId>org.m</groupId>
        <artifactId>kept</artifactId>
        <version>3.0</version>
      </dependency>
      <dependency>
        <groupId>org.m</groupId>
        <artifactId>pinned</artifactId>
        <version>0.9</version>
      </dependency>
      <dependency>
        <groupId>org.m</groupId>
        <artifactId>also-kept</artifactId>
        <version>3.0</version>
      </dependency>
      <dependency>
        <groupId>org.m</groupId>
        <artifactId>last</artifactId>
        <version>0.9</version>
      </dependency>
    </dependencies>
  </dependencyManagement>
  <dependencies>
    <dependency>
      <groupId>org.x</groupId>
      <artifactId>ranged</artifactId>
      <version>${{lib.version}}</version>
    </dependency>
    <dependency>
      <groupId>org.m</groupId>
      <artifactId>kept</artifactId>
    </dependency>
  </dependencies>
</project>
"""


def indented(direct: dict, pins: list) -> FrozenPom:
    return FrozenPom(parse_pom(INDENTED), direct, pins, "0" * 64)


def inheriting(own: bool) -> FrozenPom:
    """A namespaced child whose parent declares a direct dependency with a scope and exclusion."""
    parent = parse_pom(pom_xml("com.acme", "parent", "1.0", packaging="pom", deps=(
        dep_xml("org.n", "ranged", "[1.0,2.0)", scope="runtime", exclusions=(("org.n", "x"),)),)))
    child = parse_pom(pom_xml(
        None, "child", None, parent=("com.acme", "parent", "1.0"),
        deps=(dep_xml("org.n", "own", "1.0"),) if own else (),
    ).replace("<project>", f'<project xmlns="{NS}">'))
    model = effective_pom(child, parent_loader=lambda gav: parent)
    direct = {("org.n", "ranged"): "1.5", **({("org.n", "own"): "1.0"} if own else {})}
    return FrozenPom(model, direct, [("org.n", "x", "2.0", "runtime")], "0" * 64)


# emit_frozen_xml's output on manifests whose text ElementTree wrote back
# unchanged, recorded from the ElementTree-based emitter
FROZEN_SHA256 = {
    "aggregator/.": "3fa5b5cf41987cea932a0d8075e734daa9359e17b0f6ad1bca4d172cdcea00f0",
    "aggregator/core": "f2671161be6a83d740fe2618a9fabebacf16e0063c84d670434688b212ba3692",
    "aggregator/web": "bc3e7a93f7f76e88fc34fa27ff79307efd8cb6b78a34e088a12a37b3b5127b7e",
    "diamond/.": "1b887672f0029d830d3057f4a720fec9f2935875136a1d504a1c11be46ba3026",
    "dualpath/.": "195a210238f8426d2a8dc658b2eb50950db4ab575e009cf93427e5ae4c2f1124",
    "ranges/.": "c56265ce35fefc19c1d6f1a4bd4d71b48fabe3d10dd18655b2e8043124579bfd",
    "single/.": "aee61207fdbb9123c7a62e79f59546e4b74ba458a8ce81b59b33905ca30c7d0d",
    "flat-managed": "6fa4b2b8263d6cbc1b5b6cc5a343066fb451f52ea03a5d5ee2b0b7810c00a0c6",
    "indented": "b9785bdddee6fea18ad9e6f2d611c8ad155e1322010225510c5c1bb771496da3",
    "indented-zero-pins": "71a9011330395123125a3f755ff83ec4c0b696cf02e5685ffc2b15cb4bbba841",
    "inherited-into-own": "3c8226cb5e1e29d3805729364d1b96a521efc616953bfc8dc11b02a10c5391c6",
    "inherited-no-dependencies": "7ff8273258bf72d437d1979ff470d49fb8fa553fb5d3fb1f3fa680ac1b675a9e",
    "namespaced": "b0a131cad75cf7b34c63be6b96665c1c36ffd0f3b7dcc41fc5f82377710dabf7",
    "namespaced-attributes": "a3f39fe8d4f08beb114c6e4268c145d88359546ad7d1a7f2faf80bac3c920b3a",
    "repeated-blocks": "0ea30d91f736d8fefd4f7e61e163ba79fdf5929daa1a8efee3e2d9a84c5cdb36",
    "self-closing-managed": "3430410a8d1be55df0c2da520777c71039399c10775580bdf72cb00346d5443b",
}

MANIFESTS = {
    "namespaced": lambda: frozen_of(namespaced()),
    "namespaced-attributes": lambda: frozen_of(namespaced(
        '<build><plugins><plugin><artifactId>p</artifactId><version>1</version>'
        '<configuration combine.children="append"><x>1</x></configuration>'
        '</plugin></plugins></build>',
        f' xmlns:xsi="{XSI}" xsi:schemaLocation="{NS} pom.xsd"')),
    "indented": lambda: indented(
        {("org.x", "ranged"): "1.5", ("org.m", "kept"): "3.0"},
        [("org.m", "last", "1.0", "runtime"), ("org.m", "pinned", "1.0", "compile"),
         ("org.z", "a&b", "1.0", "test")]),
    "indented-zero-pins": lambda: indented({("org.x", "ranged"): "1.5"}, []),
    "flat-managed": lambda: FrozenPom(parse_pom(pom_xml(
        "g", "managed", "1.0",
        dm=(dep_xml("org.d", "d", "0.9"), dep_xml("org.d", "e", "0.9")),
        deps=(dep_xml("org.d", "f"),))),
        {("org.d", "f"): "2.0"}, [("org.d", "d", "1.0", "compile")], "0" * 64),
    "self-closing-managed": lambda: frozen_of(namespaced(
        "<dependencyManagement>\n  <dependencies />\n</dependencyManagement>\n")),
    "repeated-blocks": lambda: FrozenPom(parse_pom(pom_xml(  # parse_pom reads the last ones
        "g", "repeated", "1.0", deps=(dep_xml("org.x", "y", "0.9").replace(
            "</version>", "</version><version>[1,2)</version>"),)).replace(
        "<dependencies>", f"<dependencies>{dep_xml('org.x', 'y', '0.1')}</dependencies>\n"
                          "<dependencies>")),
        {("org.x", "y"): "1.5"}, [], "0" * 64),
    "inherited-into-own": lambda: inheriting(own=True),
    "inherited-no-dependencies": lambda: inheriting(own=False),
}


def emitted_sha256(frozen: FrozenPom) -> str:
    return hashlib.sha256(emit_frozen_xml(frozen).encode("utf-8")).hexdigest()


class TestFrozenBytes:
    @pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
    def test_fixture_modules(self, name, tmp_path):
        fixture = FIXTURE_BUILDERS[name](tmp_path)
        repo = fixture.repository()
        for module in load_project(fixture.project_root, repo):
            frozen = freeze(module.effective,
                            generate_lockfile(module.effective, LockfileConfig(), repo))
            frozen.source_lockfile_digest = "0" * 64
            assert emitted_sha256(frozen) == FROZEN_SHA256[f"{name}/{module.rel_path}"]

    @pytest.mark.parametrize("name", sorted(MANIFESTS))
    def test_manifests(self, name):
        assert emitted_sha256(MANIFESTS[name]()) == FROZEN_SHA256[name]


HEADER = ('<?xml version="1.0" encoding="UTF-8"?>\n<!-- generated by mvnlock '
          f'{mvnlock.freezer.__version__}; source lockfile sha256:{"0" * 64} -->\n')


def emit(xml: str, direct: dict | None = None, pins: tuple = ()) -> str:
    return emit_frozen_xml(FrozenPom(parse_pom(xml), direct or {}, list(pins), "0" * 64))


class TestEmitKeepsText:
    PIN = ("org.d", "d", "1.0", "compile")

    def test_licence_comment_before_project_follows_the_header(self):
        xml = ('<?xml version="1.0" encoding="ISO-8859-1"?>\n<!-- Licensed under the\n'
               '     Apache License -->\n' + pom_xml("g", "a", "1.0").split("\n", 1)[1])
        out = emit(xml, pins=(self.PIN,))
        assert out.startswith(HEADER + "<!-- Licensed under the\n     Apache License -->\n"
                              "<project>\n<modelVersion>")

    def test_byte_order_mark_and_declaration_are_replaced(self):
        xml = "\ufeff" + pom_xml("g", "a", "1.0").replace('"UTF-8"', '"ISO-8859-1"')
        assert emit(xml) == emit(pom_xml("g", "a", "1.0"))
        assert emit(xml).startswith(HEADER + "<project>")

    def test_comments_in_dependencies_and_management_survive(self):
        xml = pom_xml(
            "g", "a", "1.0",
            dm=("<!-- managed: keep -->", dep_xml("org.d", "d", "0.9"), "<!-- between -->",
                dep_xml("org.d", "e", "0.9"), "<!-- last -->"),
            deps=("<!-- direct -->", dep_xml("org.x", "y", "[1,2)"), "<!-- trailing -->"))
        out = emit(xml, {("org.x", "y"): "1.5"}, (self.PIN,))
        for comment in ("managed: keep", "between", "last", "direct", "trailing"):
            assert f"<!-- {comment} -->" in out
        assert ("<dependencyManagement><dependencies><!-- managed: keep --><!-- between -->"
                "<dependency><groupId>org.d</groupId><artifactId>e</artifactId>") in out
        assert "<!-- last -->\n      <dependency>\n        <groupId>org.d</groupId>" in out
        assert ("<!-- direct --><dependency><groupId>org.x</groupId><artifactId>y</artifactId>"
                "<version>1.5</version></dependency><!-- trailing -->") in out
        (pin,) = parse_pom(out).dependency_management[1:]
        assert (pin.ga, pin.version_spec.pin) == (("org.d", "d"), "1.0")

    def test_cdata_references_and_attributes_are_written_as_read(self):
        kept = ("<description><![CDATA[a < b && c]]> &amp; &#169; &#x41; &lt;x&gt; &ver;"
                "</description>\n<build><plugins><plugin><artifactId>p</artifactId>"
                """<configuration z='1' a="2"  m = "&quot;>"><x/></configuration>"""
                "</plugin></plugins></build>\n")
        xml = (pom_xml("g", "a", "1.0").replace("<project>", '<!DOCTYPE project [\n'
                                                '  <!ENTITY ver "2.0">\n]>\n<project>')
               .replace("</project>", kept + "</project>"))
        out = emit(xml, pins=(self.PIN,))
        assert out.startswith(HEADER + '<!DOCTYPE project [\n  <!ENTITY ver "2.0">\n]>\n<project>')
        assert kept in out
        assert parse_pom(out).dependency_management[0].ga == ("org.d", "d")

    def test_prefixed_elements_take_the_prefix_and_read_back(self):
        xml = re.sub(r"<(/?)(?=\w)", r"<\1pom:", pom_xml("g", "a", "1.0", deps=(
            dep_xml("org.x", "y"),))).replace("<pom:project>", f'<pom:project xmlns:pom="{NS}">')
        out = emit(xml, {("org.x", "y"): "1.5"}, (self.PIN,))
        assert "<pom:artifactId>y</pom:artifactId>\n      <pom:version>1.5</pom:version>" in out
        assert "  <pom:dependencyManagement>\n    <pom:dependencies>\n" in out
        assert not re.search(r"</?(?!pom:)\w", out.partition("-->\n")[2])  # every tag prefixed
        frozen = parse_pom(out)
        assert frozen.dependencies[0].version_spec.pin == "1.5"
        (pin,) = frozen.dependency_management
        assert (pin.ga, pin.version_spec.pin, pin.scope) == (("org.d", "d"), "1.0", "compile")

    def test_self_closing_version_and_parent_are_opened(self):
        xml = pom_xml("g", "a", "1.0", deps=(dep_xml("org.x", "y", "1.0"),)).replace(
            "<version>1.0</version></dependency>", '<version comment="x"/></dependency>'
        ).replace("<dependencies>", "<dependencyManagement><dependencies/></dependencyManagement>"
                                    "<dependencies>")
        out = emit(xml, {("org.x", "y"): "1.5"}, (self.PIN,))
        assert '<version comment="x">1.5</version>' in out
        assert "<dependencyManagement><dependencies>\n      <dependency>" in out
        assert parse_pom(out).dependency_management[0].ga == ("org.d", "d")

    def test_zero_pins_add_an_empty_management_block(self):
        # a known gap: a module with nothing to pin still gets the empty block
        out = emit(pom_xml("g", "flat", "1.0"))
        assert out == HEADER + pom_xml("g", "flat", "1.0").split("\n", 1)[1].replace(
            "\n</project>", "\n  <dependencyManagement>\n    <dependencies />\n"
                            "  </dependencyManagement>\n</project>") + "\n"
