import random
import xml.etree.ElementTree as ET

import pytest

from conftest import (
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

    def test_element_in_no_namespace_is_refused(self):
        model = namespaced('<description xmlns="">no namespace</description>')
        with pytest.raises(MvnlockError, match="^cannot freeze ns: its pom.xml has an element "
                                               "in no namespace"):
            emit_frozen_xml(frozen_of(model))

    def test_element_in_no_namespace_exits_two_naming_the_manifest(self, tmp_path, capsys):
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
        assert main(["freeze", *common]) == 2
        assert capsys.readouterr().err == (
            "mvnlock: error: module .: cannot freeze app: its pom.xml has an element "
            f"in no namespace inside the namespace {NS}\n")
        assert not (fixture.project_root / "pom.lockfile.xml").exists()


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
