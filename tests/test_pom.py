import pytest

from conftest import dep_xml, pom_xml
from mvnlock.errors import (
    ParentResolutionError,
    PomModelError,
    PomParseError,
    PropertyCycleError,
    PropertyResolutionError,
    UnsupportedPomFeatureError,
    VersionSpecSyntaxError,
)
from mvnlock.pom import (
    Gav,
    effective_pom,
    parse_pom,
    parse_version_spec,
)


class TestParse:
    def test_single_dependency(self):
        model = parse_pom(pom_xml(
            "com.acme", "app", "1.0",
            deps=(dep_xml("com.google.code.gson", "gson", "2.13.2"),),
        ))
        assert model.coordinates == Gav("com.acme", "app", "1.0")
        (dep,) = model.dependencies
        assert dep.ga == ("com.google.code.gson", "gson")
        assert dep.version_spec.pin == "2.13.2"
        assert dep.scope == "compile" and not dep.scope_explicit
        assert dep.packaging == "jar"

    def test_empty_dependencies_element(self):
        model = parse_pom("<project><groupId>g</groupId><artifactId>a</artifactId>"
                          "<version>1</version><dependencies/></project>")
        assert model.dependencies == []

    def test_parse_keeps_property_token(self):
        model = parse_pom(pom_xml(
            "com.acme", "app", "1.0",
            properties={"gson.version": "2.13.2"},
            deps=(dep_xml("com.google.code.gson", "gson", "${gson.version}"),),
        ))
        assert model.dependencies[0].version_spec.pin == "${gson.version}"

    def test_namespaced_pom(self):
        xml = ('<project xmlns="http://maven.apache.org/POM/4.0.0">'
               "<groupId>g</groupId><artifactId>a</artifactId><version>1</version>"
               "<dependencies>" + dep_xml("x", "y", "1.0", scope="test") +
               "</dependencies></project>")
        model = parse_pom(xml)
        assert model.dependencies[0].scope == "test"
        assert model.dependencies[0].scope_explicit

    def test_malformed_xml_carries_position(self):
        with pytest.raises(PomParseError) as err:
            parse_pom("<project><groupId>oops</project>")
        assert err.value.line is not None

    def test_dependency_missing_group(self):
        with pytest.raises(PomModelError, match="groupId"):
            parse_pom("<project><artifactId>a</artifactId>"
                      "<dependencies><dependency><artifactId>x</artifactId>"
                      "</dependency></dependencies></project>")

    def test_unknown_scope_rejected(self):
        with pytest.raises(PomModelError, match="system"):
            parse_pom(pom_xml("g", "a", "1", deps=(dep_xml("x", "y", "1", scope="system"),)))

    def test_unsupported_features_rejected(self):
        with pytest.raises(UnsupportedPomFeatureError, match="profiles"):
            parse_pom("<project><artifactId>a</artifactId><profiles/></project>")
        with pytest.raises(UnsupportedPomFeatureError, match="import"):
            parse_pom(pom_xml("g", "a", "1", dm=(dep_xml("x", "bom", "1", scope="import"),)))
        with pytest.raises(UnsupportedPomFeatureError, match="extensions"):
            parse_pom("<project><artifactId>a</artifactId>"
                      "<build><extensions/></build></project>")

    def test_absolute_module_path_rejected(self):
        with pytest.raises(PomModelError, match="relative"):
            parse_pom("<project><artifactId>a</artifactId>"
                      "<modules><module>/abs</module></modules></project>")

    def test_exclusions_and_optional(self):
        model = parse_pom(pom_xml(
            "g", "a", "1",
            deps=(dep_xml("x", "y", "1", optional=True,
                          exclusions=(("org.log", "*"),)),),
        ))
        dep = model.dependencies[0]
        assert dep.optional_flag
        assert dep.exclusions == (("org.log", "*"),)

    def test_plugins_parsed_with_default_group(self):
        model = parse_pom(
            "<project><artifactId>a</artifactId><build><plugins>"
            "<plugin><artifactId>maven-compiler-plugin</artifactId>"
            "<version>3.11.0</version></plugin>"
            "</plugins></build></project>"
        )
        (plugin,) = model.plugins
        assert plugin.group_id == "org.apache.maven.plugins"
        assert plugin.version == "3.11.0"


class TestGavInvariants:
    def test_fields_non_empty(self):
        with pytest.raises(PomModelError):
            Gav("", "a", "1")
        with pytest.raises(PomModelError):
            Gav("g", "a", "")

    def test_no_range_syntax_in_version(self):
        with pytest.raises(PomModelError):
            Gav("g", "a", "[1.0,2.0)")

    def test_copies_with_changed_fields_are_checked(self):
        gav = Gav("g", "a", "1")
        assert gav._replace(version="2") == Gav("g", "a", "2")
        assert type(gav._replace(version="2")) is Gav
        with pytest.raises(PomModelError):
            gav._replace(version="[1.0,2.0)")
        with pytest.raises(PomModelError):
            Gav._make(("g", "", "1"))
        decl = parse_pom(pom_xml("g", "app", "1", deps=(dep_xml("g", "a", "1"),))
                         ).dependencies[0]
        with pytest.raises(PomModelError, match="unknown scope"):
            decl._replace(scope="system")

    def test_hashable_value(self):
        assert {Gav("g", "a", "1"): 1}[Gav("g", "a", "1")] == 1
        assert str(Gav("g", "a", "1")) == "g:a:1"


def test_model_equality_ignores_source_text():
    text = pom_xml("g", "app", "1", deps=(dep_xml("g", "a", "1"),))
    reformatted = text.replace("\n", "\n  ")
    assert reformatted != text
    assert parse_pom(text) == parse_pom(reformatted)
    assert parse_pom(text) != parse_pom(pom_xml("g", "app", "2"))
    assert "source_xml" not in repr(parse_pom(text))
    with pytest.raises(TypeError):
        hash(parse_pom(text))


class TestVersionSpec:
    def test_soft_pin(self):
        spec = parse_version_spec("2.13.2")
        assert spec.kind == "soft-pin" and spec.pin == "2.13.2"

    def test_simple_range(self):
        spec = parse_version_spec("[1.0,2.0)")
        (iv,) = spec.intervals
        assert (iv.lower, iv.lower_inclusive, iv.upper, iv.upper_inclusive) == \
            ("1.0", True, "2.0", False)

    def test_point_and_unbounded(self):
        assert parse_version_spec("[1.0]").intervals[0].lower == "1.0"
        iv = parse_version_spec("(,1.5]").intervals[0]
        assert iv.lower is None and iv.upper == "1.5" and iv.upper_inclusive

    def test_multi_interval_selects_highest_available(self):
        # oracle: brute-force membership filter + max over the available set
        spec = parse_version_spec("[1.0],[2.0]")
        available = ["1.0", "1.5", "2.0"]
        expected = max(v for v in available if any(i.contains(v) for i in spec.intervals))
        from mvnlock.resolver import resolve_range

        assert resolve_range(spec, available) == expected == "2.0"

    @pytest.mark.parametrize("bad", ["", "[1.0", "[]", "(1.0)", "[2.0,1.0]", "[1,2,3]"])
    def test_syntax_errors(self, bad):
        with pytest.raises(VersionSpecSyntaxError):
            parse_version_spec(bad)


class TestInterpolation:
    def test_direct_substitution(self):
        model = parse_pom(pom_xml(
            "g", "a", "1", properties={"gson.version": "2.13.2"},
            deps=(dep_xml("com.google.code.gson", "gson", "${gson.version}"),),
        ))
        out = effective_pom(model)
        assert out.dependencies[0].version_spec.pin == "2.13.2"

    def test_identity_without_tokens(self):
        model = parse_pom(pom_xml("g", "a", "1", deps=(dep_xml("x", "y", "1.0"),)))
        assert effective_pom(model) == model

    def test_idempotent(self):
        model = parse_pom(pom_xml(
            "g", "a", "1", properties={"v": "1.0"}, deps=(dep_xml("x", "y", "${v}"),),
        ))
        once = effective_pom(model)
        assert effective_pom(once) == once

    def test_cycle_detected(self):
        model = parse_pom(pom_xml(
            "g", "a", "1", properties={"a": "${b}", "b": "${a}"},
            deps=(dep_xml("x", "y", "${a}"),),
        ))
        with pytest.raises(PropertyCycleError):
            effective_pom(model)

    def test_unresolvable_names_token(self):
        model = parse_pom(pom_xml("g", "a", "1", deps=(dep_xml("x", "y", "${nope}"),)))
        with pytest.raises(PropertyResolutionError, match="nope"):
            effective_pom(model)

    def test_first_unresolvable_reference_in_field_order(self):
        # parent, coordinates, packaging, dependencies, management, plugins
        names = ["pv", "v", "k", "d", "m", "pl"]
        parent = parse_pom(pom_xml("g", "p", "1", packaging="pom"))

        def effective(known: int):
            model = parse_pom(pom_xml(
                "g", "a", "${v}", packaging="${k}", parent=("g", "p", "${pv}"),
                properties={name: "1" for name in names[:known]},
                deps=(dep_xml("x", "y", "${d}"),), dm=(dep_xml("x", "z", "${m}"),),
                plugins=(("x", "plug", "${pl}"),),
            ))
            return effective_pom(model, parent_loader=lambda gav: parent)

        for known, name in enumerate(names):
            with pytest.raises(PropertyResolutionError, match=rf"\$\{{{name}\}}$"):
                effective(known)
        assert effective(len(names)).version == "1"

    def test_builtin_project_properties(self):
        model = parse_pom(pom_xml(
            "g", "a", "2.5", deps=(dep_xml("g", "sibling", "${project.version}"),),
        ))
        out = effective_pom(model)
        assert out.dependencies[0].version_spec.pin == "2.5"

    def test_builtin_parent_properties(self):
        parent = parse_pom(pom_xml("g.parent", "base", "3.1", packaging="pom"))
        model = parse_pom(pom_xml(
            "g", "a", "1", parent=("g.parent", "base", "3.1"),
            deps=(dep_xml("${project.parent.groupId}", "${project.parent.artifactId}-api",
                          "${project.parent.version}"),),
        ))
        (dep,) = effective_pom(model, parent_loader=lambda gav: parent).dependencies
        assert dep.group_id == "g.parent" and dep.artifact_id == "base-api"
        assert dep.version_spec.pin == "3.1"

    def test_no_parent_properties_without_a_parent(self):
        model = parse_pom(pom_xml(
            "g", "a", "1", deps=(dep_xml("x", "y", "${project.parent.version}"),),
        ))
        with pytest.raises(PropertyResolutionError, match=r"\$\{project\.parent\.version\}"):
            effective_pom(model)

    def test_chained_substitution(self):
        model = parse_pom(pom_xml(
            "g", "a", "1", properties={"one": "${two}", "two": "2.0"},
            deps=(dep_xml("x", "y", "${one}"),),
        ))
        assert effective_pom(model).dependencies[0].version_spec.pin == "2.0"

    def test_range_assembled_from_property(self):
        model = parse_pom(pom_xml(
            "g", "a", "1", properties={"lo": "1.0"},
            deps=(dep_xml("x", "y", "[${lo},2.0)"),),
        ))
        spec = effective_pom(model).dependencies[0].version_spec
        assert spec.kind == "range" and spec.intervals[0].lower == "1.0"


class TestEffective:
    def parent_and_child(self):
        parent = parse_pom(pom_xml(
            "com.acme", "parent", "1.0", packaging="pom",
            properties={"text.version": "1.0"},
            dm=(dep_xml("org.acme", "text", "${text.version}"),
                dep_xml("com.google.code.gson", "gson", "2.13.2")),
        ))
        child = parse_pom(pom_xml(
            None, "child", None, parent=("com.acme", "parent", "1.0"),
            deps=(dep_xml("org.acme", "text"),),
        ))
        return parent, child

    def test_parentless_identity(self):
        model = parse_pom(pom_xml("g", "a", "1", deps=(dep_xml("x", "y", "1.0"),)))
        assert effective_pom(model) == model

    def test_management_fills_missing_version(self):
        parent, child = self.parent_and_child()
        out = effective_pom(child, parent_loader=lambda gav: parent)
        assert out.coordinates == Gav("com.acme", "child", "1.0")
        dep = next(d for d in out.dependencies if d.artifact_id == "text")
        assert dep.version_spec.pin == "1.0"

    def test_child_remanagement_wins(self):
        parent, _ = self.parent_and_child()
        child = parse_pom(pom_xml(
            None, "child", None, parent=("com.acme", "parent", "1.0"),
            dm=(dep_xml("com.google.code.gson", "gson", "2.12.0"),),
            deps=(dep_xml("com.google.code.gson", "gson"),),
        ))
        out = effective_pom(child, parent_loader=lambda gav: parent)
        dep = next(d for d in out.dependencies if d.artifact_id == "gson")
        assert dep.version_spec.pin == "2.12.0"

    def test_inherited_properties_child_override_and_parent_only(self):
        parent = parse_pom(pom_xml(
            "com.acme", "parent", "1.0", packaging="pom",
            properties={"text.version": "1.0", "gson.version": "2.13.2"},
            dm=(dep_xml("org.acme", "text", "${text.version}"),
                dep_xml("com.google.code.gson", "gson", "${gson.version}")),
        ))
        child = parse_pom(pom_xml(
            None, "child", None, parent=("com.acme", "parent", "1.0"),
            properties={"text.version": "1.5"},
            deps=(dep_xml("org.acme", "text"), dep_xml("com.google.code.gson", "gson")),
        ))
        out = effective_pom(child, parent_loader=lambda gav: parent)
        pins = {d.artifact_id: d.version_spec.pin for d in out.dependencies}
        # the child's override reaches the parent's management; the parent-only one resolves
        assert pins == {"text": "1.5", "gson": "2.13.2"}
        assert out.properties == {"text.version": "1.5", "gson.version": "2.13.2"}

    def test_unloadable_parent_carries_gav(self):
        _, child = self.parent_and_child()
        with pytest.raises(ParentResolutionError) as err:
            effective_pom(child, parent_loader=lambda gav: None)
        assert err.value.parent_gav == Gav("com.acme", "parent", "1.0")

    def test_parent_without_a_loader_is_named(self):
        _, child = self.parent_and_child()
        with pytest.raises(ParentResolutionError,
                           match="^no loader available for parent com.acme:parent:1.0$") as err:
            effective_pom(child, None)
        assert err.value.parent_gav == Gav("com.acme", "parent", "1.0")

    def test_chain_depth_limited(self):
        def loader(gav):
            n = int(gav.artifact_id[1:])
            return parse_pom(pom_xml(
                "g", f"p{n}", "1",
                parent=("g", f"p{n + 1}", "1") if n < 50 else None,
            ))

        child = parse_pom(pom_xml("g", "p0", "1", parent=("g", "p1", "1")))
        with pytest.raises(ParentResolutionError, match="longer"):
            effective_pom(child, parent_loader=loader)

    def test_idempotent_on_own_output(self):
        model = parse_pom(pom_xml(
            "g", "a", "1", properties={"v": "1.0"},
            deps=(dep_xml("x", "y", "${v}"),),
        ))
        once = effective_pom(model)
        assert effective_pom(once) == once
