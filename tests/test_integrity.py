import copy
import json
import random

import pytest

from conftest import dep_xml, flip_byte, pom_xml
from mvnlock.errors import MvnlockError, ResolutionError
from mvnlock.integrity import (
    Finding,
    ValidationReport,
    compare,
    validate,
    verify_checksums,
)
from mvnlock.lockfile import EnvironmentMetadata, LockfileConfig, generate_lockfile
from mvnlock.project import load_project
from mvnlock.pom import Gav
from mvnlock.resolver import resolve


def generated(fixture, rel=".", config=None):
    repo = fixture.repository()
    module = next(m for m in load_project(fixture.project_root, repo)
                  if m.rel_path == rel)
    lock = generate_lockfile(module.effective, config or LockfileConfig(), repo)
    return module, lock, repo


def checks(module, lock, repo):
    """The digest checks ``compare`` makes of the lockfile against the module resolved now."""
    return compare(module.effective, lock, resolve(module.effective, repo))[1]


class TestRoundTrip:
    def test_fresh_lockfile_validates_clean(self, fixture):
        for rel in fixture.module_paths:
            module, lock, repo = generated(fixture, rel)
            report = validate([module], [lock], repo)[0]
            assert report.passed and report.findings == []


class TestTamperDetection:
    def test_single_byte_flip_yields_one_finding(self, single_fixture):
        module, lock, repo = generated(single_fixture)
        target = single_fixture.cached_artifact("com.google.code.gson", "gson", "2.13.2")
        original = flip_byte(target, offset=11)
        try:
            report = validate([module], [lock], repo)[0]
        finally:
            target.write_bytes(original)
        assert not report.passed
        errors = [f for f in report.findings if f.severity == "error"]
        assert len(errors) == 1
        assert errors[0].kind == "checksum-mismatch"
        assert (errors[0].group_id, errors[0].artifact_id) == \
            ("com.google.code.gson", "gson")

    def test_all_digests_equal_no_findings(self, single_fixture):
        module, lock, repo = generated(single_fixture)
        assert verify_checksums(checks(module, lock, repo), repo) == []

    def test_remote_sidecar_tamper_detected(self, single_fixture):
        module, lock, repo = generated(
            single_fixture, config=LockfileConfig(checksum_mode="remote"))
        sidecar = single_fixture.repo.artifact_path(
            "com.google.code.gson", "gson", "2.13.2", "jar.sha256")
        sidecar.write_text("0" * 64 + "  gson-2.13.2.jar\n")
        findings = verify_checksums(checks(module, lock, repo), repo)
        kinds = {(f.kind, f.artifact_id) for f in findings}
        assert ("checksum-mismatch", "gson") in kinds
        # repository and cache now disagree with each other as well
        assert ("source-mismatch", "gson") in kinds


class TestResolutionDrift:
    def test_new_in_range_version_flagged(self, fixture):
        per_module = [generated(fixture, rel) for rel in fixture.module_paths]
        fixture.mutate(random.Random(3))
        drift_kinds = set()
        for module, lock, repo in per_module:
            report = validate([module], [lock], repo)[0]
            drift_kinds |= {f.kind for f in report.findings}
        assert drift_kinds & {"version-mismatch", "missing-dependency", "extra-dependency"}

    def test_missing_dependency_reported(self, single_fixture):
        module, lock, repo = generated(single_fixture)
        phantom = copy.deepcopy(lock.dependencies[0])
        phantom.group_id, phantom.artifact_id = "org.gone", "phantom"
        lock.dependencies.append(phantom)
        report = validate([module], [lock], repo)[0]
        kinds = {(f.kind, f.artifact_id) for f in report.findings}
        assert ("missing-dependency", "phantom") in kinds

    def test_extra_dependency_reported(self, single_fixture):
        module, lock, repo = generated(single_fixture)
        lock.dependencies = [e for e in lock.dependencies if e.artifact_id != "gson"]
        report = validate([module], [lock], repo)[0]
        kinds = {(f.kind, f.artifact_id) for f in report.findings}
        assert ("extra-dependency", "gson") in kinds
        assert not report.passed

    def test_resolution_failure_is_error_not_report(self, single_fixture):
        import shutil

        module, lock, repo = generated(single_fixture)
        shutil.rmtree(single_fixture.repo.root)
        shutil.rmtree(single_fixture.cache_root)
        with pytest.raises(MvnlockError) as raised:
            validate([module], [lock], repo)
        assert str(raised.value).startswith("module .: ")
        assert isinstance(raised.value.__cause__, ResolutionError)


class TestEnvironment:
    def test_drift_keeps_report_passing(self, single_fixture):
        module, lock, repo = generated(
            single_fixture, config=LockfileConfig(include_environment=True))
        # recorded via probe; compare against an explicit different environment
        current = EnvironmentMetadata("Linux", lock.environment.maven_version, "21",
                                      lock.environment.tool_version)
        lock.environment = EnvironmentMetadata(
            "Linux", lock.environment.maven_version, "17", lock.environment.tool_version)
        report = validate([module], [lock], repo, current_environment=current)[0]
        assert report.passed
        drift = [f for f in report.findings if f.kind == "environment-drift"]
        assert len(drift) == 1 and drift[0].severity == "warning"


class TestScopeDrift:
    def test_scope_edit_is_a_finding_and_checksums_still_checked(self, single_fixture):
        module, lock, repo = generated(single_fixture)
        (single_fixture.project_root / "pom.xml").write_text(pom_xml(
            "com.acme", "app", "1.0.0",
            deps=(dep_xml("com.google.code.gson", "gson", "2.13.2", scope="runtime"),
                  dep_xml("org.acme", "util", "1.0", scope="provided")),
        ), encoding="utf-8")
        (module,) = load_project(single_fixture.project_root, repo)
        flip_byte(single_fixture.cached_artifact("org.acme", "util", "1.0"), 3)
        report = validate([module], [lock], repo)[0]
        locked = {e.artifact_id: e for e in lock.flattened()}
        assert not report.passed
        assert [(f.kind, f.artifact_id, f.expected, f.actual) for f in report.findings] == [
            ("checksum-mismatch", "util", locked["util"].checksum.digest,
             repo.checksum_local(Gav("org.acme", "util", "1.0")).digest),
            ("scope-mismatch", "gson", "compile", "runtime"),
            ("scope-mismatch", "text", "compile", "provided"),
            ("scope-mismatch", "util", "compile", "provided"),
        ]


class TestReportShape:
    def test_findings_sorted_and_deterministic(self, single_fixture):
        module, lock, repo = generated(single_fixture)
        lock.dependencies = []  # everything becomes an extra-dependency
        one = validate([module], [lock], repo)[0]
        two = validate([module], [lock], repo)[0]
        assert json.dumps(one.to_document()) == json.dumps(two.to_document())
        keys = [f.sort_key() for f in one.findings]
        assert keys == sorted(keys)

    def test_passed_iff_no_error_findings(self):
        report = ValidationReport(module=Gav("g", "a", "1"))
        assert report.passed
        report.findings.append(
            Finding("environment-drift", "environment", "javaVersion", "17", "21"))
        assert report.passed
        report.findings.append(
            Finding("checksum-mismatch", "g", "a", "aa", "bb"))
        assert not report.passed

    def test_plugin_checksums_verified(self, tmp_path):
        from conftest import RepoBuilder, pom_xml, dep_xml
        from mvnlock.repo import MavenRepository, RepositoryConfig

        builder = RepoBuilder(tmp_path / "remote")
        builder.add("com.google.code.gson", "gson", "2.13.2")
        builder.add("org.apache.maven.plugins", "maven-jar-plugin", "3.3.0")
        project = tmp_path / "p"
        project.mkdir()
        (project / "pom.xml").write_text(pom_xml(
            "g", "plugged", "1.0",
            deps=(dep_xml("com.google.code.gson", "gson", "2.13.2"),),
            plugins=(("org.apache.maven.plugins", "maven-jar-plugin", "3.3.0"),),
        ))
        repo = MavenRepository(RepositoryConfig(
            remote_base_urls=(builder.url,), local_repo_root=tmp_path / "cache"))
        module = load_project(project, repo)[0]
        lock = generate_lockfile(module.effective,
                                 LockfileConfig(include_plugins=True), repo)
        assert validate([module], [lock], repo)[0].passed
        cached = (tmp_path / "cache" / "org/apache/maven/plugins/maven-jar-plugin"
                  / "3.3.0" / "maven-jar-plugin-3.3.0.jar")
        flip_byte(cached, offset=3)
        report = validate([module], [lock], repo)[0]
        assert not report.passed
        assert any(f.kind == "checksum-mismatch" and f.artifact_id == "maven-jar-plugin"
                   for f in report.findings)
