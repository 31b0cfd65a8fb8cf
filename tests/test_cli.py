import hashlib
import json
import os
import random
import re
import shutil
import stat
import threading
import time
from collections import Counter

import pytest

from conftest import (
    RepoBuilder,
    break_core,
    build_aggregator,
    build_single,
    dep_xml,
    fail_staging,
    flip_byte,
    pom_xml,
)
from mvnlock.cli import main
from mvnlock.errors import ModuleMismatchError, MvnlockError
from mvnlock.integrity import validate
from mvnlock.lockfile import parse_lockfile
from mvnlock.project import load_project


def run(fixture, *argv, extra=()):
    args = [
        argv[0],
        "--project", str(fixture.project_root),
        "--repo-url", fixture.repo.url,
        "--local-repo", str(fixture.cache_root),
        *argv[1:],
        *extra,
    ]
    return main(args)


class TestGenerate:
    def test_creates_lockfile_and_exits_zero(self, single_fixture, capsys):
        assert run(single_fixture, "generate") == 0
        out = capsys.readouterr().out
        assert "generated ./lockfile.json" in out
        assert (single_fixture.project_root / "lockfile.json").is_file()

    def test_rerun_byte_identical(self, single_fixture):
        assert run(single_fixture, "generate") == 0
        first = (single_fixture.project_root / "lockfile.json").read_bytes()
        assert run(single_fixture, "generate") == 0
        assert (single_fixture.project_root / "lockfile.json").read_bytes() == first

    def test_unresolvable_dependency_exits_two(self, single_fixture, capsys):
        import shutil

        shutil.rmtree(single_fixture.repo.root / "org")
        code = run(single_fixture, "generate")
        assert code == 2
        assert "org.acme" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", ["garbage\n", ""])
    def test_bad_published_sidecar_names_artifact(self, single_fixture, capsys, sidecar):
        single_fixture.repo.artifact_path("com.google.code.gson", "gson", "2.13.2",
                                          "jar.sha512").write_text(sidecar)
        code = run(single_fixture, "generate", "--checksum-mode", "remote",
                   "--checksum-algorithm", "sha512")
        assert code == 2
        err = capsys.readouterr().err
        assert "com.google.code.gson:gson:2.13.2" in err
        assert "gson-2.13.2.jar.sha512" in err
        assert not (single_fixture.project_root / "lockfile.json").exists()

    def test_range_over_namespaced_metadata(self, single_fixture):
        meta = single_fixture.repo.root / "org" / "acme" / "text" / "maven-metadata.xml"
        meta.write_text(meta.read_text(encoding="utf-8").replace(
            "<metadata>", '<metadata xmlns="http://maven.apache.org/METADATA/1.1.0">'),
            encoding="utf-8")
        assert run(single_fixture, "generate") == 0
        lock = parse_lockfile((single_fixture.project_root / "lockfile.json").read_bytes())
        assert ("org.acme", "text", "1.0") in {
            (e.group_id, e.artifact_id, e.version) for e in lock.flattened()}

    def test_multi_module_files(self, tmp_path):
        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate") == 0
        for rel in fixture.module_paths:
            assert (fixture.project_root / rel / "lockfile.json").is_file()

    def test_module_failure_exits_two_naming_module(self, tmp_path, capsys):
        fixture = build_aggregator(tmp_path)
        break_core(fixture)
        assert run(fixture, "generate") == 2
        err = capsys.readouterr().err
        assert err.startswith("mvnlock: error: module core: ")
        assert "org.acme:lib-b" in err
        for rel in fixture.module_paths:
            assert not (fixture.project_root / rel / "lockfile.json").exists()

    def test_machine_format(self, single_fixture, capsys):
        assert run(single_fixture, "generate", "--format", "machine") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "generate"
        assert doc["modules"][0]["module"] == "."
        assert doc["modules"][0]["notes"] == []

    def test_flags_round_trip_into_config_block(self, single_fixture):
        assert run(single_fixture, "generate", "--checksum-algorithm", "sha1",
                   "--no-include-test", "--include-environment",
                   "--env-os", "TestOS", "--env-java", "17", "--env-maven", "3.9") == 0
        doc = json.loads((single_fixture.project_root / "lockfile.json").read_text())
        assert doc["config"] == {
            "includePlugins": False,
            "includeEnvironment": True,
            "checksumMode": "local",
            "checksumAlgorithm": "sha1",
            "includeTest": False,
        }
        assert doc["environment"]["osName"] == "TestOS"
        assert doc["environment"]["javaVersion"] == "17"
        assert doc["environment"]["mavenVersion"] == "3.9"

    def test_lockfile_name_override(self, single_fixture):
        assert run(single_fixture, "generate", "--lockfile-name", "deps.lock.json") == 0
        assert (single_fixture.project_root / "deps.lock.json").is_file()


class TestValidate:
    @pytest.mark.parametrize("mode", ["local", "remote"])
    def test_reads_first_exactly_the_digests_it_compares(self, tmp_path, monkeypatch, mode):
        from mvnlock.session import Session

        fixture = build_aggregator(tmp_path)
        fixture.repo.add("org.p", "plug", "1.0")
        (fixture.project_root / "core" / "pom.xml").write_text(pom_xml(
            None, "core", None, parent=("com.acme.multi", "parent", "2.0"),
            deps=(dep_xml("org.acme", "util", "1.0"),), plugins=(("org.p", "plug", "1.0"),)),
            encoding="utf-8")
        flags = ("--checksum-mode", mode, "--include-plugins")
        assert run(fixture, "generate", *flags) == 0
        fixture.repo.add("org.acme", "lib-b", "1.5")  # web's lib-b drifts: no digest to read
        reads: Counter = Counter()
        lock = threading.Lock()
        once = Session._once

        def counted(self, key, compute):
            if key[0].startswith("checksum"):
                with lock:
                    reads[key[:2]] += 1
            return once(self, key, compute)

        monkeypatch.setattr(Session, "_once", counted)
        assert run(fixture, "validate", "--workers", "2", *flags) == 1
        # remote mode fills the cache with each jar, so a pooled pass reads every
        # digest and the comparison reads it again as a session hit; local mode
        # finds every jar cached and small, so no read waits and the comparison
        # makes each read itself, once
        assert set(reads.values()) == ({1} if mode == "local" else {2})
        read = {(name, str(gav)) for name, gav in reads}
        local = {("checksum_local", g) for g in ("org.acme:util:1.0", "org.acme:text:1.0",
                                                  "org.acme:lib-a:1.0", "org.p:plug:1.0")}
        if mode == "local":
            assert read == local
        else:
            # the cached copy of every artifact, the plugin's too, is hashed as well
            assert read == {("checksum_remote", g) for _, g in local} | local

    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_compares_each_module_once(self, tmp_path, monkeypatch, workers):
        import mvnlock.integrity

        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate") == 0
        compared = []
        compare = mvnlock.integrity.compare

        def counted(module_pom, *args, **kwargs):
            compared.append(str(module_pom.coordinates))
            return compare(module_pom, *args, **kwargs)

        monkeypatch.setattr(mvnlock.integrity, "compare", counted)
        assert run(fixture, "validate", "--workers", workers) == 0
        assert compared == ["com.acme.multi:parent:2.0", "com.acme.multi:core:2.0",
                            "com.acme.multi:web:2.0"]

    def test_entry_in_another_checksum_mode_is_refused(self, single_fixture, capsys):
        assert run(single_fixture, "generate") == 0
        lockfile = single_fixture.project_root / "lockfile.json"
        doc = json.loads(lockfile.read_text())
        doc["dependencies"][0]["checksumMode"] = "remote"
        lockfile.write_text(json.dumps(doc, indent=2) + "\n")
        for offline in ((), ("--offline",)):
            capsys.readouterr()
            assert run(single_fixture, "validate", *offline) == 2
            assert capsys.readouterr().err == (
                f"mvnlock: error: module .: {lockfile}: dependencies[0].checksumMode is "
                "'remote', but config.checksumMode is 'local'\n")

    def test_untampered_exits_zero(self, single_fixture):
        assert run(single_fixture, "generate") == 0
        assert run(single_fixture, "validate") == 0

    def test_tampered_artifact_exits_one_with_finding(self, single_fixture, capsys):
        assert run(single_fixture, "generate") == 0
        capsys.readouterr()
        flip_byte(single_fixture.cached_artifact("com.google.code.gson", "gson", "2.13.2"), 9)
        assert run(single_fixture, "validate", "--format", "machine") == 1
        doc = json.loads(capsys.readouterr().out)
        (report,) = doc["reports"]
        assert report["passed"] is False
        findings = [f for f in report["findings"] if f["severity"] == "error"]
        assert len(findings) == 1
        assert findings[0]["kind"] == "checksum-mismatch"
        assert findings[0]["artifactId"] == "gson"
        assert set(findings[0]) == {"kind", "groupId", "artifactId", "expected",
                                    "actual", "severity"}

    def test_missing_lockfile_exits_two(self, single_fixture, capsys):
        assert run(single_fixture, "validate") == 2
        assert "missing" in capsys.readouterr().err

    def test_skip_module_passes_despite_tamper(self, single_fixture):
        assert run(single_fixture, "generate") == 0
        flip_byte(single_fixture.cached_artifact("com.google.code.gson", "gson", "2.13.2"), 9)
        assert run(single_fixture, "validate") == 1
        assert run(single_fixture, "validate", "--skip-module", ".") == 0

    def test_skip_passes_with_note(self, single_fixture, capsys):
        # no lockfile is needed for a skipped module
        assert run(single_fixture, "validate", "--skip-module", ".") == 0
        out = capsys.readouterr().out
        assert "module . (com.acme:app:1.0.0): ok" in out
        assert "  note: validation skipped by configuration" in out
        assert run(single_fixture, "validate", "--skip-module", ".", "--format", "machine") == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["passed"] is True and report["findings"] == []
        assert report["notes"] == ["validation skipped by configuration"]
        assert report["modulePath"] == "."

    def test_module_failure_names_module_and_artifact(self, tmp_path, capsys):
        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate") == 0
        break_core(fixture)
        capsys.readouterr()
        assert run(fixture, "validate") == 2
        err = capsys.readouterr().err
        assert err.startswith("mvnlock: error: module core: ")
        assert "org.acme:lib-b" in err

    def test_scope_edit_is_a_finding(self, single_fixture, capsys):
        assert run(single_fixture, "generate") == 0
        (single_fixture.project_root / "pom.xml").write_text(pom_xml(
            "com.acme", "app", "1.0.0",
            deps=(dep_xml("com.google.code.gson", "gson", "2.13.2", scope="runtime"),
                  dep_xml("org.acme", "util", "1.0", scope="provided")),
        ), encoding="utf-8")
        capsys.readouterr()
        assert run(single_fixture, "validate", "--format", "machine") == 1
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert [(f["kind"], f["artifactId"], f["expected"], f["actual"])
                for f in report["findings"]] == [
            ("scope-mismatch", "gson", "compile", "runtime"),
            ("scope-mismatch", "text", "compile", "provided"),
            ("scope-mismatch", "util", "compile", "provided"),
        ]

    def test_environment_drift_warns_but_passes(self, single_fixture, capsys):
        assert run(single_fixture, "generate", "--include-environment",
                   "--env-os", "CI", "--env-java", "17", "--env-maven", "3.9") == 0
        capsys.readouterr()
        assert run(single_fixture, "validate",
                   "--env-os", "CI", "--env-java", "21", "--env-maven", "3.9") == 0
        out = capsys.readouterr().out
        assert "environment-drift" in out and "warning" in out


class TestManifestDrift:
    """Validate catches a manifest edit that generate would lock differently."""

    @pytest.mark.parametrize("after, finding", [
        ((("org.p", "plug", "1.0"),), None),
        ((("org.p", "plug", "2.0"),), "version-mismatch org.p:plug: expected '1.0', actual '2.0'"),
        ((), "missing-dependency org.p:plug: expected '1.0', actual None"),
        ((("org.p", "plug", "1.0"), ("org.p", "other", "1.0")),
         "extra-dependency org.p:other: expected None, actual '1.0'"),
    ], ids=["unchanged", "bumped", "dropped", "added"])
    def test_plugins_match_the_manifest(self, single_fixture, capsys, after, finding):
        for version in ("1.0", "2.0"):
            single_fixture.repo.add("org.p", "plug", version)
        single_fixture.repo.add("org.p", "other", "1.0")
        pom = single_fixture.project_root / "pom.xml"
        deps = (dep_xml("com.google.code.gson", "gson", "2.13.2"),)
        pom.write_text(pom_xml("com.acme", "app", "1.0.0", deps=deps,
                               plugins=(("org.p", "plug", "1.0"),)), encoding="utf-8")
        assert run(single_fixture, "generate", "--include-plugins") == 0
        pom.write_text(pom_xml("com.acme", "app", "1.0.0", deps=deps, plugins=after),
                       encoding="utf-8")
        capsys.readouterr()
        assert run(single_fixture, "validate") == (0 if finding is None else 1)
        assert capsys.readouterr().out == (
            "module . (com.acme:app:1.0.0): ok\n" if finding is None else
            f"module . (com.acme:app:1.0.0): FAILED\n  [error] {finding}\n")

    @pytest.mark.parametrize("before, after, expected, actual", [
        (False, True, "transitive", "direct"),
        (True, False, "direct", "transitive"),
    ], ids=["to-direct", "to-transitive"])
    def test_direct_flag_change_is_a_finding(self, single_fixture, capsys, before, after,
                                             expected, actual):
        single_fixture.repo.add("org.b", "b", "1.0")
        single_fixture.repo.add("org.a", "a", "1.0", deps=(dep_xml("org.b", "b", "[1.0,2.0)"),))
        pom = single_fixture.project_root / "pom.xml"

        def declare(direct_b: bool) -> None:
            deps = (dep_xml("org.a", "a", "1.0"),) + (
                (dep_xml("org.b", "b", "1.0"),) if direct_b else ())
            pom.write_text(pom_xml("com.acme", "app", "1.0.0", deps=deps), encoding="utf-8")

        declare(before)
        assert run(single_fixture, "generate") == 0
        declare(after)
        capsys.readouterr()
        assert run(single_fixture, "validate", "--format", "machine") == 1
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert [(f["kind"], f["groupId"], f["artifactId"], f["expected"], f["actual"])
                for f in report["findings"]] == [("direct-mismatch", "org.b", "b", expected, actual)]

    def test_dependency_cycle_is_a_note(self, single_fixture, capsys):
        single_fixture.repo.add("org.c", "x", "1.0", deps=(dep_xml("org.c", "y", "1.0"),))
        single_fixture.repo.add("org.c", "y", "1.0", deps=(dep_xml("org.c", "x", "1.0"),))
        (single_fixture.project_root / "pom.xml").write_text(pom_xml(
            "com.acme", "app", "1.0.0", deps=(dep_xml("org.c", "x", "1.0"),)), encoding="utf-8")
        note = ("dependency cycle dropped: org.c:x:1.0 already on path "
                "com.acme:app:1.0.0 -> org.c:x:1.0 -> org.c:y:1.0")
        assert run(single_fixture, "generate") == 0
        assert capsys.readouterr().out == (
            f"generated ./lockfile.json (2 dependencies, 1 direct)\n  note: {note}\n")
        payload = (single_fixture.project_root / "lockfile.json").read_bytes()
        assert b"already on path" not in payload
        assert run(single_fixture, "generate", "--format", "machine") == 0
        (module,) = json.loads(capsys.readouterr().out)["modules"]
        assert module["notes"] == [note]
        assert (single_fixture.project_root / "lockfile.json").read_bytes() == payload
        assert run(single_fixture, "validate") == 0
        assert capsys.readouterr().out == (
            f"module . (com.acme:app:1.0.0): ok\n  note: {note}\n")
        assert run(single_fixture, "validate", "--format", "machine") == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["notes"] == [note] and report["findings"] == []


class TestSkipModule:
    @pytest.mark.parametrize("command", ["validate", "freeze"])
    def test_paths_name_modules_however_written(self, tmp_path, command):
        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate") == 0
        for name in ("lockfile.json", "core/lockfile.json"):
            (fixture.project_root / name).unlink()
        assert run(fixture, command, "--skip-module", "./", "--skip-module", "core/") == 0
        assert run(fixture, command, "--skip-module", ".", "--skip-module", "./core") == 0

    @pytest.mark.parametrize("command", ["validate", "freeze"])
    def test_path_naming_no_module_exits_two(self, single_fixture, capsys, command):
        assert run(single_fixture, "generate") == 0
        capsys.readouterr()
        assert run(single_fixture, command, "--skip-module", "nosuch",
                   "--skip-module", ".") == 2
        assert capsys.readouterr() == ("", "mvnlock: error: --skip-module names no module: "
                                           "nosuch\n")


    def test_generate_refuses_a_path_naming_no_module_and_skips_none(self, tmp_path, capsys):
        fixture = build_aggregator(tmp_path)
        locks = [fixture.project_root / rel / "lockfile.json" for rel in fixture.module_paths]
        assert run(fixture, "generate", "--skip-module", "nosuch", "--skip-module", "core") == 2
        assert capsys.readouterr() == ("", "mvnlock: error: --skip-module names no module: "
                                           "nosuch\n")
        assert [lock for lock in locks if lock.exists()] == []
        assert run(fixture, "generate", "--skip-module", "core") == 0
        assert [lock for lock in locks if not lock.exists()] == []


@pytest.mark.parametrize("command", [
    ("generate",),
    ("validate",),
    ("validate", "--offline"),
    ("freeze",),
    ("ci-check", "--changed-file", "pom.xml"),
    ("ci-check", "--changed-file", "src/A.java"),
], ids=" ".join)
def test_each_command_loads_the_project_once(tmp_path, monkeypatch, command):
    import sys

    import mvnlock.project

    fixture = build_aggregator(tmp_path)
    assert run(fixture, "generate") == 0
    original, roots = mvnlock.project.load_project, []

    def counted(root, *args, **kwargs):
        roots.append(root)
        return original(root, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mvnlock" and getattr(module, "load_project", None) is original:
            monkeypatch.setattr(module, "load_project", counted)
    assert run(fixture, *command) == 0
    assert roots == [fixture.project_root]


class TestGenerationFlags:
    """Validate, freeze and a validating ci-check refuse a flag the lockfile contradicts."""

    @pytest.mark.parametrize("command", [
        ("validate",), ("freeze",), ("ci-check", "--changed-file", "src/A.java")],
        ids=lambda command: command[0])
    @pytest.mark.parametrize("flag, recorded", [
        (("--checksum-mode", "remote"), "checksum_mode 'local'"),
        (("--checksum-algorithm", "sha512"), "checksum_algorithm 'sha256'"),
        (("--no-include-test",), "include_test True"),
        (("--include-plugins",), "include_plugins False"),
        (("--include-environment",), "include_environment False"),
    ], ids=["checksum-mode", "checksum-algorithm", "no-include-test", "include-plugins",
            "include-environment"])
    def test_flag_contradicting_the_lockfile_is_refused(self, single_fixture, capsys,
                                                         command, flag, recorded):
        project = single_fixture.project_root
        assert run(single_fixture, "generate") == 0
        capsys.readouterr()
        assert run(single_fixture, *command, *flag) == 2
        advice = ("; to verify in mode 'remote', pass --override-checksum-mode remote "
                  "to validate" if flag[0] == "--checksum-mode" else "")
        assert capsys.readouterr() == ("", (
            f"mvnlock: error: module .: {' '.join(flag)} contradicts "
            f"{project / 'lockfile.json'}, which records {recorded}{advice}\n"))
        assert not (project / "pom.lockfile.xml").exists()
        # the same flag agrees with a lockfile generated with it
        assert run(single_fixture, "generate", *flag) == 0
        assert run(single_fixture, *command, *flag) == 0


def build_shapes(tmp_path):
    """A module with a direct ``<type>pom</type>`` dependency and a ``tests``-classified jar.

    The classified jar's plain sibling is published too, with other bytes, so
    a digest read by the wrong file differs from the locked one.
    """
    fixture = build_single(tmp_path)
    repo = fixture.repo
    repo.add("org.acme", "bom-ish", "1.0", packaging="pom")
    repo.write_sidecars(repo.artifact_path("org.acme", "bom-ish", "1.0", "pom"))
    repo.add("org.acme", "fixtures", "1.0")
    tests_jar = repo.artifact_path("org.acme", "fixtures", "1.0", "jar").with_name(
        "fixtures-1.0-tests.jar")
    tests_jar.write_bytes(b"test classes of org.acme:fixtures:1.0 " * 9)
    repo.write_sidecars(tests_jar)
    classified = ("<dependency><groupId>org.acme</groupId><artifactId>fixtures</artifactId>"
                  "<version>1.0</version><classifier>tests</classifier>"
                  "<scope>test</scope></dependency>")
    (fixture.project_root / "pom.xml").write_text(pom_xml(
        "com.acme", "app", "1.0.0",
        deps=(dep_xml("com.google.code.gson", "gson", "2.13.2"),
              dep_xml("org.acme", "bom-ish", "1.0", dep_type="pom"),
              classified),
    ), encoding="utf-8")
    return fixture, tests_jar


class TestTypeAndClassifier:
    """Validate reads each entry by the type and classifier generate locked."""

    @pytest.mark.parametrize("mode", ["local", "remote"])
    def test_fresh_lockfile_validates(self, tmp_path, capsys, mode):
        fixture, _ = build_shapes(tmp_path)
        assert run(fixture, "generate", "--checksum-mode", mode) == 0
        capsys.readouterr()
        assert run(fixture, "validate") == 0
        assert capsys.readouterr().out == "module . (com.acme:app:1.0.0): ok\n"

    @pytest.mark.parametrize("mode", ["local", "remote"])
    def test_flipped_classified_jar_is_reported(self, tmp_path, capsys, mode):
        fixture, tests_jar = build_shapes(tmp_path)
        assert run(fixture, "generate", "--checksum-mode", mode) == 0
        if mode == "local":
            kind = "checksum-mismatch"  # the cached copy no longer hashes to the lock
            flip_byte(fixture.cache_root / tests_jar.relative_to(fixture.repo.root), 4)
        else:
            kind = "source-mismatch"  # the sidecar still matches; the fetched jar does not
            flip_byte(tests_jar, 4)
        capsys.readouterr()
        assert run(fixture, "validate", "--format", "machine") == 1
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert [(f["kind"], f["groupId"], f["artifactId"]) for f in report["findings"]] == [
            (kind, "org.acme", "fixtures")]


class TestModuleMismatch:
    """Validate refuses a lockfile of other coordinates, with freeze's error."""

    @pytest.mark.parametrize("command", ["validate", "freeze"])
    def test_another_modules_lockfile(self, tmp_path, capsys, command):
        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate") == 0
        shutil.copy(fixture.project_root / "core" / "lockfile.json",
                    fixture.project_root / "web" / "lockfile.json")
        capsys.readouterr()
        assert run(fixture, command, "--format", "machine") == 2
        assert capsys.readouterr() == ("", (
            "mvnlock: error: module web: lockfile is for com.acme.multi:core:2.0, "
            "manifest is com.acme.multi:web:2.0\n"))

    @pytest.mark.parametrize("command", ["validate", "freeze"])
    def test_bumped_module_version(self, tmp_path, capsys, command):
        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate") == 0
        web_pom = fixture.project_root / "web" / "pom.xml"
        web_pom.write_text(web_pom.read_text().replace(
            "<artifactId>web</artifactId>", "<artifactId>web</artifactId><version>2.1</version>"))
        capsys.readouterr()
        assert run(fixture, command) == 2
        assert capsys.readouterr() == ("", (
            "mvnlock: error: module web: lockfile is for com.acme.multi:web:2.0, "
            "manifest is com.acme.multi:web:2.1\n"))


    def test_refused_before_anything_is_fetched(self, single_fixture, capsys):
        assert run(single_fixture, "generate") == 0
        lockfile = single_fixture.project_root / "lockfile.json"
        lockfile.write_text(lockfile.read_text().replace(
            '"version": "1.0.0"', '"version": "9.9.9"', 1))
        shutil.rmtree(single_fixture.cache_root)
        repo = single_fixture.repository()
        (module,) = load_project(single_fixture.project_root, repo)
        with pytest.raises(MvnlockError) as raised:
            validate([module], [parse_lockfile(lockfile.read_bytes())], repo)
        assert str(raised.value) == (
            "module .: lockfile is for com.acme:app:9.9.9, manifest is com.acme:app:1.0.0")
        assert isinstance(raised.value.__cause__, ModuleMismatchError)
        capsys.readouterr()
        assert run(single_fixture, "validate") == 2
        assert capsys.readouterr() == ("", f"mvnlock: error: {raised.value}\n")
        assert not single_fixture.cache_root.exists()


class TestFreeze:
    def test_writes_frozen_pom(self, single_fixture):
        assert run(single_fixture, "generate") == 0
        assert run(single_fixture, "freeze") == 0
        frozen = single_fixture.project_root / "pom.lockfile.xml"
        assert frozen.is_file()
        first = frozen.read_bytes()
        assert run(single_fixture, "freeze") == 0
        assert frozen.read_bytes() == first

    def test_header_names_each_lockfile_by_the_sha256_of_its_canonical_bytes(self, tmp_path):
        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate") == 0
        assert run(fixture, "freeze") == 0

        def recorded(rel):
            text = (fixture.project_root / rel / "pom.lockfile.xml").read_text(encoding="utf-8")
            return re.search(r"source lockfile sha256:([0-9a-f]{64}) ", text).group(1)

        lockfiles = {rel: fixture.project_root / rel / "lockfile.json"
                     for rel in fixture.module_paths}
        canonical = {rel: path.read_bytes() for rel, path in lockfiles.items()}
        for rel, payload in canonical.items():
            assert recorded(rel) == hashlib.sha256(payload).hexdigest(), rel
        frozen = (fixture.project_root / "core" / "pom.lockfile.xml").read_bytes()
        # a valid lockfile in another layout is recorded by its canonical bytes
        lockfiles["core"].write_text(json.dumps(json.loads(canonical["core"]), indent=4))
        assert run(fixture, "freeze") == 0
        assert recorded("core") == hashlib.sha256(canonical["core"]).hexdigest()
        assert (fixture.project_root / "core" / "pom.lockfile.xml").read_bytes() == frozen

    def test_stale_lockfile_exits_two(self, single_fixture, capsys):
        assert run(single_fixture, "generate") == 0
        pom = single_fixture.project_root / "pom.xml"
        text = pom.read_text().replace(
            "<dependencies>",
            "<dependencies><dependency><groupId>org.acme</groupId>"
            "<artifactId>text</artifactId><version>1.0</version></dependency>",
            1,
        )
        pom.write_text(text)
        assert run(single_fixture, "freeze") == 2
        assert "text" in capsys.readouterr().err

    def test_missing_lockfile_exits_two(self, single_fixture):
        assert run(single_fixture, "freeze") == 2

    def test_missing_module_lockfile_writes_no_frozen_pom(self, tmp_path, capsys):
        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate") == 0
        (fixture.project_root / "web" / "lockfile.json").unlink()
        capsys.readouterr()
        assert run(fixture, "freeze") == 2
        assert "module web: missing lockfile.json" in capsys.readouterr().err
        assert list(fixture.project_root.rglob("pom.lockfile.xml")) == []

    def test_module_failure_names_module(self, tmp_path, capsys):
        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate") == 0
        break_core(fixture)
        capsys.readouterr()
        assert run(fixture, "freeze") == 2
        err = capsys.readouterr().err
        assert err.startswith("mvnlock: error: module core: ")
        assert "org.acme:lib-b" in err
        assert list(fixture.project_root.rglob("pom.lockfile.xml")) == []


    def test_range_in_a_locked_version_is_refused_and_nothing_written(self, single_fixture,
                                                                      capsys):
        assert run(single_fixture, "generate") == 0
        lockfile = single_fixture.project_root / "lockfile.json"
        doc = json.loads(lockfile.read_text())
        doc["dependencies"][1]["children"][0]["version"] = "[1.0,2.0)"
        lockfile.write_text(json.dumps(doc, indent=2) + "\n")
        capsys.readouterr()
        assert run(single_fixture, "freeze") == 2
        assert ("dependencies[1].children[0]: version '[1.0,2.0)' contains range syntax"
                in capsys.readouterr().err)
        assert list(single_fixture.project_root.rglob("pom.lockfile.xml")) == []


    def test_unlocked_test_dependency_is_left_as_written(self, single_fixture):
        single_fixture.repo.add("org.acme", "testlib", "1.0")
        single_fixture.repo.add("org.acme", "testlib", "1.1")
        pom = single_fixture.project_root / "pom.xml"
        pom.write_text(pom_xml(
            "com.acme", "app", "1.0.0",
            deps=(dep_xml("com.google.code.gson", "gson", "2.13.2"),
                  dep_xml("org.acme", "util", "1.0"),
                  dep_xml("org.acme", "testlib", "[1.0,2.0)", scope="test")),
        ), encoding="utf-8")
        assert run(single_fixture, "generate", "--no-include-test") == 0
        assert run(single_fixture, "freeze") == 0
        frozen = (single_fixture.project_root / "pom.lockfile.xml").read_text(encoding="utf-8")
        (testlib,) = re.findall(r"<dependency>\s*<groupId>org\.acme</groupId>\s*"
                                r"<artifactId>testlib</artifactId>.*?</dependency>", frozen,
                                re.DOTALL)
        assert "<version>[1.0,2.0)</version>" in testlib
        assert frozen.count("<artifactId>testlib</artifactId>") == 1  # and no pin


class TestParentProperties:
    def test_module_dependency_at_the_parent_version(self, tmp_path, capsys):
        from mvnlock.pom import effective_pom, parse_pom

        fixture = build_aggregator(tmp_path)
        fixture.repo.add("com.acme.multi", "api", "2.0")
        web = fixture.project_root / "web"
        (web / "pom.xml").write_text(pom_xml(
            None, "web", None, parent=("com.acme.multi", "parent", "2.0"),
            deps=(dep_xml("${project.parent.groupId}", "api", "${project.parent.version}"),
                  dep_xml("org.acme", "lib-a", "1.0")),
        ), encoding="utf-8")
        assert run(fixture, "generate") == 0
        lock = parse_lockfile((web / "lockfile.json").read_bytes())
        assert {(e.group_id, e.artifact_id, e.version) for e in lock.flattened() if e.direct} \
            == {("com.acme.multi", "api", "2.0"), ("org.acme", "lib-a", "1.0")}
        capsys.readouterr()
        assert run(fixture, "validate") == 0
        assert capsys.readouterr().err == ""
        assert run(fixture, "freeze") == 0
        frozen = (web / "pom.lockfile.xml").read_text(encoding="utf-8")
        # freeze reads the declared coordinates with the same built-ins, so the version is
        # replaced where it is written and api is not declared a second time
        assert "<groupId>${project.parent.groupId}</groupId><artifactId>api</artifactId>" \
               "<version>2.0</version>" in frozen
        assert frozen.count("<artifactId>api</artifactId>") == 1
        parent = parse_pom((fixture.project_root / "pom.xml").read_text(encoding="utf-8"))
        effective = effective_pom(parse_pom(frozen), parent_loader=lambda gav: parent)
        api = next(d for d in effective.dependencies if d.artifact_id == "api")
        assert (api.group_id, api.version_spec.pin) == ("com.acme.multi", "2.0")


class TestFailuresNameTheArtifact:
    """A failed listing or read exits 2 naming what failed and leaves the lockfile as it was."""

    TEXT_PATH = "(path: com.acme:app:1.0.0 -> org.acme:util:1.0)"

    def failing(self, fixture, capsys, *argv) -> str:
        lockfile = fixture.project_root / "lockfile.json"
        before = lockfile.read_bytes()
        capsys.readouterr()
        assert run(fixture, *argv) == 2
        assert lockfile.read_bytes() == before
        return capsys.readouterr().err

    @pytest.mark.parametrize("metadata, reason", [
        (None, "org/acme/text/maven-metadata.xml not found in any configured repository"),
        ("<metadata><versioning>", "malformed version metadata for org.acme:text: "),
    ], ids=["missing", "malformed"])
    def test_listing_versions_fails_on_generate(self, single_fixture, capsys, metadata,
                                                reason):
        assert run(single_fixture, "generate") == 0
        published = single_fixture.repo.root / "org" / "acme" / "text" / "maven-metadata.xml"
        if metadata is None:
            published.unlink()
        else:
            published.write_text(metadata, encoding="utf-8")
        err = self.failing(single_fixture, capsys, "generate")
        assert err.startswith(
            f"mvnlock: error: module .: cannot list versions of org.acme:text: {reason}")
        assert err.rstrip().endswith(self.TEXT_PATH)

    def test_offline_without_cached_metadata(self, single_fixture, capsys):
        assert run(single_fixture, "generate") == 0
        (single_fixture.cache_root / "org" / "acme" / "text" / "maven-metadata.xml").unlink()
        for argv in (("validate", "--offline"), ("generate", "--offline")):
            err = self.failing(single_fixture, capsys, *argv)
            assert err == ("mvnlock: error: module .: cannot list versions of org.acme:text: "
                           f"no cached version metadata for org.acme:text {self.TEXT_PATH}\n")

    def test_offline_local_read_of_an_uncached_artifact(self, single_fixture, capsys):
        assert run(single_fixture, "generate") == 0
        single_fixture.cached_artifact("org.acme", "text", "1.0").unlink()
        err = self.failing(single_fixture, capsys, "validate", "--offline")
        assert err == "mvnlock: error: module .: offline and not cached: org.acme:text:1.0\n"

    @pytest.mark.parametrize("blocker, directory, reason", [
        ("com", "com/google/code/gson/gson/2.13.2", "Not a directory"),
        (".mvnlock", ".mvnlock", "File exists"),
    ], ids=["artifact-directory", "marker-directory"])
    def test_a_file_where_a_cache_directory_goes(self, single_fixture, capsys, blocker,
                                                  directory, reason):
        cache = single_fixture.cache_root
        cache.mkdir(parents=True, exist_ok=True)
        (cache / blocker).write_text("not a directory", encoding="utf-8")
        capsys.readouterr()
        assert run(single_fixture, "generate") == 2
        assert not (single_fixture.project_root / "lockfile.json").exists()
        gson = "com.google.code.gson:gson:2.13.2"
        assert capsys.readouterr().err == (
            f"mvnlock: error: module .: cannot load manifest of {gson}: cannot create cache "
            f"directory {cache / directory}: {reason} (path: com.acme:app:1.0.0)\n")

    def test_a_jar_fill_that_cannot_create_a_directory_names_its_artifact(self, single_fixture,
                                                                           capsys):
        assert run(single_fixture, "generate") == 0
        cache = single_fixture.cache_root
        single_fixture.cached_artifact("org.acme", "text", "1.0").unlink()
        shutil.rmtree(cache / ".mvnlock")
        (cache / ".mvnlock").write_text("not a directory", encoding="utf-8")
        err = self.failing(single_fixture, capsys, "generate")
        assert err == (f"mvnlock: error: module .: cannot create cache directory "
                       f"{cache / '.mvnlock'} for org.acme:text:1.0: File exists\n")

    def test_a_listing_that_cannot_create_its_directory_names_it_once(self, single_fixture,
                                                                       capsys):
        assert run(single_fixture, "generate") == 0
        listed = single_fixture.cache_root / "org" / "acme" / "text"
        shutil.rmtree(listed)
        listed.write_text("not a directory", encoding="utf-8")
        err = self.failing(single_fixture, capsys, "generate")
        assert err == (f"mvnlock: error: module .: cannot list versions of org.acme:text: "
                       f"cannot create cache directory {listed}: File exists {self.TEXT_PATH}\n")


class TestCiCheck:
    def test_unrelated_change_validates_clean(self, single_fixture):
        assert run(single_fixture, "generate") == 0
        assert run(single_fixture, "ci-check",
                   "--changed-file", "src/main/java/A.java") == 0

    def test_changed_pom_with_new_dependency_exits_three(self, single_fixture):
        assert run(single_fixture, "generate") == 0
        before = (single_fixture.project_root / "lockfile.json").read_bytes()
        pom = single_fixture.project_root / "pom.xml"
        pom.write_text(pom.read_text().replace(
            "<dependencies>",
            "<dependencies><dependency><groupId>org.acme</groupId>"
            "<artifactId>text</artifactId><version>1.0</version></dependency>",
            1,
        ))
        assert run(single_fixture, "ci-check", "--changed-file", "pom.xml") == 3
        after = (single_fixture.project_root / "lockfile.json").read_bytes()
        assert after != before
        assert b'"artifactId": "text"' in after

    def test_changed_lockfile_regenerated_exits_three(self, single_fixture):
        assert run(single_fixture, "generate") == 0
        lock = single_fixture.project_root / "lockfile.json"
        good = lock.read_bytes()
        lock.write_text(lock.read_text().replace("2.13.2", "9.9.9"))
        assert run(single_fixture, "ci-check", "--changed-file", "lockfile.json") == 3
        assert lock.read_bytes() == good

    def test_changed_pom_but_no_drift_exits_zero(self, single_fixture, capsys):
        assert run(single_fixture, "generate") == 0
        capsys.readouterr()
        assert run(single_fixture, "ci-check", "--changed-file", "pom.xml") == 0
        assert "up to date" in capsys.readouterr().out

    def test_tampered_cache_with_unrelated_change_exits_one(self, single_fixture):
        assert run(single_fixture, "generate") == 0
        flip_byte(single_fixture.cached_artifact("org.acme", "util", "1.0"), 4)
        assert run(single_fixture, "ci-check", "--changed-file", "README.md") == 1

    def test_regeneration_failure_leaves_files_untouched(self, single_fixture):
        import shutil

        assert run(single_fixture, "generate") == 0
        lock = single_fixture.project_root / "lockfile.json"
        before = lock.read_bytes()
        shutil.rmtree(single_fixture.repo.root / "org")
        shutil.rmtree(single_fixture.cache_root)
        assert run(single_fixture, "ci-check", "--changed-file", "pom.xml") == 2
        assert lock.read_bytes() == before

    def test_nested_manifest_path_matches(self, tmp_path):
        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate") == 0
        assert run(fixture, "ci-check", "--changed-file", "core/pom.xml") == 0


OUTPUTS = ("lockfile.json", "pom.lockfile.xml")


def outputs(fixture) -> dict:
    return {path: path.read_bytes() for rel in fixture.module_paths for name in OUTPUTS
            if (path := fixture.project_root / rel / name).is_file()}


class TestAllOrNothing:
    """A write failure on any module's output leaves every output as it was."""

    COMMANDS = {
        "generate": (("generate",), 0, "lockfile.json"),
        "ci-check": (("ci-check", "--changed-file", "pom.xml"), 3, "lockfile.json"),
        "freeze": (("freeze",), 0, "pom.lockfile.xml"),
    }

    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_kth_output_write_failure_changes_nothing(self, tmp_path, monkeypatch,
                                                      command, k):
        fixture = build_aggregator(tmp_path)
        # sha256 lockfiles and their frozen POMs, then sha1 lockfiles: each
        # command below now has a different file to write for every module
        assert run(fixture, "generate") == 0
        assert run(fixture, "freeze") == 0
        assert run(fixture, "generate", "--checksum-algorithm", "sha1") == 0
        argv, exit_code, written = self.COMMANDS[command]
        before = outputs(fixture)
        assert len(before) == 6

        staged = fail_staging(monkeypatch, k, OUTPUTS)
        assert run(fixture, *argv) == 2
        assert len(staged) == k + 1
        assert outputs(fixture) == before
        assert {p.name for p in fixture.project_root.rglob("*") if p.is_file()} \
            <= {"pom.xml", *OUTPUTS}

        monkeypatch.undo()
        assert run(fixture, *argv) == exit_code
        after = outputs(fixture)
        assert [p for p in before if after[p] != before[p]] == \
            [fixture.project_root / rel / written for rel in fixture.module_paths]


    def test_write_failure_names_the_file(self, tmp_path, monkeypatch, capsys):
        fixture = build_aggregator(tmp_path)
        fail_staging(monkeypatch, 1, ("lockfile.json",))
        assert run(fixture, "generate") == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"mvnlock: error: cannot write {fixture.project_root / 'core' / 'lockfile.json'}: ")
        assert not list(fixture.project_root.rglob("lockfile.json*"))


def test_every_written_file_gets_the_mode_the_umask_leaves(tmp_path):
    fixture = build_aggregator(tmp_path)
    umask = os.umask(0o027)
    try:
        assert run(fixture, "generate") == 0
        assert run(fixture, "generate", "--checksum-algorithm", "sha1") == 0  # rewrites
        assert run(fixture, "freeze") == 0
    finally:
        os.umask(umask)
    written = [p for root in (fixture.cache_root, fixture.project_root)
               for p in root.rglob("*") if p.is_file() and p.name != "pom.xml"]
    # cache fills of every kind, lockfiles and frozen POMs
    assert {p.suffix for p in written} == {".pom", ".jar", ".source", ".xml", ".json"}
    assert {p: stat.S_IMODE(p.stat().st_mode) for p in written} == dict.fromkeys(written, 0o640)


@pytest.mark.parametrize("seed", [0, 1])
def test_library_validate_reports_what_the_cli_reports(fixture, capsys, seed):
    """Library ``validate``, one module per call, agrees with the CLI's one call over all."""
    assert run(fixture, "generate") == 0
    rng = random.Random(seed)
    fixture.mutate(rng)
    flip_byte(rng.choice(sorted(fixture.cache_root.rglob("*.jar"))), 7)
    repo = fixture.repository()
    expected = []
    for module in load_project(fixture.project_root, repo):
        lock = parse_lockfile((module.directory / "lockfile.json").read_bytes())
        expected.append({**validate([module], [lock], repo)[0].to_document(),
                         "modulePath": module.rel_path})
    assert any(report["findings"] for report in expected)
    for workers in ("1", "4"):
        capsys.readouterr()
        code = run(fixture, "validate", "--format", "machine", "--workers", workers)
        assert json.loads(capsys.readouterr().out)["reports"] == expected
        assert code == (0 if all(report["passed"] for report in expected) else 1)


class TestOfflineAndWorkers:
    def test_validate_offline_after_online_generate(self, single_fixture):
        assert run(single_fixture, "generate") == 0
        assert main([
            "validate",
            "--project", str(single_fixture.project_root),
            "--local-repo", str(single_fixture.cache_root),
            "--offline",
        ]) == 0

    def test_offline_validate_of_remote_mode_says_what_to_do(self, single_fixture, capsys):
        assert run(single_fixture, "generate", "--checksum-mode", "remote") == 0
        offline = ["validate", "--project", str(single_fixture.project_root),
                   "--local-repo", str(single_fixture.cache_root), "--offline"]
        capsys.readouterr()
        assert main(offline) == 2
        err = capsys.readouterr().err
        assert "module ." in err
        assert str(single_fixture.project_root / "lockfile.json") in err
        assert "--override-checksum-mode local" in err
        # the advice works once the jars are cached, which remote mode does not do
        assert run(single_fixture, "generate", "--lockfile-name", "fill.json") == 0
        assert main([*offline, "--override-checksum-mode", "local"]) == 0

    def test_offline_ci_check_of_remote_mode_names_validate(self, single_fixture, capsys):
        # ci-check takes no --override-checksum-mode, so the advice says where it goes
        assert run(single_fixture, "generate", "--checksum-mode", "remote") == 0
        offline = ["--project", str(single_fixture.project_root),
                   "--local-repo", str(single_fixture.cache_root), "--offline"]
        capsys.readouterr()
        assert main(["ci-check", *offline, "--changed-file", "src/A.java"]) == 2
        assert capsys.readouterr() == ("", (
            f"mvnlock: error: module .: {single_fixture.project_root / 'lockfile.json'} "
            "records checksum mode 'remote', which needs remote access; to check it "
            "offline against the local cache, pass --override-checksum-mode local to "
            "validate\n"))
        assert run(single_fixture, "generate", "--lockfile-name", "fill.json") == 0
        assert main(["validate", *offline, "--override-checksum-mode", "local"]) == 0

    def test_parallel_modules_ordered_and_identical(self, tmp_path, capsys):
        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate", "--workers", "4") == 0
        out = capsys.readouterr().out
        assert (out.index("./lockfile.json") < out.index("core/lockfile.json")
                < out.index("web/lockfile.json"))
        parallel = [(fixture.project_root / rel / "lockfile.json").read_bytes()
                    for rel in fixture.module_paths]
        assert run(fixture, "generate", "--workers", "1") == 0
        serial = [(fixture.project_root / rel / "lockfile.json").read_bytes()
                  for rel in fixture.module_paths]
        assert parallel == serial

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_workers_below_one_is_rejected(self, single_fixture, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            run(single_fixture, "generate", "--workers", value)
        assert exit_info.value.code == 2
        assert f"argument --workers: must be at least 1, got {value}" in capsys.readouterr().err
        assert not (single_fixture.project_root / "lockfile.json").exists()

    def test_non_integer_workers_is_rejected(self, single_fixture, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(single_fixture, "generate", "--workers", "two")
        assert exit_info.value.code == 2
        assert ("argument --workers: expected a whole number, got 'two'"
                in capsys.readouterr().err)
        assert not (single_fixture.project_root / "lockfile.json").exists()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_validate_and_freeze_stay_within_workers(self, tmp_path, monkeypatch, workers):
        import mvnlock.freezer
        from mvnlock.repo import MavenRepository

        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate") == 0
        shutil.rmtree(fixture.cache_root)  # validate fetches every manifest and jar again
        before = threading.active_count()
        seen: dict[str, list[tuple[int, bool]]] = {}

        def counted(name, call):
            def wrapper(*args, **kwargs):
                seen.setdefault(name, []).append(
                    (threading.active_count(), threading.current_thread() is threading.main_thread()))
                time.sleep(0.01)  # keeps concurrent calls alive side by side
                return call(*args, **kwargs)

            return wrapper

        for name in ("fetch_pom", "checksum_local"):
            monkeypatch.setattr(MavenRepository, name,
                                counted(name, getattr(MavenRepository, name)))
        monkeypatch.setattr(mvnlock.freezer, "freeze", counted("freeze", mvnlock.freezer.freeze))
        assert run(fixture, "validate", "--workers", str(workers)) == 0
        assert run(fixture, "freeze", "--workers", str(workers)) == 0
        assert max(count for calls in seen.values() for count, _ in calls) <= before + workers
        assert {count for count, _ in seen["freeze"]} == {before}
        # resolution and comparison stay on the main thread; every jar is fetched
        # again, so hashing runs on the pool, on its one thread at 1 worker
        assert {on_main for _, on_main in seen["freeze"]} == {True}
        assert {on_main for _, on_main in seen["checksum_local"]} == {False}

    def test_tampered_findings_do_not_depend_on_workers(self, tmp_path, capsys):
        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate") == 0
        flip_byte(fixture.cached_artifact("org.acme", "text", "1.0"), 3)
        flip_byte(fixture.cached_artifact("org.acme", "lib-b", "1.0"), 5)
        outputs = []
        for workers in ("1", "4"):
            capsys.readouterr()
            assert run(fixture, "validate", "--format", "machine", "--workers", workers) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        found = {(report["modulePath"], f["kind"], f["artifactId"])
                 for report in json.loads(outputs[0])["reports"] for f in report["findings"]}
        assert found == {("core", "checksum-mismatch", "text"),
                         ("web", "checksum-mismatch", "lib-b")}

    @pytest.mark.parametrize("command", ["generate", "validate"])
    @pytest.mark.parametrize("offline", [False, True], ids=["missing", "offline"])
    def test_first_module_missing_a_manifest_is_reported(self, tmp_path, capsys, command,
                                                         offline):
        fixture = build_aggregator(tmp_path)
        if command == "validate":
            assert run(fixture, "generate") == 0
            shutil.rmtree(fixture.cache_root)
        if offline:
            extra = ("--offline",)
            missing = "com.google.code.gson:gson:2.13.2: offline and not cached"
        else:
            extra = ()
            # one manifest deep in web's tree, and one in core's, the earlier module
            fixture.repo.artifact_path("org.acme", "lib-b", "1.0", "pom").unlink()
            fixture.repo.artifact_path("org.acme", "text", "1.0", "pom").unlink()
            missing = ("org.acme:text:1.0: org/acme/text/1.0/text-1.0.pom not found in any "
                       "configured repository")
        capsys.readouterr()
        assert run(fixture, command, "--workers", "4", extra=extra) == 2
        assert capsys.readouterr().err == (
            f"mvnlock: error: module core: cannot load manifest of {missing} "
            "(path: com.acme.multi:core:2.0)\n")


class TestReadAheadThreads:
    """Digests go to the pool only when some read waits; otherwise no thread starts."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every checksum read, as (live thread count, on the main thread), and thread starts."""
        from mvnlock.repo import MavenRepository

        seen = {"reads": [], "starts": 0}

        def counted(call):
            def wrapper(*args, **kwargs):
                seen["reads"].append((threading.active_count(),
                                      threading.current_thread() is threading.main_thread()))
                return call(*args, **kwargs)

            return wrapper

        for name in ("checksum_local", "checksum_remote", "checksum_remote_with_source"):
            monkeypatch.setattr(MavenRepository, name, counted(getattr(MavenRepository, name)))
        start = threading.Thread.start

        def counted_start(thread):
            seen["starts"] += 1
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        return seen

    @staticmethod
    def pooled(monkeypatch):
        """From here on every read counts as waiting, so each read-ahead pass pools."""
        from mvnlock.repo import MavenRepository

        monkeypatch.setattr(MavenRepository, "read_waits", lambda self, *args: True)

    @staticmethod
    def cycle(fixture, capsys, mode, workers) -> tuple[list[bytes], str]:
        """Generate's lockfiles, then validate's machine report with one cached jar flipped."""
        assert run(fixture, "generate", "--checksum-mode", mode, "--workers", workers) == 0
        locks = [(fixture.project_root / rel / "lockfile.json").read_bytes()
                 for rel in fixture.module_paths]
        jar = fixture.cached_artifact("org.acme", "text", "1.0")
        original = flip_byte(jar, 3)
        capsys.readouterr()
        assert run(fixture, "validate", "--format", "machine", "--workers", workers) == 1
        jar.write_bytes(original)
        return locks, capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["1", "4"])
    @pytest.mark.parametrize("mode", ["local", "remote"])
    def test_warm_small_jars_start_no_thread(self, tmp_path, monkeypatch, capsys, calls, mode,
                                             workers):
        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate", "--lockfile-name", "fill.json") == 0  # caches every jar
        calls["reads"].clear()
        calls["starts"] = 0
        before = threading.active_count()
        thread_free = self.cycle(fixture, capsys, mode, workers)
        assert calls["starts"] == 0
        assert calls["reads"] and set(calls["reads"]) == {(before, True)}
        calls["reads"].clear()
        self.pooled(monkeypatch)
        assert self.cycle(fixture, capsys, mode, workers) == thread_free
        assert 0 < calls["starts"] <= 2 * int(workers)  # one pool each for generate and validate
        assert {on_main for _, on_main in calls["reads"]} == {False}

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("mode", ["local", "remote"])
    @pytest.mark.parametrize("case", ["big", "uncached"])
    def test_one_read_that_waits_pools_every_read(self, tmp_path, calls, case, mode, workers):
        from mvnlock.repo import _READ_HERE_MAX

        fixture = build_aggregator(tmp_path)
        if case == "big":
            fixture.repo.add("org.acme", "text", "1.0", jar=b"j" * (_READ_HERE_MAX + 1))
        assert run(fixture, "generate", "--lockfile-name", "fill.json") == 0  # caches every jar
        assert run(fixture, "generate", "--checksum-mode", mode) == 0
        if case == "uncached":
            fixture.cached_artifact("org.acme", "lib-b", "1.0").unlink()
        calls["reads"].clear()
        before = threading.active_count()
        assert run(fixture, "validate", "--workers", str(workers)) == 0
        assert calls["reads"]
        assert {on_main for _, on_main in calls["reads"]} == {False}
        assert max(count for count, _ in calls["reads"]) <= before + workers

    @pytest.mark.parametrize("command", ["generate", "validate"])
    def test_first_failing_module_wins_without_threads(self, tmp_path, monkeypatch, capsys,
                                                        calls, command):
        fixture = build_aggregator(tmp_path)
        assert run(fixture, "generate", "--lockfile-name", "fill.json") == 0  # caches every jar
        assert run(fixture, "generate", "--checksum-mode", "remote") == 0
        # core's text publishes a garbage sidecar; web's lib-b, a later module, none
        fixture.repo.artifact_path("org.acme", "text", "1.0", "jar.sha256").write_text(
            "not a digest\n", encoding="utf-8")
        fixture.repo.artifact_path("org.acme", "lib-b", "1.0", "jar.sha256").unlink()
        errors = []
        for pool in (False, True):
            if pool:
                self.pooled(monkeypatch)
            calls["starts"] = 0
            capsys.readouterr()
            assert run(fixture, command, "--checksum-mode", "remote", "--workers", "4") == 2
            assert bool(calls["starts"]) is pool
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("mvnlock: error: module core: ")
        assert "org.acme:text:1.0: bad checksum at " in errors[0]


class TestExitCodeTotality:
    def test_bad_project_path_is_operational(self, single_fixture):
        assert main(["generate", "--project", "/nonexistent",
                     "--repo-url", single_fixture.repo.url,
                     "--local-repo", str(single_fixture.cache_root)]) == 2

    @staticmethod
    def generate_fails(tmp_path, capsys, poms: dict[str, str],
                       remote_poms: dict[str, str] | None = None) -> str:
        """Generate on a project of ``poms`` (by module path) must exit 2 and write nothing.

        ``remote_poms`` maps an artifact id of group org.acme, version 1.0, to
        the POM text its remote repository serves. Returns stderr.
        """
        repo = RepoBuilder(tmp_path / "remote")
        for artifact, text in (remote_poms or {}).items():
            path = repo.artifact_path("org.acme", artifact, "1.0", "pom")
            path.parent.mkdir(parents=True)
            path.write_text(text)
        project = tmp_path / "project"
        for rel, text in poms.items():
            (project / rel).mkdir(parents=True, exist_ok=True)
            (project / rel / "pom.xml").write_text(text)
        capsys.readouterr()
        assert main(["generate", "--project", str(project), "--repo-url", repo.url,
                     "--local-repo", str(tmp_path / "cache")]) == 2
        assert not list(project.rglob("lockfile.json"))
        out, err = capsys.readouterr()
        assert out == ""
        return err

    def test_parent_cycle_between_project_poms(self, tmp_path, capsys):
        err = self.generate_fails(tmp_path, capsys, {
            ".": pom_xml("com.acme", "root", "1.0", packaging="pom",
                         parent=("com.acme", "child", "1.0"), modules=["child"]),
            "child": pom_xml("com.acme", "child", "1.0", parent=("com.acme", "root", "1.0")),
        })
        assert err == "mvnlock: error: parent chain cycle at com.acme:child:1.0\n"

    def test_remote_parent_that_fails_to_load(self, tmp_path, capsys):
        app = pom_xml(None, "app", None, parent=("org.acme", "parent", "1.0"))
        err = self.generate_fails(tmp_path, capsys, {".": app},
                                  {"parent": "<project><artifactId>parent"})
        assert err == ("mvnlock: error: cannot load parent org.acme:parent:1.0: malformed XML: "
                       "no element found (line 1, column 27)\n")

    def test_coordinates_incomplete_after_inheritance(self, tmp_path, capsys):
        app = pom_xml(None, "app", None, parent=("org.acme", "bare", "1.0"))
        err = self.generate_fails(tmp_path, capsys, {".": app}, {
            "bare": "<project><modelVersion>4.0.0</modelVersion><artifactId>bare</artifactId>"
                    "</project>"})
        assert err == "mvnlock: error: coordinates of app remain incomplete after inheritance\n"

    def test_coordinates_undeterminable_without_a_parent(self, tmp_path, capsys):
        err = self.generate_fails(tmp_path, capsys, {".": pom_xml(None, "app", None)})
        assert err == "mvnlock: error: cannot determine coordinates of app\n"

    def test_unresolvable_property_names_the_module(self, tmp_path, capsys):
        err = self.generate_fails(tmp_path, capsys, {
            ".": pom_xml("com.acme", "root", "1.0", packaging="pom", modules=["child"]),
            "child": pom_xml(None, "child", None, parent=("com.acme", "root", "1.0"),
                             deps=(dep_xml("org.acme", "x", "${nope}"),)),
        })
        assert err == "mvnlock: error: module child: unresolvable property reference ${nope}\n"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert "mvnlock" in capsys.readouterr().out
