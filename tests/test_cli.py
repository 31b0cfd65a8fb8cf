import json

import pytest

from conftest import (
    break_core,
    build_aggregator,
    build_single,
    dep_xml,
    fail_staging,
    flip_byte,
    pom_xml,
)
from mvnlock.cli import main


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


class TestFreeze:
    def test_writes_frozen_pom(self, single_fixture):
        assert run(single_fixture, "generate") == 0
        assert run(single_fixture, "freeze") == 0
        frozen = single_fixture.project_root / "pom.lockfile.xml"
        assert frozen.is_file()
        first = frozen.read_bytes()
        assert run(single_fixture, "freeze") == 0
        assert frozen.read_bytes() == first

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


class TestExitCodeTotality:
    def test_bad_project_path_is_operational(self, single_fixture):
        assert main(["generate", "--project", "/nonexistent",
                     "--repo-url", single_fixture.repo.url,
                     "--local-repo", str(single_fixture.cache_root)]) == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert "mvnlock" in capsys.readouterr().out
