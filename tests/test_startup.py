"""Each command loads only the code it runs.

Every command is a short process, so each import is paid on every run. Each
command runs here in a fresh interpreter; the modules it added to those a
bare interpreter already holds must not include the standard-library modules
the package avoids, nor the command modules it does not run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvnlock
from conftest import build_single
from mvnlock.cli import main

AVOIDED = {"dataclasses", "concurrent.futures", "logging", "platform", "inspect"}
COMMANDS = {
    "generate": (("generate",), {"mvnlock.freezer", "mvnlock.integrity"}),
    "validate": (("validate",), {"mvnlock.freezer"}),
    "validate-offline": (("validate", "--offline"), {"mvnlock.freezer"}),
    "freeze": (("freeze",), {"mvnlock.integrity"}),
    "ci-check": (("ci-check",), {"mvnlock.freezer"}),
    "ci-check-regenerate": (("ci-check", "--changed-file", "pom.xml"),
                            {"mvnlock.freezer", "mvnlock.integrity"}),
    "version": (("--version",), {"mvnlock.freezer", "mvnlock.integrity"}),
    "help": (("--help",), {"mvnlock.freezer", "mvnlock.integrity"}),
}
PROBE = (
    "import json, sys\n"
    "{run}"
    "print(json.dumps(sorted(sys.modules)))\n"
)
RUN = (
    "from mvnlock.cli import main\n"
    "try:\n"
    "    main(sys.argv[1:])\n"
    "except SystemExit:\n"
    "    pass\n"
)


def loaded_modules(run: str, *argv: str) -> set[str]:
    """Modules held after running ``run`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(mvnlock.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", PROBE.format(run=run), *argv],
                         capture_output=True, text=True, check=True, env=env, timeout=60)
    return set(json.loads(out.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def bare() -> set[str]:
    return loaded_modules("")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_only_what_it_runs(tmp_path, bare, command):
    fixture = build_single(tmp_path)
    common = ("--project", str(fixture.project_root), "--repo-url", fixture.repo.url,
              "--local-repo", str(fixture.cache_root))
    argv, not_run = COMMANDS[command]
    if not argv[0].startswith("--"):
        if command != "generate":
            assert main(["generate", *common]) == 0
        argv = (argv[0], *common, *argv[1:])
    added = loaded_modules(RUN, *argv) - bare
    assert "mvnlock.cli" in added
    assert sorted(added & (AVOIDED | not_run)) == []
