"""A command runs as a process without the cyclic garbage collector.

``cli.run`` is the process entry, for ``python -m mvnlock.cli`` and the
``mvnlock`` script: it turns the collector off, runs ``main`` and freezes the
heap, so neither a collection during the run nor the one at exit walks what
the run built. That frees nothing only as long as mvnlock builds no
reference cycles, which is checked here command by command. ``main`` stays
the entry for library callers and tests and leaves their collector alone.
"""

import contextlib
import gc
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mvnlock
from conftest import build_single
from mvnlock.cli import main

SRC = Path(mvnlock.__file__).parents[1]


def python(code: str, *argv: str) -> list:
    """The last line a fresh interpreter running ``code`` prints, read as JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         check=True, env=env, timeout=60)
    return json.loads(out.stdout.splitlines()[-1])


RUN_PROBE = """\
import gc, json
from mvnlock import cli
seen = []
cli.main = lambda: seen.append(gc.isenabled()) or 3
code = cli.run()
print(json.dumps([seen, code, gc.isenabled(), gc.get_freeze_count() > 0]))
"""


def test_run_calls_main_without_the_collector_and_freezes_the_heap():
    assert python(RUN_PROBE) == [[False], 3, False, True]


# runs the module as ``python -m mvnlock.cli`` does, counting collections once what it imports
# is loaded; runpy runs the module itself, so it is not imported here
MODULE_PROBE = """\
import argparse, gc, json, runpy, sys
import mvnlock.lockfile, mvnlock.freezer, mvnlock.integrity
gc.collect()
collections = []
gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(info))
sys.argv = ["mvnlock", *sys.argv[1:]]
try:
    runpy.run_module("mvnlock.cli", run_name="__main__")
except SystemExit as exit:
    code = exit.code
print(json.dumps([code, len(collections), gc.get_freeze_count() > 0]))
"""


def test_a_command_run_as_a_module_makes_no_collection(tmp_path):
    fixture = build_single(tmp_path)
    common = ("--project", str(fixture.project_root), "--repo-url", fixture.repo.url,
              "--local-repo", str(fixture.cache_root))
    assert python(MODULE_PROBE, "generate", *common) == [0, 0, True]
    assert (fixture.project_root / "lockfile.json").is_file()


def test_the_console_script_runs_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["scripts"] == {"mvnlock": "mvnlock.cli:run"}


@pytest.mark.parametrize("extra, code", [
    ((), 0),
    (("--skip-module", "nowhere"), 2),
    (("--workers", "0"), SystemExit),
], ids=["success", "exit-2", "argparse-exit"])
def test_main_leaves_the_collector_as_found(tmp_path, extra, code):
    fixture = build_single(tmp_path)
    argv = ["generate", "--project", str(fixture.project_root), "--repo-url", fixture.repo.url,
            "--local-repo", str(fixture.cache_root), *extra]
    before = gc.isenabled(), gc.get_freeze_count()
    with pytest.raises(SystemExit) if code is SystemExit else contextlib.nullcontext():
        assert main(argv) == code
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def _module(thing) -> str:
    """The module that defines ``thing``, a function, or else its type."""
    return (thing if isinstance(thing, types.FunctionType) else type(thing)).__module__


def _drop_first_dependency(root: Path) -> str:
    """Remove the first ``<dependency>`` of the first ``pom.xml`` that has one; its path."""
    pom = next(p for p in sorted(root.rglob("pom.xml"))
               if "<dependency>" in p.read_text(encoding="utf-8"))
    text = pom.read_text(encoding="utf-8")
    start = text.index("<dependency>")
    end = text.index("</dependency>", start) + len("</dependency>")
    pom.write_text(text[:start] + text[end:], encoding="utf-8")
    return pom.relative_to(root).as_posix()


def test_commands_build_no_reference_cycle(fixture, saved_cycles):
    common = ("--project", str(fixture.project_root), "--repo-url", fixture.repo.url,
              "--local-repo", str(fixture.cache_root))
    for command in (("generate",), ("generate",), ("validate", "--format", "machine"),
                    ("validate", "--offline", "--format", "machine"), ("freeze",),
                    ("ci-check", "--changed-file", "src/main/java/A.java")):
        # a cold generate, then a warm one; ci-check of an unrelated change validates
        assert main([command[0], *common, *command[1:]]) == 0
    changed = _drop_first_dependency(fixture.project_root)
    # ci-check of a changed manifest regenerates its lockfile
    assert main(["ci-check", *common, "--changed-file", changed, "--format", "machine"]) == 3
    gc.collect()
    ours = {repr(thing) for thing in saved_cycles if _module(thing).split(".")[0] == "mvnlock"}
    assert sorted(ours) == []
    # the standard library's own: the parser argparse builds, and json's encoder
    assert {_module(thing) for thing in saved_cycles} <= {"builtins", "argparse", "json.encoder"}
