"""The benchmark's per-layer tracer wraps mvnlock functions and repository
methods by name. A refactor that drops or stops calling one of those names
would only fail the traced benchmark run; this test fails it here first.
"""

import importlib.util
from pathlib import Path

from conftest import build_ranges
from mvnlock.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_records_calls(tmp_path):
    tracing = load_tracing()
    fixture = build_ranges(tmp_path)
    common = ["--project", str(fixture.project_root), "--repo-url", fixture.repo.url,
              "--local-repo", str(fixture.cache_root)]
    cycle = (
        ["generate"], ["validate"], ["freeze"],
        ["generate", "--checksum-mode", "remote", "--lockfile-name", "r.json"],
        ["validate", "--lockfile-name", "r.json"],
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for command, *flags in cycle:
            assert main([command, *common, *flags]) == 0, command
    finally:
        tracer.uninstall()

    called = {span[4] for span in tracer.spans}
    names = [f"{layer}.{fn}" for layer, fns in tracing.LAYERS.items() for fn in fns]
    names += [f"repo.{method}" for method in tracing.REPO_METHODS]
    assert [name for name in names if name not in called] == []
