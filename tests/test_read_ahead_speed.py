"""How fast a tamper check runs on a warm cache of small jars (``validate``, in process).

One module pins 200 small jars, served by a ``file:`` repository and all
already in the cache, and its lockfile records remote checksums. Each
``validate`` then reads 400 digests, a published sidecar and the cached
jar's hash per artifact, none of which waits, so the read-ahead pass starts
no thread. One cached jar is flipped, so each run reports exactly one
finding. Under the default test run validate runs once, as a check of its
report. To time it, run

    python -m pytest tests/test_read_ahead_speed.py --benchmark-only

which lets pytest-benchmark choose the rounds and report per-run statistics.
"""

import json

from conftest import RepoBuilder, dep_xml, flip_byte, pom_xml
from mvnlock.cli import main

JARS = 200


def test_read_ahead_speed(benchmark, request, tmp_path, capsys):
    builder = RepoBuilder(tmp_path / "remote")
    names = [f"lib{n:03}" for n in range(JARS)]
    for name in names:
        builder.add("org.ahead", name, "1.0")
    project = tmp_path / "project"
    project.mkdir()
    (project / "pom.xml").write_text(pom_xml(
        "com.acme", "app", "1.0", deps=tuple(dep_xml("org.ahead", n, "1.0") for n in names),
    ), encoding="utf-8")
    cache = tmp_path / "cache"
    where = ["--project", str(project), "--repo-url", builder.url, "--local-repo", str(cache)]
    assert main(["generate", *where, "--lockfile-name", "fill.json"]) == 0  # caches every jar
    assert main(["generate", *where, "--checksum-mode", "remote"]) == 0
    tampered = cache / "org" / "ahead" / "lib007" / "1.0" / "lib007-1.0.jar"
    flip_byte(tampered, 3)

    outputs = []

    def validate():
        capsys.readouterr()
        code = main(["validate", *where, "--format", "machine"])
        outputs.append(capsys.readouterr().out)
        return code

    if request.config.getoption("benchmark_only"):
        assert benchmark(validate) == 1
    else:
        assert benchmark.pedantic(validate, rounds=1, iterations=1) == 1
    assert len(set(outputs)) == 1
    reports = json.loads(outputs[0])["reports"]
    assert [(f["kind"], f["artifactId"]) for r in reports for f in r["findings"]] == [
        ("source-mismatch", "lib007")]
