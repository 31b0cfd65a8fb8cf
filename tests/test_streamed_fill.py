"""Cache fills stream from the source: each fetched byte is read once.

A fill copies the remote artifact into the cache chunk by chunk and, for a
local checksum, hashes each chunk on its way in. These tests pin what that
path promises: a read failure part-way through names the URL and leaves no
trace in the cache, no jar is read twice in one run, and a run's memory does
not grow with the size of the largest jar.
"""

import hashlib
import http.client
import io
import os
import subprocess
import sys
import urllib.error
import urllib.request
from collections import Counter
from pathlib import Path

import pytest

import mvnlock
import mvnlock.repo as repo_module
from conftest import RepoBuilder, build_aggregator, dep_xml, pom_xml
from mvnlock.cli import main
from mvnlock.pom import Gav
from mvnlock.repo import artifact_rel_path

GSON = Gav("com.google.code.gson", "gson", "2.13.2")
MiB = 1 << 20


class FailingReads:
    """A binary stream whose k-th read (1-based) raises ``error``."""

    def __init__(self, inner, k: int, error: Exception):
        self.inner, self.k, self.error, self.reads = inner, k, error, 0

    def read(self, size=-1):
        self.reads += 1
        if self.reads == self.k:
            raise self.error
        return self.inner.read(size)

    def close(self):
        self.inner.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def generate(fixture, repo_url=None) -> int:
    return main(["generate", "--project", str(fixture.project_root),
                 "--repo-url", repo_url or fixture.repo.url,
                 "--local-repo", str(fixture.cache_root)])


def big_gson(fixture) -> Path:
    """Replace the fixture's gson jar with one of three chunks and a bit."""
    jar = fixture.repo.artifact_path(GSON.group_id, GSON.artifact_id, GSON.version)
    jar.write_bytes(b"0123456789abcdef" * ((3 * repo_module._CHUNK + 16) // 16))
    fixture.repo.write_sidecars(jar)
    return jar


def assert_nothing_cached_for_gson(fixture):
    # the POM and its marker were cached while resolving; no jar, jar marker
    # or temp file is left
    cached = fixture.cache_root / artifact_rel_path(GSON)
    assert sorted(p.name for p in cached.parent.iterdir()) == [
        "gson-2.13.2.pom", "gson-2.13.2.pom.source"]
    assert not (fixture.project_root / "lockfile.json").exists()


@pytest.mark.parametrize("k", [1, 2])
def test_read_failure_mid_fill_names_url_and_leaves_nothing(single_fixture, monkeypatch,
                                                            capsys, k):
    jar = big_gson(single_fixture)
    real_open = open
    opened = []

    def open_failing(file, *args, **kwargs):
        stream = real_open(file, *args, **kwargs)
        if Path(file) != jar:
            return stream
        opened.append(FailingReads(stream, k, OSError(5, "Input/output error")))
        return opened[-1]

    monkeypatch.setattr(repo_module, "open", open_failing, raising=False)
    assert generate(single_fixture) == 2
    err = capsys.readouterr().err
    assert f"fetching {single_fixture.repo.url}/{artifact_rel_path(GSON)}: " in err
    assert "Input/output error" in err
    assert [stream.reads for stream in opened] == [k]
    assert_nothing_cached_for_gson(single_fixture)

    monkeypatch.undo()
    assert generate(single_fixture) == 0


class InMemorySocket:
    """Just enough of a socket for ``http.client.HTTPResponse`` to parse ``raw``."""

    def __init__(self, raw: bytes):
        self.raw = raw

    def makefile(self, mode):
        return io.BytesIO(self.raw)


def http_response(body: bytes, *, cut: int | None = None,
                  chunked: bool = False) -> http.client.HTTPResponse:
    """A real response carrying ``body``, its connection closed after ``cut`` body bytes."""
    if chunked:
        head, wire = b"Transfer-Encoding: chunked", b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        cut = None if cut is None else cut + len(b"%x\r\n" % len(body))
    else:
        head, wire = b"Content-Length: %d" % len(body), body
    raw = b"HTTP/1.1 200 OK\r\n" + head + b"\r\n\r\n" + wire[:cut]
    response = http.client.HTTPResponse(InMemorySocket(raw))
    response.begin()
    return response


def serve_over_http(monkeypatch, repo_root: Path, base: str, *, chunked: bool,
                    cut_jar: Path | None = None, cut: int | None = None):
    """Route urlopen of ``base`` to real HTTP responses of the files under repo_root."""

    def fake_urlopen(url, timeout=None):
        assert url.startswith(base + "/")
        path = repo_root / url[len(base) + 1:]
        if not path.is_file():
            raise urllib.error.HTTPError(url, 404, "Not Found", {}, None)
        return http_response(path.read_bytes(), cut=cut if path == cut_jar else None,
                             chunked=chunked)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)


# http.client raises IncompleteRead for a chunked body cut short, but a
# Content-Length body cut short reads as a clean end of stream: both must
# fail the fill, name the URL and leave nothing behind
@pytest.mark.parametrize("chunked", [True, False])
def test_http_body_cut_short_names_url_and_leaves_nothing(single_fixture, monkeypatch,
                                                         capsys, chunked):
    base = "http://repo.test/maven2"
    jar = big_gson(single_fixture)
    cut = 2 * repo_module._CHUNK + 7
    serve_over_http(monkeypatch, single_fixture.repo.root, base, chunked=chunked,
                    cut_jar=jar, cut=cut)
    assert generate(single_fixture, base) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mvnlock: error: module .: fetching {base}/{artifact_rel_path(GSON)}: ")
    missing = jar.stat().st_size - cut
    if chunked:
        assert "IncompleteRead(" in err
    else:
        assert f"connection closed with {missing} more bytes expected" in err
    assert_nothing_cached_for_gson(single_fixture)

    # served whole, the same jar fills and is locked with its own digest
    serve_over_http(monkeypatch, single_fixture.repo.root, base, chunked=chunked)
    assert generate(single_fixture, base) == 0
    assert (single_fixture.cache_root / artifact_rel_path(GSON)).read_bytes() == jar.read_bytes()
    lockfile = (single_fixture.project_root / "lockfile.json").read_text(encoding="utf-8")
    assert hashlib.sha256(jar.read_bytes()).hexdigest() in lockfile


def test_each_jar_is_read_once_per_run(tmp_path, monkeypatch):
    fixture = build_aggregator(tmp_path)
    opened = Counter()
    real_open, real_path_open = open, Path.open

    def counting_open(file, *args, **kwargs):
        handle = real_open(file, *args, **kwargs)  # a cache miss opens nothing
        if str(file).endswith(".jar"):
            opened[Path(file)] += 1
        return handle

    def counting_path_open(self, *args, **kwargs):
        if self.name.endswith(".jar"):
            opened[self] += 1
        return real_path_open(self, *args, **kwargs)

    def counting_os_open(file, *args, **kwargs):  # a cache hit is read by descriptor
        fd = real_os_open(file, *args, **kwargs)
        if str(file).endswith(".jar"):
            opened[Path(file)] += 1
        return fd

    real_os_open = os.open
    monkeypatch.setattr(repo_module, "open", counting_open, raising=False)
    monkeypatch.setattr(Path, "open", counting_path_open)
    monkeypatch.setattr(os, "open", counting_os_open)

    assert generate(fixture) == 0
    jars = sorted(p.relative_to(fixture.cache_root) for p in fixture.cache_root.rglob("*.jar"))
    assert len(jars) == 5
    # cold: every remote jar read once, and its cached copy never read back
    assert opened == Counter({fixture.repo.root / rel: 1 for rel in jars})

    opened.clear()
    assert generate(fixture) == 0
    # warm: every cached jar read once, the remote not at all
    assert opened == Counter({fixture.cache_root / rel: 1 for rel in jars})


PEAK_PROBE = """
import sys
from mvnlock.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(code, peak_kb)
"""


def cold_generate_peak_kb(root: Path, jar_size: int) -> int:
    """Peak resident memory of a fresh process running one cold local generate."""
    builder = RepoBuilder(root / "remote")
    builder.add("org.big", "blob", "1.0", jar=b"0123456789abcdef" * (jar_size // 16))
    project = root / "project"
    project.mkdir()
    (project / "pom.xml").write_text(pom_xml(
        "com.acme", "app", "1.0.0", deps=(dep_xml("org.big", "blob", "1.0"),),
    ), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(mvnlock.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", PEAK_PROBE, "generate", "--project", str(project),
         "--repo-url", builder.url, "--local-repo", str(root / "cache")],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    )
    code, peak_kb = out.stdout.splitlines()[-1].split()
    assert code == "0", out.stderr
    assert (root / "cache" / "org/big/blob/1.0/blob-1.0.jar").stat().st_size == jar_size
    return int(peak_kb)


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux /proc")
def test_peak_memory_does_not_grow_with_jar_size(tmp_path):
    # VmHWM belongs to the child's own address space, which exec starts
    # afresh; ru_maxrss would count the forking test process's peak as well
    small = cold_generate_peak_kb(tmp_path / "small", 1 * MiB)
    large = cold_generate_peak_kb(tmp_path / "large", 48 * MiB)
    assert large - small < 16 * 1024, (small, large)
