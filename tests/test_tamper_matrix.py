"""What each checksum mode can and cannot detect: the tamper matrix's digest rows.

Every cell builds the ``single`` fixture, fills the cache, generates the
lockfile in one checksum mode, applies one attack to the locked
``com.google.code.gson:gson:2.13.2`` jar, optionally empties the cache, and
runs one command: ``validate``, ``validate --offline`` or ``ci-check`` with
no changed file (which validates). A cell asserts the exit code and the
exact ``(kind, g:a)`` findings, or that the attack is not detectable, with
the reason.

The attacks:

- ``cache-flip``: one byte of the cached jar flipped after generate;
- ``remote-flip``: one byte of the remote jar flipped, its sidecars kept;
- ``republish``: the remote jar replaced and its sidecars rewritten to match;
- ``poisoned-cache``: one byte of the cached jar flipped before generate.
"""

import json
import shutil
from typing import NamedTuple

import pytest

from conftest import build_single, flip_byte
from mvnlock.cli import main

GSON = ("com.google.code.gson", "gson", "2.13.2")
GA = "com.google.code.gson:gson"
ATTACKS = ("cache-flip", "remote-flip", "republish", "poisoned-cache")
COMMANDS = ("validate", "validate --offline", "ci-check")


class Detected(NamedTuple):
    findings: tuple[tuple[str, str], ...]


class NotDetectable(NamedTuple):
    reason: str


CHECKSUM = ("checksum-mismatch", GA)
SOURCE = ("source-mismatch", GA)
CACHE_PREDATES = ("the cached copy, fetched before the remote changed, is the one read, "
                  "and it still matches the lockfile")

# The online outcome of each (attack, mode, cache) cell. ``ci-check`` with no
# changed file validates, so it has the same outcome; ``validate --offline``
# is covered by ``expected`` below.
DIGEST_ROWS = {
    ("cache-flip", "local", "warm"): Detected((CHECKSUM,)),
    ("cache-flip", "local", "cold"): NotDetectable(
        "emptying the cache drops the flipped copy; the jar fetched again is the published one"),
    ("cache-flip", "remote", "warm"): Detected((SOURCE,)),
    ("cache-flip", "remote", "cold"): NotDetectable(
        "emptying the cache drops the flipped copy; the jar fetched again is the published one"),
    ("remote-flip", "local", "warm"): NotDetectable(CACHE_PREDATES),
    ("remote-flip", "local", "cold"): Detected((CHECKSUM,)),
    ("remote-flip", "remote", "warm"): NotDetectable(
        "remote mode reads the published sidecar, which was kept; " + CACHE_PREDATES),
    ("remote-flip", "remote", "cold"): Detected((SOURCE,)),
    ("republish", "local", "warm"): NotDetectable(CACHE_PREDATES),
    ("republish", "local", "cold"): Detected((CHECKSUM,)),
    ("republish", "remote", "warm"): Detected((CHECKSUM, SOURCE)),
    ("republish", "remote", "cold"): Detected((CHECKSUM,)),
    ("poisoned-cache", "local", "warm"): NotDetectable(
        "a local-mode lockfile locks the digest of what the cache held at generate, by design"),
    ("poisoned-cache", "local", "cold"): Detected((CHECKSUM,)),
    ("poisoned-cache", "remote", "warm"): Detected((SOURCE,)),
    ("poisoned-cache", "remote", "cold"): NotDetectable(
        "remote mode locked the published digest, and emptying the cache drops the "
        "poisoned copy, so nothing differs from what was published"),
}


def expected(attack: str, mode: str, cache: str, command: str) -> tuple[int, tuple]:
    """The exit code and findings of one cell."""
    if command == "validate --offline" and mode == "remote":
        return 2, ()  # a remote-mode lockfile needs remote access to be checked
    if command == "validate --offline" and cache == "cold":
        return 2, ()  # offline, an empty cache holds no manifest to resolve
    outcome = DIGEST_ROWS[(attack, mode, cache)]
    if isinstance(outcome, NotDetectable):
        return 0, ()
    return 1, outcome.findings


def run(fixture, command: str, *extra: str) -> int:
    name, *flags = command.split()
    return main([name, "--project", str(fixture.project_root),
                 "--repo-url", fixture.repo.url,
                 "--local-repo", str(fixture.cache_root), *flags, *extra])


def republish(fixture) -> None:
    jar = fixture.repo.artifact_path(*GSON)
    jar.write_bytes(b"republished::" + jar.read_bytes())
    fixture.repo.write_sidecars(jar)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("cache", ["warm", "cold"])
@pytest.mark.parametrize("mode", ["local", "remote"])
@pytest.mark.parametrize("attack", ATTACKS)
def test_digest_row(tmp_path, capsys, attack, mode, cache, command):
    fixture = build_single(tmp_path)
    # fill the cache with every manifest and jar; remote-mode generate caches no jar
    assert run(fixture, "generate", "--lockfile-name", "fill.json") == 0
    (fixture.project_root / "fill.json").unlink()
    cached = fixture.cached_artifact(*GSON)
    if attack == "poisoned-cache":
        flip_byte(cached, 11)
    assert run(fixture, "generate", "--checksum-mode", mode) == 0
    if attack == "cache-flip":
        flip_byte(cached, 11)
    elif attack == "remote-flip":
        flip_byte(fixture.repo.artifact_path(*GSON), 11)
    elif attack == "republish":
        republish(fixture)
    if cache == "cold":
        shutil.rmtree(fixture.cache_root)
    capsys.readouterr()

    code = run(fixture, command, "--format", "machine")

    out = capsys.readouterr().out
    reports = json.loads(out)["reports"] if out else []
    found = tuple(sorted((f["kind"], f"{f['groupId']}:{f['artifactId']}")
                         for report in reports for f in report["findings"]))
    assert (code, found) == expected(attack, mode, cache, command)


@pytest.mark.xfail(strict=True, reason="children placement is never compared (ROADMAP item 3)")
def test_entry_moved_under_another_parent_is_detected(tmp_path, capsys):
    fixture = build_single(tmp_path)
    assert run(fixture, "generate") == 0
    lockfile = fixture.project_root / "lockfile.json"
    doc = json.loads(lockfile.read_text())
    gson, util = doc["dependencies"]
    assert (gson["artifactId"], util["artifactId"]) == ("gson", "util")
    gson["children"], util["children"] = util["children"], []  # text moves under gson
    lockfile.write_text(json.dumps(doc, indent=2) + "\n")
    assert run(fixture, "validate") == 1
