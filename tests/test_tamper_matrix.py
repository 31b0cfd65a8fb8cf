"""What each checksum mode can and cannot detect: the tamper matrix.

Every cell builds a fixture, fills the cache, generates the lockfile in one
checksum mode, applies one attack, optionally empties the cache, and runs
one command: ``validate``, ``validate --offline`` or ``ci-check`` with no
changed file (which validates). A cell asserts the exit code and the exact
``(kind, g:a)`` findings, or that the attack is not detectable, with the
reason.

The digest rows attack the locked ``com.google.code.gson:gson:2.13.2`` jar
of the ``single`` fixture:

- ``cache-flip``: one byte of the cached jar flipped after generate;
- ``remote-flip``: one byte of the remote jar flipped, its sidecars kept;
- ``republish``: the remote jar replaced and its sidecars rewritten to match;
- ``poisoned-cache``: one byte of the cached jar flipped before generate.

One more digest row attacks the locked plugin ``org.p:plug:1.0`` of
``build_manifests``'s project, on the same axes:

- ``plugin-cache-flip``: one byte of the plugin's cached jar flipped after
  generate.

The manifest rows attack what resolution reads, on ``build_manifests``'s
project, after generate:

- ``pom-adds``: gson's published POM republished with two dependencies,
  the new ``org.acme:extra`` and ``org.acme:text``, which util already
  pulls in at the same version;
- ``pom-drops``: util's published POM republished without its one
  dependency, text;
- ``pom-rescopes``: util's published POM republished with text in runtime
  scope;
- ``parent-managed``: util's published parent POM republished managing
  text at 1.1 instead of 1.0;
- ``plugin-bump``: the project's locked plugin bumped from 1.0 to 2.0.
"""

import json
import shutil
from typing import NamedTuple

import pytest

from conftest import build_single, dep_xml, flip_byte, pom_xml
from mvnlock.cli import main

GSON = ("com.google.code.gson", "gson", "2.13.2")
GA = "com.google.code.gson:gson"
ATTACKS = ("cache-flip", "remote-flip", "republish", "poisoned-cache")
MANIFEST_ATTACKS = ("pom-adds", "pom-drops", "pom-rescopes", "parent-managed", "plugin-bump")
COMMANDS = ("validate", "validate --offline", "ci-check")


class Detected(NamedTuple):
    findings: tuple[tuple[str, str], ...]


class NotDetectable(NamedTuple):
    reason: str


CHECKSUM = ("checksum-mismatch", GA)
SOURCE = ("source-mismatch", GA)
PLUGIN = ("org.p", "plug", "1.0")
REFETCHED = "emptying the cache drops the flipped copy; the jar fetched again is the published one"
CACHE_PREDATES = ("the cached copy, fetched before the remote changed, is the one read, "
                  "and it still matches the lockfile")
MANIFEST_CACHED = ("the cached manifest, fetched before the repository changed, is the one "
                   "resolved, so the build, like validate, still gets the locked tree")

# The online outcome of each (attack, mode, cache) cell. ``ci-check`` with no
# changed file validates, so it has the same outcome; ``validate --offline``
# is covered by ``expected`` below.
DIGEST_ROWS = {
    ("cache-flip", "local", "warm"): Detected((CHECKSUM,)),
    ("cache-flip", "local", "cold"): NotDetectable(REFETCHED),
    ("cache-flip", "remote", "warm"): Detected((SOURCE,)),
    ("cache-flip", "remote", "cold"): NotDetectable(REFETCHED),
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
    # a plugin is read as an entry is: in remote mode its cached copy is hashed too
    ("plugin-cache-flip", "local", "warm"): Detected((("checksum-mismatch", "org.p:plug"),)),
    ("plugin-cache-flip", "local", "cold"): NotDetectable(REFETCHED),
    ("plugin-cache-flip", "remote", "warm"): Detected((("source-mismatch", "org.p:plug"),)),
    ("plugin-cache-flip", "remote", "cold"): NotDetectable(REFETCHED),
}

# A manifest attack does not depend on the checksum mode: resolution reads
# the same manifests in either, so each row has one outcome per cache.
MANIFEST_ROWS = {
    ("pom-adds", "warm"): NotDetectable(MANIFEST_CACHED),
    # text, locked under util, is now reached first under gson, so it moves there
    ("pom-adds", "cold"): Detected((("extra-dependency", "org.acme:extra"),
                                    ("parent-mismatch", "org.acme:text"))),
    ("pom-drops", "warm"): NotDetectable(MANIFEST_CACHED),
    ("pom-drops", "cold"): Detected((("missing-dependency", "org.acme:text"),)),
    ("pom-rescopes", "warm"): NotDetectable(MANIFEST_CACHED),
    ("pom-rescopes", "cold"): Detected((("scope-mismatch", "org.acme:text"),)),
    ("parent-managed", "warm"): NotDetectable(MANIFEST_CACHED),
    ("parent-managed", "cold"): Detected((("version-mismatch", "org.acme:text"),)),
    ("plugin-bump", "warm"): Detected((("version-mismatch", "org.p:plug"),)),
    ("plugin-bump", "cold"): Detected((("version-mismatch", "org.p:plug"),)),
}


def expected(outcome, mode: str, cache: str, command: str) -> tuple[int, tuple]:
    """The exit code and findings of one cell whose online outcome is ``outcome``."""
    if command == "validate --offline" and mode == "remote":
        return 2, ()  # a remote-mode lockfile needs remote access to be checked
    if command == "validate --offline" and cache == "cold":
        return 2, ()  # offline, an empty cache holds no manifest to resolve
    if isinstance(outcome, NotDetectable):
        return 0, ()
    return 1, outcome.findings


def run(fixture, command: str, *extra: str) -> int:
    name, *flags = command.split()
    return main([name, "--project", str(fixture.project_root),
                 "--repo-url", fixture.repo.url,
                 "--local-repo", str(fixture.cache_root), *flags, *extra])


def fill_cache(fixture, *flags: str) -> None:
    """Cache every manifest and jar; remote-mode generate caches no jar."""
    assert run(fixture, "generate", "--lockfile-name", "fill.json", *flags) == 0
    (fixture.project_root / "fill.json").unlink()


def check(fixture, capsys, cache: str, command: str) -> tuple[int, tuple]:
    """Empty the cache if cold, run ``command``: its exit code and sorted ``(kind, g:a)``s."""
    if cache == "cold":
        shutil.rmtree(fixture.cache_root)
    capsys.readouterr()
    code = run(fixture, command, "--format", "machine")
    out = capsys.readouterr().out
    reports = json.loads(out)["reports"] if out else []
    return code, tuple(sorted((f["kind"], f"{f['groupId']}:{f['artifactId']}")
                              for report in reports for f in report["findings"]))


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
    fill_cache(fixture)
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

    outcome = DIGEST_ROWS[(attack, mode, cache)]
    assert check(fixture, capsys, cache, command) == expected(outcome, mode, cache, command)


def publish_pom(fixture, group: str, artifact: str, version: str, **parts) -> None:
    """Write, or republish, one manifest in the fixture's repository."""
    fixture.repo.artifact_path(group, artifact, version, "pom").write_text(
        pom_xml(group, artifact, version, **parts), encoding="utf-8")


def publish_util(fixture, *deps: str) -> None:
    publish_pom(fixture, "org.acme", "util", "1.0", parent=("org.acme", "acme-parent", "1"),
                deps=deps)


def publish_parent(fixture, text_version: str) -> None:
    publish_pom(fixture, "org.acme", "acme-parent", "1", packaging="pom",
                dm=(dep_xml("org.acme", "text", text_version),))


def declare_plugin(fixture, version: str) -> None:
    (fixture.project_root / "pom.xml").write_text(pom_xml(
        "com.acme", "app", "1.0.0",
        deps=(dep_xml("com.google.code.gson", "gson", "2.13.2"),
              dep_xml("org.acme", "util", "1.0")),
        plugins=(("org.p", "plug", version),)), encoding="utf-8")


def build_manifests(tmp_path):
    """``single``, with util's text versioned by util's parent POM, and one locked plugin.

    util declares text with no version; its parent, ``org.acme:acme-parent:1``,
    manages it at 1.0, while 1.1 is published too. ``org.acme:extra`` is
    published for nothing to depend on, and ``org.p:plug`` at 1.0 and 2.0.
    """
    fixture = build_single(tmp_path)
    repo = fixture.repo
    repo.add("org.acme", "text", "1.1")
    repo.add("org.acme", "extra", "1.0")
    repo.add("org.acme", "acme-parent", "1", packaging="pom")
    for version in ("1.0", "2.0"):
        repo.add("org.p", "plug", version)
    publish_parent(fixture, "1.0")
    publish_util(fixture, dep_xml("org.acme", "text"))
    declare_plugin(fixture, "1.0")
    return fixture


MANIFEST_EDITS = {
    "pom-adds": lambda f: publish_pom(f, *GSON, deps=(dep_xml("org.acme", "extra", "1.0"),
                                                      dep_xml("org.acme", "text", "1.0"))),
    "pom-drops": lambda f: publish_util(f),
    "pom-rescopes": lambda f: publish_util(f, dep_xml("org.acme", "text", scope="runtime")),
    "parent-managed": lambda f: publish_parent(f, "1.1"),
    "plugin-bump": lambda f: declare_plugin(f, "2.0"),
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("cache", ["warm", "cold"])
@pytest.mark.parametrize("mode", ["local", "remote"])
def test_plugin_digest_row(tmp_path, capsys, mode, cache, command):
    fixture = build_manifests(tmp_path)
    fill_cache(fixture, "--include-plugins")
    assert run(fixture, "generate", "--include-plugins", "--checksum-mode", mode) == 0
    flip_byte(fixture.cached_artifact(*PLUGIN), 11)

    outcome = DIGEST_ROWS[("plugin-cache-flip", mode, cache)]
    assert check(fixture, capsys, cache, command) == expected(outcome, mode, cache, command)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("cache", ["warm", "cold"])
@pytest.mark.parametrize("mode", ["local", "remote"])
@pytest.mark.parametrize("attack", MANIFEST_ATTACKS)
def test_manifest_row(tmp_path, capsys, attack, mode, cache, command):
    fixture = build_manifests(tmp_path)
    fill_cache(fixture, "--include-plugins")
    assert run(fixture, "generate", "--include-plugins", "--checksum-mode", mode) == 0
    MANIFEST_EDITS[attack](fixture)

    outcome = MANIFEST_ROWS[(attack, cache)]
    assert check(fixture, capsys, cache, command) == expected(outcome, mode, cache, command)


def test_entry_moved_under_another_parent_is_detected(tmp_path, capsys):
    fixture = build_single(tmp_path)
    assert run(fixture, "generate") == 0
    lockfile = fixture.project_root / "lockfile.json"
    doc = json.loads(lockfile.read_text())
    gson, util = doc["dependencies"]
    assert (gson["artifactId"], util["artifactId"]) == ("gson", "util")
    gson["children"], util["children"] = util["children"], []  # text moves under gson
    lockfile.write_text(json.dumps(doc, indent=2) + "\n")
    assert check(fixture, capsys, "warm", "validate") == (
        1, (("parent-mismatch", "org.acme:text"),))
