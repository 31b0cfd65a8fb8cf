"""``serialize`` writes exactly what ``json.dumps(indent=2, ensure_ascii=False)`` writes.

The writer lays the canonical two-space layout out itself. The reference
here is ``to_document``, which spells the format out key by key without the
package's key tables, passed through ``json.dumps``. Lockfiles are drawn
with text that needs escaping (quotes, backslashes, control characters,
U+2028, non-ASCII), empty and deeply nested forests, and the environment and
plugin blocks.
"""

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvnlock.lockfile import (
    EnvironmentMetadata,
    LockedDependency,
    Lockfile,
    LockfileConfig,
    parse_lockfile,
    serialize,
)
from mvnlock.pom import Gav
from mvnlock.repo import ALGORITHMS, ChecksumRecord

GOLDEN = Path(__file__).parent / "data" / "golden_lockfile.json"


def to_document(lock: Lockfile) -> dict:
    """The lockfile's JSON document, every key in its written order."""
    def entry(e: LockedDependency) -> dict:
        return {"groupId": e.group_id, "artifactId": e.artifact_id, "version": e.version,
                "scope": e.scope, "checksumAlgorithm": e.checksum.algorithm,
                "checksum": e.checksum.digest, "checksumMode": e.checksum.mode,
                "repositorySource": e.repository_source, "direct": e.direct,
                "children": [entry(child) for child in e.children]}

    config = lock.config
    doc = {"lockfileVersion": lock.lockfile_version, "groupId": lock.module.group_id,
           "artifactId": lock.module.artifact_id, "version": lock.module.version,
           "config": {"includePlugins": config.include_plugins,
                      "includeEnvironment": config.include_environment,
                      "checksumMode": config.checksum_mode,
                      "checksumAlgorithm": config.checksum_algorithm,
                      "includeTest": config.include_test}}
    if lock.environment is not None:
        env = lock.environment
        doc["environment"] = {"osName": env.os_name, "mavenVersion": env.maven_version,
                              "javaVersion": env.java_version, "toolVersion": env.tool_version}
    doc["dependencies"] = [entry(e) for e in lock.dependencies]
    if lock.plugins is not None:
        doc["plugins"] = [{"groupId": gav.group_id, "artifactId": gav.artifact_id,
                           "version": gav.version, "checksumAlgorithm": record.algorithm,
                           "checksum": record.digest} for gav, record in lock.plugins]
    return doc


def reference(lock: Lockfile) -> bytes:
    return (json.dumps(to_document(lock), indent=2, ensure_ascii=False) + "\n").encode()


SPECIAL = '"\\/\n\r\t\b\f\x00\x1f\x7f\u2028\u2029 \u00e9\u4e2d\U0001f600'
texts = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()), min_size=1, max_size=6)
versions = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters(exclude_characters="[](),")),
                   min_size=1, max_size=6)


@st.composite
def lockfiles(draw) -> Lockfile:
    """A valid lockfile: siblings sorted, each g:a once, records as the config says.

    Its strings are drawn from a few texts drawn first, which keeps each draw small.
    """
    text = st.sampled_from(draw(st.lists(texts, min_size=1, max_size=4)))
    version = st.sampled_from(draw(st.lists(versions, min_size=1, max_size=3)))
    config = LockfileConfig(draw(st.booleans()), draw(st.booleans()),
                            draw(st.sampled_from(("local", "remote"))),
                            draw(st.sampled_from(sorted(ALGORITHMS))), draw(st.booleans()))
    serial = itertools.count()  # a fixed-width prefix keeps every artifactId distinct

    def record() -> ChecksumRecord:
        width = ALGORITHMS[config.checksum_algorithm]
        digest = draw(st.integers(0, 16 ** width - 1))
        return ChecksumRecord(config.checksum_algorithm, f"{digest:0{width}x}",
                              config.checksum_mode)

    deepest = draw(st.integers(0, 10))  # a chain of entries reaches at least this depth

    def forest(depth: int) -> list[LockedDependency]:
        fan = draw(st.integers(int(depth <= deepest), 3 if depth < 3 else int(depth <= deepest)))
        entries = [LockedDependency(
            draw(text), f"{next(serial):03d}{draw(text)}", draw(version),
            draw(st.sampled_from(("compile", "provided", "runtime", "test"))),
            record(), draw(text),
            depth == 1, forest(depth + 1)) for _ in range(fan)]
        return sorted(entries, key=lambda e: e.ga)

    environment = plugins = None
    if config.include_environment:
        environment = EnvironmentMetadata(draw(text), draw(text), draw(text), draw(text))
    if config.include_plugins:
        plugins = sorted(((Gav(draw(text), f"{next(serial):03d}{draw(text)}", draw(version)),
                           record())
                          for _ in range(draw(st.integers(0, 2)))), key=lambda p: p[0].ga)
    return Lockfile(Gav(draw(text), draw(text), draw(version)), config, forest(1),
                    environment, plugins)


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(lockfiles())
def test_serialize_writes_the_reference_bytes_and_reads_back(lock):
    payload = serialize(lock)
    assert payload == reference(lock)
    assert parse_lockfile(payload) == lock


def test_reference_reproduces_the_golden_file():
    payload = GOLDEN.read_bytes()
    assert reference(parse_lockfile(payload)) == payload


def golden_entry() -> tuple[Lockfile, LockedDependency]:
    lock = parse_lockfile(GOLDEN.read_bytes())
    return lock, lock.dependencies[0]


def test_every_escaped_character_is_written_as_the_reference_writes_it():
    lock, entry = golden_entry()
    entry.repository_source = SPECIAL
    lock.environment = lock.environment._replace(os_name=SPECIAL[::-1])
    payload = serialize(lock)
    assert payload == reference(lock)
    assert "\u2028".encode() in payload and b"\\u0000" in payload
    assert parse_lockfile(payload) == lock


@pytest.mark.parametrize("owner, attr, value", [
    ("entry", "direct", 1),  # json.dumps would write 1, not true
    ("entry", "direct", None),
    ("entry", "version", 7),
    ("entry", "children", None),
    ("lockfile", "lockfile_version", True),
    ("lockfile", "lockfile_version", 1.0),
])
def test_a_value_of_another_kind_is_refused(owner, attr, value):
    lock, entry = golden_entry()
    setattr(entry if owner == "entry" else lock, attr, value)
    with pytest.raises(TypeError):
        serialize(lock)
