"""How fast one artifact is filled into an empty cache (``checksum_local``).

Each round fills one of 200 small jars, served by a ``file:`` repository,
through one ``MavenRepository``, so a round's time is the cost of one fill:
the fetch, the streamed hash, the artifact's temp file and its provenance
marker. Under the default test run every fill runs once, as a check of each
digest and marker. To time them, run

    python -m pytest tests/test_fill_speed.py --benchmark-only

and read the per-round statistics, which are per fill.
"""

import hashlib

from conftest import RepoBuilder
from mvnlock.pom import Gav
from mvnlock.repo import MavenRepository, RepositoryConfig, artifact_rel_path

JARS = 200


def test_fill_speed(benchmark, tmp_path):
    builder = RepoBuilder(tmp_path / "remote")
    gavs = [Gav("org.fill", f"lib{n}", "1.0") for n in range(JARS)]
    for gav in gavs:
        builder.add(gav.group_id, gav.artifact_id, gav.version)
    cache = tmp_path / "cache"
    client = MavenRepository(RepositoryConfig(remote_base_urls=(builder.url,),
                                              local_repo_root=cache))
    pending = iter(gavs)
    digests = {}

    def fill(gav):
        digests[gav] = client.checksum_local(gav).digest

    benchmark.pedantic(fill, setup=lambda: ((next(pending),), {}), rounds=JARS, iterations=1)
    assert list(digests) == gavs
    shared = cache / ".mvnlock" / (hashlib.sha256(builder.url.encode()).hexdigest() + ".source")
    for gav in gavs:
        jar = builder.artifact_path(gav.group_id, gav.artifact_id, gav.version)
        assert digests[gav] == hashlib.sha256(jar.read_bytes()).hexdigest()
        cached = cache / artifact_rel_path(gav)
        assert cached.read_bytes() == jar.read_bytes()
        marker = cached.parent / (cached.name + ".source")
        assert marker.read_text(encoding="utf-8") == builder.url + "\n"
        assert marker.stat().st_ino == shared.stat().st_ino
