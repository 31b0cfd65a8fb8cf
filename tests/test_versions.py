import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvnlock.versions import (
    _RELEASE_KEY,
    _token_key,
    compare_versions,
    max_version,
    sorted_versions,
    tokenize,
)

VECTORS = json.loads(
    (Path(__file__).parent / "data" / "version_order_vectors.json").read_text()
)


def sign(n):
    return (n > 0) - (n < 0)


@pytest.mark.parametrize("chain", VECTORS["ascending_chains"])
def test_documented_chains_ascend(chain):
    for i, j in itertools.combinations(range(len(chain)), 2):
        assert compare_versions(chain[i], chain[j]) == -1, (chain[i], chain[j])
        assert compare_versions(chain[j], chain[i]) == 1, (chain[j], chain[i])


@pytest.mark.parametrize("a,b", VECTORS["equal_pairs"])
def test_documented_equal_pairs(a, b):
    assert compare_versions(a, b) == 0
    assert compare_versions(b, a) == 0


def test_basic_examples():
    assert compare_versions("1.0", "1.1") == -1
    assert compare_versions("1.0", "1.0.0") == 0
    assert compare_versions("1.0-SNAPSHOT", "1.0") == -1


def _random_version(rng):
    parts = ["1", "2", "10", "0", "003", "alpha", "beta", "rc", "sp", "snapshot",
             "milestone", "foo", "x2y", "FINAL"]
    body = rng.choice(".-").join(rng.choices(parts, k=rng.randint(1, 5)))
    return body


def test_total_order_fuzz():
    rng = random.Random(20240817)
    pool = [_random_version(rng) for _ in range(400)]
    for _ in range(10_000):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        # antisymmetry
        assert compare_versions(a, b) == -compare_versions(b, a)
        # transitivity over the <= relation
        if compare_versions(a, b) <= 0 and compare_versions(b, c) <= 0:
            assert compare_versions(a, c) <= 0
        # consistency with equality
        if compare_versions(a, b) == 0 and compare_versions(b, c) == 0:
            assert compare_versions(a, c) == 0


def test_sorted_and_max():
    shuffled = ["2.0", "1.0", "1.5", "1.0-SNAPSHOT"]
    assert sorted_versions(shuffled) == ["1.0-SNAPSHOT", "1.0", "1.5", "2.0"]
    assert max_version(shuffled) == "2.0"


def reference_compare(a, b):
    """Unmemoized token-by-token comparison, padding the shorter side with releases."""
    def keys(version):
        out = [_token_key(t) for t in tokenize(version)]
        while out and out[-1] == _RELEASE_KEY:
            out.pop()
        return out

    ka, kb = keys(a), keys(b)
    for i in range(max(len(ka), len(kb))):
        xa = ka[i] if i < len(ka) else _RELEASE_KEY
        xb = kb[i] if i < len(kb) else _RELEASE_KEY
        if xa != xb:
            return -1 if xa < xb else 1
    return 0


VERSION_PARTS = ["1", "2", "10", "0", "003", "alpha", "beta", "rc", "sp", "snapshot",
                 "milestone", "foo", "x2y", "FINAL", "Alpha1", "RC2"]
versions_st = st.builds(
    lambda sep, parts: sep.join(parts),
    st.sampled_from(".-"),
    st.lists(st.sampled_from(VERSION_PARTS), min_size=1, max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(versions_st, min_size=1, max_size=12))
def test_sorted_and_max_agree_with_compare(versions):
    ordered = sorted_versions(versions)
    assert sorted(ordered) == sorted(versions)
    for i, j in itertools.combinations(range(len(ordered)), 2):
        assert compare_versions(ordered[i], ordered[j]) <= 0, (ordered[i], ordered[j])
    top = max_version(versions)
    assert all(compare_versions(top, v) >= 0 for v in versions)
    for a, b in itertools.product(versions, repeat=2):
        assert compare_versions(a, b) == reference_compare(a, b), (a, b)
