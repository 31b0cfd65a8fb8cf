"""How fast a 900-entry lockfile is written (``serialize``) and read (``parse_lockfile``).

Under the default test run each call runs once, as a check of its result.
To time them, run

    python -m pytest tests/test_lockfile_speed.py --benchmark-only

which lets pytest-benchmark choose the rounds and report their statistics.
"""

import pytest

from conftest import many_entry_lockfile
from mvnlock.lockfile import parse_lockfile, serialize


@pytest.fixture(scope="module")
def lock():
    lock = many_entry_lockfile()
    assert len(lock.flattened()) == 900
    return lock


def measured(benchmark, request, function, argument):
    """``function(argument)``, timed under ``--benchmark-only`` and otherwise called once."""
    if request.config.getoption("benchmark_only"):
        return benchmark(function, argument)
    return benchmark.pedantic(function, args=(argument,), rounds=1, iterations=1)


def test_serialize_speed(benchmark, request, lock):
    payload = measured(benchmark, request, serialize, lock)
    assert payload.startswith(b'{\n  "lockfileVersion": 1,\n') and payload.endswith(b"}\n")
    assert parse_lockfile(payload) == lock


def test_parse_lockfile_speed(benchmark, request, lock):
    assert measured(benchmark, request, parse_lockfile, serialize(lock)) == lock
