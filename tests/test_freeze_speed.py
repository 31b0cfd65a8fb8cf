"""How fast freeze writes one frozen manifest with 500 pins (``emit_frozen_xml``, in process).

The module declares 20 direct dependencies by range and manages 10 of the
transitives it also pins, so one emit replaces 20 versions, drops 10 managed
entries and writes 500 pins. Under the default test run it emits once, as a
check of the output. To time it, run

    python -m pytest tests/test_freeze_speed.py --benchmark-only

which lets pytest-benchmark choose the rounds and report per-run statistics.
"""

from conftest import dep_xml, pom_xml
from mvnlock.freezer import FrozenPom, emit_frozen_xml
from mvnlock.pom import parse_pom

PINS = 500
DIRECT = 20


def test_freeze_speed(benchmark, request):
    pins = [(f"org.pin.g{n % 23:02}", f"pinned-{n:03}", f"1.{n % 7}.0", "compile")
            for n in range(PINS)]
    manifest = pom_xml(
        "com.acme", "app", "1.0",
        deps=tuple(dep_xml("org.direct", f"d{n:02}", "[1.0,2.0)") for n in range(DIRECT)),
        dm=tuple(dep_xml(g, a, "0.1") for g, a, _, _ in pins[::PINS // 10]),
    )
    frozen = FrozenPom(parse_pom(manifest),
                       {("org.direct", f"d{n:02}"): "1.5" for n in range(DIRECT)},
                       sorted(pins), "0" * 64)

    if request.config.getoption("benchmark_only"):
        out = benchmark(emit_frozen_xml, frozen)
    else:
        out = benchmark.pedantic(emit_frozen_xml, args=(frozen,), rounds=1, iterations=1)
    model = parse_pom(out)
    assert {d.version_spec.pin for d in model.dependencies} == {"1.5"}
    assert sorted((d.group_id, d.artifact_id, d.version_spec.pin, d.scope)
                  for d in model.dependency_management) == sorted(pins)
