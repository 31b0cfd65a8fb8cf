"""How fast 300 manifests become effective models (``parse_pom``, then ``effective_pom``).

Half the POMs are parentless and hold no ``${}`` reference, as most published
POMs do. The other half are modules of one parent: each takes a version from
the parent's dependencyManagement and refers to its own property and to a
``project.*`` built-in. Under the default test run the pass runs once, as a
check of its models. To time it, run

    python -m pytest tests/test_manifest_speed.py --benchmark-only

which lets pytest-benchmark choose the rounds and report their statistics.
"""

from conftest import dep_xml, pom_xml
from mvnlock.pom import Gav, effective_pom, parse_pom

PER_KIND = 150
PARENT = Gav("org.bench", "parent", "1.0")
PARENT_XML = pom_xml(*PARENT, packaging="pom", properties={"managed.version": "4.2"},
                     dm=(dep_xml("org.dep", "managed", "${managed.version}"),))


def plain(n: int) -> str:
    return pom_xml("org.bench", f"lib{n:03}", "1.0",
                   deps=(dep_xml("org.dep", f"pinned{n % 40}", "2.0"),
                         dep_xml("org.dep", f"ranged{n % 30}", "[1.0,2.0)", scope="runtime")))


def module(n: int) -> str:
    return pom_xml(None, f"mod{n:03}", None, parent=tuple(PARENT),
                   properties={"own.version": f"3.{n}"},
                   deps=(dep_xml("org.dep", "managed"),
                         dep_xml("org.dep", f"own{n:03}", "${own.version}"),
                         dep_xml("${project.groupId}", "sibling", "${project.version}")))


def effective_models(texts: list[str]) -> list:
    parents = {PARENT: parse_pom(PARENT_XML)}
    return [effective_pom(parse_pom(text), parent_loader=parents.get) for text in texts]


def test_manifest_speed(benchmark, request):
    texts = [make(n) for n in range(PER_KIND) for make in (plain, module)]
    if request.config.getoption("benchmark_only"):
        models = benchmark(effective_models, texts)
    else:
        models = benchmark.pedantic(effective_models, args=(texts,), rounds=1, iterations=1)

    assert len(models) == 2 * PER_KIND
    for n, (lib, mod) in enumerate(zip(models[::2], models[1::2])):
        assert lib.coordinates == Gav("org.bench", f"lib{n:03}", "1.0")
        assert [(d.artifact_id, d.version_spec.text, d.scope) for d in lib.dependencies] == [
            (f"pinned{n % 40}", "2.0", "compile"), (f"ranged{n % 30}", "[1.0,2.0)", "runtime")]
        assert mod.coordinates == Gav("org.bench", f"mod{n:03}", "1.0")
        assert [(d.group_id, d.artifact_id, d.version_spec.pin) for d in mod.dependencies] == [
            ("org.dep", "managed", "4.2"), ("org.dep", f"own{n:03}", f"3.{n}"),
            ("org.bench", "sibling", "1.0")]
        assert mod.properties == {"managed.version": "4.2", "own.version": f"3.{n}"}
