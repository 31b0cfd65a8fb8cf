import threading
import time

import pytest

from conftest import build_aggregator, dep_xml, pom_xml
from mvnlock.errors import (
    NotFoundError,
    ParentResolutionError,
    PropertyCycleError,
    PropertyResolutionError,
)
from mvnlock.pom import Gav
from mvnlock.project import Pool, load_project


def test_module_order_root_first(tmp_path):
    fixture = build_aggregator(tmp_path)
    modules = load_project(fixture.project_root, fixture.repository())
    assert [m.rel_path for m in modules] == [".", "core", "web"]
    assert modules[0].gav == Gav("com.acme.multi", "parent", "2.0")
    # children inherit group and version through the local parent
    assert modules[1].gav == Gav("com.acme.multi", "core", "2.0")


def test_nested_modules(tmp_path):
    root = tmp_path / "p"
    (root / "outer" / "inner").mkdir(parents=True)
    (root / "pom.xml").write_text(pom_xml(
        "g", "root", "1", packaging="pom", modules=("outer",)))
    (root / "outer" / "pom.xml").write_text(pom_xml(
        "g", "outer", "1", packaging="pom", modules=("inner",)))
    (root / "outer" / "inner" / "pom.xml").write_text(pom_xml("g", "inner", "1"))
    modules = load_project(root)
    assert [m.rel_path for m in modules] == [".", "outer", "outer/inner"]


def test_missing_module_dir(tmp_path):
    root = tmp_path / "p"
    root.mkdir()
    (root / "pom.xml").write_text(pom_xml(
        "g", "root", "1", packaging="pom", modules=("gone",)))
    with pytest.raises(NotFoundError, match="gone"):
        load_project(root)


def test_unknown_parent_without_repo(tmp_path):
    root = tmp_path / "p"
    root.mkdir()
    (root / "pom.xml").write_text(pom_xml(
        None, "orphan", None, parent=("ext", "parent", "1")))
    with pytest.raises(ParentResolutionError):
        load_project(root)


@pytest.mark.parametrize("properties, error, message", [
    ({}, PropertyResolutionError, r"unresolvable property reference \$\{a\}"),
    ({"a": "${b}", "b": "${a}"}, PropertyCycleError, "property substitution did not converge"),
])
def test_property_error_names_the_module(tmp_path, properties, error, message):
    fixture = build_aggregator(tmp_path)
    (fixture.project_root / "web" / "pom.xml").write_text(pom_xml(
        None, "web", None, parent=("com.acme.multi", "parent", "2.0"), properties=properties,
        deps=(dep_xml("org.acme", "lib-a", "${a}"),)))
    with pytest.raises(error, match=f"^module web: {message}") as err:
        load_project(fixture.project_root, fixture.repository())
    assert type(err.value) is error


def test_remote_parent_resolved_through_repo(tmp_path):
    from conftest import RepoBuilder
    from mvnlock.repo import MavenRepository, RepositoryConfig

    builder = RepoBuilder(tmp_path / "remote")
    parent_dir = builder._dir("ext", "parent", "1")
    (parent_dir / "parent-1.pom").write_text(pom_xml(
        "ext", "parent", "1", packaging="pom", properties={"shared": "yes"}))
    root = tmp_path / "p"
    root.mkdir()
    (root / "pom.xml").write_text(pom_xml(
        None, "child", None, parent=("ext", "parent", "1")))
    repo = MavenRepository(RepositoryConfig(
        remote_base_urls=(builder.url,), local_repo_root=tmp_path / "cache"))
    (module,) = load_project(root, repo)
    assert module.gav == Gav("ext", "child", "1")
    assert module.effective.properties["shared"] == "yes"


def bounded(call, timeout: float = 30):
    """``call()`` on a helper thread joined with a timeout: its result, or its error."""
    outcome = {}

    def target():
        try:
            outcome["result"] = call()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


class TestForEach:
    """``Pool.submit``, the one way a command runs work on threads."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_never_more_than_workers_threads(self, workers):
        baseline = threading.active_count()
        running, peak, threads, counts, ran = 0, 0, set(), [], []
        lock = threading.Lock()

        def call(item):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
                threads.add(threading.get_ident())
                counts.append(threading.active_count())
            time.sleep(0.005)
            with lock:
                running -= 1
                ran.append(item)

        def run_pool():
            with Pool(workers) as pool:
                for item in range(30):
                    pool.submit(lambda item=item: call(item))
            return threading.get_ident()

        caller = bounded(run_pool)
        assert sorted(ran) == list(range(30))
        # the caller's thread and the one running bounded(), plus the pool
        assert max(counts) <= baseline + 1 + workers
        assert peak <= workers
        # even one worker is a pool thread: the caller only queues
        assert len(threads) == workers and caller not in threads

    def test_pool_starts_threads_for_queued_calls_only_and_joins_them(self):
        baseline = threading.active_count()
        ran = []
        lock = threading.Lock()

        def call(item):
            time.sleep(0.005)
            with lock:
                ran.append(item)
            if item % 2:
                raise ValueError(f"item {item}")  # dropped: the pool thread carries on

        def run_pool():
            with Pool(3) as pool:
                # the caller's thread and the one running bounded(), no pool thread yet
                assert threading.active_count() == baseline + 1
                for item in range(12):
                    pool.submit(lambda item=item: call(item))
                assert threading.active_count() == baseline + 1 + 3
            return threading.active_count()

        assert bounded(run_pool) == baseline + 1
        assert sorted(ran) == list(range(12))

    def test_pool_needs_a_worker(self):
        with pytest.raises(ValueError, match="at least one worker"):
            Pool(0)
