"""``project.Pool`` is the only code in the package that starts a thread.

A stdlib ``ast`` check: any other module that constructs ``threading.Thread``
(or a ``Thread`` imported from ``threading``), or imports ``concurrent.futures``
or ``queue``, fails it, so no command can open a second pool and run more
than ``--workers`` threads.

Work reaches the pool one way, ``Pool.submit``, and its outcome stays where
the call keeps it, in a ``Session`` cell. So ``submit`` is the pool's only
public method, and ``Pool._serve`` is the only ``except`` clause in the
package that drops what it caught: any other swallowed error would vanish
instead of reaching the module that owns it.

The read-ahead passes have two drivers, generate's and validate's, and the
command line drives neither: it names no ``read_ahead`` or ``current_digest``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mvnlock"
POOL_MODULE = "project.py"
BANNED_MODULES = ("concurrent", "queue")


def _banned_module(name: str | None) -> bool:
    return name is not None and name.split(".")[0] in BANNED_MODULES


def thread_starts(source: str, filename: str) -> list[str]:
    """Every thread construction and pool-module import in the source, by line."""
    found = []
    thread_names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if _banned_module(a.name)]
        elif isinstance(node, ast.ImportFrom):
            if _banned_module(node.module):
                found.append((node.lineno, f"from {node.module} import"))
            elif node.module == "threading":
                thread_names |= {a.asname or a.name for a in node.names if a.name == "Thread"}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "Thread"
                and isinstance(func.value, ast.Name) and func.value.id == "threading"):
            found.append((node.lineno, "threading.Thread()"))
        elif isinstance(func, ast.Name) and func.id in thread_names:
            found.append((node.lineno, f"{func.id}()"))
    return [f"{filename}:{line} {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != POOL_MODULE), ids=lambda p: p.name)
def test_only_the_pool_starts_threads(path):
    assert thread_starts(path.read_text(encoding="utf-8"), path.name) == []


def test_the_pool_is_the_one_exception():
    source = (PACKAGE / POOL_MODULE).read_text(encoding="utf-8")
    assert "class Pool:" in source
    assert {line.split(" ", 1)[1] for line in thread_starts(source, POOL_MODULE)} == {
        "import queue", "threading.Thread()"}


def test_checker_reports_every_kind_of_thread_start():
    source = (
        "import queue\n"
        "import concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from queue import SimpleQueue as Q\n"
        "import threading\n"
        "from threading import Lock, Thread as T\n"
        "def f(work):\n"
        "    threading.Thread(target=work).start()\n"
        "    T(target=work)\n"
        "    threading.Lock()\n"
        "    Lock()\n"
    )
    assert thread_starts(source, "m.py") == [
        "m.py:1 import queue",
        "m.py:2 import concurrent.futures",
        "m.py:3 from concurrent.futures import",
        "m.py:4 from queue import",
        "m.py:8 threading.Thread()",
        "m.py:9 T()",
    ]


def swallows(source: str, filename: str) -> list[str]:
    """Every ``except`` clause whose body only passes, by file and enclosing definition."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{where}.{child.name}" if where else child.name
            elif isinstance(child, ast.ExceptHandler) and all(
                    ast.unparse(stmt) in ("pass", "...") for stmt in child.body):
                found.append(f"{filename} {where or '<module>'}")
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_pool_runs_work_only_through_submit():
    tree = ast.parse((PACKAGE / POOL_MODULE).read_text(encoding="utf-8"))
    (pool,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Pool"]
    assert [node.name for node in pool.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")] == ["submit"]


def test_only_the_pool_thread_drops_errors():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in swallows(path.read_text(encoding="utf-8"), path.name)]
    assert found == [f"{POOL_MODULE} Pool._serve"]


def test_checker_reports_a_planted_swallow():
    source = (
        "def fill(job):\n"
        "    try:\n"
        "        job()\n"
        "    except Exception:\n"
        "        pass\n"
        "class Reader:\n"
        "    def read(self, check):\n"
        "        try:\n"
        "            check()\n"
        "        except (OSError, ValueError):\n"
        "            ...\n"
        "        except KeyError:\n"
        "            raise\n"
        "try:\n"
        "    import fast\n"
        "except ImportError:\n"
        "    fast = None\n"
    )
    assert swallows(source, "m.py") == ["m.py fill", "m.py Reader.read"]


def _called(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def callers(source: str, module: str, name: str) -> list[str]:
    """Each call of ``name`` in the source, by its module and outermost definition."""
    found = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        found += [f"{module}.{where}" for node in ast.walk(top)
                  if isinstance(node, ast.Call) and _called(node.func) == name]
    return found


def names(source: str) -> set[str]:
    """Every name the source binds, reads, imports or takes as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found |= {node.name, node.asname} - {None}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_read_ahead_has_one_driver_each_for_generate_and_validate():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in callers(path.read_text(encoding="utf-8"), path.stem, "read_ahead")]
    assert found == ["integrity.validate", "lockfile._resolve_and_hash"]


def test_the_command_line_drives_no_read_pass():
    assert names((PACKAGE / "cli.py").read_text(encoding="utf-8")) & {
        "read_ahead", "current_digest"} == set()


def test_checkers_report_planted_calls_and_names():
    source = (
        "from .project import read_ahead as ahead\n"
        "import mvnlock.project\n"
        "def outer(modules):\n"
        "    def inner():\n"
        "        return read_ahead(modules)\n"
        "    return inner\n"
        "class Driver:\n"
        "    def run(self):\n"
        "        mvnlock.project.read_ahead([])\n"
        "read_ahead([])\n"
        "digest = mvnlock.integrity.current_digest\n"
    )
    assert callers(source, "m", "read_ahead") == ["m.outer", "m.Driver", "m.<module>"]
    assert {"read_ahead", "ahead", "current_digest"} <= names(source)
