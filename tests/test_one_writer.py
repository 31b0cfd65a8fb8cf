"""``repo.write_files`` is the only code in the package that writes a file.

A stdlib ``ast`` check: any other call of ``write_bytes``, ``write_text``,
``os.replace``, ``os.rename``, ``tempfile.mkstemp``, ``os.write``, of a call
that makes a link (``os.link``, ``os.symlink``, ``Path.hardlink_to``,
``Path.symlink_to``), of ``open``, ``Path.open`` or ``os.fdopen`` with a
write mode, or of ``os.open`` with a write or create flag fails it, so a
command cannot go back to writing its outputs one file at a time.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mvnlock"
WRITER = ("repo.py", "write_files")
WRITE_METHODS = {"write_bytes", "write_text", "hardlink_to", "symlink_to"}
MODULE_WRITERS = {("os", "replace"), ("os", "rename"), ("tempfile", "mkstemp"),
                  ("os", "write"), ("os", "pwrite"), ("os", "writev"),
                  ("os", "link"), ("os", "symlink")}
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC", "O_TMPFILE"}


def _flags(call: ast.Call) -> str:
    """The ``os.open`` call's flag names joined by '|'; '?' if not all are ``O_`` names."""
    node = next((k.value for k in call.keywords if k.arg == "flags"),
                call.args[1] if len(call.args) > 1 else None)
    names = []
    pending = [node]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            pending += [node.right, node.left]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("O_"):
            names.append(node.attr)
        elif isinstance(node, ast.Name) and node.id.startswith("O_"):
            names.append(node.id)
        else:
            return "?"
    return "|".join(names)


def _mode(call: ast.Call, position: int) -> str | None:
    """The call's mode argument if it is a string literal; '?' if not literal."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            node = keyword.value
            break
    else:
        if len(call.args) <= position:
            return None
        node = call.args[position]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return "?"


def _writes(call: ast.Call) -> str | None:
    """A description of the write this call makes, or None for a non-writing call."""
    func = call.func
    if isinstance(func, ast.Name):
        name, position = func.id, 1
        if name != "open":
            return None
    elif isinstance(func, ast.Attribute):
        name = func.attr
        owner = func.value.id if isinstance(func.value, ast.Name) else None
        if name in WRITE_METHODS:
            return name
        if (owner, name) in MODULE_WRITERS:
            return f"{owner}.{name}"
        if (owner, name) == ("os", "open"):
            flags = _flags(call)
            if flags == "?" or set(flags.split("|")) & WRITE_FLAGS:
                return f"os.open({flags})"
            return None
        if (owner, name) == ("os", "fdopen"):
            position = 1
        elif name == "open" and owner != "os":
            # Path.open(mode); builtins.open-style calls put mode second
            position = 1 if owner in ("io", "builtins") else 0
        else:
            return None
    else:
        return None
    mode = _mode(call, position)
    if mode is not None and (mode == "?" or set(mode) & set("wax+")):
        return f"{name}(mode={mode!r})"
    return None


def file_writes(source: str, filename: str) -> list[str]:
    """Every writing call in the source outside the one writer, by line."""
    tree = ast.parse(source)
    allowed: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (filename, node.name) == WRITER:
            allowed |= {id(inner) for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            what = _writes(node)
            if what is not None:
                found.append((node.lineno, f"{filename}:{node.lineno} {what}"))
    return [line for _, line in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_write_files_writes(path):
    assert file_writes(path.read_text(encoding="utf-8"), path.name) == []


def test_write_files_is_the_one_exception():
    source = (PACKAGE / WRITER[0]).read_text(encoding="utf-8")
    assert f"def {WRITER[1]}(" in source
    renamed = source.replace(f"def {WRITER[1]}(", "def not_the_writer(")
    assert {line.split(" ", 1)[1] for line in file_writes(renamed, WRITER[0])} == {
        "os.open(O_WRONLY|O_CREAT|O_EXCL)", "fdopen(mode='wb')", "os.replace", "os.link"}


def test_checker_reports_every_kind_of_write():
    source = (
        "import os, tempfile\n"
        "from pathlib import Path\n"
        "def f(p: Path, data, mode):\n"
        "    p.write_bytes(data)\n"
        "    p.write_text('x')\n"
        "    os.replace('a', 'b')\n"
        "    tempfile.mkstemp()\n"
        "    open(p, 'w')\n"
        "    p.open('ab')\n"
        "    p.open(mode=mode)\n"
        "    os.fdopen(3, 'wb')\n"
        "    open(p, 'rb').read()\n"
        "    p.open('rb')\n"
        "    p.read_text()\n"
        "    open(p)\n"
        "    os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)\n"
        "    os.open(p, flags=os.O_RDWR)\n"
        "    os.open(p, mode)\n"
        "    os.write(3, data)\n"
        "    os.open(p, os.O_RDONLY)\n"
        "    os.open(p, os.O_RDONLY | os.O_CLOEXEC)\n"
        "    os.link(p, 'b')\n"
        "    os.symlink(p, 'b')\n"
        "    p.hardlink_to('a')\n"
        "    p.symlink_to('a')\n"
        "    os.readlink(p)\n"
    )
    assert file_writes(source, "m.py") == [
        "m.py:4 write_bytes",
        "m.py:5 write_text",
        "m.py:6 os.replace",
        "m.py:7 tempfile.mkstemp",
        "m.py:8 open(mode='w')",
        "m.py:9 open(mode='ab')",
        "m.py:10 open(mode='?')",
        "m.py:11 fdopen(mode='wb')",
        "m.py:16 os.open(O_WRONLY|O_CREAT)",
        "m.py:17 os.open(O_RDWR)",
        "m.py:18 os.open(?)",
        "m.py:19 os.write",
        "m.py:22 os.link",
        "m.py:23 os.symlink",
        "m.py:24 hardlink_to",
        "m.py:25 symlink_to",
    ]
