"""Size of the package: its line count, its count of settable values, and the
top-level names, dataclass fields and class members nothing in it reads.

Usage::

    python tools/size.py [SRC_DIR]

SRC_DIR (absolute, or relative to the checkout root) defaults to
``src/rlab``.  The line count is that of every ``*.py`` file in SRC_DIR
(``cat src/rlab/*.py | wc -l``).  A settable value is a parameter with a
default value (positional or keyword-only, in any function or method) or a
field of a ``@dataclass``: each is a value a caller can set.  Beside them
the scan counts the values a user can set: config keys (the entries of the
sections of a module-level ``ACCEPTED_KEYS`` dict literal) and environment
reads (each ``os.environ`` or ``os.getenv`` in the source).  An unread
name is a module-level function, class or assignment whose name no module
of the package loads, imports or reads as an attribute (its own definition
aside): only tests or outside callers can reach it.  An unread field is a
dataclass field that no module of the package loads as an attribute outside
its own class's ``__post_init__``: it is stored but never used.  Names are
matched as strings, not resolved to types, so a field counts as read when
any object's attribute of the same name is loaded.  An unread member is a
method or property of a class, other than a dunder, whose name no module of
the package loads (its own definition aside).  scan() reads the source with
``ast`` and returns the counts and the unread names, fields and members;
the script prints them, so a change can quote them before and after, and
the test suite compares the unread lists with the names it allows.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from collections import Counter
from typing import NamedTuple

REPO = pathlib.Path(__file__).resolve().parents[1]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> tuple[int, int]:
    """(defaulted parameters, dataclass fields) in one parsed module."""
    defaults = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults += len(node.args.defaults)
            defaults += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return defaults, fields


def config_keys(tree: ast.Module) -> int:
    """The entries of the sections of a module-level ``ACCEPTED_KEYS`` dict literal."""
    count = 0
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(getattr(t, "id", None) == "ACCEPTED_KEYS" for t in node.targets)):
            count += sum(len(v.keys) for v in node.value.values if isinstance(v, ast.Dict))
    return count


def environment_reads(tree: ast.AST) -> int:
    """Each ``os.environ`` or ``os.getenv`` a module reads."""
    return sum(isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
               and getattr(node.value, "id", None) == "os" for node in ast.walk(tree))


def _read(trees: dict[str, ast.AST]) -> set[str]:
    """Every name any module loads, imports or reads as an attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def unread_names(trees: dict[str, ast.AST]) -> list[str]:
    """``module.name`` of each top-level definition no module reads."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
    read = _read(trees)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def unread_members(trees: dict[str, ast.AST]) -> list[str]:
    """``module.Class.member`` of each non-dunder method or property no module reads."""
    defined = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}", stmt.name) for stmt in node.body
                            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (stmt.name.startswith("__") and stmt.name.endswith("__"))]
    read = _read(trees)
    return [f"{cls}.{name}" for cls, name in defined if name not in read]


def _loaded(tree: ast.AST) -> Counter:
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def unread_fields(trees: dict[str, ast.AST]) -> list[str]:
    """``module.Class.field`` of each dataclass field no module loads as an
    attribute outside its class's ``__post_init__``."""
    total, fields = Counter(), []
    for module, tree in trees.items():
        total += _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                checks = [_loaded(stmt) for stmt in node.body
                          if isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__"]
                fields += [(f"{module}.{node.name}", stmt.target.id, sum(checks, Counter()))
                           for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
    return [f"{cls}.{name}" for cls, name, own in fields if total[name] == own[name]]


class Scan(NamedTuple):
    files: int
    lines: int
    defaults: int  # defaulted parameters
    fields: int  # dataclass fields
    config_keys: int
    environment_reads: int
    unread_names: list[str]
    unread_fields: list[str]
    unread_members: list[str]


def scan(src_dir: pathlib.Path) -> Scan:
    """The size of the package in src_dir; a ValueError if it holds no ``*.py``."""
    files = sorted(pathlib.Path(src_dir).glob("*.py"))
    if not files:
        raise ValueError(f"no Python files in {src_dir}")
    lines = defaults = fields = 0
    trees = {}
    for path in files:
        text = path.read_text()
        lines += len(text.splitlines())
        trees[path.stem] = ast.parse(text)
        d, f = settable_values(trees[path.stem])
        defaults += d
        fields += f
    return Scan(len(files), lines, defaults, fields, sum(map(config_keys, trees.values())),
                sum(map(environment_reads, trees.values())), unread_names(trees),
                unread_fields(trees), unread_members(trees))


def main(argv) -> int:
    arg = argv[1] if len(argv) > 1 else "src/rlab"
    try:
        size = scan(REPO / arg)  # an absolute SRC_DIR replaces REPO
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"{arg}: {size.lines} lines in {size.files} files")
    print(f"settable values: {size.defaults} defaulted parameters + {size.fields} dataclass"
          f" fields = {size.defaults + size.fields}, besides {size.config_keys} config keys"
          f" and {size.environment_reads} environment reads")
    for kind, names in (("top-level names", size.unread_names),
                        ("dataclass fields", size.unread_fields),
                        ("members", size.unread_members)):
        print(f"unread {kind}: {len(names)}")
        for name in names:
            print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
