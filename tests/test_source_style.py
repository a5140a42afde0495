"""Source layout the package keeps: no line of src/lie2alg is over 99
columns, every import sits at module level, and every name a module
imports is used."""

import ast
from pathlib import Path

import lie2alg

MAX_COLUMNS = 99


def _sources():
    return sorted(Path(lie2alg.__file__).parent.glob("*.py"))


def test_source_lines_fit_in_99_columns():
    long = [f"{path.name}:{n}: {len(line)} columns"
            for path in _sources()
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert not long, "\n".join(long)


def nested_imports(source: str) -> list:
    """Line of each import statement that is not a direct child of the
    module body: one inside a function, class, branch or try."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]


def test_imports_are_at_module_level():
    nested = [f"{path.name}:{line}" for path in _sources()
              for line in nested_imports(path.read_text(encoding="utf-8"))]
    assert not nested, "\n".join(nested)


def test_nested_import_check_catches_what_it_should():
    assert nested_imports("import os\nfrom .a import b\n") == []
    assert nested_imports("import os\n"
                          "def f():\n    from .twoterm import g\n    return g\n"
                          "class C:\n    import sys\n"
                          "try:\n    import json\nexcept ImportError:\n    pass\n") == [3, 6, 8]


def unused_imports(source: str) -> list:
    """(line, name) of each name the module imports but neither reads nor
    lists in its __all__; imports from __future__ are exempt.  Scopes are
    not told apart: a name read anywhere in the module counts as used."""
    tree = ast.parse(source)
    imported, read, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in read | exported]


def test_every_imported_name_is_used():
    unused = [f"{path.name}:{line}: {name}" for path in _sources()
              for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not unused, "\n".join(unused)


def test_unused_import_check_catches_what_it_should():
    assert unused_imports("from .exactlin import contract, vzeros\nvzeros(3)\n") == [
        (1, "contract")]
    assert unused_imports("import os.path\nimport sys as system\nos.sep\n") == [(2, "system")]
    assert unused_imports("from __future__ import annotations\n"
                          "from .a import b, c\n__all__ = ['b']\n"
                          "def f():\n    from .d import e\n    return c, e\n") == []
