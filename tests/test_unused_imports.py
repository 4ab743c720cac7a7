"""Every name a program module imports is read in that module.

The one exception is a name the benchmark's tracer wraps on the importing
module (a ``(module, name)`` pair of ``TARGETS`` in ``bench/tracing.py``):
there the import is what gives the tracer its hook.
"""

import ast
import os

from test_traced_names import _targets

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "binopt")


def _unread_imports(source: str):
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_unread_imports_finds_what_it_should():
    assert _unread_imports("import os\nimport numpy as np\nnp.zeros(1)\n") \
        == {"os"}
    assert _unread_imports("from a import b, c as d\nd()\n") == {"b"}
    assert _unread_imports("from __future__ import annotations\n") == set()


def test_every_imported_name_is_read():
    traced = set(_targets())
    unread = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            names = _unread_imports(fh.read())
        module = "binopt." + name[:-3]
        unread += [(module, n) for n in sorted(names)
                   if (module, n) not in traced]
    assert unread == []
