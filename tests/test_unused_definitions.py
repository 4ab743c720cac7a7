"""Every module-level function or class of a program module is read.

A definition in ``src/binopt/*.py`` (not ``__init__.py``) must be loaded
somewhere in ``src/binopt`` outside its own definition: by its name, or as
an attribute (``preprocess.table_rows``).  Importing a name does not read
it.  The exceptions are the package's exports (``binopt.__all__``) and the
names the benchmark's tracer wraps (``(module, name)`` pairs of ``TARGETS``
in ``bench/tracing.py``).
"""

import ast
import os

import binopt
from test_traced_names import _targets
from test_unused_imports import SRC


def _loads(node) -> set:
    """The names ``node`` loads, bare or as attributes."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def _unread_definitions(sources: dict) -> list:
    """(module, name) of each top-level function or class in ``sources``
    (module -> source) that no statement of any module loads, leaving out
    the definition's own statement."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    loads = {module: [_loads(stmt) for stmt in tree.body]
             for module, tree in trees.items()}
    unread = []
    for module, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if not any(stmt.name in names
                       for other, stmts in loads.items()
                       for j, names in enumerate(stmts)
                       if other != module or j != i):
                unread.append((module, stmt.name))
    return unread


def test_unread_definitions_finds_what_it_should():
    sources = {
        "a": "def f():\n    return f()\n\ndef g():\n    pass\n\n"
             "class C:\n    pass\n\ndef h():\n    pass\n\nH = h\n",
        "b": "from a import g\nimport a\na.C\n",
    }
    assert _unread_definitions(sources) == [("a", "f"), ("a", "g")]


def test_every_definition_is_read():
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                sources["binopt." + name[:-3]] = fh.read()
    exempt = set(_targets())
    unread = [(module, name)
              for module, name in _unread_definitions(sources)
              if module != "binopt.__init__" and name not in binopt.__all__
              and (module, name) not in exempt]
    assert unread == []
