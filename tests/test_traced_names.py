"""The names the benchmark's tracer wraps must exist in the program.

``bench/tracing.py`` replaces each ``(owner, attribute)`` of its ``TARGETS``
at install time and fails there when one is gone.  This reads the table from
the file's source, without importing or writing anything under ``bench/``.
"""

import ast
import importlib
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                       "tracing.py")


def _targets():
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("no TARGETS table in bench/tracing.py")


def test_every_traced_name_exists():
    targets = _targets()
    assert len(targets) >= 20
    for owner_path, attr in targets:
        module_path, _, cls_name = owner_path.partition(":")
        owner = importlib.import_module(module_path)
        if cls_name:
            owner = getattr(owner, cls_name)
        assert attr in owner.__dict__, (owner_path, attr)
