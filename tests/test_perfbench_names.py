"""Every name the benchmark patches into ``src/`` still resolves.

``perfbench/`` reaches into the package by dotted name: the traced run
wraps ``tracer.TARGETS`` and ``tracer.COUNTED``, and ``child.py`` hooks
the timed phase's boundaries with ``patch(...)`` calls.  The untraced
run installs only some of them, so a rename or deletion in ``src/``
would otherwise pass and break only the traced run.  This reads
``perfbench/`` and changes nothing there.
"""

from __future__ import annotations

import ast
import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def _tracer():
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(BENCH)


def _child_patches() -> "list[tuple[str, str]]":
    """The ``patch("module", "Class.attr", ...)`` calls of ``child.py``
    whose first two arguments are string literals."""
    with open(os.path.join(BENCH, "child.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "patch"
            and len(node.args) >= 2
            and all(isinstance(arg, ast.Constant) for arg in node.args[:2])
        ):
            names.append((node.args[0].value, node.args[1].value))
    return names


def _patched_names() -> "list[tuple[str, str]]":
    tracer = _tracer()
    return (
        [(module, attr) for module, attr, *_ in tracer.TARGETS]
        + [(module, attr) for module, attr, _ in tracer.COUNTED]
        + _child_patches()
    )


def test_child_hooks_are_found():
    assert _child_patches()


@pytest.mark.parametrize("module,attr", _patched_names())
def test_patched_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
