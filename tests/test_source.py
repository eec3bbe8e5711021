"""Source hygiene: no local name in src/sepscan is bound and never read."""

import ast
from pathlib import Path

import pytest

import sepscan

SOURCES = sorted(Path(sepscan.__file__).parent.glob("*.py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_SCOPES = (*_FUNCTIONS, ast.ClassDef)


def _own_nodes(func):
    """The nodes of func's own scope: comprehensions included, nested
    functions and classes left out."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _unread(func) -> set[tuple[int, str]]:
    """(line, name) of each binding in func (an assignment, or a for, with
    or comprehension target) of a name that neither func nor a function
    nested in it loads.
    _-prefixed names, augmented-assignment targets and global or nonlocal
    names are exempt."""
    own = list(_own_nodes(func))
    exempt = {n for node in own if isinstance(node, (ast.Global, ast.Nonlocal))
              for n in node.names}
    augmented = {id(node.target) for node in own if isinstance(node, ast.AugAssign)}
    loaded = {n.id for n in ast.walk(func)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return {(n.lineno, n.id) for n in own
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            and id(n) not in augmented and not n.id.startswith("_")
            and n.id not in exempt | loaded}


def _unread_in(source: str) -> list[tuple[int, str]]:
    return sorted(entry for node in ast.walk(ast.parse(source))
                  if isinstance(node, _FUNCTIONS) for entry in _unread(node))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_local_is_bound_and_never_read(path):
    assert _unread_in(path.read_text()) == []


def test_the_scan_flags_only_unread_bindings():
    source = """
def f(xs, acc):
    total = 0
    for label, x in xs:
        total = total + x
    with open(xs) as fh:
        pass
    rows = [1 for i in xs]
    _skip = 1
    acc += 1

    def inner():
        nonlocal total
        total = 2
        return rows

    used_by_inner = 1
    return lambda: used_by_inner + inner()
"""
    assert _unread_in(source) == [(4, "label"), (6, "fh"), (8, "i")]
