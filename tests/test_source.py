"""Source hygiene: no local name in src/sepscan is bound and never read,
no module-level name goes unreferenced, and importing the package leaves
scipy unloaded."""

import ast
import os
import subprocess
import sys
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


# public names that only README and the tests call
UNREFERENCED_API = {
    "audio.synth_corpus",           # README's corpus one-liner
    "model.SeparationModel.load_state",   # README's float64 fine-tuning
    "ssm.DenseSsm.scan",            # the dense oracle's own recurrence
}


def _definitions(tree, module):
    """(qualified name, name, whether a method) of each module-level
    function, class and constant and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                yield from ((f"{module}.{node.name}.{sub.name}", sub.name, True)
                            for sub in node.body
                            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((f"{module}.{n.id}", n.id, False) for t in targets
                        for n in ast.walk(t) if isinstance(n, ast.Name))


def _references(tree):
    """(whether a bare name, name) of every name tree refers to: a Name it
    does not bind, or else an Attribute, an import alias or an __all__
    string."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            yield True, n.id
        elif isinstance(n, ast.Attribute):
            yield False, n.attr
        elif isinstance(n, ast.alias):
            yield False, n.name.rpartition(".")[2]
        elif isinstance(n, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets):
            yield from ((False, c.value) for c in ast.walk(n.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))


def _unreferenced(sources: dict[str, str]) -> set[str]:
    """The definitions in sources (module name -> source) that no source
    refers to by name; dunder names are exempt.  A method counts as
    referenced only through an attribute, an import alias or __all__: a
    bare name of its spelling is a local or a parameter."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = [(bare, r) for tree in trees.values() for bare, r in _references(tree)]
    named = {r for bare, r in refs if not bare}
    anywhere = {r for _, r in refs}
    return {qual for module, tree in trees.items()
            for qual, name, method in _definitions(tree, module)
            if name not in (named if method else anywhere)
            and not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_is_referenced_in_src():
    assert _unreferenced({p.stem: p.read_text() for p in SOURCES}) == UNREFERENCED_API


def test_the_scan_flags_only_unreferenced_definitions():
    a = """
__all__ = ["exported"]
LIMIT = 3
UNUSED: int = 4


def exported():
    pass


def helper():
    return LIMIT


def dead():
    return helper()


class Box:
    def __init__(self):
        self.n = helper()

    def used(self):
        return self.n

    def unused(self):
        pass

    def scan(self):
        pass


def f(scan):
    return scan
"""
    b = """
from .a import Box, f
Box().used()
"""
    assert _unreferenced({"a": a, "b": b}) == {"a.UNUSED", "a.dead", "a.Box.unused",
                                               "a.Box.scan"}


def test_importing_the_package_leaves_scipy_unloaded():
    # only the dense oracle (ssm.DenseSsm) imports scipy, when it runs
    code = "import sys, sepscan, sepscan.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(sepscan.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
