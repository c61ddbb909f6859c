"""No module of the package keeps a dead local, an unused import or an unread private def.

A local assigned and never read, an import nothing uses, or a private
module-level function or class (``_name``, not a dunder) that no module of
the package reads is code with no effect that still has to be read.  The
checks walk each module's syntax tree with the stdlib :mod:`ast` only.
Locals and imports starting with ``_`` are exempt, so ``for _ in ...`` and
deliberate placeholders stay allowed.  A private def is read by a name, an
attribute such as ``cohomology._rows_at``, or a ``from ... import``.
"""

import ast
from pathlib import Path

import tfalgebra

PACKAGE = Path(tfalgebra.__file__).resolve().parent
GUARDED = tuple(sorted(path.name for path in PACKAGE.glob("*.py")))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_nodes(scope):
    """The nodes of one function body, not descending into nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def _read_names(tree) -> set[str]:
    """Every name read anywhere under ``tree``, nested scopes included."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            read.add(node.target.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            read.update(node.names)
    return read


def _dead_locals(tree) -> list[tuple[int, str]]:
    found = []
    for scope in ast.walk(tree):
        if not isinstance(scope, SCOPES):
            continue
        read = _read_names(scope)
        for node in _own_nodes(scope):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if not node.id.startswith("_") and node.id not in read:
                    found.append((node.lineno, node.id))
    return found


def _unused_imports(tree) -> list[tuple[int, str]]:
    read = _read_names(tree)
    # a literal __all__ re-exports its names; a computed one re-exports none
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, (ast.List, ast.Tuple))
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            read.update(ast.literal_eval(node.value))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in bound if not name.startswith("_") and name not in read]
    return found


def _unread_private_defs(trees: dict[str, ast.Module]) -> list[tuple[str, int, str]]:
    """The private module-level defs of ``trees`` that no tree reads."""
    read = set()
    for tree in trees.values():
        read |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [
        (name, node.lineno, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFS)
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    ]


def _trees() -> dict[str, ast.Module]:
    out = {}
    for name in GUARDED:
        path = PACKAGE / name
        out[name] = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return out


def _findings(check) -> list[str]:
    trees = _trees()
    return [f"{name}:{line} {ident}" for name, tree in trees.items() for line, ident in check(tree)]


def test_no_local_is_assigned_and_never_read():
    assert "verify.py" in GUARDED and "pairs.py" in GUARDED
    found = _findings(_dead_locals)
    assert not found, f"locals assigned and never read: {', '.join(found)}"


def test_no_import_is_unused():
    found = _findings(_unused_imports)
    assert not found, f"imports never used: {', '.join(found)}"


def test_the_checks_see_a_dead_local_and_an_unused_import():
    tree = ast.parse(
        "import os\n"
        "from math import gcd\n"
        "def f(x):\n"
        "    a, b = x\n"
        "    for _, c in x:\n"
        "        pass\n"
        "    return gcd(a, 1)\n"
    )
    assert sorted(_dead_locals(tree)) == [(4, "b"), (5, "c")]
    assert _unused_imports(tree) == [(1, "os")]


def test_every_private_def_is_read_in_the_package():
    found = [f"{name}:{line} {ident}" for name, line, ident in _unread_private_defs(_trees())]
    assert not found, f"private defs never read: {', '.join(found)}"


def test_the_check_sees_an_unread_private_def():
    sources = {
        "a.py": "def _called():\n    pass\ndef _unread():\n    pass\nclass _Base:\n    pass\n",
        "b.py": "from a import _called\nimport c\nc._helper()\nclass _Unread(a._Base):\n    pass\n",
        "c.py": "def _helper():\n    pass\ndef __getattr__(name):\n    pass\n",
    }
    trees = {name: ast.parse(source) for name, source in sources.items()}
    assert _unread_private_defs(trees) == [("a.py", 3, "_unread"), ("b.py", 4, "_Unread")]
