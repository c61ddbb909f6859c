"""No check in the quotient machinery, the linear algebra or the verifier may rest on ``assert``.

``python -O`` strips assert statements, so a check written as one silently
disappears.  These modules raise ``TFAError`` subclasses instead.
"""

import ast
from pathlib import Path

import tfalgebra

GUARDED = ("intmat.py", "cohomology.py", "pairs.py", "abelian.py", "linalg.py", "verify.py")


def test_guarded_modules_have_no_assert_statements():
    package = Path(tfalgebra.__file__).resolve().parent
    found = []
    for name in GUARDED:
        path = package / name
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in guarded modules: {', '.join(found)}"
