"""No check in the package may rest on ``assert``.

``python -O`` strips assert statements, so a check written as one silently
disappears.  The modules raise ``TFAError`` subclasses instead.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tfalgebra

PACKAGE = Path(tfalgebra.__file__).resolve().parent
GUARDED = tuple(sorted(path.name for path in PACKAGE.glob("*.py")))


def test_guarded_modules_have_no_assert_statements():
    assert "pairs.py" in GUARDED and "cochains.py" in GUARDED
    found = []
    for name in GUARDED:
        path = PACKAGE / name
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in guarded modules: {', '.join(found)}"


def test_symmetric_group_cap_survives_optimize():
    code = (
        "from tfalgebra.errors import TooLarge\n"
        "from tfalgebra.groups import symmetric_group\n"
        "try:\n"
        "    symmetric_group(5)\n"
        "except TooLarge:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.stdout.strip() == "raised", out.stderr
