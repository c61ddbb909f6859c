"""What each ``tfa`` command loads, and the lazy public namespace.

``import tfalgebra`` loads no submodule: a public name, or a submodule read
as an attribute, imports its home module on first use.  Every check runs in
a fresh interpreter, so no import made by the test process hides a load.  A
module counts as loaded when its body ran: an audit hook in the child
records the file of every code object that ``exec`` runs, which is how the
import system runs a module.  A module entered in ``sys.modules`` but never
executed does not count.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tfalgebra
from tfalgebra.constructions import build_simple
from tfalgebra.pairs import trivial_pair
from tfalgebra.serialize import dump_json, emit_instance

from test_constructions import context_I1

SRC = Path(tfalgebra.__file__).resolve().parent.parent

# what parsing an instance needs; ``check-cocycle`` and refused input stop here
SERIALIZE_CHAIN = {
    "__init__", "cli", "_record", "errors", "groups", "gmodule", "fields", "linalg", "cochains",
    "algebra", "serialize",
}
HEAVY = {"verify", "pairs", "intmat", "cohomology"}
# standard-library modules no command over F_p needs: the value classes are
# plain classes, and ``fractions`` loads only where a rational is made
STDLIB_UNUSED = {"dataclasses", "inspect", "fractions", "decimal"}

# the 41 names of __all__ by home module
HOMES = {
    "algebra": ("AlgebraContext", "KappaPair", "TFAlgebra", "is_kappa_pair", "mu", "z_rescale"),
    "cochains": ("Cochain", "coboundary", "is_cocycle", "is_normalized", "normalize_cocycle"),
    "cohomology": ("CohomologyGroup", "brute_force_cohomology", "cohomology_group"),
    "constructions": (
        "build_simple", "coboundary_transform", "extract_kappa_pair", "from_a_frobenius",
        "from_crossed_frobenius",
    ),
    "fields": ("PrimeField", "RationalField"),
    "gmodule": ("GModule", "cyclic_module", "trivial_module"),
    "groups": (
        "FiniteGroup", "cyclic_group", "direct_product", "group_from_table", "symmetric_group",
        "trivial_group",
    ),
    "isomorphism": ("UNDECIDED", "GradedIsomorphism", "is_isomorphic"),
    "linalg": ("Matrix",),
    "pairs": (
        "PairClassGroup", "classify_simple", "coboundary_pair", "enumerate_pairs", "pairs_equivalent",
    ),
    "verify": ("VerificationReport", "verify"),
}

RUN_COMMAND = """
import json, os, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(getattr(args[0], "co_filename", "")))
before = set(sys.modules)
from tfalgebra.cli import main
code = main(sys.argv[1:])
package = os.path.dirname(sys.modules["tfalgebra"].__file__)
loaded = sorted(os.path.basename(f)[:-3] for f in ran if os.path.dirname(f) == package)
added = sorted(set(sys.modules) - before)
print(json.dumps({"code": code, "loaded": loaded, "added": added}))
"""


def _fresh(code: str, *args: str):
    """The JSON object on the last stdout line of ``code`` run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _command(*argv: str) -> tuple[int, set[str], set[str]]:
    """The exit code, the package modules executed, and every module added to ``sys.modules``.

    ``sys.modules`` is read before ``tfalgebra`` is imported, so what the
    interpreter's ``site`` hooks import does not count.
    """
    result = _fresh(RUN_COMMAND, *argv)
    return result["code"], set(result["loaded"]), set(result["added"])


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    """A twisted cocycle, an instance with an algebra, a pair and an omega, and broken copies."""
    tmp = tmp_path_factory.mktemp("lazy")
    twisted = {
        "group": [[0, 1], [1, 0]],
        "module": {"factors": [2]},
        "field": {"prime": 5},
        "cocycle": {"1,1,1": [1]},
    }
    ctx = context_I1()
    pair = trivial_pair(ctx)
    full = emit_instance(ctx, algebra=build_simple(ctx, pair), pair=pair)
    full["omega"] = {}
    docs = {
        "twisted": twisted,
        "full": full,
        "bad-omega": {**full, "omega": [1]},
        "bad-pair": {**full, "pair": {"g1": [[1]], "g2": []}},
        "bad-group": {**full, "group": [[0, 1], [1]]},
        "rational": {
            "group": [[0, 1], [1, 0]],
            "module": {"factors": []},
            "field": {"rational": True},
            "pair": {"g1": [[1, 1], [1, "4/9"]], "g2": []},
        },
    }
    paths = {}
    for name, doc in docs.items():
        path = tmp / f"{name}.json"
        path.write_text(dump_json(doc), encoding="utf-8")
        paths[name] = str(path)
    return paths


def test_check_cocycle_loads_only_the_serialize_chain(instances):
    code, loaded, _ = _command("check-cocycle", instances["twisted"])
    assert code == 0
    assert loaded <= SERIALIZE_CHAIN and not loaded & HEAVY, sorted(loaded)


@pytest.mark.parametrize(
    "name,command",
    [("bad-omega", "transform"), ("bad-pair", "build-simple"), ("bad-group", "verify")],
)
def test_refused_input_loads_only_the_serialize_chain(instances, name, command):
    # the pair section of bad-omega is valid and parsed before the omega
    code, loaded, _ = _command(command, instances[name])
    assert code == 2
    assert loaded <= SERIALIZE_CHAIN and not loaded & HEAVY, sorted(loaded)


def test_verify_adds_only_the_verifier(instances):
    code, loaded, _ = _command("verify", instances["full"])
    assert code == 0
    assert loaded == SERIALIZE_CHAIN | {"verify"}, sorted(loaded)


@pytest.mark.parametrize("command", ["transform", "build-simple", "extract-pair"])
def test_constructions_add_only_their_module(instances, command):
    # the pair predicate sits in ``algebra``, so no pairs, cohomology or intmat
    code, loaded, _ = _command(command, instances["full"])
    assert code == 0
    assert loaded == SERIALIZE_CHAIN | {"constructions"}, sorted(loaded)


@pytest.mark.parametrize(
    "command,name,expected",
    [("verify", "full", 0), ("check-cocycle", "twisted", 0), ("verify", "bad-group", 2)],
)
def test_commands_over_f_p_load_no_dataclasses_or_fractions(instances, command, name, expected):
    code, _, added = _command(command, instances[name])
    assert code == expected
    assert not added & STDLIB_UNUSED, sorted(added & STDLIB_UNUSED)


def test_a_rational_pair_loads_fractions(instances):
    code, _, added = _command("build-simple", instances["rational"])
    assert code == 0
    assert "fractions" in added and "dataclasses" not in added, sorted(added)


def test_no_module_imports_dataclasses():
    package = Path(tfalgebra.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert {"algebra.py", "verify.py", "cohomology.py"} <= {path.name for path in modules}
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "dataclasses"]
    assert not found, f"dataclasses imported at {', '.join(found)}"


def test_star_import_binds_every_public_name_to_its_home_object():
    assert sum(len(names) for names in HOMES.values()) == 41
    result = _fresh(
        """
import json, sys
from importlib import import_module
homes = json.loads(sys.argv[1])
ns = {}
exec("from tfalgebra import *", ns)
print(json.dumps({
    "bound": sorted(name for name in ns if name != "__builtins__"),
    "differ": [name for module, names in homes.items() for name in names
               if ns[name] is not getattr(import_module("tfalgebra." + module), name)],
}))
""",
        json.dumps(HOMES),
    )
    assert result["bound"] == sorted(name for names in HOMES.values() for name in names)
    assert result["differ"] == []


@pytest.mark.parametrize(
    "first",
    [
        "import tfalgebra.verify",
        "from tfalgebra.verify import verify",
        "import tfalgebra; tfalgebra.verify; import tfalgebra.verify",
        "import tfalgebra.cli; tfalgebra.cli.main(['verify', sys.argv[1]])",
        "",
    ],
    ids=["import-submodule", "from-submodule", "attribute-first", "tfa-verify", "neither"],
)
def test_the_package_attribute_verify_is_the_function(instances, first):
    result = _fresh(
        f"""
import contextlib, inspect, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    {first or "pass"}
import tfalgebra
from tfalgebra import verify
print(json.dumps({{
    "function": inspect.isfunction(tfalgebra.verify) and verify is tfalgebra.verify,
    "home": verify is sys.modules["tfalgebra.verify"].verify,
}}))
""",
        instances["full"],
    )
    assert result == {"function": True, "home": True}


def test_import_loads_nothing_and_names_resolve_on_use():
    result = _fresh(
        """
import json, sys
import tfalgebra
before = sorted(m for m in sys.modules if m.startswith("tfalgebra."))
listed = set(tfalgebra.__all__) <= set(dir(tfalgebra))
pairs = tfalgebra.pairs.__name__
try:
    tfalgebra.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({"before": before, "listed": listed, "pairs": pairs, "unknown": unknown,
                  "dunder": hasattr(tfalgebra, "__wrapped__")}))
"""
    )
    assert result == {
        "before": [],
        "listed": True,
        "pairs": "tfalgebra.pairs",
        "unknown": "AttributeError",
        "dunder": False,
    }
