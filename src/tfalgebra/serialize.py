"""JSON instance files: parsing and emission.

An instance file is a single JSON object with the keys

``field``     {"prime": p} or {"rational": true}
``group``     n x n multiplication table of element indices
``module``    {"factors": [m1, ...], "action": {"<g>": k x k int matrix, ...}}
              (``action`` may be omitted for the trivial action)
``cocycle``   degree-3 table {"i,j,k": exponent vector, ...}; missing keys
              mean the trivial value; must be a normalized 3-cocycle
``algebra``   optional: {"dims", "mult", "a_action", "unit", "eta", "phi"}
``pair``      optional: {"g1": n x n scalar table, "g2": [scalar, ...]}
``omega``     optional degree-2 table {"i,j": exponent vector, ...}

Dense array layouts for the algebra section (all indexed by group-element
index, coefficient elements in mixed-radix order):

    dims[a]                int
    mult[a][b][i][j][t]    scalar
    a_action[a][x][i][j]   scalar
    unit[i], eta[i][j]     scalar
    phi[b][a][i][j]        scalar

Scalars are plain integers 0..p-1 over a prime field and "num/den" strings
over the rationals (bare integers are accepted on input).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraContext, TFAlgebra
from .cochains import Cochain
from .errors import SchemaError, ShapeMismatch, TFAError
from .fields import Field, PrimeField, RationalField
from .gmodule import GModule
from .groups import FiniteGroup
from .linalg import Matrix
from .pairs import KappaPair


@dataclass
class Instance:
    context: AlgebraContext
    algebra: TFAlgebra | None = None
    pair: KappaPair | None = None
    omega: Cochain | None = None


# -- scalars -----------------------------------------------------------------


def _integer(raw, key: str) -> int:
    """``raw`` if it is a JSON integer; ``true``/``false`` are not integers."""
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise SchemaError(f"{key}: expected an integer, got {raw!r}", key=key)
    return raw


def _list(raw, key: str) -> list:
    if not isinstance(raw, list):
        raise SchemaError(f"{key}: expected a list, got {raw!r}", key=key)
    return raw


def parse_scalar(field: Field, raw, key: str):
    if isinstance(field, PrimeField):
        return _integer(raw, key) % field.p
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            num, _, den = raw.partition("/")
            return Fraction(int(num), int(den) if den else 1)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"{key}: bad rational {raw!r}", key=key)
    raise SchemaError(f"{key}: expected 'num/den' string, got {raw!r}", key=key)


def emit_scalar(field: Field, value):
    if isinstance(field, PrimeField):
        return int(value)
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


# -- element tables ------------------------------------------------------------


def _parse_index_key(raw: str, arity: int, order: int, key: str) -> tuple[int, ...]:
    parts = raw.split(",")
    if len(parts) != arity:
        raise SchemaError(f"{key}: key {raw!r} must have {arity} indices", key=key)
    try:
        idx = tuple(int(p) for p in parts)
    except ValueError:
        raise SchemaError(f"{key}: non-integer index in {raw!r}", key=key)
    if any(not (0 <= i < order) for i in idx):
        raise SchemaError(f"{key}: index out of range in {raw!r}", key=key)
    return idx


def _parse_module_element(module: GModule, raw, key: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or len(raw) != module.rank:
        raise SchemaError(
            f"{key}: expected an exponent vector of length {module.rank}", key=key
        )
    return tuple(_integer(x, key) % m for x, m in zip(raw, module.moduli))


def parse_cochain_table(module: GModule, obj, degree: int, key: str) -> Cochain:
    if not isinstance(obj, dict):
        raise SchemaError(f"{key}: expected an object of index-tuple keys", key=key)
    table = {}
    order = module.group.order
    for raw_key, raw_val in obj.items():
        idx = _parse_index_key(raw_key, degree, order, key)
        table[idx] = _parse_module_element(module, raw_val, f"{key}[{raw_key}]")
    return Cochain(module, degree, table)


def emit_cochain_table(c: Cochain) -> dict:
    keys = c.module.group.tuples(c.degree)
    return {",".join(map(str, key)): list(v) for key, v in zip(keys, c.entries())}


# -- the instance --------------------------------------------------------------


def parse_instance(obj: dict) -> Instance:
    if not isinstance(obj, dict):
        raise SchemaError("instance must be a JSON object", key="<root>")

    fobj = obj.get("field")
    if not isinstance(fobj, dict):
        raise SchemaError("missing or malformed 'field'", key="field")
    if "prime" in fobj:
        prime = _integer(fobj["prime"], "field.prime")
        try:
            field: Field = PrimeField(prime)
        except TFAError as err:
            raise SchemaError(f"field: {err}", key="field")
    elif fobj.get("rational"):
        field = RationalField()
    else:
        raise SchemaError("field must give 'prime' or 'rational'", key="field")

    if not isinstance(obj.get("group"), list):
        raise SchemaError("missing or malformed 'group'", key="group")
    gobj = [[_integer(x, "group") for x in _list(row, "group")] for row in obj["group"]]
    try:
        group = FiniteGroup(gobj)
    except TFAError as err:
        raise SchemaError(f"group: {err}", key="group")

    mobj = obj.get("module")
    if not isinstance(mobj, dict) or "factors" not in mobj:
        raise SchemaError("missing or malformed 'module'", key="module")
    factors = mobj["factors"]
    if not isinstance(factors, list):
        raise SchemaError("module.factors must be a list", key="module")
    factors = [_integer(m, "module.factors") for m in factors]
    action = None
    if "action" in mobj:
        if not isinstance(mobj["action"], dict):
            raise SchemaError("module.action must map element index to matrix", key="module")
        action = {}
        for raw_key, mat in mobj["action"].items():
            try:
                g = int(raw_key)
            except ValueError:
                raise SchemaError(f"module.action key {raw_key!r} not an index", key="module")
            rows = _list(mat, "module.action")
            action[g] = [[_integer(x, "module.action") for x in _list(r, "module.action")] for r in rows]
    try:
        module = GModule(group, factors, action=action)
    except TFAError as err:
        raise SchemaError(f"module: {err}", key="module")

    cobj = obj.get("cocycle", {})
    kappa = parse_cochain_table(module, cobj, 3, "cocycle")
    try:
        context = AlgebraContext(group, module, kappa, field)
    except TFAError as err:
        raise SchemaError(f"cocycle: {err}", key="cocycle")

    inst = Instance(context)
    if "algebra" in obj:
        inst.algebra = parse_algebra(context, obj["algebra"])
    if "pair" in obj:
        inst.pair = parse_pair(context, obj["pair"])
    if "omega" in obj:
        inst.omega = parse_cochain_table(module, obj["omega"], 2, "omega")
    return inst


def parse_algebra(context: AlgebraContext, obj) -> TFAlgebra:
    if not isinstance(obj, dict):
        raise SchemaError("'algebra' must be an object", key="algebra")
    G, A, F = context.group, context.module, context.field
    n = G.order
    for req in ("dims", "mult", "a_action", "unit", "eta", "phi"):
        if req not in obj:
            raise SchemaError(f"algebra.{req} is missing", key=f"algebra.{req}")
    dims_raw = obj["dims"]
    if not isinstance(dims_raw, list) or len(dims_raw) != n:
        raise SchemaError("algebra.dims must list one dimension per element", key="algebra.dims")
    dims = {g: _integer(dims_raw[g], "algebra.dims") for g in G.elements()}

    def scal(raw, key):
        return parse_scalar(F, raw, key)

    mult_raw = obj["mult"]
    if not isinstance(mult_raw, list) or len(mult_raw) != n:
        raise SchemaError("algebra.mult must be an n x n array of tensors", key="algebra.mult")
    mult = {}
    for a in G.elements():
        if not isinstance(mult_raw[a], list) or len(mult_raw[a]) != n:
            raise SchemaError(f"algebra.mult[{a}] malformed", key="algebra.mult")
        for b in G.elements():
            tensor = mult_raw[a][b]
            key = f"algebra.mult[{a}][{b}]"
            try:
                mult[(a, b)] = [
                    [[scal(x, key) for x in vec] for vec in row] for row in tensor
                ]
            except TypeError:
                raise SchemaError(f"{key}: malformed tensor", key=key)

    act_raw = obj["a_action"]
    if not isinstance(act_raw, list) or len(act_raw) != n:
        raise SchemaError("algebra.a_action must have one row per element", key="algebra.a_action")
    a_action = {}
    elems = list(A.elements())
    for a in G.elements():
        row = act_raw[a]
        if not isinstance(row, list) or len(row) != len(elems):
            raise SchemaError(
                f"algebra.a_action[{a}] must list one matrix per coefficient element",
                key="algebra.a_action",
            )
        for xi, x in enumerate(elems):
            key = f"algebra.a_action[{a}][{xi}]"
            try:
                a_action[(a, x)] = Matrix(
                    F, [[scal(v, key) for v in r] for r in row[xi]], ncols=dims[a]
                )
            except (TypeError, ShapeMismatch):
                raise SchemaError(f"{key}: malformed matrix", key=key)

    unit = [scal(v, "algebra.unit") for v in _list(obj["unit"], "algebra.unit")]
    eta_rows = obj["eta"]
    try:
        eta = Matrix(F, [[scal(v, "algebra.eta") for v in r] for r in eta_rows])
    except (TypeError, ShapeMismatch):
        raise SchemaError("algebra.eta: malformed matrix", key="algebra.eta")

    phi_raw = obj["phi"]
    if not isinstance(phi_raw, list) or len(phi_raw) != n:
        raise SchemaError("algebra.phi must be an n x n array of blocks", key="algebra.phi")
    phi = {}
    for b in G.elements():
        if not isinstance(phi_raw[b], list) or len(phi_raw[b]) != n:
            raise SchemaError(f"algebra.phi[{b}] malformed", key="algebra.phi")
        for a in G.elements():
            key = f"algebra.phi[{b}][{a}]"
            try:
                phi[(b, a)] = Matrix(
                    F,
                    [[scal(v, key) for v in r] for r in phi_raw[b][a]],
                    ncols=dims[G.conj(b, a)],
                )
            except (TypeError, ShapeMismatch):
                raise SchemaError(f"{key}: malformed block", key=key)

    try:
        return TFAlgebra(context, dims, mult, a_action, unit, eta, phi)
    except TFAError as err:
        raise SchemaError(f"algebra: {err}", key="algebra")


def parse_pair(context: AlgebraContext, obj) -> KappaPair:
    if not isinstance(obj, dict) or "g1" not in obj or "g2" not in obj:
        raise SchemaError("'pair' needs 'g1' and 'g2'", key="pair")
    G, F = context.group, context.field
    n = G.order
    raw_g1 = obj["g1"]
    g1 = {}
    if isinstance(raw_g1, list):
        if len(raw_g1) != n or any(len(_list(r, "pair.g1")) != n for r in raw_g1):
            raise SchemaError("pair.g1 must be an n x n scalar table", key="pair.g1")
        for a in G.elements():
            for b in G.elements():
                g1[(a, b)] = parse_scalar(F, raw_g1[a][b], "pair.g1")
    elif isinstance(raw_g1, dict):
        for raw_key, v in raw_g1.items():
            idx = _parse_index_key(raw_key, 2, n, "pair.g1")
            g1[idx] = parse_scalar(F, v, "pair.g1")
        for a in G.elements():
            for b in G.elements():
                g1.setdefault((a, b), F.one)
    else:
        raise SchemaError("pair.g1 must be a table", key="pair.g1")
    raw_g2 = obj["g2"]
    if not isinstance(raw_g2, list) or len(raw_g2) != context.module.rank:
        raise SchemaError(
            "pair.g2 must list one scalar per cyclic generator", key="pair.g2"
        )
    g2 = tuple(parse_scalar(F, v, "pair.g2") for v in raw_g2)
    return KappaPair(g1, g2)


# -- emission --------------------------------------------------------------------


def emit_context(context: AlgebraContext) -> dict:
    G, A, F = context.group, context.module, context.field
    out: dict = {}
    if isinstance(F, PrimeField):
        out["field"] = {"prime": F.p}
    else:
        out["field"] = {"rational": True}
    out["group"] = [list(row) for row in G.table]
    mod: dict = {"factors": list(A.moduli)}
    if not A.has_trivial_action():
        mod["action"] = {str(g): [list(r) for r in A.action[g]] for g in G.elements()}
    out["module"] = mod
    out["cocycle"] = emit_cochain_table(context.kappa)
    return out


def emit_algebra(V: TFAlgebra) -> dict:
    G, A, F = V.context.group, V.context.module, V.context.field
    elems = list(A.elements())
    return {
        "dims": list(V.dims),
        "mult": [
            [
                [
                    [[emit_scalar(F, x) for x in vec] for vec in row]
                    for row in V.mult[(a, b)]
                ]
                for b in G.elements()
            ]
            for a in G.elements()
        ],
        "a_action": [
            [
                [[emit_scalar(F, x) for x in r] for r in V.a_action[(a, x_el)].rows]
                for x_el in elems
            ]
            for a in G.elements()
        ],
        "unit": [emit_scalar(F, x) for x in V.unit],
        "eta": [[emit_scalar(F, x) for x in r] for r in V.eta.rows],
        "phi": [
            [
                [[emit_scalar(F, x) for x in r] for r in V.phi[(b, a)].rows]
                for a in G.elements()
            ]
            for b in G.elements()
        ],
    }


def emit_pair(context: AlgebraContext, pair: KappaPair) -> dict:
    G, F = context.group, context.field
    return {
        "g1": [
            [emit_scalar(F, pair.g1[(a, b)]) for b in G.elements()]
            for a in G.elements()
        ],
        "g2": [emit_scalar(F, v) for v in pair.g2],
    }


def emit_instance(
    context: AlgebraContext,
    algebra: TFAlgebra | None = None,
    pair: KappaPair | None = None,
    omega: Cochain | None = None,
) -> dict:
    out = emit_context(context)
    if algebra is not None:
        out["algebra"] = emit_algebra(algebra)
    if pair is not None:
        out["pair"] = emit_pair(context, pair)
    if omega is not None:
        out["omega"] = emit_cochain_table(omega)
    return out


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise SchemaError(f"cannot read {path}: {err}", key="<file>")
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path} is not valid JSON: {err}", key="<file>")
    return parse_instance(obj)


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
