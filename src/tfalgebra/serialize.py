"""JSON instance files: parsing and emission.

An instance file is a single JSON object with the keys

``field``     {"prime": p} or {"rational": true}
``group``     n x n multiplication table of element indices
``module``    {"factors": [m1, ...], "action": {"<g>": k x k int matrix, ...}}
              (``action`` may be omitted for the trivial action; its keys
              are the element indices "0".."n-1")
``cocycle``   degree-3 table {"i,j,k": exponent vector, ...}; missing keys
              mean the trivial value, and only nontrivial values are
              written; must be a normalized 3-cocycle
``algebra``   optional: {"dims", "mult", "a_action", "unit", "eta", "phi"}
``pair``      optional: {"g1": n x n scalar table, "g2": [scalar, ...]}
``omega``     optional degree-2 table {"i,j": [...], ...}, like ``cocycle``

Dense array layouts for the algebra section (all indexed by group-element
index, coefficient elements in mixed-radix order):

    dims[a]                int
    mult[a][b][i][j][t]    scalar
    a_action[a][x][i][j]   scalar
    unit[i], eta[i][j]     scalar
    phi[b][a][i][j]        scalar

Scalars are plain integers 0..p-1 over a prime field and "num/den" strings
over the rationals (bare integers are accepted on input).

Every nested array is read by one reader, ``_array``, against a shape taken
from data already read (|G|, the module rank, ``dims``), so a malformed one
is refused under the key of its block, ``algebra.mult[a][b]`` say.
``pair.g1`` is an n x n table only.  Every scalar array is written by one
writer, ``_emit``.
"""

from __future__ import annotations

import json
from functools import partial
from operator import mod

from ._record import _Record
from .algebra import AlgebraContext, KappaPair, TFAlgebra
from .cochains import Cochain
from .errors import SchemaError, TFAError, TooLarge
from .fields import Field, PrimeField, RationalField
from .gmodule import GModule
from .groups import FiniteGroup
from .linalg import Matrix


class Instance(_Record):
    def __init__(
        self,
        context: AlgebraContext,
        algebra: TFAlgebra | None = None,
        pair: KappaPair | None = None,
        omega: Cochain | None = None,
    ):
        self._set(context, algebra, pair, omega)


# -- scalars and arrays ---------------------------------------------------------


def _integer(raw, key: str) -> int:
    """``raw`` if it is a JSON integer; ``true``/``false`` are not integers."""
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise SchemaError(f"{key}: expected an integer, got {raw!r}", key=key)
    return raw


def parse_scalar(field: Field, raw, key: str):
    if isinstance(field, PrimeField):
        return _integer(raw, key) % field.p
    from fractions import Fraction

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
    from fractions import Fraction

    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _array(leaf, raw, shape: tuple, key: str) -> list:
    """``raw`` as nested lists of exactly ``shape``, with ``leaf(x, key)`` at the bottom.

    A dimension of ``None`` takes any length.  Anything else raises
    :class:`SchemaError` under ``key``.
    """
    n = shape[0]
    if not isinstance(raw, list) or n is not None and len(raw) != n:
        want = "a list" if n is None else f"a list of length {n}"
        raise SchemaError(f"{key}: expected {want}", key=key)
    if len(shape) == 1:
        return [leaf(x, key) for x in raw]
    return [_array(leaf, x, shape[1:], key) for x in raw]


def _emit(field: Field, value):
    """Lists, tuples and ``Matrix`` rows of any depth, with every scalar emitted."""
    if isinstance(value, Matrix):
        value = value.rows
    if isinstance(value, (list, tuple)):
        return [_emit(field, x) for x in value]
    return emit_scalar(field, value)


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


def parse_cochain_table(module: GModule, obj, degree: int, key: str) -> Cochain:
    if not isinstance(obj, dict):
        raise SchemaError(f"{key}: expected an object of index-tuple keys", key=key)
    table = {}
    for raw_key, raw_val in obj.items():
        idx = _parse_index_key(raw_key, degree, module.group.order, key)
        vec = _array(_integer, raw_val, (module.rank,), f"{key}[{raw_key}]")
        table[idx] = tuple(map(mod, vec, module.moduli))
    return Cochain(module, degree, table)


def emit_cochain_table(c: Cochain) -> dict:
    """The nontrivial values only: a missing key reads as the trivial value."""
    keys = c.module.group.tuples(c.degree)
    return {",".join(map(str, key)): list(v) for key, v in zip(keys, c.entries()) if any(v)}


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

    rows = obj.get("group")
    if not isinstance(rows, list):
        raise SchemaError("missing or malformed 'group'", key="group")
    table = _array(_integer, rows, (len(rows), len(rows)), "group")
    try:
        group = FiniteGroup(table)
    except TFAError as err:
        raise SchemaError(f"group: {err}", key="group")

    mobj = obj.get("module")
    if not isinstance(mobj, dict) or "factors" not in mobj:
        raise SchemaError("missing or malformed 'module'", key="module")
    factors = _array(_integer, mobj["factors"], (None,), "module.factors")
    action = None
    if "action" in mobj:
        if not isinstance(mobj["action"], dict):
            raise SchemaError("module.action must map element index to matrix", key="module.action")
        action = {}
        k = len(factors)
        index = {str(g): g for g in group.elements()}
        for raw_key, mat in mobj["action"].items():
            if raw_key not in index:
                msg = f"module.action key {raw_key!r} is not an element index 0..{group.order - 1}"
                raise SchemaError(msg, key="module.action")
            action[index[raw_key]] = _array(_integer, mat, (k, k), "module.action")
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
    n, e = G.order, G.identity
    for req in ("dims", "mult", "a_action", "unit", "eta", "phi"):
        if req not in obj:
            raise SchemaError(f"algebra.{req} is missing", key=f"algebra.{req}")
    dims = _array(_integer, obj["dims"], (n,), "algebra.dims")
    if any(d < 0 for d in dims):
        raise SchemaError(f"algebra.dims: negative dimension in {dims}", key="algebra.dims")

    scalar = partial(parse_scalar, F)

    def blocks(name: str, inner: int, shape) -> dict:
        """``algebra.<name>``: an n x ``inner`` array whose block (i, j) has ``shape(i, j)``."""
        raw = _array(lambda x, _key: x, obj[name], (n, inner), f"algebra.{name}")
        return {
            (i, j): _array(scalar, raw[i][j], shape(i, j), f"algebra.{name}[{i}][{j}]")
            for i in range(n)
            for j in range(inner)
        }

    # TFAlgebra makes matrices of the a_action, eta and phi blocks
    mult = blocks("mult", n, lambda a, b: (dims[a], dims[b], dims[G.mul(a, b)]))
    try:
        elems = list(A.elements())
    except TooLarge as err:
        raise SchemaError(f"algebra.a_action: {err}", key="algebra.a_action")
    action = blocks("a_action", len(elems), lambda a, _x: (dims[a], dims[a]))
    a_action = {(a, elems[xi]): rows for (a, xi), rows in action.items()}
    unit = _array(scalar, obj["unit"], (dims[e],), "algebra.unit")
    eta = _array(scalar, obj["eta"], (dims[e], dims[e]), "algebra.eta")
    phi = blocks("phi", n, lambda b, a: (dims[a], dims[G.conj(b, a)]))
    try:
        return TFAlgebra(context, dims, mult, a_action, unit, eta, phi)
    except TFAError as err:
        raise SchemaError(f"algebra: {err}", key="algebra")


def parse_pair(context: AlgebraContext, obj) -> KappaPair:
    if not isinstance(obj, dict) or "g1" not in obj or "g2" not in obj:
        raise SchemaError("'pair' needs 'g1' and 'g2'", key="pair")
    G = context.group
    scalar = partial(parse_scalar, context.field)
    table = _array(scalar, obj["g1"], (G.order, G.order), "pair.g1")
    g1 = {(a, b): table[a][b] for a in G.elements() for b in G.elements()}
    g2 = tuple(_array(scalar, obj["g2"], (context.module.rank,), "pair.g2"))
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
    return {
        "dims": list(V.dims),
        "mult": _emit(F, [[V.mult[(a, b)] for b in G.elements()] for a in G.elements()]),
        "a_action": _emit(F, [[V.a_action[(a, x)] for x in A.elements()] for a in G.elements()]),
        "unit": _emit(F, V.unit),
        "eta": _emit(F, V.eta),
        "phi": _emit(F, [[V.phi[(b, a)] for a in G.elements()] for b in G.elements()]),
    }


def emit_pair(context: AlgebraContext, pair: KappaPair) -> dict:
    G, F = context.group, context.field
    return {
        "g1": _emit(F, [[pair.g1[(a, b)] for b in G.elements()] for a in G.elements()]),
        "g2": _emit(F, pair.g2),
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
