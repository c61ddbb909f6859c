"""Per-layer tracing from outside the package.

The tracer wraps the public functions and methods of each layer's modules
and records, per layer, the number of calls and the self time (a call's
duration minus the time spent in nested wrapped calls).  It also keeps a few
size counters taken from arguments and return values at the same
boundaries.

Names are patched where callers look them up: every ``tfalgebra`` module
attribute (and every value of a module-level dict, such as the CLI's command
table) that is the original function is replaced by its wrapper.  The
package attribute ``tfalgebra.verify`` is the function, so the module is
reached through ``sys.modules``.

Per-element helpers are left unwrapped, because a wrapper would cost more
than the call: the scalar operations of ``fields``, ``linalg.apply_map``,
``Cochain.value`` and ``KappaPair.g2_value``/``key``.  Their time lands in
the self time of the wrapped caller.  So does the time of modules outside
every layer (``groups``, ``gmodule``, ``algebra``, ``isomorphism``,
``samples``, ``errors``).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# layer name -> modules whose public callables belong to it
LAYERS = {
    "linalg": ("tfalgebra.fields", "tfalgebra.linalg"),
    "intmat": ("tfalgebra.intmat",),
    "cochains": ("tfalgebra.cochains",),
    "cohomology": ("tfalgebra.cohomology",),
    "pairs": ("tfalgebra.pairs",),
    "constructions": ("tfalgebra.constructions",),
    "verify": ("tfalgebra.verify",),
    "serialize": ("tfalgebra.serialize",),
    "cli": ("tfalgebra.cli",),
}

# per-element helpers: wrapping them would cost more than they do
UNWRAPPED = {
    "tfalgebra.fields": {
        "add", "sub", "mul", "neg", "inv", "div", "is_zero", "from_int",
        "power", "check", "dlog", "unit_exp",
    },
    "tfalgebra.linalg": {"apply_map"},
    "tfalgebra.cochains": {"value"},
    "tfalgebra.pairs": {"g2_value", "key"},
}

# private walks whose sizes are counted; wrapped when the module still has them
COUNTED_PRIVATE = {
    "tfalgebra.cohomology": ("_subgroup_elements",),
}

COUNTERS = (
    "intmat.snf_s",
    "intmat.snf_cells",
    "intmat.hnf_s",
    "intmat.hnf_rows",
    "cohomology.matrix_cells",
    "cohomology.coset_elems",
    "cohomology.timeouts",
    "pairs.pairs_listed",
    "pairs.kappa_checks",
    "verify.reports_failed",
    "serialize.bytes_in",
    "serialize.bytes_out",
    "cli.import_s",
)


def _cells(matrix) -> int:
    return len(matrix) * (len(matrix[0]) if matrix else 0)


_UNFINISHED = object()


def _record_sizes(counters, key: str, args, result, elapsed: float) -> None:
    """Size counters taken at the boundary of a wrapped call.

    ``result`` is ``_UNFINISHED`` when the call was interrupted; the counters
    taken from arguments still count it.
    """
    if result is _UNFINISHED and key not in _FROM_ARGUMENTS:
        return
    if key == "tfalgebra.intmat.smith_normal_form":
        counters["intmat.snf_s"] += elapsed
        counters["intmat.snf_cells"] += _cells(args[0])
    elif key == "tfalgebra.intmat.hermite_basis":
        counters["intmat.hnf_s"] += elapsed
        counters["intmat.hnf_rows"] += len(args[0])
    elif key == "tfalgebra.cohomology.coboundary_matrix":
        counters["cohomology.matrix_cells"] += _cells(result)
    elif key == "tfalgebra.cohomology._subgroup_elements":
        counters["cohomology.coset_elems"] += len(result) if result is not None else 0
    elif key == "tfalgebra.pairs.enumerate_pairs":
        for listed in (result.pairs, result.coboundary_pairs):
            counters["pairs.pairs_listed"] += len(listed) if listed is not None else 0
    elif key == "tfalgebra.pairs.is_kappa_pair":
        counters["pairs.kappa_checks"] += 1
    elif key == "tfalgebra.verify.verify":
        counters["verify.reports_failed"] += 0 if result.passed else 1
    elif key == "tfalgebra.serialize.load_instance":
        try:
            counters["serialize.bytes_in"] += os.path.getsize(args[0])
        except OSError:
            pass
    elif key == "tfalgebra.serialize.dump_json":
        counters["serialize.bytes_out"] += len(result.encode("utf-8"))


class Tracer:
    """Calls and self time per layer, plus the size counters above."""

    def __init__(self):
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counters = {name: 0 for name in COUNTERS}
        self.active = False
        self._stack: list[float] = []  # child time accumulated per open frame
        self._patched: list[tuple[object, str, object]] = []
        self._wrapper_of: dict[int, object] = {}

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer: str, key: str, fn):
        tracer = self
        calls, self_s, counters, stack = self.calls, self.self_s, self.counters, self._stack
        perf = time.perf_counter
        sized = key in _SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            result = _UNFINISHED
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                # also when a budget interrupts the call
                elapsed = perf() - t0
                child = stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                if sized:
                    _record_sizes(counters, key, args, result, elapsed)

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public callables and patch every reference."""
        originals: dict[int, object] = {}
        for layer, modnames in LAYERS.items():
            for modname in modnames:
                module = sys.modules.get(modname)
                if module is None:
                    continue  # never imported, so never called
                skip = UNWRAPPED.get(modname, set())
                for name, obj in list(vars(module).items()):
                    if getattr(obj, "__module__", None) != modname:
                        continue
                    if inspect.isfunction(obj):
                        if name.startswith("_") and name not in COUNTED_PRIVATE.get(modname, ()):
                            continue
                        if name in skip:
                            continue
                        wrapper = self._wrap(layer, f"{modname}.{name}", obj)
                        originals[id(obj)] = wrapper
                    elif inspect.isclass(obj):
                        self._wrap_methods(layer, modname, obj, skip)
        self._wrapper_of = originals
        for modname, module in list(sys.modules.items()):
            if modname == "tfalgebra" or modname.startswith("tfalgebra."):
                self._patch_namespace(module)

    def _wrap_methods(self, layer: str, modname: str, cls, skip) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") or name in skip:
                continue
            key = f"{modname}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self._wrap(layer, key, attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(layer, key, attr)
            else:
                continue
            self._patched.append((cls, name, attr))
            setattr(cls, name, wrapped)

    def _patch_namespace(self, module) -> None:
        for name, obj in list(vars(module).items()):
            if name.startswith("__"):
                continue
            wrapper = self._wrapper_of.get(id(obj))
            if wrapper is not None:
                self._patched.append((module, name, obj))
                setattr(module, name, wrapper)
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    wrapper = self._wrapper_of.get(id(v))
                    if wrapper is not None:
                        self._patched.append((obj, k, v))
                        obj[k] = wrapper

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patched.clear()

    # -- reporting -----------------------------------------------------------

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counters)
        return out


_FROM_ARGUMENTS = {
    "tfalgebra.intmat.smith_normal_form",
    "tfalgebra.intmat.hermite_basis",
    "tfalgebra.serialize.load_instance",
}

_SIZED = {
    "tfalgebra.intmat.smith_normal_form",
    "tfalgebra.intmat.hermite_basis",
    "tfalgebra.cohomology.coboundary_matrix",
    "tfalgebra.cohomology._subgroup_elements",
    "tfalgebra.pairs.enumerate_pairs",
    "tfalgebra.pairs.is_kappa_pair",
    "tfalgebra.verify.verify",
    "tfalgebra.serialize.load_instance",
    "tfalgebra.serialize.dump_json",
}


def wrapper_cost(samples: int = 200_000) -> float:
    """Seconds one traced call adds over a bare call, measured here and now."""
    tracer = Tracer()

    def bare():
        return None

    wrapped = tracer._wrap("linalg", "calibration", bare)
    tracer.active = True
    tracer._stack.append(0.0)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(samples):
            bare()
        t1 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0)
