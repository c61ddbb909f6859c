"""Exact-arithmetic toolkit for cocycle-twisted group-graded Frobenius algebras.

The library covers:

* exact scalars (prime fields and the rationals) and dense linear algebra;
* finite groups by multiplication table and finite coefficient modules;
* the cochain complex in degrees 0..4 with cohomology in degrees 0..3;
* the twisted-Frobenius axiom verifier with per-axiom reporting;
* constructions: one-dimensional algebras from scalar pairs, pair
  extraction, coboundary transformations, and the two classical
  degenerate families;
* the classification group of scalar pairs and the resulting census of
  simple algebras;
* a JSON instance format and the ``tfa`` command line driver.

``import tfalgebra`` loads no submodule.  A public name, or a submodule
read as an attribute (``tfalgebra.pairs``), imports its home module on
first use (PEP 562), so each ``tfa`` command compiles only what it runs.
``tfalgebra.verify`` is the verifier function in every import order: the
import system binds a loaded submodule to its package attribute, and the
package binds the function of the ``verify`` submodule there instead.
"""

import sys
from importlib import import_module
from types import ModuleType

# home module -> the public names it defines
_HOMES = {
    "algebra": ("AlgebraContext", "KappaPair", "TFAlgebra", "is_kappa_pair", "mu", "z_rescale"),
    "cochains": ("Cochain", "coboundary", "is_cocycle", "is_normalized", "normalize_cocycle"),
    "cohomology": ("CohomologyGroup", "brute_force_cohomology", "cohomology_group"),
    "constructions": (
        "build_simple",
        "coboundary_transform",
        "extract_kappa_pair",
        "from_a_frobenius",
        "from_crossed_frobenius",
    ),
    "fields": ("PrimeField", "RationalField"),
    "gmodule": ("GModule", "cyclic_module", "trivial_module"),
    "groups": (
        "FiniteGroup",
        "cyclic_group",
        "direct_product",
        "group_from_table",
        "symmetric_group",
        "trivial_group",
    ),
    "isomorphism": ("UNDECIDED", "GradedIsomorphism", "is_isomorphic"),
    "linalg": ("Matrix",),
    "pairs": (
        "PairClassGroup",
        "classify_simple",
        "coboundary_pair",
        "enumerate_pairs",
        "pairs_equivalent",
    ),
    "verify": ("VerificationReport", "verify"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the home module of a public name, or a submodule, on first use."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if not name.startswith("_"):
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as err:
            if err.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    """The package module: it keeps the name ``verify`` for the function."""

    def __setattr__(self, name: str, value) -> None:
        # the import system binds each submodule here when it first loads it
        if name == "verify" and isinstance(value, ModuleType):
            value = value.verify
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
