"""The value classes keep the constructors, ``==``, ``hash``, ``repr`` and
read-only attributes they had as dataclasses.
"""

import inspect

import pytest

from tfalgebra.algebra import AlgebraContext, KappaPair, trivial_context
from tfalgebra.cohomology import CohomologyGroup, cohomology_group
from tfalgebra.errors import ShapeMismatch
from tfalgebra.gmodule import cyclic_module
from tfalgebra.groups import cyclic_group
from tfalgebra.isomorphism import GradedIsomorphism
from tfalgebra.pairs import Classification, PairClassGroup
from tfalgebra.serialize import Instance
from tfalgebra.verify import CheckResult, VerificationReport

from test_constructions import F5, context_I1

# class -> its constructor parameters, in order, and the defaults among them
SIGNATURES = {
    AlgebraContext: ("group module kappa field", {}),
    KappaPair: ("g1 g2", {}),
    Instance: ("context algebra pair omega", {"algebra": None, "pair": None, "omega": None}),
    CheckResult: ("tag passed witness detail", {"witness": None, "detail": ""}),
    # the checks default to a fresh list
    VerificationReport: ("checks", {"checks": None}),
    CohomologyGroup: (
        "module degree invariant_factors representatives cocycle_order coboundary_order",
        {"cocycle_order": 0, "coboundary_order": 0},
    ),
    PairClassGroup: ("invariant_factors representatives pair_group_order coboundary_order", {}),
    Classification: ("class_group class_pairs algebras rescaling_count", {}),
    GradedIsomorphism: ("blocks", {}),
}


def _frozen_values():
    """One instance of each read-only class, with hashable contents."""
    ctx = context_I1()
    group = PairClassGroup((2,), (), 8, 4)
    return [
        ctx,
        CheckResult("unit", True),
        cohomology_group(cyclic_module(cyclic_group(2), 2), 2),
        group,
        Classification(group, (), (), 4),
    ]


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda cls: cls.__name__)
def test_constructor_keeps_its_parameters_and_defaults(cls):
    names, defaults = SIGNATURES[cls]
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == names.split()
    assert {p.name: p.default for p in params if p.default is not p.empty} == defaults
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_cohomology_groups_compare_on_module_degree_and_factors_only():
    H = cohomology_group(cyclic_module(cyclic_group(2), 2), 2)
    other = CohomologyGroup(H.module, H.degree, H.invariant_factors, (), 7, 5)
    assert H == other and hash(H) == hash(other)
    assert H.representatives != () and (H.cocycle_order, H.coboundary_order) != (7, 5)
    assert H != CohomologyGroup(H.module, 3, H.invariant_factors, H.representatives)
    assert H != CohomologyGroup(H.module, H.degree, (), H.representatives)


@pytest.mark.parametrize("value", _frozen_values(), ids=lambda v: type(v).__name__)
def test_frozen_classes_hash_and_refuse_assignment(value):
    name = next(iter(vars(value)))
    before = getattr(value, name)
    assert hash(value) == hash(type(value)(*(getattr(value, n) for n in vars(value))))
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is before


def test_algebra_context_still_checks_its_data():
    G = cyclic_group(2)
    ctx = context_I1()
    with pytest.raises(ShapeMismatch, match="different group"):
        AlgebraContext(cyclic_group(3), ctx.module, ctx.kappa, F5)
    assert trivial_context(G, ctx.module, F5) == ctx


def test_defaults_and_mutable_classes():
    ctx = context_I1()
    assert CheckResult("unit", True) == CheckResult("unit", True, None, "")
    inst = Instance(ctx)
    assert (inst.algebra, inst.pair, inst.omega) == (None, None, None)
    inst.pair = KappaPair({}, ())
    assert inst != Instance(ctx)
    first, second = VerificationReport(), VerificationReport()
    first.checks.append(CheckResult("unit", True))
    assert second.checks == [] and first != second
    with pytest.raises(TypeError):
        hash(inst)
    with pytest.raises(TypeError):
        hash(first)
    with pytest.raises(TypeError):
        hash(GradedIsomorphism({}))


def test_kappa_pair_stays_unhashable_and_compares_by_value():
    pair = KappaPair({(0, 0): 1}, (1,))
    assert pair == KappaPair({(0, 0): 1}, (1,)) and pair != KappaPair({(0, 0): 2}, (1,))
    with pytest.raises(TypeError):
        hash(pair)


def test_repr_lists_every_field_and_equality_needs_the_same_class():
    assert repr(CheckResult("unit", False, (0,))) == (
        "CheckResult(tag='unit', passed=False, witness=(0,), detail='')"
    )
    assert repr(VerificationReport()) == "VerificationReport(checks=[])"
    assert repr(PairClassGroup((), (), 1, 1)) == (
        "PairClassGroup(invariant_factors=(), representatives=(), pair_group_order=1, "
        "coboundary_order=1)"
    )
    assert CheckResult("unit", True) != ("unit", True, None, "")
    assert GradedIsomorphism({}) != VerificationReport()
