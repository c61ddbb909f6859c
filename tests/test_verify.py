"""The axiom verifier on known-good and known-bad algebras."""

import pytest

from tfalgebra.algebra import mu, z_rescale
from tfalgebra.errors import NotHomogeneous, ShapeMismatch, ZeroScale
from tfalgebra.fields import PrimeField, RationalField
from tfalgebra.groups import cyclic_group, symmetric_group, trivial_group
from tfalgebra.gmodule import trivial_module
from tfalgebra.algebra import trivial_context
from tfalgebra.linalg import Matrix
from tfalgebra.pairs import trivial_pair
from tfalgebra.constructions import build_simple
from tfalgebra.samples import (
    dual_number_group_ring,
    graded_truncated_polynomial_algebra,
    product_field_swap_algebra,
    scalar_field_algebra,
    truncated_polynomial_algebra,
)
from tfalgebra.verify import ALL_TAGS, LEMMA_TAGS, PRIMARY_TAGS, verify

F5 = PrimeField(5)
F3 = PrimeField(3)


def all_sample_algebras():
    return [
        scalar_field_algebra(F5),
        scalar_field_algebra(RationalField()),
        truncated_polynomial_algebra(F5, 1),
        truncated_polynomial_algebra(F5, 3),
        truncated_polynomial_algebra(RationalField(), 2),
        dual_number_group_ring(F5),
        product_field_swap_algebra(F5),
        graded_truncated_polynomial_algebra(F3, cyclic_group(2), 3),
        graded_truncated_polynomial_algebra(F3, cyclic_group(3), 3),
    ]


def test_report_covers_every_tag_once():
    report = verify(scalar_field_algebra(F5))
    tags = [c.tag for c in report.checks]
    assert tags == list(ALL_TAGS)
    assert len(PRIMARY_TAGS) == 14 and len(LEMMA_TAGS) == 4


def test_samples_all_pass():
    for V in all_sample_algebras():
        report = verify(V)
        assert report.passed, (V, report.failing_tags())
        assert not report.internal_inconsistency()


def test_regular_simple_algebras_pass():
    # the group-ring pattern over several groups, including a nonabelian one
    for G in (trivial_group(), cyclic_group(2), cyclic_group(4), symmetric_group(3)):
        ctx = trivial_context(G, trivial_module(G), F5)
        V = build_simple(ctx, trivial_pair(ctx))
        report = verify(V)
        assert report.passed, (G.order, report.failing_tags())


def test_zeroed_eta_entry_fails_nondegeneracy():
    ctx = trivial_context(cyclic_group(2), trivial_module(cyclic_group(2)), F5)
    V = build_simple(ctx, trivial_pair(ctx))
    W = V.replace(eta=Matrix(F5, [[0]]))
    report = verify(W)
    assert not report.passed
    assert "eta-nondegenerate" in report.failing_tags()


def test_rescale_preserves_verdict():
    V = product_field_swap_algebra(F5)
    for z in (1, 2, 3, 4):
        assert verify(z_rescale(V, z)).passed
    with pytest.raises(ZeroScale):
        z_rescale(V, 0)
    # rescale by 2 then 3 recovers the original over F5
    assert z_rescale(z_rescale(V, 2), 3).eta == V.eta


def test_rescale_by_unreduced_zero_raises():
    # 5 and -5 are zero in F5, as 0 is
    V = product_field_swap_algebra(F5)
    for z in (5, -5, 10):
        with pytest.raises(ZeroScale):
            z_rescale(V, z)


def test_rescale_of_broken_algebra_stays_broken():
    ctx = trivial_context(cyclic_group(2), trivial_module(cyclic_group(2)), F5)
    V = build_simple(ctx, trivial_pair(ctx))
    W = V.replace(eta=Matrix(F5, [[0]]))
    assert verify(z_rescale(W, 3)).failing_tags() == verify(W).failing_tags()


def test_mu_blocks():
    ctx = trivial_context(cyclic_group(2), trivial_module(cyclic_group(2)), F5)
    V = build_simple(ctx, trivial_pair(ctx))
    blocks = mu(V, 0, V.unit)
    assert all(blocks[a] == Matrix.identity(F5, 1) for a in (0, 1))
    zero = mu(V, 1, [0])
    assert all(all(x == 0 for row in zero[a].rows for x in row) for a in (0, 1))
    with pytest.raises(NotHomogeneous):
        mu(V, 1, [1, 2])


def test_mu_in_simple_algebra_matches_structure_scalar():
    # left multiplication by the component basis vector multiplies by 1/g1
    from tfalgebra.pairs import KappaPair

    G = cyclic_group(2)
    ctx = trivial_context(G, trivial_module(G), F5)
    g1 = {(a, b): 1 for a in G.elements() for b in G.elements()}
    g1[(1, 1)] = 2
    V = build_simple(ctx, KappaPair(g1, ()))
    blocks = mu(V, 1, [1])
    assert blocks[1].rows == [[F5.inv(2)]]
    assert blocks[0].rows == [[1]]


def test_shape_mismatch_raises():
    ctx = trivial_context(cyclic_group(2), trivial_module(cyclic_group(2)), F5)
    V = build_simple(ctx, trivial_pair(ctx))
    with pytest.raises(ShapeMismatch):
        V.replace(unit=[1, 0])
    with pytest.raises(ShapeMismatch):
        V.replace(dims={0: 1, 1: 2})


def test_unreduced_zero_entries_do_not_raise():
    # a given 5 is zero in F_5: the constructor stores it as 0, and the
    # verifier's rank must not take it for a pivot
    V = truncated_polynomial_algebra(F5, 3)
    eta = [list(r) for r in V.eta.rows]
    eta[0][0] = 5
    report = verify(V.replace(eta=Matrix(F5, eta)))
    assert report.result("eta-nondegenerate").passed


def test_unreduced_entries_compare_as_their_residues():
    # 6 is 1 in F_5: storing it unreduced must not change any verdict,
    # whether the check compares vectors or whole blocks
    V = truncated_polynomial_algebra(F5, 3)
    assert V.eta.rows[0][2] == 1
    eta = [list(r) for r in V.eta.rows]
    eta[0][2] = 6
    report = verify(V.replace(eta=Matrix(F5, eta)))
    assert report.result("eta-symmetric").passed
    assert report.result("phi-isometry").passed
    assert report.passed

    key = (V.context.identity, ())  # the identity of A acting on V_e
    act = dict(V.a_action)
    rows = [list(r) for r in act[key].rows]
    assert rows[0][0] == 1
    rows[0][0] = 6
    act[key] = Matrix(F5, rows)
    report = verify(V.replace(a_action=act))
    assert report.result("bimodule").passed
    assert report.passed


def test_verifier_scales_to_s3():
    ctx = trivial_context(symmetric_group(3), trivial_module(symmetric_group(3)), F3)
    V = build_simple(ctx, trivial_pair(ctx))
    report = verify(V)
    assert report.passed


def test_zero_algebra_passes_vacuously():
    from tfalgebra.algebra import TFAlgebra

    G = cyclic_group(2)
    ctx = trivial_context(G, trivial_module(G), F5)
    empty = Matrix(F5, [], ncols=0)
    V = TFAlgebra(
        ctx,
        {0: 0, 1: 0},
        {(a, b): [] for a in range(2) for b in range(2)},
        {(a, ()): empty for a in range(2)},
        [],
        empty,
        {(b, a): empty for b in range(2) for a in range(2)},
    )
    assert verify(V).passed


def test_report_lines_and_summary_shape():
    V = product_field_swap_algebra(F5)
    report = verify(V)
    lines = report.to_lines()
    assert lines[-1] == "overall: PASS"
    assert len(lines) == len(ALL_TAGS) + 1
    summary = report.to_summary()
    assert summary["status"] == "pass"
    assert [c["tag"] for c in summary["checks"]] == list(ALL_TAGS)
