"""Diagram algebra: abstract composition, matrix realization, JW, rotation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl2.cyclo_field import SingularRatio, make_field
from uqsl2.diagram_algebra import (
    JWUndefined,
    TLDiagram,
    TLElement,
    all_diagrams,
    cap,
    cap_inputs,
    cap_outputs,
    cup,
    cup_inputs,
    cup_outputs,
    diagram_to_matrix,
    e_diagram,
    e_left,
    e_op,
    e_right,
    identity_diagram,
    jw_closed,
    jw_recursive,
    rotation,
    tl_compose,
    tl_to_matrix,
)
from uqsl2._elim import rank_of_vectors
from uqsl2.relation_engine import _gens, _rotation_orbit
from uqsl2.tensor_space import (
    BasisIndex,
    LinOp,
    TensorVector,
    all_indices,
    from_word,
    op_E,
    op_K,
)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# --- diagrams ----------------------------------------------------------------

def test_diagram_counts():
    for n in range(7):
        assert len(all_diagrams(n, n)) == catalan(n)
    assert len(all_diagrams(3, 1)) == catalan(2)
    assert len(all_diagrams(0, 4)) == catalan(2)


def test_diagram_validation():
    # crossing pairing
    with pytest.raises(ValueError):
        TLDiagram(2, 2, [(("t", 1), ("b", 2)), (("t", 2), ("b", 1))])
    # incomplete cover
    with pytest.raises(ValueError):
        TLDiagram(2, 2, [(("t", 1), ("t", 2))])
    # one point in two pairs, though the points together cover the boundary
    with pytest.raises(ValueError):
        TLDiagram(2, 0, [(("t", 1), ("t", 2)), (("t", 2), ("t", 1))])
    with pytest.raises(ValueError):
        e_diagram(3, 3)


def test_diagram_rendering():
    assert identity_diagram(3).to_parens() == "((()))"
    assert e_diagram(1, 3).to_parens() == "()()()"
    j = e_diagram(1, 3).to_json()
    assert j == {
        "top": 3,
        "bottom": 3,
        "pairs": [["t1", "t2"], ["t3", "b3"], ["b2", "b1"]],
    }


def test_diagram_identity_tracking():
    d1 = e_diagram(1, 2)
    d2 = TLDiagram(2, 2, d1.pairs, loops_removed=1)
    assert d1 != d2
    assert hash(d1) != hash(d2)
    assert d1 == TLDiagram(2, 2, [(("b", 2), ("b", 1)), (("t", 2), ("t", 1))])


# --- abstract composition ----------------------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_abstract_tl_relations(p):
    ctx = make_field(p)
    delta = ctx.loop_value
    for n in range(2, 6):
        for i in range(1, n):
            ei = TLElement.e(ctx, i, n)
            assert tl_compose(ei, ei) == ei * delta
            if i + 1 < n:
                ej = TLElement.e(ctx, i + 1, n)
                assert tl_compose(ei, tl_compose(ej, ei)) == ei
                assert tl_compose(ej, tl_compose(ei, ej)) == ej
            for j in range(i + 2, n):
                ej = TLElement.e(ctx, j, n)
                assert tl_compose(ei, ej) == tl_compose(ej, ei)


def test_compose_boundary_mismatch():
    ctx = make_field(3)
    with pytest.raises(ValueError):
        tl_compose(TLElement.identity(ctx, 2), TLElement.identity(ctx, 3))


def test_loop_absorption():
    ctx = make_field(3)
    d = TLDiagram(2, 2, e_diagram(1, 2).pairs, loops_removed=2)
    el = TLElement(ctx, 2, 2, {d: ctx.one})
    (key, coeff), = el.terms.items()
    assert key.loops_removed == 0
    assert coeff == ctx.loop_value ** 2


def test_loop_vanishes_at_p2():
    # delta = 0 at p = 2, so a closed loop kills the whole term
    ctx = make_field(2)
    e1 = TLElement.e(ctx, 1, 2)
    assert not tl_compose(e1, e1)


def test_element_algebra():
    ctx = make_field(3)
    a = TLElement.identity(ctx, 2)
    b = TLElement.e(ctx, 1, 2)
    s = a + b
    assert s - a == b
    assert (a * 2).terms[identity_diagram(2)] == ctx.scalar(2)
    assert not (b - b)
    with pytest.raises(TypeError):
        a * b


# --- matrix realization ------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_cup_cap_frozen_values(p):
    ctx = make_field(p)
    u = cup(ctx, 1, 2)
    empty = from_word("")
    assert u.column(from_word("01")) == TensorVector(ctx, 0, {empty: -ctx.q})
    assert u.column(from_word("10")) == TensorVector.unit(ctx, empty)
    assert not u.column(from_word("00"))
    assert not u.column(from_word("11"))
    n = cap(ctx, 1, 2)
    col = n.column(empty)
    assert col.coeff(from_word("10")) == ctx.q_power(-1)
    assert col.coeff(from_word("01")) == -ctx.one
    assert len(col.terms) == 2


# Reference cup and cap matrices built entry by entry from the module's
# formulas, independently of the index maps behind cup, cap and rotation.

def cup_matrix(ctx, i, n):
    cols = {}
    for b in all_indices(n):
        lo, hi = b.mask >> (i - 1) & 1, b.mask >> i & 1
        if lo != hi:
            keep_low = (1 << (i - 1)) - 1
            rest = BasisIndex(n - 2, (b.mask & keep_low) | (b.mask >> 2) & ~keep_low)
            cols[b] = TensorVector(ctx, n - 2, {rest: -ctx.q if hi else ctx.one})
    return LinOp(ctx, n, n - 2, cols)


def cap_matrix(ctx, i, n):
    cols = {}
    for b in all_indices(n - 2):
        keep_low = (1 << (i - 1)) - 1
        base = (b.mask & keep_low) | (b.mask & ~keep_low) << 2
        cols[b] = TensorVector(ctx, n, {BasisIndex(n, base | 1 << (i - 1)): ctx.q_power(-1),
                                        BasisIndex(n, base | 1 << i): -ctx.one})
    return LinOp(ctx, n - 2, n, cols)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_cup_cap_match_reference_matrices(p):
    ctx = make_field(p)
    for n in range(2, 7):
        for i in range(1, n):
            assert cup(ctx, i, n) == cup_matrix(ctx, i, n), (n, i)
            assert cap(ctx, i, n) == cap_matrix(ctx, i, n), (n, i)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_contraction_maps_match_composition(p):
    # cup_outputs(X, i) = cup_i . X, cap_inputs(X, i) = X . cap_i,
    # cap_outputs(X, i) = cap_i . X and cup_inputs(X, i) = X . cup_i at every
    # position, and e_i . X, X . e_i through them, on the rotation orbits
    # and on alpha, beta, alpha.beta
    g = _gens(p)
    ctx = g.ctx
    ops = [g.alpha, g.beta, g.alpha * g.beta]
    ops += _rotation_orbit(p, "alpha") + _rotation_orbit(p, "beta")
    for x in ops:
        n = x.z_in
        for i in range(1, n):
            assert cup_outputs(x, i) == cup_matrix(ctx, i, n) * x, (n, i)
            assert cap_inputs(x, i) == x * cap_matrix(ctx, i, n), (n, i)
            e = e_op(ctx, i, n)
            assert e_left(x, i) == e * x, (n, i)
            assert e_right(x, i) == x * e, (n, i)
        for i in range(1, n + 2):
            assert cap_outputs(x, i) == cap_matrix(ctx, i, n + 2) * x, (n, i)
            assert cup_inputs(x, i) == x * cup_matrix(ctx, i, n + 2), (n, i)


def test_cup_cap_range_errors():
    ctx = make_field(2)
    with pytest.raises(ValueError):
        cup(ctx, 0, 2)
    with pytest.raises(ValueError):
        cup(ctx, 2, 2)
    with pytest.raises(ValueError):
        cap(ctx, 3, 3)
    one = LinOp.identity(ctx, 1)
    for bad in (0, 3):
        with pytest.raises(ValueError):
            cap_outputs(one, bad)
        with pytest.raises(ValueError):
            cup_inputs(one, bad)


@pytest.mark.parametrize("p", [2, 3])
def test_loop_closure_is_delta(p):
    ctx = make_field(p)
    lc = cup(ctx, 1, 2) * cap(ctx, 1, 2)
    v = TensorVector.unit(ctx, from_word(""))
    assert lc.apply(v) == v * ctx.loop_value


@pytest.mark.parametrize("p", [2, 3])
def test_both_zigzags_are_minus_identity(p):
    # with the plain cup/cap intertwiners the snake composites each
    # contribute a sign; freezing -id here is deliberate
    ctx = make_field(p)
    minus_id = -LinOp.identity(ctx, 1)
    assert cup(ctx, 1, 3) * cap(ctx, 2, 3) == minus_id
    assert cup(ctx, 2, 3) * cap(ctx, 1, 3) == minus_id


@pytest.mark.parametrize("p", [2, 3])
def test_e_matrix_action(p):
    ctx = make_field(p)
    e1 = e_op(ctx, 1, 2)
    v01, v10 = from_word("01"), from_word("10")
    col = e1.column(v01)
    assert col.coeff(v01) == ctx.q and col.coeff(v10) == -ctx.one
    col = e1.column(v10)
    assert col.coeff(v10) == ctx.q_power(-1) and col.coeff(v01) == -ctx.one
    assert not e1.column(from_word("00"))
    assert not e1.column(from_word("11"))


@pytest.mark.parametrize("p", [2, 3])
def test_matrix_tl_relations(p):
    ctx = make_field(p)
    delta = ctx.loop_value
    for n in range(2, 2 * p + 1):
        es = {i: e_op(ctx, i, n) for i in range(1, n)}
        for i, ei in es.items():
            assert ei * ei == ei * delta
            if i + 1 in es:
                assert ei * es[i + 1] * ei == ei
                assert es[i + 1] * ei * es[i + 1] == es[i + 1]
            for j in range(i + 2, n):
                assert ei * es[j] == es[j] * ei


@pytest.mark.parametrize("p", [2, 3])
def test_e1_e2_do_not_commute(p):
    ctx = make_field(p)
    w = TensorVector.unit(ctx, from_word("011"))
    lhs = (e_op(ctx, 1, 3) * e_op(ctx, 2, 3)).apply(w)
    rhs = (e_op(ctx, 2, 3) * e_op(ctx, 1, 3)).apply(w)
    assert lhs != rhs


@pytest.mark.parametrize("p", [2, 3])
def test_e_diagram_matches_e_op(p):
    ctx = make_field(p)
    for n in range(2, 5):
        for i in range(1, n):
            assert diagram_to_matrix(ctx, e_diagram(i, n)) == e_op(ctx, i, n)
            assert diagram_to_matrix(ctx, identity_diagram(n)) == LinOp.identity(
                ctx, n
            )


@given(
    shape=st.sampled_from([(2, 2, 2), (3, 3, 3), (2, 4, 2), (4, 2, 4), (3, 1, 3)]),
    ia=st.integers(min_value=0, max_value=10 ** 6),
    ib=st.integers(min_value=0, max_value=10 ** 6),
    p=st.sampled_from([2, 3]),
)
@settings(max_examples=40, deadline=None)
def test_realization_is_homomorphism(shape, ia, ib, p):
    ctx = make_field(p)
    n1, n2, n3 = shape
    das = all_diagrams(n1, n2)
    dbs = all_diagrams(n2, n3)
    a = TLElement.from_diagram(ctx, das[ia % len(das)])
    b = TLElement.from_diagram(ctx, dbs[ib % len(dbs)])
    lhs = tl_to_matrix(ctx, tl_compose(a, b))
    assert lhs == tl_to_matrix(ctx, a) * tl_to_matrix(ctx, b)


def test_realization_on_combinations():
    ctx = make_field(3)
    a = TLElement.identity(ctx, 3) * ctx.q + TLElement.e(ctx, 2, 3) * 2
    b = TLElement.e(ctx, 1, 3) - TLElement.e(ctx, 2, 3)
    lhs = tl_to_matrix(ctx, tl_compose(a, b))
    assert lhs == tl_to_matrix(ctx, a) * tl_to_matrix(ctx, b)


# --- Jones-Wenzl -------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 4, 5])
def test_jw_recursive_properties(p):
    ctx = make_field(p)
    assert jw_recursive(ctx, 1) == TLElement.identity(ctx, 1)
    f2 = jw_recursive(ctx, 2)
    assert f2 == TLElement.identity(ctx, 2) - TLElement.e(ctx, 1, 2) * (
        ctx.qint(2).inv()
    )
    for n in range(1, p):
        M = tl_to_matrix(ctx, jw_recursive(ctx, n))
        assert M * M == M
        for i in range(1, n):
            assert not (M * e_op(ctx, i, n))
            assert not (e_op(ctx, i, n) * M)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_jw_recursion_undefined_from_p(p):
    ctx = make_field(p)
    for n in (p, p + 1):
        with pytest.raises(JWUndefined):
            jw_recursive(ctx, n)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_jw_closed_matches_recursive(p):
    ctx = make_field(p)
    for n in range(1, p):
        assert jw_closed(ctx, n) == tl_to_matrix(ctx, jw_recursive(ctx, n))


@pytest.mark.parametrize("p", [2, 3, 4])
def test_jw_closed_singular_window(p):
    ctx = make_field(p)
    for n in range(p, 2 * p - 1):
        with pytest.raises(SingularRatio):
            jw_closed(ctx, n)


@pytest.mark.parametrize("p", [2, 3])
def test_jw_top_projection(p):
    ctx = make_field(p)
    n = 2 * p - 1
    F = jw_closed(ctx, n)
    assert F * F == F
    for i in range(1, n):
        assert not (F * e_op(ctx, i, n))
        assert not (e_op(ctx, i, n) * F)
        assert not (cup(ctx, i, n) * F)
        assert not (F * cap(ctx, i, n))


@pytest.mark.parametrize("p", [2, 3])
def test_jw_image_is_top_simple(p):
    # image has dimension n+1 with K-eigenvalues q^n, q^(n-2), ..., q^-n,
    # one per weight, and E annihilates the weight-0 image vector
    ctx = make_field(p)
    for n, proj in [(2 * p - 1, jw_closed(ctx, 2 * p - 1))] + (
        [(2, tl_to_matrix(ctx, jw_recursive(ctx, 2)))] if p > 2 else []
    ):
        cols = [proj.column(b).terms for b in all_indices(n)]
        cols = [c for c in cols if c]
        assert rank_of_vectors(ctx, cols) == n + 1
        weights = {proj.column(b).homogeneous_weight() for b in all_indices(n) if proj.column(b)}
        assert weights == set(range(n + 1))
        top = proj.column(from_word("0" * n))
        assert top
        assert not op_E(ctx, n).apply(top)


# --- rotation ----------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_rotation_click_on_two_strands(p):
    # the composite genuinely rotates: identity and e1 swap places
    ctx = make_field(p)
    id2 = LinOp.identity(ctx, 2)
    e1 = e_op(ctx, 1, 2)
    assert rotation(ctx, id2) == e1
    assert rotation(ctx, e1) == id2


@pytest.mark.parametrize("p", [2, 3])
def test_rotation_full_turn_is_identity(p):
    ctx = make_field(p)
    samples = [
        LinOp.identity(ctx, 2),
        e_op(ctx, 1, 2),
        e_op(ctx, 2, 3),
        op_K(ctx, 3),
    ]
    for f in samples:
        g = f
        for _ in range(2 * f.z_in):
            g = rotation(ctx, g)
        assert g == f


@pytest.mark.parametrize("p", [2, 3, 4])
def test_rotation_matches_composition(p):
    # reference: cup_1 . (1 x f x 1) . cap_{n+1} on n + 2 strands, on every
    # click of the alpha x 1 and beta x 1 orbits (the last one closes the turn)
    g = _gens(p)
    ctx = g.ctx
    one = LinOp.identity(ctx, 1)
    samples = [LinOp.identity(ctx, 2), e_op(ctx, 2, 3), op_K(ctx, 3), g.alpha, g.beta]
    samples += _rotation_orbit(p, "alpha") + _rotation_orbit(p, "beta")
    for f in samples:
        n = f.z_in
        ref = cup_matrix(ctx, 1, n + 2) * one.tensor(f).tensor(one) * cap_matrix(ctx, n + 1, n + 2)
        assert rotation(ctx, f) == ref


def test_rotation_requires_square():
    ctx = make_field(2)
    with pytest.raises(ValueError):
        rotation(ctx, cup(ctx, 1, 2))
