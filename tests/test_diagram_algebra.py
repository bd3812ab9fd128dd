"""Diagram algebra: diagrams, matrix realization, JW, rotation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl2.cyclo_field import FieldCtx, SingularRatio
from uqsl2.diagram_algebra import (
    JWUndefined,
    TLDiagram,
    all_diagrams,
    cap,
    cap_inputs,
    cap_outputs,
    cup,
    cup_inputs,
    cup_outputs,
    diagram_to_matrix,
    e_left,
    e_op,
    e_right,
    jw_closed,
    jw_recursive,
    noncrossing,
    rotation,
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

from helpers import diagram_dict, homogeneous_weight


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def identity_diagram(n: int) -> TLDiagram:
    return TLDiagram(n, n, [(("t", i), ("b", i)) for i in range(1, n + 1)])


def e_diagram(i: int, n: int) -> TLDiagram:
    pairs = [(("t", i), ("t", i + 1)), (("b", i), ("b", i + 1))]
    pairs += [(("t", j), ("b", j)) for j in range(1, n + 1) if j not in (i, i + 1)]
    return TLDiagram(n, n, pairs)


def stack(a: TLDiagram, b: TLDiagram) -> tuple[TLDiagram, int]:
    """Reference composition of a over b (b acts first): the stacked
    pairing and the number of closed loops it leaves.  a's bottom row and
    b's top row meet as the middle points ("m", k); each strand is walked
    through them, alternating between a's and b's arcs."""
    pa, pb = {}, {}
    for pairs, side, partner in ((a.pairs, "b", pa), (b.pairs, "t", pb)):
        for arc in pairs:
            x, y = (("m", pt[1]) if pt[0] == side else pt for pt in arc)
            partner[x], partner[y] = y, x
    seen, pairs = set(), []
    ends = [(("t", i), (pa, pb)) for i in range(1, a.n_top + 1)]
    ends += [(("b", j), (pb, pa)) for j in range(1, b.n_bottom + 1)]
    for start, arcs in ends:
        if start in seen:
            continue
        pt, k = arcs[0][start], 1
        while pt[0] == "m":
            seen.add(pt)
            pt, k = arcs[k % 2][pt], k + 1
        seen.update((start, pt))
        pairs.append((start, pt))
    loops = 0
    for k in range(1, a.n_bottom + 1):
        pt = ("m", k)
        if pt in seen:
            continue
        loops += 1
        while pt not in seen:
            seen.update((pt, pa[pt]))
            pt = pb[pa[pt]]
    return TLDiagram(a.n_top, b.n_bottom, pairs), loops


# --- diagrams ----------------------------------------------------------------

def test_diagram_counts():
    for n in range(7):
        assert len(all_diagrams(n, n)) == catalan(n)
    assert len(all_diagrams(3, 1)) == catalan(2)
    assert len(all_diagrams(0, 4)) == catalan(2)


@pytest.mark.parametrize("n", range(7))
def test_noncrossing_matchings(n):
    matchings = list(noncrossing(range(2 * n)))
    assert len(set(matchings)) == len(matchings) == catalan(n)
    for m in matchings:
        assert sorted(x for arc in m for x in arc) == list(range(2 * n))
        for a, b in m:
            assert a < b
            assert not any(a < c < b < d or c < a < d < b for c, d in m)
    tops = [tuple((("t", a + 1), ("t", b + 1)) for a, b in m) for m in matchings]
    assert tops == [d.pairs for d in all_diagrams(2 * n, 0)]


def test_noncrossing_order():
    # the first point's partner in increasing order, then inside before outside
    assert list(noncrossing(range(6))) == [
        ((0, 1), (2, 3), (4, 5)), ((0, 1), (2, 5), (3, 4)), ((0, 3), (1, 2), (4, 5)),
        ((0, 5), (1, 2), (3, 4)), ((0, 5), (1, 4), (2, 3))]


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


def test_diagram_rendering():
    assert identity_diagram(3).to_parens() == "((()))"
    assert e_diagram(1, 3).to_parens() == "()()()"
    j = diagram_dict(e_diagram(1, 3))
    assert j == {
        "top": 3,
        "bottom": 3,
        "pairs": [["t1", "t2"], ["t3", "b3"], ["b2", "b1"]],
    }


def test_diagram_identity_tracking():
    d1 = e_diagram(1, 2)
    d2 = TLDiagram(2, 2, [(("b", 2), ("b", 1)), (("t", 2), ("t", 1))])
    assert d1 == d2
    assert hash(d1) == hash(d2)
    assert d1 != identity_diagram(2)


# --- matrix realization ------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_cup_cap_frozen_values(p):
    ctx = FieldCtx(p)
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
    ctx = FieldCtx(p)
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
    ctx = FieldCtx(2)
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
    ctx = FieldCtx(p)
    lc = cup(ctx, 1, 2) * cap(ctx, 1, 2)
    v = TensorVector.unit(ctx, from_word(""))
    assert lc.apply(v) == v * ctx.loop_value


@pytest.mark.parametrize("p", [2, 3])
def test_both_zigzags_are_minus_identity(p):
    # with the plain cup/cap intertwiners the snake composites each
    # contribute a sign; freezing -id here is deliberate
    ctx = FieldCtx(p)
    minus_id = -LinOp.identity(ctx, 1)
    assert cup(ctx, 1, 3) * cap(ctx, 2, 3) == minus_id
    assert cup(ctx, 2, 3) * cap(ctx, 1, 3) == minus_id


@pytest.mark.parametrize("p", [2, 3])
def test_e_matrix_action(p):
    ctx = FieldCtx(p)
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
    ctx = FieldCtx(p)
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
    ctx = FieldCtx(p)
    w = TensorVector.unit(ctx, from_word("011"))
    lhs = (e_op(ctx, 1, 3) * e_op(ctx, 2, 3)).apply(w)
    rhs = (e_op(ctx, 2, 3) * e_op(ctx, 1, 3)).apply(w)
    assert lhs != rhs


@pytest.mark.parametrize("p", [2, 3])
def test_e_diagram_matches_e_op(p):
    ctx = FieldCtx(p)
    for n in range(2, 5):
        for i in range(1, n):
            assert diagram_to_matrix(ctx, e_diagram(i, n)) == e_op(ctx, i, n)
            assert diagram_to_matrix(ctx, identity_diagram(n)) == LinOp.identity(
                ctx, n
            )


def peeled_matrix(ctx, d):
    """Reference realization by peeling: nested cups off the bottom row,
    then nested caps onto the top, each one peeled at an even position
    negated -- the alternating-sign variants under which the factorization
    does not matter."""
    partner = {}
    for a, b in d.pairs:
        partner[a], partner[b] = b, a

    def peel(side, n):
        remaining, hits = list(range(1, n + 1)), []
        while True:
            hit = next((pos for pos in range(len(remaining) - 1)
                        if partner[(side, remaining[pos])] == (side, remaining[pos + 1])), None)
            if hit is None:
                return hits
            hits.append(hit + 1)
            del remaining[hit:hit + 2]

    op = LinOp.identity(ctx, d.n_bottom)
    for i in peel("b", d.n_bottom):
        op = cup_outputs(op, i) if i % 2 else -cup_outputs(op, i)
    for i in reversed(peel("t", d.n_top)):
        op = cap_outputs(op, i) if i % 2 else -cap_outputs(op, i)
    return op


@pytest.mark.parametrize("p", [2, 3, 4])
def test_diagram_entries_match_peeling(p):
    # the one-pass entries with the arc-parity sign equal the peeled
    # factorization, entry for entry, on every diagram with <= 6 points a side
    ctx = FieldCtx(p)
    shapes = 0
    for top in range(7):
        for bottom in range(top % 2, 7, 2):
            for d in all_diagrams(top, bottom):
                assert diagram_to_matrix(ctx, d) == peeled_matrix(ctx, d), d
            shapes += 1
    assert shapes == 25


@given(
    shape=st.sampled_from([(2, 2, 2), (3, 3, 3), (2, 4, 2), (4, 2, 4), (3, 1, 3)]),
    ia=st.integers(min_value=0, max_value=10 ** 6),
    ib=st.integers(min_value=0, max_value=10 ** 6),
    p=st.sampled_from([2, 3]),
)
@settings(max_examples=40, deadline=None)
def test_realization_is_homomorphism(shape, ia, ib, p):
    # the matrix of a stacked pair is the product of their matrices, with
    # each closed loop a factor of delta (0 at p = 2)
    ctx = FieldCtx(p)
    n1, n2, n3 = shape
    das = all_diagrams(n1, n2)
    dbs = all_diagrams(n2, n3)
    a, b = das[ia % len(das)], dbs[ib % len(dbs)]
    d, loops = stack(a, b)
    lhs = diagram_to_matrix(ctx, a) * diagram_to_matrix(ctx, b)
    assert lhs == diagram_to_matrix(ctx, d) * ctx.loop_value ** loops


def test_loop_absorption():
    # each loop that stacking closes is one factor delta of the realization;
    # at p = 4 delta is neither 0 nor a sign, so a miscounted loop shows
    ctx = FieldCtx(4)
    e1 = e_diagram(1, 2)
    assert stack(e1, e1) == (e1, 1)
    assert stack(identity_diagram(3), e_diagram(2, 3)) == (e_diagram(2, 3), 0)
    closed = []
    for u in all_diagrams(0, 4):
        for c in all_diagrams(4, 0):
            loops = stack(u, c)[1]
            closed.append(loops)
            lhs = diagram_to_matrix(ctx, u) * diagram_to_matrix(ctx, c)
            assert lhs == LinOp.identity(ctx, 0) * ctx.loop_value ** loops
    assert closed == [2, 1, 1, 2]


# --- Jones-Wenzl -------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 4, 5])
def test_jw_recursive_properties(p):
    ctx = FieldCtx(p)
    assert jw_recursive(ctx, 1) == LinOp.identity(ctx, 1)
    f2 = jw_recursive(ctx, 2)
    assert f2 == LinOp.identity(ctx, 2) - e_op(ctx, 1, 2) * ctx.qint(2).inv()
    for n in range(1, p):
        M = jw_recursive(ctx, n)
        assert isinstance(M, LinOp)
        assert M * M == M
        for i in range(1, n):
            assert not (M * e_op(ctx, i, n))
            assert not (e_op(ctx, i, n) * M)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_jw_recursion_undefined_from_p(p):
    ctx = FieldCtx(p)
    for n in (p, p + 1):
        with pytest.raises(JWUndefined):
            jw_recursive(ctx, n)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_jw_closed_matches_recursive(p):
    ctx = FieldCtx(p)
    for n in range(1, p):
        assert jw_closed(ctx, n) == jw_recursive(ctx, n)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_jw_closed_singular_window(p):
    ctx = FieldCtx(p)
    for n in range(p, 2 * p - 1):
        with pytest.raises(SingularRatio):
            jw_closed(ctx, n)


@pytest.mark.parametrize("p", [2, 3])
def test_jw_top_projection(p):
    # idempotence and e_i . F = F . e_i = 0 are jw_window's pairs; a cup or
    # a cap on any two adjacent strands kills F as well
    ctx = FieldCtx(p)
    n = 2 * p - 1
    F = jw_closed(ctx, n)
    for i in range(1, n):
        assert not (cup(ctx, i, n) * F)
        assert not (F * cap(ctx, i, n))


@pytest.mark.parametrize("p", [2, 3])
def test_jw_image_is_top_simple(p):
    # image has dimension n+1 with K-eigenvalues q^n, q^(n-2), ..., q^-n,
    # one per weight, and E annihilates the weight-0 image vector
    ctx = FieldCtx(p)
    for n, proj in [(2 * p - 1, jw_closed(ctx, 2 * p - 1))] + (
        [(2, jw_recursive(ctx, 2))] if p > 2 else []
    ):
        cols = [proj.column(b).terms for b in all_indices(n)]
        cols = [c for c in cols if c]
        assert rank_of_vectors(ctx, cols) == n + 1
        weights = {homogeneous_weight(proj.column(b)) for b in all_indices(n) if proj.column(b)}
        assert weights == set(range(n + 1))
        top = proj.column(from_word("0" * n))
        assert top
        assert not op_E(ctx, n).apply(top)


# --- rotation ----------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_rotation_click_on_two_strands(p):
    # the composite genuinely rotates: identity and e1 swap places
    ctx = FieldCtx(p)
    id2 = LinOp.identity(ctx, 2)
    e1 = e_op(ctx, 1, 2)
    assert rotation(ctx, id2) == e1
    assert rotation(ctx, e1) == id2


@pytest.mark.parametrize("p", [2, 3])
def test_rotation_full_turn_is_identity(p):
    ctx = FieldCtx(p)
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
    # reference: cup_1 . (1 x f x 1) . cap_{m+1} for f from m strands to n,
    # on every click of the alpha x 1 and beta x 1 orbits (the last one
    # closes the turn) and on closures of them, which are not square
    g = _gens(p)
    ctx = g.ctx
    one = LinOp.identity(ctx, 1)
    samples = [LinOp.identity(ctx, 2), e_op(ctx, 2, 3), op_K(ctx, 3), g.alpha, g.beta,
               cup(ctx, 1, 3), cap(ctx, 2, 3)]
    orbits = _rotation_orbit(p, "alpha") + _rotation_orbit(p, "beta")
    samples += orbits
    samples += [close(f, c) for f in orbits[::3] for close in (cup_outputs, cap_inputs)
                for c in (1, 2 * p - 1)]
    for f in samples:
        m, n = f.z_in, f.z_out
        ref = cup_matrix(ctx, 1, n + 2) * one.tensor(f).tensor(one) * cap_matrix(ctx, m + 1, m + 2)
        assert rotation(ctx, f) == ref, (m, n)


def test_rotation_requires_square():
    # square or not, a click needs an input and an output strand: the cup
    # on two strands (2 -> 0) and the cap (0 -> 2) have none to move
    ctx = FieldCtx(2)
    with pytest.raises(ValueError):
        rotation(ctx, cup(ctx, 1, 2))
    with pytest.raises(ValueError):
        rotation(ctx, cap(ctx, 1, 2))


def assert_closing_commutes_with_a_click(f):
    """cup_outputs(R f, c) = R(cup_outputs(f, c + 1)) for c <= n - 2 and
    cap_inputs(R f, c) = R(cap_inputs(f, c - 1)) for c >= 2, f from m
    strands to n: the identities capping_pattern derives its pieces by."""
    ctx, m, n = f.ctx, f.z_in, f.z_out
    rf = rotation(ctx, f)
    for c in range(1, n - 1):
        assert cup_outputs(rf, c) == rotation(ctx, cup_outputs(f, c + 1)), ("cup", m, n, c)
    for c in range(2, m):
        assert cap_inputs(rf, c) == rotation(ctx, cap_inputs(f, c - 1)), ("cap", m, n, c)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_closing_commutes_with_a_click_on_orbits(p):
    for name in ("alpha", "beta"):
        for f in _rotation_orbit(p, name):
            assert_closing_commutes_with_a_click(f)


@given(
    p=st.sampled_from([2, 3, 4]),
    m=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_closing_commutes_with_a_click_on_sparse_operators(p, m, n, data):
    ctx = FieldCtx(p)
    entries = data.draw(st.dictionaries(
        st.tuples(st.integers(0, (1 << m) - 1), st.integers(0, (1 << n) - 1)),
        st.integers(min_value=-3, max_value=3).filter(bool), max_size=12))
    cols = {}
    for (s, t), c in entries.items():
        cols.setdefault(s, {})[BasisIndex(n, t)] = ctx.q ** abs(c) * c
    f = LinOp(ctx, m, n, {BasisIndex(m, s): TensorVector(ctx, n, terms)
                          for s, terms in cols.items()})
    assert_closing_commutes_with_a_click(f)
