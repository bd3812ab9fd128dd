"""Occupancy basis, lifted operators, closed-form powers, peel-off identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl2.cyclo_field import FieldCtx
from uqsl2.tensor_space import (
    BasisIndex,
    LinOp,
    TensorVector,
    all_indices,
    basis_index,
    e_power,
    f_power,
    from_word,
    op_E,
    op_F,
    op_K,
    op_K_power,
    widen,
    x_bottom,
    x_top,
)

from helpers import homogeneous_weight

CTX = {p: FieldCtx(p) for p in (2, 3, 4)}


def unit(ctx, word):
    return TensorVector.unit(ctx, from_word(word))


# --- basis indexing -------------------------------------------------------

def test_basis_index_roundtrip():
    b = basis_index(5, (1, 3, 4))
    assert b.word() == "10110"
    assert b.occupancy == (1, 3, 4)
    assert b.weight == 3
    assert from_word("10110") == b
    assert str(b) == "v10110"


@given(st.integers(1, 10), st.data())
def test_basis_index_word_inverse(z, data):
    mask = data.draw(st.integers(0, (1 << z) - 1))
    b = BasisIndex(z, mask)
    assert from_word(b.word()) == b
    assert basis_index(z, b.occupancy) == b


def test_x_top_bottom():
    assert x_bottom(3).word() == "000"
    assert x_top(3).word() == "111"


# --- vectors ----------------------------------------------------------------

def test_vector_algebra():
    ctx = CTX[3]
    v = unit(ctx, "01") * ctx.q + unit(ctx, "10")
    w = unit(ctx, "01") * ctx.q
    assert (v - w) == unit(ctx, "10")
    assert not (v - v)
    assert (v * 0) == TensorVector(ctx, 2)
    assert homogeneous_weight(v) == 1
    mixed = unit(ctx, "00") + unit(ctx, "11")
    assert homogeneous_weight(mixed) is None


def test_vector_tensor_order():
    ctx = CTX[3]
    left = unit(ctx, "10")
    right = unit(ctx, "011")
    assert left.tensor(right) == unit(ctx, "10011")


def test_vector_render():
    ctx2, ctx3 = CTX[2], CTX[3]
    v2 = unit(ctx2, "01") * ctx2.q_power(-1) + unit(ctx2, "10")
    assert str(v2) == "-q*v01 + v10"
    v3 = unit(ctx3, "01") * ctx3.q_power(-1) + unit(ctx3, "10")
    assert str(v3) == "(-q + 1)*v01 + v10"
    assert str(TensorVector(ctx2, 2)) == "0"


def test_two_fields_are_refused():
    # a p = 2 id read in the p = 3 table names some other value
    k2, k3 = op_K(CTX[2], 2), op_K(CTX[3], 2)
    v2, v3 = unit(CTX[2], "01"), unit(CTX[3], "01")
    calls = [lambda: k3 * k2, lambda: k2 * k3, lambda: k3 + k2, lambda: k3.apply(v2),
             lambda: k3.tensor(k2), lambda: v3 + v2, lambda: v3 - v2, lambda: v3.tensor(v2)]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert LinOp.identity(CTX[2], 2) != LinOp.identity(CTX[3], 2)
    assert TensorVector(CTX[2], 2) != TensorVector(CTX[3], 2)
    assert LinOp.identity(CTX[3], 2) == LinOp.identity(FieldCtx(3), 2)


# --- single operators --------------------------------------------------------

def test_op_k_example():
    # K on the occupancy {1,3} state of three strands: weight 2, q^(3-4)
    ctx = CTX[3]
    v = unit(ctx, "101")
    assert op_K(ctx, 3).apply(v) == v * ctx.q_power(-1)


def test_op_e_example():
    for p in (2, 3):
        ctx = CTX[p]
        got = op_E(ctx, 2).apply(unit(ctx, "11"))
        expect = unit(ctx, "01") * ctx.q_power(-1) + unit(ctx, "10")
        assert got == expect


def test_op_f_small():
    # F on a single strand fills it with coefficient 1
    ctx = CTX[2]
    assert op_F(ctx, 1).apply(unit(ctx, "0")) == unit(ctx, "1")
    assert not op_F(ctx, 1).apply(unit(ctx, "1"))


@pytest.mark.parametrize("p", [2, 3])
def test_lifted_nilpotency(p):
    ctx = CTX[p]
    for z in range(1, 2 * p + 1):
        assert not op_E(ctx, z) ** p
        assert not op_F(ctx, z) ** p


@pytest.mark.parametrize("p", [2, 3])
def test_weight_grading(p):
    ctx = CTX[p]
    for z in (2, 3):
        E, F, K = op_E(ctx, z), op_F(ctx, z), op_K(ctx, z)
        for b in all_indices(z):
            col = E.column(b)
            if col:
                assert homogeneous_weight(col) == b.weight - 1
            col = F.column(b)
            if col:
                assert homogeneous_weight(col) == b.weight + 1
            assert K.column(b) == TensorVector.unit(ctx, b) * ctx.q_power(
                z - 2 * b.weight
            )


# --- closed-form powers -------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_powers_match_iterated(p):
    ctx = CTX[p]
    for z in range(1, 2 * p + 1):
        E, F = op_E(ctx, z), op_F(ctx, z)
        Ek = LinOp.identity(ctx, z)
        Fk = LinOp.identity(ctx, z)
        for k in range(0, z + 1):
            assert e_power(ctx, k, z) == Ek
            assert f_power(ctx, k, z) == Fk
            Ek, Fk = E * Ek, F * Fk


def test_e_squared_fully_lowers():
    ctx = CTX[3]
    got = e_power(ctx, 2, 2).apply(unit(ctx, "11"))
    assert got == unit(ctx, "00") * ctx.qfact(2)


# --- operator plumbing ---------------------------------------------------------

def test_linop_identity_neutral():
    ctx = CTX[2]
    E = op_E(ctx, 3)
    I = LinOp.identity(ctx, 3)
    assert I * E == E
    assert E * I == E


@pytest.mark.parametrize("p", [2, 3, 4])
def test_widen_matches_identity_kronecker(p):
    # reference: I^left x op x I^right as Kronecker products with identities
    ctx = CTX[p]
    rect = LinOp(ctx, 2, 1, {from_word("01"): unit(ctx, "1") * ctx.q,
                             from_word("10"): unit(ctx, "0") - unit(ctx, "1")})
    for op in (op_E(ctx, 2), op_F(ctx, 3) * op_K_power(ctx, 3, -1), e_power(ctx, 2, 3), rect):
        for left in range(4):
            for right in range(4 - left):
                ref = LinOp.identity(ctx, left).tensor(op).tensor(LinOp.identity(ctx, right))
                assert widen(op, left, right) == ref, (p, op, left, right)


def test_linop_apply_matches_columns():
    ctx = CTX[3]
    F = op_F(ctx, 3)
    v = unit(ctx, "010") * ctx.q + unit(ctx, "001") * 2
    direct = F.column(from_word("010")) * ctx.q + F.column(from_word("001")) * 2
    assert F.apply(v) == direct


@given(st.integers(0, 63))
@settings(max_examples=20)
def test_kpow_diagonal(mask):
    ctx = CTX[3]
    b = BasisIndex(6, mask)
    v = TensorVector.unit(ctx, b)
    got = op_K_power(ctx, 6, -2).column(b)
    assert got == v * ctx.q_power(-2 * (6 - 2 * b.weight))


# --- interned scalar ids ---------------------------------------------------------
# Entries are ids of the field's intern table; the references below compute
# every entry with CycloNum arithmetic and read the id results through coeff.

def _cyclo(ctx, data):
    nums = data.draw(st.lists(st.integers(-3, 3), min_size=ctx.degree, max_size=ctx.degree))
    den = data.draw(st.integers(1, 4))
    return sum((ctx.q_power(j) * Fraction(n, den) for j, n in enumerate(nums)), ctx.zero)


def _ref_vec(ctx, data, z):
    masks = data.draw(st.sets(st.integers(0, (1 << z) - 1), max_size=4))
    return {m: _cyclo(ctx, data) for m in sorted(masks)}


def _vector(ctx, z, ref):
    return TensorVector(ctx, z, {BasisIndex(z, m): c for m, c in ref.items()})


def _entries(v):
    return {m: v.coeff(BasisIndex(v.z, m)) for m in v.terms}


def _nonzero(ref):
    return {m: c for m, c in ref.items() if c}


def _ref_apply(ctx, cols, vec):
    out = {}
    for b, c in vec.items():
        for t, x in cols.get(b, {}).items():
            out[t] = out.get(t, ctx.zero) + c * x
    return _nonzero(out)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_vector_ids_match_cyclonum(p, data):
    ctx = FieldCtx(p)
    z1, z2 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a, b, w = _ref_vec(ctx, data, z1), _ref_vec(ctx, data, z1), _ref_vec(ctx, data, z2)
    c = _cyclo(ctx, data)
    va, vb, vw = _vector(ctx, z1, a), _vector(ctx, z1, b), _vector(ctx, z2, w)
    assert _entries(va) == _nonzero(a)
    summed = {m: a.get(m, ctx.zero) + b.get(m, ctx.zero) for m in a.keys() | b.keys()}
    assert _entries(va + vb) == _nonzero(summed)
    assert _entries(-va) == _nonzero({m: -x for m, x in a.items()})
    assert _entries(va.scale(c)) == _nonzero({m: x * c for m, x in a.items()})
    assert _entries(va.tensor(vw)) == _nonzero(
        {m1 | m2 << z1: x * y for m1, x in a.items() for m2, y in w.items()})
    assert (va == vb) == (_nonzero(a) == _nonzero(b))
    assert va - va == TensorVector(ctx, z1)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_linop_ids_match_cyclonum(p, data):
    ctx = FieldCtx(p)
    z0, z1, z2 = (data.draw(st.integers(1, 3)) for _ in range(3))
    shapes = {"A": (z1, z2), "B": (z0, z1), "C": (z0, z1)}
    refs = {n: {m: _ref_vec(ctx, data, zo) for m in range(1 << zi)}
            for n, (zi, zo) in shapes.items()}
    A, B, C = (LinOp(ctx, zi, zo, {BasisIndex(zi, m): _vector(ctx, zo, col)
                                   for m, col in refs[n].items()})
               for n, (zi, zo) in shapes.items())
    v = _ref_vec(ctx, data, z1)
    assert _entries(A.apply(_vector(ctx, z1, v))) == _ref_apply(ctx, refs["A"], v)
    AB = A * B
    for m, col in refs["B"].items():
        assert _entries(AB.column(BasisIndex(z0, m))) == _ref_apply(ctx, refs["A"], col)
    same = all(_nonzero(refs["B"][m]) == _nonzero(refs["C"][m]) for m in range(1 << z0))
    assert (B == C) == same
    assert B + C == C + B
    assert not (B - B)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_field_contexts_share_ids(p):
    # FieldCtx(p) is one context with one intern table, so operators compare
    one, two = FieldCtx(p), FieldCtx(p)
    assert one is two
    for z in (2, 3):
        assert op_E(one, z) * op_F(one, z) == op_E(two, z) * op_F(two, z)
        assert e_power(one, 2, z) == e_power(two, 2, z)
        assert op_K_power(one, z, -1).scale(one.qint(3)) == op_K_power(two, z, -1).scale(two.qint(3))


def test_ids_survive_field_switch():
    # after p = 3 work the ids the p = 2 operator holds still stand for the
    # same values
    ctx2 = FieldCtx(2)
    built = (op_F(ctx2, 3) * op_E(ctx2, 3)).scale(ctx2.q_power(-1)) + op_K(ctx2, 3)
    text = str(built.column(from_word("110")))
    ctx3 = FieldCtx(3)
    assert (op_F(ctx3, 3) * op_E(ctx3, 3)).scale(ctx3.qint(2)) != op_K(ctx3, 3)
    # a new value interned first, so a table rebuilt on the switch would
    # give the same values other ids
    assert LinOp.identity(ctx2, 1).scale(Fraction(5, 7)) != LinOp.identity(ctx2, 1)
    fresh = (op_F(ctx2, 3) * op_E(ctx2, 3)).scale(ctx2.q_power(-1)) + op_K(ctx2, 3)
    assert built == fresh
    assert str(fresh.column(from_word("110"))) == text
