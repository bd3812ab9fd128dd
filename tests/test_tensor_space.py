"""Occupancy basis, lifted operators, closed-form powers, peel-off identities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl2.cyclo_field import make_field
from uqsl2.tensor_space import (
    BasisIndex,
    LinOp,
    TensorVector,
    all_indices,
    apply_f,
    apply_k,
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

CTX = {p: make_field(p) for p in (2, 3, 4)}


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
    assert v.homogeneous_weight() == 1
    mixed = unit(ctx, "00") + unit(ctx, "11")
    assert mixed.homogeneous_weight() is None


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


# --- single operators --------------------------------------------------------

def test_op_k_example():
    # K on the occupancy {1,3} state of three strands: weight 2, q^(3-4)
    ctx = CTX[3]
    v = unit(ctx, "101")
    assert apply_k(ctx, v) == v * ctx.q_power(-1)


def test_op_e_example():
    for p in (2, 3):
        ctx = CTX[p]
        got = op_E(ctx, 2).apply(unit(ctx, "11"))
        expect = unit(ctx, "01") * ctx.q_power(-1) + unit(ctx, "10")
        assert got == expect


def test_op_f_small():
    # F on a single strand fills it with coefficient 1
    ctx = CTX[2]
    assert apply_f(ctx, unit(ctx, "0")) == unit(ctx, "1")
    assert not apply_f(ctx, unit(ctx, "1"))


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
                assert col.homogeneous_weight() == b.weight - 1
            col = F.column(b)
            if col:
                assert col.homogeneous_weight() == b.weight + 1
            assert K.column(b) == TensorVector.unit(ctx, b) * ctx.q_power(
                z - 2 * b.weight
            )


@pytest.mark.parametrize("p", [2, 3])
def test_commutator_identity(p):
    # EF - FE = (K - K^-1)/(q - q^-1) on X^(tensor z)
    ctx = CTX[p]
    for z in range(1, 2 * p + 1):
        E, F = op_E(ctx, z), op_F(ctx, z)
        K, Ki = op_K_power(ctx, z, 1), op_K_power(ctx, z, -1)
        rhs = (K - Ki) * (ctx.q - ctx.q_power(-1)).inv()
        assert E * F - F * E == rhs


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


def test_linop_tensor_embedding():
    ctx = CTX[3]
    E1 = op_E(ctx, 1)
    I1 = LinOp.identity(ctx, 1)
    lifted = E1.tensor(op_K_power(ctx, 1, 1)) + I1.tensor(E1)
    assert lifted == op_E(ctx, 2)


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
