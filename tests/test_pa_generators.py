"""Generators alpha/beta/gamma, embeddings, partial traces, nested caps."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import uqsl2
from uqsl2.cyclo_field import QFactProduct, make_field
from uqsl2.pa_generators import (
    embed,
    make_generators,
    nested_cap,
    nested_cap_closed,
    nested_cup,
    partial_trace_comparison,
    partial_trace_left,
    partial_trace_right,
)
from uqsl2.tensor_space import (
    LinOp,
    TensorVector,
    all_indices,
    apply_e,
    apply_f,
    from_word,
    op_E,
    op_F,
    op_K,
    x_top,
)
from uqsl2._elim import rank_of_vectors


@pytest.fixture(params=[2, 3], ids=lambda p: f"p{p}")
def gens(request):
    return make_generators(make_field(request.param))


def test_alpha_frozen_p2():
    ctx = make_field(2)
    g = make_generators(ctx)
    col = g.alpha.column(from_word("000"))
    want = TensorVector(
        ctx,
        3,
        {
            from_word("011"): ctx.q_power(-2),
            from_word("101"): ctx.q_power(-1),
            from_word("110"): ctx.one,
        },
    )
    assert col == want


def test_beta_frozen_p2():
    ctx = make_field(2)
    g = make_generators(ctx)
    col = g.beta.column(from_word("111"))
    want = TensorVector(
        ctx,
        3,
        {
            from_word("100"): ctx.one,
            from_word("010"): ctx.q_power(-1),
            from_word("001"): ctx.q_power(-2),
        },
    )
    assert col == want


def test_gamma_values():
    assert make_generators(2).gamma == -make_field(2).one
    assert make_generators(3).gamma == make_field(3).one


def test_weight_shift_and_vanishing(gens):
    p, z = gens.p, 2 * gens.p - 1
    for b in all_indices(z):
        k = b.weight
        ca, cb = gens.alpha.column(b), gens.beta.column(b)
        if k < p:
            assert not cb
            assert ca and ca.homogeneous_weight() == k + p
        else:
            assert not ca
            assert cb and cb.homogeneous_weight() == k - p


def test_generators_square_to_zero(gens):
    assert not (gens.alpha * gens.alpha)
    assert not (gens.beta * gens.beta)


def test_generators_are_module_endomorphisms(gens):
    ctx, z = gens.ctx, 2 * gens.p - 1
    for M in (op_E(ctx, z), op_F(ctx, z), op_K(ctx, z)):
        assert M * gens.alpha == gens.alpha * M
        assert M * gens.beta == gens.beta * M


def test_image_is_minus_signed_simple(gens):
    # rank p with K-eigenvalues -q^(p-1), -q^(p-3), ..., -q^(1-p)
    ctx, p, z = gens.ctx, gens.p, 2 * gens.p - 1
    want = {-ctx.q_power(p - 1 - 2 * j) for j in range(p)}
    for op in (gens.alpha, gens.beta):
        cols = [dict(op.column(b).terms) for b in all_indices(z) if op.column(b)]
        assert rank_of_vectors(ctx, cols) == p
        eigs = {
            ctx.q_power(z - 2 * op.column(b).homogeneous_weight())
            for b in all_indices(z)
            if op.column(b)
        }
        assert eigs == want


def test_gamma_composition_identities(gens):
    a, b, gamma = gens.alpha, gens.beta, gens.gamma
    assert a * b * a == a.scale(gamma)
    assert b * a * b == b.scale(gamma)


def test_lowering_iterates_of_alpha(gens):
    # F^j alpha(x) = e_x ([k+j]! [2p-k-1]!)/([k]! [2p-k-j-1]!) E^(p-k-j-1) x_top
    ctx, p, z = gens.ctx, gens.p, 2 * gens.p - 1
    for b in all_indices(z):
        k = b.weight
        if k >= p:
            continue
        e_x = gens.e_scalars[b]
        for j in range(p - k):
            lhs = gens.alpha.column(b)
            for _ in range(j):
                lhs = apply_f(ctx, lhs)
            ratio = ctx.eval_ratio(
                QFactProduct.from_factorials(
                    num=(k + j, 2 * p - k - 1), den=(k, 2 * p - k - j - 1)
                )
            )
            rhs = TensorVector.unit(ctx, x_top(z))
            for _ in range(p - k - j - 1):
                rhs = apply_e(ctx, rhs)
            assert lhs == rhs * (e_x * ratio), (gens.p, b, j)


def test_embed_basic(gens):
    ctx, z = gens.ctx, 2 * gens.p - 1
    assert embed(gens.alpha, 1, z) == gens.alpha
    assert embed(LinOp.identity(ctx, 2), 2, 4) == LinOp.identity(ctx, 4)


def test_embed_second_slot_acts_under_vacancy(gens):
    ctx, z = gens.ctx, 2 * gens.p - 1
    wide = embed(gens.alpha, 2, z + 1)
    vac = TensorVector.unit(ctx, from_word("0"))
    for b in all_indices(z):
        col = gens.alpha.column(b)
        want = vac.tensor(col) if col else TensorVector(ctx, z + 1)
        assert wide.column(from_word("0" + b.word())) == want


def test_embed_rejects_out_of_range(gens):
    z = 2 * gens.p - 1
    with pytest.raises(ValueError):
        embed(gens.alpha, 0, z)
    with pytest.raises(ValueError):
        embed(gens.alpha, 3, z + 1)


def test_partial_trace_of_identity_is_delta(gens):
    ctx = gens.ctx
    for n in (2, 3):
        assert partial_trace_right(LinOp.identity(ctx, n)) == LinOp.identity(
            ctx, n - 1
        ) * ctx.loop_value


def test_full_trace_is_delta_power(gens):
    ctx = gens.ctx
    t = LinOp.identity(ctx, 3)
    for _ in range(3):
        t = partial_trace_right(t)
    assert t == LinOp.identity(ctx, 0) * ctx.loop_value**3


def test_partial_traces_of_generators_vanish(gens):
    for op in (gens.alpha, gens.beta):
        assert not partial_trace_right(op)
        assert not partial_trace_left(op)


def test_partial_trace_of_compositions(gens):
    # both orders close to the same weight-(p-1) map, on either side
    N = partial_trace_comparison(gens.ctx)
    ba = gens.beta * gens.alpha
    ab = gens.alpha * gens.beta
    assert partial_trace_right(ba) == N
    assert partial_trace_right(ab) == N
    assert partial_trace_left(ba) == N
    assert partial_trace_left(ab) == N


def test_nested_cap_matches_closed_form(gens):
    ctx = gens.ctx
    for z in (1, 2, 3):
        assert nested_cap(ctx, z) == nested_cap_closed(ctx, z)


def test_nested_cap_small_values(gens):
    ctx = gens.ctx
    v = nested_cap(ctx, 1)
    assert v == TensorVector(
        ctx, 2, {from_word("10"): ctx.q_power(-1), from_word("01"): -ctx.one}
    )
    assert len(nested_cap(ctx, 2).terms) == 4


def test_nested_pairing_closes_loops(gens):
    ctx = gens.ctx
    unit = TensorVector.unit(ctx, from_word(""))
    for z in (1, 2, 3):
        paired = nested_cup(ctx, z).apply(nested_cap(ctx, z))
        assert paired == unit * ctx.loop_value**z


_DOUBLED_E = """
import sys
import uqsl2.pa_generators as g
if not sys.flags.optimize:
    sys.exit(4)
apply_e = g.apply_e
g.apply_e = lambda ctx, vec: apply_e(ctx, vec) * 2
try:
    g.make_generators(2)
except ArithmeticError:
    sys.exit(0)
sys.exit(3)
"""


def test_generator_cross_check_survives_optimize():
    # under python -O a faulted E must still be caught by the
    # explicit-vs-iterated comparison in make_generators
    env = dict(os.environ)
    src = str(Path(uqsl2.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _DOUBLED_E], env=env, timeout=120)
    assert proc.returncode == 0
