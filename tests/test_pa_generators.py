"""Generators alpha/beta/gamma, embeddings, partial traces, nested caps."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import uqsl2
from uqsl2.cyclo_field import FieldCtx, factorials
from uqsl2.diagram_algebra import cap, cup
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
    all_indices,
    from_word,
    op_E,
    op_F,
    op_K,
    unit,
    vector,
    x_bottom,
    x_top,
)
from uqsl2._elim import rank_of_vectors

from helpers import homogeneous_weight


@pytest.fixture(params=[2, 3], ids=lambda p: f"p{p}")
def gens(request):
    return make_generators(request.param)


def test_alpha_frozen_p2():
    ctx = FieldCtx(2)
    g = make_generators(2)
    col = g.alpha.column(from_word("000"))
    want = vector(
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
    ctx = FieldCtx(2)
    g = make_generators(2)
    col = g.beta.column(from_word("111"))
    want = vector(
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
    assert make_generators(2).gamma == -FieldCtx(2).one
    assert make_generators(3).gamma == FieldCtx(3).one


def test_weight_shift_and_vanishing(gens):
    p, z = gens.p, 2 * gens.p - 1
    for b in all_indices(z):
        k = b.weight
        ca, cb = gens.alpha.column(b), gens.beta.column(b)
        if k < p:
            assert not cb
            assert ca and homogeneous_weight(ca) == k + p
        else:
            assert not ca
            assert cb and homogeneous_weight(cb) == k - p


def test_generators_square_to_zero(gens):
    assert not (gens.alpha * gens.alpha)
    assert not (gens.beta * gens.beta)


def test_image_is_minus_signed_simple(gens):
    # rank p with K-eigenvalues -q^(p-1), -q^(p-3), ..., -q^(1-p)
    ctx, p, z = gens.ctx, gens.p, 2 * gens.p - 1
    want = {-ctx.q_power(p - 1 - 2 * j) for j in range(p)}
    for op in (gens.alpha, gens.beta):
        cols = list(op.columns.values())
        assert rank_of_vectors(ctx, cols) == p
        eigs = {
            ctx.q_power(z - 2 * homogeneous_weight(op.column(b)))
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
    E, F = op_E(ctx, z), op_F(ctx, z)
    for b in all_indices(z):
        k = b.weight
        if k >= p:
            continue
        # E^k x lands on the empty vector as e_x x_bottom
        v = unit(ctx, b)
        for _ in range(k):
            v = E * v
        e_x = v.coeff(x_bottom(z))
        for j in range(p - k):
            lhs = gens.alpha.column(b)
            for _ in range(j):
                lhs = F * lhs
            ratio = ctx.eval_ratio(factorials(k + j, 2 * p - k - 1),
                                   factorials(k, 2 * p - k - j - 1))
            rhs = unit(ctx, x_top(z))
            for _ in range(p - k - j - 1):
                rhs = E * rhs
            assert lhs == rhs * (e_x * ratio), (gens.p, b, j)


def test_embed_basic(gens):
    ctx, z = gens.ctx, 2 * gens.p - 1
    assert embed(gens.alpha, 1, z) == gens.alpha
    assert embed(LinOp.identity(ctx, 2), 2, 4) == LinOp.identity(ctx, 4)


def test_embed_second_slot_acts_under_vacancy(gens):
    ctx, z = gens.ctx, 2 * gens.p - 1
    wide = embed(gens.alpha, 2, z + 1)
    vac = unit(ctx, from_word("0"))
    for b in all_indices(z):
        col = gens.alpha.column(b)
        want = vac.tensor(col) if col else LinOp.zero(ctx, 0, z + 1)
        assert wide.column(from_word("0" + b.word())) == want


@pytest.mark.parametrize("p", [2, 3, 4])
def test_embed_matches_identity_kronecker(p):
    # reference: identities tensored on either side, at every placement
    g = make_generators(p)
    ctx, z = g.ctx, 2 * p - 1
    for op in (g.alpha, g.beta):
        for n in (z, z + 1, z + 2):
            for i in range(1, n - z + 2):
                ref = LinOp.identity(ctx, i - 1).tensor(op).tensor(LinOp.identity(ctx, n - z - i + 1))
                assert embed(op, i, n) == ref, (n, i)


def test_embed_rejects_out_of_range(gens):
    z = 2 * gens.p - 1
    with pytest.raises(ValueError):
        embed(gens.alpha, 0, z)
    with pytest.raises(ValueError):
        embed(gens.alpha, 3, z + 1)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_partial_traces_match_composition(p):
    # reference: (id x cup)(op x id)(id x cap) and its mirror on the first strand
    g = make_generators(p)
    ctx = g.ctx
    one = LinOp.identity(ctx, 1)
    for op in (g.alpha, g.beta, g.alpha * g.beta, g.beta * g.alpha, op_K(ctx, 3)):
        n = op.z_in
        right = cup(ctx, n, n + 1) * op.tensor(one) * cap(ctx, n, n + 1)
        left = cup(ctx, 1, n + 1) * one.tensor(op) * cap(ctx, 1, n + 1)
        assert partial_trace_right(op) == right
        assert partial_trace_left(op) == left


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
    assert v == vector(
        ctx, 2, {from_word("10"): ctx.q_power(-1), from_word("01"): -ctx.one}
    )
    assert len(nested_cap(ctx, 2).columns[0]) == 4


def test_nested_pairing_closes_loops(gens):
    ctx = gens.ctx
    empty = unit(ctx, from_word(""))
    for z in (1, 2, 3):
        paired = nested_cup(ctx, z) * nested_cap(ctx, z)
        assert paired == empty * ctx.loop_value**z


# Each guard must raise under python -O, where an assert would vanish:
# case -> (statements that trip it, the exception they must raise).
_GUARDS = {
    # the iterated E doubled: e_x no longer matches the explicit column
    "make_generators": ("pg.op_E = lambda ctx, z, e=pg.op_E: e(ctx, z) * 2; "
                        "pg.make_generators(2)", "ArithmeticError"),
    "diagram_parity": ("da.TLDiagram(1, 2, [])", "ValueError"),
    "diagram_self_pair": ('da.TLDiagram(1, 1, [(("t", 1), ("t", 1))])', "ValueError"),
    "diagram_cover": ('da.TLDiagram(2, 2, [(("t", 1), ("t", 2))])', "ValueError"),
    "diagram_duplicate": ('da.TLDiagram(2, 0, [(("t", 1), ("t", 2)), (("t", 2), ("t", 1))])',
                          "ValueError"),
    "diagram_crossing": ('da.TLDiagram(2, 2, [(("t", 1), ("b", 2)), (("t", 2), ("b", 1))])',
                         "ValueError"),
    "all_diagrams": ("da.all_diagrams(1, 2)", "ValueError"),
    "rotation": ("da.rotation(ctx, da.cup(ctx, 1, 2))", "ValueError"),
    # a cap opened at 2 on 0 + 2 strands, a cup opened at 3 on 0 + 2 strands
    "cap_outputs": ("da.cap_outputs(da.cup(ctx, 1, 2), 2)", "ValueError"),
    "cup_inputs": ("da.cup_inputs(da.cap(ctx, 1, 2), 3)", "ValueError"),
    "embed": ("pg.embed(da.cup(ctx, 1, 2), 1, 3)", "ValueError"),
    "partial_trace_right": ("pg.partial_trace_right(da.cup(ctx, 1, 2))", "ValueError"),
    "partial_trace_left": ("pg.partial_trace_left(da.cup(ctx, 1, 2))", "ValueError"),
    # range shadowed in relation_engine: every e-chain yields one word fewer
    "prop5_words": ("rel.range = lambda a, b: range(a, b - 1); rel.prop5_words(2)",
                    "ArithmeticError"),
    "prop5_count": ("rel.catalan = lambda n: 0; rel._CHECKS['prop5'](2, 2**16)",
                    "ArithmeticError"),
    # the first dependency of the p = 2 words with its own coefficient 2:
    # summed back over the candidates it no longer vanishes
    "span_dependency": ("rel.nullspace = lambda *a, f=rel.nullspace: "
                        "[{**v, max(v): ctx.scalar(2).id} if k == 0 else v "
                        "for k, v in enumerate(f(*a))]; "
                        "rel._CHECKS['prop5'](2, 2**16)", "ArithmeticError"),
    # the first F term of every mask one q power off: sigma E = F sigma fails
    "commutant_sigma": ("rel.f_terms = lambda z, b, f=rel.f_terms: "
                        "[(t, e + (i == 0)) for i, (t, e) in enumerate(f(z, b))]; "
                        "rel._commutant_dim.cache_clear(); rel._commutant_dim(2, 3)",
                        "ArithmeticError"),
    # the first term of the first nested cup one q power off: E v != 0
    "commutant_cups": ("rel._nested_cups = lambda n, f=rel._nested_cups: "
                       "[{b: (c, e + (i == 0)) for i, (b, (c, e)) in enumerate(v.items())} "
                       "if k == 0 else v for k, v in enumerate(f(n))]; "
                       "rel._commutant_dim(3, 3)",
                       "ArithmeticError"),
    "simple_module_sign": ("rm.simple_module(ctx, 0, 1)", "ValueError"),
    "projective_module_sign": ("rm.projective_module(ctx, 2, 1)", "ValueError"),
    "intertwiner_field": ("rm.intertwiner_space(rm.simple_module(ctx, 1, 1), "
                          "rm.simple_module(FieldCtx(3), 1, 1))", "ValueError"),
    # the action of X+_2 with one off-diagonal entry added to K
    "intertwiner_k_diagonal": ("rm.intertwiner_space(rm.ModuleData(ctx, 'X', 1, 2, 2, "
                               "{(0, 0): ctx.q, (0, 1): ctx.one, (1, 1): ctx.q_power(-1)}, "
                               "{(0, 1): ctx.one}, {(1, 0): ctx.one}), "
                               "rm.simple_module(ctx, 1, 2))",
                               "ArithmeticError"),
    "linop_compose": ("ts.LinOp.identity(ctx, 2) * ts.LinOp.identity(ctx, 3)", "ValueError"),
    "linop_add": ("ts.LinOp.identity(ctx, 2) + ts.LinOp.identity(ctx, 3)", "ValueError"),
    "linop_apply": ("ts.LinOp.identity(ctx, 2) * ts.vector(ctx, 3, {})", "ValueError"),
    # operands of two fields: the right one's ids read in the left one's table
    "vector_field_add": ("ts.vector(FieldCtx(3), 2, {}) + ts.vector(ctx, 2, {})",
                         "ValueError"),
    "vector_field_tensor": ("ts.vector(FieldCtx(3), 1, {}).tensor(ts.vector(ctx, 1, {}))",
                            "ValueError"),
    "cyclonum_field": ("FieldCtx(3).q * -ctx.one", "ValueError"),
    "linop_field_compose": ("ts.op_K(FieldCtx(3), 2) * ts.op_K(ctx, 2)", "ValueError"),
    "linop_field_add": ("ts.op_K(FieldCtx(3), 2) + ts.op_K(ctx, 2)", "ValueError"),
    "linop_field_apply": ("ts.op_K(FieldCtx(3), 2) * ts.vector(ctx, 2, {})",
                          "ValueError"),
    "linop_field_tensor": ("ts.op_K(FieldCtx(3), 1).tensor(ts.op_K(ctx, 1))", "ValueError"),
    "jw_recursive": ("da.jw_recursive(ctx, 0)", "ValueError"),
    "jw_closed": ("da.jw_closed(ctx, 0)", "ValueError"),
    # the one Galois conjugate at p = 2 replaced by the identity: the
    # "norm" of q + 2 is (q + 2)^2 = 3 + 4q, which is not rational
    "galois_norm": ("ctx.galois = (1,); (ctx.q + 2).inv()", "ArithmeticError"),
    # every quantum integer one index off: k_1 and k_2 miss their seeds
    "coefficient_seeds": ("ctx.qint = lambda n, f=ctx.qint: f(n + 1); "
                          "rel.CoefficientVector(ctx, 1, 0)", "ArithmeticError"),
}

_UNDER_O = """
import sys
from uqsl2 import diagram_algebra as da, pa_generators as pg, relation_engine as rel
from uqsl2 import rep_modules as rm, tensor_space as ts
from uqsl2.cyclo_field import FieldCtx
if not sys.flags.optimize:
    sys.exit(4)
ctx = FieldCtx(2)
try:
    {call}
except {exc}:
    sys.exit(0)
sys.exit(3)
"""


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_guard_survives_optimize(case):
    env = dict(os.environ)
    src = str(Path(uqsl2.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    call, exc = _GUARDS[case]
    code = _UNDER_O.format(call=call, exc=exc)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_argument_guards_raise():
    """The argument guards that were asserts raise ValueError in any mode."""
    from uqsl2 import cyclo_field as cf, fusion_dims as fd, pa_generators as pg
    from uqsl2 import tensor_space as ts

    ctx = FieldCtx(2)
    one = ts.LinOp.identity(ctx, 1)
    calls = [
        lambda: pg.nested_cap(ctx, 0),
        lambda: pg.nested_cap_closed(ctx, 0),
        lambda: pg.nested_cup(ctx, 0),
        lambda: ts.basis_index(2, [3]),
        lambda: ts.from_word("012"),
        lambda: ts.vector(ctx, 2, {ts.basis_index(3, [1]): ctx.one}),
        lambda: ts.vector(ctx, 2, {}) + ts.vector(ctx, 3, {}),
        lambda: ts.LinOp(ctx, 2, 2, {ts.basis_index(2): one.column(ts.basis_index(1))}),
        lambda: ts.LinOp(ctx, 1, 1, {ts.basis_index(1): one}),
        lambda: one.coeff(ts.basis_index(1)),
        lambda: one ** -1,
        lambda: ts.e_power(ctx, -1, 2),
        lambda: ts.f_power(ctx, -1, 2),
        lambda: fd.catalan(-1),
        lambda: fd.multiplicities(1, 1),
        lambda: cf.cyclotomic_polynomial(0),
        lambda: ctx.eval_ratio((-1,), ()),
        lambda: cf.factorials(-1),
        lambda: ctx.qfact(-1),
        lambda: ctx.lambda_coeff(3, 2),
        lambda: ctx.xi(3, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
