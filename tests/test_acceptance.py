"""End-to-end acceptance gate, one test per numbered criterion.

Every comparison is exact; there are no numeric tolerances anywhere in
this file.  Each test prints a single PASS line on success, so running
``pytest -s tests/test_acceptance.py -v`` reads as a checklist.

Criterion 5 is expected to fail at p=2 and the failure is genuine: the
fixed 12p-6 word list drops to rank 29 out of 32 there.  The check is
kept faithful rather than weakened; the witness carries the explicit
dependency and a completion that restores full rank.
"""

from __future__ import annotations

import contextlib
import io
import json
from itertools import combinations
from time import perf_counter

import pytest

from uqsl2.cli_report import main as cli_main
from uqsl2.cyclo_field import FieldCtx, SingularRatio
from uqsl2.diagram_algebra import e_op, jw_closed, jw_recursive, tl_to_matrix
from uqsl2.fusion_dims import CONVENTIONS, catalan, dimension_formula
from uqsl2.pa_generators import make_generators, partial_trace_right
from uqsl2.relation_engine import (
    commutant_dim,
    gamma_factorial_ratio,
    run_checks,
    verify,
)
from uqsl2.rep_modules import verify_hom_forms
from uqsl2.tensor_space import (
    LinOp,
    TensorVector,
    all_indices,
    basis_index,
    commutation_check,
    coproduct_power_check,
    e_power,
    f_power,
    op_E,
    op_F,
    op_K,
    op_K_power,
    recursion_checks,
    x_bottom,
    x_top,
)

CTX = {2: FieldCtx(2), 3: FieldCtx(3)}
EQ_IDS = tuple(f"eq{i}" for i in range(1, 22))


def _chain(ops):
    acc = ops[0]
    for op in ops[1:]:
        acc = acc.tensor(op)
    return acc


def _invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def test_criterion_01_relation_suite():
    for p, strand_cap, seconds_cap in ((2, 5, 10.0), (3, 8, 180.0)):
        start = perf_counter()
        reports, skipped = run_checks(EQ_IDS, ps=(p,))
        elapsed = perf_counter() - start
        assert skipped == []
        assert len(reports) == 21
        assert all(r.holds for r in reports), [r.relation_id for r in reports if not r.holds]
        assert max(r.strands for r in reports) <= strand_cap
        assert elapsed < seconds_cap
    print("PASS criterion 1: relations 1-21 hold exactly at p=2 and p=3")


def test_criterion_02_idempotent_package():
    expected = {2: -1, 3: 1}
    for p in (2, 3):
        gens = make_generators(p)
        sign = gens.ctx.one if expected[p] == 1 else -gens.ctx.one
        assert gens.gamma == sign
        for k in range(2 * p):
            assert gens.ctx.eval_ratio(gamma_factorial_ratio(p, k)) == gens.gamma
        assert verify("prop4", p).holds
    print(
        "PASS criterion 2: ab+ba = gamma f_(2p-1), aba = gamma a, bab = gamma b;"
        " gamma = -1 at p=2 and +1 at p=3, cross-checked against the ratio identity"
    )


def test_criterion_03_dimension_oracle_agreement():
    for p in (2, 3):
        for n in range(7):
            assert commutant_dim(p, n) == dimension_formula(n, p), (p, n)
    assert commutant_dim(2, 3) == catalan(3) + 3 == 8
    assert commutant_dim(3, 4) == catalan(4) == 14
    assert commutant_dim(2, 4) == catalan(4) + 12 * 2 - 6 == 32
    assert commutant_dim(3, 5) == catalan(5) + 3 == 45
    assert commutant_dim(3, 6) == catalan(6) + 12 * 3 - 6 == 162
    print("PASS criterion 3: solver dimensions equal the fusion counts for p in {2,3}, n <= 6")


def test_criterion_04_rotation_nullspace():
    for p in (2, 3):
        for rid in ("rot_rank", "eq15", "eq16", "kp_periodicity"):
            assert verify(rid, p).holds, (rid, p)
    print(
        "PASS criterion 4: orbit rank is 4p-2, the nullspace equals the seed span,"
        " and the capping recurrence and period hold symbolically"
    )


def test_criterion_05_basis_at_p3():
    report = verify("prop5", 3)
    assert report.holds
    assert commutant_dim(3, 6) == catalan(6) + 30 == 162
    print("PASS criterion 5 (p=3): 162 = C_6 + 30 independent elements, matched against the solver")


def test_criterion_05_basis_at_p2():
    report = verify("prop5", 2)
    if not report.holds:
        wit = report.witness
        print(
            "FAIL criterion 5 (p=2): the fixed word list spans rank "
            f"{wit['rank']} of the expected {wit['expected']}; "
            f"{wit['word_dependency']}; {wit['completion']} restores rank {wit['completed_rank']}"
        )
    assert report.holds, (
        "the fixed 12p-6 word list is linearly dependent at p=2 (rank 29 of 32);"
        " see the printed witness and README notes"
    )


def test_criterion_06_partial_traces():
    for p in (2, 3):
        for rid in ("pt_alpha", "pt_beta", "pt_alphabeta", "pt_betaalpha"):
            assert verify(rid, p).holds, (rid, p)
        ctx = CTX[p]
        for n in range(1, 5):
            traced = partial_trace_right(LinOp.identity(ctx, n))
            assert traced == LinOp.identity(ctx, n - 1).scale(ctx.loop_value)
    print("PASS criterion 6: pt(a) = pt(b) = 0, pt(ba) matches its closed form, pt(id) = delta id")


def test_criterion_07_hom_spaces():
    for p in (2, 3):
        result = verify_hom_forms(CTX[p])
        assert result["ok"]
        assert result["table_failures"] == []
        assert result["explicit_maps"]
        for entry in result["explicit_maps"]:
            assert entry["intertwiner"] and entry["in_span"], entry
    print("PASS criterion 7: hom-space table and explicit maps reproduced by the intertwiner solver")


def test_criterion_08_action_identity_suite():
    for p in (2, 3):
        ctx = CTX[p]
        top = 2 * p

        # lifted K/E/F equal the coproduct sums of one-strand pieces
        K1, E1, F1 = op_K(ctx, 1), op_E(ctx, 1), op_F(ctx, 1)
        I1, Km1 = LinOp.identity(ctx, 1), op_K_power(ctx, 1, -1)
        for z in range(1, top + 1):
            assert _chain([K1] * z) == op_K(ctx, z)
            e_sum = LinOp.zero(ctx, z, z)
            f_sum = LinOp.zero(ctx, z, z)
            for i in range(z):
                e_sum = e_sum + _chain([I1] * i + [E1] + [K1] * (z - 1 - i))
                f_sum = f_sum + _chain([Km1] * i + [F1] + [I1] * (z - 1 - i))
            assert e_sum == op_E(ctx, z)
            assert f_sum == op_F(ctx, z)

        # straightening identities for k <= 2p on z <= 2p strands
        for z in range(1, top + 1):
            for k in range(1, top + 1):
                assert commutation_check(ctx, k, z) == {"EF^k": True, "FE^k": True}

        # power coproducts on every split of z <= 2p strands
        for z1 in range(1, top):
            for z2 in range(1, top - z1 + 1):
                for k in range(0, top + 1):
                    assert coproduct_power_check(ctx, k, (z1, z2)) == {"E": True, "F": True}

        # full lowering and raising coefficients on every basis state
        for z in range(1, top + 1):
            E, F = op_E(ctx, z), op_F(ctx, z)
            for b in all_indices(z):
                n = b.weight
                down = up = TensorVector.unit(ctx, b)
                for _ in range(n):
                    down = E.apply(down)
                for _ in range(z - n):
                    up = F.apply(up)
                base = ctx.q_power(n * z - (n * n - n) // 2 - sum(b.occupancy))
                assert down == TensorVector.unit(ctx, x_bottom(z)) * (base * ctx.qfact(n))
                assert up == TensorVector.unit(ctx, x_top(z)) * (base * ctx.qfact(z - n))

        # expansions from the extreme states
        for z in range(1, top + 1):
            for k in range(0, z + 1):
                expect_f = TensorVector(ctx, z)
                for tup in combinations(range(1, z + 1), k):
                    c = ctx.qfact(k) * ctx.q_power((k * k + k) // 2 - sum(tup))
                    expect_f = expect_f + TensorVector.unit(ctx, basis_index(z, tup)) * c
                assert f_power(ctx, k, z).column(x_bottom(z)) == expect_f
                expect_e = TensorVector(ctx, z)
                m = z - k
                for tup in combinations(range(1, z + 1), m):
                    c = ctx.qfact(k) * ctx.q_power((m * (m + 1)) // 2 - sum(tup))
                    expect_e = expect_e + TensorVector.unit(ctx, basis_index(z, tup)) * c
                assert e_power(ctx, k, z).column(x_top(z)) == expect_e

        # one-strand peel-offs on z+1 <= 2p strands
        for z in range(1, top):
            assert all(recursion_checks(ctx, z).values())

        # xi: brute-force sum for all 0 <= n <= z <= 2p, plus the recurrence
        for z in range(0, top + 1):
            for n in range(0, z + 1):
                brute = ctx.zero
                for tup in combinations(range(1, z + 1), n):
                    brute = brute + ctx.q_power(-2 * sum(tup))
                assert ctx.xi(n, z) == brute
                if 1 <= n < z:
                    assert ctx.xi(n, z) == ctx.q_power(-2 * z) * ctx.xi(n - 1, z - 1) + ctx.xi(
                        n, z - 1
                    )
    print("PASS criterion 8: the eighteen action identities hold at their stated ranges for p in {2,3}")


def test_criterion_09_jones_wenzl():
    for p in (2, 3):
        ctx = CTX[p]
        for n in range(1, p):
            assert jw_closed(ctx, n) == tl_to_matrix(ctx, jw_recursive(ctx, n))
        for n in range(p, 2 * p - 1):
            with pytest.raises(SingularRatio):
                jw_closed(ctx, n)
        n = 2 * p - 1
        proj = jw_closed(ctx, n)
        zero = LinOp.zero(ctx, n, n)
        assert proj * proj == proj
        assert proj != zero
        for i in range(1, n):
            e = e_op(ctx, i, n)
            assert e * proj == zero
            assert proj * e == zero
    print(
        "PASS criterion 9: recursive and closed projections agree below the window;"
        " f_(2p-1) is a finite idempotent killed by every e_i"
    )


def test_criterion_10_conjecture_report():
    argv = ["conjecture", "--p", "2", "--max-n", "10", "--format", "json"]
    first = _invoke(argv)
    second = _invoke(argv)
    assert first == second, "the report must be byte-identical across reruns"
    code, text = first
    assert code == 0
    section = json.loads(text)["sections"][0]
    rows = section["rows"]
    assert [r["n"] for r in rows] == list(range(11))
    assert [r["fusion"] for r in rows] == [1, 1, 2, 8, 32, 128, 512, 2048, 8192, 32768, 131072]
    for conv in CONVENTIONS:
        assert f"conjecture({conv})" in section["columns"]
    assert [r["conjecture(floor-euclidean)"] for r in rows] == [
        1, 1, 2, 29, 224, 1338, 7062, 34749, 163592, 747422, 3342404,
    ]
    assert any(not r["match(floor-euclidean)"] for r in rows)
    assert any("reported, not failed" in note for note in section.get("notes", []))
    print(
        "PASS criterion 10: conjecture report generated deterministically under all three"
        " conventions; discrepancies documented, not failed"
    )
