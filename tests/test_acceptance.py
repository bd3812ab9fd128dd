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
from time import perf_counter

from uqsl2.cli_report import main as cli_main
from uqsl2.cyclo_field import FieldCtx
from uqsl2.fusion_dims import CONVENTIONS, catalan, dimension_formula
from uqsl2.pa_generators import partial_trace_right
from uqsl2.relation_engine import commutant_dim, run_checks, verify
from uqsl2.rep_modules import verify_hom_forms
from uqsl2.tensor_space import LinOp

CTX = {2: FieldCtx(2), 3: FieldCtx(3)}
EQ_IDS = tuple(f"eq{i}" for i in range(1, 22))


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
    for p in (2, 3):
        for rid in ("eq2", "eq3", "eq7", "prop4"):
            assert verify(rid, p).holds, (rid, p)
    print(
        "PASS criterion 2: ab+ba = gamma f_(2p-1), aba = gamma a, bab = gamma b;"
        " gamma cross-checked against the ratio identity"
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
        assert verify("action", p).holds, p
    print("PASS criterion 8: the action identities hold at their stated ranges for p in {2,3}")


def test_criterion_09_jones_wenzl():
    for p in (2, 3):
        assert verify("jw_window", p).holds, p
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
