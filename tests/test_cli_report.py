"""In-process exercises of the report command line."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from uqsl2.cli_report import (
    EXIT_ALL_SKIPPED,
    EXIT_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    main,
    parse_config,
    run,
)
from uqsl2.relation_engine import DEFAULT_BUDGET, RELATION_IDS


def invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_parse_defaults():
    config = parse_config(["verify"])
    assert config.command == "verify"
    assert config.ps == (2, 3)
    assert config.relations == RELATION_IDS
    assert config.budget == DEFAULT_BUDGET
    assert config.fmt == "markdown"
    assert config.out is None
    assert config.floor_convention is None


def test_parse_relations_keeps_canonical_order():
    config = parse_config(["verify", "--relations", "eq7,eq1,eq7"])
    assert config.relations == ("eq1", "eq7")


def test_repeated_p_flags_dedupe():
    config = parse_config(["dims", "--p", "3", "--p", "2", "--p", "3"])
    assert config.ps == (3, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--relations", "nonsense"],
        ["verify", "--p", "1"],
        ["verify", "--budget", "0"],
        ["dims", "--max-n", "-1"],
        ["verify", "--format", "yaml"],
        ["frobnicate"],
        [],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as err:
        with contextlib.redirect_stderr(io.StringIO()):
            parse_config(argv)
    assert err.value.code == EXIT_USAGE


def test_single_check_json():
    code, text = invoke(["verify", "--p", "2", "--relations", "eq7", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(text)
    rows = doc["sections"][0]["rows"]
    assert len(rows) == 1
    assert rows[0]["relation_id"] == "eq7"
    assert rows[0]["holds"] is True
    assert rows[0]["elapsed_ms"] == 0


def test_failing_check_exits_1():
    code, text = invoke(["verify", "--p", "2", "--relations", "prop5", "--format", "json"])
    assert code == EXIT_FAILED
    row = json.loads(text)["sections"][0]["rows"][0]
    assert row["holds"] is False
    assert row["witness"]["rank"] == 29

    code, _ = invoke(["basis", "--p", "2"])
    assert code == EXIT_FAILED
    code, _ = invoke(["basis", "--p", "3"])
    assert code == EXIT_OK


def test_budget_skip_exits_3_and_lists_reason():
    code, text = invoke(
        ["verify", "--p", "2", "--relations", "eq4,eq7", "--budget", "4", "--format", "json"]
    )
    assert code == EXIT_ALL_SKIPPED
    section = json.loads(text)["sections"][0]
    assert section["rows"] == []
    assert [e["relation_id"] for e in section["skipped"]] == ["eq4", "eq7"]
    assert all("budget" in e["skipped"] for e in section["skipped"])


def test_reruns_are_byte_identical():
    for fmt in ("json", "markdown", "csv"):
        argv = ["dims", "--p", "2", "--max-n", "3", "--format", fmt]
        assert invoke(argv) == invoke(argv)
    argv = ["verify", "--p", "2", "--relations", "eq13,eq3", "--format", "json"]
    assert invoke(argv) == invoke(argv)


def test_rows_ordered_by_relation_then_p():
    code, text = invoke(
        ["verify", "--p", "2", "--p", "3", "--relations", "eq2,eq1", "--format", "json"]
    )
    assert code == EXIT_OK
    rows = json.loads(text)["sections"][0]["rows"]
    assert [(r["relation_id"], r["p"]) for r in rows] == [
        ("eq1", 2),
        ("eq1", 3),
        ("eq2", 2),
        ("eq2", 3),
    ]


def test_dims_table_matches_solver():
    code, text = invoke(["dims", "--p", "3", "--max-n", "4", "--format", "json"])
    assert code == EXIT_OK
    rows = json.loads(text)["sections"][0]["rows"]
    assert [r["n"] for r in rows] == [0, 1, 2, 3, 4]
    assert [r["fusion"] for r in rows] == [1, 1, 2, 5, 14]
    assert [r["catalan"] for r in rows] == [1, 1, 2, 5, 14]
    assert all(r["solver"] == r["fusion"] for r in rows)
    assert all(r["solver_match"] is True for r in rows)


def test_dims_skips_solver_over_budget():
    code, text = invoke(
        ["dims", "--p", "2", "--max-n", "4", "--budget", "64", "--format", "json"]
    )
    assert code == EXIT_OK
    section = json.loads(text)["sections"][0]
    skipped_n = [e["n"] for e in section["skipped"]]
    assert skipped_n == [3, 4]
    for row in section["rows"]:
        if row["n"] in skipped_n:
            assert row["solver"] is None
            assert row["solver_match"] is None


def test_out_writes_report_file(tmp_path):
    path = tmp_path / "report.json"
    argv = ["conjecture", "--p", "2", "--max-n", "5", "--format", "json"]
    _, streamed = invoke(argv)
    code, text = invoke(argv + ["--out", str(path)])
    assert code == EXIT_OK
    assert text == ""
    assert path.read_text(encoding="utf-8") == streamed


def test_convention_filter_limits_columns():
    code, text = invoke(
        [
            "conjecture",
            "--p",
            "2",
            "--max-n",
            "3",
            "--floor-convention",
            "zero-for-negative-index",
            "--format",
            "json",
        ]
    )
    assert code == EXIT_OK
    section = json.loads(text)["sections"][0]
    conjecture_cols = [c for c in section["columns"] if c.startswith("conjecture")]
    assert conjecture_cols == ["conjecture(zero-for-negative-index)"]
    assert [r["conjecture(zero-for-negative-index)"] for r in section["rows"]] == [1, 1, 2, 5]


def test_conjecture_mismatch_does_not_fail():
    code, text = invoke(["conjecture", "--p", "2", "--max-n", "10", "--format", "json"])
    assert code == EXIT_OK
    rows = json.loads(text)["sections"][0]["rows"]
    floor = [r["conjecture(floor-euclidean)"] for r in rows]
    assert floor == [1, 1, 2, 29, 224, 1338, 7062, 34749, 163592, 747422, 3342404]
    assert not all(r["match(floor-euclidean)"] for r in rows)


def test_hom_section_all_maps_check_out():
    code, text = invoke(["hom", "--format", "json"])
    assert code == EXIT_OK
    section = json.loads(text)["sections"][0]
    assert section["failures"] == []
    assert len(section["rows"]) > 0
    for row in section["rows"]:
        assert row["intertwiner"] is True
        assert row["in_span"] is True


def test_hom_budget_skip_exits_3():
    # (2p)^2 = 64 unknowns at p = 4 exceed a smaller budget and reach an equal one
    for budget, verb in ((1, "exceed"), (64, "reach")):
        code, text = invoke(["hom", "--p", "4", "--budget", str(budget), "--format", "json"])
        assert code == EXIT_ALL_SKIPPED
        section = json.loads(text)["sections"][0]
        assert section["rows"] == []
        assert section["skipped"] == [
            {"p": 4, "skipped": f"64 unknowns in a Hom solve {verb} budget {budget}"}]


def test_lattice_gate_skip_says_reaches_budget():
    # 4^8 equals the default budget: the lattice gate refuses on the line
    code, text = invoke(["verify", "--p", "4", "--relations", "action", "--format", "json"])
    assert code == EXIT_ALL_SKIPPED
    section = json.loads(text)["sections"][0]
    assert section["skipped"] == [{"p": 4, "relation_id": "action", "strands": 8,
                                   "skipped": "65536 states on 8 strands reaches budget 65536"}]


def test_csv_layout():
    _, text = invoke(["verify", "--p", "2", "--relations", "eq7", "--format", "csv"])
    lines = text.splitlines()
    assert lines[0] == "section,verify"
    assert lines[1] == "relation_id,p,strands,holds,witness"
    assert lines[2].startswith("eq7,2,3,true")


def test_all_command_collects_sections():
    code, text = invoke(
        ["all", "--p", "2", "--max-n", "2", "--relations", "eq1", "--format", "json"]
    )
    names = [s["section"] for s in json.loads(text)["sections"]]
    assert names == ["verify", "dims", "conjecture", "hom", "basis"]
    assert code == EXIT_FAILED


def test_run_accepts_config_directly(tmp_path):
    config = RunConfig(command="verify", ps=(3,), relations=("eq1",), fmt="json")
    text, code = run(config)
    assert code == EXIT_OK
    assert json.loads(text)["sections"][0]["rows"][0]["holds"] is True
