"""The benchmark's report checks accept a correct report and reject a
corrupted one.  The reports are built here from the known answers, so
these tests run without the program."""

import pytest

from workloads import (
    FUSION_DIMS,
    PROP5_P2,
    RELATION_IDS,
    STRANDS,
    catalan,
    check_dims,
    check_hom,
    check_verify,
    hom_map_keys,
)

HOM_PS = (2, 3)


def verify_report(p, ids):
    rows = []
    for rid in ids:
        row = {"relation_id": rid, "p": p, "strands": STRANDS[rid](p), "holds": True,
               "elapsed_ms": 0}
        if rid == "prop5" and p == 2:
            row["holds"] = False
            row["witness"] = {**PROP5_P2, "expected": 32, "identity": "basis"}
        rows.append(row)
    return {"command": "verify", "sections": [{"section": "verify", "rows": rows, "skipped": []}]}


def dims_report(ps, max_n):
    rows = [{"p": p, "n": n, "catalan": catalan(n), "fusion": FUSION_DIMS[p][n],
             "solver": FUSION_DIMS[p][n], "solver_match": True}
            for p in ps for n in range(max_n + 1)]
    return {"command": "dims", "sections": [{"section": "dims", "rows": rows, "skipped": []}]}


def hom_report(ps):
    rows = [{"p": p, "map": name, "source": src, "target": tgt,
             "intertwiner": True, "in_span": True}
            for p, name, src, tgt in hom_map_keys(ps)]
    return {"command": "hom", "sections": [{"section": "hom", "rows": rows, "failures": []}]}


def rejected(tally):
    return tally.failed > 0 or bool(tally.errors)


def test_correct_reports_pass():
    t = check_verify(2, RELATION_IDS, 1, verify_report(2, RELATION_IDS))
    assert (t.attempted, t.failed, t.errors) == (31, 0, [])
    t = check_verify(3, ("eq1", "eq4", "prop2"), 0, verify_report(3, ("eq1", "eq4", "prop2")))
    assert (t.attempted, t.failed, t.errors) == (3, 0, [])
    t = check_dims((2, 3), 5, 0, dims_report((2, 3), 5))
    assert (t.attempted, t.failed, t.errors) == (12, 0, [])
    t = check_hom(HOM_PS, 0, hom_report(HOM_PS))
    assert (t.attempted, t.failed, t.errors) == (2 + 30, 0, [])


def test_unknown_fields_are_ignored():
    doc = verify_report(2, RELATION_IDS)
    doc["stats"] = {"rows": 12}
    doc["sections"][0]["extra"] = [1, 2]
    for row in doc["sections"][0]["rows"]:
        row["elapsed_ms"] = 3.5
        row["new_field"] = "x"
    doc["sections"].append({"section": "later", "rows": []})
    t = check_verify(2, RELATION_IDS, 1, doc)
    assert (t.failed, t.errors) == (0, [])


@pytest.mark.parametrize("rid", ["eq7", "prop5", "rot_rank"])
def test_flipped_verdict_is_rejected(rid):
    doc = verify_report(2, RELATION_IDS)
    row = next(r for r in doc["sections"][0]["rows"] if r["relation_id"] == rid)
    row["holds"] = not row["holds"]
    assert rejected(check_verify(2, RELATION_IDS, 1, doc))


@pytest.mark.parametrize("field", ["rank", "commutant", "completed_rank"])
def test_wrong_prop5_witness_is_rejected(field):
    doc = verify_report(2, RELATION_IDS)
    row = next(r for r in doc["sections"][0]["rows"] if r["relation_id"] == "prop5")
    row["witness"][field] += 1
    assert rejected(check_verify(2, RELATION_IDS, 1, doc))


def test_wrong_strand_count_is_rejected():
    doc = verify_report(3, ("eq4",))
    doc["sections"][0]["rows"][0]["strands"] = 6
    assert rejected(check_verify(3, ("eq4",), 0, doc))


def test_missing_or_extra_verify_row_is_rejected():
    doc = verify_report(2, RELATION_IDS)
    del doc["sections"][0]["rows"][3]
    t = check_verify(2, RELATION_IDS, 1, doc)
    assert t.failed == 1 and t.attempted == 31
    doc = verify_report(2, ("eq1",))
    doc["sections"][0]["rows"].append(dict(doc["sections"][0]["rows"][0], relation_id="eq2"))
    assert rejected(check_verify(2, ("eq1",), 0, doc))


def test_wrong_exit_code_is_rejected():
    assert rejected(check_verify(2, RELATION_IDS, 0, verify_report(2, RELATION_IDS)))
    assert rejected(check_dims((2,), 3, 1, dims_report((2,), 3)))
    assert rejected(check_hom(HOM_PS, 1, hom_report(HOM_PS)))


def test_skipped_check_is_rejected():
    doc = verify_report(3, ("eq1",))
    doc["sections"][0]["skipped"] = [{"relation_id": "eq2", "p": 3}]
    assert rejected(check_verify(3, ("eq1",), 0, doc))


@pytest.mark.parametrize("field", ["solver", "fusion"])
def test_wrong_dimension_is_rejected(field):
    doc = dims_report((2, 3), 5)
    doc["sections"][0]["rows"][-1][field] += 1
    assert rejected(check_dims((2, 3), 5, 0, doc))


def test_missing_dims_row_is_rejected():
    doc = dims_report((2, 3), 5)
    doc["sections"][0]["rows"].pop(4)
    t = check_dims((2, 3), 5, 0, doc)
    assert t.failed == 1


def test_fusion_table_is_catalan_below_critical_size():
    for p, dims in FUSION_DIMS.items():
        for n, d in enumerate(dims):
            if n <= 2 * p - 2:
                assert d == catalan(n)


@pytest.mark.parametrize("field", ["intertwiner", "in_span"])
def test_bad_hom_map_is_rejected(field):
    doc = hom_report(HOM_PS)
    doc["sections"][0]["rows"][5][field] = False
    assert rejected(check_hom(HOM_PS, 0, doc))


def test_hom_table_failure_and_missing_map_are_rejected():
    doc = hom_report(HOM_PS)
    doc["sections"][0]["failures"] = [{"p": 3, "failure": {"source": "X+_1"}}]
    assert rejected(check_hom(HOM_PS, 0, doc))
    doc = hom_report(HOM_PS)
    doc["sections"][0]["rows"].pop()
    t = check_hom(HOM_PS, 0, doc)
    assert t.failed == 1
    assert len(hom_map_keys((6,))) == 10 * 5


def test_unparsable_report_is_rejected():
    for check in (lambda d: check_verify(2, ("eq1",), 0, d),
                  lambda d: check_dims((2,), 2, 0, d),
                  lambda d: check_hom((2,), 0, d)):
        assert rejected(check(None))
        assert rejected(check({"sections": [{"section": "other", "rows": []}]}))

