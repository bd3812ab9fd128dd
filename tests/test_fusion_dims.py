"""Tests for fusion multiplicities and the dimension counts."""

from __future__ import annotations

import pytest

from uqsl2.fusion_dims import (
    CONVENTIONS,
    catalan,
    conjecture_eval,
    conjecture_g,
    dimension_formula,
    multiplicities,
    tensor_step,
    _bin_diff,
)


def test_catalan():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


@pytest.mark.parametrize("p", [2, 3, 4])
def test_total_dimension_conserved(p):
    # a simple X(+-, s) has dimension s, a projective 2p
    for n in range(11):
        counts = multiplicities(n, p)
        assert sum(m * (s if kind == "X" else 2 * p) for (kind, _, s), m in counts.items()) == 2**n


def test_step_rules_p3():
    assert tensor_step({("X", 1, 1): 1}, 3) == {("X", 1, 2): 1}
    assert tensor_step({("X", 1, 2): 1}, 3) == {("X", 1, 1): 1, ("X", 1, 3): 1}
    assert tensor_step({("X", 1, 3): 1}, 3) == {("P", 1, 2): 1}
    assert tensor_step({("P", 1, 2): 1}, 3) == {("P", 1, 1): 1, ("X", 1, 3): 2}
    assert tensor_step({("P", 1, 1): 1}, 3) == {("P", 1, 2): 1, ("X", -1, 3): 2}


def test_step_rules_p2():
    # the single projective feeds both signs of the big simple
    assert tensor_step({("P", 1, 1): 1}, 2) == {("X", -1, 2): 2, ("X", 1, 2): 2}
    assert tensor_step({("X", 1, 2): 1}, 2) == {("P", 1, 1): 1}


def test_multiplicities_small():
    assert multiplicities(0, 2) == {("X", 1, 1): 1}
    assert multiplicities(1, 2) == {("X", 1, 2): 1}
    assert multiplicities(3, 2) == {("X", -1, 2): 2, ("X", 1, 2): 2}


@pytest.mark.parametrize("p", [2, 3, 4])
def test_first_appearances(p):
    # the least n at which each label occurs in X^n, for n <= 4p
    seen = {}
    counts = {("X", 1, 1): 1}
    for n in range(4 * p + 1):
        for label in counts:
            seen.setdefault(label, n)
        counts = tensor_step(counts, p)
    for s in range(1, p + 1):
        assert seen[("X", 1, s)] == s - 1
    for t in range(1, p):
        assert seen[("P", 1, t)] == 2 * p - t - 1
    assert seen[("X", -1, p)] == 2 * p - 1
    for u in range(1, p):
        assert seen[("P", -1, u)] == 3 * p - u - 1
        assert ("X", -1, u) not in seen


@pytest.mark.parametrize("p", [2, 3, 4])
def test_dimension_matches_catalan_below_top(p):
    for n in range(2 * p - 1):
        assert dimension_formula(n, p) == catalan(n)
    assert dimension_formula(2 * p - 1, p) == catalan(2 * p - 1) + 3


def test_dimension_frozen_values():
    assert dimension_formula(3, 2) == 8
    assert dimension_formula(4, 2) == 32
    assert dimension_formula(4, 3) == 14


def test_top_projective_multiplicity():
    # the leftmost projective appears 2p-2 times in the 2p-fold power
    for p in (2, 3, 4):
        assert multiplicities(2 * p, p).get(("P", 1, 1), 0) == 2 * p - 2


def test_bin_diff():
    assert _bin_diff(5, 0) == 1
    assert _bin_diff(5, -1) == 0
    assert _bin_diff(5, 6) == -1  # C(5,6)=0 minus C(5,5)=1
    assert _bin_diff(4, 2) == 2


def test_conjecture_g_negative_index_conventions():
    assert conjecture_g(3, -1, "floor-euclidean") == 1
    assert conjecture_g(3, -1, "truncate-toward-zero") == 2
    assert conjecture_g(3, -1, "zero-for-negative-index") == 0
    assert conjecture_g(4, -2, "floor-euclidean") == 0
    assert conjecture_g(4, -2, "truncate-toward-zero") == 1
    assert conjecture_g(4, -2, "zero-for-negative-index") == 0
    for conv in CONVENTIONS:
        assert conjecture_g(4, -4, conv) == 0
        assert conjecture_g(4, 0, conv) == 6


def test_conjecture_zero_convention_reduces_to_catalan():
    for p in (2, 3):
        for n in range(2 * p):
            assert conjecture_eval(n, p, "zero-for-negative-index") == catalan(n)


def test_conjecture_rows_frozen_p2():
    rows = {
        "floor-euclidean": [1, 1, 2, 29, 224, 1338, 7062, 34749, 163592, 747422, 3342404],
        "truncate-toward-zero": [1, 1, 17, 53, 259, 1386, 7125, 34829, 163691, 747542, 3342547],
        "zero-for-negative-index": [1, 1, 2, 5, 224, 1290, 7062, 34669, 163592, 747302, 3342404],
    }
    for conv, expected in rows.items():
        assert [conjecture_eval(n, 2, conv) for n in range(11)] == expected


def test_conjecture_rejects_unknown_convention():
    with pytest.raises(ValueError):
        conjecture_eval(3, 2, "round-half-even")


def test_dim_record():
    # the values of one dims row, n = 4 at p = 2, read off the functions
    # the report calls
    assert catalan(4) == 14 and dimension_formula(4, 2) == 32
    assert [conjecture_eval(4, 2, c) for c in CONVENTIONS] == [224, 259, 224]
