"""Tests for the exact relation verification engine."""

from __future__ import annotations

import copy
from collections import defaultdict
from math import comb, isqrt

import pytest

from uqsl2 import parse_cyclo, relation_engine
from uqsl2._elim import SparseRref, rank_of_vectors
from uqsl2.cyclo_field import FieldCtx, cyclotomic_polynomial
from uqsl2.diagram_algebra import all_diagrams, diagram_to_matrix, e_op, rotation
from uqsl2.fusion_dims import catalan, dimension_formula
from uqsl2.pa_generators import embed, make_generators
from uqsl2.relation_engine import (
    DEFAULT_BUDGET,
    RELATION_IDS,
    CoefficientVector,
    Identity,
    InfeasibleSize,
    Span,
    capping_pattern,
    coefficient_identity_failures,
    _commutant_dim,
    _cup_bounds,
    _modular_map,
    commutant_dim,
    gamma_factorial_ratio,
    prop5_words,
    run_checks,
    verify,
)
from uqsl2.tensor_space import e_terms, f_terms


def test_report_shape():
    r = verify("eq7", 2)
    assert r.relation_id == "eq7" and r.p == 2 and r.strands == 3
    assert r.holds and r.witness is None
    j = r.as_json()
    assert set(j) == {"relation_id", "p", "strands", "holds", "elapsed_ms"}
    assert j["elapsed_ms"] == 0


def test_unknown_relation_rejected():
    with pytest.raises(ValueError):
        verify("eq99", 2)
    with pytest.raises(ValueError):
        run_checks(["eq7", "bogus"], ps=(2,))


@pytest.mark.parametrize("rid", [r for r in RELATION_IDS if r != "prop5"])
def test_all_checks_hold_p2(rid):
    assert verify(rid, 2).holds


@pytest.mark.parametrize("rid", RELATION_IDS)
def test_all_checks_hold_p3(rid):
    # only the rotation checks record an observation when they hold
    r = verify(rid, 3)
    assert r.holds
    assert (r.witness is None) == (rid not in ("eq13", "eq14"))


def test_rotation_click_sign_recorded():
    # one click negates both generators in this cup/cap convention, at
    # every p; two clicks restore them
    for p in (2, 3):
        for rid in ("eq13", "eq14"):
            r = verify(rid, p)
            assert r.holds and r.witness == {"observed_sign": -1}
        g = make_generators(p)
        assert rotation(g.ctx, rotation(g.ctx, g.alpha)) == g.alpha


def test_listed_words_degenerate_p2():
    r = verify("prop5", 2)
    assert not r.holds
    assert r.witness["rank"] == 29
    assert r.witness["expected"] == 32
    assert r.witness["commutant"] == 32
    assert r.witness["completed_rank"] == 32
    # the check finds the three relations test_word_dependency_explicit_p2
    # verifies by hand, and states the completion by name
    assert r.witness["dependencies"] == [
        [["alpha_1", "-1"], ["alpha_2", "-1"], ["alpha_2.e_1.e_2", "1"], ["e_2.e_1.alpha_2", "1"]],
        [["beta_1", "-1"], ["beta_2", "-1"], ["beta_2.e_1.e_2", "1"], ["e_2.e_1.beta_2", "1"]],
        [["(())(())", "-1"], ["alpha_1.beta_1", "1"], ["alpha_2.beta_2", "-1"],
         ["alpha_2.beta_2.e_1.e_2", "1"], ["e_2.e_1.alpha_2.beta_2", "1"]],
    ]
    assert r.witness["word_dependency"].split("; ")[0] == (
        "-alpha_1 - alpha_2 + alpha_2.e_1.e_2 + e_2.e_1.alpha_2 = 0")
    assert r.witness["completion"] == "adding alpha_1.e_3, beta_1.e_3, alpha_1.beta_1.e_3"


def test_dependency_witness_parses_back(monkeypatch):
    # parse_cyclo is the package's reader of its own renderings: every
    # coefficient of the p = 2 prop5 witness parses back to the exact id
    # the check computed
    computed = []

    def recording(ctx, ops, solve=relation_engine._dependencies):
        computed.extend(null := solve(ctx, ops))
        return null

    monkeypatch.setattr(relation_engine, "_dependencies", recording)
    deps = verify("prop5", 2).witness["dependencies"]
    ctx = FieldCtx(2)
    assert len(deps) == len(computed) == 3
    assert [[parse_cyclo(ctx, c).id for _, c in d] for d in deps] == [
        [c for _, c in sorted(v.items())] for v in computed]


def test_duplicated_word_is_named_twice(monkeypatch):
    # one word of the p = 3 list replaced by a copy of an earlier one: the
    # rank falls one short, and the one dependency names that word twice
    words = prop5_words(3)
    name = words[4][0]
    assert name == "alpha_2.e_1.e_2.e_3"
    faulted = words[:9] + [words[4]] + words[10:]
    prop5 = relation_engine._CHECKS["prop5"]
    monkeypatch.setitem(relation_engine._CHECKS, "prop5", prop5._replace(words=lambda g: faulted))
    r = verify("prop5", 3)
    assert not r.holds
    assert (r.witness["rank"], r.witness["commutant"], r.witness["expected"]) == (161, 162, 162)
    assert r.witness["dependencies"] == [[[name, "-1"], [name, "1"]]]


def test_word_dependency_explicit_p2():
    # the exact degenerations: g_1 + g_2 = g_2 e_1 e_2 + e_2 e_1 g_2 for
    # the weight-shifting families, and the composite family folds into
    # the nested cup/cap diagram
    g = make_generators(2)
    ctx = g.ctx
    n = 4
    e1, e2 = e_op(ctx, 1, n), e_op(ctx, 2, n)
    a1, a2 = embed(g.alpha, 1, n), embed(g.alpha, 2, n)
    b1, b2 = embed(g.beta, 1, n), embed(g.beta, 2, n)
    for g1, g2 in ((a1, a2), (b1, b2)):
        assert g1 + g2 == g2 * e1 * e2 + e2 * e1 * g2
    nested = next(
        diagram_to_matrix(ctx, d)
        for d in all_diagrams(n, n)
        if d.to_parens() == "(())(())"
    )
    g1, g2 = a1 * b1, a2 * b2
    assert nested == g1 - g2 + g2 * e1 * e2 + e2 * e1 * g2


def test_prop5_word_count():
    for p in (2, 3):
        words = prop5_words(p)
        assert len(words) == 12 * p - 6
        assert len({name for name, _ in words}) == len(words)
        assert all(w.z_in == 2 * p == w.z_out for _, w in words)


def test_commutant_dim_frozen():
    assert commutant_dim(2, 3) == 8
    assert commutant_dim(3, 4) == 14
    assert commutant_dim(2, 4) == 32
    assert commutant_dim(2, 2) == 2
    assert commutant_dim(3, 3) == 5
    assert commutant_dim(2, 1) == 1


def test_commutant_cache_ignores_budget():
    commutant_dim(2, 3)
    before = commutant_dim.cache_info()
    assert commutant_dim(2, 3, DEFAULT_BUDGET) == commutant_dim(2, 3, 2**10) == 8
    after = commutant_dim.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)


def test_commutant_matches_fusion_small():
    for p in (2, 3):
        for n in range(1, 5):
            assert commutant_dim(p, n) == dimension_formula(n, p)


def _unsplit_commutant_dim(p, n):
    """Reference solve without sigma: every weight slice w = n (mod p) of
    X^2n eliminated whole, its E and F rows together."""
    ctx = FieldCtx(p)
    qp = [(c.nums, c.den) for c in map(ctx.q_power, range(2 * p))]
    id_of = ctx.table.id_of
    z = 2 * n
    dim = 0
    for w in range(n % p, z + 1, p):
        rows = defaultdict(dict)
        for b in range(1 << z):
            if b.bit_count() == w:
                col = int(f"{b:0{z}b}"[::-1], 2)
                for rule in (e_terms, f_terms):
                    for t, e in rule(z, b):
                        rows[t][col] = qp[e % (2 * p)]
        id_rows = ({c: id_of(*v) for c, v in rows[t].items()} for t in sorted(rows))
        dim += comb(z, w) - rank_of_vectors(ctx, id_rows)
    return dim


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_sigma_split_matches_unsplit_solve(p):
    # n <= 2p - 2 are certified by the two bounds, the rest solved exactly
    for n in range(7):
        assert _commutant_dim(p, n) == _unsplit_commutant_dim(p, n), (p, n)


def test_checks_leave_cached_columns_unchanged():
    # operators share column dicts, and the generators and rotation orbits
    # are cached for the process, so a check that summed into a column in
    # place would change every later check's inputs
    cached = []
    for p in (2, 3):
        g = relation_engine._gens(p)
        cached += [g.alpha, g.beta, *relation_engine._rotation_orbit(p, "alpha"),
                   *relation_engine._rotation_orbit(p, "beta")]
    copies = [copy.deepcopy(op.columns) for op in cached]
    run_checks(ps=(2, 3))
    assert [op.columns for op in cached] == copies


@pytest.fixture
def fresh_solver_caches():
    caches = (relation_engine._commutant_dim, relation_engine._check_cups)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _count_add_row(monkeypatch):
    calls = []
    add_row = SparseRref.add_row
    monkeypatch.setattr(SparseRref, "add_row", lambda rr, row: calls.append(1) or add_row(rr, row))
    return calls


def test_certified_solve_skips_exact_elimination(monkeypatch, fresh_solver_caches):
    calls = _count_add_row(monkeypatch)
    assert _commutant_dim(4, 4) == 14
    assert calls == []


def test_short_lower_bound_set_falls_back_to_exact(monkeypatch, fresh_solver_caches):
    # Without the first nested cup (all arcs adjacent, fixed by sigma) the
    # even half's lower bound is one short, so its bounds never meet.
    cups = relation_engine._nested_cups
    monkeypatch.setattr(relation_engine, "_nested_cups", lambda n: cups(n)[1:])
    assert sum(_cup_bounds(4, 4)) == catalan(4) - 1
    calls = _count_add_row(monkeypatch)
    assert _commutant_dim(4, 4) == 14
    assert calls


def test_faulted_lower_bound_vector_raises(monkeypatch, fresh_solver_caches):
    def shifted(n):
        vecs = cups(n)
        b, (c, e) = next(iter(vecs[0].items()))
        vecs[0][b] = (c, e + 1)
        return vecs

    cups = relation_engine._nested_cups
    monkeypatch.setattr(relation_engine, "_nested_cups", shifted)
    with pytest.raises(ArithmeticError):
        _commutant_dim(3, 3)


@pytest.mark.parametrize("p", range(2, 9))
def test_modular_map(p):
    l, powers = _modular_map(p)
    r = powers[1]
    assert powers == [pow(r, e, l) for e in range(2 * p)]
    assert l % (2 * p) == 1 and l > 2**30
    assert all(l % d for d in range(2, isqrt(l) + 1))
    phi = cyclotomic_polynomial(2 * p)
    assert sum(c * pow(r, i, l) for i, c in enumerate(phi)) % l == 0


def test_commutant_reaches_seven_strands():
    assert commutant_dim(4, 6) == dimension_formula(6, 4) == 132
    assert commutant_dim(2, 7) == 2048


def test_infeasible_raises_and_skips():
    # eq4 is compared on fewer strands, but gated on the 3p - 1 it states
    with pytest.raises(InfeasibleSize) as refused:
        verify("eq4", 3, budget=2**7)
    assert refused.value.strands == 8
    with pytest.raises(InfeasibleSize):
        commutant_dim(2, 8, budget=2**16)
    reports, skipped = run_checks(["eq4"], ps=(3,), budget=2**7)
    assert reports == []
    assert len(skipped) == 1
    assert skipped[0]["relation_id"] == "eq4" and skipped[0]["strands"] == 8


def test_run_checks_order_deterministic():
    reports, skipped = run_checks(["eq1", "eq2"], ps=(2, 3))
    assert [(r.relation_id, r.p) for r in reports] == [
        ("eq1", 2), ("eq1", 3), ("eq2", 2), ("eq2", 3)]
    assert skipped == []


def test_coefficient_vector():
    for p in (2, 3):
        ctx = FieldCtx(p)
        delta = ctx.loop_value
        for seed in ((1, 0), (0, 1), (2, 3)):
            kv = CoefficientVector(ctx, *seed)
            assert len(kv.k) == 4 * p
            assert kv.k[1] == ctx.scalar(seed[0])
            assert kv.k[2] == ctx.scalar(seed[1])
            assert kv.k[0] == -delta * kv.k[1] - kv.k[2]
            assert kv.recurrence_holds()
            assert kv.periodicity_holds()


def test_gamma_factorial_ratio():
    for p in (2, 3, 4):
        g = make_generators(p)
        for k in range(2 * p):
            assert g.ctx.eval_ratio(*gamma_factorial_ratio(p, k)) == g.gamma
    with pytest.raises(ValueError):
        gamma_factorial_ratio(3, 6)


def test_coefficient_identity_holds():
    for p in (2, 3):
        assert coefficient_identity_failures(FieldCtx(p)) == []


def test_capping_pattern_centers():
    for p in (2, 3):
        ok, centers = capping_pattern(p)
        assert ok
        for name in ("alpha", "beta"):
            assert len(centers[name]) == 4 * p - 2


def test_capping_pattern_closes_few_pieces_directly(monkeypatch):
    # per generator at p = 4: one start position on all 16 clicks and
    # click 0 at the 6 other positions, on each side: 2 (16 + 6) = 44,
    # where closing every piece takes 2 * 7 * 16 = 224
    calls = []
    for name in ("cup_outputs", "cap_inputs"):
        close = getattr(relation_engine, name)
        monkeypatch.setattr(relation_engine, name,
                            lambda op, c, close=close: calls.append(c) or close(op, c))
    ok, _ = capping_pattern(4)
    assert ok
    assert len(calls) == 2 * 44


def test_eq17_compares_each_pair_once():
    # e_i.g_2 is e_(i-1).g_1 placed one strand right, so eq17 compares only
    # g_1's pairs: 2 generators, 2 sides, i = 1 .. 2p - 2
    p = 3
    pairs = list(relation_engine._e_kill(relation_engine._gens(p), 2 * p))
    tags = {tag for tag, _, _ in pairs}
    assert len(tags) == len(pairs) == 2 * 2 * (2 * p - 2)
    assert all("alpha_1" in tag or "beta_1" in tag for tag in tags)
    assert all(lhs == rhs for _, lhs, rhs in pairs)


def test_prop2_injectivity_sizes():
    # prop2 runs on 2p - 2 strands, the largest size below the critical one
    prop2 = relation_engine._CHECKS["prop2"]
    for p in (2, 3, 4):
        assert prop2(p, DEFAULT_BUDGET) == (2 * p - 2, True, None)


def test_checks_are_declared():
    # every check is a table entry of one of the two kinds, and none is
    # hand-written
    checks = relation_engine._CHECKS
    spans = {rid for rid, c in checks.items() if isinstance(c, Span)}
    functions = {rid for rid, c in checks.items() if not isinstance(c, (Identity, Span))}
    assert spans == {"prop2", "prop3", "prop4", "prop5"}
    assert functions == set()


LATTICE_IDS = {"prop2", "prop3", "prop4", "prop5", "rot_rank", "action", "jw_window"}


@pytest.mark.parametrize("rid", RELATION_IDS)
def test_every_gate_is_pinned(rid):
    # lattice checks refuse on the line 4^n = budget, the others once the
    # 2^n tensor space passes it
    entry = relation_engine._CHECKS[rid]
    n = relation_engine._STRANDS[entry.strands](2)
    assert (isinstance(entry, Span) or entry.lattice) == (rid in LATTICE_IDS)
    refused, runs, verb = ((4**n, 4**n + 1, "reaches") if rid in LATTICE_IDS
                           else (2**n - 1, 2**n, "exceeds"))
    with pytest.raises(InfeasibleSize, match=f"on {n} strands {verb} budget {refused}$"):
        verify(rid, 2, refused)
    assert verify(rid, 2, runs).strands == n


def test_default_budget():
    assert DEFAULT_BUDGET == 2**16
