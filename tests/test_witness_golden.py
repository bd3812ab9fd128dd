"""Witness text of every identity check, pinned on deliberately faulted inputs.

All identity checks hold on the real generators, so their failure paths
never run in the other tests.  Here ``_gens`` is replaced by a faulted
set (alpha and beta each plus the identity, gamma doubled) and the full
verdict and witness of each check is compared with literal values, so a
change to how a check builds its sides or reports its first difference
shows up as a diff of witness text.  The checks that do not use the
generators get a faulted building block of their own instead, and prop4,
whose first pairs ask alpha and beta to be module maps, gets a generator
set that is not one.  Adding the identity cannot break eq5 or eq6, so a
sweep of single-entry faults at p = 2 checks that every identity check
catches some fault and that no fault passes them all.
"""

from __future__ import annotations

import re
from functools import lru_cache

import pytest

from uqsl2 import relation_engine
from uqsl2.cyclo_field import SingularRatio
from uqsl2.diagram_algebra import cap_inputs, cup_outputs, e_left, jw_closed
from uqsl2.pa_generators import GeneratorSet, embed, make_generators, nested_cap_closed
from uqsl2.relation_engine import RELATION_IDS, verify
from uqsl2.tensor_space import BasisIndex, LinOp, column_text, f_power, op_K, unit

# prop2..prop5 and rot_rank compare ranks and solver dimensions, not
# operator identities.  Their faulted verdicts are pinned below, but the
# fault sweep leaves them out: prop2 and prop3 read no generator.  action,
# jw_window and duality do not depend on alpha or beta, so faulted
# generators cannot break them; FAULTS below pins them instead.
RANK_IDS = ["prop2", "prop3", "prop4", "prop5", "rot_rank"]
IDS = [r for r in RELATION_IDS if r not in (*RANK_IDS, "action", "jw_window", "duality")]


@lru_cache(maxsize=None)
def _faulted_gens(p: int) -> GeneratorSet:
    g = make_generators(p)
    ident = LinOp.identity(g.ctx, 2 * p - 1)
    return GeneratorSet(g.ctx, g.alpha + ident, g.beta + ident, g.gamma + g.gamma)


@pytest.fixture
def faulted(monkeypatch):
    relation_engine._gens.cache_clear()
    relation_engine._rotation_orbit.cache_clear()
    monkeypatch.setattr(relation_engine, "_gens", _faulted_gens)
    yield
    monkeypatch.undo()
    relation_engine._gens.cache_clear()
    relation_engine._rotation_orbit.cache_clear()


@pytest.mark.parametrize("p", [2, 3])
def test_faulted_witnesses(faulted, p):
    got = {(rid, p): (r.holds, r.witness) for rid in IDS + RANK_IDS for r in [verify(rid, p)]}
    assert got == {k: v for k, v in EXPECTED.items() if k[1] == p}


def _jw_without_window(ctx, n):
    try:
        return jw_closed(ctx, n)
    except SingularRatio:
        return LinOp.zero(ctx, n, n)


def _bumped(g: GeneratorSet, name: str, row: int, col: int) -> GeneratorSet:
    """``g`` with 1 added to generator ``name`` at the entry v_col -> v_row."""
    n = 2 * g.p - 1
    bump = LinOp(g.ctx, n, n, {BasisIndex(n, col): unit(g.ctx, BasisIndex(n, row))})
    ops = {"alpha": g.alpha, "beta": g.beta}
    ops[name] = ops[name] + bump
    return GeneratorSet(g.ctx, ops["alpha"], ops["beta"], g.gamma)


@lru_cache(maxsize=None)
def _alpha_off_by_one(p: int) -> GeneratorSet:
    # alpha plus 1 at the weight-preserving entry v0..0 -> v0..0: K still
    # commutes with it, E does not, so it is no module map
    return _bumped(make_generators(p), "alpha", 0, 0)


@lru_cache(maxsize=None)
def _beta_off_by_one(p: int) -> GeneratorSet:
    # beta plus 1 at v0..0 -> v0..0; unlike adding the identity, this
    # breaks the far commutation of eq6
    return _bumped(make_generators(p), "beta", 0, 0)


# fault -> (relation id, p, engine name replaced, stand-in, witness)
FAULTS = {
    # straightening is linear in F^k, so a doubled F^k first shows in its expansion
    "action": ("action", 2, "f_power", lambda ctx, k, z: f_power(ctx, k, z).scale(2), {
        "identity": "F^0 x_bottom expansion on 1 strands", "basis": "", "lhs": "2*v0", "rhs": "v0",
    }),
    "jw_window": ("jw_window", 2, "jw_closed", lambda ctx, n: jw_closed(ctx, n).scale(2), {
        "identity": "f_1 closed = recursive", "basis": "0", "lhs": "2*v0", "rhs": "v0",
    }),
    "jw_window_finite": ("jw_window", 2, "jw_closed", _jw_without_window, {
        "identity": "f_2 is singular inside the window",
    }),
    "duality": ("duality", 2, "nested_cap_closed",
                lambda ctx, z: nested_cap_closed(ctx, z).scale(2), {
        "identity": "nested cap on 2 strands = closed form",
        "basis": "",
        "lhs": "-v01 - q*v10",
        "rhs": "-2*v01 - 2*q*v10",
    }),
    "prop4_membership": ("prop4", 2, "_gens", _alpha_off_by_one, {
        "identity": "E.alpha = alpha.E",
        "basis": "100",
        "lhs": "v011 + q*v101 - v110",
        "rhs": "-v000 + v011 + q*v101 - v110",
    }),
    "eq6_single_entry": ("eq6", 2, "_gens", _beta_off_by_one, {
        "identity": "beta_1.beta_3 commute",
        "basis": "10100",
        "lhs": "0",
        "rhs": "q*v00000",
    }),
    # prop2's separation holds from 3 strands on, so from p = 3; an e_left
    # that always acts on strands 1, 2 makes e_1e_2 and e_2e_1 agree
    "prop2_separation": ("prop2", 3, "e_left", lambda op, i: e_left(op, 1), {
        "identity": "e_1e_2 and e_2e_1 separate on 011", "value": "q*v011 - v101",
    }),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_faulted_building_blocks(monkeypatch, fault):
    rid, p, name, stand_in, witness = FAULTS[fault]
    monkeypatch.setattr(relation_engine, name, stand_in)
    r = verify(rid, p)
    assert (r.holds, r.witness) == (False, witness)


def _all_closures_pattern(p):
    """Reference for capping_pattern: every piece closed directly, one
    position at a time, with the same window check in the same order."""
    g = relation_engine._gens(p)
    n, m, delta = 2 * p, 4 * p, g.ctx.loop_value
    all_centers = {}
    for name in ("alpha", "beta"):
        ops = relation_engine._rotation_orbit(p, name)
        centers = set()
        for from_top in (False, True):
            close = cup_outputs if from_top else cap_inputs
            for c in range(1, n):
                pieces = [close(op, c) for op in ops]
                center = None
                for s in range(m):
                    lo, hi = pieces[(s - 1) % m], pieces[(s + 1) % m]
                    if not lo or lo != hi or pieces[s] != lo.scale(delta):
                        continue
                    window = {(s - 1) % m, s, (s + 1) % m}
                    if all(not pieces[t] for t in range(m) if t not in window):
                        center = s
                        break
                if center is None:
                    return False, {"identity": "capping survivor pattern", "generator": name,
                                   "position": c, "from_top": from_top}
                centers.add(center)
        if len(centers) != 4 * p - 2:
            return False, {"identity": "capping constraint coverage", "generator": name,
                           "centers": sorted(centers), "expected_count": 4 * p - 2}
        all_centers[name] = sorted(centers)
    return True, all_centers


@pytest.mark.parametrize("p", [2, 3, 4])
def test_capping_pattern_matches_all_closures(monkeypatch, p):
    # the pieces derived by clicks give the verdict and witness of closing
    # every piece, on the real generators and on the faulted set
    relation_engine._rotation_orbit.cache_clear()
    want = _all_closures_pattern(p)
    assert want[0]
    assert relation_engine.capping_pattern(p) == want
    monkeypatch.setattr(relation_engine, "_gens", _faulted_gens)
    relation_engine._rotation_orbit.cache_clear()
    want = _all_closures_pattern(p)
    assert relation_engine.capping_pattern(p) == want
    assert want == (False, {"identity": "capping survivor pattern", "generator": "alpha",
                            "position": 1, "from_top": False})
    relation_engine._rotation_orbit.cache_clear()


def test_derived_pieces_are_the_closures_under_faults(monkeypatch):
    # every faulted verdict above stops at the first position, which is
    # closed directly; here every derived piece is compared with its
    # direct closure, under the faulted set at p = 2..4 and under each
    # single-entry fault at p = 2
    g = make_generators(2)
    faults = [_faulted_gens(p) for p in (2, 3, 4)]
    faults += [_bumped(g, name, r, c) for name in ("alpha", "beta")
               for r in range(8) for c in range(8)]
    for fg in faults:
        monkeypatch.setattr(relation_engine, "_gens", lambda p, fg=fg: fg)
        relation_engine._rotation_orbit.cache_clear()
        for name in ("alpha", "beta"):
            ops = relation_engine._rotation_orbit(fg.p, name)
            for from_top, close in ((False, cap_inputs), (True, cup_outputs)):
                pieces = relation_engine._capping_pieces(fg.ctx, ops, from_top)
                assert sorted(pieces) == list(range(1, 2 * fg.p))
                for c, row in pieces.items():
                    assert row == [close(op, c) for op in ops], (fg.p, name, from_top, c)
    relation_engine._rotation_orbit.cache_clear()


@pytest.mark.parametrize("p", [3, 4])
def test_support_witnesses_are_read_on_stated_strands(faulted, p):
    # eq4 and eq17 compare each pair where its operators act, but a pair
    # that differs is widened, so the witness is a word on 3p - 1 and 2p
    # strands, and it is the first difference at full width
    r = verify("eq4", p)
    assert not r.holds and r.witness["identity"] == "alpha_1.alpha_2 = 0"
    assert len(r.witness["basis"]) == 3 * p - 1
    n = 3 * p - 1
    g = relation_engine._gens(p)
    lhs = embed(g.alpha, 1, n) * embed(g.alpha, 2, n)
    b = BasisIndex(n, min(lhs.columns))
    assert r.witness == {"identity": "alpha_1.alpha_2 = 0", "basis": b.word(),
                         "lhs": column_text(lhs, b.mask), "rhs": "0"}
    r = verify("eq17", p)
    assert not r.holds
    assert re.fullmatch(r"e_\d+\.(alpha|beta)_[12] = 0|(alpha|beta)_[12]\.e_\d+ = 0",
                        r.witness["identity"])
    assert len(r.witness["basis"]) == 2 * p


def test_single_entry_fault_sweep(monkeypatch):
    # Mutation sweep at p = 2: 1 added to alpha or beta at each entry
    # v_col -> v_row that K commutes with (equal K eigenvalues on the two
    # masks).  Every identity check must catch some fault, and every
    # fault must be caught by some check.
    g = make_generators(2)
    n = 3
    k = op_K(g.ctx, n)
    kval = [k.column(BasisIndex(n, b)).coeff(BasisIndex(n, b)) for b in range(1 << n)]
    entries = [(r, c) for r in range(1 << n) for c in range(1 << n) if kval[r] == kval[c]]
    caught = dict.fromkeys(IDS, 0)
    escaped = []
    for name in ("alpha", "beta"):
        for r, c in entries:
            fg = _bumped(g, name, r, c)
            monkeypatch.setattr(relation_engine, "_gens", lambda p, fg=fg: fg)
            relation_engine._rotation_orbit.cache_clear()
            failing = [rid for rid in IDS if not verify(rid, 2).holds]
            for rid in failing:
                caught[rid] += 1
            if not failing:
                escaped.append((name, r, c))
    relation_engine._rotation_orbit.cache_clear()
    assert 2 * len(entries) == 64
    assert not escaped
    assert min(caught.values()) > 0, caught


EXPECTED = {
    ("eq1", 2): (False, {
        "identity": "alpha^2 = 0",
        "basis": "000",
        "lhs": "v000 - 2*v011 - 2*q*v101 + 2*v110",
        "rhs": "0",
    }),
    ("eq2", 2): (False, {
        "identity": "alpha.beta.alpha = gamma.alpha",
        "basis": "000",
        "lhs": "-v011 - q*v101 + v110",
        "rhs": "-2*v000 + 2*v011 + 2*q*v101 - 2*v110",
    }),
    ("eq3", 2): (False, {
        "identity": "beta.alpha.beta = gamma.beta",
        "basis": "000",
        "lhs": "-v011 - q*v101 + v110",
        "rhs": "-2*v000",
    }),
    ("eq4", 2): (False, {
        "identity": "alpha_1.alpha_2 = 0",
        "basis": "00000",
        "lhs": "v00000 - v00110 - q*v01010 - q*v10100 + v11000",
        "rhs": "0",
    }),
    ("eq5", 2): (True, None),
    ("eq6", 2): (True, None),
    ("eq7", 2): (False, {
        "identity": "alpha.beta + beta.alpha = gamma.top-projector",
        "basis": "000",
        "lhs": "v000 - 2*v011 - 2*q*v101 + 2*v110",
        "rhs": "-2*v000",
    }),
    ("eq8", 2): (False, {
        "identity": "alpha.cap_1 = 0",
        "basis": "0",
        "lhs": "-v010 - q*v100",
        "rhs": "0",
    }),
    ("eq9", 2): (False, {
        "identity": "alpha_2.cap_1 = alpha_1.cap_3",
        "basis": "00",
        "lhs": "-v0100 + v0111 - q*v1000 + q*v1011 - v1101 - q*v1110",
        "rhs": "-v0001 - q*v0010 + v0111 + q*v1011 - v1101 - q*v1110",
    }),
    ("eq10", 2): (False, {
        "identity": "beta_2.cap_1 = beta_1.cap_3",
        "basis": "00",
        "lhs": "-v0100 - q*v1000",
        "rhs": "-v0001 - q*v0010",
    }),
    ("eq11", 2): (False, {
        "identity": "cup_1.alpha_2 = cup_3.alpha_1",
        "basis": "1000",
        "lhs": "v00 - v11",
        "rhs": "-v11",
    }),
    ("eq12", 2): (False, {
        "identity": "cup_1.beta_2 = cup_3.beta_1",
        "basis": "1000",
        "lhs": "v00",
        "rhs": "0",
    }),
    ("eq13", 2): (False, {
        "identity": "one rotation click fixes alpha up to sign",
        "basis": "000",
        "lhs": "v011 + q*v101 - v110",
        "rhs": "v000 - v011 - q*v101 + v110",
    }),
    ("eq14", 2): (False, {
        "identity": "one rotation click fixes beta up to sign",
        "basis": "000",
        "lhs": "0",
        "rhs": "v000",
    }),
    ("eq15", 2): (False, {
        "identity": "sum k_i R^i(alpha x 1) = 0",
        "seed": [1, 0],
        "basis": "1000",
        "lhs": "-2*v0001 - 2*q*v0010",
        "rhs": "0",
    }),
    ("eq16", 2): (False, {
        "identity": "sum k_i R^i(beta x 1) = 0",
        "seed": [1, 0],
        "basis": "1000",
        "lhs": "-2*v0001 - 2*q*v0010",
        "rhs": "0",
    }),
    ("eq17", 2): (False, {
        "identity": "e_1.alpha_1 = 0",
        "basis": "1000",
        "lhs": "-v0100 - q*v1000",
        "rhs": "0",
    }),
    ("eq18", 2): (False, {
        "identity": "e_1.alpha_2 = e_1..e_3.alpha_1",
        "basis": "1000",
        "lhs": "-v0100 + v0111 - q*v1000 + q*v1011",
        "rhs": "v0111 + q*v1011",
    }),
    ("eq19", 2): (False, {
        "identity": "alpha_2.e_1 = alpha_1.e_3..e_1",
        "basis": "1000",
        "lhs": "-v0100 + v0111 - q*v1000 + q*v1011 - v1101 - q*v1110",
        "rhs": "-v0001 - q*v0010 + v0111 + q*v1011 - v1101 - q*v1110",
    }),
    ("eq20", 2): (False, {
        "identity": "e_1.beta_2 = e_1..e_3.beta_1",
        "basis": "1000",
        "lhs": "-v0100 - q*v1000",
        "rhs": "0",
    }),
    ("eq21", 2): (False, {
        "identity": "beta_2.e_1 = beta_1.e_3..e_1",
        "basis": "1000",
        "lhs": "-v0100 - q*v1000",
        "rhs": "-v0001 - q*v0010",
    }),
    ("pt_alpha", 2): (True, None),
    ("pt_beta", 2): (True, None),
    ("pt_alphabeta", 2): (True, None),
    ("pt_betaalpha", 2): (True, None),
    ("kp_periodicity", 2): (False, {
        "identity": "capping survivor pattern",
        "generator": "alpha",
        "position": 1,
        "from_top": False,
    }),
    ("prop2", 2): (True, None),
    ("prop3", 2): (True, None),
    ("prop4", 2): (False, {"identity": "gamma factorial ratio", "k": 0}),
    ("prop5", 2): (False, {
        "identity": "diagrams + generator words form a basis",
        "rank": 29,
        "commutant": 32,
        "expected": 32,
        "dependencies": [
            [["()(()())", "-1"], ["(()())()", "-1"], ["(((())))", "2"], ["alpha_1", "-1"],
             ["alpha_2", "-1"], ["alpha_2.e_1.e_2", "1"], ["e_2.e_1.alpha_2", "1"]],
            [["()(()())", "-1"], ["(()())()", "-1"], ["(((())))", "2"], ["beta_1", "-1"],
             ["beta_2", "-1"], ["beta_2.e_1.e_2", "1"], ["e_2.e_1.beta_2", "1"]],
            [["()(()())", "-1"], ["(())(())", "-1"], ["(()())()", "-1"], ["(((())))", "4"],
             ["alpha_1", "-2"], ["beta_1", "-2"], ["alpha_1.beta_1", "1"],
             ["alpha_2.beta_2", "-1"], ["alpha_2.beta_2.e_1.e_2", "1"],
             ["e_2.e_1.alpha_2.beta_2", "1"]],
        ],
        "word_dependency": (
            "-()(()()) - (()())() + 2*(((()))) - alpha_1 - alpha_2 + alpha_2.e_1.e_2"
            " + e_2.e_1.alpha_2 = 0; -()(()()) - (()())() + 2*(((()))) - beta_1 - beta_2"
            " + beta_2.e_1.e_2 + e_2.e_1.beta_2 = 0; -()(()()) - (())(()) - (()())()"
            " + 4*(((()))) - 2*alpha_1 - 2*beta_1 + alpha_1.beta_1 - alpha_2.beta_2"
            " + alpha_2.beta_2.e_1.e_2 + e_2.e_1.alpha_2.beta_2 = 0"),
        "completion": "adding alpha_1.e_3, beta_1.e_3, alpha_1.beta_1.e_3",
        "completed_rank": 32,
    }),
    ("rot_rank", 2): (False, {
        "identity": "rotation orbit rank of alpha x 1", "rank": 8, "expected": 6,
    }),
    ("eq1", 3): (False, {
        "identity": "alpha^2 = 0",
        "basis": "00000",
        "lhs": "v00000 + 2*v00111 + 2*q*v01011 + (2*q - 2)*v01101 - 2*v01110 + (2*q - 2)*v10011 - 2*v10101 - 2*q*v10110 - 2*q*v11001 + (-2*q + 2)*v11010 + 2*v11100",
        "rhs": "0",
    }),
    ("eq2", 3): (False, {
        "identity": "alpha.beta.alpha = gamma.alpha",
        "basis": "00000",
        "lhs": "2*v00000 + 3*v00111 + 3*q*v01011 + (3*q - 3)*v01101 - 3*v01110 + (3*q - 3)*v10011 - 3*v10101 - 3*q*v10110 - 3*q*v11001 + (-3*q + 3)*v11010 + 3*v11100",
        "rhs": "2*v00000 + 2*v00111 + 2*q*v01011 + (2*q - 2)*v01101 - 2*v01110 + (2*q - 2)*v10011 - 2*v10101 - 2*q*v10110 - 2*q*v11001 + (-2*q + 2)*v11010 + 2*v11100",
    }),
    ("eq3", 3): (False, {
        "identity": "beta.alpha.beta = gamma.beta",
        "basis": "00000",
        "lhs": "2*v00000 + v00111 + q*v01011 + (q - 1)*v01101 - v01110 + (q - 1)*v10011 - v10101 - q*v10110 - q*v11001 + (-q + 1)*v11010 + v11100",
        "rhs": "2*v00000",
    }),
    ("eq4", 3): (False, {
        "identity": "alpha_1.alpha_2 = 0",
        "basis": "00000000",
        "lhs": "v00000000 + v00011100 + q*v00101100 + (q - 1)*v00110100 + (q - 1)*v01001100 - v01010100 - q*v01100100 + (q - 1)*v10011000 - v10101000 - q*v10110000 - q*v11001000 + (-q + 1)*v11010000 + v11100000",
        "rhs": "0",
    }),
    ("eq5", 3): (True, None),
    ("eq6", 3): (True, None),
    ("eq7", 3): (False, {
        "identity": "alpha.beta + beta.alpha = gamma.top-projector",
        "basis": "00000",
        "lhs": "3*v00000 + 2*v00111 + 2*q*v01011 + (2*q - 2)*v01101 - 2*v01110 + (2*q - 2)*v10011 - 2*v10101 - 2*q*v10110 - 2*q*v11001 + (-2*q + 2)*v11010 + 2*v11100",
        "rhs": "2*v00000",
    }),
    ("eq8", 3): (False, {
        "identity": "alpha.cap_1 = 0",
        "basis": "000",
        "lhs": "-v01000 + (-q + 1)*v10000",
        "rhs": "0",
    }),
    ("eq9", 3): (False, {
        "identity": "alpha_2.cap_1 = alpha_1.cap_5",
        "basis": "0000",
        "lhs": "-v001111 - v010000 - q*v010111 + (-q + 1)*v011011 + v011101 + q*v011110 + (-q + 1)*v100000 + (-q + 1)*v100111 + v101011 + q*v101101 + (q - 1)*v101110 + q*v110011 + (q - 1)*v110101 - v110110 - v111001 - q*v111010 + (-q + 1)*v111100",
        "rhs": "-v000001 + (-q + 1)*v000010 - v001111 - q*v010111 + (-q + 1)*v011011 + v011101 + q*v011110 + (-q + 1)*v100111 + v101011 + q*v101101 + (q - 1)*v101110 + q*v110011 + (q - 1)*v110101 - v110110 - v111001 - q*v111010 + (-q + 1)*v111100",
    }),
    ("eq10", 3): (False, {
        "identity": "beta_2.cap_1 = beta_1.cap_5",
        "basis": "0000",
        "lhs": "-v010000 + (-q + 1)*v100000",
        "rhs": "-v000001 + (-q + 1)*v000010",
    }),
    ("eq11", 3): (False, {
        "identity": "cup_1.alpha_2 = cup_5.alpha_1",
        "basis": "100000",
        "lhs": "v0000 + v0111 + q*v1011 + (q - 1)*v1101 - v1110",
        "rhs": "v0111 + q*v1011 + (q - 1)*v1101 - v1110",
    }),
    ("eq12", 3): (False, {
        "identity": "cup_1.beta_2 = cup_5.beta_1",
        "basis": "100000",
        "lhs": "v0000",
        "rhs": "0",
    }),
    ("eq13", 3): (False, {
        "identity": "one rotation click fixes alpha up to sign",
        "basis": "00000",
        "lhs": "-v00111 - q*v01011 + (-q + 1)*v01101 + v01110 + (-q + 1)*v10011 + v10101 + q*v10110 + q*v11001 + (q - 1)*v11010 - v11100",
        "rhs": "v00000 + v00111 + q*v01011 + (q - 1)*v01101 - v01110 + (q - 1)*v10011 - v10101 - q*v10110 - q*v11001 + (-q + 1)*v11010 + v11100",
    }),
    ("eq14", 3): (False, {
        "identity": "one rotation click fixes beta up to sign",
        "basis": "00000",
        "lhs": "0",
        "rhs": "v00000",
    }),
    ("eq15", 3): (False, {
        "identity": "sum k_i R^i(alpha x 1) = 0",
        "seed": [1, 0],
        "basis": "000000",
        "lhs": "-2*v000000",
        "rhs": "0",
    }),
    ("eq16", 3): (False, {
        "identity": "sum k_i R^i(beta x 1) = 0",
        "seed": [1, 0],
        "basis": "000000",
        "lhs": "-2*v000000",
        "rhs": "0",
    }),
    ("eq17", 3): (False, {
        "identity": "e_1.alpha_1 = 0",
        "basis": "100000",
        "lhs": "-v010000 + (-q + 1)*v100000",
        "rhs": "0",
    }),
    ("eq18", 3): (False, {
        "identity": "e_1.alpha_2 = e_1..e_5.alpha_1",
        "basis": "100000",
        "lhs": "-v010000 - v010111 - q*v011011 + (-q + 1)*v011101 + v011110 + (-q + 1)*v100000 + (-q + 1)*v100111 + v101011 + q*v101101 + (q - 1)*v101110",
        "rhs": "-v010111 - q*v011011 + (-q + 1)*v011101 + v011110 + (-q + 1)*v100111 + v101011 + q*v101101 + (q - 1)*v101110",
    }),
    ("eq19", 3): (False, {
        "identity": "alpha_2.e_1 = alpha_1.e_5..e_1",
        "basis": "100000",
        "lhs": "-v001111 - v010000 - q*v010111 + (-q + 1)*v011011 + v011101 + q*v011110 + (-q + 1)*v100000 + (-q + 1)*v100111 + v101011 + q*v101101 + (q - 1)*v101110 + q*v110011 + (q - 1)*v110101 - v110110 - v111001 - q*v111010 + (-q + 1)*v111100",
        "rhs": "-v000001 + (-q + 1)*v000010 - v001111 - q*v010111 + (-q + 1)*v011011 + v011101 + q*v011110 + (-q + 1)*v100111 + v101011 + q*v101101 + (q - 1)*v101110 + q*v110011 + (q - 1)*v110101 - v110110 - v111001 - q*v111010 + (-q + 1)*v111100",
    }),
    ("eq20", 3): (False, {
        "identity": "e_1.beta_2 = e_1..e_5.beta_1",
        "basis": "100000",
        "lhs": "-v010000 + (-q + 1)*v100000",
        "rhs": "0",
    }),
    ("eq21", 3): (False, {
        "identity": "beta_2.e_1 = beta_1.e_5..e_1",
        "basis": "100000",
        "lhs": "-v010000 + (-q + 1)*v100000",
        "rhs": "-v000001 + (-q + 1)*v000010",
    }),
    ("pt_alpha", 3): (False, {
        "identity": "right partial trace of alpha = 0",
        "basis": "0000",
        "lhs": "v0000",
        "rhs": "0",
    }),
    ("pt_beta", 3): (False, {
        "identity": "right partial trace of beta = 0",
        "basis": "0000",
        "lhs": "v0000",
        "rhs": "0",
    }),
    ("pt_alphabeta", 3): (False, {
        "identity": "right partial trace of alpha.beta",
        "basis": "0000",
        "lhs": "v0000",
        "rhs": "0",
    }),
    ("pt_betaalpha", 3): (False, {
        "identity": "right partial trace of beta.alpha",
        "basis": "0000",
        "lhs": "v0000",
        "rhs": "0",
    }),
    ("kp_periodicity", 3): (False, {
        "identity": "capping survivor pattern",
        "generator": "alpha",
        "position": 1,
        "from_top": False,
    }),
    ("prop2", 3): (True, None),
    ("prop3", 3): (True, None),
    ("prop4", 3): (False, {"identity": "gamma factorial ratio", "k": 0}),
    ("prop5", 3): (True, None),
    ("rot_rank", 3): (False, {
        "identity": "rotation orbit rank of alpha x 1", "rank": 12, "expected": 10,
    }),
}
