"""Module catalog matrices, defining relations, hom-space table."""

import pytest

from uqsl2 import _elim
from uqsl2._kernel import ONE, kadd, kneg
from uqsl2.cyclo_field import CycloNum, FieldCtx
from uqsl2.rep_modules import (
    ModuleData,
    _commutes,
    all_modules,
    intertwiner_space,
    mat_mul,
    projective_module,
    simple_module,
    verify_hom_forms,
)

from helpers import action_grids, hom_maps, is_intertwiner, module_dict

CTX = {p: FieldCtx(p) for p in (2, 3, 4)}


def _module_relations(mod) -> dict:
    """The defining relations of U_q(sl2), each checked exactly on one module."""
    ctx, d, p = mod.ctx, mod.dimension, mod.ctx.p
    K, E, F = action_grids(mod)
    kd = [K[i][i] for i in range(d)]
    grid = lambda f: tuple(tuple(f(i, j) for j in range(d)) for i in range(d))
    ef, fe = mat_mul(ctx, E, F), mat_mul(ctx, F, E)
    scale = (ctx.q - ctx.q_power(-1)).inv()
    Ep, Fp = E, F
    for _ in range(p - 1):
        Ep, Fp = mat_mul(ctx, E, Ep), mat_mul(ctx, F, Fp)
    zero = grid(lambda i, j: ctx.zero)
    return {
        "KEK^-1=q^2E": grid(lambda i, j: kd[i] * E[i][j] / kd[j])
        == grid(lambda i, j: E[i][j] * ctx.q_power(2)),
        "KFK^-1=q^-2F": grid(lambda i, j: kd[i] * F[i][j] / kd[j])
        == grid(lambda i, j: F[i][j] * ctx.q_power(-2)),
        "EF-FE=(K-K^-1)/(q-q^-1)": grid(lambda i, j: ef[i][j] - fe[i][j])
        == grid(lambda i, j: (kd[i] - kd[i].inv()) * scale if i == j else ctx.zero),
        "E^p=0": Ep == zero,
        "F^p=0": Fp == zero,
        "K^2p=1": all(k ** (2 * p) == ctx.one for k in kd),
    }


@pytest.mark.parametrize("p", [2, 3])
def test_all_modules_satisfy_relations(p):
    for mod in all_modules(CTX[p]):
        chk = _module_relations(mod)
        assert all(chk.values()), (mod.label, chk)


def test_trivial_simple():
    ctx = CTX[3]
    mod = simple_module(ctx, 1, 1)
    assert mod.dimension == 1
    K, E, F = action_grids(mod)
    assert K[0][0] == ctx.one
    assert not E[0][0]
    assert not F[0][0]


def test_fundamental_simple_action():
    ctx = CTX[3]
    K, E, F = action_grids(simple_module(ctx, 1, 2))
    assert K[0][0] == ctx.q
    assert K[1][1] == ctx.q_power(-1)
    assert E[0][1] == ctx.one  # E nu_1 = [1][1] nu_0
    assert F[1][0] == ctx.one  # F nu_0 = nu_1
    assert not E[1][0]
    assert not F[0][1]


@pytest.mark.parametrize("p", [2, 3])
def test_negative_steinberg_spectrum(p):
    ctx = CTX[p]
    K = action_grids(simple_module(ctx, -1, p))[0]
    for n in range(p):
        assert K[n][n] == -ctx.q_power(p - 1 - 2 * n)


@pytest.mark.parametrize("p", [2, 3])
def test_projective_dimensions(p):
    ctx = CTX[p]
    for s in range(1, p):
        assert projective_module(ctx, 1, s).dimension == 2 * p


def test_projective_nilpotency_example():
    ctx = CTX[3]
    E = action_grids(projective_module(ctx, 1, 1))[1]
    E3 = mat_mul(ctx, E, mat_mul(ctx, E, E))
    assert all(not c for row in E3 for c in row)


def test_range_rejection():
    ctx = CTX[3]
    with pytest.raises(ValueError):
        simple_module(ctx, 1, 0)
    with pytest.raises(ValueError):
        simple_module(ctx, 1, 4)
    with pytest.raises(ValueError):
        projective_module(ctx, 1, 3)
    with pytest.raises(ValueError):
        projective_module(ctx, 1, 0)
    with pytest.raises(ValueError):
        simple_module(ctx, 0, 1)
    with pytest.raises(ValueError):
        projective_module(ctx, 2, 1)
    with pytest.raises(ValueError):
        intertwiner_space(simple_module(ctx, 1, 1), simple_module(CTX[2], 1, 1))


@pytest.mark.parametrize("p", [2, 3])
def test_hom_table_dims(p):
    ctx = CTX[p]
    X = lambda sg, s: simple_module(ctx, sg, s)
    P = lambda sg, s: projective_module(ctx, sg, s)
    for s in range(1, p + 1):
        for t in range(1, p + 1):
            assert len(intertwiner_space(X(1, s), X(1, t))) == (s == t)
            assert len(intertwiner_space(X(1, s), X(-1, t))) == 0
    for s in range(1, p):
        for t in range(1, p):
            assert len(intertwiner_space(P(1, s), X(1, t))) == (s == t)
            assert len(intertwiner_space(P(1, s), X(-1, t))) == 0
            assert len(intertwiner_space(P(1, s), P(1, t))) == 2 * (s == t)
            assert len(intertwiner_space(P(1, s), P(-1, t))) == 2 * (s == p - t)


@pytest.mark.parametrize("p", [2, 3])
def test_hom_basis_maps_are_intertwiners(p):
    ctx = CTX[p]
    src = projective_module(ctx, 1, 1)
    tgt = projective_module(ctx, -1, p - 1)
    hom = intertwiner_space(src, tgt)
    assert len(hom) == 2
    for M in hom_maps(hom, src, tgt):
        assert is_intertwiner(M, src, tgt)
    # The sparse check agrees with the dense definition on every basis map
    # and on each of those (and zero) with one entry raised by 1.
    dense = lambda M, src, tgt: all(
        mat_mul(ctx, M, gs) == mat_mul(ctx, gt, M)
        for gs, gt in zip(action_grids(src), action_grids(tgt)))
    verdicts = set()
    mods = all_modules(ctx)
    for src in mods:
        for tgt in mods:
            ds, dt = src.dimension, tgt.dimension
            zero = tuple((ctx.zero,) * ds for _ in range(dt))
            for M in (zero, *hom_maps(intertwiner_space(src, tgt), src, tgt)):
                for i in range(dt):
                    for j in range(ds):
                        N = [list(r) for r in M]
                        N[i][j] += 1
                        N = tuple(map(tuple, N))
                        verdict = is_intertwiner(N, src, tgt)
                        assert verdict == dense(N, src, tgt), (src.label, tgt.label, i, j)
                        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p", [2, 3])
def test_explicit_hom_forms(p):
    rep = verify_hom_forms(CTX[p])
    assert rep["ok"], rep
    assert not rep["table_failures"]
    for entry in rep["explicit_maps"]:
        assert entry["intertwiner"], entry
        assert entry["in_span"], entry


def _full_system_basis(src, tgt):
    """Hom(src, tgt) from every K, E and F constraint on all dt*ds entries,
    the rows summed as kernel pairs and eliminated as id rows."""
    ctx = src.ctx
    table = ctx.table
    ds, dt = src.dimension, tgt.dimension

    def add(row, key, n, d):
        e = row.pop(key, None)
        s = (n, d) if e is None else kadd(*e, n, d)
        if any(s[0]):
            row[key] = s

    rows = []
    for gs, gt in zip(action_grids(src), action_grids(tgt)):
        scols = [[(k, c.nums, c.den) for k in range(ds) if (c := gs[k][j])] for j in range(ds)]
        trows = [[(k, *kneg(c.nums, c.den)) for k, c in enumerate(gt[i]) if c] for i in range(dt)]
        for i in range(dt):
            for j in range(ds):
                row: dict[int, tuple] = {}
                for k, n, d in scols[j]:
                    add(row, i * ds + k, n, d)
                for k, n, d in trows[i]:
                    add(row, k * ds + j, n, d)
                if row:
                    rows.append({key: table.id_of(*v) for key, v in row.items()})
    maps = []
    for v in _elim.nullspace(ctx, rows, range(dt * ds)):
        M = [[ctx.zero] * ds for _ in range(dt)]
        for key, c in v.items():
            M[key // ds][key % ds] = CycloNum(ctx, *table.vals[c])
        maps.append(tuple(map(tuple, M)))
    return maps


@pytest.mark.parametrize("p", [2, 3, 4])
def test_weight_matched_solve_matches_full_system(p):
    mods = all_modules(CTX[p])
    for src in mods:
        for tgt in mods:
            got = hom_maps(intertwiner_space(src, tgt), src, tgt)
            assert list(got) == _full_system_basis(src, tgt), (src.label, tgt.label)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_hom_vectors_match_maps(p):
    """Each solved id vector {i * ds + j: id} holds exactly the nonzero
    entries of the map beside it."""
    ctx = CTX[p]
    vals = ctx.table.vals
    mods = all_modules(ctx)
    for src in mods:
        for tgt in mods:
            hom = intertwiner_space(src, tgt)
            maps = hom_maps(hom, src, tgt)
            assert len(maps) == len(hom)
            ds = src.dimension
            for vec, M in zip(hom, maps):
                nonzero = {i * ds + j: (c.nums, c.den)
                           for i, row in enumerate(M) for j, c in enumerate(row) if c}
                assert {k: vals[x] for k, x in vec.items()} == nonzero, (src.label, tgt.label)


def test_in_span_rejects_map_outside_span(monkeypatch):
    """End(P+_1) is spanned by the identity and b->a.  With each End(P) cut
    to the identity, b->a, an intertwiner, is reported outside the span,
    and every other explicit map stays inside."""
    import uqsl2.rep_modules as rm

    ctx = CTX[3]
    P = projective_module(ctx, 1, 1)
    d = P.dimension
    identity = {i * d + i: ONE for i in range(d)}
    b_to_a = {0 * d + 1: ONE}  # s = 1: b_0 is basis vector 1, a_0 is 0
    assert _commutes(identity, P, P) and _commutes(b_to_a, P, P)
    full = intertwiner_space(P, P)
    assert _elim.rank_of_vectors(ctx, [*full, identity, b_to_a]) == len(full) == 2

    def identity_only(src, tgt):
        if src is tgt and src.kind == "P":
            return [{i * src.dimension + i: ONE for i in range(src.dimension)}]
        return intertwiner_space(src, tgt)

    monkeypatch.setattr(rm, "intertwiner_space", identity_only)
    rep = verify_hom_forms(ctx)
    assert not rep["ok"]
    assert all(e["intertwiner"] for e in rep["explicit_maps"])
    assert {e["map"] for e in rep["explicit_maps"] if not e["in_span"]} == {"b->a"}


def test_off_diagonal_k_is_rejected():
    ctx = CTX[2]
    X = simple_module(ctx, 1, 2)
    # the action of X+_2 with one off-diagonal entry added to K
    K = {(0, 0): ctx.q, (0, 1): ctx.one, (1, 1): ctx.q_power(-1)}
    bad = ModuleData(ctx, "X", 1, 2, 2, K, {(0, 1): ctx.one}, {(1, 0): ctx.one})
    with pytest.raises(ArithmeticError):
        intertwiner_space(bad, X)
    with pytest.raises(ArithmeticError):
        intertwiner_space(X, bad)


def test_hom_forms_solve_each_pair_once(monkeypatch):
    import uqsl2.rep_modules as rm

    pairs = []

    def counting(src, tgt):
        pairs.append((src.label, tgt.label))
        return intertwiner_space(src, tgt)

    monkeypatch.setattr(rm, "intertwiner_space", counting)
    assert verify_hom_forms(CTX[3])["ok"]
    assert len(pairs) == len(set(pairs))


def test_zero_map_is_intertwiner():
    ctx = CTX[2]
    src = simple_module(ctx, 1, 1)
    tgt = simple_module(ctx, -1, 2)
    Z = tuple((ctx.zero,) for _ in range(2))
    assert is_intertwiner(Z, src, tgt)


@pytest.mark.parametrize("p", [2, 3])
def test_endomorphism_nilpotent(p):
    # the non-identity endomorphism b_i -> a_i of P squares to zero
    ctx = CTX[p]
    for s in range(1, p):
        mod = projective_module(ctx, 1, s)
        N = [[ctx.zero] * (2 * p) for _ in range(2 * p)]
        for i in range(s):
            N[i][s + i] = ctx.one
        N = tuple(map(tuple, N))
        assert is_intertwiner(N, mod, mod)
        N2 = mat_mul(ctx, N, N)
        assert all(not c for row in N2 for c in row)


def test_module_json_dump():
    mod = simple_module(CTX[2], 1, 2)
    d = module_dict(mod)
    assert d["label"] == "X+_2"
    assert d["K"][0][0] == "q"
    assert d["dimension"] == 2
