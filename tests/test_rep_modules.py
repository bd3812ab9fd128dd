"""Module catalog matrices, defining relations, hom-space table."""

import pytest

from uqsl2 import _elim
from uqsl2._kernel import kadd, kneg, scalars
from uqsl2.cyclo_field import CycloNum, make_field
from uqsl2.rep_modules import (
    ModuleData,
    all_modules,
    intertwiner_space,
    is_intertwiner,
    mat_mul,
    projective_module,
    simple_module,
    verify_hom_forms,
)

CTX = {p: make_field(p) for p in (2, 3, 4)}


def _module_relations(mod) -> dict:
    """The defining relations of U_q(sl2), each checked exactly on one module."""
    ctx, d, p = mod.ctx, mod.dimension, mod.ctx.p
    K, E, F = mod.K_matrix, mod.E_matrix, mod.F_matrix
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
    assert mod.K_matrix[0][0] == ctx.one
    assert not mod.E_matrix[0][0]
    assert not mod.F_matrix[0][0]


def test_fundamental_simple_action():
    ctx = CTX[3]
    X = simple_module(ctx, 1, 2)
    assert X.K_matrix[0][0] == ctx.q
    assert X.K_matrix[1][1] == ctx.q_power(-1)
    assert X.E_matrix[0][1] == ctx.one  # E nu_1 = [1][1] nu_0
    assert X.F_matrix[1][0] == ctx.one  # F nu_0 = nu_1
    assert not X.E_matrix[1][0]
    assert not X.F_matrix[0][1]


@pytest.mark.parametrize("p", [2, 3])
def test_negative_steinberg_spectrum(p):
    ctx = CTX[p]
    mod = simple_module(ctx, -1, p)
    for n in range(p):
        assert mod.K_matrix[n][n] == -ctx.q_power(p - 1 - 2 * n)


@pytest.mark.parametrize("p", [2, 3])
def test_projective_dimensions_and_names(p):
    ctx = CTX[p]
    for s in range(1, p):
        mod = projective_module(ctx, 1, s)
        assert mod.dimension == 2 * p
        assert len(mod.basis_names) == 2 * p
        assert mod.basis_names[0] == "a0"
        assert mod.basis_names[s] == "b0"


def test_projective_nilpotency_example():
    ctx = CTX[3]
    mod = projective_module(ctx, 1, 1)
    E = mod.E_matrix
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
            assert intertwiner_space(X(1, s), X(1, t)).dimension == (s == t)
            assert intertwiner_space(X(1, s), X(-1, t)).dimension == 0
    for s in range(1, p):
        for t in range(1, p):
            assert intertwiner_space(P(1, s), X(1, t)).dimension == (s == t)
            assert intertwiner_space(P(1, s), X(-1, t)).dimension == 0
            assert intertwiner_space(P(1, s), P(1, t)).dimension == 2 * (s == t)
            assert intertwiner_space(P(1, s), P(-1, t)).dimension == 2 * (
                s == p - t
            )


@pytest.mark.parametrize("p", [2, 3])
def test_hom_basis_maps_are_intertwiners(p):
    ctx = CTX[p]
    src = projective_module(ctx, 1, 1)
    tgt = projective_module(ctx, -1, p - 1)
    hom = intertwiner_space(src, tgt)
    assert hom.dimension == 2
    for M in hom.maps:
        assert is_intertwiner(M, src, tgt)
    # The sparse check agrees with the dense definition on every basis map
    # and on each of those (and zero) with one entry raised by 1.
    dense = lambda M, src, tgt: all(
        mat_mul(ctx, M, getattr(src, g)) == mat_mul(ctx, getattr(tgt, g), M)
        for g in ("K_matrix", "E_matrix", "F_matrix"))
    verdicts = set()
    mods = all_modules(ctx)
    for src in mods:
        for tgt in mods:
            ds, dt = src.dimension, tgt.dimension
            zero = tuple((ctx.zero,) * ds for _ in range(dt))
            for M in (zero, *intertwiner_space(src, tgt).maps):
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
    table = scalars(ctx.red)
    ds, dt = src.dimension, tgt.dimension

    def add(row, key, n, d):
        e = row.pop(key, None)
        s = (n, d) if e is None else kadd(*e, n, d)
        if any(s[0]):
            row[key] = s

    rows = []
    for gs, gt in (
        (src.K_matrix, tgt.K_matrix),
        (src.E_matrix, tgt.E_matrix),
        (src.F_matrix, tgt.F_matrix),
    ):
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
            got = intertwiner_space(src, tgt).maps
            assert list(got) == _full_system_basis(src, tgt), (src.label, tgt.label)


def test_off_diagonal_k_is_rejected():
    ctx = CTX[2]
    X = simple_module(ctx, 1, 2)
    K = ((X.K_matrix[0][0], ctx.one), X.K_matrix[1])
    bad = ModuleData(ctx, "X", 1, 2, 2, X.basis_names, K, X.E_matrix, X.F_matrix)
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
    d = mod.as_dict()
    assert d["label"] == "X+_2"
    assert d["K"][0][0] == "q"
    assert d["dimension"] == 2
