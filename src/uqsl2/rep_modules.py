"""Indecomposable modules as explicit matrices, plus the intertwiner solver.

Simple modules X(sign, s) of dimension s for 1 <= s <= p, and projective
modules P(sign, s) of dimension 2p for 1 <= s <= p-1, with the K/E/F
action in the standard bases.  Matrices are row-major tuples of CycloNum;
column j is the image of basis vector j.  The intertwiner solver computes
an exact nullspace basis of the commutation constraints and reproduces the
hom-space dimension table; it hands ``uqsl2._elim`` kernel pairs and wraps
the solved maps back into CycloNum matrices.
"""

from __future__ import annotations

from uqsl2 import _elim
from uqsl2._kernel import kacc, kneg
from uqsl2.cyclo_field import CycloNum, FieldCtx


class ModuleData:
    """One module: label, basis names, and the three action matrices."""

    __slots__ = (
        "ctx",
        "kind",
        "sign",
        "s",
        "dimension",
        "basis_names",
        "K_matrix",
        "E_matrix",
        "F_matrix",
    )

    def __init__(self, ctx, kind, sign, s, dimension, basis_names, K, E, F):
        self.ctx = ctx
        self.kind = kind
        self.sign = sign
        self.s = s
        self.dimension = dimension
        self.basis_names = tuple(basis_names)
        self.K_matrix = K
        self.E_matrix = E
        self.F_matrix = F

    @property
    def label(self) -> str:
        return f"{self.kind}{'+' if self.sign > 0 else '-'}_{self.s}"

    def as_dict(self) -> dict:
        """JSON-ready dump with matrices as textual grids."""
        grid = lambda M: [[str(c) for c in row] for row in M]
        return {
            "label": self.label,
            "dimension": self.dimension,
            "basis": list(self.basis_names),
            "K": grid(self.K_matrix),
            "E": grid(self.E_matrix),
            "F": grid(self.F_matrix),
        }

    def __repr__(self):
        return f"ModuleData({self.label}, dim={self.dimension})"


class HomBasis:
    """Basis of the intertwiner space between two modules."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: str, target: str, maps):
        self.source = source
        self.target = target
        self.maps = tuple(maps)

    @property
    def dimension(self) -> int:
        return len(self.maps)

    def __repr__(self):
        return f"HomBasis({self.source} -> {self.target}, dim={self.dimension})"


def _zeros(ctx: FieldCtx, n: int):
    return [[ctx.zero] * n for _ in range(n)]


def _freeze(rows):
    return tuple(tuple(r) for r in rows)


def simple_module(ctx: FieldCtx, sign: int, s: int) -> ModuleData:
    """The s-dimensional simple module X(sign, s), 1 <= s <= p."""
    assert sign in (1, -1)
    if not 1 <= s <= ctx.p:
        raise ValueError(f"simple modules need 1 <= s <= p, got s={s}")
    K, E, F = _zeros(ctx, s), _zeros(ctx, s), _zeros(ctx, s)
    for n in range(s):
        K[n][n] = ctx.q_power(s - 1 - 2 * n) * sign
        if n >= 1:
            E[n - 1][n] = ctx.qint(n) * ctx.qint(s - n) * sign
        if n + 1 < s:
            F[n + 1][n] = ctx.one
    names = [f"nu{n}" for n in range(s)]
    return ModuleData(ctx, "X", sign, s, s, names, *map(_freeze, (K, E, F)))


def projective_module(ctx: FieldCtx, sign: int, s: int) -> ModuleData:
    """The 2p-dimensional projective module P(sign, s), 1 <= s <= p-1."""
    assert sign in (1, -1)
    p = ctx.p
    if not 1 <= s <= p - 1:
        raise ValueError(f"projective modules need 1 <= s <= p-1, got s={s}")
    t = p - s  # count of x/y basis vectors
    dim = 2 * p
    ia = lambda i: i
    ib = lambda i: s + i
    ix = lambda j: 2 * s + j
    iy = lambda j: 2 * s + t + j
    K, E, F = _zeros(ctx, dim), _zeros(ctx, dim), _zeros(ctx, dim)
    for i in range(s):
        K[ia(i)][ia(i)] = K[ib(i)][ib(i)] = ctx.q_power(s - 1 - 2 * i) * sign
    for j in range(t):
        K[ix(j)][ix(j)] = K[iy(j)][iy(j)] = ctx.q_power(t - 1 - 2 * j) * -sign
    for i in range(1, s):
        c = ctx.qint(i) * ctx.qint(s - i) * sign
        E[ia(i - 1)][ia(i)] = c
        E[ib(i - 1)][ib(i)] = c
        E[ia(i - 1)][ib(i)] = ctx.one
    E[ix(t - 1)][ib(0)] = ctx.one
    for j in range(1, t):
        c = ctx.qint(j) * ctx.qint(t - j) * -sign
        E[ix(j - 1)][ix(j)] = c
        E[iy(j - 1)][iy(j)] = c
    E[ia(s - 1)][iy(0)] = ctx.one
    for i in range(s - 1):
        F[ia(i + 1)][ia(i)] = ctx.one
        F[ib(i + 1)][ib(i)] = ctx.one
    F[iy(0)][ib(s - 1)] = ctx.one
    for j in range(t - 1):
        F[ix(j + 1)][ix(j)] = ctx.one
        F[iy(j + 1)][iy(j)] = ctx.one
    F[ia(0)][ix(t - 1)] = ctx.one
    names = (
        [f"a{i}" for i in range(s)]
        + [f"b{i}" for i in range(s)]
        + [f"x{j}" for j in range(t)]
        + [f"y{j}" for j in range(t)]
    )
    return ModuleData(ctx, "P", sign, s, dim, names, *map(_freeze, (K, E, F)))


def mat_mul(ctx: FieldCtx, A, B):
    n, m, k = len(A), len(B[0]), len(B)
    out = [[ctx.zero] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    b = Bt[j]
                    if b:
                        row[j] = row[j] + a * b
    return _freeze(out)


def module_check(mod: ModuleData) -> dict:
    """Exact verification of the defining relations on one module."""
    ctx = mod.ctx
    p = ctx.p
    K, E, F = mod.K_matrix, mod.E_matrix, mod.F_matrix
    d = mod.dimension
    kd = [K[i][i] for i in range(d)]
    kek = _freeze(
        [[kd[i] * E[i][j] / kd[j] for j in range(d)] for i in range(d)]
    )
    kfk = _freeze(
        [[kd[i] * F[i][j] / kd[j] for j in range(d)] for i in range(d)]
    )
    q2E = _freeze([[E[i][j] * ctx.q_power(2) for j in range(d)] for i in range(d)])
    q2F = _freeze([[F[i][j] * ctx.q_power(-2) for j in range(d)] for i in range(d)])
    comm = mat_mul(ctx, E, F)
    fe = mat_mul(ctx, F, E)
    scale = (ctx.q - ctx.q_power(-1)).inv()
    comm_rhs = _freeze(
        [
            [
                (kd[i] - kd[i].inv()) * scale if i == j else ctx.zero
                for j in range(d)
            ]
            for i in range(d)
        ]
    )
    comm_lhs = _freeze(
        [[comm[i][j] - fe[i][j] for j in range(d)] for i in range(d)]
    )
    Ep, Fp = E, F
    for _ in range(p - 1):
        Ep, Fp = mat_mul(ctx, E, Ep), mat_mul(ctx, F, Fp)
    zero = _freeze([[ctx.zero] * d for _ in range(d)])
    return {
        "KEK^-1=q^2E": kek == q2E,
        "KFK^-1=q^-2F": kfk == q2F,
        "EF-FE=(K-K^-1)/(q-q^-1)": comm_lhs == comm_rhs,
        "E^p=0": Ep == zero,
        "F^p=0": Fp == zero,
        "K^2p=1": all(kd[i] ** (2 * p) == ctx.one for i in range(d)),
    }


def is_intertwiner(M, src: ModuleData, tgt: ModuleData) -> bool:
    """Does M satisfy M g_src = g_tgt M for g in {K, E, F}?"""
    ctx = src.ctx
    for gs, gt in (
        (src.K_matrix, tgt.K_matrix),
        (src.E_matrix, tgt.E_matrix),
        (src.F_matrix, tgt.F_matrix),
    ):
        if mat_mul(ctx, M, gs) != mat_mul(ctx, gt, M):
            return False
    return True


def intertwiner_space(src: ModuleData, tgt: ModuleData) -> HomBasis:
    """Exact basis of Hom(src, tgt) over Q(q)."""
    ctx = src.ctx
    assert ctx == tgt.ctx
    ds, dt = src.dimension, tgt.dimension
    rows = []
    for gs, gt in (
        (src.K_matrix, tgt.K_matrix),
        (src.E_matrix, tgt.E_matrix),
        (src.F_matrix, tgt.F_matrix),
    ):
        for i in range(dt):
            for j in range(ds):
                row: dict[int, tuple] = {}
                for k in range(ds):
                    c = gs[k][j]
                    if c:
                        kacc(row, i * ds + k, c.nums, c.den)
                for k in range(dt):
                    c = gt[i][k]
                    if c:
                        kacc(row, k * ds + j, *kneg(c.nums, c.den))
                if row:
                    rows.append(row)
    vecs = _elim.nullspace(ctx, rows, range(dt * ds))
    maps = []
    for v in vecs:
        M = [[ctx.zero] * ds for _ in range(dt)]
        for key, c in v.items():
            M[key // ds][key % ds] = CycloNum(ctx, *c)
        maps.append(_freeze(M))
    return HomBasis(src.label, tgt.label, maps)


def _expected_hom_dim(p: int, src: ModuleData, tgt: ModuleData) -> int | None:
    """The hom-space dimension table; None for untabulated pairs."""
    same = src.sign == tgt.sign
    if src.kind == "X" and tgt.kind == "X":
        return (1 if src.s == tgt.s else 0) if same else 0
    if src.kind == "P" and tgt.kind == "X" and tgt.s <= p - 1:
        return (1 if src.s == tgt.s else 0) if same else 0
    if src.kind == "P" and tgt.kind == "P":
        if same:
            return 2 if src.s == tgt.s else 0
        return 2 if src.s == p - tgt.s else 0
    return None


def _in_span(ctx: FieldCtx, basis_maps, M) -> bool:
    vec = lambda A: {
        (i, j): (c.nums, c.den) for i, row in enumerate(A) for j, c in enumerate(row) if c
    }
    vs = [vec(B) for B in basis_maps]
    r0 = _elim.rank_of_vectors(ctx, vs)
    return _elim.rank_of_vectors(ctx, vs + [vec(M)]) == r0


def all_modules(ctx: FieldCtx) -> list[ModuleData]:
    mods = []
    for sign in (1, -1):
        for s in range(1, ctx.p + 1):
            mods.append(simple_module(ctx, sign, s))
        for s in range(1, ctx.p):
            mods.append(projective_module(ctx, sign, s))
    return mods


def verify_hom_forms(ctx: FieldCtx) -> dict:
    """Check the dimension table and every explicit hom-map form.

    Each explicit map must commute with the action and lie in the span of
    the solver's basis.  Returns a JSON-ready report.
    """
    p = ctx.p
    mods = all_modules(ctx)
    solved = {}

    def hom_space(src, tgt):
        key = (src.label, tgt.label)
        if key not in solved:
            solved[key] = intertwiner_space(src, tgt)
        return solved[key]

    table_failures = []
    for src in mods:
        for tgt in mods:
            expected = _expected_hom_dim(p, src, tgt)
            if expected is None:
                continue
            got = hom_space(src, tgt).dimension
            if got != expected:
                table_failures.append(
                    {"source": src.label, "target": tgt.label,
                     "expected": expected, "got": got}
                )
    entries = []

    def check(src, tgt, M, name):
        hom = hom_space(src, tgt)
        entries.append(
            {
                "map": name,
                "source": src.label,
                "target": tgt.label,
                "intertwiner": is_intertwiner(M, src, tgt),
                "in_span": _in_span(ctx, hom.maps, M),
            }
        )

    for sign in (1, -1):
        for s in range(1, p):
            X = simple_module(ctx, sign, s)
            P = projective_module(ctx, sign, s)
            Pop = projective_module(ctx, -sign, p - s)
            t = p - s
            # P -> X: b_i |-> nu_i
            M = [[ctx.zero] * (2 * p) for _ in range(s)]
            for i in range(s):
                M[i][s + i] = ctx.one
            check(P, X, _freeze(M), "b->nu")
            # X -> P: nu_i |-> a_i
            M = [[ctx.zero] * s for _ in range(2 * p)]
            for i in range(s):
                M[i][i] = ctx.one
            check(X, P, _freeze(M), "nu->a")
            # P -> P: b_i |-> a_i
            M = [[ctx.zero] * (2 * p) for _ in range(2 * p)]
            for i in range(s):
                M[i][s + i] = ctx.one
            check(P, P, _freeze(M), "b->a")
            # P(sign, s) -> P(-sign, p-s), basis choices (f1,f2)=(1,0),(0,1)
            for f1, f2, name in ((1, 0, "f1"), (0, 1, "f2")):
                M = [[ctx.zero] * (2 * p) for _ in range(2 * p)]
                for i in range(s):
                    # target x index 2t + i, y index 2t + s + i
                    if f1:
                        M[2 * t + i][s + i] = ctx.one
                    if f2:
                        M[2 * t + s + i][s + i] = ctx.one
                for j in range(t):
                    if f2:
                        M[j][2 * s + j] = ctx.one
                    if f1:
                        M[j][2 * s + t + j] = ctx.one
                check(P, Pop, _freeze(M), f"b->x,y ({name})")

    ok = not table_failures and all(
        e["intertwiner"] and e["in_span"] for e in entries
    )
    return {
        "p": p,
        "ok": ok,
        "table_failures": table_failures,
        "explicit_maps": entries,
    }
