"""Indecomposable modules as explicit matrices, plus the intertwiner solver.

Simple modules X(sign, s) of dimension s for 1 <= s <= p, and projective
modules P(sign, s) of dimension 2p for 1 <= s <= p-1, with the K/E/F
action in the standard bases.  Matrices are row-major tuples of CycloNum;
column j is the image of basis vector j.  The intertwiner solver computes
an exact nullspace basis of the commutation constraints and reproduces the
hom-space dimension table.  K is diagonal, so it solves only for the
entries between equal K eigenvalues, under the E and F constraints; it
hands ``uqsl2._elim`` kernel pairs and wraps the solved maps back into
CycloNum matrices.  Each module's K eigenvalues and E/F nonzero entries
are read from its matrices once, on first use, and reused by every pair.
"""

from __future__ import annotations

from uqsl2 import _elim
from uqsl2._kernel import kacc, kmul, kneg
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
        "_sparse",
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
        self._sparse = None

    def sparse(self) -> tuple:
        """(K eigenvalues, E entries, F entries) as kernel pairs, read once.

        The eigenvalues come one per basis vector; each of E and F comes as
        (the nonzero (row, nums, den) of every column, the negated nonzero
        (column, nums, den) of every row), indices ascending.  Raises
        ArithmeticError, on every call, if K is not diagonal.
        """
        if self._sparse is None:
            K, d = self.K_matrix, self.dimension
            if any(c for i, row in enumerate(K) for j, c in enumerate(row) if i != j):
                raise ArithmeticError(f"K of {self.label} is not diagonal")
            ef = tuple(
                ([[(k, c.nums, c.den) for k in range(d) if (c := M[k][j])] for j in range(d)],
                 [[(k, *kneg(c.nums, c.den)) for k, c in enumerate(M[i]) if c] for i in range(d)])
                for M in (self.E_matrix, self.F_matrix)
            )
            self._sparse = (tuple((K[i][i].nums, K[i][i].den) for i in range(d)), *ef)
        return self._sparse

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
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign}")
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
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign}")
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


def is_intertwiner(M, src: ModuleData, tgt: ModuleData) -> bool:
    """Does M satisfy M g_src = g_tgt M for g in {K, E, F}?

    Both K are diagonal, so K commutes iff every nonzero M[i][j] joins equal
    eigenvalues.  For E and F, g_tgt M - M g_src is summed over the nonzeros
    of M into a sparse dict of kernel pairs, which must come out empty.
    """
    red = src.ctx.red
    (ks, *src_ef), (kt, *tgt_ef) = src.sparse(), tgt.sparse()
    nonzeros = [(i, j, c.nums, c.den) for i, row in enumerate(M) for j, c in enumerate(row) if c]
    if any(kt[i] != ks[j] for i, j, _, _ in nonzeros):
        return False
    for (_, srows), (tcols, _) in zip(src_ef, tgt_ef):
        acc: dict = {}
        for i, j, n, d in nonzeros:
            for k, cn, cd in srows[j]:  # negated g_src[j][k]
                kacc(acc, (i, k), *kmul(n, d, cn, cd, red))
            for k, cn, cd in tcols[i]:  # g_tgt[k][i]
                kacc(acc, (k, j), *kmul(cn, cd, n, d, red))
        if acc:
            return False
    return True


def intertwiner_space(src: ModuleData, tgt: ModuleData) -> HomBasis:
    """Exact basis of Hom(src, tgt) over Q(q).

    Both K matrices are diagonal, so the K constraint at entry (i, j) is
    M[i][j] (K_tgt[i] - K_src[j]) = 0: only the entries between equal K
    eigenvalues are unknowns, and the E and F constraints are solved on
    them alone.
    """
    ctx = src.ctx
    if ctx != tgt.ctx:
        raise ValueError(f"modules over different fields: {ctx} and {tgt.ctx}")
    ds, dt = src.dimension, tgt.dimension
    (ks, *src_ef), (kt, *tgt_ef) = src.sparse(), tgt.sparse()
    by_value: dict = {}
    for j, k in enumerate(ks):
        by_value.setdefault(k, []).append(j)
    live = {i * ds + j for i, k in enumerate(kt) for j in by_value.get(k, ())}
    rows = []
    for (scols, _), (_, trows) in zip(src_ef, tgt_ef):
        for i in range(dt):
            for j in range(ds):
                row: dict[int, tuple] = {}
                for k, n, d in scols[j]:
                    if (key := i * ds + k) in live:
                        kacc(row, key, n, d)
                for k, n, d in trows[i]:
                    if (key := k * ds + j) in live:
                        kacc(row, key, n, d)
                if row:
                    rows.append(row)
    vecs = _elim.nullspace(ctx, rows, sorted(live))
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
    rr = _elim.SparseRref(ctx)
    for B in basis_maps:
        rr.add_row(vec(B))
    return not rr.add_row(vec(M))


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
