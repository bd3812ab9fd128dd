"""Indecomposable modules and the intertwiner solver, on scalar ids.

Simple modules X(sign, s) of dimension s for 1 <= s <= p, and projective
modules P(sign, s) of dimension 2p for 1 <= s <= p-1, with the K/E/F
action in the standard bases.  A module is built from dicts
{(row, column): CycloNum} of the nonzero entries of K, E and F (column j
the image of basis vector j) and holds them as ids of its field's
``Scalars`` table.  The intertwiner solver computes an exact nullspace
basis of the commutation constraints, and ``verify_hom_forms`` checks
its dimensions against ``fusion_dims.hom_dim``.  K is diagonal, so the
solver solves only for the entries between equal K eigenvalues, under
the E and F constraints, and builds those constraint rows by scattering
each such unknown's E and F terms.
A hom space is the list of the solver's id vectors, keyed i * ds + j for
entry (i, j); the intertwiner and span checks run on id vectors.
"""

from __future__ import annotations

from uqsl2 import _elim
from uqsl2._kernel import ONE
from uqsl2.cyclo_field import FieldCtx
from uqsl2.fusion_dims import hom_dim


class ModuleData:
    """One module: its label and the three action matrices.

    K, E and F are dicts {(row, column): CycloNum} of their nonzero entries.
    """

    __slots__ = ("ctx", "kind", "sign", "s", "dimension", "label", "_ids", "_sparse")

    def __init__(self, ctx, kind, sign, s, dimension, K, E, F):
        self.ctx = ctx
        self.kind = kind
        self.sign = sign
        self.s = s
        self.dimension = dimension
        self.label = f"{kind}{'+' if sign > 0 else '-'}_{s}"
        self._ids = tuple({ij: c.id for ij, c in M.items() if c} for M in (K, E, F))
        self._sparse = None

    def sparse(self) -> tuple:
        """(K eigenvalues, K eigenspaces, E entries, F entries) as scalar ids.

        The eigenvalues come one per basis vector, and the eigenspaces map
        each eigenvalue to its basis indices; each of E and F comes as (the
        nonzero (row, id) of every column, the negated nonzero (column, id)
        of every row), indices ascending.  Raises ArithmeticError, on every
        call, if K is not diagonal.
        """
        if self._sparse is None:
            K, E, F = self._ids
            if any(i != j for i, j in K):
                raise ArithmeticError(f"K of {self.label} is not diagonal")
            d = self.dimension
            table = self.ctx.table
            negs = table.neg
            ef = []
            for M in (E, F):
                cols, rows = [[] for _ in range(d)], [[] for _ in range(d)]
                for (i, j), x in sorted(M.items()):
                    cols[j].append((i, x))
                    rows[i].append((j, negs.get(x) or table.negation(x)))
                ef.append((cols, rows))
            ks = tuple(K.get((i, i), 0) for i in range(d))
            spaces: dict = {}
            for i, k in enumerate(ks):
                spaces.setdefault(k, []).append(i)
            self._sparse = (ks, spaces, *ef)
        return self._sparse

    def __repr__(self):
        return f"ModuleData({self.label}, dim={self.dimension})"


def _signed(sign: int):
    return (lambda c: c) if sign > 0 else (lambda c: -c)


def simple_module(ctx: FieldCtx, sign: int, s: int) -> ModuleData:
    """The s-dimensional simple module X(sign, s), 1 <= s <= p."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign}")
    if not 1 <= s <= ctx.p:
        raise ValueError(f"simple modules need 1 <= s <= p, got s={s}")
    sg = _signed(sign)
    K, E, F = {}, {}, {}
    for n in range(s):
        K[n, n] = sg(ctx.q_power(s - 1 - 2 * n))
        if n >= 1:
            E[n - 1, n] = sg(ctx.qint(n) * ctx.qint(s - n))
        if n + 1 < s:
            F[n + 1, n] = ctx.one
    return ModuleData(ctx, "X", sign, s, s, K, E, F)


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
    sg, opp = _signed(sign), _signed(-sign)
    K, E, F = {}, {}, {}
    for i in range(s):
        K[ia(i), ia(i)] = K[ib(i), ib(i)] = sg(ctx.q_power(s - 1 - 2 * i))
    for j in range(t):
        K[ix(j), ix(j)] = K[iy(j), iy(j)] = opp(ctx.q_power(t - 1 - 2 * j))
    for i in range(1, s):
        c = sg(ctx.qint(i) * ctx.qint(s - i))
        E[ia(i - 1), ia(i)] = c
        E[ib(i - 1), ib(i)] = c
        E[ia(i - 1), ib(i)] = ctx.one
    E[ix(t - 1), ib(0)] = ctx.one
    for j in range(1, t):
        c = opp(ctx.qint(j) * ctx.qint(t - j))
        E[ix(j - 1), ix(j)] = c
        E[iy(j - 1), iy(j)] = c
    E[ia(s - 1), iy(0)] = ctx.one
    for i in range(s - 1):
        F[ia(i + 1), ia(i)] = ctx.one
        F[ib(i + 1), ib(i)] = ctx.one
    F[iy(0), ib(s - 1)] = ctx.one
    for j in range(t - 1):
        F[ix(j + 1), ix(j)] = ctx.one
        F[iy(j + 1), iy(j)] = ctx.one
    F[ia(0), ix(t - 1)] = ctx.one
    return ModuleData(ctx, "P", sign, s, dim, K, E, F)


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
    return tuple(map(tuple, out))


def _commutes(vec, src: ModuleData, tgt: ModuleData) -> bool:
    """Does the id vector {i * ds + j: id} of a map src -> tgt commute?

    Both K are diagonal, so K commutes iff every nonzero M[i][j] joins equal
    eigenvalues.  For E and F, g_tgt M - M g_src is summed over the nonzeros
    of M into a sparse dict of scalar ids, which must come out empty.
    """
    table = src.ctx.table
    muls, product, acc = table.mul, table.product, table.accumulate
    (ks, _, *src_ef), (kt, _, *tgt_ef) = src.sparse(), tgt.sparse()
    nonzeros = [(*divmod(key, src.dimension), x) for key, x in vec.items()]
    if any(kt[i] != ks[j] for i, j, _ in nonzeros):
        return False
    for (_, srows), (tcols, _) in zip(src_ef, tgt_ef):
        row: dict = {}
        for i, j, x in nonzeros:
            for k, c in srows[j]:  # negated g_src[j][k]
                acc(row, (i, k), muls.get((x, c)) or product(x, c))
            for k, c in tcols[i]:  # g_tgt[k][i]
                acc(row, (k, j), muls.get((c, x)) or product(c, x))
        if row:
            return False
    return True


def intertwiner_space(src: ModuleData, tgt: ModuleData) -> list:
    """Exact basis of Hom(src, tgt) over Q(q), as id vectors {i * ds + j: id}.

    Both K matrices are diagonal, so the K constraint at entry (i, j) is
    M[i][j] (K_tgt[i] - K_src[j]) = 0: only the entries between equal K
    eigenvalues are unknowns, and the E and F constraints are solved on
    them alone.  Row (a, b) of g is entry (a, b) of g_tgt M - M g_src, so
    unknown M[i][j] adds g_tgt[k][i] to row (k, j) and -g_src[j][l] to
    row (i, l); a pair without unknowns builds no rows.
    """
    ctx = src.ctx
    if ctx is not tgt.ctx:
        raise ValueError(f"modules over different fields: {ctx} and {tgt.ctx}")
    ds = src.dimension
    (_, spaces, *src_ef), (kt, _, *tgt_ef) = src.sparse(), tgt.sparse()
    live = [i * ds + j for i, k in enumerate(kt) for j in spaces.get(k, ())]
    if not live:
        return []
    acc = ctx.table.accumulate
    rows = []
    for (_, srows), (tcols, _) in zip(src_ef, tgt_ef):
        g: dict = {}
        for key in live:
            i, j = divmod(key, ds)
            for k, c in tcols[i]:
                r = g.get(at := k * ds + j)
                if r is None:
                    g[at] = {key: c}
                else:
                    r[key] = c  # the first term of this unknown in row (k, j)
            for l, c in srows[j]:
                r = g.get(at := i * ds + l)
                if r is None:
                    g[at] = {key: c}
                else:
                    acc(r, key, c)
        rows += g.values()
    return _elim.nullspace(ctx, rows, live)


def all_modules(ctx: FieldCtx) -> list[ModuleData]:
    mods = []
    for sign in (1, -1):
        for s in range(1, ctx.p + 1):
            mods.append(simple_module(ctx, sign, s))
        for s in range(1, ctx.p):
            mods.append(projective_module(ctx, sign, s))
    return mods


def verify_hom_forms(ctx: FieldCtx) -> dict:
    """Check the Hom dimension table on every ordered pair of
    indecomposables, and every explicit hom-map form.

    Each explicit map must commute with the action and lie in the span of
    the solver's basis.  Returns a JSON-ready report.
    """
    p = ctx.p
    mod = {(m.kind, m.sign, m.s): m for m in all_modules(ctx)}
    solved, table_failures = {}, []
    for a, src in mod.items():
        for b, tgt in mod.items():
            solved[src, tgt] = basis = intertwiner_space(src, tgt)
            expected = hom_dim(p, a, b)
            if len(basis) != expected:
                table_failures.append(
                    {"source": src.label, "target": tgt.label,
                     "expected": expected, "got": len(basis)}
                )
    entries = []

    def check(src, tgt, cells, name):
        """Check the map that sends basis vector j to i for each (i, j); the
        basis is independent, so vec is in its span iff adding it keeps the
        rank."""
        vec = {i * src.dimension + j: ONE for i, j in cells}
        basis = solved[src, tgt]
        entries.append(
            {
                "map": name,
                "source": src.label,
                "target": tgt.label,
                "intertwiner": _commutes(vec, src, tgt),
                "in_span": _elim.rank_of_vectors(ctx, [*basis, vec]) == len(basis),
            }
        )

    for sign in (1, -1):
        for s in range(1, p):
            X, P, Pop = mod["X", sign, s], mod["P", sign, s], mod["P", -sign, p - s]
            t = p - s
            b = range(s, 2 * s)
            check(P, X, zip(range(s), b), "b->nu")  # b_i |-> nu_i
            check(X, P, zip(range(s), range(s)), "nu->a")  # nu_i |-> a_i
            check(P, P, zip(range(s), b), "b->a")  # b_i |-> a_i
            # P(sign, s) -> P(-sign, p-s), basis choices (f1,f2)=(1,0),(0,1):
            # f1 sends b_i to x_i and y_j to a_j, f2 sends b_i to y_i and x_j
            # to a_j (target x_i is 2t + i, target y_i is 2t + s + i)
            x, y = range(2 * s, 2 * s + t), range(2 * s + t, 2 * p)
            tx, ty = range(2 * t, 2 * t + s), range(2 * t + s, 2 * p)
            check(P, Pop, [*zip(tx, b), *zip(range(t), y)], "b->x,y (f1)")
            check(P, Pop, [*zip(ty, b), *zip(range(t), x)], "b->x,y (f2)")

    ok = not table_failures and all(
        e["intertwiner"] and e["in_span"] for e in entries
    )
    return {
        "p": p,
        "ok": ok,
        "table_failures": table_failures,
        "explicit_maps": entries,
    }
