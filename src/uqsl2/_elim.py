"""Sparse exact linear algebra over Q(q): row reduction and nullspaces.

Rows and returned vectors map column keys (any comparable, hashable
values) to nonzero kernel pairs (nums, den) as used by ``uqsl2._kernel``;
that is the only scalar form here, so callers holding CycloNum values wrap
and unwrap at their own boundary.  The one CycloNum in this module is the
field inverse behind each pivot.  Everything here is exact; there is no
pivoting heuristic beyond smallest column key, which keeps results
deterministic.
"""

from __future__ import annotations

from functools import lru_cache

from uqsl2._kernel import kmul, kneg, krow_axpy
from uqsl2.cyclo_field import CycloNum, FieldCtx


@lru_cache(maxsize=None)
def _pivot_inv(ctx: FieldCtx, nums: tuple, den: int) -> tuple:
    """Kernel-form inverse of a pivot value.

    FieldCtx hashes and compares by p, so the key is exactly (p, nums, den)
    and a hit returns the same inverse a fresh computation would.
    """
    inv = CycloNum(ctx, nums, den).inv()
    return inv.nums, inv.den


class SparseRref:
    """Incremental row-echelon accumulator.

    Pivot rows are normalized to pivot value 1, so eliminating a column
    from an incoming row is a single fused multiply-subtract pass.
    """

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: dict) -> bool:
        """Reduce ``row`` in place against the accumulated pivots.

        Absorbs the remainder as a new pivot row when it is nonzero.
        Returns True iff the rank grew.
        """
        red = self.ctx.red
        while row:
            c = min(row)
            cn, cd = row[c]
            if not any(cn):
                del row[c]
                continue
            piv = self.pivots.get(c)
            if piv is None:
                inn, ind = _pivot_inv(self.ctx, cn, cd)
                for k in list(row):
                    vn, vd = row[k]
                    row[k] = kmul(vn, vd, inn, ind, red)
                self.pivots[c] = row
                return True
            krow_axpy(row, piv, cn, cd, red)
        return False


def rank_of_vectors(ctx: FieldCtx, vectors) -> int:
    """Rank of a family of kernel rows; the rows are not modified."""
    rr = SparseRref(ctx)
    for v in vectors:
        rr.add_row(dict(v))
    return rr.rank


def nullspace(ctx: FieldCtx, rows, columns) -> list[dict]:
    """Exact nullspace basis of {row . x = 0 for every row}.

    ``columns`` fixes the order of the free variables, so the basis is
    deterministic: one vector per free column, with that coordinate 1.
    Returns kernel-form vectors; the rows are not modified.
    """
    rr = SparseRref(ctx)
    for row in rows:
        rr.add_row(dict(row))
    red = ctx.red
    pivs = rr.pivots
    for pc in sorted(pivs, reverse=True):
        row = pivs[pc]
        for c in sorted(k for k in row if k != pc and k in pivs):
            e = row.get(c)
            if e is not None:
                krow_axpy(row, pivs[c], e[0], e[1], red)
    basis = []
    one = (ctx.one.nums, ctx.one.den)
    for f in columns:
        if f in pivs:
            continue
        vec = {f: one}
        for pc, row in pivs.items():
            e = row.get(f)
            if e is not None:
                vec[pc] = kneg(*e)
        basis.append(vec)
    return basis
