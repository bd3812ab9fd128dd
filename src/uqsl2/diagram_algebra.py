"""Temperley-Lieb diagrams and their realization on tensor powers of X.

Diagrams are non-crossing perfect matchings between n_top points (read
left to right) and n_bottom points; as maps they send X^(tensor n_bottom)
to X^(tensor n_top).  The matrix realization sends cups and caps to the
standard intertwiners

    cup: v01 -> -q, v10 -> 1;   cap: 1 -> q^-1 v10 - v01

on adjacent strands.  Every tangle the checks apply is an index map on
the entries of an operator, without building a cup or cap matrix:
``cup_outputs`` (cup_i . X) and ``cap_inputs`` (X . cap_i) close two
strands, ``cap_outputs`` (cap_i . X) and ``cup_inputs`` (X . cup_i) open
two, e_i . X and X . e_i are a close then an open (``e_left``,
``e_right``), and ``rotation`` moves each entry of an operator from m
strands to n (m, n >= 1) to one new place times a unit.  ``cup``,
``cap`` and ``e_op`` are these maps applied to the identity.

Both zig-zag composites of a plain cup over a plain cap equal minus the
identity, so realizing a diagram by an arbitrary cup/cap factorization
is not well defined.  ``diagram_to_matrix`` fixes one sign per arc
instead: a cup or cap is negated when the through strands left of its
left end plus the arcs enclosing it are odd in number.  Under this rule
the realization is a homomorphism of the diagram algebra, and every
e_i, hence the image of the algebra, is the plain one.
"""

from __future__ import annotations

from itertools import combinations

from uqsl2._kernel import ONE, krow_axpy
from uqsl2.cyclo_field import FieldCtx, factorials
from uqsl2.tensor_space import (
    BasisIndex,
    LinOp,
    _op,
    _times,
    all_indices,
    vector,
    widen,
)


class JWUndefined(ArithmeticError):
    """Jones-Wenzl recursion hit a vanishing quantum integer."""


def _linear(pt, n_top: int, n_bottom: int) -> int:
    """Boundary position in the cyclic order top 1..n_top, then bottom
    n_bottom..1 (so non-crossing equals balanced parentheses)."""
    side, i = pt
    if side == "t":
        return i - 1
    return n_top + (n_bottom - i)


class TLDiagram:
    """A planar pairing of boundary points."""

    __slots__ = ("n_top", "n_bottom", "pairs")

    def __init__(self, n_top: int, n_bottom: int, pairs):
        if (n_top + n_bottom) % 2:
            raise ValueError(f"{n_top} + {n_bottom} boundary points cannot be paired")
        self.n_top = n_top
        self.n_bottom = n_bottom
        lin = lambda pt: _linear(pt, n_top, n_bottom)
        norm = []
        seen = set()
        for a, b in pairs:
            if a == b:
                raise ValueError(f"boundary point {a} paired with itself")
            if lin(a) > lin(b):
                a, b = b, a
            norm.append((a, b))
            seen.update((a, b))
        expected = {("t", i) for i in range(1, n_top + 1)} | {
            ("b", j) for j in range(1, n_bottom + 1)
        }
        if seen != expected or len(seen) != 2 * len(norm):
            raise ValueError("pairing must cover every boundary point once")
        norm.sort(key=lambda ab: lin(ab[0]))
        self.pairs = tuple(norm)
        # planarity: balanced-parenthesis check in the linear order
        stack = []
        opens = {lin(a): lin(b) for a, b in self.pairs}
        for pos in range(n_top + n_bottom):
            if pos in opens:
                stack.append(opens[pos])
            elif not stack or stack.pop() != pos:
                raise ValueError("crossing pairing")

    def key(self):
        return (self.n_top, self.n_bottom, self.pairs)

    def __eq__(self, other):
        if not isinstance(other, TLDiagram):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def to_parens(self) -> str:
        lin = lambda pt: _linear(pt, self.n_top, self.n_bottom)
        opens = {lin(a) for a, _ in self.pairs}
        return "".join(
            "(" if pos in opens else ")" for pos in range(self.n_top + self.n_bottom)
        )

    def __repr__(self):
        return f"TLDiagram({self.n_top}<-{self.n_bottom}, {self.to_parens()})"


def noncrossing(points):
    """Every noncrossing perfect matching of ``points``, a sequence read in
    order, as a tuple of pairs: the first point with each possible partner
    in turn, then the matchings inside and outside that arc."""
    if not points:
        yield ()
        return
    first = points[0]
    for k in range(1, len(points), 2):
        for inner in noncrossing(points[1:k]):
            for outer in noncrossing(points[k + 1:]):
                yield ((first, points[k]),) + inner + outer


def all_diagrams(n_top: int, n_bottom: int) -> list[TLDiagram]:
    """Every planar pairing, enumerated deterministically."""
    if (n_top + n_bottom) % 2:
        raise ValueError(f"{n_top} + {n_bottom} boundary points cannot be paired")
    seq = [("t", i) for i in range(1, n_top + 1)]
    seq += [("b", j) for j in range(n_bottom, 0, -1)]
    return [TLDiagram(n_top, n_bottom, pairs) for pairs in noncrossing(seq)]


# --- matrix realization -----------------------------------------------------

def cup(ctx: FieldCtx, i: int, n: int) -> LinOp:
    """Evaluation on strands i, i+1: v01 -> -q, v10 -> 1, else 0."""
    return cup_outputs(LinOp.identity(ctx, n), i)


def cap(ctx: FieldCtx, i: int, n: int) -> LinOp:
    """Coevaluation into strands i, i+1 of n: 1 -> q^-1 v10 - v01."""
    return cap_inputs(LinOp.identity(ctx, n), i)


def _strand_gap(kind: str, i: int, n: int) -> int:
    """Mask of the strands below i; raises unless strands i, i+1 exist among n."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"{kind} position {i} out of range for {n} strands")
    return (1 << (i - 1)) - 1


def cup_outputs(op: LinOp, i: int) -> LinOp:
    """cup_i . op: close output strands i, i+1 of op.  An index map: each
    entry is written once, times 1 where the strands read 10, -q where 01."""
    ctx, n = op.ctx, op.z_out
    low = _strand_gap("cup", i, n)
    lo, hi = 1 << (i - 1), 1 << i
    table, mq = ctx.table, ctx.qid(ctx.p + 1)
    muls, adds = table.mul, table.add
    cols = {}
    # The sum is inlined rather than krow_axpy on two split dicts: this is
    # the closure that kp_periodicity runs on whole rotation orbits.
    for m, col in op.columns.items():
        acc = {}
        for t, x in col.items():
            s = t & (lo | hi)
            if s == lo or s == hi:
                if s == hi:
                    x = muls.get((x, mq)) or table.product(x, mq)
                k = (t & low) | (t >> 2) & ~low
                e = acc.get(k)
                if e is None:
                    acc[k] = x
                    continue
                r = adds.get((e, x))
                if r is None:
                    r = table.addition(e, x)
                if r:
                    acc[k] = r
                else:
                    del acc[k]
        if acc:
            cols[m] = acc
    return _op(ctx, op.z_in, n - 2, cols)


def cap_inputs(op: LinOp, i: int) -> LinOp:
    """op . cap_i: close input strands i, i+1 of op.  An index map: each
    entry is written once, times q^-1 where the strands read 10, -1 where 01."""
    ctx, n = op.ctx, op.z_in
    low = _strand_gap("cap", i, n)
    lo, hi = 1 << (i - 1), 1 << i
    table, qinv, minus = ctx.table, ctx.qid(-1), ctx.qid(ctx.p)
    accs: dict = {}
    for m, col in op.columns.items():
        s = m & (lo | hi)
        if s == lo or s == hi:
            unit = qinv if s == lo else minus
            krow_axpy(accs.setdefault((m & low) | (m >> 2) & ~low, {}), col, unit, table)
    return _op(ctx, n - 2, op.z_out, {b: a for b, a in accs.items() if a})


def cap_outputs(op: LinOp, i: int) -> LinOp:
    """cap_i . op: open output strands i, i+1 of op with a cap.  An index
    map: each entry is written twice, times q^-1 with the new strands
    reading 10 and times -1 with them reading 01, and never summed."""
    ctx, n = op.ctx, op.z_out + 2
    low = _strand_gap("cap", i, n)
    lo, hi = 1 << (i - 1), 1 << i
    table, qinv = ctx.table, ctx.qid(-1)
    muls, negs = table.mul, table.neg
    cols = {}
    for m, col in op.columns.items():
        terms = {}
        for t, x in col.items():
            base = (t & low) | (t & ~low) << 2
            terms[base | lo] = muls.get((x, qinv)) or table.product(x, qinv)
            terms[base | hi] = negs.get(x) or table.negation(x)
        cols[m] = terms
    return _op(ctx, op.z_in, n, cols)


def cup_inputs(op: LinOp, i: int) -> LinOp:
    """op . cup_i: open input strands i, i+1 of op with a cup.  An index
    map: each column is written twice, times 1 under the input strands
    reading 10 and times -q under 01, and never summed."""
    ctx, n = op.ctx, op.z_in + 2
    low = _strand_gap("cup", i, n)
    lo, hi = 1 << (i - 1), 1 << i
    table, mq = ctx.table, ctx.qid(ctx.p + 1)
    cols = {}
    for m, col in op.columns.items():
        base = (m & low) | (m & ~low) << 2
        cols[base | lo] = col
        cols[base | hi] = _times(table, col, mq)
    return _op(ctx, n, op.z_out, cols)


def e_left(op: LinOp, i: int) -> LinOp:
    """e_i . op, as a cup then a cap on the outputs of op."""
    return cap_outputs(cup_outputs(op, i), i)


def e_right(op: LinOp, i: int) -> LinOp:
    """op . e_i, as a cap then a cup on the inputs of op."""
    return cup_inputs(cap_inputs(op, i), i)


def e_op(ctx: FieldCtx, i: int, n: int) -> LinOp:
    """The TL generator on strands i, i+1: cap after cup."""
    return e_left(LinOp.identity(ctx, n), i)


def diagram_to_matrix(ctx: FieldCtx, d: TLDiagram) -> LinOp:
    """Realize one diagram by writing its entries in one pass.

    A through strand copies its bit; a bottom cup reads 1 on 10 and -q on
    01, a top cap writes q^-1 as 10 and -1 as 01, and every other reading
    of a cup is 0.  An arc is negated when the through strands left of its
    left end plus the arcs enclosing it are odd in number.
    """
    table = ctx.table
    muls, negs = table.mul, table.neg
    through, arcs = [], {"t": [], "b": []}
    for a, b in d.pairs:
        if a[0] == b[0]:
            arcs[a[0]].append(tuple(sorted((a[1], b[1]))))
        else:
            through.append((a[1], b[1]))  # a is on top, first in the cyclic order

    def readings(side: str, ten: int, one: int) -> list:
        """The mask and value of each reading of all of one side's arcs: one of
        (10, ten) and (01, one) per arc, signed, their values multiplied."""
        ends = [t if side == "t" else b for t, b in through]
        out = [(0, ONE)]
        for lo, hi in arcs[side]:
            flip = sum(x < lo for x in ends) + sum(a < lo and hi < b for a, b in arcs[side])
            pair = [(1 << (lo - 1), ten), (1 << (hi - 1), one)]
            if flip % 2:
                pair = [(m, negs.get(x) or table.negation(x)) for m, x in pair]
            out = [(m | k, muls.get((x, y)) or table.product(x, y)) for m, x in out for k, y in pair]
        return out

    caps = readings("t", ctx.qid(-1), ctx.qid(ctx.p))
    bits = [(0, 0)]
    for i, j in through:
        bits += [(m | 1 << (j - 1), t | 1 << (i - 1)) for m, t in bits]
    cols = {}
    for m, x in readings("b", ONE, ctx.qid(ctx.p + 1)):
        terms = [(k, muls.get((x, y)) or table.product(x, y)) for k, y in caps]
        for through_in, through_out in bits:
            cols[m | through_in] = {through_out | k: y for k, y in terms}
    return _op(ctx, d.n_bottom, d.n_top, cols)


# --- Jones-Wenzl projections -------------------------------------------------

def jw_recursive(ctx: FieldCtx, n: int) -> LinOp:
    """f_n by the recursion f_(k+1) = L - ([k]/[k+1]) L e_k L, L = f_k x 1."""
    if n < 1:
        raise ValueError(f"Jones-Wenzl projections need n >= 1, got {n}")
    f = LinOp.identity(ctx, 1)
    for k in range(1, n):
        if not ctx.qint(k + 1):
            raise JWUndefined(
                f"recursion for f_{k + 1} divides by [{k + 1}] = 0"
            )
        lift = widen(f, 0, 1)
        f = lift - lift * e_left(lift, k) * (ctx.qint(k) / ctx.qint(k + 1))
    return f


def jw_closed(ctx: FieldCtx, n: int) -> LinOp:
    """f_n from the closed form rho_S -> q^(kn-(k^2-k)/2-sum S) .
    ([n-k]! [k]!/[n]!) (F^k x_bottom / [k]!), fusing the factorials so the
    lone vanishing factor cancels where it can.

    Finite for n <= p-1 and n = 2p-1; raises SingularRatio inside the
    window p <= n <= 2p-2 where the projection does not exist.
    """
    if n < 1:
        raise ValueError(f"Jones-Wenzl projections need n >= 1, got {n}")
    lowered = {}
    for k in range(0, n + 1):
        scalar = ctx.eval_ratio(factorials(n - k, k), factorials(n))
        # F^k x_bottom with its [k]! stripped off: the sum of
        # q^(k(k+1)/2 - sum S) rho_S over the k-subsets S
        base = k * (k + 1) // 2
        terms = {}
        for occ in combinations(range(1, n + 1), k):
            mask = 0
            for v in occ:
                mask |= 1 << (v - 1)
            terms[BasisIndex(n, mask)] = ctx.q_power(base - sum(occ)) * scalar
        lowered[k] = vector(ctx, n, terms)
    cols = {}
    for b in all_indices(n):
        k = b.weight
        coeff = ctx.q_power(k * n - (k * k - k) // 2 - sum(b.occupancy))
        cols[b] = lowered[k].scale(coeff)
    return LinOp(ctx, n, n, cols)


# --- rotation -----------------------------------------------------------------

def rotation(ctx: FieldCtx, f: LinOp) -> LinOp:
    """One clockwise click of an operator from m strands to n:
    (cup x id^n) (id x f x id) (id^m x cap), again from m strands to n.

    An index map: the entry of f at (out t, in s) moves to out t >> 1
    with strand n set to 1 - s_m, and in s << 1 (strand m dropped) with
    strand 1 set to 1 - t_1, times the cup factor (1 where t_1 = 0, -q
    where t_1 = 1) and the cap factor (q^-1 where s_m = 1, -1 where
    s_m = 0).  Distinct entries land on distinct places, so nothing is
    summed.
    """
    m, n = f.z_in, f.z_out
    if not (m and n):
        raise ValueError("rotation needs an input and an output strand")
    top, low = 1 << (n - 1), (1 << (m - 1)) - 1
    table, q, qinv = ctx.table, ctx.qid(1), ctx.qid(-1)
    muls, negs = table.mul, table.neg
    cols: dict = {}
    for s, col in f.columns.items():
        s_m, shifted = s >> (m - 1), (s & low) << 1
        gap, unit = (0, qinv) if s_m else (top, q)
        # t_1 = s_m negates into column shifted | (1 - s_m); the other
        # half takes the unit into column shifted | s_m
        same = cols.setdefault(shifted | (1 - s_m), {})
        other = cols.setdefault(shifted | s_m, {})
        for t, x in col.items():
            if t & 1 == s_m:
                same[t >> 1 | gap] = negs.get(x) or table.negation(x)
            else:
                other[t >> 1 | gap] = muls.get((x, unit)) or table.product(x, unit)
    return _op(ctx, m, n, {b: terms for b, terms in cols.items() if terms})
