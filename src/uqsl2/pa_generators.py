"""The extra planar-algebra generators on X^(tensor 2p-1).

alpha raises occupancy weight k to k+p (zero on weights >= p), beta lowers
k to k-p (zero on weights < p); both are module endomorphisms whose image
is the simple of dimension p with flipped sign.  gamma is the scalar
(-1)^(p-1) ([p-1]!)^2 controlling their compositions.

Each generator is built twice, from the explicit coefficient formula and
from the e_x / f_x scalars obtained by genuinely iterating E and F, and
the two must agree column by column, or construction raises
ArithmeticError.  The scalars serve only that comparison and are not
kept.
"""

from __future__ import annotations

from itertools import combinations

from uqsl2.cyclo_field import FieldCtx
from uqsl2._kernel import krow_axpy
from uqsl2.diagram_algebra import cap_outputs, cup_outputs
from uqsl2.tensor_space import (
    LinOp,
    _op,
    all_indices,
    basis_index,
    f_power,
    op_E,
    op_F,
    unit,
    vector,
    widen,
    x_bottom,
    x_top,
)


class GeneratorSet:
    """alpha, beta, gamma at one root of unity."""

    __slots__ = ("ctx", "p", "alpha", "beta", "gamma")

    def __init__(self, ctx, alpha, beta, gamma):
        self.ctx = ctx
        self.p = ctx.p
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma

    def __repr__(self):
        return f"GeneratorSet(p={self.p})"


def make_generators(p: int) -> GeneratorSet:
    """Build alpha, beta, gamma for the given p."""
    ctx = FieldCtx(p)
    z = 2 * p - 1
    top = x_top(z)
    bottom = x_bottom(z)
    # E^m applied to the fully occupied vector, F^m to the empty one,
    # by honest iteration
    E, F = op_E(ctx, z), op_F(ctx, z)
    e_tops = [unit(ctx, top)]
    f_bots = [unit(ctx, bottom)]
    for _ in range(p):
        e_tops.append(E * e_tops[-1])
        f_bots.append(F * f_bots[-1])
    alpha_cols = {}
    beta_cols = {}
    for b in all_indices(z):
        k = b.weight
        base = ctx.q_power(k * z - (k * k - k) // 2 - sum(b.occupancy))
        if k < p:
            # E^k x lands on the empty vector; read off e_x
            v = unit(ctx, b)
            for _ in range(k):
                v = E * v
            e_x = v.coeff(bottom)
            explicit = e_tops[p - k - 1].scale(base * ctx.qfact(k))
            if explicit != e_tops[p - k - 1].scale(e_x):
                raise ArithmeticError(f"alpha column {b}: explicit and iterated E disagree")
            if explicit:
                alpha_cols[b] = explicit
        else:
            # F^(z-k) x lands on the full vector; read off f_x
            v = unit(ctx, b)
            for _ in range(z - k):
                v = F * v
            f_x = v.coeff(top)
            explicit = f_bots[k - p].scale(base * ctx.qfact(z - k))
            if explicit != f_bots[k - p].scale(f_x):
                raise ArithmeticError(f"beta column {b}: explicit and iterated F disagree")
            if explicit:
                beta_cols[b] = explicit
    alpha = LinOp(ctx, z, z, alpha_cols)
    beta = LinOp(ctx, z, z, beta_cols)
    gamma = ctx.qfact(p - 1) ** 2 * ctx.scalar((-1) ** (p - 1))
    return GeneratorSet(ctx, alpha, beta, gamma)


def embed(op: LinOp, i: int, n: int) -> LinOp:
    """Place a square operator on strands i .. i+width-1 of n, identity
    elsewhere."""
    if op.z_in != op.z_out:
        raise ValueError("embed needs a square operator")
    w = op.z_in
    if not 1 <= i <= n - w + 1:
        raise ValueError(f"cannot place a width-{w} operator at {i} of {n}")
    return widen(op, i - 1, n - w - i + 1)


def _trace_strand(op: LinOp, j: int, full: int) -> LinOp:
    """Close strand j of a square op with a cup over a cap: the block of op
    where strand j is occupied on both sides times q^full, plus the block
    where it is empty on both sides times q^-full, strand j removed."""
    n = op.z_in
    if op.z_out != n:
        raise ValueError("partial trace needs a square operator")
    ctx, bit, low = op.ctx, 1 << (j - 1), (1 << (j - 1)) - 1
    empty, occupied, table = ctx.qid(-full), ctx.qid(full), ctx.table
    cols = {}
    for m, col in op.columns.items():
        side = m & bit
        krow_axpy(cols.setdefault((m & low) | (m >> 1) & ~low, {}),
                 {(t & low) | (t >> 1) & ~low: x for t, x in col.items() if t & bit == side},
                 occupied if side else empty, table)
    return _op(ctx, n - 1, n - 1, {b: a for b, a in cols.items() if a})


def partial_trace_right(op: LinOp) -> LinOp:
    """Close the last strand: (id x cup) (op x id) (id x cap), which is
    q^-1 times the block where it is occupied plus q times the empty one."""
    return _trace_strand(op, op.z_in, -1)


def partial_trace_left(op: LinOp) -> LinOp:
    """Close the first strand instead: q times the block where it is
    occupied plus q^-1 times the empty one."""
    return _trace_strand(op, 1, 1)


def partial_trace_comparison(ctx: FieldCtx) -> LinOp:
    """The closed-form map the partial trace of beta.alpha must equal:
    supported on weight p-1 of X^(tensor 2p-2), sending rho to
    (-1)^p q^(1 - p^2 - (p^2-p)/2 - sum of positions) ([p-1]!) F^(p-1) x_bottom."""
    p = ctx.p
    z = 2 * p - 2
    lowered = f_power(ctx, p - 1, z).column(x_bottom(z))
    sign = ctx.scalar((-1) ** p) * ctx.qfact(p - 1)
    cols = {}
    for b in all_indices(z):
        if b.weight != p - 1:
            continue
        expo = 1 - p * p - (p * p - p) // 2 - sum(b.occupancy)
        cols[b] = lowered.scale(sign * ctx.q_power(expo))
    return LinOp(ctx, z, z, cols)


def nested_cap(ctx: FieldCtx, z: int) -> LinOp:
    """z nested caps, a vector X^(tensor 0) -> X^(tensor 2z), built by
    actually inserting one cap at a time."""
    if z < 1:
        raise ValueError(f"nested caps need z >= 1, got {z}")
    op = LinOp.identity(ctx, 0)
    for j in range(1, z + 1):
        op = cap_outputs(op, j)
    return op


def nested_cap_closed(ctx: FieldCtx, z: int) -> LinOp:
    """The closed-form expansion of the z-fold nested cap: occupied slots
    r_1..r_n on the left half and the reflected complement on the right,
    weighted by (-1)^(z-n) q^(-n)."""
    if z < 1:
        raise ValueError(f"nested caps need z >= 1, got {z}")
    terms = {}
    for n in range(z + 1):
        for r in combinations(range(1, z + 1), n):
            comp = [x for x in range(1, z + 1) if x not in r]
            occ = list(r) + [2 * z + 1 - x for x in reversed(comp)]
            c = ctx.q_power(-n) * ctx.scalar((-1) ** (z - n))
            terms[basis_index(2 * z, occ)] = c
    return vector(ctx, 2 * z, terms)


def nested_cup(ctx: FieldCtx, z: int) -> LinOp:
    """z nested cups as a functional X^(tensor 2z) -> X^(tensor 0)."""
    if z < 1:
        raise ValueError(f"nested cups need z >= 1, got {z}")
    op = LinOp.identity(ctx, 2 * z)
    for j in range(z, 0, -1):
        op = cup_outputs(op, j)
    return op
