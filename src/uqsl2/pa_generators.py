"""The extra planar-algebra generators on X^(tensor 2p-1).

alpha raises occupancy weight k to k+p (zero on weights >= p), beta lowers
k to k-p (zero on weights < p); both are module endomorphisms whose image
is the simple of dimension p with flipped sign.  gamma is the scalar
(-1)^(p-1) ([p-1]!)^2 controlling their compositions.

Each generator is built twice, from the explicit coefficient formula and
from the e_x / f_x scalars obtained by genuinely iterating E and F, and
the two must agree column by column, or construction raises
ArithmeticError.
"""

from __future__ import annotations

from itertools import combinations

from uqsl2.cyclo_field import FieldCtx, make_field
from uqsl2.diagram_algebra import cap, cup
from uqsl2.tensor_space import (
    BasisIndex,
    LinOp,
    TensorVector,
    all_indices,
    apply_e,
    apply_f,
    basis_index,
    f_power,
    x_bottom,
    x_top,
)


class GeneratorSet:
    """alpha, beta, gamma at one root of unity, plus the ladder scalars."""

    __slots__ = ("ctx", "p", "alpha", "beta", "gamma", "e_scalars", "f_scalars")

    def __init__(self, ctx, alpha, beta, gamma, e_scalars, f_scalars):
        self.ctx = ctx
        self.p = ctx.p
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.e_scalars = e_scalars
        self.f_scalars = f_scalars

    def __repr__(self):
        return f"GeneratorSet(p={self.p})"


def make_generators(p) -> GeneratorSet:
    """Build alpha, beta, gamma for the given p (or an existing field)."""
    ctx = p if isinstance(p, FieldCtx) else make_field(p)
    p = ctx.p
    z = 2 * p - 1
    top = x_top(z)
    bottom = x_bottom(z)
    # E^m applied to the fully occupied vector, F^m to the empty one,
    # by honest iteration
    e_tops = [TensorVector.unit(ctx, top)]
    f_bots = [TensorVector.unit(ctx, bottom)]
    for _ in range(p):
        e_tops.append(apply_e(ctx, e_tops[-1]))
        f_bots.append(apply_f(ctx, f_bots[-1]))
    alpha_cols = {}
    beta_cols = {}
    e_scalars = {}
    f_scalars = {}
    for b in all_indices(z):
        k = b.weight
        base = ctx.q_power(k * z - (k * k - k) // 2 - sum(b.occupancy))
        if k < p:
            # E^k x lands on the empty vector; read off e_x
            v = TensorVector.unit(ctx, b)
            for _ in range(k):
                v = apply_e(ctx, v)
            e_x = v.coeff(bottom)
            e_scalars[b] = e_x
            explicit = e_tops[p - k - 1] * (base * ctx.qfact(k))
            if explicit != e_tops[p - k - 1] * e_x:
                raise ArithmeticError(f"alpha column {b}: explicit and iterated E disagree")
            if explicit:
                alpha_cols[b] = explicit
        else:
            # F^(z-k) x lands on the full vector; read off f_x
            v = TensorVector.unit(ctx, b)
            for _ in range(z - k):
                v = apply_f(ctx, v)
            f_x = v.coeff(top)
            f_scalars[b] = f_x
            explicit = f_bots[k - p] * (base * ctx.qfact(z - k))
            if explicit != f_bots[k - p] * f_x:
                raise ArithmeticError(f"beta column {b}: explicit and iterated F disagree")
            if explicit:
                beta_cols[b] = explicit
    alpha = LinOp(ctx, z, z, alpha_cols)
    beta = LinOp(ctx, z, z, beta_cols)
    gamma = ctx.qfact(p - 1) ** 2 * ctx.scalar((-1) ** (p - 1))
    return GeneratorSet(ctx, alpha, beta, gamma, e_scalars, f_scalars)


def embed(op: LinOp, i: int, n: int) -> LinOp:
    """Place a square operator on strands i .. i+width-1 of n, identity
    elsewhere."""
    assert op.z_in == op.z_out, "embed needs a square operator"
    w = op.z_in
    if not 1 <= i <= n - w + 1:
        raise ValueError(f"cannot place a width-{w} operator at {i} of {n}")
    ctx = op.ctx
    out = LinOp.identity(ctx, i - 1).tensor(op)
    return out.tensor(LinOp.identity(ctx, n - w - i + 1))


def partial_trace_right(op: LinOp) -> LinOp:
    """Close the last strand: (id x cup) (op x id) (id x cap)."""
    n = op.z_in
    assert op.z_out == n, "partial trace needs a square operator"
    ctx = op.ctx
    wide = op.tensor(LinOp.identity(ctx, 1))
    return cup(ctx, n, n + 1) * wide * cap(ctx, n, n + 1)


def partial_trace_left(op: LinOp) -> LinOp:
    """Close the first strand instead."""
    n = op.z_in
    assert op.z_out == n, "partial trace needs a square operator"
    ctx = op.ctx
    wide = LinOp.identity(ctx, 1).tensor(op)
    return cup(ctx, 1, n + 1) * wide * cap(ctx, 1, n + 1)


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
        cols[b] = lowered * (sign * ctx.q_power(expo))
    return LinOp(ctx, z, z, cols)


def nested_cap(ctx: FieldCtx, z: int) -> TensorVector:
    """z nested caps, built by actually inserting one cap at a time."""
    assert z >= 1
    vec = cap(ctx, 1, 2).column(BasisIndex(0, 0))
    for j in range(1, z):
        vec = cap(ctx, j + 1, 2 * j + 2).apply(vec)
    return vec


def nested_cap_closed(ctx: FieldCtx, z: int) -> TensorVector:
    """The closed-form expansion of the z-fold nested cap: occupied slots
    r_1..r_n on the left half and the reflected complement on the right,
    weighted by (-1)^(z-n) q^(-n)."""
    assert z >= 1
    terms = {}
    for n in range(z + 1):
        for r in combinations(range(1, z + 1), n):
            comp = [x for x in range(1, z + 1) if x not in r]
            occ = list(r) + [2 * z + 1 - x for x in reversed(comp)]
            c = ctx.q_power(-n) * ctx.scalar((-1) ** (z - n))
            terms[basis_index(2 * z, occ)] = c
    return TensorVector(ctx, 2 * z, terms)


def nested_cup(ctx: FieldCtx, z: int) -> LinOp:
    """z nested cups as a functional X^(tensor 2z) -> X^(tensor 0)."""
    assert z >= 1
    op = None
    for j in range(z, 0, -1):
        c = cup(ctx, j, 2 * j)
        op = c if op is None else c * op
    return op
