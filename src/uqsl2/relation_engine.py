"""Exact verification engine for the endomorphism-algebra relations.

Every check builds both sides of a stated identity as matrices over the
cyclotomic field, on the minimal strand count the identity needs, and
compares them entrywise; there are no tolerances.  A failing check carries
a witness: a basis vector where the sides differ, with both images.

Oversized requests raise InfeasibleSize instead of running.  Operator
identities refuse when the tensor space itself passes the budget
(2^strands > budget).  Rank and commutant solves, and the action-identity
and Jones-Wenzl window checks, whose loops grow like the matrix-entry
lattice, refuse when that lattice reaches it (4^n >= budget, which puts
8 strands exactly on the line and therefore off by default).  The
commutant End_U(X^n) is solved as Hom_U(1, X^2n), X being self-dual: the
invariants of X^2n, one weight slice w = n (mod p) at a time, whose 4^n
basis vectors are the same lattice the gate counts.  The reversal of the
complement, sigma, swaps E and F, so only the slices below the middle are
solved (each counted twice) and the middle one splits into two E-only
halves; an integer check of sigma E = F sigma on every mask used comes
first, once per slice and process, and raises ArithmeticError if it fails.

Where the diagrams span (n <= 2p - 2) each system's nullity is certified
by two bounds that must meet.  The upper bound is the column count minus
the rank modulo a prime l = 1 (mod 2p), q sent to a root of Phi_2p mod l,
taken row by row; rank mod l never exceeds the exact rank.  The lower
bound is the rank mod l of the sigma halves of the nested-cup invariants,
one per noncrossing matching, each first checked to be killed by E and F
as an identity in Z[q, 1/q] (ArithmeticError otherwise); the slices below
the middle get 0.  The modular elimination stops as soon as the bounds
meet.  A system whose bounds never meet, and every system above 2p - 2,
is eliminated exactly, so no reported dimension rests on a bound alone.

Checks are pure and independent of each other; ``run_checks`` executes
them in a fixed order (relation id, then p) so sweep reports come out
deterministic.
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import lru_cache, reduce
from itertools import combinations
from math import comb
from typing import Callable, NamedTuple

from ._elim import nullspace, rank_of_vectors, residue_rank
from ._kernel import krow_add, scalars
from .cyclo_field import CycloNum, FieldCtx, QFactProduct, SingularRatio, cyclotomic_polynomial
from .diagram_algebra import (
    all_diagrams,
    cap_inputs,
    cup_outputs,
    diagram_to_matrix,
    e_left,
    e_op,
    e_right,
    jw_closed,
    jw_recursive,
    rotation,
    tl_to_matrix,
)
from .fusion_dims import catalan
from .pa_generators import (
    GeneratorSet,
    embed,
    make_generators,
    nested_cap,
    nested_cap_closed,
    nested_cup,
    partial_trace_comparison,
    partial_trace_left,
    partial_trace_right,
)
from .tensor_space import (
    BasisIndex, LinOp, TensorVector, _cid, _op, _vec, basis_index, e_power, e_terms, f_power,
    f_terms, from_word, op_E, op_F, op_K, op_K_power, widen, x_bottom, x_top,
)

DEFAULT_BUDGET = 2**16


class InfeasibleSize(RuntimeError):
    """A check whose state space reaches or exceeds the configured budget."""

    def __init__(self, strands: int, states: int, budget: int):
        verb = "reaches" if states == budget else "exceeds"
        super().__init__(f"{states} states on {strands} strands {verb} budget {budget}")
        self.strands = strands
        self.states = states
        self.budget = budget


class RelationReport(NamedTuple):
    relation_id: str
    p: int
    strands: int
    holds: bool
    witness: dict | None
    elapsed_ms: float

    def as_json(self) -> dict:
        out = {
            "relation_id": self.relation_id,
            "p": self.p,
            "strands": self.strands,
            "holds": self.holds,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@lru_cache(maxsize=None)
def _gens(p: int) -> GeneratorSet:
    return make_generators(p)


def _require_strands(strands: int, budget: int) -> None:
    states = 2**strands
    if states > budget:
        raise InfeasibleSize(strands, states, budget)


def _require_solve(strands: int, budget: int) -> None:
    states = 4**strands
    if states >= budget:
        raise InfeasibleSize(strands, states, budget)


def rank_of_linops(ctx: FieldCtx, ops) -> int:
    return rank_of_vectors(ctx, (op.flat() for op in ops))


def _witness(lhs: LinOp, rhs: LinOp) -> dict | None:
    """Both images of the least basis vector whose columns differ, or None.

    Equal values have equal ids, so columns differ exactly when their terms
    do; a missing column is zero.
    """
    lc, rc = lhs.columns, rhs.columns
    terms = lambda cols, m: cols[m].terms if m in cols else {}
    bad = [m for m in lc.keys() | rc.keys() if terms(lc, m) != terms(rc, m)]
    if not bad:
        return None
    b = BasisIndex(lhs.z_in, min(bad))
    return {"basis": b.word(), "lhs": str(lhs.column(b)), "rhs": str(rhs.column(b))}


class CoefficientVector:
    """The 4p cyclic coefficients k_i = (-1)^i([i-2]k1 + [i-1]k2).

    They satisfy k_{i-1} + delta k_i + k_{i+1} = 0 cyclically and the
    quarter-period law k_{i+p} = (-1)^(p+1) k_i; both are checkable via
    the methods below.
    """

    __slots__ = ("ctx", "seed", "k")

    def __init__(self, ctx: FieldCtx, k1, k2):
        if not isinstance(k1, CycloNum):
            k1 = ctx.scalar(k1)
        if not isinstance(k2, CycloNum):
            k2 = ctx.scalar(k2)
        self.ctx = ctx
        self.seed = (k1, k2)
        m = 4 * ctx.p
        ks = []
        for i in range(m):
            sign = ctx.one if i % 2 == 0 else -ctx.one
            ks.append(sign * (ctx.qint(i - 2) * k1 + ctx.qint(i - 1) * k2))
        self.k = tuple(ks)
        assert self.k[1] == k1 and self.k[2] == k2

    def recurrence_holds(self) -> bool:
        m = len(self.k)
        delta = self.ctx.loop_value
        return all(
            not (self.k[(i - 1) % m] + delta * self.k[i] + self.k[(i + 1) % m])
            for i in range(m)
        )

    def periodicity_holds(self) -> bool:
        m = len(self.k)
        p = self.ctx.p
        sign = self.ctx.scalar((-1) ** (p + 1))
        return all(self.k[(i + p) % m] == sign * self.k[i] for i in range(m))


@lru_cache(maxsize=None)
def _rotation_orbit(p: int, generator: str) -> tuple:
    """R^i(g x 1) for i = 0..4p-1 on 2p strands, one click at a time."""
    g = _gens(p)
    base = widen(g.alpha if generator == "alpha" else g.beta, 0, 1)
    ops = [base]
    for _ in range(4 * p - 1):
        ops.append(rotation(g.ctx, ops[-1]))
    return tuple(ops)


def gamma_factorial_ratio(p: int, k: int) -> QFactProduct:
    """The factorial ratio that collapses to the loop constant gamma.

    Both weight ranges of the composite generator reduce to the same
    scalar; the [p]^2 in the denominator pairs against the two vanishing
    top factorial indices, so the limit evaluation is finite.
    """
    if 0 <= k < p:
        base = QFactProduct.from_factorials(num=(2 * p - k - 1, k + p), den=(k, p - k - 1))
    elif p <= k < 2 * p:
        base = QFactProduct.from_factorials(num=(3 * p - k - 1, k), den=(k - p, 2 * p - k - 1))
    else:
        raise ValueError(f"k={k} outside 0..{2 * p - 1}")
    return base.times(QFactProduct((), (p, p)))


def coefficient_identity_failures(ctx: FieldCtx) -> list:
    """Admissible tuples where the two closed-form coefficient products
    behind the commuting-overlap relation disagree (empty when it holds).

    Both sides are the exact summand coefficients of the two composition
    orders, before any factorial reduction.
    """
    p = ctx.p
    # Each lambda coefficient recurs across the tuples; evaluate it once.
    qp, lam = ctx.q_power, lru_cache(maxsize=None)(ctx.lambda_coeff)
    bad = []
    for j in range(p + 1):
        for l in range(p):
            for m in range(p + 1):
                top = p - l - m - j - 1
                if top < 0:
                    continue
                for i in range(top + 1):
                    for t in range(top - i + 1):
                        lhs = (
                            qp(2 * i * p - i - j - 2 * i * j - 2 * i * l - 2 * i * i + p * l)
                            * lam(j, j + l)
                            * lam(i, p - j - l - 1)
                            * lam(j + l + i, j + l + i + m)
                            * lam(t, p - 1 - j - l - i - m)
                        )
                        rhs = (
                            qp(
                                l * p - i - 2 * i * i - 3 * j - 4 * i * j - 2 * j * j
                                - 2 * i * l - 2 * j * l - 2 * i * m - 2 * j * m
                                - 2 * j * t + 2 * j * p
                            )
                            * lam(l, l + m)
                            * lam(t + i + j, p - l - m - 1)
                            * lam(j, p - t - i - 1)
                            * lam(i, t + i)
                        )
                        if lhs != rhs:
                            bad.append((j, l, m, i, t))
    return bad


def commutant_dim(p: int, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of End_U(X^n), the M commuting with the lifted K, E, F.

    X is self-dual, so End_U(X^n) = Hom_U(1, X^2n): the invariant vectors
    of X^2n, killed by E and F and fixed by K.  K fixes exactly the
    weights w = n (mod p), and E, F move weight by one, so each such
    weight slice is an independent system.

    sigma(b), the complement of mask b read from the other end, maps
    weight w to 2n - w and satisfies sigma E = F sigma (the involution of
    U_q(sl2) that swaps E and F).  So slice 2n - w has the nullity of
    slice w, and only the slices w < n are solved, E and F rows together.
    On the middle slice v = v+ + v- with sigma v+- = +-v+-, and v is
    invariant exactly when E v+ = E v- = 0: two E-only systems on the
    columns b + sigma b (and each sigma-fixed b) and b - sigma b.  Before
    solving, e_terms through sigma are compared with f_terms of sigma b on
    every mask used, in integers; a mismatch raises ArithmeticError.

    Each system's nullity is certified by two bounds when n <= 2p - 2,
    where the diagrams span.  Above: C - rank mod l, C the column count,
    for a prime l = 1 (mod 2p) with q sent to a root of Phi_2p mod l;
    rank mod l never exceeds the exact rank, of the rows eliminated so
    far or of all of them.  Below: the rank mod l of the sigma halves of
    the nested-cup invariants, each checked exactly (0 on the slices
    w < n).  Elimination mod l stops when the bounds meet, and their
    common value is the nullity.  A system whose bounds never meet, and
    every system when n > 2p - 2, is solved by exact elimination.  The
    gate is 4^n >= budget, 4^n being both dim End(X^n) and dim X^2n.
    """
    _require_solve(n, budget)
    return _commutant_dim(p, n)


@lru_cache(maxsize=None)
def _commutant_dim(p: int, n: int) -> int:
    z = 2 * n
    key, sigma = _reversal(z)
    low = range(n % p, n, p)
    for w in (*low, n, *(z - w for w in low)):
        _check_sigma(z, w)
    # Certify only where the diagrams span; elsewhere the bounds would not
    # meet and the modular pass would be wasted.
    certify = n <= 2 * p - 2
    lower_even, lower_odd = _cup_bounds(p, n) if certify else (None, None)
    dim = 0
    for w in low:
        # E rows (weight w-1) and F rows (weight w+1), keyed by target mask;
        # slice z - w has the same nullity.
        rows: dict = defaultdict(list)
        for b in _masks(z, w):
            col = key[b]
            for rule in (e_terms, f_terms):
                for t, e in rule(z, b):
                    rows[t].append((col, e))
        dim += 2 * _nullity(p, rows, comb(z, w), 0 if certify else None)
    # Middle slice: E rows only, on the columns b + sigma b (even, with the
    # sigma-fixed b) and b - sigma b (odd), each pair keyed by its lesser
    # mask; -q^e is written q^(e + p).
    even: dict = defaultdict(list)
    odd: dict = defaultdict(list)
    n_odd = 0
    for b in _masks(z, n):
        s = sigma[b]
        if s < b:
            continue
        col = key[b]
        terms = list(e_terms(z, b))
        for t, e in terms:
            even[t].append((col, e))
        if s == b:
            continue
        n_odd += 1
        for t, e in terms:
            odd[t].append((col, e))
        for t, e in e_terms(z, s):
            even[t].append((col, e))
            odd[t].append((col, e + p))
    n_even = comb(z, n) - n_odd
    return dim + _nullity(p, even, n_even, lower_even) + _nullity(p, odd, n_odd, lower_odd)


def _nullity(p: int, rows: dict, ncols: int, lower: int | None) -> int:
    """Nullity of the system whose row t sums q^e over its (column, e)
    terms, rows taken by ascending t.

    With a lower bound, rows are first eliminated mod l until C - rank
    mod l falls to it; if it never does, and without one, the rows are
    eliminated exactly.
    """
    order = sorted(rows)
    if lower is not None:
        l, rp = _modular_map(p)
        m = 2 * p

        def residues(terms):
            row: dict = {}
            for col, e in terms:
                row[col] = (row.get(col, 0) + rp[e % m]) % l
            return {c: x for c, x in row.items() if x}

        if residue_rank((residues(rows[t]) for t in order), l, ncols - lower) == ncols - lower:
            return lower
    ctx = _field(p)
    acc, qids, m = scalars(ctx.red).accumulate, ctx.qids, 2 * p

    def exact(terms):
        row: dict = {}
        for col, e in terms:
            acc(row, col, qids[e % m])
        return row

    # Rows by ascending target, E and F merged: keeps fill-in low.
    return ncols - rank_of_vectors(ctx, (exact(rows[t]) for t in order))


# One FieldCtx(p) for every exact solve at p.
_field = lru_cache(maxsize=None)(FieldCtx)


@lru_cache(maxsize=None)
def _reversal(z: int) -> tuple:
    """(key, sigma) as lists over the masks of z strands: key[b] is b read
    from the other end, so the leftmost strand pivots first, and
    sigma[b] = key[b ^ (2^z - 1)]."""
    key = [0] * (1 << z)
    for b in range(1, 1 << z):
        key[b] = key[b >> 1] >> 1 | (b & 1) << (z - 1)
    return key, key[::-1]


def _masks(z: int, w: int) -> list:
    """The masks of z strands with w set, ascending."""
    return [b for b in range(1 << z) if b.bit_count() == w]


@lru_cache(maxsize=None)
def _check_sigma(z: int, w: int) -> None:
    """Raise ArithmeticError unless sigma E b = F sigma b for every mask b
    of weight w; integer exponents, so one check serves every p."""
    _, sigma = _reversal(z)
    for b in _masks(z, w):
        if sorted((sigma[t], e) for t, e in e_terms(z, b)) != sorted(f_terms(z, sigma[b])):
            raise ArithmeticError(f"sigma E != F sigma on mask {b:0{z}b}")


def _nested_cups(n: int) -> list:
    """The nested-cup invariants of X^2n, one per noncrossing perfect
    matching of the 2n strands, as {mask: (c, e)} meaning sum c q^e.

    Each arc (i < j) sets strand i with coefficient 1 or strand j with
    coefficient -q, the cup factors of ``cup_outputs``.
    """
    def matchings(points):
        if not points:
            yield ()
            return
        i = points[0]
        for k in range(1, len(points), 2):
            for inner in matchings(points[1:k]):
                for outer in matchings(points[k + 1:]):
                    yield ((i, points[k]),) + inner + outer

    vecs = []
    for arcs in matchings(tuple(range(2 * n))):
        v = {0: (1, 0)}
        for i, j in arcs:
            v = {**{b | 1 << i: (c, e) for b, (c, e) in v.items()},
                 **{b | 1 << j: (-c, e + 1) for b, (c, e) in v.items()}}
        vecs.append(v)
    return vecs


@lru_cache(maxsize=None)
def _checked_cups(n: int) -> tuple:
    """``_nested_cups(n)``, each vector checked to satisfy E v = F v = 0 as
    identities in Z[q, 1/q], so at every q = zeta_2p; raises
    ArithmeticError otherwise."""
    z = 2 * n
    vecs = _nested_cups(n)
    for rule in (e_terms, f_terms):
        terms = {}
        for k, v in enumerate(vecs):
            acc: dict = defaultdict(int)
            for b, (c, e) in v.items():
                ts = terms.get(b)
                if ts is None:
                    ts = terms[b] = tuple(rule(z, b))
                for t, d in ts:
                    acc[t, e + d] += c
            if any(acc.values()):
                raise ArithmeticError(f"nested cup {k} of {2 * n} strands is not invariant")
    return tuple(vecs)


def _cup_bounds(p: int, n: int) -> tuple:
    """Lower bounds on the nullities of the middle slice's even and odd
    systems: the ranks mod l of the nested cups' sigma halves, with the
    columns keyed as the systems key them."""
    key, sigma = _reversal(2 * n)
    l, rp = _modular_map(p)
    m = 2 * p
    even, odd = [], []
    for v in _checked_cups(n):
        ev: dict = {}
        od: dict = {}
        for b, (c, e) in v.items():
            s = sigma[b]
            col = key[min(b, s)]
            x = c * rp[e % m]
            ev[col] = (ev.get(col, 0) + x) % l
            if s != b:
                od[col] = (od.get(col, 0) + (x if b < s else -x)) % l
        even.append({k: x for k, x in ev.items() if x})
        odd.append({k: x for k, x in od.items() if x})
    return residue_rank(even, l), residue_rank(odd, l)


def _is_prime(m: int) -> bool:
    """Miller-Rabin with bases 2, 7 and 61, exact for 1 < m < 4,759,123,141."""
    for a in (2, 7, 61):
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _modular_map(p: int) -> tuple:
    """(l, [r^e mod l for e < 2p]): l is the least prime = 1 (mod 2p)
    above 2^30, and r = g^((l-1)/2p) for the least g > 1 with
    Phi_2p(r) = 0 (mod l).

    q -> r is then a ring map Z[zeta_2p] -> F_l.
    """
    m = 2 * p
    l = (2**30 // m + 1) * m + 1
    while not _is_prime(l):
        l += m
    if l >= 2**32:
        raise ArithmeticError(f"modulus {l} is past the exact primality test")
    phi = cyclotomic_polynomial(m)
    for g in range(2, l):
        r = pow(g, (l - 1) // m, l)
        if reduce(lambda acc, c: (acc * r + c) % l, reversed(phi), 0) == 0:
            return l, [pow(r, e, l) for e in range(m)]
    raise ArithmeticError(f"no root of Phi_{m} modulo {l}")


# The budget only gates a solve, so the cache is keyed on (p, n) alone.
commutant_dim.cache_info = _commutant_dim.cache_info


def capping_pattern(p: int, budget: int = DEFAULT_BUDGET):
    """Close one strand pair of every R^i(g x 1) and match the survivors.

    At each cap or cup position exactly one cyclic window (i-1, i, i+1)
    survives, with outer terms equal and the middle delta times them, so
    a vanishing total forces k_{i-1} + delta k_i + k_{i+1} = 0.  Returns
    (True, centers-per-generator) on success; the centers cover 4p-2
    distinct indices, enough to pin the solution space to nullity two.
    """
    n = 2 * p
    _require_strands(n, budget)
    g = _gens(p)
    ctx = g.ctx
    m = 4 * p
    delta = ctx.loop_value
    all_centers = {}
    for name in ("alpha", "beta"):
        ops = _rotation_orbit(p, name)
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
                    return False, {
                        "identity": "capping survivor pattern",
                        "generator": name,
                        "position": c,
                        "from_top": from_top,
                    }
                centers.add(center)
        if len(centers) != 4 * p - 2:
            return False, {
                "identity": "capping constraint coverage",
                "generator": name,
                "centers": sorted(centers),
                "expected_count": 4 * p - 2,
            }
        all_centers[name] = sorted(centers)
    return True, all_centers


# --- operator identities -------------------------------------------------------

_STRANDS = {"2p-1": lambda p: 2 * p - 1, "2p": lambda p: 2 * p, "3p-1": lambda p: 3 * p - 1}


class Identity(NamedTuple):
    """One of the paper's operator identities, checked as exact matrix equalities.

    ``sides(g, n, *args)`` builds it on n = _STRANDS[strands](p) strands
    from the generator set g and lazily yields (tag, lhs, rhs), one pair of
    sides at a time, so only one product is alive at once.  The first pair
    that differs fails the check with a witness headed by the tag: the
    identity's text, or a dict of leading witness fields.  A builder may
    end with ``return holds, witness`` to give its own verdict once every
    pair agrees.
    """

    strands: str
    sides: Callable
    args: tuple = ()

    def __call__(self, p, budget):
        n = _STRANDS[self.strands](p)
        _require_strands(n, budget)
        return (n, *_first_difference(self.sides(_gens(p), n, *self.args)))


def _first_difference(pairs) -> tuple:
    """(holds, witness) of an iterator of (tag, lhs, rhs) pairs.

    The first pair whose sides differ fails with the tag-headed witness;
    otherwise the verdict is what a builder returns, or (True, None).
    """
    pairs = iter(pairs)
    while True:
        try:
            tag, lhs, rhs = next(pairs)
        except StopIteration as done:
            return done.value or (True, None)
        w = _witness(lhs, rhs)
        if w:
            head = tag if isinstance(tag, dict) else {"identity": tag}
            return False, {**head, **w}
        del lhs, rhs  # drop this pair before the builder makes the next


def _squares_vanish(g, n):
    zero = LinOp.zero(g.ctx, n, n)
    for name in ("alpha", "beta"):
        op = getattr(g, name)
        yield f"{name}^2 = 0", op * op, zero


def _sandwich(g, n, outer, inner):
    x, y = getattr(g, outer), getattr(g, inner)
    yield f"{outer}.{inner}.{outer} = gamma.{outer}", x * y * x, x.scale(g.gamma)


def _near_overlap(g, n):
    zero = LinOp.zero(g.ctx, n, n)
    for name in ("alpha", "beta"):
        gen = getattr(g, name)
        x = embed(gen, 1, n)
        for gap in range(1, g.p):
            y = embed(gen, 1 + gap, n)
            yield f"{name}_1.{name}_{1 + gap} = 0", x * y, zero
            yield f"{name}_{1 + gap}.{name}_1 = 0", y * x, zero


def _far_commute(g, n, name):
    gen = getattr(g, name)
    x = embed(gen, 1, n)
    y = embed(gen, 1 + g.p, n)
    yield f"{name}_1.{name}_{1 + g.p} commute", x * y, y * x
    # the alpha overlap also rests on a closed-form coefficient identity
    if name == "alpha":
        bad = coefficient_identity_failures(g.ctx)
        if bad:
            return False, {"identity": "overlap coefficient identity", "tuple": list(bad[0])}


def _anticommutator(g, n):
    yield (
        "alpha.beta + beta.alpha = gamma.top-projector",
        g.alpha * g.beta + g.beta * g.alpha,
        jw_closed(g.ctx, n).scale(g.gamma),
    )


def _cap_kill(g, n):
    ctx = g.ctx
    for name in ("alpha", "beta"):
        gen = getattr(g, name)
        for i in range(1, n):
            yield f"{name}.cap_{i} = 0", cap_inputs(gen, i), LinOp.zero(ctx, n - 2, n)
            yield f"cup_{i}.{name} = 0", cup_outputs(gen, i), LinOp.zero(ctx, n, n - 2)


def _cap_slide(g, n, name):
    gen = getattr(g, name)
    yield (
        f"{name}_2.cap_1 = {name}_1.cap_{n - 1}",
        cap_inputs(embed(gen, 2, n), 1),
        cap_inputs(embed(gen, 1, n), n - 1),
    )


def _cup_slide(g, n, name):
    gen = getattr(g, name)
    yield (
        f"cup_1.{name}_2 = cup_{n - 1}.{name}_1",
        cup_outputs(embed(gen, 2, n), 1),
        cup_outputs(embed(gen, 1, n), n - 1),
    )


def _rotation_fixed(g, n, name):
    # One click fixes the generator up to a global sign; the sign is a
    # cup/cap orientation convention, so we record the observed value
    # instead of asserting it (it is -1 in this realization, at every p).
    gen = getattr(g, name)
    rot = rotation(g.ctx, gen)
    if rot != gen and rot == -gen:
        return True, {"observed_sign": -1}
    yield f"one rotation click fixes {name} up to sign", rot, gen


def _rotation_sum(g, n, name):
    ctx = g.ctx
    ops = _rotation_orbit(g.p, name)
    zero = LinOp.zero(ctx, n, n)
    for seed in ((1, 0), (0, 1)):
        # sum k_i R^i(g x 1), accumulated column by column in one pass
        table, cols = scalars(ctx.red), {}
        for ki, op in zip(CoefficientVector(ctx, *seed).k, ops):
            a = table.id_of(ki.nums, ki.den)
            if a:
                for m, col in op.columns.items():
                    krow_add(cols.setdefault(m, {}), col.terms, a, table)
        total = _op(ctx, n, n, {m: _vec(ctx, n, t) for m, t in cols.items() if t})
        yield {"identity": f"sum k_i R^i({name} x 1) = 0", "seed": list(seed)}, total, zero


def _e_kill(g, n):
    zero = LinOp.zero(g.ctx, n, n)
    for name in ("alpha", "beta"):
        gen = getattr(g, name)
        for j in (1, 2):
            gj = embed(gen, j, n)
            for i in range(j, j + 2 * g.p - 2):  # 0 <= i - j <= 2p - 3
                yield f"e_{i}.{name}_{j} = 0", e_left(gj, i), zero
                yield f"{name}_{j}.e_{i} = 0", e_right(gj, i), zero


def _e_chain_left(g, n, name):
    gen = getattr(g, name)
    rhs = embed(gen, 1, n)
    for t in range(n - 1, 0, -1):
        rhs = e_left(rhs, t)
    yield f"e_1.{name}_2 = e_1..e_{n - 1}.{name}_1", e_left(embed(gen, 2, n), 1), rhs


def _e_chain_right(g, n, name):
    gen = getattr(g, name)
    rhs = embed(gen, 1, n)
    for t in range(n - 1, 0, -1):
        rhs = e_right(rhs, t)
    yield f"{name}_2.e_1 = {name}_1.e_{n - 1}..e_1", e_right(embed(gen, 2, n), 1), rhs


def _pt_vanishes(g, n, name):
    gen = getattr(g, name)
    zero = LinOp.zero(g.ctx, n - 1, n - 1)
    for side, pt in (("right", partial_trace_right), ("left", partial_trace_left)):
        yield f"{side} partial trace of {name} = 0", pt(gen), zero


def _pt_composite(g, n, first, second):
    op = getattr(g, first) * getattr(g, second)
    target = partial_trace_comparison(g.ctx)
    for side, pt in (("right", partial_trace_right), ("left", partial_trace_left)):
        yield f"{side} partial trace of {first}.{second}", pt(op), target


def _prop2_core(p, n, budget):
    if n >= 2 * p - 1:
        raise ValueError("diagram basis is only free below the critical size")
    _require_solve(n, budget)
    ctx = _gens(p).ctx
    diags = [diagram_to_matrix(ctx, d) for d in all_diagrams(n, n)]
    rank = rank_of_linops(ctx, diags)
    if rank != catalan(n):
        return n, False, {"identity": "diagram matrices independent", "rank": rank, "expected": catalan(n)}
    if n >= 3:
        b = from_word("011")
        lhs = e_left(e_op(ctx, 2, 3), 1).column(b)
        rhs = e_left(e_op(ctx, 1, 3), 2).column(b)
        if lhs == rhs:
            return n, False, {"identity": "e_1e_2 and e_2e_1 separate on 011", "value": str(lhs)}
    return n, True, None


def _check_prop2(p, budget):
    return _prop2_core(p, 2 * p - 2, budget)


def _check_prop3(p, budget):
    n = 2 * p - 2
    _require_solve(n, budget)
    ctx = _gens(p).ctx
    cd = commutant_dim(p, n, budget)
    diags = [diagram_to_matrix(ctx, d) for d in all_diagrams(n, n)]
    rank = rank_of_linops(ctx, diags)
    ok = cd == catalan(n) == rank
    wit = None if ok else {"identity": "commutant = diagram span below critical size",
                           "commutant": cd, "rank": rank, "expected": catalan(n)}
    return n, ok, wit


def _check_prop4(p, budget):
    n = 2 * p - 1
    _require_solve(n, budget)
    g = _gens(p)
    ctx = g.ctx
    a, b = g.alpha, g.beta
    ab, ba = a * b, b * a
    for k in range(2 * p):
        if ctx.eval_ratio(gamma_factorial_ratio(p, k)) != g.gamma:
            return n, False, {"identity": "gamma factorial ratio", "k": k}
    inv = g.gamma.inv()
    u, v = ab.scale(inv), ba.scale(inv)
    # alpha and beta must be module maps for their span to lie in End_U
    acts = (("K", op_K(ctx, n)), ("E", op_E(ctx, n)), ("F", op_F(ctx, n)))
    holds, wit = _first_difference((
        *((f"{x}.{name} = {name}.{x}", op * gen, gen * op)
          for name, gen in (("alpha", a), ("beta", b)) for x, op in acts),
        ("first projection idempotent", u * u, u),
        ("second projection idempotent", v * v, v),
        ("projections orthogonal", u * v, LinOp.zero(ctx, n, n)),
        ("projections orthogonal (reversed)", v * u, LinOp.zero(ctx, n, n)),
        ("projections sum to top projector", u + v, jw_closed(ctx, n)),
    ))
    if not holds:
        return n, False, wit
    diags = [diagram_to_matrix(ctx, d) for d in all_diagrams(n, n)]
    rank = rank_of_linops(ctx, diags + [a, b, ab])
    cd = commutant_dim(p, n, budget)
    ok = rank == catalan(n) + 3 == cd
    wit = None if ok else {"identity": "diagrams + alpha, beta, alpha.beta span",
                           "rank": rank, "commutant": cd, "expected": catalan(n) + 3}
    return n, ok, wit


def prop5_words(p: int) -> list:
    """The 12p-6 generator words on 2p strands: per family (alpha, beta,
    alpha.beta), both placements plus all one-sided e-chains."""
    g = _gens(p)
    n = 2 * p
    a1, a2 = embed(g.alpha, 1, n), embed(g.alpha, 2, n)
    b1, b2 = embed(g.beta, 1, n), embed(g.beta, 2, n)
    words = []
    for g1, g2 in ((a1, a2), (b1, b2), (a1 * b1, a2 * b2)):
        words.append(g1)
        words.append(g2)
        w = g2
        for i in range(1, n - 1):
            w = e_right(w, i)
            words.append(w)
        w = e_left(g2, 1)
        words.append(w)
        for i in range(2, n - 1):
            w = e_left(w, i)
            words.append(w)
    if len(words) != 12 * p - 6:
        raise ArithmeticError(f"{len(words)} generator words, expected {12 * p - 6}")
    return words


def _check_prop5(p, budget):
    n = 2 * p
    _require_solve(n, budget)
    g = _gens(p)
    ctx = g.ctx
    diags = [diagram_to_matrix(ctx, d) for d in all_diagrams(n, n)]
    words = prop5_words(p)
    expected = catalan(n) + 12 * p - 6
    if len(diags) + len(words) != expected:
        raise ArithmeticError(f"{len(diags) + len(words)} spanning candidates, expected {expected}")
    rank = rank_of_linops(ctx, diags + words)
    cd = commutant_dim(p, n, budget)
    if rank == expected == cd:
        return n, True, None
    # The listed words degenerate at p=2, where delta = 0:
    # g_1 + g_2 = g_2 e_1 e_2 + e_2 e_1 g_2 for the two weight-shifting
    # families, and the composite family folds into the nested diagram.
    # Swapping in g_1 e_{2p-1} per family restores a spanning set of the
    # same size; report both ranks so the defect is explicit.
    extra = [
        e_right(embed(g.alpha, 1, n), n - 1),
        e_right(embed(g.beta, 1, n), n - 1),
        e_right(embed(g.alpha, 1, n) * embed(g.beta, 1, n), n - 1),
    ]
    completed = rank_of_linops(ctx, diags + words + extra)
    return n, False, {
        "identity": "diagrams + generator words form a basis",
        "rank": rank,
        "commutant": cd,
        "expected": expected,
        "word_dependency": "g_1 + g_2 = g_2.e_1.e_2 + e_2.e_1.g_2 in the shifting families",
        "completion": "adding g_1.e_{2p-1} per family",
        "completed_rank": completed,
    }


def _check_rot_rank(p, budget):
    n = 2 * p
    _require_solve(n, budget)
    g = _gens(p)
    ctx = g.ctx
    m = 4 * p
    expected = 4 * p - 2
    for name in ("alpha", "beta"):
        ops = _rotation_orbit(p, name)
        rank = rank_of_linops(ctx, ops)
        if rank != expected:
            return n, False, {"identity": f"rotation orbit rank of {name} x 1",
                              "rank": rank, "expected": expected}
        rows_by_pos: dict = defaultdict(dict)
        for i, op in enumerate(ops):
            for pos, c in op.flat().items():
                rows_by_pos[pos][i] = c
        null = nullspace(ctx, rows_by_pos.values(), range(m))
        seeds = [{i: _cid(ctx, c) for i, c in enumerate(CoefficientVector(ctx, *seed).k) if c}
                 for seed in ((1, 0), (0, 1))]
        if len(null) != 2 or rank_of_vectors(ctx, null + seeds) != 2:
            return n, False, {"identity": f"nullspace of {name} orbit matches seed span",
                              "nullity": len(null)}
    return n, True, None


def _check_kp(p, budget):
    n = 2 * p
    _require_strands(n, budget)
    ctx = _gens(p).ctx
    # the seeds (1, 0) and (0, 1) give the two coefficient streams of the
    # closed form, hence the law for arbitrary seeds
    for seed in ((1, 0), (0, 1)):
        kv = CoefficientVector(ctx, *seed)
        if not (kv.recurrence_holds() and kv.periodicity_holds()):
            return n, False, {"identity": "seed coefficient vector invariants", "seed": list(seed)}
    ok, details = capping_pattern(p, budget)
    if not ok:
        return n, False, details
    return n, True, None


# --- action identities, the Jones-Wenzl window, the cap/cup duality ----------
# Vectors are compared as one-column maps X^0 -> X^z and scalars as 0-strand
# maps, so every side goes through the same first-difference witness.

def _col(v: TensorVector) -> LinOp:
    return LinOp(v.ctx, 0, v.z, {BasisIndex(0, 0): v})


def _num(ctx: FieldCtx, c: CycloNum) -> LinOp:
    return LinOp.identity(ctx, 0).scale(c)


def _action_sides(ctx: FieldCtx, top: int):
    """The action identities of K, E and F on X^z, z <= top."""
    qp, qf, unit = ctx.q_power, ctx.qfact, lambda b: TensorVector.unit(ctx, b)
    I1, K1, Ki1, E1, F1 = (LinOp.identity(ctx, 1), op_K(ctx, 1), op_K_power(ctx, 1, -1),
                           op_E(ctx, 1), op_F(ctx, 1))
    for z in range(1, top + 1):
        E, F, K, Ki = op_E(ctx, z), op_F(ctx, z), op_K(ctx, z), op_K_power(ctx, z, -1)
        zero = LinOp.zero(ctx, z, z)
        # the lifted K, E, F are the coproduct sums of one-strand pieces
        yield f"K on {z} strands = K x..x K", reduce(LinOp.tensor, [K1] * z), K
        yield f"E on {z} strands = sum 1 x..x E x K x..x K", E, sum((reduce(
            LinOp.tensor, [I1] * i + [E1] + [K1] * (z - 1 - i)) for i in range(z)), zero)
        yield f"F on {z} strands = sum K^-1 x..x F x 1 x..x 1", F, sum((reduce(
            LinOp.tensor, [Ki1] * i + [F1] + [I1] * (z - 1 - i)) for i in range(z)), zero)
        # straightening E past F^k and F past E^k
        for k in range(1, top + 1):
            c = ctx.qint(k) / (ctx.q - qp(-1))
            fk, fk1 = f_power(ctx, k, z), f_power(ctx, k - 1, z)
            ek, ek1 = e_power(ctx, k, z), e_power(ctx, k - 1, z)
            yield (f"E.F^{k} - F^{k}.E on {z} strands", E * fk - fk * E,
                   (fk1 * K * qp(1 - k) - fk1 * Ki * qp(k - 1)) * c)
            yield (f"F.E^{k} - E^{k}.F on {z} strands", F * ek - ek * F,
                   (ek1 * Ki * qp(1 - k) - ek1 * K * qp(k - 1)) * c)
        # iterated E (F) takes a state S of weight n to x_bottom (x_top),
        # times q^(nz - (n^2-n)/2 - sum S) [n]! ([z-n]!)
        Ek, Fk = [E ** n for n in range(z + 1)], [F ** n for n in range(z + 1)]

        def ladder(b, m):
            n = b.weight
            return qp(n * z - (n * n - n) // 2 - sum(b.occupancy)) * qf(m)

        yield (f"E^n lowers every state of {z} strands to x_bottom",
               LinOp.from_applier(ctx, z, z, lambda b: Ek[b.weight].column(b)),
               LinOp.from_applier(ctx, z, z, lambda b: unit(x_bottom(z)) * ladder(b, b.weight)))
        yield (f"F^(z-n) raises every state of {z} strands to x_top",
               LinOp.from_applier(ctx, z, z, lambda b: Fk[z - b.weight].column(b)),
               LinOp.from_applier(ctx, z, z, lambda b: unit(x_top(z)) * ladder(b, z - b.weight)))
        # F^k x_bottom and E^k x_top expanded over occupancy subsets
        # as [k]! times the sum of q^(s(s+1)/2 - sum t) rho_t over s-subsets t
        for k in range(z + 1):
            for tag, op, v, s in ((f"F^{k} x_bottom", f_power, x_bottom(z), k),
                                  (f"E^{k} x_top", e_power, x_top(z), z - k)):
                want = {basis_index(z, t): qf(k) * qp(s * (s + 1) // 2 - sum(t))
                        for t in combinations(range(1, z + 1), s)}
                yield (f"{tag} expansion on {z} strands", _col(op(ctx, k, z).column(v)),
                       _col(TensorVector(ctx, z, want)))
    # coproducts of the powers on every split z1 + z2 <= top
    for z1 in range(1, top):
        for z2 in range(1, top - z1 + 1):
            for k in range(top + 1):
                rhs_e = rhs_f = LinOp.zero(ctx, z1 + z2, z1 + z2)
                for i in range(k + 1):
                    lam = ctx.lambda_coeff(i, k)
                    if lam:
                        rhs_e = rhs_e + e_power(ctx, i, z1).tensor(
                            op_K_power(ctx, z2, i) * e_power(ctx, k - i, z2)) * lam
                        rhs_f = rhs_f + (op_K_power(ctx, z1, -i) * f_power(ctx, k - i, z1)).tensor(
                            f_power(ctx, i, z2)) * lam
                yield f"E^{k} coproduct on {z1} + {z2} strands", e_power(ctx, k, z1 + z2), rhs_e
                yield f"F^{k} coproduct on {z1} + {z2} strands", f_power(ctx, k, z1 + z2), rhs_f
    # peeling the last or the first strand off E^k x_top and F^k x_bottom
    nu0, nu1 = unit(BasisIndex(1, 0)), unit(BasisIndex(1, 1))
    for z in range(1, top):
        for k in range(z + 2):
            e_up = _col(e_power(ctx, k, z + 1).column(x_top(z + 1)))
            f_up = _col(f_power(ctx, k, z + 1).column(x_bottom(z + 1)))
            ek, fk = e_power(ctx, k, z).column(x_top(z)), f_power(ctx, k, z).column(x_bottom(z))
            ek1 = e_power(ctx, k - 1, z).column(x_top(z)) if k else TensorVector(ctx, z)
            fk1 = f_power(ctx, k - 1, z).column(x_bottom(z)) if k else TensorVector(ctx, z)
            qk, c = ctx.qint(k), ctx.qint(k) * qp(k - z - 1)
            last, first = f"last of {z + 1} peeled", f"first of {z + 1} peeled"
            yield f"E^{k} x_top, {last}", e_up, _col(ek1.tensor(nu0) * qk + ek.tensor(nu1) * qp(-k))
            yield f"E^{k} x_top, {first}", e_up, _col(nu0.tensor(ek1) * c + nu1.tensor(ek))
            yield f"F^{k} x_bottom, {last}", f_up, _col(fk.tensor(nu0) + fk1.tensor(nu1) * c)
            yield (f"F^{k} x_bottom, {first}", f_up,
                   _col(nu0.tensor(fk) * qp(-k) + nu1.tensor(fk1) * qk))
    # the weight sums xi(n, z): subset sums and their recurrence
    for z in range(top + 1):
        for n in range(z + 1):
            brute = sum((qp(-2 * sum(t)) for t in combinations(range(1, z + 1), n)), ctx.zero)
            yield f"xi({n}, {z}) = sum over {n}-subsets", _num(ctx, ctx.xi(n, z)), _num(ctx, brute)
            if 1 <= n < z:
                yield (f"xi({n}, {z}) recurrence", _num(ctx, ctx.xi(n, z)),
                       _num(ctx, qp(-2 * z) * ctx.xi(n - 1, z - 1) + ctx.xi(n, z - 1)))


def _check_action(p, budget):
    n = 2 * p
    _require_solve(n, budget)
    return (n, *_first_difference(_action_sides(FieldCtx(p), n)))


def _jw_window_sides(ctx: FieldCtx, n: int):
    """Below p the closed and recursive f_m agree; inside the window
    p <= m <= 2p-2 the closed form is singular; f_(2p-1) is an idempotent
    fixing x_bottom (so nonzero) and killed by every e_i on both sides."""
    p = ctx.p
    for m in range(1, p):
        recursive = tl_to_matrix(ctx, jw_recursive(ctx, m))
        yield f"f_{m} closed = recursive", jw_closed(ctx, m), recursive
    for m in range(p, n):
        try:
            jw_closed(ctx, m)
        except SingularRatio:
            continue
        return False, {"identity": f"f_{m} is singular inside the window"}
    proj = jw_closed(ctx, n)
    low = _col(TensorVector.unit(ctx, x_bottom(n)))
    yield f"f_{n}.f_{n} = f_{n}", proj * proj, proj
    yield f"f_{n} fixes x_bottom", proj * low, low
    zero = LinOp.zero(ctx, n, n)
    for i in range(1, n):
        yield f"e_{i}.f_{n} = 0", e_left(proj, i), zero
        yield f"f_{n}.e_{i} = 0", e_right(proj, i), zero


def _check_jw_window(p, budget):
    n = 2 * p - 1
    _require_solve(n, budget)
    return (n, *_first_difference(_jw_window_sides(FieldCtx(p), n)))


def _duality(g, n):
    # the nested caps realise Hom_U(1, X^2z), which the end-space solver uses
    ctx = g.ctx
    for z in range(1, n // 2 + 1):
        caps = _col(nested_cap(ctx, z))
        yield f"nested cap on {2 * z} strands = closed form", caps, _col(nested_cap_closed(ctx, z))
        yield (f"nested cup.nested cap on {2 * z} strands = delta^{z}",
               nested_cup(ctx, z) * caps, _num(ctx, ctx.loop_value ** z))


# Every check in report order, which is RELATION_IDS.  Each is called as
# check(p, budget) and returns (strands, holds, witness-or-None).  The
# propositions, the rotation-orbit rank and the coefficient law compare
# ranks, dimensions or scalars rather than two operators, so they are
# functions; so are the action identities and the JW window, whose pairs
# go through the same first difference but whose cost is gated on the
# 4^n lattice.  The rest are operator identities.
_CHECKS = {
    "eq1": Identity("2p-1", _squares_vanish),
    "eq2": Identity("2p-1", _sandwich, ("alpha", "beta")),
    "eq3": Identity("2p-1", _sandwich, ("beta", "alpha")),
    "eq4": Identity("3p-1", _near_overlap),
    "eq5": Identity("3p-1", _far_commute, ("alpha",)),
    "eq6": Identity("3p-1", _far_commute, ("beta",)),
    "eq7": Identity("2p-1", _anticommutator),
    "eq8": Identity("2p-1", _cap_kill),
    "eq9": Identity("2p", _cap_slide, ("alpha",)),
    "eq10": Identity("2p", _cap_slide, ("beta",)),
    "eq11": Identity("2p", _cup_slide, ("alpha",)),
    "eq12": Identity("2p", _cup_slide, ("beta",)),
    "eq13": Identity("2p-1", _rotation_fixed, ("alpha",)),
    "eq14": Identity("2p-1", _rotation_fixed, ("beta",)),
    "eq15": Identity("2p", _rotation_sum, ("alpha",)),
    "eq16": Identity("2p", _rotation_sum, ("beta",)),
    "eq17": Identity("2p", _e_kill),
    "eq18": Identity("2p", _e_chain_left, ("alpha",)),
    "eq19": Identity("2p", _e_chain_right, ("alpha",)),
    "eq20": Identity("2p", _e_chain_left, ("beta",)),
    "eq21": Identity("2p", _e_chain_right, ("beta",)),
    "prop2": _check_prop2,
    "prop3": _check_prop3,
    "prop4": _check_prop4,
    "prop5": _check_prop5,
    "pt_alpha": Identity("2p-1", _pt_vanishes, ("alpha",)),
    "pt_beta": Identity("2p-1", _pt_vanishes, ("beta",)),
    "pt_alphabeta": Identity("2p-1", _pt_composite, ("alpha", "beta")),
    "pt_betaalpha": Identity("2p-1", _pt_composite, ("beta", "alpha")),
    "rot_rank": _check_rot_rank,
    "kp_periodicity": _check_kp,
    "action": _check_action,
    "jw_window": _check_jw_window,
    "duality": Identity("2p", _duality),
}

RELATION_IDS = tuple(_CHECKS)


def verify(relation_id: str, p: int, budget: int = DEFAULT_BUDGET) -> RelationReport:
    """Run one named check exactly; raises InfeasibleSize over budget."""
    try:
        fn = _CHECKS[relation_id]
    except KeyError:
        raise ValueError(f"unknown relation id {relation_id!r}") from None
    start = time.perf_counter()
    strands, holds, witness = fn(p, budget)
    elapsed = (time.perf_counter() - start) * 1000.0
    return RelationReport(relation_id, p, strands, holds, witness or None, elapsed)


def run_checks(relation_ids=None, ps=(2, 3), budget: int = DEFAULT_BUDGET):
    """Sweep checks in deterministic order (relation id, then p).

    Returns (reports, skipped); checks over budget land in skipped with
    the reason, never silently dropped.
    """
    ids = RELATION_IDS if relation_ids is None else tuple(relation_ids)
    for rid in ids:
        if rid not in _CHECKS:
            raise ValueError(f"unknown relation id {rid!r}")
    reports = []
    skipped = []
    for rid in ids:
        for p in ps:
            try:
                reports.append(verify(rid, p, budget))
            except InfeasibleSize as exc:
                skipped.append(
                    {"relation_id": rid, "p": p, "strands": exc.strands, "skipped": str(exc)}
                )
    return reports, skipped
