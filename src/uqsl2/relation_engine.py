"""Exact verification engine for the endomorphism-algebra relations.

Every check builds both sides of a stated identity as matrices over the
cyclotomic field, on the minimal strand count the identity needs, and
compares them entrywise; there are no tolerances.  A failing check carries
a witness: a basis vector where the sides differ, with both images.
Propositions 2-5 are span claims (``Span``): named diagrams and words must
have the stated rank; short of it, the witness lists the dependencies,
each checked to vanish, as [name, coefficient] lists.

Oversized requests raise InfeasibleSize instead of running, and each
entry of the check table states its gate.  Operator identities refuse
when the tensor space itself passes the budget (2^strands > budget).
Span claims and commutant solves, and the identities marked ``lattice``
(the rotation-orbit rank, the action identities and the Jones-Wenzl
window), whose loops grow like the matrix-entry lattice, refuse when that
lattice reaches it (4^n >= budget, which puts 8 strands exactly on the
line and therefore off by default).  The commutant End_U(X^n) is solved
as Hom_U(1, X^2n), X being self-dual: the invariants of X^2n, one weight
slice w = n (mod p) at a time, whose 4^n basis vectors are the same
lattice the gate counts.  The reversal of the complement, sigma, swaps E
and F, so only the slices below the middle are solved (each counted
twice) and the middle one splits into two E-only halves; an integer check
of sigma E = F sigma on every mask used comes first, once per slice and
process, and raises ArithmeticError if it fails.

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
from ._kernel import krow_add
from .cyclo_field import CycloNum, FieldCtx, SingularRatio, cyclotomic_polynomial, factorials
from .diagram_algebra import (
    all_diagrams,
    cap_inputs,
    cup_outputs,
    diagram_to_matrix,
    e_left,
    e_right,
    jw_closed,
    jw_recursive,
    noncrossing,
    rotation,
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
    BasisIndex, LinOp, TensorVector, _op, _vec, basis_index, e_power, e_terms, f_power,
    f_terms, from_word, linear_text, op_E, op_F, op_K, op_K_power, widen, x_bottom, x_top,
)

DEFAULT_BUDGET = 2**16


class InfeasibleSize(RuntimeError):
    """A check whose state space reaches or exceeds the configured budget."""

    def __init__(self, strands: int, states: int, budget: int):
        verb = "reaches" if states == budget else "exceeds"
        super().__init__(f"{states} states on {strands} strands {verb} budget {budget}")
        self.strands = strands


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

    __slots__ = ("ctx", "k")

    def __init__(self, ctx: FieldCtx, k1, k2):
        k1, k2 = ctx.scalar(k1), ctx.scalar(k2)
        self.ctx = ctx
        m = 4 * ctx.p
        ks = []
        for i in range(m):
            sign = ctx.one if i % 2 == 0 else -ctx.one
            ks.append(sign * (ctx.qint(i - 2) * k1 + ctx.qint(i - 1) * k2))
        self.k = tuple(ks)
        if (self.k[1], self.k[2]) != (k1, k2):
            raise ArithmeticError("the coefficient recursion does not reproduce its seeds")

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
def _coefficients(p: int, seed: tuple) -> CoefficientVector:
    """The coefficient vector of seed (k1, k2) at p, built once per (p, seed)."""
    return CoefficientVector(_gens(p).ctx, *seed)


@lru_cache(maxsize=None)
def _rotation_orbit(p: int, generator: str) -> tuple:
    """R^i(g x 1) for i = 0..4p-1 on 2p strands, one click at a time."""
    g = _gens(p)
    base = widen(g.alpha if generator == "alpha" else g.beta, 0, 1)
    ops = [base]
    for _ in range(4 * p - 1):
        ops.append(rotation(g.ctx, ops[-1]))
    return tuple(ops)


def gamma_factorial_ratio(p: int, k: int) -> tuple:
    """The factorial ratio, as (numerator, denominator) indices for
    ``FieldCtx.eval_ratio``, that collapses to the loop constant gamma.

    Both weight ranges of the composite generator reduce to the same
    scalar; the [p]^2 in the denominator pairs against the two vanishing
    top factorial indices, so the limit evaluation is finite.
    """
    if 0 <= k < p:
        num, den = factorials(2 * p - k - 1, k + p), factorials(k, p - k - 1)
    elif p <= k < 2 * p:
        num, den = factorials(3 * p - k - 1, k), factorials(k - p, 2 * p - k - 1)
    else:
        raise ValueError(f"k={k} outside 0..{2 * p - 1}")
    return num, den + (p, p)


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
    ctx = FieldCtx(p)
    acc, qids, m = ctx.table.accumulate, ctx.qids, 2 * p

    def exact(terms):
        row: dict = {}
        for col, e in terms:
            acc(row, col, qids[e % m])
        return row

    # Rows by ascending target, E and F merged: keeps fill-in low.
    return ncols - rank_of_vectors(ctx, (exact(rows[t]) for t in order))


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
    vecs = []
    for arcs in noncrossing(range(2 * n)):
        v = {0: (1, 0)}
        for i, j in arcs:
            v = {**{b | 1 << i: (c, e) for b, (c, e) in v.items()},
                 **{b | 1 << j: (-c, e + 1) for b, (c, e) in v.items()}}
        vecs.append(v)
    return vecs


@lru_cache(maxsize=None)
def _check_cups(n: int) -> None:
    """Raise ArithmeticError unless every vector of ``_nested_cups(n)``
    satisfies E v = F v = 0 as identities in Z[q, 1/q], so at every
    q = zeta_2p.  Only the verdict is cached; the vectors are rebuilt
    where they are used."""
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


def _cup_bounds(p: int, n: int) -> tuple:
    """Lower bounds on the nullities of the middle slice's even and odd
    systems: the ranks mod l of the nested cups' sigma halves, with the
    columns keyed as the systems key them."""
    key, sigma = _reversal(2 * n)
    l, rp = _modular_map(p)
    m = 2 * p
    even, odd = [], []
    _check_cups(n)
    for v in _nested_cups(n):
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


def _capping_pieces(ctx: FieldCtx, ops, from_top: bool) -> dict:
    """close(ops[s], c) at every position c, as a list over the clicks s
    keyed by c: cup_outputs on the top side, cap_inputs on the bottom.

    ops is a rotation orbit, ops[s] = R(ops[s - 1]), and closing a strand
    pair commutes with one click: cup_outputs(R f, c) = R(cup_outputs(f,
    c + 1)) and cap_inputs(R f, c) = R(cap_inputs(f, c - 1)).  So only
    one start position (n - 1 on top, 1 below) is closed on every click,
    and s = 0 at each other position; every other piece is the click of
    its neighbour one click back, and a zero piece is its own click.
    """
    n = ops[0].z_in
    close, start, step = (cup_outputs, n - 1, 1) if from_top else (cap_inputs, 1, -1)
    pieces = {start: [close(op, start) for op in ops]}
    for c in range(n - 2, 0, -1) if from_top else range(2, n):
        back = pieces[c + step]
        pieces[c] = [close(ops[0], c)] + [rotation(ctx, f) if f else f for f in back[:-1]]
    return pieces


def capping_pattern(p: int):
    """Close one strand pair of every R^i(g x 1) and match the survivors.

    At each cap or cup position exactly one cyclic window (i-1, i, i+1)
    survives, with outer terms equal and the middle delta times them, so
    a vanishing total forces k_{i-1} + delta k_i + k_{i+1} = 0.  Returns
    (True, centers-per-generator) on success; the centers cover 4p-2
    distinct indices, enough to pin the solution space to nullity two.
    The pieces come from ``_capping_pieces``, one side at a time, the
    bottom first, and are checked in ascending position.
    """
    g = _gens(p)
    ctx = g.ctx
    m = 4 * p
    delta = ctx.loop_value
    all_centers = {}
    for name in ("alpha", "beta"):
        ops = _rotation_orbit(p, name)
        centers = set()
        for from_top in (False, True):
            for c, pieces in sorted(_capping_pieces(ctx, ops, from_top).items()):
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

_STRANDS = {"2p-2": lambda p: 2 * p - 2, "2p-1": lambda p: 2 * p - 1, "2p": lambda p: 2 * p,
            "3p-1": lambda p: 3 * p - 1}


class Identity(NamedTuple):
    """One of the paper's operator identities, checked as exact matrix equalities.

    ``sides(g, n, *args)`` builds it on n = _STRANDS[strands](p) strands
    from the generator set g and lazily yields (tag, lhs, rhs), one pair of
    sides at a time, so only one product is alive at once.  The first pair
    that differs fails the check with a witness headed by the tag: the
    identity's text, or a dict of leading witness fields.  A builder may
    end with ``return holds, witness`` to give its own verdict once every
    pair agrees.  A ``lattice`` identity, whose loops grow like the
    matrix-entry lattice, is gated on 4^n >= budget, any other on
    2^n > budget.
    """

    strands: str
    sides: Callable
    args: tuple = ()
    lattice: bool = False

    def __call__(self, p, budget):
        n = _STRANDS[self.strands](p)
        (_require_solve if self.lattice else _require_strands)(n, budget)
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


def _on_support(tag, lhs, rhs, left: int, right: int) -> tuple:
    """The pair (tag, I^left x lhs x I^right, I^left x rhs x I^right),
    compared on the strands its operators occupy: A x 1 = B x 1 exactly
    when A = B.  A pair that differs there is widened to the identity's
    strands, so its witness is read where the identity is stated."""
    if lhs == rhs:
        return tag, lhs, rhs
    return tag, widen(lhs, left, right), widen(rhs, left, right)


def _near_overlap(g, n):
    # g_1 and g_(1+gap) occupy the first 2p-1+gap strands between them
    for name in ("alpha", "beta"):
        gen = getattr(g, name)
        for gap in range(1, g.p):
            w = 2 * g.p - 1 + gap
            x, y, zero = embed(gen, 1, w), embed(gen, 1 + gap, w), LinOp.zero(g.ctx, w, w)
            yield _on_support(f"{name}_1.{name}_{1 + gap} = 0", x * y, zero, 0, n - w)
            yield _on_support(f"{name}_{1 + gap}.{name}_1 = 0", y * x, zero, 0, n - w)


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


# The side of a slide or e-chain identity, as data: the map that closes a
# cap or cup on a generator or multiplies it by e_i, and the identity's
# text, formatted with the generator's name and last = n - 1.
_CAP = (cap_inputs, "{name}_2.cap_1 = {name}_1.cap_{last}")
_CUP = (cup_outputs, "cup_1.{name}_2 = cup_{last}.{name}_1")
_E_LEFT = (e_left, "e_1.{name}_2 = e_1..e_{last}.{name}_1")
_E_RIGHT = (e_right, "{name}_2.e_1 = {name}_1.e_{last}..e_1")


def _slide(g, n, name, side):
    close, text = side
    gen = getattr(g, name)
    yield (text.format(name=name, last=n - 1),
           close(embed(gen, 2, n), 1), close(embed(gen, 1, n), n - 1))


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
        table, cols = ctx.table, {}
        for ki, op in zip(_coefficients(g.p, seed).k, ops):
            if a := ki.id:
                for m, col in op.columns.items():
                    krow_add(cols.setdefault(m, {}), col.terms, a, table)
        total = _op(ctx, n, n, {m: _vec(ctx, n, t) for m, t in cols.items() if t})
        yield {"identity": f"sum k_i R^i({name} x 1) = 0", "seed": list(seed)}, total, zero


def _e_kill(g, n):
    # e_i.g_j is e_(i-j+1).g placed at j, so on the 2p-1 strands of g the
    # pairs of j = 2 are those of j = 1, and only j = 1 is compared
    w = 2 * g.p - 1
    zero = LinOp.zero(g.ctx, w, w)
    for name in ("alpha", "beta"):
        gen = getattr(g, name)
        sides = [(e_left(gen, k), e_right(gen, k)) for k in range(1, w)]
        for i, (left, right) in enumerate(sides, 1):
            yield _on_support(f"e_{i}.{name}_1 = 0", left, zero, 0, n - w)
            yield _on_support(f"{name}_1.e_{i} = 0", right, zero, 0, n - w)


def _e_chain(g, n, name, side):
    times, text = side
    gen = getattr(g, name)
    rhs = embed(gen, 1, n)
    for t in range(n - 1, 0, -1):
        rhs = times(rhs, t)
    yield text.format(name=name, last=n - 1), times(embed(gen, 2, n), 1), rhs


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


# --- span claims ---------------------------------------------------------------

def _dependencies(ctx: FieldCtx, ops) -> list:
    """The exact nullspace of the columns ops[i].flat(), as id vectors
    {i: c}, one per operator that depends on earlier ones, its own c being
    1.  Each sum of c ops[i] must vanish exactly (ArithmeticError if not)."""
    rows_by_pos: dict = defaultdict(dict)
    for i, op in enumerate(ops):
        for pos, c in op.flat().items():
            rows_by_pos[pos][i] = c
    null = nullspace(ctx, rows_by_pos.values(), range(len(ops)))
    for v in null:
        if reduce(LinOp.__add__, (ops[i].scale(ctx.wrap(c)) for i, c in v.items())):
            raise ArithmeticError(f"the dependency on candidates {sorted(v)} does not vanish")
    return null


class Span(NamedTuple):
    """A claim that on n = _STRANDS[strands](p) strands the diagrams, named
    by ``to_parens()``, and the (name, operator) list ``words(g)`` of
    ``extra(p)`` words are independent, and with ``commutant`` span
    End_U(X^n); another number of candidates raises ArithmeticError.
    ``pairs(g, n)``, an Identity builder, is checked first.  A rank
    deficit's witness lists the dependencies; with a ``completion(g)`` of
    named words, also as relations and the rank the completion restores."""

    strands: str
    identity: str
    words: Callable = lambda g: []
    extra: Callable = lambda p: 0
    commutant: bool = False
    pairs: Callable = lambda g, n: ()
    completion: Callable | None = None

    def __call__(self, p, budget, n=None):
        n = n or _STRANDS[self.strands](p)
        _require_solve(n, budget)
        g = _gens(p)
        ctx = g.ctx
        holds, wit = _first_difference(self.pairs(g, n))
        if not holds:
            return n, False, wit
        named = [(d.to_parens(), diagram_to_matrix(ctx, d)) for d in all_diagrams(n, n)]
        named += self.words(g)
        expected = catalan(n) + self.extra(p)
        if len(named) != expected:
            raise ArithmeticError(f"{len(named)} spanning candidates, expected {expected}")
        ops = [op for _, op in named]
        rank = rank_of_linops(ctx, ops)
        cd = {"commutant": commutant_dim(p, n, budget)} if self.commutant else {}
        if rank == expected == cd.get("commutant", expected):
            return n, True, None
        wit = {"identity": self.identity, "rank": rank, **cd, "expected": expected}
        if rank < expected:
            deps = wit["dependencies"] = [
                [[named[i][0], str(ctx.wrap(c))] for i, c in sorted(v.items())]
                for v in _dependencies(ctx, ops)]
            if self.completion:
                added = self.completion(g)
                wit["word_dependency"] = "; ".join(
                    linear_text((c, name) for name, c in d) + " = 0" for d in deps)
                wit["completion"] = "adding " + ", ".join(name for name, _ in added)
                wit["completed_rank"] = rank_of_linops(ctx, ops + [op for _, op in added])
        return n, False, wit


def _separation(g, n):
    # the diagrams are free only below the critical size, where e_1e_2 and
    # e_2e_1 must differ on 011
    if n >= 2 * g.p - 1:
        raise ValueError("diagram basis is only free below the critical size")
    if n >= 3:
        b, one = from_word("011"), LinOp.identity(g.ctx, 3)
        lhs = e_left(e_left(one, 2), 1).column(b)
        rhs = e_left(e_left(one, 1), 2).column(b)
        if lhs == rhs:
            return False, {"identity": "e_1e_2 and e_2e_1 separate on 011", "value": str(lhs)}
    yield from ()  # a verdict without pairs


def _projections(g, n):
    # gamma's factorial ratios, alpha and beta as module maps (so their span
    # lies in End_U), and alpha.beta, beta.alpha over gamma splitting f_n
    ctx, p = g.ctx, g.p
    for k in range(2 * p):
        if ctx.eval_ratio(*gamma_factorial_ratio(p, k)) != g.gamma:
            return False, {"identity": "gamma factorial ratio", "k": k}
    a, b = g.alpha, g.beta
    acts = (("K", op_K(ctx, n)), ("E", op_E(ctx, n)), ("F", op_F(ctx, n)))
    yield from ((f"{x}.{name} = {name}.{x}", op * gen, gen * op)
                for name, gen in (("alpha", a), ("beta", b)) for x, op in acts)
    inv = g.gamma.inv()
    u, v = (a * b).scale(inv), (b * a).scale(inv)
    zero = LinOp.zero(ctx, n, n)
    yield "first projection idempotent", u * u, u
    yield "second projection idempotent", v * v, v
    yield "projections orthogonal", u * v, zero
    yield "projections orthogonal (reversed)", v * u, zero
    yield "projections sum to top projector", u + v, jw_closed(ctx, n)


def prop5_words(p: int) -> list:
    """The 12p-6 generator words on 2p strands, as (name, operator): per
    family (alpha, beta, alpha.beta), g_1, g_2 and the one-sided e-chains
    on g_2, 4p - 2 words."""
    g = _gens(p)
    n = 2 * p
    a = [(f"alpha_{i}", embed(g.alpha, i, n)) for i in (1, 2)]
    b = [(f"beta_{i}", embed(g.beta, i, n)) for i in (1, 2)]
    words = []
    for g1, g2 in (a, b, [(f"{s}.{t}", x * y) for (s, x), (t, y) in zip(a, b)]):
        words += [g1, g2]
        for times, form in ((e_right, "{}.e_{}"), (e_left, "e_{1}.{0}")):
            text, w = g2
            for i in range(1, n - 1):
                text, w = form.format(text, i), times(w, i)
                words.append((text, w))
    if len(words) != 12 * p - 6:
        raise ArithmeticError(f"{len(words)} generator words, expected {12 * p - 6}")
    return words


def _completion(g) -> list:
    # The listed words degenerate at p=2, where delta = 0; g_1.e_{2p-1} per
    # family restores a spanning set (each family's 4p - 2 words open with g_1)
    n = 2 * g.p
    return [(f"{name}.e_{n - 1}", e_right(w, n - 1)) for name, w in prop5_words(g.p)[::2 * n - 2]]


def _orbit_rank(g, n):
    # each rotation orbit has rank 4p - 2, and its dependencies span the
    # two seed streams
    ctx, p = g.ctx, g.p
    seeds = [{i: c.id for i, c in enumerate(_coefficients(p, seed).k) if c}
             for seed in ((1, 0), (0, 1))]
    for name in ("alpha", "beta"):
        ops = _rotation_orbit(p, name)
        null = _dependencies(ctx, ops)
        if len(ops) - len(null) != 4 * p - 2:
            return False, {"identity": f"rotation orbit rank of {name} x 1",
                           "rank": len(ops) - len(null), "expected": 4 * p - 2}
        if rank_of_vectors(ctx, null + seeds) != 2:
            return False, {"identity": f"nullspace of {name} orbit matches seed span",
                           "nullity": len(null)}
    yield from ()  # a verdict without pairs


def _kp_law(g, n):
    # the seeds (1, 0) and (0, 1) give the two coefficient streams of the
    # closed form, hence the law for arbitrary seeds
    for seed in ((1, 0), (0, 1)):
        kv = _coefficients(g.p, seed)
        if not (kv.recurrence_holds() and kv.periodicity_holds()):
            return False, {"identity": "seed coefficient vector invariants", "seed": list(seed)}
    ok, details = capping_pattern(g.p)
    if not ok:
        return False, details
    yield from ()  # a verdict without pairs


# --- action identities, the Jones-Wenzl window, the cap/cup duality ----------
# Vectors are compared as one-column maps X^0 -> X^z and scalars as 0-strand
# maps, so every side goes through the same first-difference witness.

def _col(v: TensorVector) -> LinOp:
    return LinOp(v.ctx, 0, v.z, {BasisIndex(0, 0): v})


def _num(ctx: FieldCtx, c: CycloNum) -> LinOp:
    return LinOp.identity(ctx, 0).scale(c)


def _action_sides(g, top: int):
    """The action identities of K, E and F on X^z, z <= top."""
    ctx = g.ctx
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


def _jw_window_sides(g, n: int):
    """Below p the closed and recursive f_m agree; inside the window
    p <= m <= 2p-2 the closed form is singular; f_(2p-1) is an idempotent
    fixing x_bottom (so nonzero) and killed by every e_i on both sides."""
    ctx, p = g.ctx, g.p
    for m in range(1, p):
        yield f"f_{m} closed = recursive", jw_closed(ctx, m), jw_recursive(ctx, m)
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


def _duality(g, n):
    # the nested caps realise Hom_U(1, X^2z), which the end-space solver uses
    ctx = g.ctx
    for z in range(1, n // 2 + 1):
        caps = _col(nested_cap(ctx, z))
        yield f"nested cap on {2 * z} strands = closed form", caps, _col(nested_cap_closed(ctx, z))
        yield (f"nested cup.nested cap on {2 * z} strands = delta^{z}",
               nested_cup(ctx, z) * caps, _num(ctx, ctx.loop_value ** z))


# Every check in report order, which is RELATION_IDS.  Each is an Identity
# or a Span entry, called as check(p, budget), and returns (strands, holds,
# witness-or-None).  The propositions are Span entries, gated on the 4^n
# lattice; so are the Identity entries marked lattice=True, whose cost
# grows like it.  Every other Identity is gated on the 2^n tensor space.
_CHECKS = {
    "eq1": Identity("2p-1", _squares_vanish),
    "eq2": Identity("2p-1", _sandwich, ("alpha", "beta")),
    "eq3": Identity("2p-1", _sandwich, ("beta", "alpha")),
    "eq4": Identity("3p-1", _near_overlap),
    "eq5": Identity("3p-1", _far_commute, ("alpha",)),
    "eq6": Identity("3p-1", _far_commute, ("beta",)),
    "eq7": Identity("2p-1", _anticommutator),
    "eq8": Identity("2p-1", _cap_kill),
    "eq9": Identity("2p", _slide, ("alpha", _CAP)),
    "eq10": Identity("2p", _slide, ("beta", _CAP)),
    "eq11": Identity("2p", _slide, ("alpha", _CUP)),
    "eq12": Identity("2p", _slide, ("beta", _CUP)),
    "eq13": Identity("2p-1", _rotation_fixed, ("alpha",)),
    "eq14": Identity("2p-1", _rotation_fixed, ("beta",)),
    "eq15": Identity("2p", _rotation_sum, ("alpha",)),
    "eq16": Identity("2p", _rotation_sum, ("beta",)),
    "eq17": Identity("2p", _e_kill),
    "eq18": Identity("2p", _e_chain, ("alpha", _E_LEFT)),
    "eq19": Identity("2p", _e_chain, ("alpha", _E_RIGHT)),
    "eq20": Identity("2p", _e_chain, ("beta", _E_LEFT)),
    "eq21": Identity("2p", _e_chain, ("beta", _E_RIGHT)),
    "prop2": Span("2p-2", "diagram matrices independent", pairs=_separation),
    "prop3": Span("2p-2", "commutant = diagram span below critical size", commutant=True),
    "prop4": Span("2p-1", "diagrams + alpha, beta, alpha.beta span",
                  lambda g: [("alpha", g.alpha), ("beta", g.beta),
                             ("alpha.beta", g.alpha * g.beta)], lambda p: 3, True, _projections),
    "prop5": Span("2p", "diagrams + generator words form a basis", lambda g: prop5_words(g.p),
                  lambda p: 12 * p - 6, True, completion=_completion),
    "pt_alpha": Identity("2p-1", _pt_vanishes, ("alpha",)),
    "pt_beta": Identity("2p-1", _pt_vanishes, ("beta",)),
    "pt_alphabeta": Identity("2p-1", _pt_composite, ("alpha", "beta")),
    "pt_betaalpha": Identity("2p-1", _pt_composite, ("beta", "alpha")),
    "rot_rank": Identity("2p", _orbit_rank, lattice=True),
    "kp_periodicity": Identity("2p", _kp_law),
    "action": Identity("2p", _action_sides, lattice=True),
    "jw_window": Identity("2p-1", _jw_window_sides, lattice=True),
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
