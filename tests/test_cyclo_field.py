"""Field arithmetic, quantum integers, factorial ratios, rendering."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uqsl2._kernel import kmul, knorm
from uqsl2.cyclo_field import (
    CycloNum,
    FieldCtx,
    SingularRatio,
    cyclotomic_polynomial,
    factorials,
    parse_cyclo,
)

CTX = {p: FieldCtx(p) for p in range(2, 9)}


def _random_cyclo(ctx, nums, den):
    acc = ctx.zero
    for j, c in enumerate(nums):
        acc = acc + ctx.q_power(j) * c
    return acc / den


# --- field construction -------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_field_rejects_small_p():
    for p in (1, 0, -3):
        with pytest.raises(ValueError):
            FieldCtx(p)


def test_fields_of_one_degree_have_their_own_tables():
    # p = 5 and p = 6 both have degree 4, so a pair has one shape in both
    # tables but not one value
    five, six = FieldCtx(5), FieldCtx(6)
    assert five.degree == six.degree == 4
    assert five is not six and five.table is not six.table
    assert five.red != six.red
    assert five.q_power(5) == -1 and six.q_power(5) != -1


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_root_of_unity_relations(p):
    ctx = CTX[p]
    assert ctx.q_power(p) == -ctx.one
    assert ctx.q ** (2 * p) == ctx.one
    assert ctx.degree == len(cyclotomic_polynomial(2 * p)) - 1


def test_degree_and_delta_small_p():
    assert CTX[2].degree == 2
    assert CTX[2].loop_value == CTX[2].zero
    assert CTX[3].loop_value == CTX[3].one
    assert CTX[2].loop_value == CTX[2].q + CTX[2].q_power(-1)
    assert CTX[3].loop_value == CTX[3].q + CTX[3].q_power(-1)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_float_diagnostic_agrees(p):
    # [n] = sin(n*pi/p) / sin(pi/p) on the unit circle, each value read
    # off its canonical pair at q = e^{i pi / p}
    ctx = CTX[p]
    w = cmath.exp(1j * math.pi / p)
    approx = lambda x: sum(n / x.den * w**j for j, n in enumerate(x.nums))
    for n in range(0, 2 * p + 1):
        expect = math.sin(n * math.pi / p) / math.sin(math.pi / p)
        assert abs(approx(ctx.qint(n)) - expect) < 1e-9
    assert abs(approx(ctx.q) - w) < 1e-12


# --- quantum integers and factorials ------------------------------------

@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_qint_power_sum_equals_ratio(p):
    ctx = CTX[p]
    denom = ctx.q - ctx.q_power(-1)
    for n in range(0, 2 * p + 1):
        ratio = (ctx.q_power(n) - ctx.q_power(-n)) / denom
        assert ctx.qint(n) == ratio


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_qint_basics(p):
    ctx = CTX[p]
    assert ctx.qint(0) == ctx.zero
    assert ctx.qint(1) == ctx.one
    assert not ctx.qint(p)
    for n in range(0, 3 * p):
        assert ctx.qint(-n) == -ctx.qint(n)
        assert ctx.qint(n + p) == -ctx.qint(n)
        assert ctx.qint(n + 2 * p) == ctx.qint(n)
        assert (not ctx.qint(n)) == (n % p == 0)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_qint_reflection_and_recurrence(p):
    ctx = CTX[p]
    for x in range(0, p + 1):
        assert ctx.qint(p - x) == ctx.qint(x)
    for n in range(0, 2 * p):
        assert ctx.qint(n - 1) + ctx.qint(n + 1) == ctx.loop_value * ctx.qint(n)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_qfact_basics(p):
    ctx = CTX[p]
    assert ctx.qfact(0) == ctx.one
    for n in range(0, 2 * p + 3):
        assert (not ctx.qfact(n)) == (n >= p)


def test_qfact_example_p3():
    assert CTX[3].qfact(2) == CTX[3].one


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factorial_reflection_identity(p):
    ctx = CTX[p]
    for x in range(0, p):
        assert ctx.qfact(x) * ctx.qfact(p - 1 - x) == ctx.qfact(p - 1)


# --- factorial ratios ----------------------------------------------------

def test_eval_ratio_trivial_cancel():
    ctx = CTX[3]
    assert ctx.eval_ratio(factorials(4), factorials(4)) == ctx.one


def test_factorials_lists_indices():
    assert factorials() == ()
    assert factorials(3, 0, 2) == (1, 2, 3, 1, 2)


@given(st.sampled_from(sorted(CTX)), st.data())
@settings(max_examples=60, deadline=None)
def test_eval_ratio_is_the_product_ratio(p, data):
    # with no [0] and no multiple of p below, the ratio is the plain
    # quotient of products, and a factor shared by both sides cancels
    ctx = CTX[p]
    num = data.draw(st.lists(st.integers(0, 3 * p), max_size=4))
    den = data.draw(st.lists(st.integers(1, 3 * p).filter(lambda i: i % p), max_size=4))
    top, bottom = ctx.one, ctx.one
    for i in num:
        top = top * ctx.qint(i)
    for i in den:
        bottom = bottom * ctx.qint(i)
    value = ctx.eval_ratio(tuple(num), tuple(den))
    assert value == top / bottom
    x = data.draw(st.integers(0, 3 * p))
    assert ctx.eval_ratio((*num, x), (x, *den)) == value


@pytest.mark.parametrize("p", [2, 3])
def test_eval_ratio_jw_coefficients_finite(p):
    # ([2p-1-k]! [k]!)/([2p-1]!): the single vanishing factor cancels
    ctx = CTX[p]
    for k in range(0, 2 * p):
        val = ctx.eval_ratio(factorials(2 * p - 1 - k, k), factorials(2 * p - 1))
        assert val  # nonzero, in particular finite


@pytest.mark.parametrize("p", [2, 3, 5])
def test_eval_ratio_singular_window(p):
    ctx = CTX[p]
    for k in range(1, p):
        with pytest.raises(SingularRatio):
            ctx.eval_ratio(factorials(p - k, k), factorials(p))


def test_eval_ratio_limit_pairs():
    # lim [ap]/[bp] = (-1)^(a+b) a/b
    ctx = CTX[3]
    p = 3
    assert ctx.eval_ratio((2 * p,), (p,)) == ctx.scalar(-2)
    assert ctx.eval_ratio((3 * p,), (p,)) == ctx.scalar(3)
    assert ctx.eval_ratio((2 * p, 3 * p), (p, p)) == ctx.scalar(-6)


def test_eval_ratio_excess_zeros():
    ctx = CTX[3]
    assert ctx.eval_ratio((3,)) == ctx.zero
    assert ctx.eval_ratio((3, 1), (2,)) == ctx.zero
    with pytest.raises(SingularRatio):
        ctx.eval_ratio((), (3,))


def test_eval_ratio_index_zero():
    ctx = CTX[3]
    assert ctx.eval_ratio((0,)) == ctx.zero
    with pytest.raises(SingularRatio):
        ctx.eval_ratio((), (0,))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_eval_ratio_reflection_invariance(p):
    # rewriting a nonzero index x as p-x leaves the value unchanged
    ctx = CTX[p]
    for x in range(1, p):
        a = ((p - x, 1), (2,)) if p > 2 else ((p - x,), ())
        b = ((x, 1), (2,)) if p > 2 else ((x,), ())
        assert ctx.eval_ratio(*a) == ctx.eval_ratio(*b)


# --- lambda and xi --------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 4])
def test_lambda_coeff_edges(p):
    ctx = CTX[p]
    for k in range(0, 2 * p + 1):
        assert ctx.lambda_coeff(0, k) == ctx.one
        assert ctx.lambda_coeff(k, k) == ctx.one


@pytest.mark.parametrize("p", [2, 3, 4])
def test_lambda_coeff_1_2(p):
    ctx = CTX[p]
    assert ctx.lambda_coeff(1, 2) == ctx.q_power(-1) * ctx.qint(2)


def test_xi_edges():
    ctx = CTX[3]
    assert ctx.xi(0, 4) == ctx.one
    assert ctx.xi(1, 2) == ctx.q_power(-2) + ctx.q_power(-4)


# --- field axioms (property-based) ---------------------------------------

small_ints = st.integers(-9, 9)


@given(
    a=st.tuples(small_ints, small_ints),
    b=st.tuples(small_ints, small_ints),
    c=st.tuples(small_ints, small_ints),
    d=st.integers(1, 7),
)
@settings(max_examples=60)
def test_field_axioms_p3(a, b, c, d):
    ctx = CTX[3]
    x = _random_cyclo(ctx, a, d)
    y = _random_cyclo(ctx, b, 1)
    z = _random_cyclo(ctx, c, 1)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == ctx.zero
    assume(x)
    assert (x * y) * x.inv() == y
    assert x * x.inv() == ctx.one


@pytest.mark.parametrize("p", [3, 5])
@given(data=st.data())
@settings(max_examples=40)
def test_subtraction_is_coefficientwise(p, data):
    """x - y and y - x, a sum with a negation, agree with the difference of
    the coefficients as Fractions; x - x is zero."""
    ctx = CTX[p]
    (xn, xd), (yn, yd) = [
        (data.draw(st.tuples(*([small_ints] * ctx.degree))), data.draw(st.integers(1, 7)))
        for _ in range(2)]
    x, y = CycloNum(ctx, xn, xd), CycloNum(ctx, yn, yd)
    coeffs = lambda v: [Fraction(a, v.den) for a in v.nums]
    diff = [Fraction(a, xd) - Fraction(b, yd) for a, b in zip(xn, yn)]
    assert coeffs(x - y) == diff
    assert coeffs(y - x) == [-c for c in diff]
    assert coeffs(1 - y) == [(j == 0) - Fraction(b, yd) for j, b in enumerate(yn)]
    assert x - x == ctx.zero


@pytest.mark.parametrize("p", range(2, 9))  # field degrees 2, 4, 6 and 8
@given(data=st.data())
@settings(max_examples=40)
def test_inverse(p, data):
    ctx = CTX[p]
    nums = data.draw(st.tuples(*([small_ints] * ctx.degree)))
    x = _random_cyclo(ctx, nums, data.draw(st.integers(1, 7)))
    assume(x)
    assert x * x.inv() == ctx.one
    assert x.inv().inv() == x


@pytest.mark.parametrize("p", [3, 4, 7])
@given(data=st.data())
@settings(max_examples=40)
def test_noncanonical_pair_is_one_value(p, data):
    """(c*nums, c*den) interns to the id of the canonical pair, and the two
    have one inverse id."""
    ctx = CTX[p]
    nums = data.draw(st.tuples(*([small_ints] * ctx.degree)))
    den = data.draw(st.integers(1, 7))
    c = data.draw(st.sampled_from([2, 3, -1, -2]))
    x, y = CycloNum(ctx, nums, den), CycloNum(ctx, tuple(c * a for a in nums), c * den)
    assert x.id == y.id and (y.nums, y.den) == knorm(nums, den)
    assume(x)
    assert x.inv().id == y.inv().id


# --- rendering and parsing -------------------------------------------------

def test_render_examples():
    ctx = CTX[4]
    x = ctx.q_power(3) * Fraction(1, 2) - ctx.q + ctx.scalar(2)
    assert str(x) == "1/2*q^3 - q + 2"
    assert str(ctx.zero) == "0"
    assert str(-ctx.one) == "-1"
    assert str(ctx.q) == "q"
    assert str(-ctx.q_power(2)) == "-q^2"
    assert str(ctx.scalar(Fraction(-2, 3)) * ctx.q) == "-2/3*q"


def test_parse_negative_exponents():
    ctx = CTX[3]
    assert parse_cyclo(ctx, "q^-1") == ctx.q_power(-1)
    assert parse_cyclo(ctx, "q^-2 + q^-4") == ctx.xi(1, 2)
    assert parse_cyclo(ctx, "0") == ctx.zero
    assert parse_cyclo(ctx, "-3/2") == ctx.scalar(Fraction(-3, 2))


@pytest.mark.parametrize("bad", ["", "q+", "q^^2", "1..5", "* q", "q 2", "2q"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_cyclo(CTX[3], bad)


@given(
    nums=st.tuples(*([small_ints] * 4)),
    den=st.integers(1, 12),
)
@settings(max_examples=60)
def test_parse_roundtrip_p5(nums, den):
    ctx = CTX[5]
    x = _random_cyclo(ctx, nums, den)
    assert parse_cyclo(ctx, str(x)) == x


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
@settings(max_examples=30)
def test_parse_roundtrip_small_p(p, data):
    ctx = CTX[p]
    nums = data.draw(st.tuples(small_ints, small_ints))
    den = data.draw(st.integers(1, 9))
    x = _random_cyclo(ctx, nums, den)
    assert parse_cyclo(ctx, str(x)) == x


# --- scalar kernel ---------------------------------------------------------

def test_kernel_known_values():
    from uqsl2._kernel import Scalars, kadd, kmul, kneg, krow_axpy

    ctx = CTX[5]
    red = ctx.red
    table = Scalars(red)
    ids = lambda row: {k: table.intern(*v) for k, v in row.items()}
    pairs = lambda row: {k: table.vals[i] for k, i in row.items()}
    a, b = (3, -2, 0, 7), (1, 5, -4, 2)
    assert kmul(a, 6, b, 5, red) == ((0, 30, -53, 52), 30)
    assert kadd(a, 6, b, 5) == ((21, 20, -24, 47), 30)
    assert kadd(a, 6, *kneg(b, 5)) == ((9, -40, 24, 23), 30)
    # dst += a*src: column 0 is summed, column 1 filled in, column 2 kept
    dst = ids({0: (a, 6), 2: (b, 5)})
    src = ids({0: (b, 3), 1: (a, 2)})
    krow_axpy(dst, src, table.intern((2, 0, 1, 0), 3), table)
    assert pairs(dst) == {0: ((17, 6, -6, 31), 18), 1: ((-1, -4, 3, 12), 6), 2: (b, 5)}
    # integral pairs (both denominators 1) take the fast path, which must give
    # knorm of the general formula (x*bd + y*ad over ad*bd), zero sums included
    general = lambda x, s, y: knorm(tuple(u + s * v for u, v in zip(x, y)), 1)
    ints = [a, b, (-3, 2, 0, -7), (0, 0, 0, 0), (6, -4, 0, 14), (-1, -5, 4, -2)]
    units = {1: table.intern((1, 0, 0, 0), 1), -1: table.intern((-1, 0, 0, 0), 1)}
    for x in ints:
        for y in ints:
            assert kadd(x, 1, y, 1) == general(x, 1, y)
            assert kneg(x, 1) == general((0,) * 4, -1, x)
            if not any(y):
                continue  # src holds nonzero ids only
            for sign, unit in units.items():
                dst = ids({0: (x, 1)}) if any(x) else {}
                krow_axpy(dst, ids({0: (y, 1)}), unit, table)
                s = general(x, sign, y)
                assert pairs(dst) == ({0: s} if any(s[0]) else {})


def test_krow_axpy_drops_zeros():
    from uqsl2._kernel import Scalars, krow_axpy

    ctx = CTX[2]
    table = Scalars(ctx.red)
    one, minus = table.intern((1, 0), 1), table.intern((-1, 0), 1)
    dst = {5: one}
    krow_axpy(dst, {5: one}, one, table)
    assert table.vals[dst[5]] == ((2, 0), 1)
    krow_axpy(dst, {5: one, 6: one}, minus, table)
    assert table.vals[dst[5]] == ((1, 0), 1) and dst[6] == minus
    krow_axpy(dst, {5: one}, minus, table)
    assert dst == {6: minus}


# --- the one pair product --------------------------------------------------

def _reference_product(p, an, ad, bn, bd):
    """a*b in Q(q) by schoolbook multiplication and division by Phi_2p."""
    mod = cyclotomic_polynomial(2 * p)
    deg = len(mod) - 1
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(an):
        for j, y in enumerate(bn):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k]
        for j in range(deg + 1):
            prod[k - deg + j] -= c * mod[j]
    return knorm(tuple(prod[:deg]), ad * bd)


def _operand(data, deg):
    nums = data.draw(st.tuples(*([st.integers(-40, 40)] * deg)))
    return knorm(nums, data.draw(st.integers(1, 30)))


def _products(ctx, a, b):
    """a*b from kmul, from CycloNum and from the field's id table, as pairs."""
    table = ctx.table
    x, y = table.id_of(*a), table.id_of(*b)
    by_id = table.vals[table.mul.get((x, y)) or table.product(x, y)]
    z = CycloNum(ctx, *a) * CycloNum(ctx, *b)
    return kmul(*a, *b, ctx.red), (z.nums, z.den), by_id


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
@given(data=st.data())
@settings(max_examples=60)
def test_every_product_matches_reference(p, data):
    ctx = FieldCtx(p)
    a, b = _operand(data, ctx.degree), _operand(data, ctx.degree)
    want = _reference_product(p, *a, *b)
    assert _products(ctx, a, b) == (want,) * 3
    # the table's memo hit gives the same pair
    assert _products(ctx, a, b) == (want,) * 3


def test_two_fields_are_refused():
    # a p = 2 id read in the p = 3 table names some other value
    one2, one3 = CTX[2].one, CTX[3].one
    for call in (lambda: one3 + one2, lambda: one3 - one2, lambda: CTX[3].q * -one2,
                 lambda: one3 / one2, lambda: one2 * CTX[3].q_power(4)):
        with pytest.raises(ValueError):
            call()
    assert one2 != one3 and one3 == 1


@given(data=st.data())
@settings(max_examples=60)
def test_products_are_per_field(data):
    """p = 5 and p = 6 both have degree 4; the same operands must give each
    field its own product whichever field multiplies them first."""
    fields = {p: FieldCtx(p) for p in (5, 6)}
    a, b = _operand(data, 4), _operand(data, 4)
    assume(_reference_product(5, *a, *b) != _reference_product(6, *a, *b))
    for x, y, order in ((a, b, (5, 6)), (b, a, (6, 5))):
        for p in order:
            assert _products(fields[p], x, y) == (_reference_product(p, *x, *y),) * 3
