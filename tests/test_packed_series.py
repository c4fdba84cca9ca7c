"""Packed series over Q[v] against the row-wise routes they replaced.

A series over a polynomial ring Q[v] holds one packed big integer between
operations.  The oracle here is the earlier representation: a tuple of Poly
rows, multiplied by re-encoding both operands for every product (the
deleted ``exactalg.packed_series_mul``) and added, negated, cut, shifted and
divided row by row.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadslice.closed_forms import ALPHA_RING, GAMMA_RING
from quadslice.errors import NonInvertibleError, StructureError
from quadslice.exactalg import _bytes_width, _decode, _encode, _integral, _norm_coeff, bipoly, bipoly_one, tb, tw
from quadslice.ratfunc import Poly, _inv_elem
from quadslice.series import RHO_RING, Series, bipoly_to_tau, graded_div, tau_to_bipoly

RINGS = {"Q[rho]": RHO_RING, "Q[alpha]": ALPHA_RING}


# ------------------------------------------------------------------ oracle

def packed_series_mul(p, q, cap):
    """Truncated product of two series given as coefficient lists of their
    polynomial rows; every product re-encodes both operands at a stride of
    one more than the product's inner degree.  Returns cap + 1 lists."""
    tp = {(a, b): c for a, cs in enumerate(p[:cap + 1]) for b, c in enumerate(cs) if c}
    tq = {(a, b): c for a, cs in enumerate(q[:cap + 1]) for b, c in enumerate(cs) if c}
    if not tp or not tq:
        return [[] for _ in range(cap + 1)]
    stride = max(b for _, b in tp) + max(b for _, b in tq) + 1
    den_p, ints_p = _integral(tp.values())
    den_q, ints_q = _integral(tq.values())
    bound = min(len(ints_p), len(ints_q)) * max(map(abs, ints_p)) * max(map(abs, ints_q))
    width, n = _bytes_width(bound.bit_length() + 1), (cap + 1) * stride

    def pack(terms, ints):
        return _encode({a * stride + b: c for (a, b), c in zip(terms, ints)}, width, n)

    vals = _decode(pack(tp, ints_p) * pack(tq, ints_q), width, n, range(n))
    den = den_p * den_q
    if den != 1:
        vals = [_norm_coeff(Fraction(c, den)) if c else 0 for c in vals]
    return [vals[a * stride:(a + 1) * stride] for a in range(cap + 1)]


def rows_mul(a, b, var):
    cap = min(len(a), len(b)) - 1
    return tuple(Poly(var, r) for r in packed_series_mul([c.coeffs for c in a], [c.coeffs for c in b], cap))


def rows_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def rows_neg(a):
    return tuple(-x for x in a)


def rows_shift(a, k, var):
    if k >= 0:
        return (Poly.zero(var),) * k + a
    if any(not c.is_zero() for c in a[:-k]):
        raise NonInvertibleError("not divisible")
    return a[-k:]


def rows_divide(a, b):
    """Row-wise exact quotient q with b * q = a, as ``Series.divide`` states it."""
    vb = next((k for k, c in enumerate(b) if not c.is_zero()), None)
    va = next((k for k, c in enumerate(a) if not c.is_zero()), None)
    if vb is None or (va is not None and va < vb) or min(len(a), len(b)) - 1 - vb < 0:
        raise NonInvertibleError("no series quotient")
    cap = min(len(a), len(b)) - 1 - vb
    lead = b[vb]
    q = []
    for k in range(cap + 1):
        acc = a[k + vb]
        for j in range(1, k + 1):
            acc = acc - b[vb + j] * q[k - j]
        if lead.degree():
            quo, rem = acc.divmod(lead)
            if not rem.is_zero():
                raise NonInvertibleError("not over Q[v]")
        else:
            quo = acc * _inv_elem(lead.coeffs[0])
        q.append(quo)
    return tuple(q)


# -------------------------------------------------------------- operands

coefficient = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**80), 2**80),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 10**6)),
)


@st.composite
def operand(draw, var):
    """(packed series, oracle rows) at cap 0..8: zero, or dense or sparse
    rows of degree <= 4, or graded rows, row k of degree k + t with
    t in -2..0 (as in the tau grading, where the degree bound of a product
    binds through the excess deg(row k) - k); then shifted up by 0..3 rows,
    which lowers the excess further."""
    cap = draw(st.integers(0, 8))
    shape = draw(st.sampled_from(["zero", "dense", "sparse", "graded"]))
    t = draw(st.integers(-2, 0))
    rows = tuple(
        Poly(var, [] if shape == "zero" else
             [draw(coefficient) if shape in ("dense", "graded") or draw(st.booleans()) else 0
              for _ in range((k + t if shape == "graded" else draw(st.integers(0, 4))) + 1)])
        for k in range(cap + 1)
    )
    up = draw(st.integers(0, 3))
    return Series("u", cap, rows, ring_of(var)).shift(up), rows_shift(rows, up, var)


def ring_of(var):
    return {"rho": RHO_RING, "alpha": ALPHA_RING, "gamma": GAMMA_RING}[var]


def same(value, rows, var):
    """value holds exactly rows: decoded, by ==, and by hash."""
    assert value.coeffs == rows
    fresh = Series(value.var, len(rows) - 1, rows, ring_of(var))
    assert value == fresh and hash(value) == hash(fresh)


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=120, deadline=None, database=None)
@given(data=st.data())
def test_packed_series_match_the_row_wise_routes(ring, data):
    var = RINGS[ring].zero.var
    (a, ra), (b, rb), (c, rc) = (data.draw(operand(var)) for _ in range(3))
    same(a, ra, var)
    same(a * b, rows_mul(ra, rb, var), var)
    same((a * b) * c, rows_mul(rows_mul(ra, rb, var), rc, var), var)
    same(a + b, rows_add(ra, rb), var)  # at the smaller cap, as zip cuts
    same(a - b, rows_add(ra, rows_neg(rb)), var)
    same(-a, rows_neg(ra), var)
    same(a * b + c, rows_add(rows_mul(ra, rb, var), rc), var)
    k = data.draw(st.integers(0, a.cap))
    same(a.truncate(k), ra[:k + 1], var)
    same(a.shift(k), rows_shift(ra, k, var), var)
    try:
        want = rows_shift(ra, -k, var)
    except NonInvertibleError:
        with pytest.raises(NonInvertibleError):
            a.shift(-k)
    else:  # a shift down raises the excess by k, which the next product must see
        same(a.shift(-k), want, var)
        same(a.shift(-k) * b, rows_mul(want, rb, var), var)
    assert a.valuation() == next((i for i, r in enumerate(ra) if not r.is_zero()), None)
    assert (a == b) == (ra == rb)
    rab = rows_mul(ra, rb, var)
    for num, rnum, den, rden in ((a * b, rab, b, rb), (a, ra, b, rb), (a * b + c, rows_add(rab, rc), c, rc)):
        try:
            want = rows_divide(rnum, rden)
        except NonInvertibleError:
            with pytest.raises(NonInvertibleError):
                num.divide(den)
        else:
            same(num.divide(den), want, var)


@settings(max_examples=80, deadline=None, database=None)
@given(st.integers(0, 8).flatmap(lambda cap: st.tuples(st.just(cap), *(
    st.dictionaries(st.tuples(st.integers(0, cap), st.integers(0, cap)).filter(lambda e: sum(e) <= cap),
                    coefficient) for _ in range(2)))))
def test_tau_image_is_the_packed_bivariate_value(drawn):
    # bipoly_to_tau reads the MPoly's packed integer as it stands; the oracle
    # builds the rows from the decoded terms
    cap, *terms = drawn
    images, oracles = [], []
    for t in terms:
        p = bipoly(t, cap)
        rows = [[0] * (k + 1) for k in range(cap + 1)]
        for (a, b), c in p.terms.items():
            rows[a + b][b] = c
        images.append(bipoly_to_tau(p))
        oracles.append(tuple(Poly("rho", r) for r in rows))
        same(images[-1], oracles[-1], "rho")
        assert tau_to_bipoly(images[-1]) == p
    (x, y), (rx, ry) = images, oracles
    same(x * y, rows_mul(rx, ry, "rho"), "rho")
    v = x.valuation()
    if v is not None:
        same(x.shift(-v) * y, rows_mul(rows_shift(rx, -v, "rho"), ry, "rho"), "rho")


def test_degree_check_reads_the_integer():
    # an excess bound above 0 whose rows stay on or below the diagonal: the
    # rho^2 of row 1 cancels, but the sum keeps the larger bound
    rho = Poly.gen("rho")
    zero = RHO_RING.zero
    s = Series("tau", 2, [zero, rho * rho + rho], RHO_RING) + Series("tau", 2, [zero, -rho * rho], RHO_RING)
    assert s._exc > 0
    p = tau_to_bipoly(s)
    assert s._coeffs is None and p._terms is None
    assert p == bipoly({(0, 1): 1}, 2)
    # a round trip hands the packed fields across, decoding no row either way
    q = bipoly({(1, 0): 3, (0, 1): Fraction(-1, 2)}, 4) * bipoly({(0, 0): 1, (1, 1): 5, (0, 3): 2}, 4)
    image = bipoly_to_tau(q)
    back = tau_to_bipoly(image)
    assert image._exc <= 0 and back == q
    assert q._terms is None and image._coeffs is None and back._terms is None


def row_wise_bipoly(rows):
    """The terms tau_to_bipoly must give, or the message it must raise with."""
    for k, c in enumerate(rows):
        if c.degree() > k:
            return f"tau^{k} coefficient has rho-degree {c.degree()} > {k}"
    return {(k - b, b): c for k, r in enumerate(rows) for b, c in enumerate(r.coeffs) if c}


def tau_series(terms):
    """A tau-series at cap 5 from (row k, t, c): c rho^(k + t) in row k."""
    rows = [[0] * 8 for _ in range(6)]
    for k, t, c in terms:
        rows[k][max(k + t, 0)] += c
    return Series("tau", 5, [Poly("rho", r) for r in rows], RHO_RING)


tau_terms = st.lists(st.tuples(st.integers(0, 5), st.integers(-2, 2), coefficient), max_size=8)


@settings(max_examples=100, deadline=None, database=None)
@given(tau_terms, tau_terms, st.sampled_from(["sum", "product"]))
def test_degree_check_matches_the_row_wise_check(first, second, op):
    # rows up to two above or below the diagonal: the excess bound of the
    # result is positive or not, and exact or not
    combine = (lambda x, y: x + y) if op == "sum" else (lambda x, y: x * y)
    a, b = tau_series(first), tau_series(second)
    want = row_wise_bipoly(combine(a, b).coeffs)
    value = combine(a, b)
    if isinstance(want, str):
        with pytest.raises(NonInvertibleError, match=re.escape(want)):
            tau_to_bipoly(value)
    else:
        held = value._coeffs  # None unless the value is an operand, built from its rows
        assert tau_to_bipoly(value).terms == want and value._coeffs is held


def test_degree_check_rejects_a_product_above_the_diagonal():
    rho = Poly.gen("rho")
    a = Series("tau", 3, [RHO_RING.one, rho * rho], RHO_RING)
    b = Series("tau", 3, [RHO_RING.one, RHO_RING.zero, rho], RHO_RING)
    with pytest.raises(NonInvertibleError, match=r"tau\^1 coefficient has rho-degree 2 > 1"):
        tau_to_bipoly(a * b)


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_packed_series_edge_values(ring):
    field = RINGS[ring]
    var = field.zero.var
    v = Poly.gen(var)
    zero = Series.zero("u", 2, field)
    assert zero.is_zero() and zero.valuation() is None and zero.coeffs == (field.zero,) * 3
    wide = Series("u", 2, [v ** 5 * 2**80 - Fraction(1, 3), -(2**79) * v], field)
    assert wide * zero == zero and zero * wide == zero and wide + zero == wide and zero - wide == -wide
    assert (wide * wide).coeffs == rows_mul(wide.coeffs, wide.coeffs, var)
    # a shift up by more rows than the degree of its rows: negative excess
    high = Series.one("u", 1, field).shift(6)
    assert (high * high).is_zero() and (high * wide.shift(5)).coeffs == (field.zero,) * 8
    with pytest.raises(NonInvertibleError, match="not divisible by u\\^8"):
        high.shift(-8)
    with pytest.raises(StructureError, match="cap must be >= 0"):
        zero.shift(-5)
    assert high.shift(-6) == Series.one("u", 1, field)
    # slots at the bottom of their signed range, whose negation needs one bit more
    low = Series("u", 1, [Poly(var, [-128, -(2**15)]), Poly(var, [-(2**79)])], field)
    assert (-low).coeffs == rows_neg(low.coeffs) and (low - low).is_zero() and -(-low) == low
    assert (wide * Fraction(3, 2)).coeffs == tuple(c * Fraction(3, 2) for c in wide.coeffs)
    assert (wide * v).coeffs == tuple(c * v for c in wide.coeffs)


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_degree_and_excess_bounds_survive_each_operation(ring):
    # each product below needs the stride that the bounds of its operands
    # give only when shift, sum and truncation carry those bounds exactly
    field = RINGS[ring]
    var = field.zero.var
    v = Poly.gen(var)

    def series(cap, rows):
        return Series("u", cap, rows, field)

    def check(value, rows):
        same(value, rows, var)

    graded = series(6, [field.zero, field.zero] + [Poly(var, [k + 1] * (k - 1)) for k in range(2, 7)])
    cube = series(3, [v ** 3 + 2])
    # a shift down raises the excess; the product cuts the shifted value to cap 3
    check(graded.shift(-2) * cube, rows_mul(rows_shift(graded.coeffs, -2, var), cube.coeffs, var))
    # a sum keeps the larger excess and the larger degree of its operands
    top = series(4, [v ** 3])
    diagonal = series(4, [Poly(var, [1] * (k + 1)) for k in range(5)])
    low = series(2, [v ** 3 - 1])
    check((top + diagonal) * low, rows_mul(rows_add(top.coeffs, diagonal.coeffs), low.coeffs, var))
    flat = series(2, [field.one] * 3)
    cubed = series(2, [v ** 3])
    rows = rows_add(cubed.coeffs, flat.coeffs)
    both = cubed + flat
    check(both * both, rows_mul(rows, rows, var))


# ------------------------------------------- division by a monomial c u^v

MONOMIAL_RINGS = {"Q[rho]": RHO_RING, "Q[alpha]": ALPHA_RING, "Q[gamma]": GAMMA_RING}


def quotient_or_refusal(num, den, rnum, rden, var):
    """num.divide(den) holds what the row loop gives, or both refuse."""
    try:
        want = rows_divide(rnum, rden)
    except NonInvertibleError:
        with pytest.raises(NonInvertibleError):
            num.divide(den)
    else:
        same(num.divide(den), want, var)


@pytest.mark.parametrize("ring", sorted(MONOMIAL_RINGS))
@settings(max_examples=120, deadline=None, database=None)
@given(data=st.data())
def test_monomial_division_matches_the_row_loop(ring, data):
    var = MONOMIAL_RINGS[ring].zero.var
    num, rnum = data.draw(operand(var))
    c = data.draw(coefficient.filter(bool))
    v, cap = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 8))
    den = Series.const("u", cap, c * MONOMIAL_RINGS[ring].one, MONOMIAL_RINGS[ring]).shift(v)
    rden = rows_shift((Poly(var, [c]),) + (Poly.zero(var),) * cap, v, var)
    quotient_or_refusal(num, den, rnum, rden, var)
    # the same divisor times a non-constant row is no monomial: the row loop
    wide = den * Series("u", den.cap, [MONOMIAL_RINGS[ring].one, Poly.gen(var)][:den.cap + 1], MONOMIAL_RINGS[ring])
    quotient_or_refusal(num, wide, rnum, wide.coeffs, var)


@pytest.mark.parametrize("ring", sorted(MONOMIAL_RINGS))
def test_monomial_test_is_not_fooled_by_a_borrow(ring):
    # slots (-1, 1) at stride 1 pack to 2^w - 1, which a shift by the width
    # w reads as a constant: the divisor is -1 + u, no monomial
    field = MONOMIAL_RINGS[ring]
    var = field.zero.var
    den = Series("u", 4, [-field.one, field.one], field)
    assert den._stride == 1 and den._num >> den._width == 0
    num = Series("u", 4, [Poly(var, [1, 2]), Poly.gen(var), field.one], field)
    want = rows_divide(num.coeffs, den.coeffs)
    same(num.divide(den), want, var)
    same(num.shift(2).divide(den.shift(2)), want, var)


@pytest.mark.parametrize("ring", sorted(MONOMIAL_RINGS))
def test_monomial_division_refusals(ring):
    field = MONOMIAL_RINGS[ring]
    var = field.zero.var
    u2 = Series.const("u", 4, 3 * field.one, field).shift(2)
    short = Series("u", 5, [field.zero, Poly.gen(var)], field)
    with pytest.raises(NonInvertibleError, match=r"quotient is not a series: valuations 1 < 2"):
        short.divide(u2)
    with pytest.raises(NonInvertibleError, match="divisor valuation exceeds series order"):
        Series.zero("u", 1, field).divide(u2)
    with pytest.raises(NonInvertibleError, match="division by the zero series"):
        short.divide(Series.zero("u", 4, field))


def test_division_by_tb_refuses_what_tb_does_not_divide():
    N = 5
    with pytest.raises(NonInvertibleError, match=r"valuations 0 < 1"):
        graded_div(bipoly_one(N) + tb(N), tb(N))
    with pytest.raises(NonInvertibleError, match=r"tau\^0 coefficient has rho-degree 1 > 0"):
        graded_div(tw(N), tb(N))
    assert graded_div(tb(N) * tw(N) - 3 * tb(N) ** 2, tb(N)) == (tw(N) - 3 * tb(N)).with_cap(N - 1)
    num, den = bipoly_to_tau(tb(N) * tw(N)), bipoly_to_tau(tb(N))
    assert tau_to_bipoly(num.divide(den)) == tw(N - 1)
    assert num._coeffs is None and den._coeffs is None  # no row decoded
