"""Packed series over Q[v] against the row-wise routes they replaced.

A series over a polynomial ring Q[v] holds one packed big integer between
operations.  The oracle here is the earlier representation: a tuple of Poly
rows, multiplied by re-encoding both operands for every product (the
deleted ``exactalg.packed_series_mul``) and added, negated, cut, shifted and
divided row by row.
"""

import re
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from quadslice import exactalg, series
from quadslice.closed_forms import ALPHA_RING, GAMMA_RING, eval_tt, param_point
from quadslice.contfrac import newtype_rungs_from_solver_inputs, stieltjes_rungs_from_solver
from quadslice.errors import NonInvertibleError, StructureError
from quadslice.exactalg import (_bits, _bytes_width, _decode, _encode, _integral, _norm_coeff, bipoly, bipoly_one, tb,
                                tw)
from quadslice.ratfunc import QQ, Poly, _inv_elem
from quadslice.series import RHO, RHO_RING, Series, bipoly_to_tau, graded_div, tau_to_bipoly

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


@pytest.mark.parametrize("k", [6, Fraction(3, 7), Fraction(-2, 5)])
def test_a_series_over_two_denominators_reads_and_hashes_alike(k):
    s = Series("tau", 3, [Poly(RHO, [1, -2]), Poly(RHO, [0, 3, 5]), Poly.zero(RHO), Poly(RHO, [7])], RHO_RING)
    back = s * k * (1 / Fraction(k))  # the same value, over den(k) |num(k)|
    assert back._den == abs(Fraction(k).numerator) * Fraction(k).denominator != s._den
    assert back == s and s == back and hash(back) == hash(s)
    assert back.coeffs == s.coeffs and all(type(c) is int for row in back.coeffs for c in row.coeffs)
    assert back != s * 2 and (back - s).is_zero() and (back - s).valuation() is None


def test_scaling_and_the_zero_and_valuation_tests_decode_nothing(monkeypatch):
    t_w = eval_tt(param_point("yalpha", 4))[1]
    decoded, negated = [], []
    decode, neg = exactalg._decode, series._neg
    monkeypatch.setattr(exactalg, "_decode", lambda *args: decoded.append(args) or decode(*args))
    monkeypatch.setattr(series, "_neg", lambda a: negated.append(a) or neg(a))
    scaled = t_w * Fraction(3, 7)
    zero = scaled - scaled  # one integer difference, no negation
    assert scaled._coeffs is None and zero._coeffs is None
    assert scaled.valuation() == 1 and scaled.shift(2).valuation() == 3 and not scaled.is_zero()
    assert zero.is_zero() and zero.valuation() is None
    with pytest.raises(NonInvertibleError, match="^division by the zero series$"):
        scaled.divide(zero)
    with pytest.raises(NonInvertibleError, match="^quotient is not a series: valuations 1 < 3$"):
        scaled.divide(scaled.shift(2))
    assert decoded == [] and negated == []
    assert scaled.coeffs == tuple(c * Fraction(3, 7) for c in t_w.coeffs)


# ----------------------------------------- division on integers at v = 2^w

@contextmanager
def integer_route():
    """Records what each integer-route division returned (None for a
    fallback to the row loop) and the widths its rows were read at."""
    log = SimpleNamespace(results=[], widths=[])
    by_rows, row_ints = series._by_rows, series._row_ints

    def spy_rows(*args):
        log.results.append(by_rows(*args))
        return log.results[-1]

    def spy_ints(v, width, lo, n):
        log.widths.append(width)
        return row_ints(v, width, lo, n)

    series._by_rows, series._row_ints = spy_rows, spy_ints
    try:
        yield log
    finally:
        series._by_rows, series._row_ints = by_rows, row_ints


def row_loop(num, den):
    """num.divide(den) on the decoded rows only, the route before the integer one."""
    packed = series._packed_divide
    series._packed_divide = lambda a, b, vb, cap: None
    try:
        return num.divide(den)
    finally:
        series._packed_divide = packed


def as_row_loop(num, den):
    """num.divide(den) gives the row loop's quotient, or its error text."""
    try:
        want = row_loop(num, den)
    except NonInvertibleError as exc:
        with pytest.raises(NonInvertibleError, match=f"^{re.escape(str(exc))}$"):
            num.divide(den)
    else:
        got = num.divide(den)
        assert got.coeffs == want.coeffs and got == want


@st.composite
def divisor(draw, var):
    """(packed divisor, oracle rows) whose lowest row is neither a monomial
    nor a unit -- (v - 1)^k (at k = 2, 1 - 2v + v^2) or c v^j (1 + v) --
    over rows of small or wide coefficients, scaled by 1, 1/3 or 2/5 and
    shifted up by 0..2."""
    v = Poly.gen(var)
    cap = draw(st.integers(0, 8))
    if draw(st.booleans()):
        lead = (v - 1) ** draw(st.integers(1, 3))
    else:
        lead = draw(coefficient.filter(bool)) * v ** draw(st.integers(0, 2)) * (1 + v)
    scale = draw(st.sampled_from([1, Fraction(1, 3), Fraction(2, 5)]))
    rows = (lead * scale,) + tuple(
        Poly(var, [draw(coefficient) * scale for _ in range(draw(st.integers(0, 3)))]) for _ in range(cap))
    up = draw(st.integers(0, 2))
    return Series("u", cap, rows, ring_of(var)).shift(up), rows_shift(rows, up, var)


@pytest.mark.parametrize("ring", sorted(MONOMIAL_RINGS))
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_integer_division_matches_the_row_loop(ring, data):
    var = MONOMIAL_RINGS[ring].zero.var
    (den, rden), (q, rq), (c, rc) = data.draw(divisor(var)), data.draw(operand(var)), data.draw(operand(var))
    num, rnum = den * q, rows_mul(rden, rq, var)
    with integer_route() as log:
        quotient_or_refusal(num, den, rnum, rden, var)
        as_row_loop(num, den)
        # most of these are no multiple of den: the row loop's refusal, to the letter
        quotient_or_refusal(num + c, den, rows_add(rnum, rc), rden, var)
        as_row_loop(num + c, den)
    exact = [r for r in log.results if r is not None]
    # a divisor shifted above num's order is refused before either route
    defined = den.valuation() <= num.cap
    if defined and not any(r.is_zero() for r in rq) and all(type(x) is int for r in rnum + rden for x in r.coeffs):
        assert exact  # an integer quotient stays on the integers


@pytest.mark.parametrize("ring", sorted(MONOMIAL_RINGS))
def test_quotient_outgrowing_the_first_width_is_read_at_the_certified_one(ring):
    # a = 1 + v, b = (1 + v)(1 + c u): q_k = (-c)^k, so a and b are small and q
    # is not; at c = 63 and cap 6 the first width is short of q's 37 bits, so
    # it reads wrong digits, whose certificate fails, and the second holds q
    field = MONOMIAL_RINGS[ring]
    var = field.zero.var
    v = Poly.gen(var)
    a, b = Series("u", 6, [1 + v], field), Series("u", 6, [1 + v, 63 * (1 + v)], field)
    with integer_route() as log:
        q = a.divide(b)
    assert q.coeffs == tuple(Poly(var, [(-63) ** k]) for k in range(7)) == rows_divide(a.coeffs, b.coeffs)
    assert _bits((-63) ** 6) == 37 and log.widths == [32, 32, 48, 48] and log.results[0] is not None
    # at cap 8 and c = 2^40 no second width holds q either: the row loop's answer
    a, b = Series("u", 8, [1 + v], field), Series("u", 8, [1 + v, 2**40 * (1 + v)], field)
    with integer_route() as log:
        q = a.divide(b)
    assert log.results == [None] and len(log.widths) == 4
    assert q.coeffs == tuple(Poly(var, [(-(2**40)) ** k]) for k in range(9)) == rows_divide(a.coeffs, b.coeffs)


def test_width_certificate_holds_to_the_bit():
    # the family above at small c: a retry runs exactly when the first width
    # w is short of max(fit_a, fit_b + fit_q + bitlen(pairs)) + 1, pairs the
    # (n rows) x (min(deg_b, deg_q) + 1 slots) that can meet in a slot of D_k
    v = Poly.gen(RHO)
    short = {0: 0, 1: 0}
    for cap, cs in ((1, range(2**17 - 2, 2**17 + 3)), (6, range(8, 18)), (8, range(4, 10))):
        n = cap + 1
        for c in cs:
            a, b = Series("u", cap, [1 + v], RHO_RING), Series("u", cap, [1 + v, c * (1 + v)], RHO_RING)
            first = _bytes_width(max(a._width, b._width, a._fit + b._fit + (n * (b._deg + 1)).bit_length() + 16))
            fit_q = max(_bits((-c) ** k) for k in range(n))
            pairs = n * 1  # q's rows are constants: one slot each
            need = max(a._fit, b._fit + fit_q + pairs.bit_length()) + 1
            with integer_route() as log:
                q = a.divide(b)
            assert q.coeffs == tuple(Poly(RHO, [(-c) ** k]) for k in range(n))
            assert log.widths == ([first] * 2 if need <= first else [first] * 2 + [_bytes_width(need)] * 2)
            if need - first in short:
                short[need - first] += 1
    assert all(short.values())  # both sides of the bound were met exactly


@pytest.mark.parametrize("ring", sorted(MONOMIAL_RINGS))
def test_rational_quotients_fall_back_to_the_row_loop(ring):
    field = MONOMIAL_RINGS[ring]
    var = field.zero.var
    v = Poly.gen(var)
    for lead in (2, 3, Fraction(3, 2)):
        den = Series("u", 5, [lead, v], field)  # no monomial: its row 1 is v
        for num in (Series.one("u", 5, field), Series("u", 5, [1 + v, Fraction(1, 7)], field)):
            with integer_route() as log:
                as_row_loop(num, den)
                assert num.divide(den).coeffs == rows_divide(num.coeffs, den.coeffs)
            assert None in log.results
    # lead 2 with a quotient over Z[v] stays on the integers
    den = Series("u", 5, [2, v], field)
    with integer_route() as log:
        assert (den * 5).divide(den) == Series.const("u", 5, 5, field)
    assert log.results[0] is not None


@pytest.mark.parametrize("ring", sorted(MONOMIAL_RINGS))
def test_non_exact_division_gives_the_row_loops_refusal(ring):
    field = MONOMIAL_RINGS[ring]
    var = field.zero.var
    v = Poly.gen(var)
    cases = (
        (Series.one("u", 4, field), Series("u", 4, [1 + v, field.one], field), 0),
        (Series("u", 4, [1 + v, field.one], field), Series("u", 4, [1 + v], field), 1),
        (Series("u", 4, [v * (v - 1), field.zero, field.zero, v], field), Series("u", 4, [(v - 1) ** 2, v], field), 0),
        (Series("u", 6, [(v - 1) ** 2, field.zero, field.zero, v], field).shift(1),
         Series("u", 6, [(v - 1) ** 2], field).shift(1), 3),
    )
    for num, den, row in cases:
        with integer_route() as log:
            with pytest.raises(NonInvertibleError,
                               match=f"^quotient is not over Q\\[{var}\\]: nonzero remainder at u\\^{row}$"):
                num.divide(den)
        assert log.results == [None]
        as_row_loop(num, den)


@pytest.mark.parametrize("ring", sorted(MONOMIAL_RINGS))
def test_integer_route_denominators(ring):
    field = MONOMIAL_RINGS[ring]
    var = field.zero.var
    v = Poly.gen(var)
    # den_b = 7 scales the quotient's slots out of the width they were read
    # at: 7 (2^15 - 1) needs 19 bits, 2^15 - 1 only 16
    top = 2**15 - 1
    num = Series("u", 3, [(1 + v) * top, (1 + v) * (top - v)], field)
    den = Series("u", 3, [(1 + v) * Fraction(1, 7)], field)
    with integer_route() as log:
        q = num.divide(den)
    assert log.results[0] is not None
    assert q.coeffs == rows_divide(num.coeffs, den.coeffs) == (Poly(var, [7 * top]), Poly(var, [7 * top, -7]),
                                                               field.zero, field.zero)
    # den_a = 5 and den_b = 3, over a wide quotient
    wide = Series("u", 4, [2**70 - v ** 3, v, -(2**64)], field)
    den = Series("u", 4, [(v - 1) ** 2 * Fraction(1, 3), Fraction(1, 3) * v], field)
    num = den * wide * Fraction(3, 5)
    with integer_route() as log:
        q = num.divide(den)
    assert log.results[0] is not None and q == wide.truncate(4) * Fraction(3, 5)
    assert q.coeffs == rows_divide(num.coeffs, den.coeffs)


@pytest.mark.parametrize("ring", sorted(MONOMIAL_RINGS))
def test_quotient_above_either_operands_stride(ring):
    # 1 / (1 + v u) = sum (-v)^k u^k: row k of degree k, at cap 10 far above
    # the strides 1 and 2 of the operands
    field = MONOMIAL_RINGS[ring]
    var = field.zero.var
    v = Poly.gen(var)
    one, den = Series.one("u", 10, field), Series("u", 10, [field.one, v], field)
    with integer_route() as log:
        q = den.inv()
    assert log.results[0] is not None and q._stride > max(one._stride, den._stride)
    assert q.coeffs == tuple((-v) ** k for k in range(11)) == rows_divide(one.coeffs, den.coeffs)
    assert q * den == one
    # and through a lowest row that is no unit
    lead = Series("u", 10, [(v - 1) ** 2], field)
    with integer_route() as log:
        assert lead.divide(lead * den) == q
    assert log.results[0] is not None


def test_extractions_divide_on_integers():
    # no Poly.divmod runs outside the Q(rho) view of the companions
    callers, divmod = Counter(), Poly.divmod

    def spy(self, other):
        callers[sys._getframe(1).f_code.co_name] += 1
        return divmod(self, other)

    Poly.divmod = spy
    try:
        with integer_route() as log:
            stieltjes_rungs_from_solver(8, 2)
            newtype_rungs_from_solver_inputs(5, 3)
    finally:
        Poly.divmod = divmod
    assert set(callers) <= {"_rho_view"}
    assert log.results and None not in log.results


def test_packed_truncate_and_constructor_refusals():
    rho = Poly.gen(RHO)
    packed = Series("u", 4, [Poly(RHO, [1, 2])], RHO_RING)
    with pytest.raises(StructureError, match="^series cap must be >= 0$"):
        packed.truncate(-1)
    with pytest.raises(StructureError, match="^series cap must be >= 0$"):
        Series("u", 4, [Fraction(1, 2)], QQ).truncate(-1)
    # numbers are constants of Q[v], as in Series.const and in arithmetic
    mixed = Series("u", 3, [1, rho, Fraction(1, 2)], RHO_RING)
    assert mixed.coeffs == (RHO_RING.one, rho, RHO_RING.one * Fraction(1, 2), RHO_RING.zero)
    assert mixed == Series.const("u", 3, 1, RHO_RING) + Series.gen("u", 3, RHO_RING) * rho \
        + Series.gen("u", 3, RHO_RING) ** 2 * Fraction(1, 2)
    assert Series.const("u", 2, 3, ALPHA_RING) == Series.one("u", 2, ALPHA_RING) * 3
    for bad in (1.5, "x", Poly.gen("alpha")):
        with pytest.raises(StructureError, match="series coefficient .* is not in QQ\\[rho\\]"):
            Series("u", 3, [RHO_RING.one, bad], RHO_RING)
