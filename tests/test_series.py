"""Truncated series and the tau/rho grading conversions."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quadslice.closed_forms import ALPHA_RING, GAMMA_RING
from quadslice.errors import NonInvertibleError
from quadslice.exactalg import bipoly, tb, tw
from quadslice.ratfunc import QQ, FieldSpec, Poly, RatFunc
from quadslice.series import RHO_RING, Series, bipoly_to_tau, graded_div, tau_to_bipoly

from test_exactalg import coefficients, random_bipoly


def rational_field(var):
    """The field Q(var) of rational functions, where the schoolbook routines run."""
    return FieldSpec(RatFunc.zero(var), RatFunc.one(var), f"QQ({var})")


# The tau grading over the field Q(rho), the route the package no longer
# takes, kept as the oracle for the exact division over Q[rho].
RHO_FIELD = rational_field("rho")


def rho_field_image(p):
    """bipoly_to_tau(p) lifted to a series over Q(rho)."""
    t = bipoly_to_tau(p)
    return Series(t.var, t.cap, [RatFunc.from_poly(c) for c in t.coeffs], RHO_FIELD)


def field_to_bipoly(s):
    """tau_to_bipoly for a series over Q(rho): every coefficient must be a
    polynomial in rho."""
    for k, c in enumerate(s.coeffs):
        if not c.is_polynomial():
            raise NonInvertibleError(f"tau^{k} coefficient is not polynomial in rho: {c!r}")
    return tau_to_bipoly(Series(s.var, s.cap, [c.num for c in s.coeffs], RHO_RING))


def field_graded_div(num, den):
    """graded_div by field division over Q(rho)."""
    return field_to_bipoly(rho_field_image(num).divide(rho_field_image(den)))


def frac_series(coeffs, cap):
    return Series("z", cap, [Fraction(c) for c in coeffs], QQ)


def test_divide_examples():
    tau = Series.gen("tau", 5, QQ)
    a = tau ** 2 + tau ** 3
    q = a.divide(tau ** 2)
    assert q.coeffs[:2] == (Fraction(1), Fraction(1)) and q.cap == 3
    b = frac_series([1, 2, 3], 4)
    assert b.divide(frac_series([1], 4)) == b
    rho = RatFunc.gen("rho")
    s = Series("tau", 4, [RHO_FIELD.zero, rho, rho * rho], RHO_FIELD)
    q = s.divide(Series("tau", 4, [RHO_FIELD.zero, rho], RHO_FIELD))
    assert q.coeffs[0] == RatFunc.one("rho") and q.coeffs[1] == rho


def test_divide_valuation_errors():
    tau = Series.gen("tau", 4, QQ)
    with pytest.raises(NonInvertibleError):
        tau.divide(tau ** 2)  # quotient would not be a series
    with pytest.raises(NonInvertibleError):
        tau.divide(tau.ring_zero())


def test_inverse_needs_unit():
    s = frac_series([0, 1], 3)
    with pytest.raises(NonInvertibleError):
        s.inv()
    g = frac_series([1, -1], 5).inv()
    assert g.coeffs == tuple(Fraction(1) for _ in range(6))


def test_gen_at_cap_zero_is_the_zero_series():
    # z vanishes mod z^1
    for field in (QQ, RHO_FIELD, RHO_RING):
        g = Series.gen("z", 0, field)
        assert g.cap == 0 and g.is_zero() and g == Series.zero("z", 0, field)
    assert Series.gen("z", 1, QQ).coeffs == (0, 1)


def recurrence_inv(s):
    """The inverse by the recurrence Series.inv ran before it became the
    division of 1: out_0 = 1/c_0, out_k = -(c_1 out_{k-1} + ... + c_k out_0)/c_0,
    over Q[rho] only for a constant c_0."""
    c0 = s.coeffs[0]
    if c0 == s.field.zero:
        raise NonInvertibleError("series has zero constant term")
    if isinstance(c0, Poly):
        if c0.degree() != 0:
            raise NonInvertibleError("coefficient not a unit of Q[rho]")
        inv_c0 = Poly.const(c0.var, 1 / Fraction(c0.coeffs[0]))
    else:
        inv_c0 = c0.inverse() if isinstance(c0, RatFunc) else 1 / Fraction(c0)
    out = [inv_c0] + [s.field.zero] * s.cap
    for k in range(1, s.cap + 1):
        acc = s.field.zero
        for j in range(1, k + 1):
            acc = acc + s.coeffs[j] * out[k - j]
        out[k] = -(acc * inv_c0)
    return Series(s.var, s.cap, out, s.field)


small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
small_polys = st.lists(st.integers(-4, 4), max_size=3).map(lambda c: Poly("rho", c))
units = st.integers(-4, 4).filter(bool)
INV_RINGS = {  # ring -> (field, coefficients, leading coefficients)
    "QQ": (QQ, small_fractions, None),
    "Q(rho)": (RHO_FIELD, st.builds(RatFunc, small_polys, small_polys.filter(lambda p: not p.is_zero())),
               None),
    # constant units, and non-units (zero or of positive degree) that must
    # raise on both routes
    "Q[rho]": (RHO_RING, small_polys, st.one_of(units.map(lambda c: Poly.const("rho", c)), small_polys)),
}


@pytest.mark.parametrize("ring", sorted(INV_RINGS))
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_inverse_matches_the_recurrence(ring, data):
    field, coefficient, lead = INV_RINGS[ring]
    cap = data.draw(st.integers(0, 5))
    coeffs = [data.draw(coefficient if lead is None else lead)] + [data.draw(coefficient) for _ in range(cap)]
    s = Series("tau", cap, coeffs, field)
    try:
        want = recurrence_inv(s)
    except NonInvertibleError:
        with pytest.raises(NonInvertibleError):
            s.inv()
    else:
        assert s.inv() == want


def test_shift_checks_divisibility():
    s = frac_series([0, 0, 3, 1], 5)
    assert s.shift(-2).coeffs[:2] == (Fraction(3), Fraction(1))
    with pytest.raises(NonInvertibleError):
        frac_series([0, 1], 3).shift(-2)


def test_grading_examples():
    N = 3
    rho = Poly.gen("rho")
    t = bipoly_to_tau(tb(N) + tw(N))
    assert t.coeffs[1] == 1 + rho
    t2 = bipoly_to_tau(tb(N) * tw(N))
    assert t2.coeffs[2] == rho
    p = bipoly({(0, 0): 1, (2, 0): 1, (0, 2): 1}, 4)
    assert tau_to_bipoly(bipoly_to_tau(p)) == p


def test_grading_round_trip_randomized():
    rng = random.Random(9)
    for _ in range(40):
        p = random_bipoly(rng, 5)
        assert tau_to_bipoly(bipoly_to_tau(p)) == p


def test_grading_rejects_bad_series():
    rho = Poly.gen("rho")
    bad = Series("tau", 2, [RHO_RING.zero, rho * rho], RHO_RING)  # rho-degree 2 > 1
    with pytest.raises(NonInvertibleError, match="rho-degree 2 > 1"):
        tau_to_bipoly(bad)
    with pytest.raises(NonInvertibleError):
        graded_div(tw(3), tb(3))  # the tau^0 quotient rho has rho-degree 1 > 0


def test_graded_div_exactness():
    N = 5
    num = (tb(N) + tw(N)) * tb(N) * tb(N)
    assert graded_div(num, tb(N) ** 2) == (tb(3) + tw(3))
    with pytest.raises(NonInvertibleError):
        graded_div(tw(N), tb(N))  # tw/tb is not a polynomial


def agrees(a, b):
    """Coefficient-wise equality up to the smaller cap."""
    cap = min(a.cap, b.cap)
    return a.truncate(cap) == b.truncate(cap)


def test_series_equality_is_structural():
    a = frac_series([1, 2], 3)
    b = frac_series([1, 2], 4)
    assert a != b  # caps differ
    assert agrees(a, b)


def test_pow_is_square_and_multiply_and_rejects_negative_exponents():
    s = Series("z", 3, [2, 1], QQ)
    assert s ** 0 == s.ring_one()
    assert s ** 5 == s * s * s * s * s
    with pytest.raises(ValueError):
        s ** -1


# ------------------------------------------------------- series over Q[rho]


def rho_series(cap, coeffs):
    return Series("tau", cap, [Poly("rho", c) for c in coeffs], RHO_RING)


def schoolbook(a, b):
    """The coefficient-by-coefficient product over Q[rho], kept as the oracle."""
    cap = min(a.cap, b.cap)
    out = [Poly.zero("rho")] * (cap + 1)
    for i in range(cap + 1):
        for j in range(cap + 1 - i):
            out[i + j] = out[i + j] + a.coeffs[i] * b.coeffs[j]
    return Series("tau", cap, out, RHO_RING)


def exact_form(s):
    """cap plus every coefficient with its type: ints stay ints."""
    return s.cap, [[(type(c).__name__, c) for c in p.coeffs] for p in s.coeffs]


@st.composite
def rho_operands(draw):
    def operand():
        cap = draw(st.integers(0, 6))
        shape = draw(st.sampled_from(["zero", "dense", "sparse"]))
        if shape == "zero":
            return rho_series(cap, [])
        degree = draw(st.integers(0, 5))  # drawn per operand, so rho degrees are uneven
        rows = []
        for _ in range(cap + 1):
            if shape == "dense":
                rows.append([draw(coefficients) for _ in range(degree + 1)])
            else:
                rows.append([draw(coefficients) if draw(st.booleans()) else 0 for _ in range(degree + 1)])
        return rho_series(cap, rows)

    return operand(), operand()


@settings(max_examples=300, deadline=None, database=None)
@given(rho_operands())
@example((rho_series(0, []), rho_series(0, [[5]])))
@example((rho_series(0, [[-(2**80)]]), rho_series(0, [[2**80 + 1, -1]])))
@example((rho_series(3, [[0, Fraction(-1, 3)], [], [], [1]]), rho_series(2, [[3, 0, 0, 0, 7], [-2]])))
def test_packed_rho_product_matches_schoolbook(operands):
    a, b = operands
    want = exact_form(schoolbook(a, b))
    assert exact_form(a * b) == want
    assert exact_form(b * a) == want


@pytest.mark.parametrize("s", [frac_series([1, 2, 0, Fraction(-3, 4)], 3),
                               rho_series(3, [[0, Fraction(-1, 3)], [], [2, 1]])])
def test_a_rational_scalar_adds_in_both_orders(s):
    c = Fraction(-5, 7)
    for got in (s + c, c + s):
        assert got.field is s.field and got.cap == s.cap and (got._num is None) == (s._num is None)
        assert got.coeffs == (s.coeffs[0] + c,) + s.coeffs[1:]
        assert got == s - (-c) and got - c == s


def test_rho_ring_divide_is_exact():
    rho = Poly.gen("rho")
    b = Series("tau", 4, [rho - 1, rho * rho, Poly.const("rho", 3)], RHO_RING)
    q = Series("tau", 4, [rho + 2, -rho, Poly.zero("rho"), Poly.one("rho"), rho ** 3], RHO_RING)
    a = b * q
    assert a.divide(b) == q
    assert a.shift(2).divide(b.shift(2)) == q
    bumped = Series("tau", 4, [*a.coeffs[:2], a.coeffs[2] + 1, *a.coeffs[3:]], RHO_RING)
    with pytest.raises(NonInvertibleError, match="tau\\^2"):
        bumped.divide(b)  # (rho - 1) does not divide the tau^2 remainder


def test_rho_ring_inverse_needs_a_constant_unit():
    rho = Poly.gen("rho")
    s = Series("tau", 3, [Poly.const("rho", 2), rho, rho * rho], RHO_RING)
    assert s * s.inv() == s.ring_one()
    with pytest.raises(NonInvertibleError):
        Series("tau", 3, [rho + 1, rho], RHO_RING).inv()


def test_grading_into_the_rho_ring():
    rng = random.Random(10)
    for _ in range(20):
        p = random_bipoly(rng, 5)
        t = bipoly_to_tau(p)
        assert t.field is RHO_RING and all(isinstance(c, Poly) for c in t.coeffs)
        assert all(t.coeffs[a + b].coeffs[b] == c for (a, b), c in p.terms.items())
        assert tau_to_bipoly(t) == p
    bad = Series("tau", 2, [Poly.zero("rho"), Poly("rho", (0, 0, 1))], RHO_RING)
    with pytest.raises(NonInvertibleError):
        tau_to_bipoly(bad)  # rho-degree 2 at tau^1


# ------------------------------------------ series over Q[v], v other than rho
#
# Any ring whose zero is a Poly takes the packed product and the exact
# division.  The oracle is the schoolbook Series over the field Q(v).

V_RINGS = {"Q[alpha]": ALPHA_RING, "Q[gamma]": GAMMA_RING}
wide_coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**80), 2**80),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 10**6)),
)


def v_series(ring, cap, rows):
    return Series("u", cap, [Poly(ring.zero.var, r) for r in rows], ring)


def over_field(s):
    """s as a series over Q(v), where the schoolbook routines run."""
    field = rational_field(s.field.zero.var)
    return Series(s.var, s.cap, [RatFunc.from_poly(c) for c in s.coeffs], field)


@st.composite
def v_operand(draw, ring, coefficient=wide_coefficients, max_degree=4, unit=False):
    """Zero, dense or sparse series of cap 0..8; unit=True puts 1 at u^0."""
    cap = draw(st.integers(0, 8))
    shape = draw(st.sampled_from(["dense", "sparse"] if unit else ["zero", "dense", "sparse"]))
    degree = draw(st.integers(0, max_degree))
    rows = [] if shape == "zero" else [
        [draw(coefficient) if shape == "dense" or draw(st.booleans()) else 0 for _ in range(degree + 1)]
        for _ in range(cap + 1)
    ]
    return v_series(ring, cap, [[1]] + rows[1:] if unit else rows)


@pytest.mark.parametrize("ring", sorted(V_RINGS))
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_series_over_a_polynomial_ring_matches_the_field(ring, data):
    ring = V_RINGS[ring]
    a, b = data.draw(v_operand(ring)), data.draw(v_operand(ring))
    u = data.draw(v_operand(ring, unit=True))
    product = a * b
    assert product.field is ring and all(isinstance(c, Poly) and c.var == ring.zero.var for c in product.coeffs)
    assert over_field(product) == over_field(a) * over_field(b)
    assert over_field(u.inv()) == over_field(u).inv()
    vb = b.valuation()
    if vb is not None and vb <= product.cap:
        assert over_field(product.divide(b)) == over_field(product).divide(over_field(b))


@pytest.mark.parametrize("ring", sorted(V_RINGS))
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_inexact_division_over_a_polynomial_ring_raises(ring, data):
    # the field quotient grows in degree wherever it is not polynomial, so
    # the operands here are small; where it is polynomial the ring route
    # must return it, and raise where it is not
    ring = V_RINGS[ring]
    a, b = (data.draw(v_operand(ring, small_fractions, 2)) for _ in range(2))
    u = data.draw(v_operand(ring, small_fractions, 2, unit=True))
    for num, den in ((a, b), (a, u), (u, b)):
        try:
            want = over_field(num).divide(over_field(den))
        except NonInvertibleError:
            with pytest.raises(NonInvertibleError):
                num.divide(den)
            continue
        if all(c.is_polynomial() for c in want.coeffs):
            assert over_field(num.divide(den)) == want
        else:
            with pytest.raises(NonInvertibleError, match="quotient is not over Q\\["):
                num.divide(den)


def test_divide_over_a_polynomial_ring_needs_exact_quotients():
    gamma = Poly.gen("gamma")
    b = Series("u", 3, [gamma + 1, gamma], GAMMA_RING)
    q = Series("u", 3, [gamma ** 2, Poly.const("gamma", Fraction(-1, 3)), gamma], GAMMA_RING)
    assert (b * q).divide(b) == q
    with pytest.raises(NonInvertibleError, match="not over Q\\[gamma\\]: nonzero remainder at u\\^0"):
        Series.one("u", 3, GAMMA_RING).divide(b)
    with pytest.raises(NonInvertibleError, match="u\\^1"):
        (b * q + Series.gen("u", 3, GAMMA_RING)).divide(b)


# ------------------------------------------------------------- ring axioms

RINGS = {
    "QQ": (QQ, lambda draw: draw(coefficients)),
    "Q[rho]": (RHO_RING, lambda draw: Poly("rho", draw(st.lists(coefficients, max_size=4)))),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_series_ring_axioms(ring, data):
    field, coefficient = RINGS[ring]
    draw = data.draw

    def operand():
        cap = draw(st.integers(0, 5))
        length = draw(st.integers(0, cap + 1))
        return Series("tau", cap, [coefficient(draw) for _ in range(length)], field)

    a, b, c = operand(), operand(), operand()
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    unit = draw(coefficients.filter(bool))
    u = Series("tau", a.cap, [field.one * unit, *a.coeffs[1:]], field)
    assert u * u.inv() == u.ring_one()


@st.composite
def graded_operands(draw):
    cap = draw(st.integers(0, 5))
    slots = st.sampled_from([(i, j) for i in range(cap + 1) for j in range(cap + 1 - i)])
    a = bipoly(draw(st.dictionaries(slots, small_fractions)), cap)
    b = bipoly(draw(st.dictionaries(slots, small_fractions.filter(bool), min_size=1)), cap)
    return a, b


@settings(max_examples=100, deadline=None, database=None)
@given(graded_operands())
def test_graded_div_undoes_multiplication(operands):
    # the quotient is exact to the cap lowered by b's tau-valuation
    a, b = operands
    valuation = min(i + j for i, j in b.terms)
    assert graded_div(a * b, b) == a.with_cap(a.cap - valuation)


@settings(max_examples=200, deadline=None, database=None)
@given(graded_operands())
@example((tb(2), tb(2) + tw(2)))  # 1 / (1 + rho) is no polynomial
@example((tw(2), tb(2)))  # rho at tau^0 exceeds the degree bound
def test_graded_div_matches_the_field_route(operands):
    # exact division over Q[rho] against field division over Q(rho): the same
    # quotient where one exists, NonInvertibleError from both where not
    a, b = operands
    for num in (a * b, a):
        try:
            want = field_graded_div(num, b)
        except NonInvertibleError:
            with pytest.raises(NonInvertibleError):
                graded_div(num, b)
        else:
            assert graded_div(num, b) == want
