"""Rational function field: canonical forms, gcd reduction, nesting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadslice.errors import NonInvertibleError
from quadslice.ratfunc import QQ, Poly, RatFunc, _cancel, _cleared, _poly_primitive, _prs_last, ratfunc_field
from quadslice.series import Series


def test_arithmetic_examples():
    y = RatFunc.gen("y")
    one = RatFunc.one("y")
    assert (one / (1 - y)) * (1 - y) == one
    assert y / (1 - y) + 1 == one / (1 - y)
    num = Poly("y", [Fraction(-1), Fraction(0), Fraction(1)])  # y^2 - 1
    den = Poly("y", [Fraction(-1), Fraction(1)])  # y - 1
    assert RatFunc(num, den) == y + 1


def test_division_by_zero():
    y = RatFunc.gen("y")
    with pytest.raises(NonInvertibleError):
        y / (y - y)


def test_canonical_form_two_routes():
    rng = random.Random(5)
    y = RatFunc.gen("y")
    for _ in range(25):
        a = sum((Fraction(rng.randint(-4, 4)) * y ** k for k in range(3)), 0 * y)
        b = 1 + y ** rng.randint(1, 3)
        c = 2 - y
        # two arithmetic paths to a/(b c) + 1
        left = a / (b * c) + 1
        right = (a + b * c) / (b * c)
        assert left == right
        assert left.den.lead() == Fraction(1)  # denominator kept monic


def test_monic_denominator_and_reduction():
    y = RatFunc.gen("y")
    v = (2 * y + 2) / (4 * y - 4)
    assert v.den.lead() == Fraction(1)
    assert v == (y + 1) / (2 * y - 2)


def test_nested_tower():
    FY = ratfunc_field("y")
    a = RatFunc.gen("alpha", FY)
    y = RatFunc.const("alpha", RatFunc.gen("y"), FY)
    one = RatFunc.one("alpha", FY)
    assert (a * y - 1) * (a * y + 1) == a ** 2 * y ** 2 - 1
    assert (one / (1 - a * y)) * (1 - a * y) == one
    # mixed fractions across the tower reduce consistently
    expr = (a ** 2 - 1) / (a - 1)
    assert expr == a + 1


def test_eval_and_reciprocal_substitution():
    z = RatFunc.gen("z")
    f = (1 + 2 * z) / (1 - z + z ** 2)
    g = RatFunc.gen("g")
    sub = f.eval(1 / (g * g))
    direct = (1 + 2 / (g * g)) / (1 - 1 / (g * g) + 1 / (g ** 4))
    assert sub == direct
    refl = f.subst_reciprocal()
    check = f.eval(1 / g)
    # rename the variable of refl by evaluating at g
    assert refl.eval(g) == check


def test_polynomial_flag_and_degrees():
    z = RatFunc.gen("z")
    assert (z ** 2 + 1).is_polynomial()
    assert not (1 / (1 + z)).is_polynomial()
    f = (1 + z) / ((1 - z) * (2 + z))
    assert f.num.degree() == 1 and f.den.degree() == 2


# ------------------------------------- canonical by construction (oracle)
#
# The operations below skip the gcd on their result.  The oracle is the old
# always-reducing route: the plain product or quotient of the numerators and
# denominators handed to the reducing constructor.  Operands are products of
# a few shared factors, so cross-cancellation happens often.

FY = ratfunc_field("y")
Y_FACTORS = ((-1, 1), (1, 1), (-3, 2), (0, 1), (1, 0, 1))  # y-1, y+1, 2y-3, y, y^2+1
nonzero_scalars = st.sampled_from([1, -1, 2, Fraction(-3, 5), Fraction(7, 2)])


@st.composite
def qq_sides(draw, nonzero, var="y"):
    if draw(st.booleans()):
        p = Poly(var, [draw(nonzero_scalars)])
        for f in draw(st.lists(st.sampled_from(Y_FACTORS), max_size=3)):
            p = p * Poly(var, f)
        return p
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=1 if nonzero else 0, max_size=4))
    p = Poly(var, coeffs)
    return Poly(var, [draw(nonzero_scalars)]) if nonzero and p.is_zero() else p


@st.composite
def qq_ratfuncs(draw, nonzero=False, var="y"):
    return RatFunc(draw(qq_sides(nonzero, var)), draw(qq_sides(True, var)))


def _field_tower(var, inner, base, coeffs):
    """Polynomials in var over base(inner): nonzero coefficients drawn from
    coeffs, and the factors var - t, t var - 1, var, var + 1 with t = inner."""
    t, one = RatFunc.gen(inner, base), RatFunc.one(inner, base)
    return var, ratfunc_field(inner, base), coeffs, ((-t, one), (-one, t), (0 * t, one), (one, one))


YA_TOWER = _field_tower("alpha", "y", QQ, qq_ratfuncs(nonzero=True))  # Q(y)(alpha), as in closed_forms
YP_TOWER = _field_tower("Pc", "Yc", QQ, qq_ratfuncs(nonzero=True, var="Yc"))  # Q(Yc)(Pc), as in heaps


@st.composite
def tower_sides(draw, nonzero, tower=YA_TOWER):
    """Products of a nonzero coefficient and up to two of the tower's factors."""
    var, field, coeffs, factors = tower
    p = Poly(var, [draw(coeffs)], field)
    for f in draw(st.lists(st.sampled_from(factors), max_size=2)):
        p = p * Poly(var, f, field)
    if not nonzero and draw(st.integers(0, 5)) == 0:
        return Poly.zero(var, field)
    return p


@st.composite
def tower_ratfuncs(draw, tower=YA_TOWER):
    return RatFunc(draw(tower_sides(False, tower)), draw(tower_sides(True, tower)))


YB_TOWER = _field_tower("b", "y", QQ, qq_ratfuncs(nonzero=True))
YBA_TOWER = _field_tower("alpha", "b", FY, tower_ratfuncs(YB_TOWER).filter(lambda c: not c.is_zero()))  # Q(y)(b)(alpha)


def _assert_canonical_and_equal(got, want):
    assert got.num == want.num and got.den == want.den
    assert got.den.lead() == got.field.one
    assert got.num.gcd(got.den).degree() == 0


def _check_ops_against_reducing_constructor(a, b, n):
    _assert_canonical_and_equal(a * b, RatFunc(a.num * b.num, a.den * b.den))
    if not b.is_zero():
        _assert_canonical_and_equal(a / b, RatFunc(a.num * b.den, a.den * b.num))
        _assert_canonical_and_equal(3 / b, RatFunc(b.den.scale(3), b.num))
    if not a.is_zero():
        _assert_canonical_and_equal(a.inverse(), RatFunc(a.den, a.num))
    if n >= 0:
        _assert_canonical_and_equal(a ** n, RatFunc(a.num ** n, a.den ** n))
    elif not a.is_zero():
        _assert_canonical_and_equal(a ** n, RatFunc(a.den ** -n, a.num ** -n))


@settings(max_examples=300, deadline=None, database=None)
@given(qq_ratfuncs(), qq_ratfuncs(), st.integers(-3, 4))
def test_ops_match_reducing_constructor_over_qq(a, b, n):
    _check_ops_against_reducing_constructor(a, b, n)


@settings(max_examples=25, deadline=None, database=None)
@given(tower_ratfuncs(), tower_ratfuncs(), st.integers(-3, 4))
def test_ops_match_reducing_constructor_in_tower(a, b, n):
    _check_ops_against_reducing_constructor(a, b, n)


# --------------------------------------------- nested-field gcd (Euclid oracle)
#
# Poly.gcd over a rational-function field runs a primitive pseudo-remainder
# sequence over base[v].  The oracle is the Euclid loop it replaced: divmod
# over the field, then monic, at every step.

def _euclid_gcd(a, b):
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    while not b.is_zero():
        a, b = b, a.divmod(b)[1].monic()
    return a.monic()


@st.composite
def gcd_pairs(draw, tower):
    """Two sides (zero, constant or not) times one shared nonzero side."""
    shared = draw(tower_sides(True, tower))
    return draw(tower_sides(False, tower)) * shared, draw(tower_sides(False, tower)) * shared


def _is_primitive(cs):
    g = Poly.zero(cs[0].var, cs[0].field)
    for c in cs:
        g = g.gcd(c)
    return g.degree() == 0


def _check_gcd_against_euclid(a, b):
    got = a.gcd(b)
    assert got.coeffs == _euclid_gcd(a, b).coeffs
    assert got.coeffs == b.gcd(a).coeffs
    if not got.is_zero():
        assert got.lead() == got.field.one
    if a.degree() > 0 and b.degree() > 0:  # the sequence runs on primitive polynomials over base[v]
        u, v = _cleared(a), _cleared(b)
        assert _is_primitive(u) and _is_primitive(v)
        assert _is_primitive(_prs_last(u, v, _poly_primitive))


@settings(max_examples=120, deadline=None, database=None)
@given(st.one_of(gcd_pairs(YA_TOWER), gcd_pairs(YP_TOWER)))
def test_nested_gcd_matches_euclid_oracle(pair):
    _check_gcd_against_euclid(*pair)


@settings(max_examples=25, deadline=None, database=None)
@given(gcd_pairs(YBA_TOWER))
def test_three_level_gcd_matches_euclid_oracle(pair):
    _check_gcd_against_euclid(*pair)


def test_nested_gcd_edge_cases():
    field = YA_TOWER[1]
    y = RatFunc.gen("y")

    def poly(*coeffs):  # alpha-coefficients in Q(y), constant term first
        return Poly("alpha", [RatFunc.one("y") * c for c in coeffs], field)

    sq = poly(y ** 2, -2 * y, 1)  # (alpha - y)^2
    zero = Poly.zero("alpha", field)
    coprime = (poly(-y / (y ** 2 + 1), 1 / (y ** 2 + 1)), poly(y ** 2, y))  # (alpha - y)/(y^2 + 1), y (alpha + y)
    shared = (sq * poly(1 / y, 1 / y), sq * poly(-1 / (y - 3), y / (y - 3)))
    cases = [(zero, zero), (zero, sq), (poly((y - 1) / (y + 2)), sq), coprime, shared, (sq * poly(-y, 1), sq)]
    for p, q in cases:
        _check_gcd_against_euclid(p, q)
    assert zero.gcd(zero).is_zero()
    assert coprime[0].gcd(coprime[1]).coeffs == (field.one,)
    assert shared[0].gcd(shared[1]) == sq
    assert (sq * poly(-y, 1)).gcd(sq) == sq


# ------------------------------------ nested-field cancellation (divmod oracle)
#
# _cancel over base(v) divides the cleared primitive parts exactly over
# base[v].  The oracle is the route it replaced: divmod over base(v) by the
# monic gcd.

def _divmod_cancel(a, b):
    if a.degree() > 0 and b.degree() > 0:
        g = a.gcd(b)
        if g.degree() > 0:
            return a.divmod(g)[0], b.divmod(g)[0]
    return a, b


def _check_cancel_against_divmod(a, b):
    assert _cancel(a, b) == _divmod_cancel(a, b)
    if not b.is_zero():
        _assert_canonical_and_equal(RatFunc(a, b), RatFunc(*_divmod_cancel(a, b), reduce=False))


@settings(max_examples=120, deadline=None, database=None)
@given(st.one_of(gcd_pairs(YA_TOWER), gcd_pairs(YP_TOWER)))
def test_nested_cancel_matches_divmod_oracle(pair):
    _check_cancel_against_divmod(*pair)


@settings(max_examples=25, deadline=None, database=None)
@given(gcd_pairs(YBA_TOWER))
def test_three_level_cancel_matches_divmod_oracle(pair):
    _check_cancel_against_divmod(*pair)


def test_reciprocal_substitution_stays_canonical():
    z = RatFunc.gen("z")
    for f in ((z - 1) ** 2 / (z * (2 * z + 3)), z ** 3 / (1 + z), (z ** 2 + 1) / (3 * z ** 2)):
        _assert_canonical_and_equal(f.subst_reciprocal(), f.eval(1 / z))


def test_poly_pow_is_square_and_multiply_and_rejects_negative_exponents():
    p = Poly("rho", [1, 1])
    assert p ** 0 == Poly.one("rho")
    assert p ** 5 == p * p * p * p * p
    assert Poly("rho", [Fraction(1, 2), -1]) ** 3 == Poly("rho", [Fraction(1, 8), Fraction(-3, 4), Fraction(3, 2), -1])
    with pytest.raises(ValueError):
        p ** -1


# --------------------------------------- integral coefficients (Fraction oracle)
#
# Poly over QQ computes in ints wherever its values are integral.  The oracle
# is the schoolbook arithmetic it replaced, on little-endian coefficient
# lists: every accumulator starts at Fraction(0), a division multiplies by
# Fraction(1) / lead, and the gcd is Euclid's over Q made monic by
# Fraction(c) / lead.

def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _old_add(a, b):
    def pad(p, k):
        return p[k] if k < len(p) else Fraction(0)

    return _strip(pad(a, k) + pad(b, k) for k in range(max(len(a), len(b))))


def _old_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _strip(out)


def _old_divmod(a, b):
    rem = list(a)
    dq = len(rem) - len(b)
    if dq < 0:
        return [], _strip(rem)
    inv_lead = Fraction(1) / Fraction(b[-1])
    quo = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + len(b) - 1] * inv_lead
        quo[k] = c
        if c != 0:
            for j, y in enumerate(b):
                rem[k + j] = rem[k + j] - c * y
    return _strip(quo), _strip(rem)


def _old_monic(a):
    if not a:
        return []
    lead = Fraction(a[-1])
    return [Fraction(c) / lead for c in a]


def _old_gcd(a, b):
    while b:
        a, b = b, _old_divmod(a, b)[1]
    return _old_monic(a)


def _assert_qq_coeffs(cs, strict_tail=True):
    """Each coefficient an int or a Fraction that is not integral; no trailing zero."""
    for c in cs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    if strict_tail:
        assert not cs or cs[-1] != 0


def _same(poly, want):
    _assert_qq_coeffs(poly.coeffs)
    assert list(poly.coeffs) == want


qq_coeffs = st.one_of(
    st.integers(-4, 4),
    st.integers(-2 ** 80, 2 ** 80),
    st.fractions(max_denominator=12).filter(lambda c: abs(c.numerator) < 10 ** 6),
)
qq_lists = st.lists(qq_coeffs, max_size=6)
qq_leads = st.sampled_from([1, -1, Fraction(1), 2, -3, Fraction(1, 2), Fraction(-5, 3), 2 ** 70 + 1])


@st.composite
def qq_divisors(draw):
    return draw(st.lists(qq_coeffs, max_size=4)) + [draw(qq_leads)]


@settings(max_examples=200, deadline=None, database=None)
@given(qq_lists, qq_lists, qq_divisors())
def test_qq_poly_matches_fraction_oracle(a, b, d):
    pa, pb, pd = Poly("y", a), Poly("y", b), Poly("y", d)
    _same(pa, _strip(a))
    _same(pa + pb, _old_add(a, b))
    _same(pa - pb, _old_add(a, [-c for c in b]))
    _same(pa * pb, _old_mul(a, b))
    q, r = pa.divmod(pd)
    want_q, want_r = _old_divmod(_strip(a), d)
    _same(q, want_q)
    _same(r, want_r)
    _same(pd.monic(), _old_monic(d))
    _same(pa.gcd(pb), _old_gcd(_strip(a), _strip(b)))
    if all(type(c) is int for c in pa.coeffs + pd.coeffs) and pd.lead() in (1, -1):
        assert all(type(c) is int for c in q.coeffs + r.coeffs)  # a unit lead keeps ints


@settings(max_examples=100, deadline=None, database=None)
@given(qq_lists, qq_divisors())
def test_qq_ratfunc_constructor_matches_fraction_oracle(a, d):
    f = RatFunc(Poly("y", a), Poly("y", d))
    num = _strip(a)
    if num:
        g = _old_gcd(num, d)
        num, den = _old_divmod(num, g)[0], _old_divmod(d, g)[0]
        inv = Fraction(1) / den[-1]
        num, den = [c * inv for c in num], [c * inv for c in den]
    else:
        den = [1]
    _same(f.num, num)
    _same(f.den, den)


@settings(max_examples=100, deadline=None, database=None)
@given(qq_lists, qq_lists, qq_divisors(), st.integers(0, 5))
def test_qq_series_keeps_the_representation(a, b, d, cap):
    def series(cs):
        return Series("z", cap, cs[: cap + 1], QQ)

    sa, sb = series(a), series(b)
    prod = sa * sb
    for s in (sa, prod, sa + sb, sa - sb):
        _assert_qq_coeffs(s.coeffs, strict_tail=False)
    want = _old_mul(a[: cap + 1], b[: cap + 1])[: cap + 1]
    assert list(prod.coeffs) == want + [0] * (cap + 1 - len(want))
    unit = series(list(reversed(d)))  # constant term from qq_leads, never zero
    for s in (unit.inv(), prod.divide(unit), unit.divide(unit)):
        _assert_qq_coeffs(s.coeffs, strict_tail=False)
    assert unit * unit.inv() == Series.one("z", cap, QQ)
    assert (prod.divide(unit) * unit) == prod


def test_qq_constructor_normalises_and_strips():
    p = Poly("y", [Fraction(4, 2), Fraction(1, 3), 0, Fraction(0), Fraction(0, 5)])
    assert p.coeffs == (2, Fraction(1, 3)) and type(p.coeffs[0]) is int
    assert Poly("y", [Fraction(0), 0]).coeffs == ()
    assert Poly("y", [Fraction(-7)]).gcd(Poly("y", [Fraction(14)])).coeffs == (1,)
    _assert_qq_coeffs(RatFunc.const("y", Fraction(6, 3)).num.coeffs)


def _old_eval(cs, x):
    return sum((Fraction(c) * Fraction(x) ** k for k, c in enumerate(cs)), Fraction(0))


@settings(max_examples=200, deadline=None, database=None)
@given(qq_lists, qq_divisors(), st.one_of(st.integers(-5, 5), st.fractions(max_denominator=6)))
def test_qq_ratfunc_eval_matches_fraction_oracle(a, d, x):
    f = RatFunc(Poly("y", a), Poly("y", d))
    den = _old_eval(f.den.coeffs, x)
    if den == 0:
        with pytest.raises(NonInvertibleError):
            f.eval(x)
        return
    got = f.eval(x)
    assert got == _old_eval(f.num.coeffs, x) / den
    _assert_qq_coeffs([got], strict_tail=False)
