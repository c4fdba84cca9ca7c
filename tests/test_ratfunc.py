"""Rational functions over Q (canonical forms, gcd reduction) and gcd-free
polynomial fractions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadslice.errors import NonInvertibleError, StructureError
from quadslice.exactalg import MPoly
from quadslice.ratfunc import QQ, Poly, PolyFrac, RatFunc
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


def test_eval_and_reciprocal_substitution():
    z = RatFunc.gen("z")
    f = (1 + 2 * z) / (1 - z + z ** 2)
    g = RatFunc.gen("g")
    sub = f.eval(1 / (g * g))
    direct = (1 + 2 / (g * g)) / (1 - 1 / (g * g) + 1 / (g ** 4))
    assert sub == direct
    refl = f.eval(1 / z)
    assert refl == (z * z + 2 * z) / (z * z - z + 1)
    # rename the variable of refl by evaluating at g
    assert refl.eval(g) == f.eval(1 / g)


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
@given(qq_lists, qq_coeffs)
def test_poly_times_a_constant_matches_the_double_loop(a, c):
    pa = Poly("y", a)
    want = _old_mul(_strip(a), _strip([c]))
    for got in (pa * c, c * pa, pa * Poly.const("y", c), Poly.const("y", c) * pa):
        _same(got, want)


def test_poly_times_a_constant_edge_cases():
    p = Poly("y", [Fraction(1, 2), 0, 3])
    _same(p * 0, [])
    _same(Fraction(0) * p, [])
    _same(p * 2, [1, 0, 6])
    _same(Fraction(2, 3) * p, [Fraction(1, 3), 0, 2])
    _same(Poly.const("y", 4) * Poly.const("y", Fraction(1, 4)), [1])
    for const in (Poly.const("z", 2), Poly.const("z", 0)):
        for left, right in ((p, const), (const, p)):
            with pytest.raises(StructureError):
                left * right


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


# ------------------------------------------- gcd-free fractions (Fraction oracle)
#
# PolyFrac never reduces, so its values are checked by evaluation: random
# expression trees over two or three variables, built once as PolyFracs and
# once in Fraction arithmetic at a random rational point.

def _tree(nvars):
    leaves = st.one_of(
        st.sampled_from([("var", k) for k in range(nvars)]),
        st.fractions(min_value=-3, max_value=3, max_denominator=4).map(lambda c: ("const", c)),
    )

    def nodes(sub):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), sub, sub),
            st.tuples(st.just("**"), sub, st.integers(-2, 2)),
        )

    return st.recursive(leaves, nodes, max_leaves=4)


def _apply(op, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    return a ** b


def _build(tree, leaf):
    if tree[0] in ("var", "const"):
        return leaf(tree)
    rhs = tree[2] if tree[0] == "**" else _build(tree[2], leaf)
    return _apply(tree[0], _build(tree[1], leaf), rhs)


def _mpoly_at(p, point):
    total = Fraction(0)
    for exp, c in p.terms.items():
        term = Fraction(c)
        for x, e in zip(point, exp):
            term *= x ** e
        total += term
    return total


def _frac_at(f, point):
    """f at the point, or None where its (unreduced) denominator vanishes."""
    den = _mpoly_at(f.den, point)
    return None if den == 0 else _mpoly_at(f.num, point) / den


def _symbolic(tree, vars):
    def leaf(t):
        return PolyFrac.gen(vars, vars[t[1]]) if t[0] == "var" else PolyFrac(MPoly.const(vars, t[1]))

    return _build(tree, leaf)


def _numeric(tree, point):
    try:
        return _build(tree, lambda t: point[t[1]] if t[0] == "var" else t[1])
    except ZeroDivisionError:
        return None


points = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def polyfrac_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    vars = ("x", "y", "z")[:n]
    return vars, draw(_tree(n)), draw(_tree(n)), tuple(draw(points) for _ in range(n)), draw(points)


@settings(max_examples=200, deadline=None, database=None)
@given(polyfrac_cases())
def test_polyfrac_matches_fraction_arithmetic(case):
    vars, ta, tb, point, c = case
    built = []
    for tree in (ta, tb):
        try:
            built.append(_symbolic(tree, vars))
        except NonInvertibleError:  # a division by an identically zero value
            assert _numeric(tree, point) is None
            return
    fa, fb = built
    va, vb = _frac_at(fa, point), _frac_at(fb, point)
    for v, tree in ((va, ta), (vb, tb)):
        want = _numeric(tree, point)
        if None not in (v, want):  # else the point is a pole of a fraction on the way
            assert v == want
    for op in "+-*/":
        if op == "/" and fb.is_zero():
            with pytest.raises(NonInvertibleError):
                fa / fb
            continue
        got = _frac_at(_apply(op, fa, fb), point)
        if None not in (got, va, vb):
            assert got == _apply(op, va, vb)
    for op in "+-*/":  # with a rational on either side
        for lhs, rhs, x, y in ((fa, c, va, c), (c, fa, c, va)):
            if op == "/" and rhs == 0:
                with pytest.raises(NonInvertibleError):
                    lhs / rhs
                continue
            got = _frac_at(_apply(op, lhs, rhs), point)
            if None not in (got, va):
                assert got == _apply(op, x, y)
    for n in range(-2, 3):
        if n < 0 and fa.is_zero():
            with pytest.raises(NonInvertibleError):
                fa ** n
            continue
        got = _frac_at(fa ** n, point)
        if None not in (got, va):
            assert got == _apply("**", va, n)
    diff = fa - fb
    assert (fa == fb) == diff.is_zero() == (fb == fa)
    at = _frac_at(diff, point)
    if fa == fb and at is not None:
        assert at == 0
    if at not in (None, 0):
        assert fa != fb and not diff.is_zero()
    # routes that must meet again, with no gcd to bring them together
    assert (fa + fb) - fb == fa and fa * 1 == fa and -(-fa) == fa
    if not fb.is_zero():
        assert fa * fb / fb == fa and fb * fb.inverse() == 1 and fb ** -2 == 1 / (fb * fb)


def test_polyfrac_zero_denominators_raise():
    vars = ("x", "y")
    x, y = PolyFrac.gen(vars, "x"), PolyFrac.gen(vars, "y")
    zero = x - x
    assert zero.is_zero() and zero == 0 and zero == x.ring_zero() and x.ring_one() == 1
    with pytest.raises(NonInvertibleError):
        PolyFrac(MPoly.gen(vars, "x"), MPoly.zero(vars))
    for bad in (lambda: x / zero, lambda: 1 / zero, lambda: zero.inverse(), lambda: zero ** -1, lambda: x / 0):
        with pytest.raises(NonInvertibleError):
            bad()
    assert (x * y - y * x).is_zero() and (x / y) * (y / x) == 1


def test_polyfrac_operands_over_different_variables_raise():
    a = PolyFrac.gen(("x", "y"), "x")
    b = PolyFrac.gen(("x", "z"), "x")
    for bad in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b, lambda: a == b,
                lambda: PolyFrac(MPoly.gen(("x", "y"), "x"), MPoly.const(("x", "z"), 1))):
        with pytest.raises(StructureError):
            bad()
    with pytest.raises(StructureError):
        PolyFrac(MPoly.gen(("x", "y"), "x", cap=3))
