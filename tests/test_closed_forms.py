"""Parametrized closed forms: transcription anchors, recursion residuals,
family equivalence, and the rational identity tower."""

from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from quadslice import cli, closed_forms
from quadslice.closed_forms import (
    ParamPoint,
    eval_bw_closed,
    eval_limits,
    eval_pqy_closed,
    eval_tt,
    eval_y_limit,
    large_height_collapse,
    param_equivalence,
    param_point,
    section6_algebra,
    series_match,
    verify_recursion,
)
from quadslice.contfrac import finite_fraction_ratfunc
from quadslice.errors import NonInvertibleError, StructureError, VerificationError
from quadslice.exactalg import bipoly
from quadslice.heaps import h_ladder, linear_relation_gprime_check, linear_relation_specialized_check
from quadslice.ratfunc import Poly, RatFunc
from quadslice.series import Series

from test_series import rational_field

# ------------------------------------------------ the Q(gamma)/Q(alpha) oracle
#
# The closed forms as they were computed before they moved to Q[gamma] and
# Q[alpha]: series in x or y over the fields of rational functions of the
# parameter, each coefficient product reduced by a gcd.  ``to_field`` maps a
# ParamPoint value into this representation: the yalpha coefficients as they
# stand, and for xgamma the x^k coefficient is the u^k one over gamma^k.

GAMMA_FIELD = rational_field("gamma")
ALPHA_FIELD = rational_field("alpha")


def to_field(s):
    if s.var == "y":
        return Series("y", s.cap, [RatFunc.from_poly(c) for c in s.coeffs], ALPHA_FIELD)
    gamma = Poly.gen("gamma")
    return Series("x", s.cap, [RatFunc(c, gamma ** k) for k, c in enumerate(s.coeffs)], GAMMA_FIELD)


class FieldPoint:
    """family "xgamma" or "yalpha" with a series order cap."""

    def __init__(self, family, cap):
        self.family = family
        self.cap = cap
        self.var = "x" if family == "xgamma" else "y"
        self.field = GAMMA_FIELD if family == "xgamma" else ALPHA_FIELD
        self.param = RatFunc.gen("gamma" if family == "xgamma" else "alpha")

    def gen(self):
        return Series.gen(self.var, self.cap, self.field)

    def factor(self, c, k):
        """The series 1 - c * v^k (c a rational function of the parameter)."""
        coeffs = [self.field.zero] * (self.cap + 1)
        coeffs[0] = self.field.one
        if k <= self.cap:
            coeffs[k] = coeffs[k] - c
        return Series(self.var, self.cap, coeffs, self.field)

    def poly(self, coeffs_by_power):
        coeffs = [self.field.zero] * (self.cap + 1)
        for k, c in coeffs_by_power.items():
            if k <= self.cap:
                coeffs[k] = self.field.one * c
        return Series(self.var, self.cap, coeffs, self.field)

    def ratio(self, prefactor, num_factors, den_factors):
        out = prefactor
        for c, k in num_factors:
            out = out * self.factor(c, k)
        for c, k in den_factors:
            out = out * self.factor(c, k).inv()
        return out


def field_denominator(p):
    g = p.param
    if p.family == "xgamma":
        # x + x^3 + gamma - 6 x^2 gamma + x^4 gamma + x gamma^2 + x^3 gamma^2
        return p.poly({0: g, 1: 1 + g * g, 2: -6 * g, 3: 1 + g * g, 4: g})
    # 1 + y + alpha y - 6 alpha y^2 + alpha y^3 + alpha^2 y^3 + alpha^2 y^4
    return p.poly({0: 1, 1: 1 + g, 2: -6 * g, 3: g + g * g, 4: g * g})


def field_tt(p):
    g = p.param
    den = field_denominator(p)
    inv2 = (den * den).inv()
    v = p.gen()
    if p.family == "xgamma":
        t_b = v * p.factor(1 / g, 1) ** 3 * (g ** 3) * p.factor(g, 3) * inv2
        t_w = v * p.factor(1 / g, 3) * g * p.factor(g, 1) ** 3 * inv2
    else:
        t_b = v * p.factor(g, 1) ** 3 * p.factor(g, 3) * inv2
        t_w = v * g * p.factor(1, 1) ** 3 * p.factor(g * g, 3) * inv2
    return t_b, t_w


def field_limits(p):
    g = p.param
    inv = field_denominator(p).inv()
    v = p.gen()
    if p.family == "xgamma":
        first = v * (g ** 2) * p.factor(1 / g, 1) ** 2 * inv
        second = v * p.factor(g, 1) ** 2 * inv
    else:
        first = v * p.factor(g, 1) ** 2 * inv
        second = v * g * p.factor(1, 1) ** 2 * inv
    return first, second


def field_y_limit(p):
    g = p.param
    return p.gen() * (g - 1) * p.factor(g, 2) * field_denominator(p).inv()


def field_bw_closed(i, p):
    g = p.param
    B, W = field_limits(p)
    if i % 2 == 0:
        b_i = p.ratio(B, [(1, i), (g, i + 3)], [(g, i + 1), (1, i + 2)])
        w_i = p.ratio(W, [(1, i), (1 / g, i + 3)], [(1 / g, i + 1), (1, i + 2)])
    else:
        b_i = p.ratio(B, [(1 / g, i), (1, i + 3)], [(1, i + 1), (1 / g, i + 2)])
        w_i = p.ratio(W, [(g, i), (1, i + 3)], [(1, i + 1), (g, i + 2)])
    return b_i, w_i


def field_pqy_closed(i, p):
    """(P_i, Q_i, Y_{2i+1})."""
    g = p.param
    P, Q = field_limits(p)
    p_i = p.ratio(P, [(1, i), (g, i + 3)], [(1, i + 1), (g, i + 2)])
    q_i = p.ratio(Q, [(1, i), (g * g, i + 3)], [(g, i + 1), (g, i + 2)])
    y_odd = p.ratio(field_y_limit(p), [(1, i + 1), (g, i + 3)], [(1, i + 2), (g, i + 2)])
    return p_i, q_i, y_odd


@pytest.mark.parametrize("order", [4, 7])
def test_polynomial_rings_match_the_field_oracle(order):
    px, fx = ParamPoint("xgamma", order), FieldPoint("xgamma", order)
    py, fy = ParamPoint("yalpha", order), FieldPoint("yalpha", order)
    assert px.field.name == "QQ[gamma]" and py.field.name == "QQ[alpha]"
    pairs = [
        (eval_tt(px), field_tt(fx)),
        (eval_tt(py), field_tt(fy)),
        (eval_limits(px), field_limits(fx)),
        (eval_limits(py), field_limits(fy)),
        ((eval_y_limit(py),), (field_y_limit(fy),)),
    ]
    pairs += [(eval_bw_closed(i, px), field_bw_closed(i, fx)) for i in range(6)]
    for i in range(5):
        p_i, q_i, _, y_odd = eval_pqy_closed(i, py)
        pairs.append(((p_i, q_i, y_odd), field_pqy_closed(i, fy)))
    for new, old in pairs:
        assert len(new) == len(old)
        for s, want in zip(new, old):
            assert all(isinstance(c, Poly) for c in s.coeffs)
            assert to_field(s) == want


# ---------------------------------------------------------------- anchors

def test_leading_coefficients():
    p = ParamPoint("xgamma", 3)
    t_b, t_w = (to_field(t) for t in eval_tt(p))
    g = RatFunc.gen("gamma")
    assert t_b.coeffs[0].is_zero() and t_w.coeffs[0].is_zero()
    assert t_b.coeffs[1] == g
    q = ParamPoint("yalpha", 3)
    t_b, t_w = (to_field(t) for t in eval_tt(q))
    a = RatFunc.gen("alpha")
    assert t_b.coeffs[1] == RatFunc.one("alpha")
    assert t_w.coeffs[1] == a


def test_height_zero_vanishes():
    p = ParamPoint("xgamma", 4)
    b0, w0 = eval_bw_closed(0, p)
    assert b0.is_zero() and w0.is_zero()
    q = ParamPoint("yalpha", 4)
    p0, q0, y0, _ = eval_pqy_closed(0, q)
    assert p0.is_zero() and q0.is_zero() and y0.is_zero()


def test_heights_below_the_recursions_are_structural():
    for system, where in (("bw", "height"), ("pq", "height"), ("y", "pair")):
        with pytest.raises(StructureError, match=f"start at {where} 1, not 0"):
            verify_recursion(system, range(0, 2), 4)
        with pytest.raises(StructureError, match="not -3"):
            verify_recursion(system, [1, -3], 4)
    with pytest.raises(StructureError, match="start at height 0, not -1"):
        eval_bw_closed(-1, param_point("xgamma", 4))
    with pytest.raises(StructureError, match="start at height 0, not -1"):
        eval_pqy_closed(-1, param_point("yalpha", 4))
    for family in ("xgamma", "yalpha"):
        for build in (ParamPoint(family, 3).factor, ParamPoint(family, 3).geometric):
            with pytest.raises(StructureError, match="negative power"):
                build(0, -1)
        assert ParamPoint(family, 3).factor(0, 0).is_zero()  # 1 - param^0


def test_heights_must_be_ints():
    for system, where in (("bw", "height"), ("pq", "height"), ("y", "pair")):
        for i, shown in ((1.5, "1.5"), (True, "True"), ("2", "'2'"), (None, "None")):
            with pytest.raises(StructureError, match=f"{where} {shown} is not an int"):
                verify_recursion(system, [i], 4)


def test_a_report_with_no_check_is_not_a_pass():
    for system in ("bw", "pq", "y"):
        report = verify_recursion(system, range(1, 1), 4)
        assert report.lines == [] and not report.passed
        assert verify_recursion(system, range(1, 2), 4).passed


def test_even_formula_anchor():
    """B_2 must be the displayed ratio with the explicit factor exponents."""
    p = ParamPoint("xgamma", 6)
    f = FieldPoint("xgamma", 6)
    g = f.param
    B = to_field(eval_limits(p)[0])
    manual = (
        B
        * f.factor(1, 2)
        * f.factor(g, 5)
        * (f.factor(g, 3) * f.factor(1, 4)).inv()
    )
    assert to_field(eval_bw_closed(2, p)[0]) == manual


def test_swap_symmetry_between_colors():
    """The white formulas are the black ones under gamma -> 1/gamma."""
    M = 5
    p = ParamPoint("xgamma", M)
    g = RatFunc.gen("gamma")
    inv_g = 1 / g

    def flip(series):
        return [c.eval(inv_g) for c in series.coeffs]

    for i in range(1, 5):
        b_i, w_i = (to_field(s) for s in eval_bw_closed(i, p))
        assert flip(b_i) == list(w_i.coeffs), i
        assert flip(w_i) == list(b_i.coeffs), i


def test_context_formula_anchors():
    q = ParamPoint("yalpha", 5)
    f = FieldPoint("yalpha", 5)
    g = f.param
    P, Q = (to_field(s) for s in eval_limits(q))
    i = 2
    manual_p = P * f.factor(1, i) * f.factor(g, i + 3) * (
        f.factor(1, i + 1) * f.factor(g, i + 2)
    ).inv()
    p_i, q_i, y_even, y_odd = eval_pqy_closed(i, q)
    assert to_field(p_i) == manual_p
    assert y_even == p_i
    Y = to_field(eval_y_limit(q))
    manual_y = Y * f.factor(1, i + 1) * f.factor(g, i + 3) * (
        f.factor(1, i + 2) * f.factor(g, i + 2)
    ).inv()
    assert to_field(y_odd) == manual_y


def test_recursion_residuals_two_orders():
    # asserted at two distinct orders to guard against truncation accidents
    for system in ("bw", "pq", "y"):
        assert verify_recursion(system, range(1, 4), 4).passed
        assert verify_recursion(system, range(1, 4), 6).passed


def test_unknown_system_rejected():
    with pytest.raises(StructureError):
        verify_recursion("zz", range(1, 2), 4)


def test_param_equivalence():
    assert param_equivalence(5).passed


def test_series_match():
    assert series_match(4).passed


def test_section6_identities():
    report = section6_algebra()
    assert report.passed
    assert any("characteristic" in line for line in report.lines)


@pytest.mark.parametrize("which", [0, 1])
def test_section6_rejects_a_vertex_weight_perturbed_at_y5(monkeypatch, which):
    def perturbed(p):
        tts = list(eval_tt(p))
        tts[which] = tts[which] + p.poly({5: 1})
        return tuple(tts)

    monkeypatch.setattr(closed_forms, "eval_tt", perturbed)
    with pytest.raises(VerificationError, match="vertex weight"):
        section6_algebra()


def test_tower_poly_rejects_fractions_and_high_degrees():
    # section6_algebra compares tower values with the polynomial read off a
    # series at order 8: a fraction, or a polynomial of y-degree above 8,
    # cannot equal it
    T = closed_forms._tower()
    vars = T.y.vars
    p = ParamPoint("yalpha", 8)
    den, P_series = closed_forms._denominator(p), eval_limits(p)[0]
    assert closed_forms._series_poly(den, vars) == T.D
    assert closed_forms._series_poly(P_series * den, vars) == T.P * T.D
    assert closed_forms._series_poly(P_series, vars) != T.P
    assert closed_forms._series_poly(den ** 3, vars) != T.D ** 3  # y-degree 12, cut at 8
    assert closed_forms._series_poly(closed_forms._denominator(ParamPoint("yalpha", 12)) ** 3, vars) == T.D ** 3


@pytest.mark.parametrize("name, change", [
    ("Q doubled", lambda T: {"Q": 2 * T.Q}),
    ("P shifted", lambda T: {"P": T.P * T.y}),
    ("Y_1 display with alpha y^4", lambda T: {"Y1": (T.a - 1) * T.y * (1 - T.a * T.y ** 4) / ((1 + T.y) * T.D)}),
    ("d display doubled", lambda T: {"d": 2 * T.d}),
])
def test_section6_rejects_a_perturbed_tower(monkeypatch, name, change):
    T = closed_forms._tower()
    bad = SimpleNamespace(**{**vars(T), **change(T)})
    monkeypatch.setattr(closed_forms, "_tower", lambda: bad)
    with pytest.raises(VerificationError):
        section6_algebra()


def test_large_height_collapse():
    assert large_height_collapse(4).passed


def test_substitution_is_the_monomial_map():
    # alpha^j y^k -> gamma^(2k - 2j) u^k; alpha above y-degree has no image
    y_series = Series("y", 2, [Poly("alpha", [3]), Poly("alpha", [0, 1]), Poly("alpha", [1, 0, 2])],
                      closed_forms.ALPHA_RING)
    u_series = closed_forms._subst_to_x(y_series)
    assert u_series.var == "u" and u_series.field is closed_forms.GAMMA_RING
    assert [c.coeffs for c in u_series.coeffs] == [(3,), (1,), (2, 0, 0, 0, 1)]
    with pytest.raises(VerificationError, match="alpha-degree 1 above 0"):
        closed_forms._subst_to_x(Series("y", 1, [Poly("alpha", [0, 1])], closed_forms.ALPHA_RING))


def test_series_checks_run_no_gcd_and_no_ratfunc(monkeypatch):
    calls = Counter()

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    names = ["Poly.gcd"]
    monkeypatch.setattr(Poly, "gcd", counting("Poly.gcd", Poly.gcd))
    for op in ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
               "__truediv__", "__rtruediv__", "__pow__", "inverse"):
        names.append(f"RatFunc.{op}")
        monkeypatch.setattr(RatFunc, op, counting(names[-1], getattr(RatFunc, op)))
    param_point.cache_clear()  # count the checks from cold points
    for system in ("bw", "pq", "y"):
        assert verify_recursion(system, range(1, 7), 8).passed
    assert param_equivalence(8).passed
    assert series_match(8).passed
    assert large_height_collapse(8).passed
    assert {name: calls[name] for name in names} == dict.fromkeys(names, 0)
    # control: a product in Q(z) runs a gcd and RatFunc work, and the counters see both
    zJ = finite_fraction_ratfunc([Fraction(2), Fraction(3), Fraction(5)]) * RatFunc.gen("z")
    assert calls["Poly.gcd"] > 0 and calls["RatFunc.__mul__"] > 0
    assert zJ == RatFunc(Poly("z", [0, 1, -5]), Poly("z", [1, -10, 10]))


def test_tower_identities_run_no_gcd_and_no_ratfunc(monkeypatch):
    calls = Counter()
    for cls, name in ((Poly, "gcd"), (RatFunc, "__init__")):
        def counted(*args, _f=getattr(cls, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    assert section6_algebra().passed
    assert h_ladder(6).passed
    for i in range(2, 5):
        assert linear_relation_specialized_check(i).passed
        assert linear_relation_gprime_check(i).passed
    assert calls == Counter()
    RatFunc.gen("y").num.gcd(RatFunc.gen("y").num)  # the counters see both
    assert calls == Counter({"__init__": 2, "gcd": 1})


def counting_series_products(monkeypatch):
    """A list that grows by one at every Series product."""
    seen = []
    mul = Series.__mul__

    def counted(a, b):
        seen.append(1)
        return mul(a, b)

    monkeypatch.setattr(Series, "__mul__", counted)
    monkeypatch.setattr(Series, "__rmul__", counted)
    return seen


def test_power_starts_from_the_base(monkeypatch):
    den_inv = ParamPoint("yalpha", 4).den_inv
    seen = counting_series_products(monkeypatch)
    want = den_inv.ring_one()
    for k, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
        seen.clear()
        value = den_inv ** k
        assert len(seen) == products, k
        assert value == want
        want = want * den_inv


def test_series_checks_build_each_limit_pair_and_height_once(monkeypatch):
    # 1,599 products when the limit pair was rebuilt at every height and
    # every context height was built twice, and 1,078 when each check built
    # its own points and recomputed the powers of t_w for every weight;
    # counted from cold points
    seen = counting_series_products(monkeypatch)
    param_point.cache_clear()
    for system in ("bw", "pq", "y"):
        assert verify_recursion(system, range(1, 7), 4).passed
    assert param_equivalence(4).passed
    assert series_match(4).passed
    assert large_height_collapse(4).passed
    assert len(seen) < 1078


# ------------------------------------- geometric inverses and shared points

def inverse_factors(family, cap):
    """Every (e, k) whose inverse the closed forms take at a fresh point,
    through every height the checks evaluate and one above the cap."""
    p = ParamPoint(family, cap)
    for i in range(cap + 3):
        if family == "xgamma":
            eval_bw_closed(i, p)
        else:
            eval_pqy_closed(i, p)
    return [key for key in p.built if type(key) is tuple and all(type(x) is int for x in key)]


@pytest.mark.parametrize("family", ["xgamma", "yalpha"])
def test_geometric_inverses_match_the_series_division(family):
    for cap in range(1, 11):
        used = inverse_factors(family, cap)
        assert {e for e, _ in used} == ({-1, 0, 1} if family == "xgamma" else {0, 1})
        assert max(k for _, k in used) > cap  # 1 + O(v^(cap + 1)): the series 1
        p = ParamPoint(family, cap)
        for e, k in used:
            assert p.geometric(e, k) == p.factor(e, k).inv(), (cap, e, k)
        for e in (0, 1):
            with pytest.raises(NonInvertibleError):
                p.factor(e, 0).inv()
            with pytest.raises(NonInvertibleError):
                p.geometric(e, 0)


def point_values(p):
    """Every value the checks read off a point, through height 6."""
    closed = eval_bw_closed if p.family == "xgamma" else eval_pqy_closed
    return p.den_inv, eval_tt(p), eval_limits(p), [closed(i, p) for i in range(7)]


@pytest.mark.parametrize("family", ["xgamma", "yalpha"])
def test_memoized_points_give_the_values_of_fresh_ones(family):
    seen = {}
    for cap in (4, 6, 4):
        p = param_point(family, cap)
        assert seen.setdefault(cap, p) is p and (p.family, p.cap) == (family, cap)
        assert point_values(p) == point_values(ParamPoint(family, cap))


def test_closed_form_suite_builds_each_point_once_and_divides_only_by_the_denominator(monkeypatch):
    built, divisors = [], []
    init, divide = ParamPoint.__init__, Series.divide

    def counted_init(self, family, cap):
        built.append((family, cap))
        init(self, family, cap)

    def counted_divide(self, other):
        if other.var in ("u", "y"):
            divisors.append(other)
        return divide(self, other)

    monkeypatch.setattr(ParamPoint, "__init__", counted_init)
    monkeypatch.setattr(Series, "divide", counted_divide)
    param_point.cache_clear()
    for _ in range(2):
        assert cli.main(["verify", "closedforms", "--order", "4"]) == 0
    points, dens = list(built), list(divisors)  # the oracle's points below count too
    assert sorted(points) == [("xgamma", 4), ("yalpha", 4), ("yalpha", 8)]
    assert dens == [closed_forms._denominator(ParamPoint(f, c)) for f, c in points]


@pytest.mark.parametrize("cap", [2.5, True, False, 0, -1, "3", None, Fraction(4)])
def test_point_refuses_a_cap_that_is_not_an_int_of_at_least_one(cap):
    param_point("yalpha", 1)  # a cached cap 1 must not answer for True
    with pytest.raises(StructureError, match="not an int >= 1"):
        ParamPoint("yalpha", cap)
    with pytest.raises(StructureError, match="not an int >= 1"):
        param_point("yalpha", cap)


def test_composition_evaluates_the_weight_polynomial():
    p = param_point("xgamma", 5)
    t_b, t_w = eval_tt(p)
    weight = bipoly({(0, 0): 3, (2, 1): Fraction(-1, 2), (0, 4): 7, (1, 3): 2}, 5)
    want = 3 + t_b * t_b * t_w * Fraction(-1, 2) + t_w ** 4 * 7 + t_b * t_w ** 3 * 2
    assert closed_forms._compose(weight, t_b, closed_forms._powers(t_w, 5)) == want
