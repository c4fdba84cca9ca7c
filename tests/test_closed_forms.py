"""Parametrized closed forms: transcription anchors, recursion residuals,
family equivalence, and the rational identity tower."""

import pytest

from quadslice import closed_forms
from quadslice.closed_forms import (
    ParamPoint,
    eval_bw_closed,
    eval_limits,
    eval_pqy_closed,
    eval_tt,
    eval_y_limit,
    large_height_collapse,
    param_equivalence,
    section6_algebra,
    series_match,
    verify_recursion,
)
from quadslice.errors import StructureError, VerificationError
from quadslice.ratfunc import RatFunc


def test_leading_coefficients():
    p = ParamPoint("xgamma", 3)
    t_b, t_w = eval_tt(p)
    g = RatFunc.gen("gamma")
    assert t_b.coeffs[0].is_zero() and t_w.coeffs[0].is_zero()
    assert t_b.coeffs[1] == g
    q = ParamPoint("yalpha", 3)
    t_b, t_w = eval_tt(q)
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


def test_even_formula_anchor():
    """B_2 must be the displayed ratio with the explicit factor exponents."""
    p = ParamPoint("xgamma", 6)
    g = p.param
    B, _ = eval_limits(p)
    manual = (
        B
        * p.factor(1, 2)
        * p.factor(g, 5)
        * (p.factor(g, 3) * p.factor(1, 4)).inv()
    )
    assert eval_bw_closed(2, p)[0] == manual


def test_swap_symmetry_between_colors():
    """The white formulas are the black ones under gamma -> 1/gamma."""
    M = 5
    p = ParamPoint("xgamma", M)
    g = RatFunc.gen("gamma")
    inv_g = 1 / g

    def flip(series):
        return [c.eval(inv_g) for c in series.coeffs]

    for i in range(1, 5):
        b_i, w_i = eval_bw_closed(i, p)
        assert flip(b_i) == list(w_i.coeffs), i
        assert flip(w_i) == list(b_i.coeffs), i


def test_context_formula_anchors():
    q = ParamPoint("yalpha", 5)
    g = q.param
    P, Q = eval_limits(q)
    i = 2
    manual_p = P * q.factor(1, i) * q.factor(g, i + 3) * (
        q.factor(1, i + 1) * q.factor(g, i + 2)
    ).inv()
    p_i, q_i, y_even, y_odd = eval_pqy_closed(i, q)
    assert p_i == manual_p
    assert y_even == p_i
    Y = eval_y_limit(q)
    manual_y = Y * q.factor(1, i + 1) * q.factor(g, i + 3) * (
        q.factor(1, i + 2) * q.factor(g, i + 2)
    ).inv()
    assert y_odd == manual_y


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
    T = closed_forms._tower()
    p = ParamPoint("yalpha", 8)
    with pytest.raises(VerificationError, match="not a polynomial"):
        closed_forms._tower_poly(T.P, p)
    with pytest.raises(VerificationError, match="y-degree above 8"):
        closed_forms._tower_poly(T.D ** 3, p)
    assert closed_forms._tower_poly(T.D, p) == closed_forms._denominator(p)


def test_large_height_collapse():
    assert large_height_collapse(4).passed
    assert large_height_collapse(4, i_from=9).passed
