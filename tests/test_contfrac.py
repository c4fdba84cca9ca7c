"""Continued fraction expansion and Hankel-determinant extraction."""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from quadslice.contfrac import (
    build_jn,
    conjectured_tilde_j_graded,
    conjectured_tilde_j_rescaled_route,
    expand,
    finite_fraction_ratfunc,
    finite_reflection_check,
    graded_ladder,
    hankel_type_dets,
    newtype_extract,
    newtype_rungs_from_solver_inputs,
    stieltjes_extract,
    stieltjes_rungs_from_solver,
    tilde_coeffs,
    underdetermination_witness,
)
from quadslice import contfrac
from quadslice.errors import NonInvertibleError, StructureError, VerificationError
from quadslice.exactalg import MPoly, bipoly, bipoly_one, det_division_free, tb
from quadslice.lattice_paths import symbol_table, z_const
from quadslice.ratfunc import QQ, Poly, RatFunc
from quadslice.series import RHO_RING, Series
from quadslice.slice_solver import a0_a1_times_tb, f_n, solve_bw, solve_limit, solve_y, y1_series

from test_exactalg import berkowitz_det
from test_series import RHO_FIELD, field_to_bipoly, rho_field_image


def rationals(seed, count, bound=7):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        v = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if v != 0:
            out.append(v)
    return out


def test_expand_examples_symbolic():
    table, _ = symbol_table("elongated", 4)
    Y = [table.a(j) for j in range(1, 5)]
    J = expand(Y, 2)
    assert J.coeffs[0] == Y[0].ring_one()
    assert J.coeffs[1] == Y[0] + Y[1]
    assert J.coeffs[2] == (Y[0] + Y[1]) * (Y[0] + Y[1]) + Y[1] * (Y[2] + Y[3])


def test_expand_stieltjes_matches_solver():
    N = 6
    bw = solve_bw(N)
    rungs = [bw.second[i] if i % 2 == 1 else bw.first[i] for i in range(1, 6)]
    F = expand(rungs, 4, "stieltjes")
    for n in range(5):
        assert F.coeffs[n] == f_n(n, N), n


def test_expand_zero_rungs():
    assert expand([Fraction(0)] * 4, 3, "stieltjes").coeffs == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


@pytest.mark.parametrize("kind", ["stieltjes", "newtype"])
@pytest.mark.parametrize("finite", [False, True])
def test_expand_at_order_zero_is_one(kind, finite):
    got = expand([Fraction(1)] * 3, 0, kind, finite)
    assert got == Series.one("z", 0, QQ)


@pytest.mark.parametrize("coeffs, kind, finite, message", [
    ([Fraction(1)] * 3, "jacobi", False, "unknown fraction kind 'jacobi'"),
    ([], "stieltjes", True, "at least one rung coefficient"),
    (iter([]), "newtype", False, "at least one rung coefficient"),
    ([Fraction(1)] * 4, "newtype", True, r"2\*alpha - 1 coefficients"),
])
def test_expand_refuses_a_malformed_fraction(coeffs, kind, finite, message):
    with pytest.raises(StructureError, match=message):
        expand(coeffs, 2, kind, finite)


def test_expand_depth_guard():
    with pytest.raises(StructureError):
        expand([Fraction(1)] * 2, 4, "stieltjes")
    with pytest.raises(StructureError):
        expand([Fraction(1)] * 3, 4)


def test_stieltjes_extract_round_trip_rationals():
    cs = rationals(3, 8)
    cs = [abs(c) + 1 for c in cs]  # keep Hankel determinants away from zero
    F = expand(cs, 8, "stieltjes")
    got = stieltjes_extract(F, 4)
    for i in range(1, 5):
        assert got[("w", 2 * i - 1)] == cs[2 * i - 2]
        assert got[("b", 2 * i)] == cs[2 * i - 1]


def test_stieltjes_bi_ratios_symbolic():
    """Re-multiplied form of the determinant ratios, identically in the
    rungs: c_{2i} h0_{i-1} h1_{i-1} = h0_i h1_{i-2} and the odd analog."""
    table, _ = symbol_table("elongated", 6)  # six opaque symbols
    cs = [table.a(j) for j in range(1, 7)]
    F = expand(cs, 6, "stieltjes", finite=True)

    def h(i, shift):
        if i < 0:
            return cs[0].ring_one()
        rows = [[F.coeffs[n + m + shift] for m in range(i + 1)] for n in range(i + 1)]
        return berkowitz_det(rows)

    for i in (1, 2):
        lhs = cs[2 * i - 2] * (h(i - 2, 1) * h(i - 1, 0))
        rhs = h(i - 1, 1) * h(i - 2, 0)
        assert lhs == rhs  # odd rung
        lhs = cs[2 * i - 1] * (h(i - 1, 0) * h(i - 1, 1))
        rhs = h(i, 0) * h(i - 2, 1)
        assert lhs == rhs  # even rung


def test_stieltjes_extraction_from_solver():
    got = stieltjes_rungs_from_solver(6, 2)
    bw = solve_bw(8)
    for (tag, idx), val in got.items():
        seq = bw.first if tag == "b" else bw.second
        assert val.with_cap(6) == seq[idx].with_cap(6), (tag, idx)


def test_ladder_basics():
    Y = rationals(5, 9)
    J = expand(Y, 4, finite=True)
    Jt = expand(tilde_coeffs(Y), 4, finite=True)
    lad = build_jn(J, Y[0], Jt)
    assert lad[0] == Fraction(1)
    assert lad[1] == Y[0]
    assert lad[-1] == Jt.coeffs[1]
    assert hankel_type_dets(lad, 1, 1) == Y[0]
    assert hankel_type_dets(lad, 2, 0) == lad[-1] * lad[1] - lad[0] * lad[0]


def test_tilde_examples():
    Y = rationals(8, 5)
    t = tilde_coeffs(Y)
    assert t[0] * Y[0] == 1
    assert t[1] == Y[1] / (Y[0] * Y[2])
    # expansion of the companion fraction starts at (Y_2 + Y_3)/(Y_1 Y_3)
    Jt = expand(t, 1, finite=True)
    assert Jt.coeffs[1] == (Y[1] + Y[2]) / (Y[0] * Y[2])
    with pytest.raises(StructureError):
        tilde_coeffs(Y[:4])


def test_newtype_round_trip_rationals():
    Y = rationals(11, 9)
    J = expand(Y, 5, finite=True)
    Jt = expand(tilde_coeffs(Y), 4, finite=True)
    lad = build_jn(J, Y[0], Jt)
    assert newtype_extract(lad, 4) == Y[:8]


def test_conjectured_companion_routes_agree():
    for n in range(0, 3):
        a = conjectured_tilde_j_graded(n, 4)
        b = conjectured_tilde_j_rescaled_route(n, 4)
        assert a == b, n
    assert conjectured_tilde_j_graded(0, 3).coeffs[0] == RatFunc.one("rho")


def test_graded_extraction_reproduces_solver():
    got = newtype_rungs_from_solver_inputs(4, 2)
    yf = solve_y(6)
    for j, val in enumerate(got, start=1):
        assert val == yf.first[j].with_cap(val.cap), j


def test_finite_reflection_all_alphas():
    for alpha in range(1, 5):
        rep = finite_reflection_check(alpha, seed=100 + alpha)
        assert rep.passed


def test_finite_reflection_alpha_one_algebra():
    # J = 1/(1 - z Y1), companion = 1/(1 - z / Y1)
    z = RatFunc.gen("z")
    J = finite_fraction_ratfunc([Fraction(2)])
    assert J == 1 / (1 - 2 * z)
    Jt = finite_fraction_ratfunc(tilde_coeffs([Fraction(2)]))
    assert Jt == 1 / (1 - z / 2)
    assert Jt == -(RatFunc.const("z", 2) / z) * J.eval(1 / z)


def test_finite_fraction_degrees():
    for alpha in (2, 3):
        Y = rationals(40 + alpha, 2 * alpha - 1)
        J = finite_fraction_ratfunc(Y)
        assert J.num.degree() == alpha - 1
        assert J.den.degree() == alpha


@pytest.mark.parametrize("k", range(5))
def test_reflection_check_rejects_a_scaled_companion_rung(monkeypatch, k):
    real = contfrac.tilde_coeffs
    monkeypatch.setattr(contfrac, "tilde_coeffs", lambda Y: [2 * v if j == k else v for j, v in enumerate(real(Y))])
    with pytest.raises(VerificationError, match="reflection identity failed"):
        finite_reflection_check(3, seed=5)


@pytest.mark.parametrize("Y", [
    [2, 3, 0],  # Y_3 = 0 lowers the degree of den
    [2, 0, 5],  # Y_2 = 0 splits off the common factor 1 - 5z, which the gcd finds
])
def test_reflection_check_rejects_a_degenerate_fraction_before_the_companion(monkeypatch, Y):
    def not_reached(Y):
        raise AssertionError("the companion is built after the degree check")

    monkeypatch.setattr(contfrac, "_random_nonzero_rationals", lambda count, rng: [Fraction(v) for v in Y])
    monkeypatch.setattr(contfrac, "tilde_coeffs", not_reached)
    with pytest.raises(VerificationError, match="degree check failed: 0/1 vs 1/2"):
        finite_reflection_check(2, seed=1)


def test_reflection_check_runs_one_gcd_and_no_ratfunc(monkeypatch):
    calls = Counter()
    ops = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
           "__truediv__", "__rtruediv__", "__pow__", "inverse")
    for cls, name in [(Poly, "gcd")] + [(RatFunc, op) for op in ops]:
        def counted(*args, _f=getattr(cls, name), _name=f"{cls.__name__}.{name}", **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    assert finite_reflection_check(4, seed=3).passed
    assert calls["Poly.gcd"] <= 1
    assert sum(calls[f"RatFunc.{op}"] for op in ops) == 0


def test_underdetermination_witness():
    rep = underdetermination_witness(7)
    assert rep.passed
    assert any("differ" in line for line in rep.lines)


def test_graded_ladder_entries_are_series():
    # raw entry n has valuation exactly n on both sides, so the tau^(-n)
    # rescaling leaves every entry at valuation 0
    lad = graded_ladder(4, 3, 2)
    for n in range(-2, 4):
        val = lad[n]
        assert isinstance(val, Series)
        assert val.valuation() == 0, n
    assert lad[0].coeffs[0] == RatFunc.one("rho")


def test_stieltjes_expand_after_extract_identity():
    """Extract rungs from an arbitrary unit-led series, re-expand, and land
    back on the series: the two directions are mutually inverse."""
    rng = random.Random(21)
    i_max = 3
    coeffs = [Fraction(1)] + [
        Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(2 * i_max)
    ]
    F = Series("z", 2 * i_max, coeffs, QQ)
    got = stieltjes_extract(F, i_max)
    rungs = []
    for i in range(1, i_max + 1):
        rungs.append(got[("w", 2 * i - 1)])
        rungs.append(got[("b", 2 * i)])
    again = expand(rungs, 2 * i_max, "stieltjes")
    assert again == F


# ------------------------- copies folded into shared routines, kept as oracles


def stieltjes_expand_oracle(cs, L, finite):
    """The Stieltjes branch of expand before it became the two-term fraction
    with rungs (0, c_1, 0, c_2, ...)."""
    field = contfrac._ring_field(cs[0])
    one = Series.one("z", L, field)
    z = Series.gen("z", L, field)
    t = one
    for i in range(len(cs) if finite else L, 0, -1):
        t = (one - z * (t * cs[i - 1])).inv()
    return t


def fold_oracle(Y, rungs, one, z, inv):
    """_fold before it kept the convergent pair: the value itself, bottom-up,
    with one inverse per rung."""
    t = one
    for i in range(rungs, 0, -1):
        body = one - z * Y[2 * i - 2]
        if 2 * i - 1 < len(Y):
            body = body - z * (t * Y[2 * i - 1])
        t = inv(body)
    return t


def expand_oracle(coeffs, L, kind, finite):
    Y = coeffs
    if kind == "stieltjes":
        Y = [v for c in Y for v in (Fraction(0), c)]
    rungs = (len(Y) + 1) // 2
    field = contfrac._ring_field(Y[0])
    one, z = Series.one("z", L, field), Series.gen("z", L, field)
    return fold_oracle(Y, rungs if finite else min(rungs, L), one, z, Series.inv)


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def fraction_specs(draw):
    """expand's arguments (coeffs, L, kind, finite) over Fraction rungs, zero
    rungs allowed, of either kind and either termination, with L in 0..10."""
    kind = draw(st.sampled_from(["stieltjes", "newtype"]))
    finite = draw(st.booleans())
    L = draw(st.integers(0, 10))
    if finite:
        count = draw(st.integers(1, 6))
        count = 2 * count - 1 if kind == "newtype" else count
    else:
        least = max(1, L if kind == "stieltjes" else 2 * L)
        count = draw(st.integers(least, least + 3))
    coeffs = draw(st.lists(small_fractions, min_size=count, max_size=count))
    return coeffs, L, kind, finite


@settings(max_examples=200, deadline=None, database=None)
@given(fraction_specs())
def test_expand_matches_the_inverse_per_rung_fold(case):
    assert expand(*case) == expand_oracle(*case)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 5).flatmap(lambda a: st.lists(small_fractions, min_size=2 * a - 1, max_size=2 * a - 1)))
def test_finite_fraction_ratfunc_matches_the_ratfunc_fold(Y):
    want = fold_oracle(Y, (len(Y) + 1) // 2, RatFunc.one("z"), RatFunc.gen("z"), RatFunc.inverse)
    assert finite_fraction_ratfunc(Y) == want


def fraction_fold(Y, rungs, one, z):
    """_fold before it cleared rational rung pairs: every rung folded as it
    is, Fractions included, so den(0) stays 1."""
    num = den = one
    for i in range(rungs, 0, -1):
        body = den * Y[2 * i - 2]
        if 2 * i - 1 < len(Y):
            body = body + num * Y[2 * i - 1]
        num, den = den, den - z * body
    return num, den


@st.composite
def rational_rungs(draw):
    """(coeffs, kind, Y, rungs): two-term rungs of odd or even length, or
    Stieltjes rungs c with zero c allowed, and the two-term rungs Y
    (= coeffs, or (0, c_1, 0, c_2, ...)) cut after any number of rungs."""
    kind = draw(st.sampled_from(["odd", "even", "stieltjes"]))
    count = draw(st.integers(1, 7))
    coeffs = draw(st.lists(small_fractions, min_size=count, max_size=count))
    if kind == "stieltjes":
        Y = [v for c in coeffs for v in (0, c)]
    else:
        Y = coeffs = coeffs + [draw(small_fractions)] if (count % 2 == 1) != (kind == "odd") else coeffs
    return coeffs, "stieltjes" if kind == "stieltjes" else "newtype", Y, draw(st.integers(0, (len(Y) + 1) // 2))


def _scales(Y, rungs):
    out = 1
    for i in range(1, rungs + 1):
        out *= lcm(*(Fraction(y).denominator for y in Y[2 * i - 2:2 * i]))
    return out


@settings(max_examples=200, deadline=None, database=None)
@given(rational_rungs())
def test_cleared_fold_is_the_same_fraction_on_integers(case):
    _, _, Y, rungs = case
    one, z = Poly.one("z"), Poly.gen("z")
    num, den = contfrac._fold(Y, rungs, one, z)
    ref_num, ref_den = fraction_fold(Y, rungs, one, z)
    assert num * ref_den == ref_num * den
    assert all(type(c) is int for c in num.coeffs + den.coeffs)
    assert den.coeffs[0] == _scales(Y, rungs) and ref_den.coeffs[0] == 1


@settings(max_examples=150, deadline=None, database=None)
@given(rational_rungs(), st.integers(0, 8))
def test_cleared_fold_expands_to_the_reference_series(case, L):
    coeffs, kind, Y, _ = case
    full = (len(Y) + 1) // 2
    field = contfrac._ring_field(Y[0])
    one, z = Series.one("z", L, field), Series.gen("z", L, field)
    for finite in (True, False):
        try:
            got = expand(coeffs, L, kind, finite)
        except StructureError:  # a finite two-term fraction of even length, or too few rungs for L
            continue
        want = Series.divide(*fraction_fold(Y, full if finite else min(full, L), one, z))
        assert got.cap == want.cap == L
        assert list(got.coeffs) == list(want.coeffs)
    assert finite_fraction_ratfunc(Y) == RatFunc(*fraction_fold(Y, full, Poly.one("z"), Poly.gen("z")))


@pytest.mark.parametrize("count", [3, 4, 5])
def test_ring_rungs_fold_to_the_reference_pair(count):
    """Rungs in a ring (Poly, keyed and packed MPoly, packed Series over
    Q[rho]) are folded as before, each with one and z of its own ring."""
    rng = random.Random(count)

    def rational():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    rungs = (count + 1) // 2
    keyed_vars = ("z", "a", "b")
    rings = {
        "Poly": ([Poly("z", [rational() for _ in range(3)]) for _ in range(count)], Poly.one("z"), Poly.gen("z")),
        "keyed MPoly": ([MPoly(keyed_vars, {(1, 0, 0): rational(), (0, 1, 0): rational(), (0, 1, 1): rational()})
                         for _ in range(count)], MPoly.const(keyed_vars, 1), MPoly.gen(keyed_vars, "z")),
        "packed MPoly": ([bipoly({(1, 0): rational(), (0, 1): rational(), (1, 1): rational()}, 6)
                          for _ in range(count)], bipoly_one(6), tb(6)),
        "packed Series": ([Series("z", 5, [Poly("rho", [rational(), rational()]) for _ in range(3)], RHO_RING)
                           for _ in range(count)], Series.one("z", 5, RHO_RING), Series.gen("z", 5, RHO_RING)),
    }
    assert rings["packed MPoly"][1]._num is not None and rings["packed Series"][1]._num is not None
    for name, (Y, one, z) in rings.items():
        got, want = contfrac._fold(Y, rungs, one, z), fraction_fold(Y, rungs, one, z)
        assert got[0] == want[0] and got[1] == want[1], name
    # and expand over a ring of symbols divides the reference pair
    table, _ = symbol_table("elongated", count)
    Y = [table.a(j) for j in range(1, count + 1)]
    field = contfrac._ring_field(Y[0])
    L = rungs
    want = Series.divide(*fraction_fold(Y, rungs, Series.one("z", L, field), Series.gen("z", L, field)))
    assert expand(Y, L, finite=count % 2 == 1) == want


def direct_hankel(F, i, shift):
    """h_i^(shift) = det(F_{n+m+shift}), 0 <= n, m <= i, built directly as
    stieltjes_extract did before it used hankel_type_dets; h_{-1} = 1."""
    if i < 0:
        return 1
    return berkowitz_det([[F.coeffs[n + m + shift] for m in range(i + 1)] for n in range(i + 1)])


@pytest.mark.parametrize("finite", [False, True])
def test_stieltjes_expand_matches_its_old_branch(finite):
    for seed in range(8):
        cs = rationals(300 + seed, 6)
        for L in (1, 3, 6):
            assert expand(cs, L, "stieltjes", finite=finite) == stieltjes_expand_oracle(cs, L, finite)
    table, _ = symbol_table("elongated", 4)  # four opaque symbols
    cs = [table.a(j) for j in range(1, 5)]
    assert expand(cs, 4, "stieltjes", finite=finite) == stieltjes_expand_oracle(cs, 4, finite)


def test_stieltjes_extract_matches_the_direct_hankel_builder():
    rng = random.Random(31)
    i_max = 3
    for _ in range(20):
        coeffs = [Fraction(1)] + [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2 * i_max)]
        F = Series("z", 2 * i_max, coeffs, QQ)
        h0 = {i: direct_hankel(F, i, 0) for i in range(-1, i_max + 1)}
        h1 = {i: direct_hankel(F, i, 1) for i in range(-1, i_max)}
        ladder = contfrac.JnLadder(enumerate(F.coeffs), F.coeffs[0])
        for i, h in h0.items():
            assert hankel_type_dets(ladder, i + 1, i) == h
        for i, h in h1.items():
            assert hankel_type_dets(ladder, i + 1, i + 1) == h
        try:
            want = {}
            for i in range(1, i_max + 1):
                want[("w", 2 * i - 1)] = Fraction(h1[i - 1] * h0[i - 2], h1[i - 2] * h0[i - 1])
                want[("b", 2 * i)] = Fraction(h0[i] * h1[i - 2], h0[i - 1] * h1[i - 1])
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                stieltjes_extract(F, i_max)
        else:
            assert stieltjes_extract(F, i_max) == want


def row_scaled_hankel(ladder, i, shift):
    """H_i^(shift) as hankel_type_dets built it before the Hankel families:
    its own matrix, row n scaled by u^max(0, i-n-shift), one oracle
    determinant."""
    def entry(n, m):
        idx = n + m - i - 1 + shift
        extra = max(0, i - n - shift) - max(0, -idx)
        return ladder[idx] if ladder.clear is None or not extra else ladder[idx] * ladder.clear ** extra

    return berkowitz_det([[entry(n, m) for m in range(1, i + 1)] for n in range(1, i + 1)])


def rational_ladder():
    Y = rationals(11, 9)
    return build_jn(expand(Y, 5, finite=True), Y[0], expand(tilde_coeffs(Y), 4, finite=True))


def stieltjes_ladder():
    F = expand(rationals(12, 6), 6, "stieltjes")
    return contfrac.JnLadder(enumerate(F.coeffs), F.coeffs[0])


@pytest.mark.parametrize("which, families", [
    ("graded", [(k, k + 1) for k in range(4)]),
    ("rational", [(0, 3), (1, 3), (2, 4), (3, 4), (4, 5)]),
    ("stieltjes", [(1, 4), (0, 3)]),
])
def test_family_minors_are_the_per_order_determinants(which, families):
    ladder = {"graded": lambda: graded_ladder(4, 4, 2), "rational": rational_ladder,
              "stieltjes": stieltjes_ladder}[which]()
    for k, size in families:
        minors = contfrac._hankel_family(ladder, k, size)
        assert len(minors) == size
        for i, got in enumerate(minors, start=1):
            assert got == hankel_type_dets(ladder, i, i - k) == row_scaled_hankel(ladder, i, i - k), (k, i)


def test_extractions_run_one_determinant_per_hankel_family(monkeypatch):
    calls = Counter()
    honest = contfrac.det_division_free

    def counted(rows):
        calls[len(rows)] += 1
        return honest(rows)

    def forbidden(*args):
        raise AssertionError("an extraction went through the single-determinant view")

    monkeypatch.setattr(contfrac, "det_division_free", counted)
    monkeypatch.setattr(contfrac, "hankel_type_dets", forbidden)
    F = expand(rationals(13, 8), 8, "stieltjes")
    for i_max in (1, 3, 4):
        calls.clear()
        stieltjes_extract(F, i_max)
        assert calls == Counter({i_max + 1: 1, i_max: 1}), i_max
    for ladder, i_max in ((rational_ladder(), 4), (graded_ladder(4, 4, 2), 3)):
        calls.clear()
        newtype_extract(ladder, i_max)
        assert calls == Counter(range(1, i_max + 2)), i_max


def test_negative_hankel_order_is_structural():
    for ladder in (graded_ladder(3, 2, 1), rational_ladder()):
        assert hankel_type_dets(ladder, 0, 0) == contfrac._ring_one_of(ladder.y1)
        for i, shift in ((-1, 0), (-1, 1), (-3, 2)):
            with pytest.raises(StructureError, match=f"order {i} is negative"):
                hankel_type_dets(ladder, i, shift)


# ------------------------------------------- the Q(rho) route, kept as the oracle


def field_companion(n, order):
    """Companion coefficient n in the rescaled grading by field division
    over Q(rho), as the package computed it before its companions were
    cleared over Q[rho]."""
    if n == 0:
        return Series.one("tau", order, RHO_FIELD)
    cap = order + 2 * n + 2
    lim = solve_limit(cap)
    P, Q = lim.first, lim.second
    ta0, ta1 = a0_a1_times_tb(lim)
    Y = Q - P
    num = y1_series(cap) * (
        ta0 * z_const(n, P, Q, "context") + ta1 * Y * Y * z_const(n - 1, P, Q, "context")
    )
    den = tb(cap) * Y ** (2 * n + 1)
    return rho_field_image(num).shift(n).divide(rho_field_image(den)).truncate(order)


def ratfunc_ladder(order, n_hi, n_lo):
    """The graded ladder with every entry over Q(rho): j_{-n} is the
    companion itself, not cleared of its (rho - 1) denominators."""
    j = {}
    for n in range(0, n_hi + 1):
        cap = order + n
        val = y1_series(cap) * f_n(n - 1, cap) if n >= 1 else bipoly_one(order)
        j[n] = rho_field_image(val).shift(-n)
    for n in range(1, n_lo + 1):
        j[-n] = field_companion(n, order)
    return j


def ratfunc_hankel(j, i, shift, order):
    if i == 0:
        return Series.one("tau", order, RHO_FIELD)
    return berkowitz_det([[j[n + m - i - 1 + shift] for m in range(1, i + 1)] for n in range(1, i + 1)])


def ratfunc_rungs(H, i_max):
    """Y_1..Y_{2 i_max} by field division of the bi-ratios, as bivariate polynomials."""
    Y = []
    for i in range(1, i_max + 1):
        Y.append((H[i, 1] * H[i - 1, 0]).divide(H[i - 1, 1] * H[i, 0]))
        Y.append((H[i - 1, 0] * H[i + 1, 1]).divide(H[i, 0] * H[i, 1]))
    return [field_to_bipoly(v.shift(1)) for v in Y]


ORACLE_I_MAX = 4


@pytest.fixture(scope="module", params=[3, 4, 5])
def ratfunc_route(request):
    """(N, every H_i^(s) the extraction at i_max <= 4 reads, rungs Y_1..Y_8) over Q(rho)."""
    N = request.param
    j = ratfunc_ladder(N, ORACLE_I_MAX + 1, ORACLE_I_MAX - 1)
    H = {(i, s): ratfunc_hankel(j, i, s, N) for s in (0, 1) for i in range(ORACLE_I_MAX + 1 + s)}
    return N, H, ratfunc_rungs(H, ORACLE_I_MAX)


def test_scaled_hankel_dets_match_ratfunc_route(ratfunc_route):
    N, H, _ = ratfunc_route
    ladder = graded_ladder(N, ORACLE_I_MAX + 1, ORACLE_I_MAX - 1)
    assert ladder.clear == Poly("rho", (-1, 1)) ** 2
    for (i, s), want in H.items():
        got = hankel_type_dets(ladder, i, s)
        assert got.field is RHO_RING and got.cap == want.cap, (i, s)
        scale = ladder.clear ** contfrac._clearing_power(i, s)
        back = [RatFunc(c, scale) for c in got.coeffs]
        assert back == list(want.coeffs), (N, i, s)


def test_rungs_match_ratfunc_route(ratfunc_route):
    N, _, want = ratfunc_route
    for i_max in range(1, ORACLE_I_MAX + 1):
        assert newtype_rungs_from_solver_inputs(N, i_max) == want[: 2 * i_max], (N, i_max)


def test_cleared_companion_matches_the_field_route():
    clear = RatFunc.from_poly(Poly("rho", (-1, 1)))
    for n in range(1, 4):
        want = field_companion(n, 4)
        got = contfrac._companion_cleared(n, 4)
        assert got.field is RHO_RING and got.cap == want.cap, n
        assert [RatFunc.from_poly(c) for c in got.coeffs] == [c * clear ** (2 * n) for c in want.coeffs], n
        assert conjectured_tilde_j_graded(n, 4) == want, n


@pytest.mark.parametrize("order", [3, 5, 6])
def test_rho_view_matches_the_reducing_constructor(monkeypatch, order):
    # the view divides out rho - 1 exactly; the oracle reduces by a gcd
    rho, rho_1 = Poly.gen("rho"), Poly("rho", (-1, 1))
    views = [(contfrac._companion_cleared(n, order), e) for n in range(4) for e in (2 * n, 2 * n + 1)]
    # a zero, a rational constant and a higher power of rho - 1 than e
    views.append((Series("tau", 3, [Poly.zero("rho"), Poly.const("rho", Fraction(2, 3)),
                                    rho_1 ** 3 * (rho + 2), rho_1 * rho], RHO_RING), 2))
    want = [[RatFunc(c, rho_1 ** e) for c in s.coeffs] for s, e in views]

    def forbidden(*args, **kwargs):
        raise AssertionError("gcd in the companion view")

    monkeypatch.setattr(Poly, "gcd", forbidden)
    for (s, e), coeffs in zip(views, want):
        got = contfrac._rho_view(s, e)
        assert got.field is contfrac.RHO_FIELD and got.cap == s.cap
        assert [(c.num, c.den) for c in got.coeffs] == [(c.num, c.den) for c in coeffs], (order, e)


def test_hankel_type_dets_run_without_gcd(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("gcd or Q(rho) arithmetic inside the extraction")

    monkeypatch.setattr(Poly, "gcd", forbidden)
    for op in ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "inverse"):
        monkeypatch.setattr(RatFunc, op, forbidden)
    ladder = graded_ladder(4, 3, 1)
    assert len(newtype_extract(ladder, 2)) == 4
    assert len(newtype_rungs_from_solver_inputs(5, 3)) == 6


def test_perturbed_companion_entry_fails_loudly():
    ladder = graded_ladder(4, 3, 1)
    entry = ladder[-1]
    coeffs = list(entry.coeffs)
    coeffs[0] = coeffs[0] + Poly.gen("rho")  # j_{-1} gains rho / (rho - 1)^2 at tau^0
    ladder.j[-1] = Series(entry.var, entry.cap, coeffs, entry.field)
    with pytest.raises(NonInvertibleError, match="rung Y_3"):
        newtype_extract(ladder, 2)


def test_companion_denominator_beyond_the_clearing_power_fails_loudly(monkeypatch):
    # tb^2 added to Y_1 adds rho / (rho - 1)^3 at tau^1 to companion 1, one
    # power of (rho - 1) beyond what its clearing factor (rho - 1)^2 clears
    honest = contfrac.y1_series
    monkeypatch.setattr(contfrac, "y1_series", lambda cap: honest(cap) + tb(cap) ** 2)
    with pytest.raises(NonInvertibleError, match="j_-1: quotient is not over Q\\[rho\\]"):
        graded_ladder(3, 2, 1)


def test_newtype_extraction_reaches_i_max_5():
    got = newtype_rungs_from_solver_inputs(5, 5)
    yf = solve_y(6)
    assert len(got) == 10
    for j, val in enumerate(got, start=1):
        assert val.cap >= 6
        assert val.with_cap(6) == yf.first[j].with_cap(6), j


def test_rational_rings_start_from_int_one():
    # the Berkowitz accumulators start from the int 0, so integer
    # data stays in ints, and a quotient of ints stays an exact rational
    assert det_division_free([[2, 1], [1, 3]]) == [2, 5]
    assert all(type(d) is int for d in det_division_free([[2, 1], [1, 3]]))
    catalan = Series("z", 6, [1, 1, 2, 5, 14, 42, 132], QQ)
    rungs = stieltjes_extract(catalan, 3)
    assert list(rungs.values()) == [1] * 6
    assert all(isinstance(v, (int, Fraction)) for v in rungs.values())
    assert tilde_coeffs([2, 3, 4]) == [Fraction(1, 2), Fraction(3, 8), Fraction(1, 4)]
