"""Hard pieces, heap generating functions, and the determinant ladder."""

import itertools
import random
from fractions import Fraction

import pytest

from quadslice.errors import StructureError
from quadslice.heaps import (
    _relation,
    _tower_consts,
    complementation_check,
    constant_ladder,
    h_ladder,
    hard_pieces,
    heap_gf,
    heaps_vs_fraction_check,
    hh_closed_check,
    ladder_stabilization_check,
    linear_relation_check,
    linear_relation_gprime_check,
    linear_relation_specialized_check,
)
from quadslice.ratfunc import RatFunc, ratfunc_field


def brute_hard_pieces(ws):
    """Oracle: enumerate independent sets of the laddered path explicitly
    (edges between consecutive vertices and between consecutive evens)."""
    V = len(ws)
    adj = set()
    for v in range(1, V):
        adj.add((v, v + 1))
    for v in range(2, V - 1, 2):
        adj.add((v, v + 2))
    out = [Fraction(0)] * (V + 2)
    for mask in range(1 << V):
        occ = [v + 1 for v in range(V) if mask >> v & 1]
        if any((a, b) in adj for a, b in itertools.combinations(occ, 2)):
            continue
        prod = Fraction(1)
        for v in occ:
            prod *= ws[v - 1]
        out[len(occ)] += prod
    return out


def test_hard_pieces_small_frozen():
    ys = [Fraction(2), Fraction(3), Fraction(5)]
    X = hard_pieces(2, ys)
    assert X == [Fraction(1), Fraction(10), Fraction(10)]
    assert hard_pieces(1, [Fraction(7)]) == [Fraction(1), Fraction(7)]


def test_hard_pieces_match_bruteforce():
    rng = random.Random(6)
    for alpha in range(1, 5):
        ws = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(2 * alpha - 1)]
        assert hard_pieces(alpha, ws) == brute_hard_pieces(ws)[: alpha + 1]


def test_maximal_configuration_is_odd_product():
    rng = random.Random(2)
    for alpha in range(1, 5):
        ws = [Fraction(rng.randint(1, 9)) for _ in range(2 * alpha - 1)]
        prod = Fraction(1)
        for k in range(0, 2 * alpha - 1, 2):
            prod *= ws[k]
        assert hard_pieces(alpha, ws)[alpha] == prod


def test_weight_count_guard():
    with pytest.raises(StructureError):
        hard_pieces(2, [Fraction(1)] * 4)
    with pytest.raises(StructureError):
        hard_pieces(2, [Fraction(1)] * 3, variant="gprime")


def test_heap_gf_alpha_one():
    g = heap_gf(1, {1}, [Fraction(3)], 4)
    assert list(g.coeffs) == [Fraction(3) ** k for k in range(5)]


def test_heap_vs_fraction_agreement():
    for alpha in range(1, 5):
        assert heaps_vs_fraction_check(alpha, seed=60 + alpha).passed


def test_complementation():
    for alpha in range(1, 5):
        assert complementation_check(alpha, seed=70 + alpha).passed


def test_linear_relations():
    for alpha in range(1, 5):
        assert linear_relation_check(alpha, seed=80 + alpha).passed


def test_linear_relation_alpha_one_geometric():
    # single vertex: j_n - Y1 j_{n-1} = 0 reduces to the geometric ladder
    assert linear_relation_check(1, seed=5).passed


def test_specialized_relations_and_boundaries():
    for i in range(2, 5):
        assert linear_relation_specialized_check(i).passed
        assert linear_relation_gprime_check(i).passed


def plain_sum(X, ladder, n, alpha):
    """The relation sum as linear_relation_check wrote it before _relation."""
    acc = Fraction(0)
    for m in range(alpha + 1):
        term = X[m] * ladder[n - m]
        acc = acc + (term if m % 2 == 0 else -term)
    return acc


def primed_sum(xp, ladder, n, i, zero):
    """The relation sum as linear_relation_gprime_check wrote it."""
    acc = zero
    for m in range(i):
        term = xp[m] * ladder[n - m]
        acc = acc + (term if m % 2 == 0 else -term)
    return acc


def specialized_sum(x, ladder, n, i, zero):
    """The normalized, reversed sum of linear_relation_specialized_check:
    sum_m (-1)^m (x_{i-1-m} / x_{i-1}) k_{n-i+m}, one division per term."""
    acc = zero
    for m in range(i):
        term = (x[i - 1 - m] / x[i - 1]) * ladder[n - i + m]
        acc = acc + (term if m % 2 == 0 else -term)
    return acc


def specialized_lhs(x, ladder, n, i):
    """The specialized sum as the checks now take it from _relation."""
    rel = _relation(x, ladder, n - 1) / x[i - 1]
    return rel if i % 2 == 1 else -rel


def test_relation_matches_the_old_sums_on_random_ladders():
    rng = random.Random(17)
    for _ in range(30):
        i = rng.randint(2, 6)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(i)]
        x[-1] = x[-1] or Fraction(1)
        ladder = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for n in range(-2 * i, 2 * i + 1)}
        for n in range(-i, i + 1):
            assert _relation(x, ladder, n) == plain_sum(x, ladder, n, i - 1), (i, n)
            assert _relation(x, ladder, n) == primed_sum(x, ladder, n, i, Fraction(0)), (i, n)
            assert specialized_lhs(x, ladder, n, i) == specialized_sum(x, ladder, n, i, Fraction(0)), (i, n)


@pytest.mark.parametrize("i", range(2, 6))
def test_relation_matches_the_old_sums_on_the_constant_ladder(i):
    Yc, Pc, one = _tower_consts()
    zero = 0 * one
    alpha = i - 1
    x = hard_pieces(alpha, [Yc if k % 2 == 0 else Pc for k in range(2 * alpha - 1)])
    xp = hard_pieces(alpha, [Yc if k % 2 == 0 else Pc for k in range(2 * alpha)], variant="gprime")
    ladder = constant_ladder(i + 1, i - 1)
    for n in range(1, i + 2):
        assert specialized_lhs(x, ladder, n, i) == specialized_sum(x, ladder, n, i, zero), n
        assert _relation(xp, ladder, n) == primed_sum(xp, ladder, n, i, zero), n


def test_constant_ladder_values():
    lad = constant_ladder(3, 2)
    Yc = lad.y1
    one = Yc.ring_one()
    assert lad[0] == one
    # k_1 = Yc * Z_0 = Yc
    assert lad[1] == Yc
    # k_{-1} = Z_1 / Yc^2 = (Yc + Pc)/Yc^2
    Pc = RatFunc.gen("Pc", ratfunc_field("Yc"))
    assert lad[-1] == (Yc + Pc) / Yc ** 2


def test_hh_closed_forms():
    assert hh_closed_check(4, seed=9).passed


def test_ladder_stabilization():
    assert ladder_stabilization_check(5, seed=13).passed


def test_h_ladder_small():
    report = h_ladder(3)
    assert report.passed
    assert any("bi-ratios" in line for line in report.lines)


def test_l0_value_at_two():
    """1 + w equals (1 + y + y^2)/(1 + y)^2 under the hard-piece weight."""
    y = RatFunc.gen("y")
    one = RatFunc.one("y")
    w = -one / (y + 1 / y + 2)
    assert one + w == (one + y + y ** 2) / (one + y) ** 2
