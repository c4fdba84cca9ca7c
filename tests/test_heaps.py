"""Hard pieces, heap generating functions, and the determinant ladder."""

import itertools
import random
from fractions import Fraction

import pytest

from quadslice import closed_forms, exactalg, heaps
from quadslice.closed_forms import _tower
from quadslice.errors import StructureError, VerificationError
from quadslice.heaps import (
    LADDER_VARS,
    PC,
    YC,
    _ladder_forms,
    _ladder_identities,
    _relation,
    _tie_out,
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
from quadslice.ratfunc import RatFunc


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
    for weights in ([1, 2, 3], [1, 2, 3, 4]):
        with pytest.raises(StructureError, match="unknown variant 'gprim'"):
            hard_pieces(2, weights, variant="gprim")


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
    Yc, Pc, one = YC, PC, YC.ring_one()
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
    Yc, Pc, one = YC, PC, YC.ring_one()
    assert lad.y1 == Yc
    assert lad[0] == one
    # k_1 = Yc * Z_0 = Yc, k_2 = Yc * Z_1 = Yc (Yc + Pc)
    assert lad[1] == Yc
    assert lad[2] == Yc * (Yc + Pc)
    # k_{-1} = Z_1 / Yc^2 = (Yc + Pc)/Yc^2, not equal to a neighbour
    assert lad[-1] == (Yc + Pc) / Yc ** 2
    assert lad[-1] != (Yc + Pc) / Yc and lad[-1] != (Yc + 2 * Pc) / Yc ** 2
    # k_{-2} = Z_2 / Yc^4 with Z_2 = (Yc + Pc)^2 + Pc (Yc + Pc)
    assert lad[-2] == (Yc + Pc) * (Yc + 2 * Pc) / Yc ** 4


@pytest.mark.parametrize("check, i, n, side", [
    (linear_relation_specialized_check, 3, -2, "lower"),
    (linear_relation_specialized_check, 3, 3, "upper"),
    (linear_relation_specialized_check, 4, -3, "lower"),
    (linear_relation_specialized_check, 4, 4, "upper"),
    (linear_relation_gprime_check, 3, -1, "lower"),
    (linear_relation_gprime_check, 3, 4, "upper"),
    (linear_relation_gprime_check, 4, -2, "lower"),
    (linear_relation_gprime_check, 4, 5, "upper"),
])
@pytest.mark.parametrize("perturb", [lambda k, Yc: 2 * k, lambda k, Yc: k * Yc])
def test_constant_ladder_boundary_values_fail_when_perturbed(monkeypatch, check, i, n, side, perturb):
    # ladder entry n enters the relation at one boundary only, so a perturbed
    # entry leaves the interior relations at zero and moves that boundary value
    honest = constant_ladder

    def perturbed(i_hi, i_lo):
        ladder = honest(i_hi, i_lo)
        ladder.j[n] = perturb(ladder.j[n], ladder.y1)
        return ladder

    assert check(i).passed
    monkeypatch.setattr(heaps, "constant_ladder", perturbed)
    with pytest.raises(VerificationError, match=f"{side} boundary"):
        check(i)


def test_hh_closed_forms():
    assert hh_closed_check(4, seed=9).passed


def test_ladder_stabilization():
    assert ladder_stabilization_check(5, seed=13).passed


def test_h_ladder_small():
    report = h_ladder(3)
    assert report.passed
    assert any("bi-ratios" in line for line in report.lines)
    assert h_ladder(1).lines == report.lines  # i_max no longer bounds the proof


def test_h_ladder_identities_on_factor_multisets_match_the_oracle(monkeypatch):
    """The eight identities hold on factor-multiset PolyFracs, each side is
    the value the cross-multiplying oracle builds, and the checks run fewer
    MPoly products than the oracle's cross-multiplied ones."""
    from test_ratfunc import CrossPolyFrac, same_value

    products = []
    real_mul = exactalg._key_mul

    def counted(p, q):
        products[-1] += 1
        return real_mul(p, q)

    def identities(cls):
        monkeypatch.setattr(closed_forms, "PolyFrac", cls)
        monkeypatch.setattr(heaps, "PolyFrac", cls)
        T = _tower.__wrapped__(LADDER_VARS)
        return _ladder_identities(T, *_ladder_forms(T))

    new, old = identities(heaps.PolyFrac), identities(CrossPolyFrac)
    monkeypatch.setattr(exactalg, "_key_mul", counted)
    for built in (new, old):
        products.append(0)
        assert all(lhs == rhs for _, lhs, rhs in built)
    for (name, lhs, rhs), (_, old_lhs, old_rhs) in zip(new, old):
        assert same_value(lhs, old_lhs) and same_value(rhs, old_rhs), name
        assert (lhs - rhs).is_zero(), name
    assert products[0] < products[1], products


def _ladder_mutants(T, L0, L1):
    """Closed forms with one factor doubled or one exponent moved."""
    a, y, one, Y1, d = T.a, T.y, T.one, T.Y1, T.d

    def l1_with(factor):
        return lambda k, U: Y1 * (one + d * y) * factor(k, U) / ((one - y) * (one + y) ** k)

    return {
        "L1 doubled": (L0, lambda k, U: 2 * L1(k, U)),
        "alpha y^(i+2) -> alpha y^(i+3) in L1": (L0, l1_with(lambda k, U: one - a * y ** (k + 3) * U)),
        "alpha y^(i+2) -> alpha y^(2i+2) in L1": (L0, l1_with(lambda k, U: one - a * y ** (2 * k + 2) * U ** 2)),
        "y^(i+1) -> y^(2i+1) in L0": (
            lambda k, U: (one - y ** (2 * k + 1) * U ** 2) / ((one - y) * (one + y) ** k), L1),
    }


def test_every_height_families_fail_under_perturbed_closed_forms():
    T = _tower(LADDER_VARS)
    L0, L1 = _ladder_forms(T)
    names = [name for name, lhs, rhs in _ladder_identities(T, L0, L1) if lhs == rhs]
    assert len(names) == 8
    failed = {}
    for mutant, (l0, l1) in _ladder_mutants(T, L0, L1).items():
        failed[mutant] = {name for name, lhs, rhs in _ladder_identities(T, l0, l1) if lhs != rhs}
    assert set().union(*failed.values()) == set(names)
    # the three-term recursions hold for any c1 + c2 y^i over (1 - y)(1 + y)^i,
    # so only a mutant quadratic in U = y^i breaks them
    assert not any("three-term" in name for name in failed["alpha y^(i+2) -> alpha y^(i+3) in L1"])
    assert "three-term recursion for L^(1)" in failed["alpha y^(i+2) -> alpha y^(2i+2) in L1"]
    assert "three-term recursion for L^(0)" in failed["y^(i+1) -> y^(2i+1) in L0"]


def test_h_ladder_fails_on_a_mutant_that_keeps_the_initial_values(monkeypatch):
    # times (1 + (U - 1) y): the same at height 0, where U = 1, so only the
    # every-height identities can see it
    honest_forms, honest_tie_out = heaps._ladder_forms, heaps._tie_out

    def mutant(T):
        L0, L1 = honest_forms(T)
        return L0, lambda k, U: L1(k, U) * (T.one + (U - T.one) * T.y)

    monkeypatch.setattr(heaps, "_ladder_forms", mutant)
    with pytest.raises(VerificationError, match="as an identity in U"):
        h_ladder(6)
    monkeypatch.setattr(heaps, "_ladder_forms", honest_forms)
    monkeypatch.setattr(heaps, "_tie_out", lambda step: honest_tie_out(lambda T: T.R ** 2 / T.Pw))
    with pytest.raises(VerificationError, match="rescaling definition"):
        h_ladder(6)


@pytest.mark.parametrize("step, holds", [
    (lambda T: T.R / T.Pw, True),
    (lambda T: T.R ** 2 / T.Pw, False),
    (lambda T: T.R / T.Pw ** 2, False),
    (lambda T: T.R * T.Y / (T.Pw * T.P), False),
    (lambda T: 1, False),
])
def test_rescaling_tie_out_fails_with_a_wrong_scale_exponent(step, holds):
    assert all(diff.is_zero() for diff in _tie_out(step)) == holds


def test_l0_value_at_two():
    """1 + w equals (1 + y + y^2)/(1 + y)^2 under the hard-piece weight."""
    y = RatFunc.gen("y")
    one = RatFunc.one("y")
    w = -one / (y + 1 / y + 2)
    assert one + w == (one + y + y ** 2) / (one + y) ** 2
