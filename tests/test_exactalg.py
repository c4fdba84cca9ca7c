"""Kernel tests: truncated polynomial ring laws, division-free determinants
against a Leibniz oracle, the canonical text form, and the packed
two-variable representation against the term-dict oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quadslice import exactalg, slice_solver

from quadslice.errors import NonInvertibleError, StructureError
from quadslice.exactalg import (
    BIVARS,
    MPoly,
    bipoly,
    bipoly_one,
    bipoly_to_text,
    bipoly_zero,
    det_division_free,
    tb,
    tw,
)
from quadslice.heaps import h_ladder
from quadslice.lattice_paths import PathSpec, symbol_table, z_context
from quadslice.ratfunc import Poly
from quadslice.series import RHO_RING, Series


def leibniz_det(rows):
    """Independent determinant oracle: permutation expansion."""
    n = len(rows)
    total = None
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        term = prod if sign == 1 else -prod
        total = term if total is None else total + term
    return total


def random_bipoly(rng, cap, max_coeff=5):
    terms = {}
    for a in range(cap + 1):
        for b in range(cap + 1 - a):
            if rng.random() < 0.4:
                terms[(a, b)] = Fraction(rng.randint(-max_coeff, max_coeff))
    return bipoly(terms, cap)


def test_add_examples():
    N = 3
    assert (1 + tb(N)) + (1 + tw(N)) == bipoly({(0, 0): 2, (1, 0): 1, (0, 1): 1}, N)
    p = random_bipoly(random.Random(1), N)
    assert p + bipoly_zero(N) == p
    top = tb(N) ** N + tw(N) ** N
    assert top == bipoly({(N, 0): 1, (0, N): 1}, N)


def test_mul_examples():
    N = 4
    assert (1 + tb(N)) * (1 + tw(N)) == bipoly(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}, N
    )
    assert (tb(N) ** N) * tw(N) == bipoly_zero(N)
    geom = sum((tb(N) ** k for k in range(1, N + 1)), bipoly_one(N))
    assert (1 - tb(N)) * geom == bipoly_one(N)


def test_inv_examples():
    N = 3
    inv = (1 - tb(N)).inv()
    assert inv == sum((tb(N) ** k for k in range(1, N + 1)), bipoly_one(N))
    assert bipoly_one(N).inv() == bipoly_one(N)
    assert bipoly({(0, 0): 2}, N).inv() == bipoly({(0, 0): Fraction(1, 2)}, N)
    with pytest.raises(NonInvertibleError):
        tb(N).inv()


def test_cap_mismatch_is_structural():
    with pytest.raises(StructureError):
        tb(3) + tb(4)
    with pytest.raises(StructureError):
        tb(3) * tw(4)


def test_ring_laws_randomized():
    rng = random.Random(42)
    N = 6
    for _ in range(30):
        a, b, c = (random_bipoly(rng, N) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_inv_two_sided_on_random_units():
    rng = random.Random(7)
    N = 4
    one = bipoly_one(N)
    for _ in range(100):
        p = random_bipoly(rng, N) + 1 - random_bipoly(rng, N).constant_term()
        if p.constant_term() == 0:
            continue
        q = p.inv()
        assert p * q == one and q * p == one


def test_malformed_exponents_are_structural():
    # a negative, missing, fractional or oversized exponent would alias
    # another slot of the packing or another field of a key
    for terms in ({(-1, 1): 1}, {(1,): 2}, {(0, 0, 1): 3}, {(1.5, 0): 1}, {(1, 1.0): 1},
                  {(Fraction(1), 0): 1}, {(1 << exactalg._B, 0): 1}):
        for vars, cap in ((BIVARS, 3), (BIVARS, None), (("x", "y"), 5)):
            with pytest.raises(StructureError):
                MPoly(vars, terms, cap)
    with pytest.raises(StructureError):
        bipoly({(-1, 1): 1}, 3)
    for vars in (BIVARS, ("x",), "xyz"):
        for cap in (-1, 1.5, "3", Fraction(3)):
            with pytest.raises(StructureError):
                MPoly(vars, {}, cap)
            with pytest.raises(StructureError):
                MPoly.gen(vars, vars[0], 3).with_cap(cap)


def berkowitz_det(rows):
    """Differential oracle: the Berkowitz recurrence as the package ran it
    before it returned the leading minors, one determinant per call from
    the full characteristic polynomial (leading 1 included) of each
    leading block."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    one, zero = exactalg._ring_one_of(rows[0][0]), exactalg._ring_zero_of(rows[0][0])
    poly = [one, -rows[0][0]]
    for k in range(1, n):
        a, row = rows[k][k], rows[k][:k]
        sub = [r[:k] for r in rows[:k]]
        items, vec = [], [rows[i][k] for i in range(k)]
        for _ in range(k):
            items.append(sum((x * y for x, y in zip(row, vec)), zero))
            vec = [sum((x * y for x, y in zip(r, vec)), zero) for r in sub]
        first = [one, -a] + [-it for it in items]
        poly = [
            sum((first[i - j] * poly[j] for j in range(max(0, i - len(first) + 1), min(i, len(poly) - 1) + 1)), zero)
            for i in range(k + 2)
        ]
    return poly[-1] if n % 2 == 0 else -poly[-1]


def leading_minors(rows):
    """Every leading principal minor by Leibniz."""
    return [leibniz_det([r[:k] for r in rows[:k]]) for k in range(1, len(rows) + 1)]


def test_det_trivial_examples():
    a = tb(3)
    assert det_division_free([[a]]) == [a]
    j0, j1, j2 = (bipoly({(k, 0): 1}, 4) for k in range(3))
    assert det_division_free([[j0, j1], [j1, j2]]) == [j0, j0 * j2 - j1 * j1]
    one, zero = Fraction(1), Fraction(0)
    eye3 = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert det_division_free(eye3) == [one] * 3
    assert det_division_free([]) == []


def singular_leading_block(rows, k):
    """rows whose leading k-block is singular and the rest as it was: the
    block's last row repeats its first, or for k = 1 its entry is zero."""
    out = [list(r) for r in rows]
    out[k - 1][:k] = [x - x for x in out[0][:1]] if k == 1 else out[0][:k]
    return out


def check_leading_minors(rows):
    want = leading_minors(rows)
    assert det_division_free(rows) == want
    assert berkowitz_det(rows) == want[-1]


def test_det_matches_leibniz_rationals():
    rng = random.Random(3)
    for size in range(1, 6):
        for _ in range(8):
            rows = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(size)]
                for _ in range(size)
            ]
            check_leading_minors(rows)
            for k in range(1, size + 1):
                singular = singular_leading_block(rows, k)
                assert det_division_free(singular)[k - 1] == 0
                check_leading_minors(singular)


def test_det_matches_leibniz_truncated_ring():
    rng = random.Random(11)
    for size in range(1, 6):
        rows = [[random_bipoly(rng, 4, 3) for _ in range(size)] for _ in range(size)]
        check_leading_minors(rows)
        singular = singular_leading_block(rows, min(2, size))
        assert det_division_free(singular)[min(1, size - 1)].is_zero()
        check_leading_minors(singular)


def random_rho_series(rng, cap):
    rows = [Poly("rho", [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]) for _ in range(cap + 1)]
    return Series("tau", cap, rows, RHO_RING)


def test_det_matches_leibniz_packed_series():
    rng = random.Random(5)
    for size in range(1, 6):
        rows = [[random_rho_series(rng, 3) for _ in range(size)] for _ in range(size)]
        check_leading_minors(rows)
        singular = singular_leading_block(rows, max(1, size - 1))
        assert det_division_free(singular)[max(0, size - 2)].is_zero()
        check_leading_minors(singular)


def test_determinant_matches_the_full_polynomial_oracle():
    # above the sizes Leibniz can afford, the old recurrence is the oracle
    rng = random.Random(17)
    for size in (6, 7):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)] for _ in range(size)]
        minors = det_division_free(rows)
        assert minors == [berkowitz_det([r[:k] for r in rows[:k]]) for k in range(1, size + 1)]
        rows = [[random_rho_series(rng, 2) for _ in range(size)] for _ in range(size)]
        assert det_division_free(rows)[-1] == berkowitz_det(rows)


def test_det_rejects_non_square():
    with pytest.raises(StructureError):
        det_division_free([[Fraction(1), Fraction(2)]])


def test_swap_symmetry_helper():
    p = bipoly({(2, 1): 3, (0, 2): -1}, 4)
    assert p.swap() == bipoly({(1, 2): 3, (2, 0): -1}, 4)
    assert p.swap().swap() == p


@pytest.mark.parametrize("value", [MPoly.gen("x", "x"), MPoly.const((), 3), MPoly.zero(("x",), 2)])
def test_swap_needs_two_variables(value):
    with pytest.raises(StructureError, match=r"first two variables, but the variables are \((('x',)|)\)"):
        value.swap()


def test_canonical_text_sorts_the_exponents():
    p = bipoly({(0, 1): Fraction(1), (2, 0): Fraction(-3, 2), (1, 1): 4}, 4)
    assert bipoly_to_text(p).splitlines() == ["0 1 1/1", "1 1 4/1", "2 0 -3/2"]


def test_canonical_text_golden():
    from quadslice.slice_solver import f_n

    assert bipoly_to_text(f_n(1, 2)) == "0 1 1/1\n0 2 1/1\n1 1 1/1"


# ------------------------------------------- packed product against the oracle


def dict_product(p, q):
    """The schoolbook product over the term dicts, kept as the oracle."""
    cap = p.cap
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            if cap is not None and sum(ea) + sum(eb) > cap:
                continue
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return MPoly(p.vars, out, cap)


def exact_form(p):
    """cap plus every term with its coefficient's type: ints stay ints."""
    return p.cap, sorted((e, type(c).__name__, c) for e, c in p.terms.items())


coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 10**22)),
)


@st.composite
def capped_operands(draw):
    cap = draw(st.integers(0, 9))
    slots = [(a, b) for a in range(cap + 1) for b in range(cap + 1 - a)]

    def operand():
        shape = draw(st.sampled_from(["sparse", "dense", "constant"]))
        if shape == "dense":
            keys = slots
        elif shape == "constant":
            keys = [(0, 0)]
        else:
            keys = draw(st.lists(st.sampled_from(slots), max_size=6, unique=True))
        return MPoly(BIVARS, {e: draw(coefficients) for e in keys}, cap)

    return operand(), operand()


@settings(max_examples=300, deadline=None, database=None)
@given(capped_operands())
@example((MPoly(BIVARS, {}, 0), MPoly(BIVARS, {(0, 0): 5}, 0)))
@example((MPoly(BIVARS, {(0, 0): -(2**80)}, 0), MPoly(BIVARS, {(0, 0): 2**80 + 1}, 0)))
@example((MPoly(BIVARS, {(3, 0): Fraction(-1, 3)}, 3), MPoly(BIVARS, {(0, 3): 3}, 3)))
@example((MPoly(BIVARS, {(a, b): -(2**70) for a in range(10) for b in range(10 - a)}, 9),) * 2)
def test_packed_product_matches_dict_oracle(operands):
    p, q = operands
    want = exact_form(dict_product(p, q))
    assert exact_form(p * q) == want
    assert exact_form(q * p) == want


def test_packed_product_uneven_operands():
    N = 12
    dense = MPoly(BIVARS, {(a, b): (-1) ** a * (a + 1) * 2**65 + b
                           for a in range(N + 1) for b in range(N + 1 - a)}, N)
    for small in (tb(N), -tw(N) * Fraction(1, 7), bipoly({(N, 0): -1}, N),
                  bipoly({(0, 0): Fraction(-3, 2)}, N), bipoly_zero(N)):
        assert exact_form(dense * small) == exact_form(dict_product(dense, small))
        assert exact_form(small * dense) == exact_form(dict_product(small, dense))


def test_other_products_match_dict_oracle():
    # uncapped many-variable symbols, and a capped ring with three variables
    table, names = symbol_table("context", 4)
    a = table.a(1) + table.b(2) * table.a(3) - 2 * table.b(4)
    b = table.b(1) * table.b(1) - Fraction(1, 3) * table.a(2) + 1
    assert a.cap is None and len(names) > 2
    assert exact_form(a * b) == exact_form(dict_product(a, b))
    assert exact_form((a * b) * a) == exact_form(dict_product(dict_product(a, b), a))
    x, y, z = (MPoly.gen("xyz", v, 3) for v in "xyz")
    c = x + y * z - 4 * z * z
    d = c + Fraction(5, 2) * x * y
    assert exact_form(c * d) == exact_form(dict_product(c, d))


# ------------------------------------- packed values against the dict oracle
#
# The oracle keeps a capped two-variable value as (cap, {(a, b): coeff}) and
# runs every operation over the dicts, with dict_product as its product.


def oracle(p):
    return p.cap, dict(p.terms)


def oracle_clean(cap, terms):
    out = {}
    for e, c in terms.items():
        c = Fraction(c)
        if c and sum(e) <= cap:
            out[e] = int(c) if c.denominator == 1 else c
    return cap, out


def oracle_add(x, y, sign=1):
    out = dict(x[1])
    for e, c in y[1].items():
        out[e] = out.get(e, 0) + sign * c
    return oracle_clean(x[0], out)


def oracle_mul(x, y):
    product = dict_product(MPoly(BIVARS, x[1], x[0]), MPoly(BIVARS, y[1], y[0]))
    return oracle_clean(x[0], product.terms)


def oracle_inv(x):
    """The geometric series of the inverse, over the dicts."""
    cap, terms = x
    c0 = Fraction(terms.get((0, 0), 0))
    u = oracle_add((cap, {(0, 0): 1}), oracle_clean(cap, {e: c / c0 for e, c in terms.items()}), -1)
    out = power = (cap, {(0, 0): 1})
    for _ in range(cap):
        power = oracle_mul(power, u)
        out = oracle_add(out, power)
    return oracle_clean(cap, {e: c / c0 for e, c in out[1].items()})


def oracle_form(x):
    return x[0], sorted((e, type(c).__name__, c) for e, c in x[1].items())


wide_coefficients = st.one_of(
    coefficients,
    st.integers(-(2**200), 2**200),
    st.builds(Fraction, st.integers(-(2**200), 2**200), st.sampled_from([1, 2, 3, 6, 7, 2**65])),
)


@st.composite
def capped_value(draw, cap):
    slots = [(a, b) for a in range(cap + 1) for b in range(cap + 1 - a)]
    shape = draw(st.sampled_from(["zero", "constant", "sparse", "dense", "near 2^70"]))
    if shape == "zero":
        terms = {}
    elif shape == "constant":
        terms = {(0, 0): draw(wide_coefficients)}
    elif shape == "near 2^70":
        terms = {e: 2**70 - draw(st.integers(0, 2**20)) for e in slots}
    else:
        keys = slots if shape == "dense" else draw(st.lists(st.sampled_from(slots), max_size=6, unique=True))
        terms = {e: draw(wide_coefficients) for e in keys}
    return MPoly(BIVARS, terms, cap)


OPS = ("add", "sub", "neg", "mul", "square", "cap down", "cap up", "swap", "inv", "eq", "constant")


@st.composite
def op_chains(draw):
    cap = draw(st.integers(0, 11))
    values = draw(st.lists(capped_value(cap), min_size=1, max_size=3))
    steps = draw(st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 99), st.integers(0, 99),
                                    st.integers(0, 12)), max_size=10))
    return cap, values, steps


def exact_fit(p):
    """The smallest m with every numerator over p's denominator in [-2^(m-1), 2^(m-1))."""
    nums = [int(c * p._den) for c in p.terms.values()]
    return max(((c if c >= 0 else ~c).bit_length() + 1 for c in nums), default=0)


def check_same(p, x, product=False):
    """p equals the oracle's x, and its packing keeps its invariants: the
    recorded fit bounds the slots (exactly, after a product) and fits the width."""
    assert exact_form(p) == oracle_form(x)
    assert not any(type(c) is Fraction and c.denominator == 1 for c in p.terms.values())
    assert exact_fit(p) <= p._fit <= p._width and p._width % 8 == 0
    if product:
        assert p._fit == exact_fit(p)


@settings(max_examples=150, deadline=None, database=None)
@given(op_chains())
@example((2, [MPoly(BIVARS, {(1, 0): -1, (0, 1): -4}, 2)], [("neg", 0, 0, 0), ("mul", 1, 1, 0)]))
@example((0, [MPoly(BIVARS, {}, 0), MPoly(BIVARS, {(0, 0): Fraction(-3, 2**65)}, 0)],
          [("add", 0, 1, 0), ("inv", 1, 0, 0), ("mul", 1, 3, 0), ("eq", 4, 0, 0), ("cap up", 4, 0, 3)]))
def test_packed_chains_match_dict_oracle(chain):
    cap, values, steps = chain
    pool = [(p, oracle(p)) for p in values]
    for op, i, j, k in steps:
        (p, x), (q, y) = pool[i % len(pool)], pool[j % len(pool)]
        if op == "add":
            p, x = p + q, oracle_add(x, y)
        elif op == "sub":
            p, x = p - q, oracle_add(x, y, -1)
        elif op == "neg":
            p, x = -p, oracle_clean(cap, {e: -c for e, c in x[1].items()})
        elif op == "mul":
            p, x = p * q, oracle_mul(x, y)
        elif op == "square":
            p, x = p * p, oracle_mul(x, x)
        elif op in ("cap down", "cap up"):
            other = k % (cap + 1) if op == "cap down" else cap + 1 + k
            cut = p.with_cap(other)
            check_same(cut, oracle_clean(other, x[1]))
            p, x = cut.with_cap(cap), oracle_clean(min(cap, other), x[1])
            x = (cap, x[1])
        elif op == "swap":
            p, x = p.swap(), (cap, {(b, a): c for (a, b), c in x[1].items()})
        elif op == "inv":
            if not x[1].get((0, 0)):
                continue
            p, x = p.inv(), oracle_inv(x)
        elif op == "constant":
            fresh = -p  # packed and not decoded, unless p is zero
            decoded = fresh._terms is not None
            for value, want in ((p, x[1].get((0, 0), 0)), (fresh, -x[1].get((0, 0), 0))):
                got = value.constant_term()
                assert type(got) is Fraction and got == want
            assert decoded or fresh._terms is None
            continue
        else:
            assert (p == q) == (oracle_form(x) == oracle_form(y))
            rebuilt = (p + q) - q
            assert rebuilt == p and hash(rebuilt) == hash(p)
            if p == q:
                assert hash(p) == hash(q)
            continue
        check_same(p, x, product=op in ("mul", "square"))
        pool.append((p, x))


def test_product_wider_than_either_operand():
    N = 11
    near = MPoly(BIVARS, {(a, b): 2**70 - 3 * a - b for a in range(N + 1) for b in range(N + 1 - a)}, N)
    other = MPoly(BIVARS, {(a, b): -(2**70) + a for a in range(N + 1) for b in range(N + 1 - a)}, N)
    for p, q in ((near, other), (near, near), (other * near, near), (near + other, near - other)):
        check_same(p * q, oracle(dict_product(p, q)), product=True)


def oracle_solve(monkeypatch, solver, N):
    """``solver(N)`` solved afresh with every MPoly product -- those of its
    confirming sweep, the rows being int products -- taken over the dicts."""
    def product(p, q):
        return dict_product(p, p._coerce(q))

    solver.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(MPoly, "__mul__", product)
            patch.setattr(MPoly, "__rmul__", product)
            return solver(N)
    finally:
        solver.cache_clear()


@pytest.mark.parametrize("name", ["solve_bw", "solve_pq", "solve_limit"])
def test_solvers_match_dict_oracle_products(monkeypatch, name):
    solver = getattr(slice_solver, name)
    want = oracle_solve(monkeypatch, solver, 12)
    got = solver(12)
    if name == "solve_limit":
        assert (got.first, got.second) == (want.first, want.second)
    else:
        assert got.i_max == want.i_max
        assert got.first == want.first and got.second == want.second


def test_equal_values_hash_equal_across_representations():
    cap = 5  # stride 8; its with_cap source at cap 9 has stride 16
    a = bipoly({(1, 0): Fraction(1, 2), (0, 1): 3, (2, 1): Fraction(-5, 6)}, cap + 4)
    b = bipoly({(0, 0): 2, (1, 0): -1, (0, 2): 2**70, (1, 1): Fraction(2, 3)}, cap + 4)
    want = dict_product(a, b).with_cap(cap).terms
    built = [
        a.with_cap(cap) * b.with_cap(cap),  # packed product
        MPoly(BIVARS, want, cap),
        (a * b).with_cap(cap),
        bipoly(want, cap),  # Fraction coefficients
    ]
    assert bipoly_to_text(built[0]).splitlines() == [
        "0 1 6/1", "0 3 3541774862152233910272/1", "1 0 1/1", "1 1 -3/1", "1 2 590295810358705651714/1",
        "2 0 -1/2", "2 1 -4/3", "2 3 -2951479051793528258560/3", "3 1 5/6", "3 2 -5/9"]
    for p in built:
        assert p == built[0] and hash(p) == hash(built[0])
        assert p.terms == want
        assert all(type(c) is int or c.denominator != 1 for c in p.terms.values())
    # a product whose denominators cancel comes back integral
    whole = bipoly({(1, 0): Fraction(1, 2)}, cap) * bipoly({(0, 1): 2}, cap)
    assert whole.terms == {(1, 1): 1} and type(whole.terms[(1, 1)]) is int
    assert hash(whole) == hash(tb(cap) * tw(cap))


# -------------------------------------------- keyed values against the oracle
#
# Uncapped values, and capped ones in other than two variables, hold their
# terms under packed exponent keys; the oracle is their decoded term dicts,
# with dict_product as the product.


def oracle_sum(p, q, sign=1):
    """exact_form of p + sign q, over the term dicts."""
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, 0) + sign * c
    return exact_form(MPoly(p.vars, out, p.cap))


def check_keyed(p):
    """p is keyed, its bound covers every term, and its coefficients are
    nonzero and normalised."""
    assert p._num is None
    assert all(sum(e) <= p._bound for e in p.terms)
    assert all(c and (type(c) is int or c.denominator != 1) for c in p.terms.values())


@st.composite
def keyed_operands(draw):
    n = draw(st.sampled_from([1, 3, 24]))
    cap = draw(st.one_of(st.none(), st.integers(0, 6)))
    vars = tuple(f"x{i}" for i in range(n))
    exponent = st.dictionaries(st.integers(0, n - 1), st.integers(1, 4), max_size=3).map(
        lambda e: tuple(e.get(i, 0) for i in range(n)))

    def operand():
        shape = draw(st.sampled_from(["zero", "constant", "single", "sparse"]))
        if shape == "zero":
            return MPoly(vars, {}, cap)
        if shape == "constant":
            keys = [(0,) * n]
        else:
            keys = draw(st.lists(exponent, min_size=1, max_size=1 if shape == "single" else 6, unique=True))
        return MPoly(vars, {e: draw(coefficients) for e in keys}, cap)

    p = operand()
    # the negative of p makes every sum with it cancel to zero
    return p, -p if draw(st.booleans()) else operand()


@settings(max_examples=300, deadline=None, database=None)
@given(keyed_operands())
@example((MPoly("x", {(3,): 2**70}), MPoly("x", {(0,): Fraction(1, 3), (2,): -(2**70)})))
@example((MPoly("xyz", {(0, 0, 0): 2, (1, 0, 0): Fraction(-1, 2), (0, 2, 1): 3}, 3),) * 2)
@example((MPoly("xyz", {(0, 0, 0): 1, (0, 0, 1): -1}, 0), MPoly("xyz", {(1, 0, 0): 5}, 6)))
def test_keyed_ops_match_dict_oracle(operands):
    p, q = operands
    if p.cap != q.cap:  # a mixed pair is refused, as for every layout
        with pytest.raises(StructureError):
            p * q
        return
    zero, one = p.ring_zero(), p.ring_one()
    want = exact_form(dict_product(p, q))
    for got in (p * q, q * p, p + q, q + p, p - q, -p):
        check_keyed(got)
    assert exact_form(p * q) == want and exact_form(q * p) == want
    assert exact_form(p + q) == oracle_sum(p, q) == exact_form(q + p)
    assert exact_form(p - q) == oracle_sum(p, q, -1)
    assert exact_form(-p) == exact_form(MPoly(p.vars, {e: -c for e, c in p.terms.items()}, p.cap))
    assert (p - p).is_zero() and p + (-p) == zero and exact_form(p - p) == exact_form(zero)
    assert (p == q) == (exact_form(p) == exact_form(q))
    for value in (p, p * q, (p + q) - q):
        rebuilt = MPoly(p.vars, value.terms, p.cap)
        assert rebuilt == value and hash(rebuilt) == hash(value)
    assert (p + q) - q == p and hash((p + q) - q) == hash(p)
    c0 = p.constant_term()
    assert type(c0) is Fraction and c0 == p.terms.get((0,) * len(p.vars), 0)
    if c0 == 0 or (p.cap is None and len(p.terms) > 1):
        with pytest.raises(NonInvertibleError):
            p.inv()
    else:
        inverse = p.inv()
        check_keyed(inverse)
        assert exact_form(dict_product(p, inverse)) == exact_form(one) == exact_form(inverse * p)


def test_product_bound_refuses_a_field_carry():
    top = (1 << exactalg._B) - 1  # the largest exponent a field holds
    for vars in ("x", "xyz"):
        x = MPoly.gen(vars, "x")
        high = MPoly(vars, {(top,) + (0,) * (len(vars) - 1): 1})
        assert high.terms == {(top,) + (0,) * (len(vars) - 1): 1}
        for a, b in ((high, x), (x, high), (high, high)):
            with pytest.raises(StructureError):
                a * b


def test_keys_decode_only_when_terms_are_read(monkeypatch):
    decoded = []

    def counted(keys, n, _decode=exactalg._exponents):
        decoded.append(n)
        return _decode(keys, n)

    monkeypatch.setattr(exactalg, "_exponents", counted)
    assert h_ladder(6).passed
    z = z_context(PathSpec(11, 0), symbol_table("context", 11)[0])
    assert decoded == []
    assert sum(z.terms.values()) == 58786  # C_11: every Dyck path of half-length 11
    assert sum(z.terms.values()) == 58786 and decoded == [22]  # decoded once, then cached


# ------------------------------------------ values over unreduced denominators
#
# A packed value is its integer over a denominator that is never reduced;
# equality, the hash and every coefficient read must not see the difference.


def test_a_value_over_two_denominators_reads_and_hashes_alike():
    half = (tb(3) * Fraction(1, 2) + 1).with_cap(0)  # the cut leaves 2 / 2
    one = bipoly_one(0)
    assert (half._den, one._den) == (2, 1)
    assert half == one and one == half and hash(half) == hash(one)
    assert half.terms == one.terms == {(0, 0): 1} and type(half.terms[(0, 0)]) is int
    assert half.constant_term() == one.constant_term() == 1
    assert half != 2 * one and half != bipoly_zero(0) and (half - one).is_zero()


# ----------------------------------------- products by a constant operand
#
# A packed operand whose numerator fits slot 0 is a constant, and its product
# is one integer multiply of the other numerator.  The oracle is the general
# Kronecker product every pair of operands took before.


def general_product(a, b):
    """``exactalg._product`` without its constant branch."""
    c, exc = a.cap, a._exc + b._exc
    deg = min(a._deg + b._deg, c + exc)
    if not a._num or not b._num or deg < 0:
        return exactalg._packed(a._blank(), c, 0, 1, 1, 8, 0, -1, -1 - c)
    stride = max(deg + 1, a._stride, b._stride)
    bits = (exactalg._pairs(c, min(a._deg, b._deg), a._exc, b._exc) << (a._fit + b._fit - 2)).bit_length() + 1
    width, n = exactalg._bytes_width(bits), (c + 1) * stride
    num = exactalg._truncate(exactalg._laid(a, stride, width) * exactalg._laid(b, stride, width), n * width)
    return exactalg._packed(a._blank(), c, num, a._den * b._den, stride, width, exactalg._fit(num, width, n, bits),
                            deg, exc)


constants = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**90), 2**90),
    st.builds(Fraction, st.integers(-(2**90), 2**90), st.integers(1, 10**22)),
)


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, 11).flatmap(lambda cap: st.tuples(capped_value(cap), constants)))
@example((MPoly(BIVARS, {(1, 0): 3, (0, 2): -(2**63)}, 2), 0))
@example((MPoly(BIVARS, {(a, b): -(2**70) for a in range(5) for b in range(5 - a)}, 4), -(2**70)))
@example((MPoly(BIVARS, {(2, 1): Fraction(7, 6)}, 3), Fraction(-12, 7)))
def test_constant_products_match_the_general_product(drawn):
    p, k = drawn
    K = MPoly.const(BIVARS, k, p.cap)
    loose = (p + K) - p  # K again, with the degree and excess bounds of p
    want = exact_form(general_product(p, K))
    assert exact_form(general_product(K, p)) == want
    for const in (K, loose):
        for got in (exactalg._product(p, const), exactalg._product(const, p)):
            assert exact_form(got) == want
            assert exact_fit(got) == got._fit <= got._width
    for got in (p * k, k * p, p * K, K * p):
        assert exact_form(got) == want


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_series_constant_products_match_the_general_product(data):
    cap = data.draw(st.integers(0, 8))
    rows = [Poly("rho", data.draw(st.lists(wide_coefficients, max_size=5))) for _ in range(cap + 1)]
    s = Series("tau", cap, rows, RHO_RING).shift(data.draw(st.integers(0, 2)))
    k = data.draw(constants)
    K = Series.const("tau", s.cap, RHO_RING.one * k, RHO_RING)
    want = general_product(s, K)
    assert want.coeffs == tuple(c * k for c in s.coeffs)
    for got in (s * k, k * s, s * K, K * s, exactalg._product(K, s)):
        assert got.coeffs == want.coeffs and got == want
        nums = [int(c * got._den) for row in got.coeffs for c in row.coeffs]
        assert got._fit == max((exactalg._bits(c) for c in nums), default=0)
