"""Weighted lattice path generating functions against a brute-force oracle."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadslice.errors import StructureError
from quadslice.exactalg import _ring_one_of, _ring_zero_of
from quadslice.lattice_paths import (
    PathSpec,
    WeightTable,
    path_sums,
    symbol_table,
    z_bicolored,
    z_const,
    z_context,
    z_elongated,
)
from quadslice.slice_solver import solve_bw, solve_limit, solve_pq, solve_y


def brute_paths(n, d, k, weight_of_descent, one):
    """Oracle: enumerate every +-1 step word of length 2n explicitly."""
    total = None
    for steps in itertools.product((+1, -1), repeat=2 * n):
        if k and any(s != -1 for s in steps[2 * n - k :]):
            continue
        h = d
        ok = True
        weights = []
        last = 0
        for s in steps:
            if s == -1:
                if h - 1 < d:
                    ok = False
                    break
                weights.append((h, last))
                h -= 1
            else:
                h += 1
            last = s
        if not ok or h != d:
            continue
        prod = one
        for h_from, last_dir in weights:
            prod = prod * weight_of_descent(h_from, last_dir)
        total = prod if total is None else total + prod
    return total if total is not None else one * 0


def brute_elongated(n, table, one):
    """Oracle for the flat-step variant: words over U, D, L (L of length 2)."""
    total = one * 0
    n2 = 2 * n

    def rec(pos, h, acc):
        nonlocal total
        if pos == n2:
            if h == 0:
                total = total + acc
            return
        if pos + 1 <= n2:
            rec(pos + 1, h + 1, acc)
            if h > 0:
                rec(pos + 1, h - 1, acc * table.a(2 * h))
        if pos + 2 <= n2:
            rec(pos + 2, h, acc * table.a(2 * h + 1))

    rec(0, 0, one)
    return total


def layered_elongated(spec, table):
    """z_elongated's own layered loop from before it ran on the shared path
    DP: position t -> {height: value}, flat steps advance t by 2."""
    n2, k = 2 * spec.n, spec.k
    one = _ring_one_of(table.an_element())
    if spec.n == 0:
        return one
    zero = _ring_zero_of(one)
    layers = [dict() for _ in range(n2 + 1)]
    layers[0][0] = one
    for t in range(n2):
        for h, val in layers[t].items():
            if h > n2 - t:
                continue
            if t + 1 <= n2 - k and h + 1 <= spec.n:
                layers[t + 1][h + 1] = layers[t + 1].get(h + 1, zero) + val
            if h > 0:
                layers[t + 1][h - 1] = layers[t + 1].get(h - 1, zero) + val * table.a(2 * h)
            if t + 2 <= n2 - k:
                layers[t + 2][h] = layers[t + 2].get(h, zero) + val * table.a(2 * h + 1)
    return layers[n2].get(0, zero)


def per_length_dp(spec, table):
    """The path DP as it ran before one pass served every length: one run
    of 2n steps from position 0 for this (n, d, k) alone, where an ascent or
    flat step must end by position 2n - k.  Kept as the differential oracle
    for ``path_sums``."""
    n2, d, k = 2 * spec.n, spec.d, spec.k
    one = _ring_one_of(table.an_element())
    zero = _ring_zero_of(one)
    by_last = table.kind == "context"
    flat = (lambda h: table.a(2 * h + 1)) if table.kind == "elongated" else None
    if table.kind == "bicolored":
        def descent(h, _last):
            return table.a(h) if (h - d) % 2 == 0 else table.b(h)
    elif by_last:
        def descent(h, last):
            return table.b(h) if last >= 0 else table.a(h)
    else:
        def descent(h, _last):
            return table.a(2 * h)
    up, down = (+1, -1) if by_last else (0, 0)
    layers = [{(d, 0): one}] + [{} for _ in range(n2)]

    def put(t, key, val):
        layers[t][key] = layers[t].get(key, zero) + val

    for t in range(n2):
        for (h, last), val in layers[t].items():
            if h - d > n2 - t:
                continue
            if t + 1 <= n2 - k and h + 1 <= d + spec.n:
                put(t + 1, (h + 1, up), val)
            if h > d:
                put(t + 1, (h - 1, down), val * descent(h, last))
            if flat is not None and t + 2 <= n2 - k:
                put(t + 2, (h, 0), val * flat(h))
    total = zero
    for (h, _last), val in layers[n2].items():
        if h == d:
            total = total + val
    return total


SOLVERS = {"bw": solve_bw, "pq": solve_pq, "y": solve_y}


@pytest.mark.parametrize("source", ["bw@7", "pq@7", "y@7", "bw@12", "pq@12", "y@12",
                                    "bicolored", "context", "elongated"])
def test_one_pass_matches_the_per_length_dp(source):
    # solver tables at caps 7 and 12, and symbol tables, of each weighting
    kind, _, cap = source.partition("@")
    table = SOLVERS[kind](int(cap)).weight_table() if cap else symbol_table(kind, 9)[0]
    elongated = table.kind == "elongated"
    for d in [0] if elongated else range(0, 5):
        # the longest pass the table's heights hold: a descent from height
        # d + n reads index d + n, an elongated flat step at n index 2n + 1
        n = min(5, (len(table.first) - 2) // 2 if elongated else len(table.first) - 1 - d)
        ks = (0, 1, 2, 3)
        passes = path_sums(table, n, d, ks)
        for k, sums in zip(ks, passes):
            assert len(sums) == n + 1
            for m in range(n + 1):
                want = per_length_dp(PathSpec(m, d, k), table) if k <= 2 * m else _ring_zero_of(sums[0])
                assert sums[m] == want, (d, k, m)
        for k in ks:  # one count at a time, and the single-length views
            assert path_sums(table, n, d, (k,))[0] == passes[k], (d, k)
        z = {"bicolored": z_bicolored, "context": z_context, "elongated": z_elongated}[table.kind]
        for k in ks:
            if k <= 2 * n:
                assert z(PathSpec(n, d, k), table) == passes[k][n], (d, k)


class CountingTable(WeightTable):
    """A weight table that counts its weight reads."""

    __slots__ = ("reads",)

    def a(self, idx):
        self.reads += 1
        return WeightTable.a(self, idx)

    def b(self, idx):
        self.reads += 1
        return WeightTable.b(self, idx)


@pytest.mark.parametrize("kind", ["bicolored", "context", "elongated"])
def test_one_pass_reads_no_weight_the_per_length_dp_skips(kind):
    # with no forced descents every read is a step weight of the last
    # length's pass, so the pruning at h - d > 2n - t must stay
    symbols = symbol_table(kind, 9)[0]
    table = CountingTable(kind, symbols.first, symbols.second)
    for d in [0] if kind == "elongated" else [0, 3]:
        for n in (3, 6):
            table.reads = 0
            path_sums(table, n, d)
            one_pass = table.reads
            table.reads = 0
            per_length_dp(PathSpec(n, d), table)
            assert one_pass == table.reads, (d, n)


rational_elongated = st.lists(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)), min_size=13, max_size=13
).map(lambda ys: WeightTable("elongated", [None] + ys))
solver_elongated = st.integers(4, 5).map(lambda cap: solve_y(cap).weight_table())


@settings(max_examples=40, deadline=None, database=None)
@given(table=st.one_of(rational_elongated, solver_elongated))
def test_elongated_matches_its_layered_loop(table):
    for n in range(0, 7):
        for k in range(0, 2 * n + 1):
            spec = PathSpec(n, 0, k)
            assert z_elongated(spec, table) == layered_elongated(spec, table), (n, k)


@pytest.fixture(scope="module")
def symbolic_bw():
    return symbol_table("bicolored", 9)


@pytest.fixture(scope="module")
def symbolic_pq():
    return symbol_table("context", 9)


def test_bicolored_small_examples(symbolic_bw):
    table, names = symbolic_bw
    one = table.a(1).ring_one()
    assert z_bicolored(PathSpec(0, 0), table) == one
    W1 = table.b(1)
    assert z_bicolored(PathSpec(1, 0), table) == W1
    B2 = table.a(2)
    assert z_bicolored(PathSpec(2, 0), table) == W1 * W1 + B2 * W1


def test_context_small_examples(symbolic_pq):
    table, _ = symbolic_pq
    Q1, Q2, P1 = table.b(1), table.b(2), table.a(1)
    assert z_context(PathSpec(1, 0), table) == Q1
    assert z_context(PathSpec(2, 0), table) == Q1 * Q1 + Q2 * P1
    assert z_context(PathSpec(2, 0, k=2), table) == Q2 * P1


def test_elongated_small_example():
    table, _ = symbol_table("elongated", 4)
    one = table.a(1).ring_one()
    assert z_elongated(PathSpec(0, 0), table) == one
    assert z_elongated(PathSpec(1, 0), table) == table.a(1) + table.a(2)
    with pytest.raises(StructureError):
        z_elongated(PathSpec(1, 1), table)


def test_bicolored_matches_bruteforce(symbolic_bw):
    table, _ = symbolic_bw
    one = table.a(1).ring_one()
    for n in range(0, 4):
        for d in range(0, 3):
            for k in (0, 2):
                if k > 2 * n:
                    continue
                def w(h, last):
                    return table.a(h) if (h - d) % 2 == 0 else table.b(h)
                want = brute_paths(n, d, k, w, one)
                assert z_bicolored(PathSpec(n, d, k), table) == want, (n, d, k)


def test_context_matches_bruteforce(symbolic_pq):
    table, _ = symbolic_pq
    one = table.a(1).ring_one()
    for n in range(0, 4):
        for d in range(0, 3):
            def w(h, last):
                return table.b(h) if last >= 0 else table.a(h)
            want = brute_paths(n, d, 0, w, one)
            assert z_context(PathSpec(n, d), table) == want, (n, d)


def test_elongated_matches_bruteforce():
    table, _ = symbol_table("elongated", 10)
    one = table.a(1).ring_one()
    for n in range(0, 5):
        want = brute_elongated(n, table, one)
        assert z_elongated(PathSpec(n, 0), table) == want, n


def test_elongated_equals_context_after_substitution(symbolic_pq):
    """Flat steps at height i-1 absorb ascent-descent spikes: substituting
    level weight Q_i - P_i and descent weight P_i equates the variants."""
    table_pq, _ = symbolic_pq
    h = 8
    y_seq = [None]
    for i in range(1, h + 1):
        y_seq.append(table_pq.b(i) - table_pq.a(i))  # level at height i-1
        y_seq.append(table_pq.a(i))                  # descent from height i
    elong = WeightTable("elongated", y_seq[: 2 * h])
    for n in range(0, 7):
        assert z_elongated(PathSpec(n, 0), elong) == z_context(PathSpec(n, 0), table_pq), n


def test_height_shift_covariance(symbolic_bw):
    table, names = symbolic_bw
    for d in range(1, 5):
        # at base height 0 a descent from even j uses the first sequence, so
        # fill it with whichever original sequence has the parity of j + d
        first = [None] + [
            table.a(j + d) if (j + d) % 2 == d % 2 else table.b(j + d)
            for j in range(1, 6)
        ]
        second = [None] + [
            table.b(j + d) if (j + d) % 2 != d % 2 else table.a(j + d)
            for j in range(1, 6)
        ]
        shifted = WeightTable("bicolored", first, second)
        for n in range(0, 5):
            assert z_bicolored(PathSpec(n, d), table) == z_bicolored(
                PathSpec(n, 0), shifted
            ), (n, d)


def test_restriction_identity_constant_weights():
    lim = solve_limit(5)
    B, W = lim.first, lim.second
    for n in range(0, 6):
        lhs = z_const(n + 1, B, W, "bicolored", k=2)
        rhs = z_const(n + 1, B, W, "bicolored") - z_const(n, B, W, "bicolored") * W
        assert lhs == rhs, n
        lhs = z_const(n + 1, B, W, "context", k=2)
        rhs = z_const(n + 1, B, W, "context") - z_const(n, B, W, "context") * W
        assert lhs == rhs, n


def test_hatted_equals_plain_constant_weights():
    lim = solve_limit(4)
    P, Q = lim.first, lim.second
    assert z_const(1, P, Q, "bicolored") == Q
    assert z_const(2, P, Q, "bicolored") == Q * Q + P * Q
    for n in range(0, 7):
        assert z_const(n, P, Q, "context") == z_const(n, P, Q, "bicolored"), n


def test_zero_constant_term_outputs():
    lim = solve_limit(4)
    table = WeightTable("bicolored", [None] + [lim.first] * 5, [None] + [lim.second] * 5)
    for n in range(1, 4):
        assert z_bicolored(PathSpec(n, 0), table).constant_term() == 0


def test_strict_table_raises_beyond_range():
    lim = solve_limit(3)
    table = WeightTable("bicolored", [None, lim.first], [None, lim.second])
    with pytest.raises(StructureError):
        z_bicolored(PathSpec(2, 0), table)
    symbols = symbol_table("context", 3)[0]
    for idx in (-1, -3, 4):  # a negative index would read from the far end
        for lookup in (symbols.a, symbols.b):
            with pytest.raises(StructureError):
                lookup(idx)


def test_elongated_table_has_no_second_sequence():
    table = solve_y(2).weight_table()
    assert table.kind == "elongated"
    with pytest.raises(StructureError, match="elongated"):
        table.b(1)


@pytest.mark.parametrize("kind", ["bicolored", "context", "elongated"])
def test_index_zero_is_not_a_weight(kind):
    # symbol_table and z_const store a placeholder there that no path reads
    table, _ = symbol_table(kind, 3)
    lookups = [table.a] if kind == "elongated" else [table.a, table.b]
    for lookup in lookups:
        with pytest.raises(StructureError, match="weight index 0 is unused"):
            lookup(0)
        with pytest.raises(StructureError, match="weight index -1 beyond stored range"):
            lookup(-1)


def test_path_spec_validation():
    with pytest.raises(StructureError):
        PathSpec(2, 0, 5)
    with pytest.raises(StructureError):
        PathSpec(-1, 0)
    for args in ((2.5, 0), (2, 1.0), (2, 0, 1.5), ("2", 0)):
        with pytest.raises(StructureError):
            PathSpec(*args)


def test_constant_weight_functional_equations():
    """The constant-weight path series solves Z = 1/(1 - zQ/(1 - zP Z)),
    equivalently Z = 1/(1 - z(Q-P) - zP Z), order by order."""
    from quadslice.contfrac import _ring_field
    from quadslice.series import Series

    N, L = 6, 5
    lim = solve_limit(N)
    P, Q = lim.first, lim.second
    field = _ring_field(P)
    Z = Series("z", L, [z_const(k, P, Q, "context") for k in range(L + 1)], field)
    z = Series.gen("z", L, field)
    one = Series.one("z", L, field)
    assert Z == (one - z * Q * (one - z * P * Z).inv()).inv()
    assert Z == (one - z * (Q - P) - z * P * Z).inv()
