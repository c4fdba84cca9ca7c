"""Generating functions of weighted non-negative lattice paths.

Paths live at or above a base height d, start and end at d, and come in
four weighting variants:

* bicolored: a descent from height i is weighted by one of two sequences
  according to the parity of i relative to d (first sequence when i has
  the parity of d, second otherwise);
* context: a descent from height i is weighted by the second sequence
  when it follows an ascent and by the first when it follows another
  descent;
* elongated: elementary +-1 steps plus flat steps of horizontal length 2;
  a flat step at height h takes weight index 2h+1, a descent from height
  i takes weight index 2i (base height 0 only);
* constant: either of the first two with height-independent weights.

An optional restriction forces the last k steps to descend.  Weights may
be any ring elements (truncated bivariate polynomials from the slice
solver, or opaque symbols for identity checking).  All variants run one
dynamic programme over positions (``_run_dp``): a flat step lands two
positions on, and the state is the height, together with the last step
direction only for the context weighting, the one weighting that reads it.
"""

from __future__ import annotations

from .errors import StructureError
from .exactalg import MPoly, _ring_one_of, _ring_zero_of


class PathSpec:
    """Half-length n, base height d, and number of forced final descents k."""

    __slots__ = ("n", "d", "k")

    def __init__(self, n, d=0, k=0):
        if any(type(v) is not int for v in (n, d, k)) or n < 0 or d < 0 or k < 0 or k > 2 * n:
            raise StructureError(f"bad path spec n={n} d={d} k={k}")
        self.n = n
        self.d = d
        self.k = k


class WeightTable:
    """Height-indexed weights.

    ``first`` and ``second`` are lists indexed by height; index 0 holds a
    placeholder that no path reads, and looking it up is an error.  For
    elongated tables only ``first`` is used and it is indexed by the
    doubled scheme described in the module docstring.
    Tables are strict: heights beyond the stored range are an error rather
    than silently clamped.
    """

    __slots__ = ("kind", "first", "second")

    def __init__(self, kind, first, second=None):
        if kind not in ("bicolored", "context", "elongated"):
            raise StructureError(f"unknown weight table kind {kind!r}")
        self.kind = kind
        self.first = list(first)
        self.second = list(second) if second is not None else None

    @staticmethod
    def _lookup(seq, idx):
        if 0 < idx < len(seq):
            return seq[idx]
        if idx == 0:
            raise StructureError("weight index 0 is unused: heights start at 1")
        raise StructureError(f"weight index {idx} beyond stored range (strict table)")

    def a(self, idx):
        return self._lookup(self.first, idx)

    def b(self, idx):
        if self.second is None:
            raise StructureError(f"{self.kind} weight table has no second sequence")
        return self._lookup(self.second, idx)

    def an_element(self):
        for seq in (self.first, self.second or []):
            for v in seq[1:]:
                return v
        raise StructureError("empty weight table")


def _run_dp(n2, d, k, hmax, exemplar, descent, flat=None, by_last=False):
    """Sum over paths of horizontal length n2 from d to d staying >= d.

    Steps are ascents, descents and, when ``flat`` is given, flat steps of
    horizontal length 2 that land two positions on.  descent(h, last)
    weights a descent from height h and flat(h) a flat step at height h.
    The state at each position is the height, plus the direction of the
    last step (+1 or -1, 0 at the start) when ``by_last`` is set; otherwise
    ``last`` is always 0, and paths that differ only in their last step share
    one state.  An ascent or flat step must end by position n2 - k, so the
    path ends with k descents.  Returns a ring element.
    """
    one = _ring_one_of(exemplar)
    zero = _ring_zero_of(one)
    up, down = (+1, -1) if by_last else (0, 0)
    # position -> {(height, last): accumulated weight}
    layers = [{(d, 0): one}] + [{} for _ in range(n2)]

    def put(t, key, val):
        layers[t][key] = layers[t].get(key, zero) + val

    for t in range(n2):
        for (h, last), val in layers[t].items():
            if h - d > n2 - t:  # cannot return to the base height in time
                continue
            if t + 1 <= n2 - k and h + 1 <= hmax:
                put(t + 1, (h + 1, up), val)
            if h > d:
                put(t + 1, (h - 1, down), val * descent(h, last))
            if flat is not None and t + 2 <= n2 - k:
                put(t + 2, (h, 0), val * flat(h))
        layers[t] = None  # free the weights no later step reads
    total = zero
    for (h, _last), val in layers[n2].items():
        if h == d:
            total = total + val
    return total


def z_bicolored(spec: PathSpec, table: WeightTable):
    """Paths weighted by height parity: descent from i gets the first
    sequence when i = d (mod 2), the second otherwise."""
    if table.kind != "bicolored":
        raise StructureError("bicolored table required")
    d = spec.d

    def w(h, _last):
        return table.a(h) if (h - d) % 2 == 0 else table.b(h)

    return _run_dp(2 * spec.n, d, spec.k, d + spec.n, table.an_element(), w)


def z_context(spec: PathSpec, table: WeightTable):
    """Paths weighted by context: descent from i gets the second sequence
    after an ascent and the first after a descent."""
    if table.kind != "context":
        raise StructureError("context table required")

    def w(h, last):
        return table.b(h) if last >= 0 else table.a(h)

    return _run_dp(2 * spec.n, spec.d, spec.k, spec.d + spec.n, table.an_element(), w, by_last=True)


def z_elongated(spec: PathSpec, table: WeightTable):
    """Paths with +-1 steps and flat double steps, base height 0 only."""
    if table.kind != "elongated":
        raise StructureError("elongated table required")
    if spec.d != 0:
        raise StructureError("elongated paths are defined at base height 0")
    return _run_dp(2 * spec.n, 0, spec.k, spec.n, table.an_element(),
                   lambda h, _last: table.a(2 * h), lambda h: table.a(2 * h + 1))


def z_const(n, first, second, kind="bicolored", k=0):
    """Constant-weight specialization at base height 0.

    For the bicolored kind a descent from even height gets ``first`` and
    from odd height ``second``; for the context kind ``first`` applies
    after a descent and ``second`` after an ascent.
    """
    if kind not in ("bicolored", "context"):
        raise StructureError(f"unsupported constant kind {kind!r}")
    hmax = n + 1
    table = WeightTable(kind, [None] + [first] * hmax, [None] + [second] * hmax)
    spec = PathSpec(n, 0, k)
    if kind == "bicolored":
        return z_bicolored(spec, table)
    return z_context(spec, table)


# ------------------------------------------------------- symbolic utilities

def symbol_table(kind, max_height):
    """Weight table whose entries are opaque indeterminates.

    Returns (table, vars): for bicolored the symbols are B1..B_h, W1..W_h;
    for context P1..P_h, Q1..Q_h; for elongated Y1..Y_{2h}.  All symbols
    share one variable list so the outputs combine freely.
    """
    if kind == "elongated":
        names = tuple(f"Y{j}" for j in range(1, 2 * max_height + 1))
        gens = [None] + [MPoly.gen(names, nm) for nm in names]
        return WeightTable(kind, gens), names
    pre_a, pre_b = ("B", "W") if kind == "bicolored" else ("P", "Q")
    names = tuple(
        f"{p}{i}" for i in range(1, max_height + 1) for p in (pre_a, pre_b)
    )
    a = [None] + [MPoly.gen(names, f"{pre_a}{i}") for i in range(1, max_height + 1)]
    b = [None] + [MPoly.gen(names, f"{pre_b}{i}") for i in range(1, max_height + 1)]
    return WeightTable(kind, a, b), names
