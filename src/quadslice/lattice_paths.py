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
One pass of 2n steps gives the sums of every half-length 0..n, each read
off the layer of the position where its paths end (``path_sums``), for
any forced-descent counts at once; ``z_bicolored``, ``z_context`` and
``z_elongated`` are views of the last entry.
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


def _run_dp(n, d, ks, exemplar, descent, flat=None, by_last=False):
    """Sums over paths from d to d staying >= d, for every half-length
    0..n and every forced-descent count in ``ks``, from one pass of 2n steps.

    Steps are ascents, descents and, when ``flat`` is given, flat steps of
    horizontal length 2 that land two positions on.  descent(h, last)
    weights a descent from height h and flat(h) a flat step at height h.
    The state at each position is the height, plus the direction of the
    last step (+1 or -1, 0 at the start) when ``by_last`` is set; otherwise
    ``last`` is always 0, and paths that differ only in their last step share
    one state.  A path of half-length m ending with k descents is a state
    at height d + k at position 2m - k followed by those k descents, so each
    position's layer, complete once the pass reaches it, gives the totals
    of every shorter length.  Returns, for each k in ``ks``, the list
    [Z_0, ..., Z_n] of ring elements.
    """
    one = _ring_one_of(exemplar)
    zero = _ring_zero_of(one)
    up, down = (+1, -1) if by_last else (0, 0)
    n2 = 2 * n
    end = n2 - min(ks)  # no step of any path read starts at or after this position
    sums = [[zero] * (n + 1) for _ in ks]
    # position -> {(height, last): accumulated weight}
    layers = [{(d, 0): one}] + [{} for _ in range(end)]

    def put(t, key, val):
        layers[t][key] = layers[t].get(key, zero) + val

    for t in range(end + 1):
        for out, k in zip(sums, ks):  # paths of half-length (t + k) / 2 end here with k descents
            m, odd = divmod(t + k, 2)
            if odd or m > n:
                continue
            for (h, last), val in layers[t].items():
                if h == d + k:
                    for j in range(k):
                        val = val * descent(h - j, last if j == 0 else down)
                    # a lone state is the sum itself: a view adds nothing per length
                    out[m] = val if out[m] is zero else out[m] + val
        if t == end:
            break
        for (h, last), val in layers[t].items():
            if h - d > n2 - t:  # cannot return to the base height in time
                continue
            if h - d < n:
                put(t + 1, (h + 1, up), val)
            if h > d:
                put(t + 1, (h - 1, down), val * descent(h, last))
            if flat is not None and t + 2 <= end:
                put(t + 2, (h, 0), val * flat(h))
        layers[t] = None  # free the weights no later step reads
    return sums


def path_sums(table: WeightTable, n, d=0, ks=(0,)):
    """For each k in ``ks``, [Z_0, ..., Z_n]: the table's path sums of every
    half-length up to n at base height d whose last k steps descend, all
    from one pass of the path DP."""
    if table.kind == "bicolored":
        descent, flat, by_last = (lambda h, _last: table.a(h) if (h - d) % 2 == 0 else table.b(h)), None, False
    elif table.kind == "context":
        descent, flat, by_last = (lambda h, last: table.b(h) if last >= 0 else table.a(h)), None, True
    elif d != 0:
        raise StructureError("elongated paths are defined at base height 0")
    else:
        descent, flat, by_last = (lambda h, _last: table.a(2 * h)), (lambda h: table.a(2 * h + 1)), False
    return _run_dp(n, d, ks, table.an_element(), descent, flat, by_last)


def _view(kind, spec, table):
    """The path sum of ``spec`` alone: the last entry of its pass."""
    if table.kind != kind:
        raise StructureError(f"{kind} table required")
    return path_sums(table, spec.n, spec.d, (spec.k,))[0][-1]


def z_bicolored(spec: PathSpec, table: WeightTable):
    """Paths weighted by height parity: descent from i gets the first
    sequence when i = d (mod 2), the second otherwise."""
    return _view("bicolored", spec, table)


def z_context(spec: PathSpec, table: WeightTable):
    """Paths weighted by context: descent from i gets the second sequence
    after an ascent and the first after a descent."""
    return _view("context", spec, table)


def z_elongated(spec: PathSpec, table: WeightTable):
    """Paths with +-1 steps and flat double steps, base height 0 only."""
    return _view("elongated", spec, table)


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
