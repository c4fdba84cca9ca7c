"""Exhaustive map enumeration and the two boundary bijections."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from quadslice.errors import ResourceGuardError, StructureError, VerificationError
from quadslice.exactalg import BIVARS, MPoly, bipoly_to_text, tw
from quadslice.maps_oracle import (
    LabeledQuad,
    RootedMap,
    _join_corners,
    _partitions,
    ab_forward,
    ab_inverse,
    angular_inverse,
    bf_F,
    bf_J,
    bijection_check,
    distinct_bijections_witness,
    enumerate_bridgeless_maps,
    enumerate_quads,
    glue_polygons,
    oriented_distance_check,
)
from quadslice.slice_solver import f_n, j_n


def test_single_edge_quad():
    quads = enumerate_quads(1, 0)
    assert len(quads) == 1
    q = quads[0]
    assert q.dist == [0, 1]
    assert q.color == ["black", "white"]
    assert q.local_max == [False, True]
    assert bf_F(1, 0) == tw(1)
    assert bf_J(1, 0) == tw(1)


def _summed_weights(n, f_max, cap):
    """The weight sums as one single-monomial MPoly per quadrangulation."""
    F = J = MPoly.zero(BIVARS, cap)
    for q in enumerate_quads(n, f_max):
        blacks = sum(1 for c in q.color if c == "black") - 1
        whites = sum(1 for c in q.color if c == "white")
        maxima = sum(1 for flag in q.local_max if flag)
        F = F + MPoly(BIVARS, {(blacks, whites): 1}, cap)
        J = J + MPoly(BIVARS, {(len(q.local_max) - maxima - 1, maxima): 1}, cap)
    return F, J


def test_counted_weight_sums_match_summed_monomials():
    for n in range(1, 4):
        for f_max in range(3):
            for cap in (None, n + f_max - 1):
                F, J = _summed_weights(n, f_max, n + f_max if cap is None else cap)
                got_F, got_J = bf_F(n, f_max, cap), bf_J(n, f_max, cap)
                assert got_F == F and got_F.terms == F.terms and bipoly_to_text(got_F) == bipoly_to_text(F)
                assert got_J == J and got_J.terms == J.terms and bipoly_to_text(got_J) == bipoly_to_text(J)


def test_small_class_counts():
    # one map at (1,0); two more with one inner face; coefficient sum of
    # f_1 at total degree 2 is 2
    assert len(enumerate_quads(1, 1)) == 3
    poly = f_n(1, 2)
    assert sum(c for e, c in poly.terms.items() if sum(e) == 2) == 2


def test_enumeration_matches_solver():
    for n in range(1, 3):
        for f_max in range(0, 3):
            assert bf_F(n, f_max) == f_n(n, n + f_max), (n, f_max)
            assert bf_J(n, f_max) == j_n(n, n + f_max), (n, f_max)


def test_counts_weakly_increasing_smoke():
    for n in range(1, 3):
        counts = [len([q for q in enumerate_quads(n, f) if q.f == f]) for f in range(3)]
        assert counts == sorted(counts)
        assert counts[0] >= 1


def test_map_invariants_hold_on_corpus():
    for q in enumerate_quads(2, 2):
        m = q.map
        V = len(m.vertices())
        E = m.n_darts // 2
        F = len(m.faces())
        assert V - E + F == 2
        assert len(m.face_of_root()) == 2 * q.n


def _cycle_count(perm):
    seen, count = set(), 0
    for d in range(len(perm)):
        if d not in seen:
            count += 1
            while d not in seen:
                seen.add(d)
                d = perm[d]
    return count


def test_validation_rejects_bad_maps():
    # a one-vertex torus, edges {0, 2} and {1, 3}, beside a one-edge sphere:
    # V = 3, E = 3, F = 2 satisfy Euler's relation, so only the orbit of the
    # root can tell that the map is not connected
    sigma, alpha = [1, 2, 3, 0, 4, 5], [2, 3, 0, 1, 5, 4]
    assert _cycle_count(sigma) - 3 + _cycle_count([sigma[a] for a in alpha]) == 2
    cases = [
        ([0, 0], [1, 0], "sigma and alpha must be permutations of the darts"),
        ([0, 1], [1, 1], "sigma and alpha must be permutations of the darts"),
        ([0, 1], [0, 1], "alpha must be a fixed-point-free involution"),  # fixed points
        ([0, 1, 2, 3, 4], [1, 2, 0, 4, 3], "alpha must be a fixed-point-free involution"),  # a 3-cycle
        ([0, 1, 2, 3], [1, 0, 3, 2], "map is not connected"),  # two disjoint edges
        (sigma, alpha, "map is not connected"),
        ([1, 2, 3, 0], [2, 3, 0, 1], r"map is not planar: V-E\+F = 0"),  # the torus alone
    ]
    for sigma, alpha, message in cases:
        for root in range(len(sigma)):
            with pytest.raises(StructureError, match=message):
                RootedMap(sigma, alpha, root)
    # a valid double edge passes validation
    RootedMap([1, 0, 3, 2], [2, 3, 0, 1], 0)


def test_root_must_be_a_dart():
    for root in (2, -1):
        with pytest.raises(StructureError, match=f"root {root} is not a dart"):
            RootedMap([1, 0], [1, 0], root)


@pytest.mark.parametrize("sigma, alpha, root, message", [
    ((0, 1), (1, 0), 5, r"root 5 is not a dart of the map \(darts 0..1\)"),
    ((0, 1), (1, 0), 0.5, "root 0.5 is not a dart"),
    ((0, 1), (1, 0), "0", "root '0' is not a dart"),
    ((0, 1), (1, 0), None, "root None is not a dart"),
    ((), (), 0, r"root 0 is not a dart of the map \(darts 0..-1\)"),
    ((0, 2), (1, 0), 0, "sigma and alpha must be permutations"),
    ((0, -1), (1, 0), 0, "sigma and alpha must be permutations"),
    ((0, 1), (1, 0, 1), 0, "sigma and alpha must be permutations"),
])
def test_malformed_maps_name_the_problem(sigma, alpha, root, message):
    with pytest.raises(StructureError, match=message):
        RootedMap(sigma, alpha, root)
    assert RootedMap((0, 1), (1, 0), 1).root == 1


@pytest.mark.parametrize("sigma, alpha, root, message", [
    ((0.0, 1), (1, 0), 0, "dart 0.0 is not an int"),
    ((True, 0), (1, 0), 0, "dart True is not an int"),
    ((0, 1), (1, 0.0), 0, "dart 0.0 is not an int"),
    ((0, 1), (False, 0), 0, "dart False is not an int"),
    ((0, "1"), (1, 0), 0, "dart '1' is not an int"),
    ((0, 1), (1, None), 0, "dart None is not an int"),
    ((0, 1), (1, 0), True, r"root True is not a dart of the map \(darts 0..1\)"),
    ((0, 1), (1, 0), 0.0, "root 0.0 is not a dart"),
])
def test_darts_and_root_must_be_ints(sigma, alpha, root, message):
    # values equal to a dart but of another type are refused by name
    with pytest.raises(StructureError, match=message):
        RootedMap(sigma, alpha, root)


def test_canonical_key_is_root_sensitive():
    q = enumerate_quads(2, 0)
    keys = {x.map.canonical_key() for x in q}
    assert len(keys) == len(q)


def test_forward_transport_and_distances():
    for q in enumerate_quads(2, 2):
        image, origin = ab_forward(q)
        n_max = sum(q.local_max)
        assert len(image.vertices()) == len(q.local_max) - n_max
        assert len(image.faces()) - 1 == n_max
        assert len(image.face_of_root()) == q.n
        oriented_distance_check(image, origin, q)


def test_loop_image_for_single_edge():
    q = enumerate_quads(1, 0)[0]
    image, _ = ab_forward(q)
    assert image.n_darts == 2
    assert len(image.vertices()) == 1  # a single loop on one vertex
    assert len(image.face_of_root()) == 1


def test_bijection_suites():
    for n in range(1, 3):
        for f in range(0, 3):
            assert bijection_check(n, f).passed


def test_bijection_suite_at_four_inner_faces():
    # the one f = 4 size kept in tier-1: 3,359 quadrangulations at n = 2
    assert bijection_check(2, 4).passed


def test_angular_pair_round_trips():
    for m in enumerate_bridgeless_maps(2, 3):
        q = ab_inverse(m)
        blacks = sum(1 for c in q.color if c == "black")
        assert blacks == len(m.vertices())
        assert angular_inverse(q).is_isomorphic(m)
    for q in enumerate_quads(2, 2):
        assert ab_inverse(angular_inverse(q)).map.is_isomorphic(q.map)


def test_the_two_constructions_differ():
    m, q, image = distinct_bijections_witness()
    assert image.is_isomorphic(ab_forward(q)[0]) and ab_inverse(m).map.is_isomorphic(q.map)
    assert not image.is_isomorphic(m)
    assert len(image.vertices()) != len(m.vertices())


def test_bridgeless_filter():
    # every enumerated codomain map must have a bridge-free boundary
    for m in enumerate_bridgeless_maps(3, 4):
        ext = set(m.face_of_root())
        assert not any(m.alpha[d] in ext for d in ext)


def _vertex_star_maps(boundary_len, n_edges):
    """The former general-map enumerator, kept as a differential oracle: glue
    vertex rotation stars for every root degree and degree partition of 2E,
    keep the maps whose root face has degree boundary_len and no bridge."""
    darts = 2 * n_edges

    def partitions(total, max_part):
        if total == 0:
            yield ()
            return
        for part in range(min(total, max_part), 0, -1):
            for rest in partitions(total - part, part):
                yield (part,) + rest

    keys = set()
    for root_degree in range(1, darts + 1):
        for rest in partitions(darts - root_degree, darts):
            matchings, nxt = glue_polygons([root_degree, *rest])
            for match in matchings:
                m = RootedMap(list(nxt), match, 0)
                if len(m.face_of_root()) == boundary_len and m.boundary_is_bridgeless():
                    keys.add(m.canonical_key())
    return keys


@pytest.mark.parametrize("b,E", [(1, 1), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5)])
def test_face_gluing_matches_vertex_star_oracle(b, E):
    maps = enumerate_bridgeless_maps(b, E)
    keys = [m.canonical_key() for m in maps]
    assert len(set(keys)) == len(keys)
    assert set(keys) == _vertex_star_maps(b, E)
    for m in maps:
        assert m.n_darts == 2 * E
        assert len(m.face_of_root()) == b
        assert m.boundary_is_bridgeless()


# the raw gluings of the quadrangulation size lists [2n] + [4]*f and of the
# bridgeless size lists [n, partition of n + 2f] for n <= 3 and f <= 3:
# (lists, matchings, sha256 of their repr), recorded before the walk splice
# lost its special cases; the canonical-key dedupe would hide a splice that
# only duplicated gluings
GLUINGS_GOLDEN = (133, 9045, "9f2c2c884e9fd6405a69d789069d9bedb90f44fc756458396531097b5762bdbf")


def _raw_gluing_lists():
    """The 12 quadrangulation size lists, then the 121 bridgeless ones."""
    lists = [[2 * n] + [4] * f for n in range(1, 4) for f in range(4)]
    return lists + [[n, *p] for n in range(1, 4) for f in range(4) for p in _partitions(n + 2 * f, n + 2 * f)]


def test_raw_gluings_match_golden():
    glued = [(sizes, glue_polygons(sizes)[0]) for sizes in _raw_gluing_lists()]
    digest = hashlib.sha256(repr(glued).encode()).hexdigest()
    assert (len(glued), sum(len(m) for _, m in glued), digest) == GLUINGS_GOLDEN


def test_resource_guard(monkeypatch):
    monkeypatch.setenv("QUADSLICE_MAX_DARTS", "6")
    enumerate_quads.cache_clear()
    try:
        with pytest.raises(ResourceGuardError):
            enumerate_quads(2, 3)
        monkeypatch.setenv("QUADSLICE_MAX_DARTS", "x")
        with pytest.raises(ResourceGuardError, match="QUADSLICE_MAX_DARTS.*'x'"):
            enumerate_quads(1, 0)
    finally:
        enumerate_quads.cache_clear()


def test_single_edge_quadrangulation_golden():
    # two one-dart vertices joined by one edge, rooted at dart 0
    q = enumerate_quads(1, 0)[0]
    assert (q.map.sigma, q.map.alpha, q.map.root) == ((0, 1), (1, 0), 0)


def test_bf_weight_golden():
    # one-edge map: a single white vertex beyond the root
    assert bf_F(1, 0) == tw(1)


def _sha256(items):
    h = hashlib.sha256()
    for parts in items:
        h.update(repr(parts).encode())
        h.update(b"\n")
    return h.hexdigest()


def _corpus():
    """Every rooted quadrangulation with n <= 3 and f <= 2, in enumeration order."""
    for n in range(1, 4):
        for f in range(0, 3):
            for q in enumerate_quads(n, f):
                yield n, f, q


def _forward_and_angular_images():
    for n, f, q in _corpus():
        image, origin = ab_forward(q)
        yield ("ab_forward", n, f, image.sigma, image.alpha, image.root, tuple(origin))
        m = angular_inverse(q)
        yield ("angular_inverse", n, f, m.sigma, m.alpha, m.root)


def _white_vertex_images():
    # one representative of every codomain class, independent of how the
    # codomain is enumerated
    for n, f, q in _corpus():
        q2 = ab_inverse(angular_inverse(q)).map
        yield ("ab_inverse", n, f, q2.sigma, q2.alpha, q2.root)


def _codomain_keys():
    for n in range(1, 4):
        for f in range(0, 3):
            yield n, f, sorted(m.canonical_key() for m in enumerate_bridgeless_maps(n, n + f))


# all three recorded while the general maps were still glued from vertex stars
FORWARD_ANGULAR_GOLDEN = "1a6bd1917a28e81fbcb2d5fe8110cf513cf54c687a49cd9b0e5e93c4510aff85"
WHITE_VERTEX_GOLDEN = "5a2035bb163f3a4e1fe23226be438f7006912159d7cc7d673998515508fa57bd"
CODOMAIN_KEYS_GOLDEN = "e237d5d0f5c5a1195d8f3af39262773bc6d284d80c5654d62b04d55a088578d0"


def test_forward_and_angular_images_match_golden():
    # exact images, in enumeration order, of ab_forward and angular_inverse
    assert _sha256(_forward_and_angular_images()) == FORWARD_ANGULAR_GOLDEN


def test_white_vertex_images_match_golden():
    assert _sha256(_white_vertex_images()) == WHITE_VERTEX_GOLDEN


def test_codomain_classes_match_golden():
    assert _sha256(_codomain_keys()) == CODOMAIN_KEYS_GOLDEN


def _walked_structure(m):
    """The per-call walks the stored structure replaced, kept as its oracle:
    the vertex and face cycles from their least darts, the cycle index of
    every dart (the former vertex_of_darts), and the external face walked
    from the root (the former face_of_root)."""
    def cycles(perm):
        out, seen = [], set()
        for d in range(m.n_darts):
            cyc = []
            e = d
            while e not in seen:
                seen.add(e)
                cyc.append(e)
                e = perm[e]
            if cyc:
                out.append(tuple(cyc))
        return tuple(out)

    def labels(cycles):
        out = [0] * m.n_darts
        for i, cyc in enumerate(cycles):
            for d in cyc:
                out[d] = i
        return out

    phi = [m.sigma[m.alpha[d]] for d in range(m.n_darts)]
    vertices, faces = cycles(m.sigma), cycles(phi)
    ext = [m.root]
    while phi[ext[-1]] != m.root:
        ext.append(phi[ext[-1]])
    return vertices, faces, labels(vertices), labels(faces), tuple(ext)


def _corpus_and_images():
    for _, _, q in _corpus():
        m = angular_inverse(q)
        yield from (q.map, ab_forward(q)[0], m, ab_inverse(m).map)


def _star(edges):
    """A plane tree: one vertex joined to ``edges`` leaves."""
    sigma = [(d + 1) % edges for d in range(edges)] + list(range(edges, 2 * edges))
    alpha = list(range(edges, 2 * edges)) + list(range(edges))
    return RootedMap(sigma, alpha, 0)


def test_stored_cycles_and_labels_match_the_walks():
    # the star has more vertices than a byte can label
    for m in (*_corpus_and_images(), _star(300)):
        vertices, faces, vertex_of, face_of, ext = _walked_structure(m)
        assert m.vertices() == vertices and m.faces() == faces
        assert list(m.vertex_of) == vertex_of and list(m.face_of) == face_of
        assert m.face_of_root() == ext
        assert m.inner_faces() == tuple(f for f in faces if m.root not in f)
        assert m.boundary_is_bridgeless() == (not any(m.alpha[d] in ext for d in ext))


def _counting(monkeypatch, cls, name, counts):
    orig = getattr(cls, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return orig(*args)

    monkeypatch.setattr(cls, name, counted)


def test_each_map_walks_its_cycles_once(monkeypatch):
    # validation walks the vertices and the faces; nothing walks them again
    counts = {}
    _counting(monkeypatch, RootedMap, "__init__", counts)
    _counting(monkeypatch, RootedMap, "_cycles", counts)
    enumerate_quads.cache_clear()
    enumerate_bridgeless_maps.cache_clear()
    assert bijection_check(2, 2).passed
    assert counts["_cycles"] == 2 * counts["__init__"] > 0


def test_each_face_count_is_glued_once(monkeypatch):
    enumerate_quads.cache_clear()
    lower = enumerate_quads(3, 1)
    counts = {}
    _counting(monkeypatch, LabeledQuad, "__init__", counts)
    full = enumerate_quads(3, 2)
    assert counts["__init__"] == 270 == len(full) - len(lower)
    assert all(a is b for a, b in zip(full, lower))
    assert all(q.f == 2 for q in full[len(lower):])


@settings(max_examples=50, deadline=None, database=None)
@given(data=st.data())
def test_canonical_key_ignores_dart_labels(data):
    # every map of the corpus, its darts relabelled, keeps its key at the
    # image of its root
    for q in (q for n in (1, 2) for q in enumerate_quads(n, 1)):
        darts = q.map.n_darts
        p = data.draw(st.permutations(range(darts)))
        sigma, alpha = [0] * darts, [0] * darts
        for d in range(darts):
            sigma[p[d]], alpha[p[d]] = p[q.map.sigma[d]], p[q.map.alpha[d]]
        assert RootedMap(sigma, alpha, p[q.map.root]).canonical_key() == q.map.canonical_key()


# ------------------------------------------------ the former construction code
#
# The set-, dict- and closure-based code the flat-array fast paths replaced,
# kept as their oracles: the gluing search with its write trail, the set
# orbit of the root, the dict canonical relabeling, the corner join that
# collects edge ends in a dict and sorts them per corner, the white-vertex
# construction that numbers its edge ends through dicts, and the labels read
# off adjacency sets.

def _trail_glue_polygons(sizes):
    total = sum(sizes)
    starts = []
    acc = 0
    for L in sizes:
        starts.append(acc)
        acc += L
    poly_of = [0] * total
    nxt = [0] * total
    for p, L in enumerate(sizes):
        for k in range(L):
            s = starts[p] + k
            poly_of[s] = p
            nxt[s] = starts[p] + (k + 1) % L
    match = [-1] * total
    wnext = list(nxt)
    wprev = [0] * total
    for s in range(total):
        wprev[wnext[s]] = s
    parent = list(range(len(sizes)))
    open_count = list(sizes)
    touched = [0] * len(sizes)

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    def first_fresh_of_class(p):
        if p == 0:
            return 0
        return next(r for r in range(1, len(sizes)) if sizes[r] == sizes[p] and touched[r] == 0)

    def same_walk(s, t):
        e = wnext[s]
        while True:
            if e == t:
                return True
            if e == s:
                return False
            e = wnext[e]

    results = []

    def choose():
        s = -1
        for d in range(total):
            if match[d] == -1:
                s = d
                break
        if s == -1:
            results.append(list(match))
            return
        ps = poly_of[s]
        if touched[ps] == 0 and first_fresh_of_class(ps) != ps:
            return
        for t in range(s + 1, total):
            if match[t] != -1:
                continue
            pt = poly_of[t]
            if touched[pt] == 0 and pt != ps and pt != 0:
                if t != starts[pt] or first_fresh_of_class(pt) != pt:
                    continue
            attempt(s, t)

    def attempt(s, t):
        in_same_walk = same_walk(s, t)
        rs, rt = find(poly_of[s]), find(poly_of[t])
        if not in_same_walk and rs == rt:
            return
        trail = []

        def set_arr(arr, idx, val):
            trail.append((arr, idx, arr[idx]))
            arr[idx] = val

        set_arr(match, s, t)
        set_arr(match, t, s)
        touched[poly_of[s]] += 1
        touched[poly_of[t]] += 1
        ns, ps_ = wnext[s], wprev[s]
        nt, pt_ = wnext[t], wprev[t]
        set_arr(wnext, ps_, nt)
        set_arr(wprev, nt, ps_)
        set_arr(wnext, pt_, ns)
        set_arr(wprev, ns, pt_)
        if rs != rt:
            set_arr(parent, rt, rs)
        set_arr(open_count, rs, open_count[rs] + (open_count[rt] if rs != rt else 0) - 2)
        sealed = open_count[rs] == 0
        remaining = any(m == -1 for m in match)
        if not (sealed and remaining):
            choose()
        for arr, idx, val in reversed(trail):
            arr[idx] = val
        touched[poly_of[s]] -= 1
        touched[poly_of[t]] -= 1

    choose()
    return results, nxt


def _set_orbit(sigma, alpha, start):
    seen = {start}
    stack = [start]
    while stack:
        d = stack.pop()
        for e in (sigma[d], alpha[d]):
            if e not in seen:
                seen.add(e)
                stack.append(e)
    return seen


def _dict_canonical_key(m):
    lab = {m.root: 0}
    order = [m.root]
    i = 0
    while i < len(order):
        d = order[i]
        i += 1
        for e in (m.alpha[d], m.sigma[d]):
            if e not in lab:
                lab[e] = len(order)
                order.append(e)
    n = len(order)
    sig = [0] * n
    alf = [0] * n
    for d, l in lab.items():
        sig[l] = lab[m.sigma[d]]
        alf[l] = lab[m.alpha[d]]
    return tuple(sig), tuple(alf)


def _end_dict_join_corners(m, picked, kept, kind):
    """picked(d) and kept(v) are predicates here; returns (sigma, alpha,
    root, origin) of the joined map before its validation."""
    edges = []
    for face in m.inner_faces():
        corners = [d for d in face if picked(d)]
        if len(corners) != 2:
            raise VerificationError(f"inner face must have exactly two {kind} corners")
        edges.append(((corners[0], 0), (corners[1], 0)))
    ext = [d for d in m.face_of_root() if picked(d)]
    if m.root not in ext:
        raise VerificationError(f"root corner must be {kind}")
    for a, b in zip(ext, ext[1:] + ext[:1]):
        edges.append(((a, +1), (b, -1)))
    ends_at_corner = {}
    for edge in edges:
        for end in edge:
            ends_at_corner.setdefault(end[0], []).append(end)
    rotations = []
    origin = []
    for v, v_cycle in enumerate(m.vertices()):
        if not kept(v):
            continue
        rot = []
        for corner in v_cycle:
            rot += sorted(ends_at_corner.get(corner, ()), key=lambda end: end[1])
        rotations.append(rot)
        origin.append(v)
    dart_id = {end: i for i, end in enumerate(end for rot in rotations for end in rot)}
    if len(dart_id) != 2 * len(edges):
        raise VerificationError("an edge end landed on a dropped vertex")
    sigma = [0] * len(dart_id)
    alpha = [0] * len(dart_id)
    for rot in rotations:
        for k, end in enumerate(rot):
            sigma[dart_id[end]] = dart_id[rot[(k + 1) % len(rot)]]
    for a, b in edges:
        alpha[dart_id[a]], alpha[dart_id[b]] = dart_id[b], dart_id[a]
    return tuple(sigma), tuple(alpha), dart_id[(m.root, +1)], origin


def _dict_ab_inverse(m):
    """The white-vertex construction numbering its new edge ends through
    dicts; returns (sigma, alpha, root) of the result before validation."""
    ext = m.face_of[m.root]
    faces = m.inner_faces()
    corners = [[d for d in v_cycle if m.face_of[d] != ext] for v_cycle in m.vertices()]
    black_id = {d: i for i, d in enumerate(d for cs in corners for d in cs)}
    white_id = {d: len(black_id) + i for i, d in enumerate(d for f in faces for d in f)}
    sigma = [0] * (2 * len(black_id))
    alpha = [0] * (2 * len(black_id))
    rotations = [[black_id[d] for d in cs] for cs in corners]
    rotations += [[white_id[d] for d in reversed(f)] for f in faces]
    for ids in rotations:
        for k, dd in enumerate(ids):
            sigma[dd] = ids[(k + 1) % len(ids)]
    for d, a in black_id.items():
        alpha[a], alpha[white_id[d]] = white_id[d], a
    return tuple(sigma), tuple(alpha), black_id[m.sigma[m.root]]


def _set_adjacency_labels(m):
    """The distance labels, colors and local-maximum flags of a quadrangulation."""
    vertex_of = m.vertex_of
    adj = [set() for _ in m.vertices()]
    for d in range(m.n_darts):
        a, b = vertex_of[d], vertex_of[m.alpha[d]]
        adj[a].add(b)
        adj[b].add(a)
    root_vertex = vertex_of[m.root]
    dist = [-1] * len(adj)
    dist[root_vertex] = 0
    frontier = [root_vertex]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if dist[u] == -1:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    color = ["black" if d % 2 == 0 else "white" for d in dist]
    local_max = [all(dist[u] == dist[v] - 1 for u in adj[v]) and v != root_vertex for v in range(len(adj))]
    return dist, color, local_max


def _joined(m, picked, kept, kind):
    """The outcome of a corner join, new and former, as comparable values:
    (sigma, alpha, root, origin), or the error with its message."""
    try:
        new_map, origin = _join_corners(m, [picked(d) for d in range(m.n_darts)],
                                        [kept(v) for v in range(len(m.vertices()))], kind)
        new = (new_map.sigma, new_map.alpha, new_map.root, origin)
    except (StructureError, VerificationError) as exc:
        new = (type(exc), str(exc))
    try:
        old = _end_dict_join_corners(m, picked, kept, kind)
        RootedMap(*old[:3])
    except (StructureError, VerificationError) as exc:
        old = (type(exc), str(exc))
    return new, old


def _assert_quad_matches_oracles(q):
    """The labels, both corner joins and the canonical keys of q and of its
    three images agree with the former code."""
    m = q.map
    assert (q.dist, q.color, q.local_max) == _set_adjacency_labels(m)
    label = lambda d: q.dist[m.vertex_of[d]]
    rising = lambda d: label(m.sigma[m.alpha[d]]) > label(d)
    black = lambda v: q.color[v] == "black"
    new, old = _joined(m, rising, lambda v: not q.local_max[v], "rising")
    assert new == old
    image, origin = ab_forward(q)
    assert (image.sigma, image.alpha, image.root, origin) == new
    new, old = _joined(m, lambda d: black(m.vertex_of[d]), black, "black")
    assert new == old
    m2 = angular_inverse(q)
    assert (m2.sigma, m2.alpha, m2.root) == new[:3]
    q2 = ab_inverse(m2)
    assert (q2.dist, q2.color, q2.local_max) == _set_adjacency_labels(q2.map)
    for x in (m, image, m2, q2.map):
        _assert_map_matches_oracles(x)


def _assert_map_matches_oracles(m):
    assert m.canonical_key() == _dict_canonical_key(m)
    assert _set_orbit(m.sigma, m.alpha, m.root) == set(range(m.n_darts))


def test_gluing_search_matches_the_trail_search():
    for sizes in _raw_gluing_lists():
        assert glue_polygons(sizes) == _trail_glue_polygons(sizes), sizes


def test_fast_paths_match_the_former_code_on_the_corpus():
    for _, _, q in _corpus():
        _assert_quad_matches_oracles(q)


def test_fast_paths_match_the_former_code_on_the_bridgeless_lists():
    # every raw gluing of the bridgeless size lists, and the white-vertex
    # image of each with a bridgeless boundary
    for sizes in _raw_gluing_lists()[12:]:
        matchings, nxt = glue_polygons(sizes)
        for match in matchings:
            m = RootedMap([nxt[match[d]] for d in range(len(match))], match, 0)
            _assert_map_matches_oracles(m)
            if m.boundary_is_bridgeless():
                _assert_quad_matches_oracles(ab_inverse(m))


def _relabelled(sigma, alpha, p, root):
    """The map with dart d renamed p[d], rooted at the dart named root."""
    new_sigma, new_alpha = [0] * len(sigma), [0] * len(sigma)
    for d in range(len(sigma)):
        new_sigma[p[d]], new_alpha[p[d]] = p[sigma[d]], p[alpha[d]]
    return new_sigma, new_alpha, root


def _small_corpus():
    """The quadrangulations with n <= 2 and f <= 2, or n = 3 and f <= 1."""
    return [q for n in (1, 2, 3) for q in enumerate_quads(n, 2 if n < 3 else 1)]


def _some_corners(data, darts, counts):
    size = data.draw(st.sampled_from(counts))
    return set(data.draw(st.lists(st.sampled_from(darts), min_size=size, max_size=size, unique=True)))


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_fast_paths_match_the_former_code_on_relabelled_maps(data):
    q = data.draw(st.sampled_from(_small_corpus()))
    darts = q.map.n_darts
    p = data.draw(st.permutations(range(darts)))
    # a root anywhere for the map; a root on the boundary for the quadrangulation
    anywhere = RootedMap(*_relabelled(q.map.sigma, q.map.alpha, p, p[data.draw(st.integers(0, darts - 1))]))
    _assert_map_matches_oracles(anywhere)
    root = p[data.draw(st.sampled_from(q.map.face_of_root()))]
    m = RootedMap(*_relabelled(q.map.sigma, q.map.alpha, p, root))
    _assert_quad_matches_oracles(LabeledQuad(m, q.n))
    # drawn picked corners (mostly two an inner face, mostly the root among
    # them) and kept vertices (mostly all): both joins fail alike or build
    # the same map
    picked = set()
    for face in m.inner_faces():
        picked |= _some_corners(data, face, [2, 2, 2, 1, 3])
    boundary = m.face_of_root()
    picked |= _some_corners(data, boundary, range(1, len(boundary) + 1))
    if data.draw(st.integers(0, 3)):
        picked.add(m.root)
    dropped = _some_corners(data, range(len(m.vertices())), [0, 0, 0, 1])
    new, old = _joined(m, picked.__contains__, lambda v: v not in dropped, "picked")
    assert new == old


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_validation_matches_the_set_orbit_on_disjoint_unions(data):
    # two corpus maps side by side, relabelled together: the set orbit of the
    # root misses the other map, and validation names the disconnection
    a, b = (data.draw(st.sampled_from(_small_corpus())).map for _ in range(2))
    sigma = list(a.sigma) + [a.n_darts + d for d in b.sigma]
    alpha = list(a.alpha) + [a.n_darts + d for d in b.alpha]
    p = data.draw(st.permutations(range(len(sigma))))
    sigma, alpha, root = _relabelled(sigma, alpha, p, data.draw(st.integers(0, len(sigma) - 1)))
    assert len(_set_orbit(sigma, alpha, root)) < len(sigma)
    with pytest.raises(StructureError, match="map is not connected"):
        RootedMap(sigma, alpha, root)


def _unpruned_bridgeless_maps(b, E):
    """The codomain glued without pruning and filtered afterwards: every
    planar gluing of the root face [b] and the inner faces, kept when its
    boundary has no bridge, one map per class, the first in gluing order."""
    out, seen = [], set()
    inner = 2 * E - b
    for degrees in _partitions(inner, inner):
        matchings, nxt = glue_polygons([b, *degrees])
        for match in matchings:
            m = RootedMap([nxt[match[d]] for d in range(len(match))], match, 0)
            if m.boundary_is_bridgeless() and m.canonical_key() not in seen:
                seen.add(m.canonical_key())
                out.append(m)
    return out


def test_pruned_gluing_matches_the_filtered_gluing():
    # the search that never pairs two root-polygon sides gives exactly the
    # gluings that pair none, and the same maps in the same order
    for b in range(1, 5):
        for E in range(1, 7):
            inner = 2 * E - b
            for degrees in _partitions(inner, inner):
                sizes = [b, *degrees]
                matchings, nxt = glue_polygons(sizes)
                kept = [m for m in matchings if all(m[s] >= b for s in range(b))]
                assert glue_polygons(sizes, bridgeless=True) == (kept, nxt), sizes
            pruned = [(m.sigma, m.alpha, m.root) for m in enumerate_bridgeless_maps(b, E)]
            assert pruned == [(m.sigma, m.alpha, m.root) for m in _unpruned_bridgeless_maps(b, E)], (b, E)


def _codomain_corpus():
    """The bridgeless maps with boundary n <= 3 and n + f edges, f <= 2."""
    return [m for n in range(1, 4) for f in range(3) for m in enumerate_bridgeless_maps(n, n + f)]


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_stored_key_matches_the_dict_relabeling(data):
    # a codomain map or a quadrangulation, its darts relabelled and its root
    # moved anywhere: the key kept from validation is the dict relabeling,
    # and the key of the relabelled map is the key of the original at the
    # image of its root
    m = data.draw(st.sampled_from(_codomain_corpus() + [q.map for q in _small_corpus()]))
    p = data.draw(st.permutations(range(m.n_darts)))
    root = data.draw(st.integers(0, m.n_darts - 1))
    moved = RootedMap(*_relabelled(m.sigma, m.alpha, p, p[root]))
    key = moved.canonical_key()
    assert key == _dict_canonical_key(moved)
    assert key == RootedMap(m.sigma, m.alpha, root).canonical_key()
    assert type(key) is tuple and all(type(part) is tuple for part in key)


def test_white_vertex_images_match_the_dict_construction():
    # exact images over the codomain with n <= 3 and f <= 2, and over the
    # black-corner images of the quadrangulations of the same sizes
    maps = _codomain_corpus() + [angular_inverse(q) for _, _, q in _corpus()]
    for m in maps:
        q = ab_inverse(m)
        assert (q.map.sigma, q.map.alpha, q.map.root) == _dict_ab_inverse(m)
        assert q.n == len(m.face_of_root())


def test_labels_match_the_set_adjacency_on_every_boundary_root():
    # each quadrangulation of the small corpus rooted at every boundary dart
    for q in _small_corpus():
        for root in q.map.face_of_root():
            q2 = LabeledQuad(RootedMap(q.map.sigma, q.map.alpha, root), q.n)
            assert (q2.dist, q2.color, q2.local_max) == _set_adjacency_labels(q2.map)


def test_a_same_level_edge_is_refused():
    # a triangle: edge 2-3 joins the two neighbours of the root vertex,
    # both at distance 1
    triangle = RootedMap([5, 2, 1, 4, 3, 0], [1, 0, 3, 2, 5, 4], 0)
    for n in (1, 2, 3):
        with pytest.raises(VerificationError, match="edge endpoints must differ by 1"):
            LabeledQuad(triangle, n)
