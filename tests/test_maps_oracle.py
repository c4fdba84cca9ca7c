"""Exhaustive map enumeration and the two boundary bijections."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from quadslice.errors import ResourceGuardError, StructureError
from quadslice.exactalg import BIVARS, MPoly, bipoly_to_text, tw
from quadslice.maps_oracle import (
    LabeledQuad,
    RootedMap,
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


def test_validation_rejects_bad_maps():
    with pytest.raises(StructureError):
        RootedMap([0, 1], [0, 1], 0)  # alpha has fixed points
    with pytest.raises(StructureError):
        RootedMap([0, 1, 2, 3], [1, 0, 3, 2], 0)  # two disjoint edges
    # a valid double edge passes validation
    RootedMap([1, 0, 3, 2], [2, 3, 0, 1], 0)


@pytest.mark.parametrize("line, message", [
    ("2; (0)(1); (0 1); 5", "root 5 is not a dart"),
    ("2; (0)(1); (0 1); -1", "root -1 is not a dart"),
    ("2; (0)(1); (0 1)", "4 ';'-separated fields, got 3"),
    ("2; (0)(1); (0 1); 0; 0", "4 ';'-separated fields, got 5"),
    ("two; (0)(1); (0 1); 0", "integer fields only"),
    ("2; (0)(x); (0 1); 0", "integer fields only"),
    ("2; (0)(1); (0 1); 0.5", "integer fields only"),
    ("2; (0)(2); (0 1); 0", "dart 2 is not among the 2 darts"),
    ("2; (0)(1); (0 -1); 0", "dart -1 is not among the 2 darts"),
    ("2; (0)(1); (0 1 1); 0", "an edge pairs two darts"),
])
def test_malformed_lines_name_the_problem(line, message):
    with pytest.raises(StructureError, match=message):
        RootedMap.from_line(line)
    assert RootedMap.from_line("2; (0)(1); (0 1); 1").root == 1


def test_root_must_be_a_dart():
    for root in (2, -1):
        with pytest.raises(StructureError, match=f"root {root} is not a dart"):
            RootedMap([1, 0], [1, 0], root)


def test_exchange_format_round_trip():
    for q in enumerate_quads(2, 1):
        line = q.map.to_line()
        again = RootedMap.from_line(line)
        assert again.sigma == q.map.sigma
        assert again.alpha == q.map.alpha
        assert again.root == q.map.root


def test_canonical_key_is_root_sensitive():
    q = enumerate_quads(2, 0)
    keys = {x.map.canonical_key() for x in q}
    assert len(keys) == len(q)


def test_forward_transport_and_distances():
    for q in enumerate_quads(2, 2):
        img = ab_forward(q)
        n_max = sum(q.local_max)
        assert len(img.map.vertices()) == len(q.local_max) - n_max
        assert len(img.map.faces()) - 1 == n_max
        assert len(img.map.face_of_root()) == q.n
        oriented_distance_check(img, q)


def test_loop_image_for_single_edge():
    q = enumerate_quads(1, 0)[0]
    img = ab_forward(q)
    assert img.map.n_darts == 2
    assert len(img.map.vertices()) == 1  # a single loop on one vertex
    assert len(img.map.face_of_root()) == 1


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
    m, q, img = distinct_bijections_witness()
    assert not img.map.is_isomorphic(m)
    assert len(img.map.vertices()) != len(m.vertices())


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


def test_raw_gluings_match_golden():
    lists = [[2 * n] + [4] * f for n in range(1, 4) for f in range(4)]
    lists += [[n, *p] for n in range(1, 4) for f in range(4) for p in _partitions(n + 2 * f, n + 2 * f)]
    glued = [(sizes, glue_polygons(sizes)[0]) for sizes in lists]
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


def test_exchange_format_golden():
    q = enumerate_quads(1, 0)[0]
    assert q.map.to_line() == "2; (0)(1); (0 1); 0"


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
        img = ab_forward(q)
        yield ("ab_forward", n, f, img.map.sigma, img.map.alpha, img.map.root,
               tuple(img.vertex_origin))
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
        yield from (q.map, ab_forward(q).map, m, ab_inverse(m).map)


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
def test_line_format_round_trips_relabelled_maps(data):
    # every map of the corpus, its darts relabelled and its root moved
    for q in (q for n in (1, 2) for q in enumerate_quads(n, 1)):
        darts = q.map.n_darts
        p = data.draw(st.permutations(range(darts)))
        sigma, alpha = [0] * darts, [0] * darts
        for d in range(darts):
            sigma[p[d]], alpha[p[d]] = p[q.map.sigma[d]], p[q.map.alpha[d]]
        m = RootedMap(sigma, alpha, data.draw(st.integers(0, darts - 1)))
        again = RootedMap.from_line(m.to_line())
        assert (again.sigma, again.alpha, again.root) == (m.sigma, m.alpha, m.root)
