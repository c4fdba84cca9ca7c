"""Exhaustive map enumeration and the two boundary bijections."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from quadslice.errors import ResourceGuardError, StructureError
from quadslice.exactalg import tw
from quadslice.maps_oracle import (
    RootedMap,
    ab_forward,
    ab_inverse,
    angular_inverse,
    bf_F,
    bf_J,
    bijection_check,
    distinct_bijections_witness,
    enumerate_bridgeless_maps,
    enumerate_quads,
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


def test_resource_guard(monkeypatch):
    monkeypatch.setenv("QUADSLICE_MAX_DARTS", "6")
    enumerate_quads.cache_clear()
    try:
        with pytest.raises(ResourceGuardError):
            enumerate_quads(2, 3)
    finally:
        enumerate_quads.cache_clear()


def test_exchange_format_golden():
    q = enumerate_quads(1, 0)[0]
    assert q.map.to_line() == "2; (0)(1); (0 1); 0"


def test_bf_weight_golden():
    # one-edge map: a single white vertex beyond the root
    assert bf_F(1, 0) == tw(1)


def _pointwise_digest():
    """sha256 over the exact images of the three constructions on every
    rooted map with n <= 3 and f <= 2, in enumeration order."""
    h = hashlib.sha256()

    def feed(*parts):
        h.update(repr(parts).encode())
        h.update(b"\n")

    for n in range(1, 4):
        for f in range(0, 3):
            for q in enumerate_quads(n, f):
                img = ab_forward(q)
                feed("ab_forward", n, f, img.map.sigma, img.map.alpha, img.map.root,
                     tuple(img.vertex_origin))
                m = angular_inverse(q)
                feed("angular_inverse", n, f, m.sigma, m.alpha, m.root)
            for m in enumerate_bridgeless_maps(n, n + f):
                q = ab_inverse(m).map
                feed("ab_inverse", n, f, q.sigma, q.alpha, q.root)
    return h.hexdigest()


# recorded before the corner-joining constructions shared one builder
POINTWISE_GOLDEN = "6cfa18a27ec979f984a17e62c99e3b03538b5968ab2c0ba06de7d68315f4be1b"


def test_constructions_match_pointwise_golden():
    assert _pointwise_digest() == POINTWISE_GOLDEN


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
