"""Brute-force ground truth: exhaustive rooted planar map enumeration and
the local-rule bijection between labeled quadrangulations with a boundary
and general maps with a bridgeless boundary.

Representation: a rooted combinatorial map is a dart set 0..2E-1 with a
rotation permutation sigma (darts counterclockwise around their origin
vertex), a fixed-point-free involution alpha (the two darts of each edge),
and a distinguished root dart.  Faces are the cycles of sigma o alpha, and
the external face is the face cycle through the root dart.  Connectedness
means <sigma, alpha> acts transitively; genus 0 is Euler's relation
V - E + F = 2.  Validation walks the orbit of the root breadth first,
alpha before sigma: that walk is the connectivity check, and the order of
its first visits is the canonical relabeling, whose key the map keeps for
canonical_key().  Validation also computes the vertex and face cycles
once, with the cycle label of every dart, and the map keeps them: the
labeled quadrangulations, the corner joins, the white-vertex construction
and the oriented distances all read them instead of walking the
permutations again.  Everything runs on flat per-dart lists: the
relabeling and the cycles keep lists of labels, the corner joins and the
white-vertex construction number their new edge ends consecutively around
each vertex or face, and a quadrangulation takes its edge check and its
local maxima from one list of label steps, one per dart.

Enumeration glues polygons: the faces of a quadrangulation with boundary
2n and f inner faces are one 2n-gon plus f squares, and a complete
orientation-preserving pairing of their sides yields a map whose faces are
exactly the polygons.  The search adds one pairing at a time (always the
smallest unmatched side first) while tracking the boundary walks of the
partially glued surface: pairing two sides of one walk splits it (genus
unchanged), pairing sides of different walks in different components
merges them (genus unchanged), and pairing sides of different walks in
one component would add a handle, so that branch is pruned.  Every
complete gluing is therefore planar by construction.  Interchangeable
polygons (inner faces of equal degree) are factored out by an
orderly rule: a fresh polygon may only be entered through its first side
and polygons of a class are entered in index order.  Rooted maps have no
automorphisms fixing the root dart, so each rooted map appears exactly
once per surviving labeled gluing; a canonical breadth-first relabeling
deduplicates the handful of symmetric copies the orderly rule cannot see
(a fresh polygon first contacted by one of its own side pairs).  The
search pairs sides in place: each attempt keeps the cells it overwrites
in locals and restores them in reverse order, a running count of the
unmatched sides tells a complete gluing, and the scan for the least
unmatched side resumes after the side just paired.  The
quadrangulations with at most f inner faces extend the cached list with at
most f - 1, so each face count is glued once per boundary length.

General maps with a bridgeless boundary of length b and E edges (the
image side of the bijection) are glued from the root face [b] plus inner
faces, one run per partition of 2E - b.  In a glued map the root polygon
is the external face and the side pairing is alpha, so a bridge on the
boundary is exactly a pair of root-polygon sides: the codomain search
never pairs two of them, and the bridgeless filter after it stays as a
check that rejects nothing.

Two distinct bijections connect the quadrangulations to general maps with
a bridgeless boundary, and both are implemented: ab_forward applies the
label local rules (non-maxima become vertices, maxima become inner faces)
and is verified to be a bijection by exhausting both sides; ab_inverse
adds a white vertex inside each inner face (vertices become blacks, inner
faces become whites) and its genuine pointwise inverse is
angular_inverse, which connects the black corners of every face.  The two
constructions do NOT invert each other pointwise: composing them changes
vertex counts already at boundary length 4 with one inner face, because
local maxima need not be white.

ab_forward and angular_inverse are one corner-joining construction,
_join_corners, with a different corner test and set of kept vertices:
rising corners with the non-maxima kept, and black corners with the blacks
kept.  It joins the two picked corners of every inner face and the picked
corners of the external face cyclically, and orders the new edge ends
around each kept vertex by the sigma order of their corners.  An inner
picked corner holds one end and an external one two, so the ends are
numbered in one pass over the kept vertex cycles.  Orientation
conventions were pinned by requiring the round trips and the
oriented-distance transport to hold on the whole corpus.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import lru_cache
from itertools import compress

from .errors import CheckReport, ResourceGuardError, StructureError, VerificationError
from .exactalg import BIVARS, MPoly

MAX_DARTS_DEFAULT = 20


def _guard_darts(darts):
    text = os.environ.get("QUADSLICE_MAX_DARTS", str(MAX_DARTS_DEFAULT))
    try:
        limit = int(text)
    except ValueError:
        raise ResourceGuardError(f"QUADSLICE_MAX_DARTS must be an integer, got {text!r}") from None
    if darts > limit:
        raise ResourceGuardError(f"{darts} darts exceed the guard; set QUADSLICE_MAX_DARTS to override")


def _bfs_distances(out_darts, far, root):
    """Breadth-first distances from vertex root, where vertex v reaches
    far[d] for every dart d of out_darts[v]; -1 where unreachable."""
    dist = [-1] * len(out_darts)
    dist[root] = 0
    frontier = [root]
    k = 0
    while frontier:
        k += 1
        nxt_frontier = []
        for v in frontier:
            for d in out_darts[v]:
                u = far[d]
                if dist[u] == -1:
                    dist[u] = k
                    nxt_frontier.append(u)
        frontier = nxt_frontier
    return dist


class RootedMap:
    """A rooted combinatorial map, validated on construction.  Validation
    keeps the canonical key of its breadth-first walk from the root, and
    walks the vertex and face cycles once and keeps them: vertices() and
    faces() return them, and vertex_of[d] and face_of[d] are the indices of
    the cycles through dart d."""

    __slots__ = ("n_darts", "sigma", "alpha", "root", "_key", "_vertices", "_faces", "vertex_of", "face_of")

    def __init__(self, sigma, alpha, root=0):
        self.sigma = tuple(sigma)
        self.alpha = tuple(alpha)
        self.n_darts = len(self.sigma)
        self.root = root
        self.validate()

    def validate(self):
        n = self.n_darts
        sigma, alpha, root = self.sigma, self.alpha, self.root
        if not (type(root) is int and 0 <= root < n):
            raise StructureError(f"root {root!r} is not a dart of the map (darts 0..{n - 1})")
        if {*map(type, sigma), *map(type, alpha)} != {int}:
            bad = next(d for d in sigma + alpha if type(d) is not int)
            raise StructureError(f"dart {bad!r} is not an int")
        darts = list(range(n))
        if sorted(sigma) != darts or sorted(alpha) != darts:
            raise StructureError("sigma and alpha must be permutations of the darts")
        for d, a in enumerate(alpha):
            if a == d or alpha[a] != d:
                raise StructureError("alpha must be a fixed-point-free involution")
        # the orbit of the root under <sigma, alpha>, breadth first with
        # alpha before sigma: the order of first visits is the canonical
        # relabeling, unique because only the identity fixes the root of a
        # connected map
        lab = [-1] * n
        lab[root] = 0
        order = [root]
        for d in order:  # order grows while it is read
            e = alpha[d]
            if lab[e] < 0:
                lab[e] = len(order)
                order.append(e)
            e = sigma[d]
            if lab[e] < 0:
                lab[e] = len(order)
                order.append(e)
        if len(order) != n:
            raise StructureError("map is not connected")
        self._key = (tuple([lab[sigma[d]] for d in order]), tuple([lab[alpha[d]] for d in order]))
        self._vertices, self.vertex_of = self._cycles(sigma)
        self._faces, self.face_of = self._cycles([sigma[a] for a in alpha])
        V, E, F = len(self._vertices), n // 2, len(self._faces)
        if V - E + F != 2:
            raise StructureError(f"map is not planar: V-E+F = {V - E + F}")

    def _cycles(self, perm):
        """The cycles of perm, each from its least dart, and the index of
        the cycle through every dart."""
        label = [-1] * self.n_darts
        out = []
        for d in range(self.n_darts):
            if label[d] >= 0:
                continue
            k = len(out)
            label[d] = k
            cyc = [d]
            e = perm[d]
            while e != d:
                label[e] = k
                cyc.append(e)
                e = perm[e]
            out.append(tuple(cyc))
        return tuple(out), bytes(label) if len(out) <= 256 else tuple(label)  # a byte a label while they fit

    def vertices(self):
        return self._vertices

    def faces(self):
        return self._faces

    def face_of_root(self):
        """The external face: the face cycle through the root dart, from the root."""
        face = self._faces[self.face_of[self.root]]
        k = face.index(self.root)
        return face[k:] + face[:k]

    def inner_faces(self):
        """Every face cycle but the external one, in faces() order."""
        ext = self.face_of[self.root]
        return self._faces[:ext] + self._faces[ext + 1:]

    def boundary_is_bridgeless(self):
        """No edge has both of its darts on the external face."""
        ext = self.face_of[self.root]
        return not any(self.face_of[self.alpha[d]] == ext for d in self._faces[ext])

    def canonical_key(self):
        """(sigma, alpha) relabeled in the breadth-first order of validation
        from the root dart; equal exactly for rooted-isomorphic maps."""
        return self._key

    def is_isomorphic(self, other: "RootedMap") -> bool:
        return self.canonical_key() == other.canonical_key()


# ------------------------------------------------------------ gluing engine

def glue_polygons(sizes, bridgeless=False):
    """All connected genus-0 complete side pairings of labeled polygons.

    sizes[p] is the side count of polygon p; polygon 0 is pinned (its side
    0 is the eventual root dart), and the other polygons of equal size are
    interchangeable, factored out by orderly generation.  With bridgeless,
    no two sides of polygon 0 are paired: once glued, polygon 0 is the
    external face and its boundary carries no bridge.  Returns the match
    arrays (involutions on side indices) and the next-side permutation.
    """
    total = sum(sizes)
    if total % 2:
        raise StructureError("odd total side count cannot be glued")
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
        """The least untouched polygon of p's size; the pinned polygon 0 is alone."""
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
    unmatched = total

    def choose(s):
        """Pair the least unmatched side, which is s or above it, in every
        allowed way; every side below s is matched."""
        nonlocal unmatched
        while match[s] != -1:
            s += 1
        ps = poly_of[s]
        if touched[ps] == 0 and first_fresh_of_class(ps) != ps:
            return  # a lower-index fresh polygon of the class must come first
        rs = find(ps)
        # polygon 0 is sides 0..sizes[0] - 1
        for t in range(sizes[0] if bridgeless and ps == 0 else s + 1, total):
            if match[t] != -1:
                continue
            pt = poly_of[t]
            if touched[pt] == 0 and pt != ps and pt != 0:
                # entering a fresh polygon: its rotation is a symmetry, so
                # enter through side 0 only; within a class of identical
                # polygons, enter the least-index fresh one
                if t != starts[pt] or first_fresh_of_class(pt) != pt:
                    continue
            rt = find(pt)
            if rs == rt and not same_walk(s, t):
                continue  # would attach a handle
            match[s] = t
            match[t] = s
            touched[ps] += 1
            touched[pt] += 1
            unmatched -= 2
            # splice s and t out of the walk structure, keeping each
            # overwritten cell; when s and t are neighbours some writes land
            # on s or t themselves, which no unmatched side points at
            ns, ps_ = wnext[s], wprev[s]
            nt, pt_ = wnext[t], wprev[t]
            w1 = wnext[ps_]
            wnext[ps_] = nt
            w2 = wprev[nt]
            wprev[nt] = ps_
            w3 = wnext[pt_]
            wnext[pt_] = ns
            w4 = wprev[ns]
            wprev[ns] = pt_
            # components and their open side counts; rs stays a root
            open_rs = open_count[rs]
            if rs != rt:
                parent[rt] = rs
                open_count[rs] = open_rs + open_count[rt] - 2
            else:
                open_count[rs] = open_rs - 2
            if not unmatched:
                results.append(match[:])
            elif open_count[rs]:
                choose(s + 1)
            # else the component is sealed while sides remain elsewhere
            open_count[rs] = open_rs
            parent[rt] = rt  # rt was a root; a no-op when rt is rs
            wprev[ns] = w4
            wnext[pt_] = w3
            wprev[nt] = w2
            wnext[ps_] = w1
            unmatched += 2
            touched[ps] -= 1
            touched[pt] -= 1
            match[s] = match[t] = -1

    if total:
        choose(0)
    else:
        results.append([])
    return results, nxt


# ------------------------------------------------------- quadrangulations

class LabeledQuad:
    """A rooted quadrangulation with boundary 2n, distance labels from the
    root vertex, the canonical bicoloring, and local-maximum flags."""

    __slots__ = ("map", "n", "f", "dist", "color", "local_max")

    def __init__(self, m: RootedMap, n):
        self.map = m
        self.n = n
        self.f = (m.n_darts // 2 - n) // 2
        vertex_of, alpha = m.vertex_of, m.alpha
        self.dist = dist = _bfs_distances(m.vertices(), [vertex_of[a] for a in alpha], vertex_of[m.root])
        self.color = ["black" if d % 2 == 0 else "white" for d in dist]
        # the label step along every dart: each is -1 or +1, and the local
        # maxima are the vertices with no rising dart (the root rises
        # along all of its darts)
        label = [dist[v] for v in vertex_of]
        steps = [label[a] - x for a, x in zip(alpha, label)]
        if not {*steps} <= {-1, 1}:
            raise VerificationError("edge endpoints must differ by 1 in distance")
        rising = {*compress(vertex_of, [s > 0 for s in steps])}
        self.local_max = [v not in rising for v in range(len(dist))]
        self.check()

    def check(self):
        m = self.map
        if len(m.face_of_root()) != 2 * self.n:
            raise VerificationError("external face degree is not twice the boundary length")
        for face in m.inner_faces():
            if len(face) != 4:
                raise VerificationError("inner face of degree != 4")
        if self.local_max[m.vertex_of[m.root]]:
            raise VerificationError("root vertex can never be a local maximum")

    def bicolored_exponents(self):
        """(a, b) of its bicolored weight tb^a tw^b: the black vertices but
        the root, and the white vertices."""
        blacks = self.color.count("black") - 1
        whites = self.color.count("white")
        return blacks, whites

    def local_max_exponents(self):
        """(a, b) of its local-maxima weight tb^a tw^b: the vertices but the
        root that are not local maxima, and the local maxima."""
        maxima = self.local_max.count(True)
        others = len(self.local_max) - maxima - 1
        return others, maxima


def _glued_maps(sizes, bridgeless=False):
    """One rooted map per isomorphism class among the planar gluings of the
    polygons sizes, with a bridgeless boundary if asked; the faces of each
    map are exactly the polygons, polygon 0 being the external face.  The
    first map in gluing order represents its class."""
    _guard_darts(sum(sizes))
    matchings, nxt = glue_polygons(sizes, bridgeless)
    out = []
    seen = set()
    for match in matchings:
        m = RootedMap([nxt[match[d]] for d in range(len(match))], match, 0)
        if bridgeless and not m.boundary_is_bridgeless():
            continue  # the gluing search pruned these; the filter stays as the check
        key = m.canonical_key()
        if key in seen:
            continue  # symmetry factoring is a pruning aid, not exact
        seen.add(key)
        out.append(m)
    return out


@lru_cache(maxsize=None)
def enumerate_quads(n, f_max):
    """One representative per rooted isomorphism class, all inner-face
    counts f <= f_max, boundary length 2n: the list at f_max - 1, through
    this cache, then the maps glued with f_max inner faces."""
    if n < 1 or f_max < 0:
        raise StructureError("need n >= 1, f_max >= 0")
    lower = enumerate_quads(n, f_max - 1) if f_max else []
    return lower + [LabeledQuad(m, n) for m in _glued_maps([2 * n] + [4] * f_max)]


def _weight_sum(exponents, n, f_max, cap):
    cap = (n + f_max) if cap is None else cap
    return MPoly(BIVARS, Counter(exponents(q) for q in enumerate_quads(n, f_max)), cap)


def bf_F(n, f_max, cap=None) -> MPoly:
    """Ground-truth bicolored weight sum over all maps with f <= f_max."""
    return _weight_sum(LabeledQuad.bicolored_exponents, n, f_max, cap)


def bf_J(n, f_max, cap=None) -> MPoly:
    """Ground-truth local-maxima weight sum over all maps with f <= f_max."""
    return _weight_sum(LabeledQuad.local_max_exponents, n, f_max, cap)


# ----------------------------------------------------------- general maps

def _partitions(total, max_part):
    """The partitions of total into parts of at most max_part, largest part first."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


@lru_cache(maxsize=None)
def enumerate_bridgeless_maps(boundary_len, n_edges):
    """Rooted general maps with n_edges edges whose external face has the
    given degree and carries no bridge; one per isomorphism class."""
    if boundary_len < 1:
        raise StructureError("need boundary_len >= 1")
    inner = 2 * n_edges - boundary_len
    return [m for degrees in _partitions(inner, inner)
            for m in _glued_maps([boundary_len, *degrees], bridgeless=True)]


# ------------------------------------------------------------- the bijection

def _join_corners(m: RootedMap, picked, kept, kind):
    """The corner-joining construction behind ab_forward and angular_inverse.

    Join the two picked corners of every inner face, and join the picked
    corners of the external face cyclically; picked[d] flags the corner
    that starts at dart d.  Only the vertices v with kept[v] stay, and the
    new edge ends sit around each in sigma order of their corners.  An
    inner picked corner holds one end; an external one holds two, the end
    from its predecessor before the end toward its successor.  So the ends
    are numbered in one pass over the kept vertex cycles, each corner's
    ends consecutively.  Returns the new map, rooted at the end leaving the
    root corner toward its successor, and the kept original vertex of each
    of its vertices.  kind names the picked corners in the error messages.
    """
    ends = bytearray(m.n_darts)  # the number of new edge ends at each corner
    pairs = []
    for face in m.inner_faces():
        corners = [d for d in face if picked[d]]
        if len(corners) != 2:
            raise VerificationError(f"inner face must have exactly two {kind} corners")
        pairs.append(corners)
        ends[corners[0]] = ends[corners[1]] = 1
    ext = [d for d in m.face_of_root() if picked[d]]
    if not picked[m.root]:
        raise VerificationError(f"root corner must be {kind}")
    for d in ext:
        ends[d] = 2

    first = [0] * m.n_darts  # the number of the first end at each picked corner
    sigma = []
    origin = []
    for v, v_cycle in enumerate(m.vertices()):
        if not kept[v]:
            continue
        start = len(sigma)
        for d in v_cycle:
            if ends[d]:
                first[d] = i = len(sigma)
                sigma.extend(range(i + 1, i + 1 + ends[d]))
        if len(sigma) > start:
            sigma[-1] = start  # close the rotation
        origin.append(v)
    if len(sigma) != 2 * (len(pairs) + len(ext)):
        raise VerificationError("an edge end landed on a dropped vertex")
    alpha = [0] * len(sigma)
    for a, b in pairs:
        alpha[first[a]], alpha[first[b]] = first[b], first[a]
    for a, b in zip(ext, ext[1:] + ext[:1]):
        out_a, in_b = first[a] + 1, first[b]  # toward the successor, from the predecessor
        alpha[out_a], alpha[in_b] = in_b, out_a
    return RootedMap(sigma, alpha, first[m.root] + 1), origin


def ab_forward(q: LabeledQuad):
    """Apply the local rules: in every inner face connect the two corners
    followed by a larger label; around the external face connect the
    corners followed by a larger label cyclically; keep only vertices that
    are not local maxima.  Returns the general map and, for each of its
    vertices, the vertex of q.map it came from."""
    m = q.map
    label = [q.dist[v] for v in m.vertex_of]
    sigma = m.sigma
    rising = [label[sigma[a]] > label[d] for d, a in enumerate(m.alpha)]
    if sum(rising[d] for d in m.face_of_root()) != q.n:
        raise VerificationError("external face must have n rising corners")
    new_map, vertex_origin = _join_corners(m, rising, [not flag for flag in q.local_max], "rising")
    if len(new_map.face_of_root()) != q.n:
        raise VerificationError("image boundary length must be n")
    if not new_map.boundary_is_bridgeless():
        raise VerificationError("image boundary must be bridgeless")
    if len(new_map.inner_faces()) != q.local_max.count(True):
        raise VerificationError("inner faces must correspond to local maxima")
    return new_map, vertex_origin


def ab_inverse(m: RootedMap) -> LabeledQuad:
    """Add a white vertex inside each inner face joined to all its corners,
    delete the original edges, and root at the corner left of the root.

    Blacks of the result are the vertices of m and whites its inner faces.
    This is a bijection onto the quadrangulation family, pointwise inverted
    by angular_inverse; it is NOT the pointwise inverse of ab_forward (see
    distinct_bijections_witness)."""
    if not m.boundary_is_bridgeless():
        raise StructureError("boundary must be bridgeless")
    face_of, ext = m.face_of, m.face_of[m.root]
    # one new edge per inner corner d: its black end black[d], the ends
    # numbered consecutively around each vertex in sigma order, then its
    # white end, numbered consecutively around each inner face in face order
    black = [0] * m.n_darts
    sigma = []
    for v_cycle in m.vertices():
        start = len(sigma)
        for d in v_cycle:
            if face_of[d] != ext:
                black[d] = i = len(sigma)
                sigma.append(i + 1)
        if len(sigma) > start:
            sigma[-1] = start  # close the rotation
    alpha = [0] * len(sigma)
    for face in m.inner_faces():
        start = len(sigma)
        sigma.append(start + len(face) - 1)  # a white rotation runs against its face
        sigma.extend(range(start, start + len(face) - 1))
        for w, d in enumerate(face, start):
            alpha[black[d]] = w
            alpha.append(black[d])
    # the corner just left of the root dart at the root vertex
    root_corner = m.sigma[m.root]
    if face_of[root_corner] == ext:
        raise VerificationError("corner left of the root should border an inner face")
    new_map = RootedMap(sigma, alpha, black[root_corner])
    return LabeledQuad(new_map, len(m.face_of_root()))


def oriented_distance_check(m: RootedMap, vertex_origin, q: LabeledQuad):
    """Breadth-first distances on the image m = ab_forward(q)[0], with
    boundary edges usable in one direction only, reproduce the original
    labels on kept vertices; vertex_origin is ab_forward's second value."""
    vertex_of, face_of, ext, alpha = m.vertex_of, m.face_of, m.face_of[m.root], m.alpha
    V = len(m.vertices())
    # a boundary edge runs along its external dart only
    usable = [[d for d in cyc if face_of[d] == ext or face_of[alpha[d]] != ext] for cyc in m.vertices()]
    dist = _bfs_distances(usable, [vertex_of[a] for a in alpha], vertex_of[m.root])
    for new_v in range(V):
        want = q.dist[vertex_origin[new_v]]
        if dist[new_v] != want:
            raise VerificationError(
                f"oriented distance {dist[new_v]} != label {want} at image vertex {new_v}"
            )


def angular_inverse(q: LabeledQuad) -> RootedMap:
    """Undo the white-vertex construction: connect the two black corners of
    every inner face, connect the black corners of the external face
    cyclically, and drop the white vertices.  Root: the edge of the corner
    pair adjacent to the root."""
    black = [c == "black" for c in q.color]
    return _join_corners(q.map, [black[v] for v in q.map.vertex_of], black, "black")[0]


def bijection_check(n, f) -> CheckReport:
    """Full bijection suite at exact size (n, f): the label local-rule map
    is a bijection onto the independently enumerated bridgeless maps with
    the weight transport and oriented distances; the white-vertex map is a
    bijection the other way, pointwise inverted by the black-corner map."""
    report = CheckReport(f"bijection suite n={n} f={f}")
    quads = [q for q in enumerate_quads(n, f) if q.f == f]
    codomain = {m.canonical_key(): m for m in enumerate_bridgeless_maps(n, n + f)}
    images = {}
    for q in quads:
        image, origin = ab_forward(q)  # internal checks: boundary length, bridgeless, face transport
        key = image.canonical_key()
        if key in images:
            raise VerificationError("local-rule map is not injective")
        if key not in codomain:
            raise VerificationError("local-rule image escapes the bridgeless family")
        images[key] = q
        n_max = q.local_max.count(True)
        if len(image.vertices()) != len(q.local_max) - n_max:
            raise VerificationError("vertex transport failed")
        oriented_distance_check(image, origin, q)
    if set(images) != set(codomain):
        raise VerificationError("local-rule map is not surjective")
    report.add(f"label local rules: bijection onto {len(codomain)} maps, "
               "weights transported, oriented distances match")

    quad_keys = [q.map.canonical_key() for q in quads]
    quad_key_set = set(quad_keys)
    seen = set()
    for key, m in codomain.items():
        q2 = ab_inverse(m)
        k2 = q2.map.canonical_key()
        if k2 in seen:
            raise VerificationError("white-vertex map is not injective")
        seen.add(k2)
        if k2 not in quad_key_set:
            raise VerificationError("white-vertex image is not a corpus quadrangulation")
        blacks = q2.color.count("black")
        whites = len(q2.color) - blacks
        if blacks != len(m.vertices()) or whites != len(m.faces()) - 1:
            raise VerificationError("color transport failed")
        if angular_inverse(q2).canonical_key() != key:
            raise VerificationError("black-corner map does not invert the white-vertex map")
    if seen != quad_key_set:
        raise VerificationError("white-vertex map is not surjective")
    report.add("white-vertex construction: bijection the other way, "
               "pointwise inverted by the black-corner map")
    for q, key in zip(quads, quad_keys):
        if ab_inverse(angular_inverse(q)).map.canonical_key() != key:
            raise VerificationError("round trip on the quadrangulation side failed")
    report.add("round trips hold on both sides")
    return report


def distinct_bijections_witness():
    """The two constructions of the correspondence are different bijections:
    return (m, q, image) where q = ab_inverse(m) but the map image =
    ab_forward(q)[0] is not m (their vertex counts already differ).  This
    is why ab_inverse, which realizes the white-vertex construction, is
    inverted by angular_inverse and not by ab_forward."""
    for m in enumerate_bridgeless_maps(2, 3):
        q = ab_inverse(m)
        image = ab_forward(q)[0]
        if not image.is_isomorphic(m):
            return m, q, image
    raise VerificationError("expected a witness among the 9 maps at n=2, E=3")
