"""The truncated icosahedron as a polyhedral graph, with the combinatorial
checks behind the C60 model: census, Euler characteristic, 3-regularity,
isolated pentagons, a Kekule bond assignment (a perfect matching, by
Edmonds' blossom algorithm), and the automorphism count (by flag
propagation over the faces of the embedding).  Each question has one
algorithm, exact on any graph it accepts, not only on C60.

Construction is geometric: each edge of the golden-ratio icosahedron is cut
at its 1/3 and 2/3 points, pentagons are recovered by sorting the cut points
around each original vertex, hexagons by walking each original face.
"""

from __future__ import annotations

import math

import numpy as np


class MatchingInfeasibleError(ValueError):
    def __init__(self, unmatched):
        self.unmatched = tuple(unmatched)
        super().__init__(f"no perfect matching: unmatched vertices {self.unmatched}")


class PolyhedralGraph:
    """Vertices with embedding coordinates, undirected edges, and face cycles;
    ``edge_faces`` maps each walked edge to its faces, in walk order."""

    def __init__(self, vertices: list, edges: list, faces: list):
        self.vertices = vertices
        self.edges = [tuple(sorted(e)) for e in edges]
        self.faces = faces
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")
        if any(a == b for a, b in self.edges):
            raise ValueError("self-loops are not allowed")
        self._adj = {i: set() for i in range(len(vertices))}
        for a, b in self.edges:
            self._adj[a].add(b)
            self._adj[b].add(a)
        edge_set = set(self.edges)
        self.edge_faces = {}
        for fi, face in enumerate(faces):
            for i in range(len(face)):
                e = tuple(sorted((face[i], face[(i + 1) % len(face)])))
                if e not in edge_set:
                    raise ValueError(f"face {face} walks a missing edge {e}")
                self.edge_faces.setdefault(e, []).append(fi)

    def degree_sequence(self) -> list:
        return sorted(len(self._adj[i]) for i in range(len(self.vertices)))

    def validate_face_cover(self):
        """Every edge must lie in exactly two faces (closed surface)."""
        bad = [e for e in self.edges if len(self.edge_faces.get(e, [])) != 2]
        if bad:
            raise ValueError(f"edges not covered by exactly two faces: {bad[:5]}")


_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosahedron() -> tuple[np.ndarray, list]:
    """Golden-ratio icosahedron: 12 unit vertices and 20 triangular faces."""
    t = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [(-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
           (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
           (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1)]
    verts = np.array(raw, dtype=float) / math.sqrt(1.0 + t * t)
    return verts, list(_ICO_FACES)


def _rings(axes, points) -> np.ndarray:
    """For each of the (R, 3) ``axes``, the indices of its (P, 3) row of
    ``points``, an (R, P, 3) array, sorted by angle about the axis, measured
    in the plane orthogonal to it: an (R, P) array from one stable argsort."""
    axes = axes / np.linalg.norm(axes, axis=-1, keepdims=True)
    # reference direction x, or y for an axis within acos(0.9) of x
    ref = np.where(np.abs(axes[:, :1]) > 0.9, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    e1 = ref - (ref * axes).sum(axis=-1, keepdims=True) * axes
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(axes, e1)
    return np.argsort(np.arctan2(points @ e2[:, :, None], points @ e1[:, :, None])[..., 0],
                      axis=-1, kind="stable")


def build_truncated_icosahedron() -> PolyhedralGraph:
    """Cut every icosahedron edge at 1/3 and 2/3: 60 vertices, 90 edges,
    12 pentagons (one per original vertex), 20 hexagons (one per face)."""
    verts, faces = icosahedron()
    # the five neighbours b of each vertex a, ascending: cut point 5a + s is
    # on the edge to nbr[a, s], at 1/3 toward it
    directed = {(f[i - 1], f[i]) for f in faces for i in range(3)}
    nbr = np.array(sorted(directed | {(b, a) for a, b in directed}))[:, 1].reshape(12, 5)
    index = {(a, int(b)): 5 * a + s for (a, s), b in np.ndenumerate(nbr)}
    coords = (verts[:, None] + (verts[nbr] - verts[:, None]) / 3.0).reshape(60, 3)
    edges = {tuple(sorted((index[(a, b)], index[(b, a)]))) for a, b in index if a < b}

    # pentagon at each original vertex: its cut points in angular order
    pentagons = (5 * np.arange(12)[:, None] + _rings(verts, coords.reshape(12, 5, 3))).tolist()
    edges |= {tuple(sorted((cycle[i - 1], cycle[i]))) for cycle in pentagons for i in range(5)}

    # hexagon around each original face: walk its boundary
    hexagons = [[index[(a, b)], index[(b, a)], index[(b, c)], index[(c, b)], index[(c, a)], index[(a, c)]]
                for (a, b, c) in faces]

    graph = PolyhedralGraph(vertices=list(coords),
                            edges=sorted(edges),
                            faces=pentagons + hexagons)
    graph.validate_face_cover()
    return graph


def face_census(g: PolyhedralGraph) -> dict:
    sizes = [len(f) for f in g.faces]
    return {
        "V": len(g.vertices),
        "E": len(g.edges),
        "F": len(g.faces),
        "pentagons": sizes.count(5),
        "hexagons": sizes.count(6),
    }


def euler_check(g: PolyhedralGraph) -> int:
    """V - E + F; 2 for any sphere-like polyhedral graph."""
    return len(g.vertices) - len(g.edges) + len(g.faces)


def isolated_pentagon_check(g: PolyhedralGraph) -> tuple[bool, tuple | None]:
    """True iff every pentagon edge borders a hexagon; otherwise a witness
    pair of pentagon faces sharing an edge."""
    sizes = [len(f) for f in g.faces]
    for fs in g.edge_faces.values():
        pents = [fi for fi in fs if sizes[fi] == 5]
        if len(pents) >= 2:
            return False, (pents[0], pents[1])
    return True, None


def hex_hex_edges(g: PolyhedralGraph) -> list:
    sizes = [len(f) for f in g.faces]
    return [e for e, fs in g.edge_faces.items() if len(fs) == 2
            and sizes[fs[0]] == 6 and sizes[fs[1]] == 6]


def _blossom_matching(n: int, adj, mate: list) -> list:
    """Grow the matching ``mate`` (``mate[v]`` is v's partner, or -1) into a
    maximum one by Edmonds' blossom algorithm (Edmonds 1965, *Paths, trees,
    and flowers*); ``adj[v]`` iterates the neighbours of v.

    From each unmatched root a BFS grows an alternating tree.  An edge
    between two even vertices closes an odd cycle, whose vertices all take
    the cycle's base as their ``base`` and turn even, so the search goes on
    through the contracted blossom.  A root with no augmenting path keeps
    none after later augmentations, so one pass over the roots suffices.
    """
    def climb(v, b, child):
        """Re-point the odd vertices on the cycle from v down to its base b
        at the edge that closed it; return the bases passed."""
        passed = []
        while base[v] != b:
            passed += (base[v], base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[child]
        return passed

    for root in range(n):
        if mate[root] >= 0:
            continue
        base, parent = list(range(n)), [-1] * n
        even = [v == root for v in range(n)]
        queue, end = [root], -1
        for v in queue:
            for w in adj[v]:
                if base[v] == base[w] or mate[v] == w:
                    continue
                if w == root or mate[w] >= 0 and parent[mate[w]] >= 0:
                    # w is even too: contract the cycle at the nearest common base
                    x, seen = base[v], {root}
                    while x != root:
                        seen.add(x)
                        x = base[parent[mate[x]]]
                    x = base[w]
                    while x not in seen:
                        x = base[parent[mate[x]]]
                    blossom = set(climb(v, x, w) + climb(w, x, v))
                    for u in range(n):
                        if base[u] in blossom:
                            base[u] = x
                            if not even[u]:
                                even[u] = True
                                queue.append(u)
                elif parent[w] < 0:
                    parent[w] = v
                    if mate[w] < 0:
                        end = w
                        break
                    even[mate[w]] = True
                    queue.append(mate[w])
            if end >= 0:
                break
        while end >= 0:  # flip the path from end back to the root
            v = parent[end]
            mate[end], mate[v], end = v, end, mate[v]
    return mate


def kekule(g: PolyhedralGraph) -> dict:
    """Single/double bond assignment: a perfect matching carries the double
    bonds.  The pairwise disjoint hexagon-hexagon edges seed the matching,
    which Edmonds' blossom search then grows; on the truncated icosahedron
    those 30 edges are already perfect, the canonical Kekule structure.
    Raises ``MatchingInfeasibleError`` naming the vertices that the maximum
    matching found leaves unmatched."""
    n = len(g.vertices)
    if n % 2 == 1:
        raise MatchingInfeasibleError(range(n))
    degrees = set(g.degree_sequence())
    if degrees != {3}:
        raise ValueError("bond assignment requires a 3-regular graph")

    mate = [-1] * n
    for a, b in hex_hex_edges(g):
        if mate[a] < 0 and mate[b] < 0:
            mate[a], mate[b] = b, a
    mate = _blossom_matching(n, g._adj, mate)
    unmatched = [v for v in range(n) if mate[v] < 0]
    if unmatched:
        raise MatchingInfeasibleError(unmatched)
    double = {(v, mate[v]) for v in range(n) if v < mate[v]}

    bonds = {e: ("double" if e in double else "single") for e in g.edges}
    per_vertex = [0] * n
    for (a, b), kind in bonds.items():
        if kind == "double":
            per_vertex[a] += 1
            per_vertex[b] += 1
    if any(c != 1 for c in per_vertex):
        raise MatchingInfeasibleError([v for v, c in enumerate(per_vertex) if c != 1])
    return bonds


def _flag_involutions(g: PolyhedralGraph) -> tuple[np.ndarray, np.ndarray]:
    """The 4E flags (vertex, edge, face) of a closed face set and the three
    involutions on them, as a (3, 4E) array ``S`` and the vertex of each flag.

    Face f walks its darts v_i -> v_(i+1); the flag 2d + t sits on dart d at
    its tail (t = 0) or head (t = 1).  ``S[0]`` swaps the vertex along the
    edge, ``S[1]`` swaps the edge at the vertex within the face, ``S[2]``
    swaps the face across the edge.  Faces need not be consistently
    oriented: ``S[2]`` pairs flags by vertex, whichever way the two faces
    walk their shared edge.

    Raises ``ValueError`` unless every edge lies in exactly two faces and the
    corners at every vertex close into one ring (a disk around the vertex).
    """
    g.validate_face_cover()
    n = len(g.vertices)
    lengths = np.array([len(f) for f in g.faces])
    tail = np.array([v for f in g.faces for v in f], dtype=np.intp)
    darts = np.arange(tail.size)
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    nxt = start + (darts - start + 1) % np.repeat(lengths, lengths)
    head = tail[nxt]
    vert = np.stack([tail, head], axis=1).ravel()

    flags = np.arange(vert.size)
    S = np.empty((3, vert.size), dtype=np.intp)
    S[0] = flags ^ 1
    S[1, 1::2] = 2 * nxt
    S[1, 2 * nxt] = 2 * darts + 1
    # the two darts of each edge are adjacent once sorted by edge key
    order = np.argsort(np.minimum(tail, head) * n + np.maximum(tail, head), kind="stable")
    a, b = order[0::2], order[1::2]
    flip = (tail[a] != tail[b]).astype(np.intp)[:, None]
    fa = 2 * a[:, None] + np.arange(2)
    fb = 2 * b[:, None] + (np.arange(2) ^ flip)
    S[2, fa] = fb
    S[2, fb] = fa

    # s2.s1 turns about the vertex; each ring of corners is two of its cycles
    label, step = flags, S[2, S[1]]
    for _ in range(int(np.bincount(vert).max()).bit_length()):
        label, step = np.minimum(label, label[step]), step[step]
    rings = np.bincount(vert[label == flags], minlength=n)
    if (rings != 2).any():
        bad = np.flatnonzero(rings != 2)
        raise ValueError(f"corners at vertices {bad[:5].tolist()} do not close into one ring")
    return S, vert


def _flag_count(g: PolyhedralGraph) -> int:
    """Automorphisms of g that carry faces to faces, by flag propagation.

    A map automorphism commutes with the three flag involutions, so on a
    connected flag graph it is fixed by the image of one base flag.  Every
    candidate image (a flag of the same face size and valence) is pushed
    along a BFS spanning tree at once, ``phi[w] = S[k][phi[u]]``; a
    candidate counts when ``phi`` also commutes with ``S`` across every
    non-tree edge.  Distinct vertex images are counted, so two maps that
    differ only by swapping faces on the same vertex cycle count once.
    """
    S, vert = _flag_involutions(g)
    n, F = len(g.vertices), vert.size
    lengths = np.array([len(f) for f in g.faces])
    key = np.repeat(lengths, 2 * lengths) * F + np.bincount(vert)[vert]
    _, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    base = int(np.argmax(inverse == np.argmin(counts)))  # first flag of the rarest kind

    # BFS spanning tree of the flag graph, as (flag, generator, parent) by level
    nbrs = S.T.tolist()
    seen = [False] * F
    seen[base] = True
    levels, level = [], [base]
    while level:
        found = []
        for u in level:
            for k, w in enumerate(nbrs[u]):
                if not seen[w]:
                    seen[w] = True
                    found.append((w, k, u))
        if found:
            levels.append(np.array(found).T)
        level = [w for w, _, _ in found]
    if not all(seen):
        raise ValueError("automorphism count requires a connected graph")

    phi = np.empty((F, counts.min()), dtype=np.intp)
    phi[base] = np.flatnonzero(key == key[base])
    flat = S.ravel()
    for w, k, u in levels:
        phi[w] = flat[(k * F)[:, None] + phi[u]]
    w, k, u = np.concatenate(levels, axis=1)
    tree = np.zeros((3, F), dtype=bool)  # tree[k, x]: the edge x -- S[k, x] is in the tree
    tree[k, u] = tree[k, w] = True

    k, x = np.nonzero(~tree & (S > np.arange(F)))
    ok = (phi[S[k, x]] == flat[(k * F)[:, None] + phi[x]]).all(axis=0)
    at = np.empty(n, dtype=np.intp)
    at[vert] = np.arange(F)
    return len(set(map(bytes, vert[phi[at].T[ok]])))


def automorphism_order(g: PolyhedralGraph) -> int:
    """Order of the combinatorial automorphism group, by flag propagation
    (``_flag_count``): the number of automorphisms that carry faces to
    faces.  For a polyhedral graph, 3-connected and planar with the faces of
    its embedding, that is every automorphism, since the embedding is unique
    (Whitney 1932) and an automorphism is fixed by the image of one flag
    (Weinberg 1966).  A graph without faces, or with faces that do not
    close into a surface, raises ``ValueError``.
    """
    if not g.faces:
        raise ValueError("automorphism count requires the faces of the embedding")
    return _flag_count(g)


def graph_to_json(g: PolyhedralGraph, bonds: dict) -> dict:
    return {
        "vertices": [[float(c) for c in v] for v in g.vertices],
        "edges": [[int(a), int(b)] for a, b in g.edges],
        "faces": [[int(v) for v in f] for f in g.faces],
        "bonds": {f"{a}-{b}": kind for (a, b), kind in sorted(bonds.items())},
    }


def dodecahedron_graph() -> PolyhedralGraph:
    """Test fixture: the regular dodecahedron (dual of the icosahedron),
    whose 12 pentagons all touch other pentagons."""
    verts, faces = icosahedron()
    F = np.array(faces)
    centroids = verts[F].mean(axis=1)
    incidence = np.zeros((20, 12), dtype=np.int64)
    incidence[np.arange(20)[:, None], F] = 1
    # faces sharing two vertices share an edge; the five faces at each vertex ring it
    edges = np.argwhere(np.triu(incidence @ incidence.T == 2, 1))
    incident = np.nonzero(incidence.T)[1].reshape(12, 5)
    rings = np.take_along_axis(incident, _rings(verts, centroids[incident]), axis=1)
    return PolyhedralGraph(vertices=list(centroids), edges=edges.tolist(),
                           faces=rings.tolist())
